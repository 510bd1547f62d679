"""Pinned SHA-256 digests of CLI output files.

The other reproducibility tests compare one run against another, so a change
to the emitted bytes would pass them unseen.  These values pin the bytes
themselves; a change here is a change to the data format and must be made
on purpose.
"""

import hashlib
import json
import pathlib

import pytest

from mazekit.bench import hash16
from mazekit.cli import main
from mazekit.dataset import read_records
from mazekit.generate import solve_shortest_path
from mazekit.rewards import group_advantages
from mazekit.tokens import parse_maze_tokens, render_maze_tokens, render_move_tokens

POOL_DIGEST = "15bd6c5a18f8a3021b591e092127fc13ef1b5c3663754ec343845ca04ecc680a"
AUGMENT_DIGEST = "f352d97133787b3f150b04a180bb3d04606f3d8e07442bf8c4117f22e7902736"
BUILD_DIGESTS = {
    "test.jsonl": "c22484a0091db70935e9ca931e25be14fa1e470056303fc7bdfb2eda67063115",
    "sft.jsonl": "7eb1d3b41dabdec645cf4ce9678e6a438afe0426e1c45fa5911b4d1d92a0d33f",
    "grpo.jsonl": "3c2c57ae1a314d767574d69a653b5a7bf0167aaa0ec541d60d126d08ef80ba1a",
    "manifest.json": "c3e7418f3da7d31aa9919fc9494424279f9e673d0ee3fddc12738a1ae76ba85b",
}


# generate argv -> (pool digest, digest of ``augment --seed 4`` on that pool)
SHAPED_POOL_DIGESTS = {
    ("--count", "300", "--seed", "3", "--width", "8", "--height", "3"): (
        "6cfe570bc0722a3b5d1732d48f2d425446522da40cca38cb372702e990fb4fd8",
        "2d3b66cc74be2cd70a58b6e9d7cfb8d28d24197eab1d21a5ff9fda0d75ec12ad",
    ),
    ("--count", "300", "--seed", "3", "--width", "3", "--height", "8"): (
        "45e2d079fcdce48c3615d1e5822b0febc6185431679e07a2946d981c62a78abf",
        "4cb9318228eede77b970c79b13dc0aa86fde9b0742090d47350c8d94a60ba11d",
    ),
    ("--count", "200", "--seed", "5", "--width", "9", "--height", "9"): (
        "48481d77e07f7d9ff7401d9e72fdf09e6cee6e6a87331c1dc99e15fb0d256a33",
        "bb56956f378ee7fca20c55a444ac77d0daa0814d802a29b67ce7cc21523fc2ae",
    ),
    ("--count", "300", "--seed", "9", "--min-steps", "9", "--max-steps", "13"): (
        "01ee75a03626f5950bd7e68e990c47dc95c4ceb2e0b79a015dd6135534094a73",
        "7f20a9e01d1e2071804354c49699e7157f798642c60595fc09efb952112b132b",
    ),
}
SHAPED_BUILD_DIGESTS = {
    "test.jsonl": "4bd1e2b059d12cc48aa597fbce0cdd0dd08e08284526ac9aaba41785f40fab64",
    "sft.jsonl": "c91b29cb767ab67c6241dfe7c441ccd26243c46561f68e40255a9cb75f9d69d1",
    "grpo.jsonl": "3ebbcb619e2007981c08326cb7987074e16f141705c664643cffede31ce183d2",
    "manifest.json": "662364e1e9292f35bea1f47cc5a246d3a6a895fdd5b0d0bfc6b8f3551b9ef3dd",
}
# build-dataset --scale 400 at a seed whose pool repeats a test maze id: the
# plan is topped up by one pool item and the manifest records "top_up": 1
TOPPED_UP_BUILD_DIGESTS = {
    "test.jsonl": "707af4a9fadb59be3541541f30ff465bad76972b77681182fcf59958f20234a8",
    "sft.jsonl": "d89bc4d00d2b2e63ebd92c5ca322599f39e9fd0c5cf4eb2a1266c9f59bd06dd7",
    "grpo.jsonl": "deacdf6a9b40e3704cf0663e0b34764967657b9853f0e836f3b45c1558edb3db",
    "manifest.json": "eb731ac7d63ef4933e436c64e754354d6c5fa80287e7bdc8c8d534b69368bc9e",
}
SUITE_DIGEST = "701689268782b66549a8229abf682d0fb6d1b079f355a90d8b6dfae94f9297cc"
BENCH_REPORT_DIGEST = "bb0e73633349ade6f287ecd43b037601b9c9117338acef8b53d18b515bcd7881"
# advantages are normalized per maze: the six GOLDEN rows among themselves, the GAP_MAZE row alone
REWARD_DIGEST = "01e2d6a2e20f6579c04bdb597099ab2602d07d4fcd9117d8f253c826a9ca810d"
TREND_DIGEST = "fc277633d5fbbd4e1ee88df01c1db6993e18e2513657def3a4440accba4162d9"

GOLDEN = (pathlib.Path(__file__).parent / "data" / "example_maze_tokens.txt").read_text(encoding="utf-8")
# the worked example with the left wall of (2,0) removed: a perimeter gap
# two moves left of the origin, so a walk can leave the grid
GAP_MAZE = GOLDEN.replace("<|2-0|><|up_left_wall|>", "<|2-0|><|up_wall|>")
# a suite row's id must be the hash of its maze's text
GAP_ID = hash16(render_maze_tokens(parse_maze_tokens(GAP_MAZE), audit=False))


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_and_augment_digests(tmp_path, capsys):
    pool = tmp_path / "pool.jsonl"
    records = tmp_path / "records.jsonl"
    assert main(["generate", "--count", "500", "--seed", "7", "--out", str(pool)]) == 0
    assert sha256(pool) == POOL_DIGEST
    assert main(["augment", "--in", str(pool), "--seed", "11", "--out", str(records)]) == 0
    assert sha256(records) == AUGMENT_DIGEST


def test_build_dataset_digests(tmp_path, capsys):
    outdir = tmp_path / "ds"
    assert main(["build-dataset", "--seed", "42", "--scale", "400", "--out", str(outdir)]) == 0
    assert {name: sha256(outdir / name) for name in BUILD_DIGESTS} == BUILD_DIGESTS


def test_topped_up_build_dataset_digests(tmp_path, capsys):
    outdir = tmp_path / "ds"
    argv = ["build-dataset", "--seed", "7750221749264622373", "--scale", "400", "--out", str(outdir)]
    assert main(argv) == 0
    assert {name: sha256(outdir / name) for name in TOPPED_UP_BUILD_DIGESTS} == TOPPED_UP_BUILD_DIGESTS
    assert json.loads((outdir / "manifest.json").read_text())["top_up"] == 1
    for split in ("test", "sft", "grpo"):
        read_records(str(outdir / f"{split}.jsonl"), strict=True)


@pytest.mark.parametrize("argv", list(SHAPED_POOL_DIGESTS), ids=lambda argv: "_".join(argv[2:]).replace("--", ""))
def test_shaped_generate_and_augment_digests(tmp_path, capsys, argv):
    pool = tmp_path / "pool.jsonl"
    records = tmp_path / "records.jsonl"
    assert main(["generate", *argv, "--out", str(pool)]) == 0
    assert main(["augment", "--in", str(pool), "--seed", "4", "--out", str(records)]) == 0
    assert (sha256(pool), sha256(records)) == SHAPED_POOL_DIGESTS[argv]


def test_shaped_build_dataset_digests(tmp_path, capsys):
    outdir = tmp_path / "ds"
    argv = ["build-dataset", "--seed", "42", "--scale", "400", "--width", "7", "--height", "4"]
    assert main([*argv, "--out", str(outdir)]) == 0
    assert {name: sha256(outdir / name) for name in SHAPED_BUILD_DIGESTS} == SHAPED_BUILD_DIGESTS


def _wall_hit(m) -> str:
    """Moves along the solution up to its first walled cell, then into that wall."""
    sol = solve_shortest_path(m)
    i = next(i for i, cell in enumerate(sol.cells) if m.wall_at(cell).directions())
    return render_move_tokens(sol.moves[:i] + (m.wall_at(sol.cells[i]).directions()[0],))


def test_bench_build_and_run_digests(tmp_path, capsys):
    pool, suite = tmp_path / "pool.jsonl", tmp_path / "suite.jsonl"
    outputs, report = tmp_path / "outputs.jsonl", tmp_path / "report.json"
    assert main(["generate", "--count", "2000", "--seed", "21", "--out", str(pool)]) == 0
    assert main(["bench", "build", "--pool", str(pool), "--seed", "8", "--out", str(suite)]) == 0
    assert sha256(suite) == SUITE_DIGEST

    rows = [json.loads(line) for line in suite.read_text().splitlines()]
    gap = {"id": GAP_ID, "difficulty": "medium", "steps": 5, "maze_tokens": GAP_MAZE}
    with suite.open("a") as fh:
        fh.write(json.dumps(gap) + "\n")
    answers = [{"id": GAP_ID, "output": "<think>west</think><|left|><|left|>"}]
    for i, row in enumerate(rows):
        m = parse_maze_tokens(row["maze_tokens"])
        kind = i % 4  # 0 solves, 1 has no output, 2 stops short, 3 hits a wall
        if kind == 0:
            answers.append({"id": row["id"], "output": render_move_tokens(solve_shortest_path(m).moves)})
        elif kind == 2:
            answers.append({"id": row["id"], "output": "<think>unsure</think>"})
        elif kind == 3:
            answers.append({"id": row["id"], "output": _wall_hit(m)})
    outputs.write_text("".join(json.dumps(a) + "\n" for a in answers))
    assert main(["bench", "run", "--suite", str(suite), "--outputs", str(outputs), "--report", str(report)]) == 0
    reasons = {v["reason"].split(" at step")[0] for v in json.loads(report.read_text())["verdicts"] if v["reason"]}
    assert reasons == {"no output", "stopped short of target", "wall hit", "out of bounds"}
    assert sha256(report) == BENCH_REPORT_DIGEST


def test_reward_advantages_digest(tmp_path, capsys):
    pairs, out = tmp_path / "pairs.jsonl", tmp_path / "rewards.jsonl"
    solution = "<|left|><|down|><|right|><|down|><|right|>"
    outputs = [
        ("think-solve", GOLDEN, "<think>plan</think>" + solution),
        ("solve", GOLDEN, solution),
        ("wall", GOLDEN, "<think>up</think><|up|>"),
        ("short", GOLDEN, "<|left|>"),
        ("late-think", GOLDEN, "<|left|><think>x</think>"),
        ("empty", GOLDEN, ""),
        ("off-grid", GAP_MAZE, "<think>west</think><|left|><|left|>"),
    ]
    pairs.write_text("".join(
        json.dumps({"id": i, "maze_tokens": maze, "output": text}) + "\n" for i, maze, text in outputs
    ))
    assert main(["reward", "--pairs", str(pairs), "--advantages", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    golden = group_advantages([row["total"] for row in rows[:6]]).advantages
    assert [row["advantage"] for row in rows] == [*golden, 0.0]
    assert sha256(out) == REWARD_DIGEST


def test_trend_digest(tmp_path, capsys):
    csv = tmp_path / "scores.csv"
    csv.write_text("step,score\n0,86.0\n50,86.0\n100,91.0\n150,91.0\n200,88.0\n250,92.5\n300,89.0\n")
    capsys.readouterr()
    assert main(["trend", "--points", str(csv)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == TREND_DIGEST
