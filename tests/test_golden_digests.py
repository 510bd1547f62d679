"""Pinned SHA-256 digests of CLI output files.

The digests, and the generate, augment, build-dataset, bench build, bench
run, reward and trend commands that ``golden.check`` re-runs, live in the
stdlib-only ``tests/golden.py``, so that any interpreter can check them
without pytest.  The inputs it commits, the gap maze's suite row and the
bench outputs, are re-derived here with the package.
"""

import contextlib
import io
import json

import pytest

from mazekit import dataset
from mazekit.bench import maze_id
from mazekit.cli import main
from mazekit.generate import solve_shortest_path
from mazekit.rewards import group_advantages
from mazekit.tokens import parse_maze_tokens, render_move_tokens
import golden
from golden import GAP_MAZE, GAP_ROW


def test_generate_and_augment_digests(tmp_path):
    assert golden.check(["pool"], tmp_path) == []


def test_build_dataset_digests(tmp_path):
    assert golden.check(["build"], tmp_path) == []


def _small_build(ds):
    argv = ["build-dataset", "--seed", "6", "--pool", "60", "--test", "6", "--sft-straight", "20",
            "--sft-retry", "20", "--grpo", "14", "--out", str(ds)]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0


def test_read_back_streams_and_names_a_lost_line(tmp_path, monkeypatch):
    """The read-back counts each split's records one at a time, never through the
    list that ``read_records`` holds, and a split that lost a line is a mismatch
    naming the file and both counts."""
    ds = tmp_path / "ds"
    _small_build(ds)
    monkeypatch.setattr(dataset, "read_records", None)
    assert golden.read_back("small", ds) == []
    lines = (ds / "sft.jsonl").read_bytes().splitlines(keepends=True)
    (ds / "sft.jsonl").write_bytes(b"".join(lines[:17] + lines[18:]))
    assert golden.read_back("small", ds) == ["small: sft.jsonl reads back 39 records, manifest.json counts 40"]


def _index(line: bytes) -> int:
    return int(json.loads(line)["id"].split("-")[0])


def test_read_back_checks_the_facts_across_files(tmp_path):
    """A forged build fails the read-back on the fact it breaks: a test record copied into sft,
    two grpo lines swapped, a plan whose pool ends before the last index or whose sft retry count
    is not the file's."""
    ds = tmp_path / "ds"
    _small_build(ds)
    assert golden.read_back("small", ds) == []
    files = {name: (ds / name).read_bytes() for name in ("test.jsonl", "sft.jsonl", "grpo.jsonl", "manifest.json")}
    lines = {name: data.splitlines(keepends=True) for name, data in files.items()}

    # at the place its pool index sorts to, so only the test id gives it away
    copied = lines["test.jsonl"][2]
    sft = lines["sft.jsonl"]
    at = next(n for n, line in enumerate(sft) if _index(line) > _index(copied))
    (ds / "sft.jsonl").write_bytes(b"".join(sft[:at] + [copied] + sft[at:]))
    maze_id = json.loads(copied)["id"].split("-")[1]
    assert golden.read_back("small", ds) == [
        f"small: sft.jsonl fails the read-back: {ds / 'sft.jsonl'}: line {at + 1}: maze id {maze_id} is a test maze's"
    ]
    (ds / "sft.jsonl").write_bytes(files["sft.jsonl"])

    grpo = lines["grpo.jsonl"]
    (ds / "grpo.jsonl").write_bytes(b"".join(grpo[:4] + [grpo[5], grpo[4]] + grpo[6:]))
    assert golden.read_back("small", ds) == [
        f"small: grpo.jsonl fails the read-back: {ds / 'grpo.jsonl'}: line 6: pool index {_index(grpo[4])} "
        f"is not above the one before, {_index(grpo[5])}, and below total_pool + top_up, 60"
    ]
    (ds / "grpo.jsonl").write_bytes(files["grpo.jsonl"])

    manifest = json.loads(files["manifest.json"])
    last = max(_index(line) for line in lines["test.jsonl"])
    manifest["plan"]["total_pool"] = last
    (ds / "manifest.json").write_text(json.dumps(manifest))
    line = [_index(line) for line in lines["test.jsonl"]].index(last) + 1
    assert golden.read_back("small", ds) == [
        f"small: test.jsonl fails the read-back: {ds / 'test.jsonl'}: line {line}: pool index {last} "
        f"is not above the one before, {_index(lines['test.jsonl'][line - 2])}, and below total_pool + top_up, {last}"
    ]

    manifest["plan"]["total_pool"] = 60
    manifest["plan"]["sft_retry_count"] = 19
    (ds / "manifest.json").write_text(json.dumps(manifest))
    assert golden.read_back("small", ds) == ["small: sft.jsonl holds 20 retry records, the plan's sft_retry_count is 19"]


def test_topped_up_build_dataset_digests(tmp_path):
    assert golden.check(["build_topped_up"], tmp_path) == []
    outdir = tmp_path / "build_topped_up" / "ds"
    assert json.loads((outdir / "manifest.json").read_text())["top_up"] == 1


@pytest.mark.parametrize("name", [name for name in golden.GOLDEN if name.startswith("pool_")], ids=lambda name: name[5:])
def test_shaped_generate_and_augment_digests(tmp_path, name):
    assert golden.check([name], tmp_path) == []


def test_shaped_build_dataset_digests(tmp_path):
    assert golden.check(["build_shaped"], tmp_path) == []


def test_every_golden_command_is_checked():
    """Each ``golden.GOLDEN`` entry is run by one test in this module."""
    shaped = {name for name in golden.GOLDEN if name.startswith("pool_")}
    assert set(golden.GOLDEN) == {
        "pool", "build", "build_topped_up", "build_shaped", "suite", "bench_run", "reward", "trend"
    } | shaped


def _wall_hit(m) -> str:
    """Moves along the solution up to its first walled cell, then into that wall."""
    sol = solve_shortest_path(m)
    i = next(i for i, cell in enumerate(sol.cells) if m.wall_at(cell).directions())
    return render_move_tokens(sol.moves[:i] + (m.wall_at(sol.cells[i]).directions()[0],))


def test_bench_build_and_run_digests(tmp_path):
    assert golden.check(["suite", "bench_run"], tmp_path) == []
    where = tmp_path / "bench_run"
    *rows, gap = [json.loads(line) for line in (where / "suite.jsonl").read_text().splitlines()]
    # a suite row's id must be its maze's id
    assert gap == GAP_ROW and gap["id"] == maze_id(parse_maze_tokens(GAP_MAZE))

    answers = [{"id": gap["id"], "output": "<think>west</think><|left|><|left|>"}]
    for i, row in enumerate(rows):
        m = parse_maze_tokens(row["maze_tokens"])
        kind = i % 4  # 0 solves, 1 has no output, 2 stops short, 3 hits a wall
        if kind == 0:
            answers.append({"id": row["id"], "output": render_move_tokens(solve_shortest_path(m).moves)})
        elif kind == 2:
            answers.append({"id": row["id"], "output": "<think>unsure</think>"})
        elif kind == 3:
            answers.append({"id": row["id"], "output": _wall_hit(m)})
    assert golden.BENCH_OUTPUTS.read_text() == "".join(json.dumps(a) + "\n" for a in answers)
    report = json.loads((where / "report.json").read_text())
    reasons = {v["reason"].split(" at step")[0] for v in report["verdicts"] if v["reason"]}
    assert reasons == {"no output", "stopped short of target", "wall hit", "out of bounds"}


def test_reward_advantages_digest(tmp_path):
    assert golden.check(["reward"], tmp_path) == []
    rows = [json.loads(line) for line in (tmp_path / "reward" / "rewards.jsonl").read_text().splitlines()]
    assert [row["id"] for row in rows] == [i for i, _, _ in golden.REWARD_PAIRS]
    example = group_advantages([row["total"] for row in rows[:6]]).advantages
    assert [row["advantage"] for row in rows] == [*example, 0.0]


def test_trend_digest(tmp_path):
    assert golden.check(["trend"], tmp_path) == []
