"""Pinned SHA-256 digests of CLI output files, and the commands that write them.

The other reproducibility tests compare one run against another, so a change
to the emitted bytes would pass them unseen.  These values pin the bytes
themselves; a change here is a change to the data format and must be made
on purpose.

This module needs only the standard library, so every interpreter the
package supports can re-run the generate, augment, build-dataset, bench build,
bench run, reward and trend commands of ``GOLDEN`` without pytest, and read
each build's splits back strictly, one record at a time, checking the facts
across its files (``read_back``): no test maze in sft or grpo, pool indices
rising within each split, and sft's retry count:

    python tests/golden.py

prints each mismatch and exits 1 if there is one.  ``test_golden_digests``
runs the same commands through ``check``.

    python tests/golden.py --full

runs the paper-scale build, ``build-dataset --seed 42 --scale 1``, in a child
process, compares its four files with ``FULL_DIGESTS`` and prints its wall
time and peak RSS beside ``FULL_PEAK_MB``; a peak above that ceiling is a
mismatch too, so a build that holds its records again fails loudly.  Then it
reads all 680,000 records back strictly, in one stream, and prints that time.
It takes about 80 s and 1.2 GB, so no test runs it.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import time

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
# build-dataset --seed 42 --scale 1, the paper's split sizes: 30,000 test, 500,000 sft and 150,000 grpo records
FULL_DIGESTS = {
    "test.jsonl": "099339d54ab4f9db1c180cf821542f558b6b691ff77108c65c49e778cb275434",
    "sft.jsonl": "6bfcd304ce91649d59dc7722da94709f0b226002bbe985d07c6e22e13164968d",
    "grpo.jsonl": "468c06ce317668e9e8414e0aa563a098f5cc6d468872a531de1846bb025ccf23",
    "manifest.json": "1a444b9cfba4a1b11adfcac275d28f88a4fee2387ab8470eb21c9e33bc54f904",
}
# the --scale 1 build's peak RSS ceiling: it reads 1,113-1,245 MB under Python 3.10-3.13 when each
# record is written as it is made, and 1,681 MB when every record is made before the first is written
FULL_PEAK_MB = 1_300
SUITE_DIGEST = "701689268782b66549a8229abf682d0fb6d1b079f355a90d8b6dfae94f9297cc"
BENCH_REPORT_DIGEST = "bb0e73633349ade6f287ecd43b037601b9c9117338acef8b53d18b515bcd7881"
# advantages are normalized per maze: the six GOLDEN rows among themselves, the GAP_MAZE row alone
REWARD_DIGEST = "01e2d6a2e20f6579c04bdb597099ab2602d07d4fcd9117d8f253c826a9ca810d"
TREND_DIGEST = "fc277633d5fbbd4e1ee88df01c1db6993e18e2513657def3a4440accba4162d9"

DATA = pathlib.Path(__file__).parent / "data"
EXAMPLE_MAZE = (DATA / "example_maze_tokens.txt").read_text(encoding="utf-8")
# the worked example with the left wall of (2,0) removed: a perimeter gap
# two moves left of the origin, so a walk can leave the grid
GAP_MAZE = EXAMPLE_MAZE.replace("<|2-0|><|up_left_wall|>", "<|2-0|><|up_wall|>")
# the suite row bench run reads after the ``suite`` command's rows; a suite row's id is its maze's id
GAP_ROW = {"id": "a667604ffa245c95", "difficulty": "medium", "steps": 5, "maze_tokens": GAP_MAZE}
# one output per suite row, or none, for each verdict reason; test_golden_digests re-derives them
BENCH_OUTPUTS = DATA / "bench_outputs.jsonl"
_SOLUTION = "<|left|><|down|><|right|><|down|><|right|>"
# (id, maze_tokens, output) of each ``reward`` pair: six outputs of the worked example, one of the gap maze
REWARD_PAIRS = (
    ("think-solve", EXAMPLE_MAZE, "<think>plan</think>" + _SOLUTION),
    ("solve", EXAMPLE_MAZE, _SOLUTION),
    ("wall", EXAMPLE_MAZE, "<think>up</think><|up|>"),
    ("short", EXAMPLE_MAZE, "<|left|>"),
    ("late-think", EXAMPLE_MAZE, "<|left|><think>x</think>"),
    ("empty", EXAMPLE_MAZE, ""),
    ("off-grid", GAP_MAZE, "<think>west</think><|left|><|left|>"),
)


def _pool(argv, seed, pool_digest, augment_digest):
    """``generate`` with argv, then ``augment --seed seed`` on that pool."""
    commands = (
        ["generate", *argv, "--out", "pool.jsonl"],
        ["augment", "--in", "pool.jsonl", "--seed", seed, "--out", "records.jsonl"],
    )
    return commands, {"pool.jsonl": pool_digest, "records.jsonl": augment_digest}


BUILT = "ds"  # the directory each ``build-dataset`` run writes, which ``check`` reads back strictly


def _build(argv, digests):
    """``build-dataset`` with argv into ``BUILT``."""
    return (["build-dataset", *argv, "--out", BUILT],), {f"{BUILT}/{name}": digest for name, digest in digests.items()}


STDOUT = "stdout.txt"  # what a run's commands print, written into its directory after them

_REWARD_PAIRS_JSONL = "".join(
    json.dumps({"id": i, "maze_tokens": maze, "output": text}) + "\n" for i, maze, text in REWARD_PAIRS
)
_SUITE = (
    ["generate", "--count", "2000", "--seed", "21", "--out", "pool.jsonl"],
    ["bench", "build", "--pool", "pool.jsonl", "--seed", "8", "--out", "suite.jsonl"],
)

# name -> (steps, their output files' digests); a step is a CLI argv, or a {path: text}
# dict whose texts are appended to those files; paths are relative to the run's directory
GOLDEN = {
    "pool": _pool(("--count", "500", "--seed", "7"), "11", POOL_DIGEST, AUGMENT_DIGEST),
    **{
        "pool_" + "_".join(argv[2:]).replace("--", ""): _pool(argv, "4", *digests)
        for argv, digests in SHAPED_POOL_DIGESTS.items()
    },
    "build": _build(("--seed", "42", "--scale", "400"), BUILD_DIGESTS),
    "build_topped_up": _build(("--seed", "7750221749264622373", "--scale", "400"), TOPPED_UP_BUILD_DIGESTS),
    "build_shaped": _build(("--seed", "42", "--scale", "400", "--width", "7", "--height", "4"), SHAPED_BUILD_DIGESTS),
    "suite": (_SUITE, {"suite.jsonl": SUITE_DIGEST}),
    "bench_run": (
        (
            *_SUITE,
            {"suite.jsonl": json.dumps(GAP_ROW) + "\n", "outputs.jsonl": BENCH_OUTPUTS.read_text(encoding="utf-8")},
            ["bench", "run", "--suite", "suite.jsonl", "--outputs", "outputs.jsonl", "--report", "report.json"],
        ),
        {"report.json": BENCH_REPORT_DIGEST},
    ),
    "reward": (
        (
            {"pairs.jsonl": _REWARD_PAIRS_JSONL},
            ["reward", "--pairs", "pairs.jsonl", "--advantages", "--out", "rewards.jsonl"],
        ),
        {"rewards.jsonl": REWARD_DIGEST},
    ),
    "trend": (
        (
            {"scores.csv": "step,score\n0,86.0\n50,86.0\n100,91.0\n150,91.0\n200,88.0\n250,92.5\n300,89.0\n"},
            ["trend", "--points", "scores.csv"],
        ),
        {STDOUT: TREND_DIGEST},
    ),
}


_PATH_FLAGS = ("--in", "--out", "--pool", "--pairs", "--points", "--suite", "--outputs", "--report")


def sha256(path) -> str:
    """The file's digest, read in 1 MiB chunks: a paper-scale split is over 1 GB."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_back(name, outdir) -> list[str]:
    """Read each split of the build in outdir strictly, one record at a time (``iter_jsonl``,
    ``record_from_dict``, ``validate_record``), holding only the test split's maze ids.  A split
    is a mismatch when a record fails, when a record of sft or grpo has a test maze's id, when
    its pool indices do not rise strictly or reach ``total_pool + top_up``, or when its count is
    not its count in manifest.json; sft is one too when its count holds but its retry records are
    not the plan's ``sft_retry_count``."""
    from mazekit.dataset import DatasetError, RecordKind, iter_jsonl, record_from_dict, validate_record

    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    plan, counts = manifest["plan"], manifest["records"]
    pool_end = plan["total_pool"] + manifest.get("top_up", 0)
    test_ids = set()
    mismatches = []
    for split in sorted(counts, key=lambda split: split != "test"):  # test first: training must not hold its ids
        got = retries = 0
        last = -1
        try:
            for where, row in iter_jsonl(str(outdir / f"{split}.jsonl")):
                record = record_from_dict(row, where)
                validate_record(record, where)
                index, maze_id, _ = record.id.split("-")  # validate_record checked the three parts
                index = int(index)
                if split == "test":
                    test_ids.add(maze_id)
                elif maze_id in test_ids:
                    raise DatasetError(f"{where}: maze id {maze_id} is a test maze's")
                if not last < index < pool_end:
                    raise DatasetError(
                        f"{where}: pool index {index} is not above the one before, {last}, and below "
                        f"total_pool + top_up, {pool_end}"
                    )
                last = index
                retries += record.kind is RecordKind.RETRY
                got += 1
        except DatasetError as exc:
            mismatches.append(f"{name}: {split}.jsonl fails the read-back: {exc}")
            continue
        if got != counts[split]:
            mismatches.append(f"{name}: {split}.jsonl reads back {got} records, manifest.json counts {counts[split]}")
        elif split == "sft" and retries != plan["sft_retry_count"]:  # a lost or extra line is named above
            mismatches.append(f"{name}: sft.jsonl holds {retries} retry records, the plan's sft_retry_count is "
                              f"{plan['sft_retry_count']}")
    return mismatches


def check(names=None, root=None) -> list[str]:
    """Run the ``GOLDEN`` steps of each name (all by default), each in its own
    directory under root (a temporary one by default), and return the mismatches,
    those of each build's strict read-back among them."""
    from mazekit.cli import main

    if root is None:
        with tempfile.TemporaryDirectory() as tmp:
            return check(names, tmp)
    mismatches = []
    for name in GOLDEN if names is None else names:
        commands, digests = GOLDEN[name]
        where = pathlib.Path(root) / name
        where.mkdir(parents=True)
        out = io.StringIO()
        for step in commands:
            if isinstance(step, dict):
                for path, text in step.items():
                    with open(where / path, "a", encoding="utf-8") as fh:
                        fh.write(text)
                continue
            # each path after a _PATH_FLAGS flag names a file in the run's directory
            # (a build-dataset --pool count would be rewritten too: the builds give --scale)
            argv = [str(where / a) if flag in _PATH_FLAGS else a for flag, a in zip(["", *step], step)]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = main(argv)
                except SystemExit as e:  # argparse exits on an argv it rejects
                    code = e.code
            if code != 0:
                mismatches.append(f"{name}: {argv[0]} exited {code}: {err.getvalue().strip()}")
        (where / STDOUT).write_bytes(out.getvalue().encode("utf-8"))
        for path, want in digests.items():
            got = sha256(where / path) if (where / path).exists() else "missing"
            if got != want:
                mismatches.append(f"{name}: {path} is {got}, pinned {want}")
        if (where / BUILT / "manifest.json").exists():
            mismatches += read_back(name, where / BUILT)
    return mismatches


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def check_full(root) -> list[str]:
    """Run ``build-dataset --seed 42 --scale 1`` into root in a child process, print its wall
    time and peak RSS, read its splits back with ``read_back`` and print that time, and return
    the files whose digests are not ``FULL_DIGESTS``, a peak RSS above ``FULL_PEAK_MB`` and the
    read-back's mismatches."""
    outdir = pathlib.Path(root) / BUILT
    argv = [sys.executable, "-m", "mazekit.cli", "build-dataset", "--seed", "42", "--scale", "1", "--out", str(outdir)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    run = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    ceiling = f"ceiling {FULL_PEAK_MB:,} MB"
    print(f"build-dataset --seed 42 --scale 1: {wall:.1f} s wall, {peak_mb:,.0f} MB peak RSS ({ceiling})")
    if run.returncode != 0:
        return [f"full: build-dataset exited {run.returncode}: {run.stderr.strip()}"]
    got = {name: sha256(outdir / name) for name in FULL_DIGESTS}
    mismatches = [f"full: {name} is {got[name]}, pinned {want}" for name, want in FULL_DIGESTS.items() if got[name] != want]
    if peak_mb > FULL_PEAK_MB:
        mismatches.append(f"full: peak RSS {peak_mb:,.0f} MB is over the {ceiling}")
    start = time.perf_counter()
    mismatches += read_back("full", outdir)
    print(f"strict read-back: {time.perf_counter() - start:.1f} s")
    return mismatches


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--full"]):
        sys.exit("usage: python tests/golden.py [--full]")
    sys.path.insert(0, SRC)
    version = sys.version.split()[0]
    if sys.argv[1:]:
        with tempfile.TemporaryDirectory() as tmp:
            failed = check_full(tmp)
        passed = f"the --scale 1 build matches its {len(FULL_DIGESTS)} digests and reads back under Python {version}"
    else:
        failed = check()
        passed = f"{len(GOLDEN)} golden commands match under Python {version}"
    print("\n".join(failed) or passed)
    sys.exit(1 if failed else 0)
