"""The three benchmark workloads: build, score and ingest.

Each workload builds its inputs from the workload seed, issues requests
through public mazekit functions and the CLI entry point only, and checks
every output it times.  Timed calls go through module attributes
(``cli.main``, ``rewards.total_reward``, ...) so the tracer's wrappers are
the functions called in a traced run.

A workload offers:
    setup()        build the inputs and issue one checked warm-up request
    request(k)     the k-th timed request; returns its raw output
    items(out)     items the request completed
    check(out)     raise on a wrong output; return a comparable summary
    trace_requests the fixed request indices of one traced pass
    retry_records(summary)  retry records the request wrote (build only)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

from mazekit import cli, dataset, rewards, tokens
from mazekit.augment import AugmentConfig, augment_trace
from mazekit.core import MoveDirection, Position, open_neighbors
from mazekit.dataset import RecordKind
from mazekit.generate import GenConfig, generate_solved_maze, solve_shortest_path
from mazekit.rewards import RewardBreakdown
from mazekit.rng import SplitMix64, derive_seed
from mazekit.tokens import render_maze_tokens, render_move_tokens

DEFAULT_SEED = 0


class CheckFailed(Exception):
    """A timed output differs from what the benchmark expects."""


class Workload:
    trace_requests: tuple[int, ...] = ()

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def retry_records(self, summary) -> int:
        return 0


# --- build ---------------------------------------------------------------

BUILD_SCALE = 400
BUILD_POOL = 1325
BUILD_COUNTS = {"test": 75, "sft": 1250, "grpo": 375}
BUILD_SFT_RETRY = 625
BUILD_FILES = ("test.jsonl", "sft.jsonl", "grpo.jsonl", "manifest.json")

# SHA-256 of the warm-up build: build-dataset --scale 400 at
# derive_seed(DEFAULT_SEED, 0).  A change to these bytes is a change to the
# program's output and must be announced, not absorbed here.
WARMUP_DIGESTS = {
    "test.jsonl": "89a59e146b40b209a48ad47b59c7cf34248ee7fc33b983c64cef60cbdc273a6b",
    "sft.jsonl": "b5df5fbe32095eb9a5b0176f27fc442ff89b0df29d7e72cf40b67c0914d82f9b",
    "grpo.jsonl": "d6bbac6460ca43d29847ca36d3624cd4811845199810aef5ba33d2942fdf7d02",
    "manifest.json": "d1f437b028e2ed67daec0cec3d705d5e163174350081dce37179c8c47b623041",
}


def run_build(seed: int, outdir: str) -> str:
    """One build-dataset call through the CLI entry point, stderr captured."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["build-dataset", "--scale", str(BUILD_SCALE), "--seed", str(seed), "--out", outdir])
    if rc != 0:
        raise CheckFailed(f"build-dataset --seed {seed} exited {rc}: {err.getvalue().strip()}")
    return outdir


def file_digests(outdir: str) -> dict[str, str]:
    digests = {}
    for name in BUILD_FILES:
        with open(os.path.join(outdir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_build(outdir: str) -> tuple[dict[str, str], int]:
    """Plan counts, test/train disjointness and strict record validation."""
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["records"] != BUILD_COUNTS:
        raise CheckFailed(f"{outdir}: manifest counts {manifest['records']} != {BUILD_COUNTS}")
    maze_ids: dict[str, set[str]] = {}
    retry = 0
    for split, count in BUILD_COUNTS.items():
        # strict mode runs validate_record on every record
        records = dataset.read_records(os.path.join(outdir, f"{split}.jsonl"), strict=True)
        if len(records) != count:
            raise CheckFailed(f"{outdir}: {split} has {len(records)} records, plan says {count}")
        # record ids are "<pool index>-<maze id>-<kind>"
        maze_ids[split] = {r.id.split("-")[1] for r in records}
        if split == "sft":
            retry = sum(r.kind is RecordKind.RETRY for r in records)
    if retry != BUILD_SFT_RETRY:
        raise CheckFailed(f"{outdir}: sft has {retry} retry records, plan says {BUILD_SFT_RETRY}")
    leaked = maze_ids["test"] & (maze_ids["sft"] | maze_ids["grpo"])
    if leaked:
        raise CheckFailed(f"{outdir}: test mazes leak into training: {sorted(leaked)[:3]}")
    return file_digests(outdir), retry


class Build(Workload):
    """Request k runs build-dataset --scale 400 at derive_seed(seed, k + 1).

    The warm-up build is request 0 of the default seed whatever --seed is,
    so its digests are pinned and set-up work is the same for every seed.
    """

    name = "build"
    trace_requests = (0,)

    def setup(self) -> None:
        outdir = run_build(derive_seed(DEFAULT_SEED, 0), os.path.join(self.workdir, "warmup"))
        digests, _ = check_build(outdir)
        if digests != WARMUP_DIGESTS:
            changed = sorted(n for n in BUILD_FILES if digests[n] != WARMUP_DIGESTS[n])
            raise CheckFailed(f"warm-up build bytes changed: {changed}")
        shutil.rmtree(outdir)

    def request(self, k: int) -> str:
        return run_build(derive_seed(self.seed, k + 1), os.path.join(self.workdir, f"build-{k}"))

    def items(self, out: str) -> int:
        return BUILD_POOL

    def check(self, out: str) -> tuple[dict[str, str], int]:
        try:
            return check_build(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def retry_records(self, summary) -> int:
        return summary[1]


# --- score ---------------------------------------------------------------

SCORE_MAZES = 1000
GROUP_SIZE = 16
ALL_EQUAL_EVERY = 10
_GROUP_SALT = 0x6A09_E667_F3BC_C909

# The reward rules, restated independently of mazekit.rewards.
CORRECT_PER_STEP = 0.2
TOKEN_POINTS = 0.5
THINK_POINTS = 0.25

BRANCHES = (
    "retry_think",
    "bare",
    "moves_in_think",
    "wall_hit",
    "stopped_short",
    "past_target",
    "no_moves",
    "broken_think",
)


def _wall_hit_moves(m, sol, rng: SplitMix64) -> tuple[MoveDirection, ...]:
    """Legal moves along the solution, then one move into a wall."""
    walled = [i for i, cell in enumerate(sol.cells) if m.wall_at(cell).directions()]
    if walled:
        i = rng.choice(walled)
        return sol.moves[:i] + (m.wall_at(sol.cells[i]).directions()[0],)
    # every path cell is open on all sides: walk to (0,0), whose up wall is perimeter
    corner = Position(0, 0)
    return solve_shortest_path(m.with_endpoints(m.origin, corner)).moves + (MoveDirection.UP,)


def branch_output(branch: str, m, sol, trace, rng: SplitMix64) -> tuple[str, RewardBreakdown]:
    """One model output of the given kind and the breakdown it must score.

    Trace text names moves in plain words, so only the answer's movement
    tokens count toward the rewards.
    """
    n = sol.steps
    moves = render_move_tokens(sol.moves)
    retry_text = trace.render()
    plain = trace.solution_text
    if branch == "retry_think":
        return f"<think>\n{retry_text}\n</think>\n{moves}", RewardBreakdown(CORRECT_PER_STEP * n, TOKEN_POINTS * n, THINK_POINTS)
    if branch == "bare":
        return moves, RewardBreakdown(CORRECT_PER_STEP * n, TOKEN_POINTS * n, 0.0)
    if branch == "moves_in_think":
        return f"<think>\n{moves}\n</think>", RewardBreakdown(CORRECT_PER_STEP * n, TOKEN_POINTS * n, 0.0)
    if branch == "wall_hit":
        bad = _wall_hit_moves(m, sol, rng)
        return f"<think>\n{plain}\n</think>\n{render_move_tokens(bad)}", RewardBreakdown(0.0, TOKEN_POINTS * len(bad), THINK_POINTS)
    if branch == "stopped_short":
        short = render_move_tokens(sol.moves[:-1])
        return f"<think>\n{plain}\n</think>\n{short}", RewardBreakdown(0.0, TOKEN_POINTS * (n - 1), THINK_POINTS)
    if branch == "past_target":
        onward = open_neighbors(m, m.target)[0][0]
        past = render_move_tokens(sol.moves + (onward,))
        return f"<think>\n{plain}\n</think>\n{past}", RewardBreakdown(0.0, TOKEN_POINTS * (n + 1), THINK_POINTS)
    if branch == "no_moves":
        return f"<think>\n{plain}\n</think>\n", RewardBreakdown(0.0, 0.0, THINK_POINTS)
    if branch == "broken_think":
        return f"<think>\n{plain}\n<think>\n{moves}", RewardBreakdown(CORRECT_PER_STEP * n, TOKEN_POINTS * n, 0.0)
    raise ValueError(f"unknown branch {branch!r}")


class Group:
    __slots__ = ("maze_tokens", "outputs", "expected", "all_equal")

    def __init__(self, maze_tokens: str, outputs: tuple[str, ...], expected: tuple[RewardBreakdown, ...]) -> None:
        self.maze_tokens = maze_tokens
        self.outputs = outputs
        self.expected = expected
        self.all_equal = len({e.total for e in expected}) == 1


class Score(Workload):
    """Request k scores GRPO group k mod 1000: parse once, 16 rewards, advantages.

    Every tenth group repeats one output 16 times, so an all-equal group
    (advantages must be all zero) is scored as often as mixed ones.
    """

    name = "score"
    trace_requests = tuple(range(SCORE_MAZES))

    def setup(self) -> None:
        groups = []
        for i in range(SCORE_MAZES):
            maze_seed = derive_seed(self.seed, i)
            m = generate_solved_maze(GenConfig(seed=maze_seed))
            sol = solve_shortest_path(m)
            trace = augment_trace(m, sol, AugmentConfig(seed=maze_seed))
            rng = SplitMix64(derive_seed(self.seed ^ _GROUP_SALT, i))
            if i % ALL_EQUAL_EVERY == ALL_EQUAL_EVERY - 1:
                branches = [BRANCHES[(i // ALL_EQUAL_EVERY) % len(BRANCHES)]] * GROUP_SIZE
            else:
                branches = list(BRANCHES) * (GROUP_SIZE // len(BRANCHES))
                rng.shuffle(branches)
            pairs = [branch_output(b, m, sol, trace, rng) for b in branches]
            groups.append(Group(render_maze_tokens(m), tuple(o for o, _ in pairs), tuple(e for _, e in pairs)))
        self.groups = groups
        self.check(self.request(0))

    def request(self, k: int):
        group = self.groups[k % len(self.groups)]
        m = tokens.parse_maze_tokens(group.maze_tokens)
        scores = tuple(rewards.total_reward(m, out) for out in group.outputs)
        return group, scores, rewards.group_advantages([s.total for s in scores])

    def items(self, out) -> int:
        return len(out[1])

    def check(self, out) -> tuple[float, ...]:
        group, scores, adv = out
        for i, (got, want) in enumerate(zip(scores, group.expected)):
            if got != want:
                raise CheckFailed(f"output {i}: reward {got} != expected {want}")
        advantages = adv.advantages
        if len(advantages) != GROUP_SIZE:
            raise CheckFailed(f"{len(advantages)} advantages for a group of {GROUP_SIZE}")
        if group.all_equal:
            if any(a != 0.0 for a in advantages):
                raise CheckFailed(f"all-equal group got nonzero advantages {advantages}")
        elif abs(sum(advantages)) > 1e-9:
            raise CheckFailed(f"advantages not centred: sum {sum(advantages)}")
        return tuple(s.total for s in scores)


# --- ingest --------------------------------------------------------------

SHARD_RECORDS = 100


class Ingest(Workload):
    """Request k reads shard k mod 17 of one scale-400 build, strictly.

    Set-up builds the dataset at derive_seed(seed, 0) and cuts its test, sft
    and grpo files, in that order, into 100-record JSONL shards.
    """

    name = "ingest"

    def setup(self) -> None:
        outdir = run_build(derive_seed(self.seed, 0), os.path.join(self.workdir, "ingest-build"))
        lines: list[str] = []
        for split in BUILD_COUNTS:
            with open(os.path.join(outdir, f"{split}.jsonl"), encoding="utf-8") as fh:
                lines.extend(fh)
        shutil.rmtree(outdir)
        self.shards = []
        self.expected_ids = []
        for start in range(0, len(lines), SHARD_RECORDS):
            chunk = lines[start : start + SHARD_RECORDS]
            path = os.path.join(self.workdir, f"shard-{start // SHARD_RECORDS:03d}.jsonl")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunk)
            self.shards.append(path)
            self.expected_ids.append([json.loads(line)["id"] for line in chunk])
        self.trace_requests = tuple(range(len(self.shards)))
        self.check(self.request(0))

    def request(self, k: int):
        j = k % len(self.shards)
        return j, dataset.read_records(self.shards[j], strict=True)

    def items(self, out) -> int:
        return len(out[1])

    def check(self, out) -> int:
        j, records = out
        if len(records) != SHARD_RECORDS:
            raise CheckFailed(f"shard {j}: {len(records)} records, expected {SHARD_RECORDS}")
        if [r.id for r in records] != self.expected_ids[j]:
            raise CheckFailed(f"shard {j}: record ids differ from the shard written")
        return len(records)


WORKLOADS = {w.name: w for w in (Build, Score, Ingest)}
