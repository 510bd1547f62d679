"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import pathlib
import time
from collections import Counter

import pytest

from mazekit.augment import (
    DEAD_END_MESSAGE,
    RESET_MARKER,
    WRONG_DIRECTION_MESSAGE,
    AugmentConfig,
    TerminalKind,
    augment_trace,
    build_attempts,
)
from mazekit.bench import Difficulty, build_suite, evaluate_suite, fit_trendline
from mazekit.core import MoveDirection, Position, SimStatus, simulate_moves, validate_maze
from mazekit.dataset import RecordKind, SplitPlan, build_splits, validate_record, write_records
from mazekit.generate import (
    GenConfig,
    generate_solved_maze,
    solve_shortest_path,
)
from mazekit.rewards import group_advantages, total_reward
from mazekit.rng import derive_seed
from mazekit.tokens import (
    parse_maze_tokens,
    render_maze_tokens,
    render_move_tokens,
)
from reference import attempt_cells, is_open, materialized, open_passage_count

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "example_maze_tokens.txt"

U, D, L, R = MoveDirection.UP, MoveDirection.DOWN, MoveDirection.LEFT, MoveDirection.RIGHT


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_golden_round_trip():
    start = time.monotonic()
    golden = GOLDEN_PATH.read_text(encoding="utf-8")
    maze = parse_maze_tokens(golden)
    assert render_maze_tokens(maze) == golden
    assert maze.origin == Position(2, 1)
    assert maze.target == Position(4, 2)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"golden file round trip byte-exact, endpoints (2,1)/(4,2), {elapsed:.3f}s")


def test_criterion_2_oracle_solution_unique():
    start = time.monotonic()
    maze = parse_maze_tokens(GOLDEN_PATH.read_text(encoding="utf-8"))
    sol = solve_shortest_path(maze)
    assert list(sol.moves) == [L, D, R, D, R]

    # independent oracle: exhaustive enumeration of simple origin->target paths
    from mazekit.core import open_neighbors

    found = []
    stack = [(maze.origin, [maze.origin])]
    while stack:
        cur, path = stack.pop()
        if cur == maze.target:
            found.append(path)
            continue
        for _, nxt in open_neighbors(maze, cur):
            if nxt not in path:
                stack.append((nxt, path + [nxt]))
    assert len(found) == 1
    assert found[0] == list(sol.cells)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"solution is Left,Down,Right,Down,Right and unique by enumeration, {elapsed:.3f}s")


def test_criterion_3_perfect_maze_suite():
    start = time.monotonic()
    for i in range(1000):
        m = generate_solved_maze(GenConfig(seed=derive_seed(0xACCE91, i)))
        assert open_passage_count(m) == 24
        assert validate_maze(m) == []
        sol = solve_shortest_path(m)
        assert simulate_moves(m, m.origin, sol.moves).status is SimStatus.REACHED_TARGET
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(3, f"1000 seeds: 24 passages, connected, valid, solvable, {elapsed:.2f}s")


def test_criterion_4_round_trip_property():
    failures = 0
    for i in range(1000):
        m = generate_solved_maze(GenConfig(seed=derive_seed(0xACCE92, i)))
        if parse_maze_tokens(render_maze_tokens(m)) != m:
            failures += 1
    assert failures == 0
    report(4, "parse(render(m)) == m over 1000 mazes, 0 failures")


def test_criterion_5_reset_constraints():
    violations = []
    augmented = 0
    for i in range(1000):
        m = generate_solved_maze(GenConfig(seed=derive_seed(0xACCE93, i)))
        sol = solve_shortest_path(m)
        cfg = AugmentConfig(max_n_steps=3, seed=derive_seed(0xACCE94, i))
        attempts = build_attempts(m, sol, cfg)
        path = set(sol.cells)
        for a in attempts:
            cells = attempt_cells(m, a)
            if len(set(cells)) != len(cells):
                violations.append((i, "revisited cell"))
            if any(c in path for c in cells[1:]):
                violations.append((i, "correct-path cell beyond anchor"))
            dead = m.wall_at(cells[-1]).bit_count() == 3
            if (a.terminal_kind is TerminalKind.DEAD_END) != dead:
                violations.append((i, "terminal kind vs wall count"))
        trace = augment_trace(m, sol, cfg)
        if trace.is_retry:
            augmented += 1
            lines = trace.render().split("\n")
            for a in trace.attempts:
                if a.message not in (DEAD_END_MESSAGE, WRONG_DIRECTION_MESSAGE):
                    violations.append((i, f"unexpected message {a.message!r}"))
            for k, line in enumerate(lines):
                if line in (DEAD_END_MESSAGE, WRONG_DIRECTION_MESSAGE):
                    if k + 1 >= len(lines) or lines[k + 1] != RESET_MARKER:
                        violations.append((i, "message not followed by RESET"))
    assert violations == []
    assert augmented > 0
    report(5, f"1000 mazes ({augmented} with retries): attempt constraints and message literals, 0 violations")


def test_criterion_6_desk_scale_split_replica():
    start = time.monotonic()
    plan = SplitPlan.scaled(100)
    gen_cfg = GenConfig(seed=0xD339)
    aug_cfg = AugmentConfig(max_n_steps=3, seed=0xA339)

    splits = materialized(build_splits(plan, gen_cfg, aug_cfg))
    assert len(splits.test) == 300
    straight = [r for r in splits.sft if r.kind is RecordKind.STRAIGHT_SUCCESS]
    retry = [r for r in splits.sft if r.kind is RecordKind.RETRY]
    assert len(straight) == 2500
    assert len(retry) == 2500
    assert len(splits.grpo) == 1500

    test_ids = {r.id.split("-")[1] for r in splits.test}
    train_ids = {r.id.split("-")[1] for r in splits.sft + splits.grpo}
    assert not test_ids & train_ids

    for r in splits.test + splits.sft + splits.grpo:
        validate_record(r)

    second = materialized(build_splits(plan, gen_cfg, aug_cfg))
    assert second == splits

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        p1 = pathlib.Path(tmp) / "one.jsonl"
        p2 = pathlib.Path(tmp) / "two.jsonl"
        write_records(splits.sft, str(p1))
        write_records(second.sft, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(6, f"pool 5300 / test 300 / sft 2500+2500 / grpo 1500, disjoint, byte-identical, {elapsed:.1f}s")


def test_criterion_7_bench_harness():
    pool = [generate_solved_maze(GenConfig(seed=derive_seed(0xACCE97, i))) for i in range(700)]
    suite = build_suite(pool, seed=17)
    counts = Counter(e.difficulty for e in suite)
    assert counts[Difficulty.EASY] == 50
    assert counts[Difficulty.MEDIUM] == 40
    assert counts[Difficulty.HARD] == 10
    for e in suite:
        lo, hi = {Difficulty.EASY: (1, 4), Difficulty.MEDIUM: (5, 8), Difficulty.HARD: (9, 13)}[e.difficulty]
        assert lo <= e.steps <= hi

    oracle = {e.id: render_move_tokens(solve_shortest_path(e.maze).moves) for e in suite}
    assert evaluate_suite(suite, oracle).overall == 100.0

    null = {e.id: "" for e in suite}
    assert evaluate_suite(suite, null).overall == 0.0

    truncated = {e.id: render_move_tokens(solve_shortest_path(e.maze).moves[:-1]) for e in suite}
    assert evaluate_suite(suite, truncated).overall == 0.0

    from mazekit.core import DIRECTIONS

    entry = suite[0]
    closed = next(d for d in DIRECTIONS if not is_open(entry.maze, entry.maze.origin, d))
    report_doc = evaluate_suite(suite, {entry.id: render_move_tokens([closed])})
    verdict = next(v for v in report_doc.verdicts if v.id == entry.id)
    assert not verdict.solved
    assert verdict.reason == "wall hit at step 0"
    report(7, "suite 50/40/10; oracle 100.0, null 0.0, truncated 0.0, wall-hit index reported")


def test_criterion_8_reward_arithmetic():
    from mazekit.generate import place_endpoints

    example = parse_maze_tokens(GOLDEN_PATH.read_text(encoding="utf-8"))

    # worked example: a 4-step solution earns 0.2 x 4 correctness
    cfg4 = GenConfig(seed=8, min_steps=4, max_steps=4)
    m4 = place_endpoints(example, cfg4)
    sol4 = solve_shortest_path(m4)
    assert sol4.steps == 4
    b4 = total_reward(m4, render_move_tokens(sol4.moves))
    assert abs(b4.correctness - 0.8) < 1e-9

    # full-output reward on the worked example's own maze
    output = "<think>trace</think>" + render_move_tokens(solve_shortest_path(example).moves)
    b = total_reward(example, output)
    assert abs(b.correctness - 1.0) < 1e-9
    assert abs(b.integrity - 2.5) < 1e-9
    assert abs(b.thinking - 0.25) < 1e-9
    assert abs(b.total - 3.75) < 1e-9

    # group advantage identities
    adv = group_advantages([0.5, 1.5], epsilon=0.0).advantages
    assert abs(adv[0] + 1.0) < 1e-9 and abs(adv[1] - 1.0) < 1e-9

    group = [0.0, 0.7, 1.3, 3.75, 2.5]
    base = group_advantages(group, epsilon=0.0).advantages
    assert abs(sum(base)) < 1e-9
    shifted = group_advantages([g + 11.25 for g in group], epsilon=0.0).advantages
    assert all(abs(a - b) < 1e-9 for a, b in zip(base, shifted))
    report(8, "0.2x4=0.8 worked example, {1.0, 2.5, 0.25, 3.75} breakdown, advantage identities at 1e-9")


def test_criterion_9_trendline():
    points = [(0, 86), (1, 86), (2, 91), (3, 91), (4, 88), (5, 92), (6, 89), (7, 91), (8, 93), (9, 92), (10, 90)]
    fit = fit_trendline(points)
    assert fit.slope == pytest.approx(0.4636, abs=1e-3)
    assert fit.intercept == pytest.approx(87.5909, abs=1e-3)
    report(9, f"trendline slope {fit.slope:.4f}, intercept {fit.intercept:.4f} within 1e-3")
