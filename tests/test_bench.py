from collections import Counter

import pytest

from mazekit.bench import (
    Difficulty,
    StratumShortfallError,
    build_suite,
    classify_difficulty,
    evaluate_suite,
    fit_trendline,
    maze_id,
)
from mazekit.generate import GenConfig, generate_solved_maze, solve_shortest_path
from mazekit.rng import derive_seed
from mazekit.tokens import render_move_tokens

FIG_POINTS = [(0, 86), (1, 86), (2, 91), (3, 91), (4, 88), (5, 92), (6, 89), (7, 91), (8, 93), (9, 92), (10, 90)]


@pytest.fixture(scope="module")
def bench_pool():
    return [generate_solved_maze(GenConfig(seed=derive_seed(0xBE9C4, i))) for i in range(800)]


@pytest.fixture(scope="module")
def suite(bench_pool):
    return build_suite(bench_pool, seed=7)


@pytest.mark.parametrize(
    "steps,expected",
    [
        (1, Difficulty.EASY),
        (4, Difficulty.EASY),
        (5, Difficulty.MEDIUM),
        (8, Difficulty.MEDIUM),
        (9, Difficulty.HARD),
        (13, Difficulty.HARD),
    ],
)
def test_classify_difficulty_bands(steps, expected):
    assert classify_difficulty(steps) is expected


@pytest.mark.parametrize("steps", [0, -3, 14, 24])
def test_classify_difficulty_out_of_band(steps):
    with pytest.raises(ValueError):
        classify_difficulty(steps)


def test_suite_composition(suite):
    counts = Counter(e.difficulty for e in suite)
    assert counts[Difficulty.EASY] == 50
    assert counts[Difficulty.MEDIUM] == 40
    assert counts[Difficulty.HARD] == 10
    assert len(suite) == 100


def test_suite_respects_step_bands(suite):
    for entry in suite:
        lo, hi = {Difficulty.EASY: (1, 4), Difficulty.MEDIUM: (5, 8), Difficulty.HARD: (9, 13)}[entry.difficulty]
        assert lo <= entry.steps <= hi
        assert solve_shortest_path(entry.maze).steps == entry.steps


def test_suite_samples_without_replacement(suite):
    ids = [e.id for e in suite]
    assert len(set(ids)) == len(ids)


def test_suite_skips_a_maze_the_pool_repeats(suite):
    """A maze the pool repeats is chosen once, and its copies spend no quota."""
    easy = [e.maze for e in suite if e.difficulty is Difficulty.EASY][:3]
    only_easy = {Difficulty.EASY: 3, Difficulty.MEDIUM: 0, Difficulty.HARD: 0}
    suite = build_suite([easy[0]] * 6 + easy[1:], seed=7, composition=only_easy)
    assert sorted(e.id for e in suite) == sorted(maze_id(m) for m in easy)
    with pytest.raises(StratumShortfallError, match="easy short by 1"):
        build_suite([easy[0]] * 6 + easy[1:2], seed=7, composition=only_easy)


def test_suite_deterministic(bench_pool):
    assert build_suite(bench_pool, seed=7) == build_suite(bench_pool, seed=7)
    assert build_suite(bench_pool, seed=7) != build_suite(bench_pool, seed=8)


def test_suite_shortfall_names_stratum():
    pool = [
        generate_solved_maze(GenConfig(seed=derive_seed(5, i), min_steps=1, max_steps=4))
        for i in range(120)
    ]
    with pytest.raises(StratumShortfallError, match="hard"):
        build_suite(pool, seed=1)


def _oracle_outputs(suite):
    return {e.id: render_move_tokens(solve_shortest_path(e.maze).moves) for e in suite}


def test_oracle_agent_scores_100(suite):
    report = evaluate_suite(suite, _oracle_outputs(suite))
    assert report.overall == 100.0
    assert all(rate == 100.0 for rate in report.by_difficulty.values())
    assert all(v.solved and v.reason is None for v in report.verdicts)


def test_null_agent_scores_0(suite):
    report = evaluate_suite(suite, {e.id: "" for e in suite})
    assert report.overall == 0.0
    assert all(not v.solved for v in report.verdicts)


def test_truncated_oracle_scores_0(suite):
    outputs = {
        e.id: render_move_tokens(solve_shortest_path(e.maze).moves[:-1]) for e in suite
    }
    report = evaluate_suite(suite, outputs)
    assert report.overall == 0.0
    assert all(v.reason == "stopped short of target" for v in report.verdicts)


def test_wall_hit_reason_carries_index(suite):
    from mazekit.core import DIRECTIONS
    from reference import is_open

    entry = suite[0]
    closed = next(d for d in DIRECTIONS if not is_open(entry.maze, entry.maze.origin, d))
    outputs = {entry.id: render_move_tokens([closed])}
    report = evaluate_suite(suite, outputs)
    verdict = next(v for v in report.verdicts if v.id == entry.id)
    assert not verdict.solved
    assert verdict.reason == "wall hit at step 0"


def test_missing_output_marked(suite):
    report = evaluate_suite(suite, {})
    assert report.overall == 0.0
    assert all(v.reason == "no output" for v in report.verdicts)


def test_rates_reconstructible_from_verdicts(suite):
    outputs = _oracle_outputs(suite)
    # break half of the easy entries
    for e in suite[:25]:
        outputs[e.id] = ""
    report = evaluate_suite(suite, outputs)
    solved = sum(v.solved for v in report.verdicts)
    assert report.overall == round(100.0 * solved / len(report.verdicts), 1)
    for d, rate in report.by_difficulty.items():
        sub = [v for v in report.verdicts if v.difficulty is d]
        assert rate == round(100.0 * sum(v.solved for v in sub) / len(sub), 1)


def test_maze_id_stable_and_distinct(bench_pool):
    assert maze_id(bench_pool[0]) == maze_id(bench_pool[0])
    assert maze_id(bench_pool[0]) != maze_id(bench_pool[1])


def test_trendline_matches_published_fit():
    fit = fit_trendline(FIG_POINTS)
    assert fit.slope == pytest.approx(0.4636, abs=1e-3)
    assert fit.intercept == pytest.approx(87.5909, abs=1e-3)


def test_trendline_residual_std_oracle():
    # frozen from an independent numpy recomputation of the OLS residuals:
    # np.std(y - (a + b*x)) on the 11 points = 1.738955704481503
    fit = fit_trendline(FIG_POINTS)
    assert fit.residual_std == pytest.approx(1.738955704481503, abs=1e-9)


def test_trendline_against_numpy():
    np = pytest.importorskip("numpy")
    xs = [float(x) for x, _ in FIG_POINTS]
    ys = [float(y) for _, y in FIG_POINTS]
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = fit_trendline(FIG_POINTS)
    assert fit.slope == pytest.approx(slope, abs=1e-9)
    assert fit.intercept == pytest.approx(intercept, abs=1e-9)
    resid = [y - (fit.intercept + fit.slope * x) for x, y in FIG_POINTS]
    assert fit.residual_std == pytest.approx(float(np.std(resid)), abs=1e-12)


def test_trendline_residuals_sum_to_zero():
    fit = fit_trendline(FIG_POINTS)
    assert sum(y - (fit.intercept + fit.slope * x) for x, y in FIG_POINTS) == pytest.approx(0.0, abs=1e-9)


def test_trendline_two_points():
    fit = fit_trendline([(0, 0), (1, 1)])
    assert fit.slope == pytest.approx(1.0)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.residual_std == pytest.approx(0.0, abs=1e-12)


def test_trendline_degenerate():
    with pytest.raises(ValueError):
        fit_trendline([(1, 2)])
    with pytest.raises(ValueError):
        fit_trendline([(3, 1), (3, 5)])


@pytest.mark.parametrize(
    "points",
    [
        [(1e308, 1e308), (-1e308, -1e308)],  # sums overflow: (x - mean) ** 2 would raise OverflowError
        [(0, float("nan")), (1, 1)],
        [(0, float("inf")), (1, 1)],
    ],
)
def test_trendline_rejects_a_non_finite_fit(points):
    with pytest.raises(ValueError, match="fit_trendline requires a finite fit"):
        fit_trendline(points)


def test_negative_quota_rejected(bench_pool):
    with pytest.raises(ValueError, match="non-negative"):
        build_suite(bench_pool, seed=7, composition={Difficulty.EASY: -1, Difficulty.MEDIUM: 0, Difficulty.HARD: 0})
