import dataclasses
import importlib.util
import math
import pathlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mazekit import rewards
from mazekit.augment import ReasoningTrace
from mazekit.core import SimStatus
from mazekit.generate import GenConfig, generate_solved_maze, place_endpoints, solve_shortest_path
from mazekit.rewards import (
    OUTCOME_CACHE,
    RewardBreakdown,
    correctness_reward,
    group_advantages,
    integrity_reward,
    thinking_reward,
    total_reward,
)
from mazekit.tokens import parse_maze_tokens, render_move_tokens, walk_answer
from reference import reference_total_reward

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def four_step_maze(example_maze):
    # same wall grid as the worked example, endpoints re-drawn 4 steps apart
    cfg = GenConfig(seed=8, min_steps=4, max_steps=4)
    m = place_endpoints(example_maze, cfg)
    assert solve_shortest_path(m).steps == 4
    return m


def _solution_text(m):
    return render_move_tokens(solve_shortest_path(m).moves)


def test_four_step_solution_scores_point_eight(four_step_maze):
    assert correctness_reward(four_step_maze, _solution_text(four_step_maze)) == pytest.approx(0.8)


def test_example_solution_scores_one(example_maze):
    assert correctness_reward(example_maze, _solution_text(example_maze)) == pytest.approx(1.0)


def test_move_token_spam_outscores_the_oracle():
    """FOUND (ROADMAP item 7), pinned as it stands: integrity pays 0.5 per
    movement token anywhere in the output, so on the seed-7 maze (6 steps)
    token spam, solving or not, out-scores the oracle answer."""
    m = generate_solved_maze(GenConfig(seed=7))
    trace = ReasoningTrace(m, (), solve_shortest_path(m))
    assert trace.solution.steps == 6
    moves = render_move_tokens(trace.solution.moves)
    assert total_reward(m, f"<think>{trace.solution_text}</think>{moves}").total == pytest.approx(4.45)
    assert total_reward(m, "<think></think>" + "<|up|>" * 40).total == pytest.approx(20.25)
    padded = f"<think>{trace.solution_text}{'<|left|>' * 20}</think>{moves}"
    assert total_reward(m, padded).total == pytest.approx(13.0)


def test_non_solving_output_scores_zero(example_maze):
    assert correctness_reward(example_maze, "<|up|>") == 0.0  # wall hit
    assert correctness_reward(example_maze, "<|left|>") == 0.0  # stopped short
    assert correctness_reward(example_maze, "") == 0.0


def test_overshoot_is_not_a_solution(example_maze):
    # passing through the target and legally walking on does not count
    solving = _solution_text(example_maze)
    assert correctness_reward(example_maze, solving + "<|right|>") == 0.0


def test_integrity_counts_tokens(example_maze):
    assert integrity_reward("noise <|left|><|down|> more") == pytest.approx(1.0)
    assert integrity_reward("nothing") == 0.0
    assert integrity_reward(_solution_text(example_maze)) == pytest.approx(2.5)


def test_thinking_reward_well_formed():
    assert thinking_reward("<think>reasoning</think><|up|>") == pytest.approx(0.25)
    assert thinking_reward("<think>no moves at all</think>") == pytest.approx(0.25)


@pytest.mark.parametrize(
    "output",
    [
        "<think>unterminated",
        "missing opening</think>",
        "<think>a</think><think>b</think><|up|>",
        "</think>backwards<think>",
        "<|up|><think>late</think>",
        "<think>move inside <|up|> tag</think><|down|>",
    ],
)
def test_thinking_reward_malformed(output):
    assert thinking_reward(output) == 0.0


def test_total_reward_on_example(example_maze):
    output = "<think>scan the grid</think>" + _solution_text(example_maze)
    breakdown = total_reward(example_maze, output)
    assert breakdown.correctness == pytest.approx(1.0)
    assert breakdown.integrity == pytest.approx(2.5)
    assert breakdown.thinking == pytest.approx(0.25)
    assert breakdown.total == pytest.approx(3.75)


def test_total_reward_empty(example_maze):
    breakdown = total_reward(example_maze, "")
    assert (breakdown.correctness, breakdown.integrity, breakdown.thinking, breakdown.total) == (0, 0, 0, 0)


def test_total_reward_think_only(example_maze):
    breakdown = total_reward(example_maze, "<think>hmm</think>")
    assert breakdown.total == pytest.approx(0.25)
    assert breakdown.thinking == pytest.approx(0.25)


def test_group_advantages_zero_variance():
    assert group_advantages([1.0, 1.0, 1.0]).advantages == (0.0, 0.0, 0.0)
    assert group_advantages([2.0, 2.0], epsilon=0.0).advantages == (0.0, 0.0)


def test_group_advantages_oracle_case():
    # mean 1.0, population std 0.5: (0.5-1)/0.5 = -1, (1.5-1)/0.5 = 1
    adv = group_advantages([0.5, 1.5], epsilon=0.0).advantages
    assert adv[0] == pytest.approx(-1.0, abs=1e-12)
    assert adv[1] == pytest.approx(1.0, abs=1e-12)


def test_group_advantages_one_ulp_apart_keep_their_signs():
    """Two rewards one ulp apart normalize to +1 and -1, as any two distinct rewards do."""
    assert group_advantages([100.0, 99.99999999999999], epsilon=0.0).advantages == (1.0, -1.0)


@pytest.mark.parametrize(
    "rewards, epsilon, message",
    [
        ([1e308, -1e308], 1e-8, r"^the rewards are finite, but their spread overflows: std \+ epsilon is nan$"),
        ([0.0, 1e200], 0.0, r"^the rewards are finite, but their spread overflows: std \+ epsilon is inf$"),
        ([float("inf"), float("inf")], 0.0, r"^reward 0 is inf, not a finite number$"),
        ([float("nan"), 1.0], 1e-8, r"^reward 0 is nan, not a finite number$"),
        ([1.0, 2.0, float("-inf")], 1e-8, r"^reward 2 is -inf, not a finite number$"),
    ],
)
def test_group_advantages_rejects_what_has_no_finite_scale(rewards, epsilon, message):
    """Rewards that would normalize to NaN raise, naming the first non-finite one."""
    with pytest.raises(ValueError, match=message):
        group_advantages(rewards, epsilon=epsilon)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=16))
@example([1e308, -1e308])  # finite rewards whose spread overflows
@example([0.0, 2.6815615859885194e154])  # a finite deviation whose square overflows
@example([float("inf"), float("inf")])
@example([float("nan"), 1.0])
def test_group_advantages_are_finite_or_raise(rewards):
    """Any floats either normalize to finite advantages or raise ValueError."""
    try:
        adv = group_advantages(rewards, epsilon=0.0).advantages
    except ValueError as e:
        bad = [k for k, r in enumerate(rewards) if not math.isfinite(r)]
        assert str(e).startswith(f"reward {bad[0]} is" if bad else "the rewards are finite, but their spread overflows")
    else:
        assert all(math.isfinite(a) for a in adv)


@pytest.mark.parametrize("epsilon", [-1.0, -0.5, float("nan"), float("inf")])
def test_group_advantages_rejects_a_negative_or_non_finite_epsilon(epsilon):
    """A negative epsilon would flip (-1.0) or zero (-0.5) the advantages of [0.0, 1.0]."""
    with pytest.raises(ValueError, match=re.escape(f"epsilon must be a finite number >= 0, got {epsilon!r}")):
        group_advantages([0.0, 1.0], epsilon=epsilon)


def test_group_advantages_empty():
    with pytest.raises(ValueError):
        group_advantages([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=16))
@example([100.0, 99.99999999999999])  # one ulp apart: a float mean rounds onto one of them
def test_group_advantages_zero_mean(rewards):
    adv = group_advantages(rewards, epsilon=0.0).advantages
    assert abs(sum(adv)) / len(adv) < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-500, 500).map(lambda v: v / 10), min_size=2, max_size=8),
    st.integers(-100, 100).map(lambda v: v / 10),
)
def test_group_advantages_shift_invariance(rewards, shift):
    base = group_advantages(rewards).advantages
    shifted = group_advantages([r + shift for r in rewards]).advantages
    for a, b in zip(base, shifted):
        assert a == pytest.approx(b, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(6))))
def test_group_advantages_permutation_equivariance(perm):
    rewards = [0.0, 0.5, 1.0, 1.5, 2.5, 4.0]
    base = group_advantages(rewards).advantages
    permuted = group_advantages([rewards[i] for i in perm]).advantages
    for k, i in enumerate(perm):
        assert permuted[k] == pytest.approx(base[i], abs=1e-12)


def test_total_is_componentwise_sum(example_maze):
    outputs = ["", "<think>x</think>", "<|left|>", _solution_text(example_maze)]
    for out in outputs:
        b = total_reward(example_maze, out)
        assert b.total == b.correctness + b.integrity + b.thinking


def _spam_case():
    """The seed-7 maze and its three pinned outputs with their totals (see the test above)."""
    m = generate_solved_maze(GenConfig(seed=7))
    trace = ReasoningTrace(m, (), solve_shortest_path(m))
    moves = render_move_tokens(trace.solution.moves)
    return m, {
        f"<think>{trace.solution_text}</think>{moves}": 4.45,
        "<think></think>" + "<|up|>" * 40: 20.25,
        f"<think>{trace.solution_text}{'<|left|>' * 20}</think>{moves}": 13.0,
    }


def test_pinned_spam_scores_match_the_reference():
    m, totals = _spam_case()
    for output, total in totals.items():
        got = total_reward(m, output)
        assert got == reference_total_reward(m, output)
        assert got.total == pytest.approx(total)


def test_every_score_workload_output_matches_the_reference(tmp_path):
    """Each output of the benchmark's score workload, all eight kinds in mixed and
    all-equal groups, scores as the reference and as the workload expects."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    score = workloads.Score(7, str(tmp_path))
    score.setup()
    for group in score.groups:
        m = parse_maze_tokens(group.maze_tokens)
        for output, expected in zip(group.outputs, group.expected):
            assert total_reward(m, output) == reference_total_reward(m, output) == expected


def test_equal_outcomes_share_one_frozen_breakdown(example_maze):
    """Two outputs with the same moves, walk status and thinking points get the
    same breakdown object, which stays frozen."""
    first = total_reward(example_maze, "<|left|>")
    assert total_reward(example_maze, "noise <|left|> more noise") is first
    assert total_reward(example_maze, "<think>x</think><|left|>") is not first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.correctness = 1.0
    assert type(first) is RewardBreakdown and first == RewardBreakdown(0.0, 0.5, 0.0)
    assert hash(first) == hash(RewardBreakdown(0.0, 0.5, 0.0))
    assert repr(first) == "RewardBreakdown(correctness=0.0, integrity=0.5, thinking=0.0)"


def test_long_outputs_leave_the_outcome_cache_within_its_bound(example_maze):
    """Outputs of 0-5,000 move tokens, with and without a think block, make more
    outcomes than the cache holds; it evicts, and still scores each one right."""
    for n in range(0, 5001, 4):
        output = ("<think></think>" if n % 8 else "") + "<|up|>" * n
        assert total_reward(example_maze, output) == reference_total_reward(example_maze, output)
    info = rewards._outcome.cache_info()
    assert info.maxsize == OUTCOME_CACHE
    assert info.currsize <= OUTCOME_CACHE


def test_a_group_builds_one_breakdown_per_distinct_outcome(example_maze, monkeypatch):
    """Scoring a 16-output GRPO group twice constructs each distinct outcome's
    breakdown once, and none again."""
    solution = render_move_tokens(solve_shortest_path(example_maze).moves)
    group = [f"<think>plan</think>{solution}", solution, f"<think>{solution}</think>", "<|up|><|up|>",
             "<|left|>", solution + "<|left|>", "<think>plan</think>", "<think><think>" + solution] * 2
    built = []
    init = RewardBreakdown.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    rewards._outcome.cache_clear()
    monkeypatch.setattr(RewardBreakdown, "__init__", counting)
    first = [total_reward(example_maze, output) for output in group]
    assert [total_reward(example_maze, output) for output in group] == first
    outcomes = set()
    for output in group:
        moves, _, status = walk_answer(example_maze, output)
        outcomes.add((moves, status is SimStatus.REACHED_TARGET, thinking_reward(output)))
    assert len(built) == len(outcomes) == 6
