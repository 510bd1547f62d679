import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mazekit.augment import ReasoningTrace
from mazekit.generate import GenConfig, generate_solved_maze, place_endpoints, solve_shortest_path
from mazekit.rewards import (
    correctness_reward,
    group_advantages,
    integrity_reward,
    thinking_reward,
    total_reward,
)
from mazekit.tokens import render_move_tokens


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
