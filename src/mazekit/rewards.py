"""Reward scoring for maze solutions and group-relative advantage arithmetic.

Three additive components score one model output against one maze:

    correctness  0.2 per move of a sequence that legally reaches the target
                 (all or nothing: a non-solving output earns 0 here)
    integrity    0.5 per movement token found anywhere in the output
    thinking     0.25 for one well-formed <think>...</think> pair that
                 closes before the first movement token

A breakdown depends only on the move count, whether the walk reached the
target and the thinking points, so outputs with equal outcomes share one frozen
``RewardBreakdown``, built once and cached.

Group advantages normalize a batch of rewards against the batch's own mean
and population spread, so no learned value baseline is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .core import Maze, SimStatus
from .tokens import _MOVE_TOKEN_RE, extract_move_tokens, walk_answer

CORRECTNESS_PER_STEP = 0.2
INTEGRITY_PER_TOKEN = 0.5
THINKING_POINTS = 0.25

DEFAULT_EPSILON = 1e-8
OUTCOME_CACHE = 1024  # (moves, reached, thinking) outcomes whose shared breakdown stays cached


@dataclass(frozen=True)
class RewardBreakdown:
    correctness: float
    integrity: float
    thinking: float

    @property
    def total(self) -> float:
        return self.correctness + self.integrity + self.thinking


@dataclass(frozen=True)
class GroupAdvantages:
    advantages: tuple[float, ...]


def correctness_reward(m: Maze, output: str) -> float:
    """0.2 per step when the extracted moves reach the target, else 0."""
    return total_reward(m, output).correctness


def integrity_reward(output: str) -> float:
    """0.5 per movement token anywhere in the output."""
    return INTEGRITY_PER_TOKEN * len(extract_move_tokens(output))


def thinking_reward(output: str) -> float:
    """0.25 for exactly one ordered think-tag pair that precedes any move token."""
    # one cut at the first "</think>" is exact: no tag or move token can straddle it, each having its only "<" first
    head, close, tail = output.partition("</think>")
    ok = close and "</think>" not in tail and "<think>" not in tail and head.count("<think>") == 1
    return THINKING_POINTS if ok and not _MOVE_TOKEN_RE.search(head) else 0.0


def total_reward(m: Maze, output: str) -> RewardBreakdown:
    """All three components for one output, its moves read once by ``walk_answer``; total is their plain sum."""
    moves, _, status = walk_answer(m, output)
    return _outcome(moves, status is SimStatus.REACHED_TARGET, thinking_reward(output))


@lru_cache(maxsize=OUTCOME_CACHE)
def _outcome(moves: int, reached: bool, thinking: float) -> RewardBreakdown:
    return RewardBreakdown(CORRECTNESS_PER_STEP * moves if reached else 0.0, INTEGRITY_PER_TOKEN * moves, thinking)


def group_advantages(rewards: Sequence[float], epsilon: float = DEFAULT_EPSILON) -> GroupAdvantages:
    """Center each reward on the group mean and scale by population std.

    advantage_i = (r_i - mean) / (std + epsilon).  A group of equal finite
    rewards maps to all-zero advantages, even when epsilon is 0.  A non-finite
    reward, a spread that overflows a float, or an epsilon that is negative or
    not finite raises ValueError.
    """
    n = len(rewards)
    if n == 0:
        raise ValueError("group_advantages requires at least one reward")
    if not 0.0 <= epsilon < math.inf:  # NaN fails both comparisons
        raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon!r}")
    # centred on the first reward, close rewards keep their exact differences, so the
    # float mean cannot round onto one of them, and an all-equal group is exactly 0.0
    shifted = [r - rewards[0] for r in rewards]
    mean = sum(shifted) / n
    try:
        variance = sum([(r - mean) ** 2 for r in shifted]) / n
    except OverflowError:  # ** raises where * would give inf: a finite square past the float range
        variance = math.inf
    scale = math.sqrt(variance) + epsilon
    if not math.isfinite(scale):  # any non-finite reward makes the scale NaN, so this one test finds it
        for k, r in enumerate(rewards):
            if not math.isfinite(r):
                raise ValueError(f"reward {k} is {r!r}, not a finite number")
        raise ValueError(f"the rewards are finite, but their spread overflows: std + epsilon is {scale!r}")
    if scale == 0.0:
        # an all-equal group with epsilon 0, or squared deviations underflowing for subnormal spreads
        return GroupAdvantages(advantages=(0.0,) * n)
    return GroupAdvantages(advantages=tuple([(r - mean) / scale for r in shifted]))
