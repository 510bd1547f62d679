"""Reward scoring for maze solutions and group-relative advantage arithmetic.

Three additive components score one model output against one maze:

    correctness  0.2 per move of a sequence that legally reaches the target
                 (all or nothing: a non-solving output earns 0 here)
    integrity    0.5 per movement token found anywhere in the output
    thinking     0.25 for one well-formed <think>...</think> pair that
                 closes before the first movement token

Group advantages normalize a batch of rewards against the batch's own mean
and population spread, so no learned value baseline is needed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

from .core import Maze, MoveDirection, simulate_moves
from .tokens import extract_move_tokens, first_move_token_index

CORRECTNESS_PER_STEP = 0.2
INTEGRITY_PER_TOKEN = 0.5
THINKING_POINTS = 0.25

DEFAULT_EPSILON = 1e-8

_THINK_OPEN_RE = re.compile(r"<think>")
_THINK_CLOSE_RE = re.compile(r"</think>")


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
    epsilon: float


def _correctness(m: Maze, moves: tuple[MoveDirection, ...]) -> float:
    if m.origin is None:
        raise ValueError("correctness_reward requires a maze with endpoints")
    if simulate_moves(m, m.origin, moves).solved:
        return CORRECTNESS_PER_STEP * len(moves)
    return 0.0


def _integrity(moves: tuple[MoveDirection, ...]) -> float:
    return INTEGRITY_PER_TOKEN * len(moves)


def correctness_reward(m: Maze, output: str) -> float:
    """0.2 per step when the extracted moves reach the target, else 0."""
    return _correctness(m, extract_move_tokens(output))


def integrity_reward(output: str) -> float:
    """0.5 per movement token anywhere in the output."""
    return _integrity(extract_move_tokens(output))


def thinking_reward(output: str) -> float:
    """0.25 for exactly one ordered think-tag pair that precedes any move token."""
    opens = [match.start() for match in _THINK_OPEN_RE.finditer(output)]
    closes = [match.start() for match in _THINK_CLOSE_RE.finditer(output)]
    if len(opens) != 1 or len(closes) != 1:
        return 0.0
    if opens[0] >= closes[0]:
        return 0.0
    first_move = first_move_token_index(output)
    if first_move is not None and first_move < closes[0]:
        return 0.0
    return THINKING_POINTS


def total_reward(m: Maze, output: str) -> RewardBreakdown:
    """All three components for one output; total is their plain sum.

    The moves are extracted once and shared by correctness and integrity.
    """
    moves = extract_move_tokens(output)
    return RewardBreakdown(
        correctness=_correctness(m, moves),
        integrity=_integrity(moves),
        thinking=thinking_reward(output),
    )


def group_advantages(rewards: Sequence[float], epsilon: float = DEFAULT_EPSILON) -> GroupAdvantages:
    """Center each reward on the group mean and scale by population std.

    advantage_i = (r_i - mean) / (std + epsilon).  A zero-variance group
    maps to all-zero advantages even when epsilon is 0.
    """
    n = len(rewards)
    if n == 0:
        raise ValueError("group_advantages requires at least one reward")
    # exact short-circuit: an all-equal group has no signal, and computing
    # its mean in floats can manufacture phantom variance
    if all(r == rewards[0] for r in rewards):
        return GroupAdvantages(advantages=(0.0,) * n, epsilon=epsilon)
    mean = sum(rewards) / n
    variance = sum((r - mean) ** 2 for r in rewards) / n
    scale = math.sqrt(variance) + epsilon
    if scale == 0.0:
        # squared deviations can underflow to zero for subnormal spreads
        return GroupAdvantages(advantages=(0.0,) * n, epsilon=epsilon)
    return GroupAdvantages(
        advantages=tuple((r - mean) / scale for r in rewards),
        epsilon=epsilon,
    )
