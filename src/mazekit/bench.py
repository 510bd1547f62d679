"""Stratified benchmark suites, success-rate scoring, and trendline fitting.

A suite samples solved mazes into three bands by shortest-path length:
Easy 1-4 steps, Medium 5-8, Hard 9-13; the default composition is 50/40/10
for a 100-maze suite.  Scoring extracts movement tokens from each raw model
output, simulates them from the origin, and counts a maze solved only when
the walk is fully legal and ends exactly on the target.  Walking through
the target and legally onward counts as unsolved.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

from .core import Maze, SimStatus
from .generate import solve_shortest_path
from .rng import SplitMix64
from .tokens import render_maze_tokens, walk_answer


class Difficulty(Enum):
    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"


DIFFICULTY_BANDS: dict[Difficulty, tuple[int, int]] = {
    Difficulty.EASY: (1, 4),
    Difficulty.MEDIUM: (5, 8),
    Difficulty.HARD: (9, 13),
}

DEFAULT_COMPOSITION: dict[Difficulty, int] = {
    Difficulty.EASY: 50,
    Difficulty.MEDIUM: 40,
    Difficulty.HARD: 10,
}

NO_OUTPUT_REASON = "no output"


class StratumShortfallError(RuntimeError):
    """The pool cannot fill a difficulty stratum."""


def classify_difficulty(steps: int) -> Difficulty:
    """Difficulty band for a solution length; lengths outside 1..13 are rejected."""
    for difficulty, (lo, hi) in DIFFICULTY_BANDS.items():
        if lo <= steps <= hi:
            return difficulty
    raise ValueError(f"step count {steps} is outside the 1..13 difficulty bands")


def hash16(maze_tokens: str) -> str:
    """Maze identity: first 16 hex characters of SHA-256 over the token text."""
    return hashlib.sha256(maze_tokens.encode("utf-8")).hexdigest()[:16]


def maze_id(m: Maze) -> str:
    """Stable identity hash of the wall grid plus endpoints, for any maze with two distinct endpoints."""
    return hash16(render_maze_tokens(m))


@dataclass(frozen=True)
class BenchEntry:
    id: str
    maze: Maze
    difficulty: Difficulty
    steps: int
    maze_tokens: str  # the maze's token text, as written in the suite file


@dataclass(frozen=True)
class MazeVerdict:
    id: str
    difficulty: Difficulty
    steps: int
    solved: bool
    reason: Optional[str]


@dataclass(frozen=True)
class BenchReport:
    overall: float
    by_difficulty: dict[Difficulty, float]
    verdicts: tuple[MazeVerdict, ...]


@dataclass(frozen=True)
class TrendFit:
    slope: float
    intercept: float
    residual_std: float


def build_suite(
    pool: Sequence[Maze],
    seed: int,
    composition: Optional[Mapping[Difficulty, int]] = None,
) -> tuple[BenchEntry, ...]:
    """Sample without replacement from a pool of solved mazes until each
    stratum quota is met; deterministic for a given pool order and seed.

    Raises StratumShortfallError naming the stratum and deficit when the
    pool runs out.  Pool mazes whose solution length exceeds 13 steps fit
    no band and are skipped, and so is a maze whose id is already chosen,
    without spending quota.  A negative quota raises ValueError.
    """
    quotas = dict(DEFAULT_COMPOSITION if composition is None else composition)
    negative = {d.value: v for d, v in quotas.items() if v < 0}
    if negative:
        raise ValueError(f"stratum quotas must be non-negative, got {negative}")
    order = list(range(len(pool)))
    SplitMix64(seed).shuffle(order)
    chosen: dict[str, BenchEntry] = {}
    for idx in order:
        m = pool[idx]
        steps = solve_shortest_path(m).steps
        try:
            band = classify_difficulty(steps)
        except ValueError:
            continue  # longer than every band
        if quotas.get(band, 0) <= 0:
            continue
        # rendered once: the id and the suite row share the text
        text = render_maze_tokens(m)
        entry_id = hash16(text)
        if entry_id in chosen:
            continue  # the pool repeats a maze
        quotas[band] -= 1
        chosen[entry_id] = BenchEntry(id=entry_id, maze=m, difficulty=band, steps=steps, maze_tokens=text)
        if all(v <= 0 for v in quotas.values()):
            break
    deficits = {d: v for d, v in quotas.items() if v > 0}
    if deficits:
        detail = ", ".join(f"{d.value} short by {v}" for d, v in sorted(deficits.items(), key=lambda kv: kv[0].value))
        raise StratumShortfallError(f"pool cannot fill the suite: {detail}")
    return tuple(chosen.values())


def _verdict(entry: BenchEntry, output: Optional[str]) -> MazeVerdict:
    reason: Optional[str] = NO_OUTPUT_REASON
    if output is not None:
        _, steps_taken, status = walk_answer(entry.maze, output)
        if status is SimStatus.REACHED_TARGET:
            reason = None
        elif status is SimStatus.WALL_HIT:
            reason = f"wall hit at step {steps_taken}"
        elif status is SimStatus.OUT_OF_BOUNDS:
            reason = f"out of bounds at step {steps_taken}"
        else:
            reason = "stopped short of target"
    return MazeVerdict(entry.id, entry.difficulty, entry.steps, reason is None, reason)


def _rate(solved: int, total: int) -> float:
    return round(100.0 * solved / total, 1)


def evaluate_suite(suite: Sequence[BenchEntry], outputs: Mapping[str, str]) -> BenchReport:
    """Score one output per suite entry and aggregate success rates.

    ``outputs`` maps entry id to raw output text.  A missing output scores
    the entry unsolved with reason "no output".
    """
    verdicts = [_verdict(entry, outputs.get(entry.id)) for entry in suite]
    total = len(verdicts)
    if total == 0:
        raise ValueError("cannot evaluate an empty suite")
    by_difficulty: dict[Difficulty, float] = {}
    for d in Difficulty:
        subset = [v for v in verdicts if v.difficulty is d]
        if subset:
            by_difficulty[d] = _rate(sum(v.solved for v in subset), len(subset))
    return BenchReport(
        overall=_rate(sum(v.solved for v in verdicts), total),
        by_difficulty=by_difficulty,
        verdicts=tuple(verdicts),
    )


def fit_trendline(points: Sequence[tuple[float, float]]) -> TrendFit:
    """Ordinary least squares line through (x, y) points.

    residual_std is the population standard deviation of the fit residuals.
    Requires at least two points with non-constant x, and a finite fit.
    """
    n = len(points)
    if n < 2:
        raise ValueError("fit_trendline requires at least two points")
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    # squared by multiplying: an overflow is an infinity, not an OverflowError
    sxx = sum((x - mean_x) * (x - mean_x) for x, _ in points)
    if sxx == 0.0:
        raise ValueError("fit_trendline requires non-constant x values")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residuals = [y - (intercept + slope * x) for x, y in points]
    residual_std = (sum(e * e for e in residuals) / n) ** 0.5
    if not all(map(math.isfinite, (slope, intercept, residual_std))):
        raise ValueError("fit_trendline requires a finite fit")
    return TrendFit(slope=slope, intercept=intercept, residual_std=residual_std)
