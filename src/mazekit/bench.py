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
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

from .core import Maze, SimStatus, simulate_moves
from .generate import solve_shortest_path
from .rng import SplitMix64
from .tokens import extract_move_tokens, render_maze_tokens


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
    """Stable identity hash of the wall grid plus endpoints."""
    return hash16(render_maze_tokens(m))


@dataclass(frozen=True)
class BenchEntry:
    id: str
    maze: Maze
    difficulty: Difficulty
    steps: int
    maze_tokens: str  # the maze's token text, as written in the suite file


@dataclass(frozen=True)
class BenchSuite:
    entries: tuple[BenchEntry, ...]

    def counts(self) -> dict[Difficulty, int]:
        out = {d: 0 for d in Difficulty}
        for entry in self.entries:
            out[entry.difficulty] += 1
        return out


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
) -> BenchSuite:
    """Sample without replacement from a pool of solved mazes until each
    stratum quota is met; deterministic for a given pool order and seed.

    Raises StratumShortfallError naming the stratum and deficit when the
    pool runs out.  Pool mazes whose solution length exceeds 13 steps fit
    no band and are skipped.  A negative quota raises ValueError.
    """
    quotas = dict(DEFAULT_COMPOSITION if composition is None else composition)
    negative = {d.value: v for d, v in quotas.items() if v < 0}
    if negative:
        raise ValueError(f"stratum quotas must be non-negative, got {negative}")
    order = list(range(len(pool)))
    SplitMix64(seed).shuffle(order)
    remaining = dict(quotas)
    chosen: list[BenchEntry] = []
    for idx in order:
        m = pool[idx]
        steps = solve_shortest_path(m).steps
        try:
            band = classify_difficulty(steps)
        except ValueError:
            continue  # longer than every band
        if remaining.get(band, 0) <= 0:
            continue
        remaining[band] -= 1
        # rendered once: the id and the suite row share the text
        text = render_maze_tokens(m)
        chosen.append(BenchEntry(id=hash16(text), maze=m, difficulty=band, steps=steps, maze_tokens=text))
        if all(v <= 0 for v in remaining.values()):
            break
    deficits = {d: v for d, v in remaining.items() if v > 0}
    if deficits:
        detail = ", ".join(f"{d.value} short by {v}" for d, v in sorted(deficits.items(), key=lambda kv: kv[0].value))
        raise StratumShortfallError(f"pool cannot fill the suite: {detail}")
    return BenchSuite(entries=tuple(chosen))


def _verdict(entry: BenchEntry, output: Optional[str]) -> MazeVerdict:
    if output is None:
        return MazeVerdict(entry.id, entry.difficulty, entry.steps, False, NO_OUTPUT_REASON)
    moves = extract_move_tokens(output)
    outcome = simulate_moves(entry.maze, entry.maze.origin, moves)
    if outcome.solved:
        return MazeVerdict(entry.id, entry.difficulty, entry.steps, True, None)
    if outcome.status is SimStatus.WALL_HIT:
        reason = f"wall hit at step {outcome.steps_taken}"
    elif outcome.status is SimStatus.OUT_OF_BOUNDS:
        reason = f"out of bounds at step {outcome.steps_taken}"
    else:
        reason = "stopped short of target"
    return MazeVerdict(entry.id, entry.difficulty, entry.steps, False, reason)


def _rate(solved: int, total: int) -> float:
    return round(100.0 * solved / total, 1)


def evaluate_suite(suite: BenchSuite, outputs: Mapping[str, str] | Sequence[str]) -> BenchReport:
    """Score one output per suite entry and aggregate success rates.

    ``outputs`` is either a mapping from entry id to raw output text or a
    sequence aligned with the suite order.  A missing output scores the
    entry unsolved with reason "no output".
    """
    verdicts: list[MazeVerdict] = []
    for i, entry in enumerate(suite.entries):
        if isinstance(outputs, Mapping):
            text = outputs.get(entry.id)
        else:
            text = outputs[i] if i < len(outputs) else None
        verdicts.append(_verdict(entry, text))
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
    Requires at least two points with non-constant x.
    """
    n = len(points)
    if n < 2:
        raise ValueError("fit_trendline requires at least two points")
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    if sxx == 0.0:
        raise ValueError("fit_trendline requires non-constant x values")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residuals = [y - (intercept + slope * x) for x, y in points]
    residual_std = (sum(e * e for e in residuals) / n) ** 0.5
    return TrendFit(slope=slope, intercept=intercept, residual_std=residual_std)
