"""Retry-trace augmentation: plausible wrong paths, reset messages, think text.

A wrong attempt is a seeded random walk that leaves the origin, never
revisits a cell, and never touches the correct solution path (the origin
itself excepted, since every attempt starts there).  The walk ends either
at a dead end (a cell with three walls) or once it has used its step
budget.  Which origins get attempts depends on the origin's wall count:

    1 wall  -> one attempt per open neighbor that is off the solution path
    2 walls -> a single attempt from the origin
    other   -> no attempts; the maze only yields a straight-success trace

Each attempt is rendered step by step into reasoning text, closed by a
feedback message and a RESET marker, and followed by the rendered correct
solution.  The step template uses plain direction words, never movement
tokens, so lenient token extraction on a full model output cannot pick up
answer moves from inside the reasoning.

A ``ReasoningTrace`` holds its maze, attempts and solution path and renders
that text on first use, caching each piece, so a caller that only needs
``is_retry`` renders nothing.  Walks and step text run on the flat cell
index of ``core``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

from .core import DIRECTIONS, Maze, MoveDirection, Position, _cells, _index, _open, links, open_neighbors, wall_count
from .generate import SolutionPath
from .rng import SplitMix64

WRONG_DIRECTION_MESSAGE = "Heading in wrong direction"
DEAD_END_MESSAGE = "Hit a dead end"
RESET_MARKER = "RESET"

DEAD_END_WALLS = 3


class OriginClass(Enum):
    ORDER1 = "order1"
    ORDER2 = "order2"
    SKIP = "skip"


class TerminalKind(Enum):
    DEAD_END = "dead_end"
    WRONG_DIRECTION = "wrong_direction"


@dataclass(frozen=True)
class AugmentConfig:
    max_n_steps: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_n_steps < 1:
            raise ValueError("max_n_steps must be at least 1")


@dataclass(frozen=True)
class WrongAttempt:
    """One failed excursion: the moves walked and every cell visited."""

    start_cell: Position
    moves: tuple[MoveDirection, ...]
    cells: tuple[Position, ...]
    terminal_kind: TerminalKind

    @property
    def message(self) -> str:
        if self.terminal_kind is TerminalKind.DEAD_END:
            return DEAD_END_MESSAGE
        return WRONG_DIRECTION_MESSAGE


@dataclass(frozen=True)
class TraceSegment:
    steps_text: str
    message: str


@dataclass(frozen=True)
class ReasoningTrace:
    """Wrong segments (each closed by its message and RESET), then the solution.

    Holds the maze, its attempts and the solution path; each text piece is
    rendered on first use and cached.
    """

    maze: Maze
    attempts: tuple[WrongAttempt, ...]
    solution: SolutionPath

    @property
    def is_retry(self) -> bool:
        return bool(self.attempts)

    @cached_property
    def wrong_segments(self) -> tuple[TraceSegment, ...]:
        return tuple(TraceSegment(_steps_text(self.maze, a.cells, a.moves), a.message) for a in self.attempts)

    @cached_property
    def solution_text(self) -> str:
        return _steps_text(self.maze, self.solution.cells, self.solution.moves)

    def render(self) -> str:
        parts: list[str] = []
        for seg in self.wrong_segments:
            parts.append(seg.steps_text)
            parts.append(seg.message)
            parts.append(RESET_MARKER)
        parts.append(self.solution_text)
        return "\n".join(parts)


def classify_origin(m: Maze) -> OriginClass:
    """Dispatch on the origin's wall count: 1 and 2 get attempts, the rest skip."""
    if m.origin is None:
        raise ValueError("classify_origin requires a maze with an origin")
    w = wall_count(m, m.origin)
    if w == 1:
        return OriginClass.ORDER1
    if w == 2:
        return OriginClass.ORDER2
    return OriginClass.SKIP


def _walk(
    m: Maze,
    start: Position,
    first: Optional[tuple[MoveDirection, Position]],
    forbidden: frozenset[Position] | set[Position],
    max_moves: int,
    rng: SplitMix64,
) -> tuple[list[MoveDirection], list[Position]]:
    """Random walk helper; stops at the budget or when boxed in, as at a dead end."""
    masks, table = m.masks, links(m.width, m.height)
    path = [_index(m, start)]
    moves: list[MoveDirection] = []
    if first is not None:
        d, nxt = first
        moves.append(d)
        path.append(_index(m, nxt))
    # off-grid forbidden positions name no cell, so they block nothing
    blocked = {_index(m, p) for p in forbidden if m.in_bounds(p)}
    visited = set(path)
    while len(moves) < max_moves:
        # every step, first included, crosses an open edge, so a 3-walled
        # cell is entered through its one open side: at a dead end no
        # candidate is left and the walk stops below
        candidates = [(d, j) for d, j in _open(masks, table, path[-1]) if j not in blocked and j not in visited]
        if not candidates:
            break
        d, j = rng.choice(candidates)
        moves.append(d)
        path.append(j)
        visited.add(j)
    cells = _cells(m.width, m.height)
    return moves, [cells[j] for j in path]


def _attempt_from_walk(m: Maze, moves: list[MoveDirection], cells: list[Position]) -> WrongAttempt:
    kind = (
        TerminalKind.DEAD_END
        if wall_count(m, cells[-1]) == DEAD_END_WALLS
        else TerminalKind.WRONG_DIRECTION
    )
    return WrongAttempt(
        start_cell=cells[0],
        moves=tuple(moves),
        cells=tuple(cells),
        terminal_kind=kind,
    )


def _accepted(attempt: WrongAttempt, n_steps: int) -> bool:
    # A walk counts at this budget if it used the whole budget or ended at
    # a dead end; anything shorter was boxed in and gets retried smaller.
    return len(attempt.moves) == n_steps or attempt.terminal_kind is TerminalKind.DEAD_END


def generate_wrong_path(
    m: Maze,
    anchor: Position,
    forbidden: set[Position] | frozenset[Position],
    n_steps: int,
    rng: SplitMix64,
) -> Optional[WrongAttempt]:
    """One seeded random walk from anchor, or None if no first move is legal.

    The walk never enters forbidden cells, never revisits its own cells,
    and stops at a dead end or after n_steps moves.  A boxed-in walk stops
    early; callers decide whether a short walk is acceptable.
    """
    if anchor in forbidden:
        raise ValueError("anchor must not be in the forbidden set")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    moves, cells = _walk(m, anchor, None, forbidden, n_steps, rng)
    if not moves:
        return None
    return _attempt_from_walk(m, moves, cells)


def process_order1(m: Maze, solution: SolutionPath, cfg: AugmentConfig) -> list[WrongAttempt]:
    """Attempts for a 1-wall origin: one per open neighbor off the solution path.

    Each attempt commits its first move into the chosen neighbor, then
    extends with budgets descending from max_n_steps (budgets count the
    committed move) until a walk fills its budget or dead-ends.  The
    one-move attempt into the neighbor itself always satisfies budget 1,
    so every off-path neighbor yields exactly one attempt.
    """
    origin = _require_origin(m)
    rng = SplitMix64(cfg.seed)
    path_cells = frozenset(solution.cells)
    attempts: list[WrongAttempt] = []
    for d, neighbor in open_neighbors(m, origin):
        if neighbor in path_cells:
            continue
        for n_steps in range(cfg.max_n_steps, 0, -1):
            moves, cells = _walk(m, origin, (d, neighbor), path_cells, n_steps, rng)
            attempt = _attempt_from_walk(m, moves, cells)
            if _accepted(attempt, n_steps):
                attempts.append(attempt)
                break
    return attempts


def process_order2(m: Maze, solution: SolutionPath, cfg: AugmentConfig) -> Optional[WrongAttempt]:
    """Single attempt for a 2-wall origin, or None when every first move is on the path."""
    origin = _require_origin(m)
    rng = SplitMix64(cfg.seed)
    forbidden = frozenset(solution.cells) - {origin}
    for n_steps in range(cfg.max_n_steps, 0, -1):
        attempt = generate_wrong_path(m, origin, forbidden, n_steps, rng)
        if attempt is not None and _accepted(attempt, n_steps):
            return attempt
    return None


def build_attempts(m: Maze, solution: SolutionPath, cfg: AugmentConfig) -> list[WrongAttempt]:
    """Dispatch on the origin class and collect this maze's wrong attempts."""
    kind = classify_origin(m)
    if kind is OriginClass.ORDER1:
        return process_order1(m, solution, cfg)
    if kind is OriginClass.ORDER2:
        attempt = process_order2(m, solution, cfg)
        return [attempt] if attempt is not None else []
    return []


_NAMES = {d: d.value for d in DIRECTIONS}


def _steps_text(m: Maze, cells, moves) -> str:
    masks, table = m.masks, links(m.width, m.height)
    lines = []
    for i, d in enumerate(moves):
        cur = cells[i]
        nxt = cells[i + 1]
        open_dirs = ", ".join(_NAMES[e] for e, _ in _open(masks, table, _index(m, cur)))
        lines.append(
            f"At ({cur.row},{cur.col}), open: {open_dirs}. "
            f"Move {_NAMES[d]} to ({nxt.row},{nxt.col})."
        )
    return "\n".join(lines)


def augment_trace(m: Maze, solution: SolutionPath, cfg: AugmentConfig) -> ReasoningTrace:
    """Full per-maze augmentation: the attempts and the trace that renders them on first use."""
    return ReasoningTrace(m, tuple(build_attempts(m, solution, cfg)), solution)


def _require_origin(m: Maze) -> Position:
    if m.origin is None:
        raise ValueError("maze has no origin")
    return m.origin
