"""Retry-trace augmentation: plausible wrong paths, reset messages, think text.

A wrong attempt is a seeded random walk that leaves the origin, never
revisits a cell, and never touches the correct solution path (the origin
itself excepted, since every attempt starts there).  One budgeted search
makes every attempt: it walks with budgets descending from ``max_n_steps``
and keeps the first walk that uses its whole budget or ends at a dead end
(a cell with three walls).  ``build_attempts`` is the one entry point; it
reads the origin's wall count and dispatches on it:

    1 wall  -> one attempt per open neighbor that is off the solution path,
               its first move committed into that neighbor
    2 walls -> a single attempt from the origin
    other   -> no attempts; the maze only yields a straight-success trace

Each attempt is rendered step by step into reasoning text, closed by a
feedback message and a RESET marker, and followed by the rendered correct
solution.  The step template uses plain direction words, never movement
tokens, so lenient token extraction on a full model output cannot pick up
answer moves from inside the reasoning.

A ``ReasoningTrace`` holds its maze, attempts and solution path and renders
that text on first use, caching each piece, so a caller that only needs
``is_retry`` renders nothing.  Every walk starts at the origin, so an
attempt keeps only its moves, and its step text follows them from there.
Walks and step text run on the flat cell index of ``core``, from the
origin's index that the ``Maze`` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from .core import DIRECTIONS, EDGES, SHAPE_CACHE, Maze, MoveDirection, _open, links
from .generate import SolutionPath
from .rng import SplitMix64

WRONG_DIRECTION_MESSAGE = "Heading in wrong direction"
DEAD_END_MESSAGE = "Hit a dead end"
RESET_MARKER = "RESET"

DEAD_END_WALLS = 3


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
    """One failed excursion from the origin: the moves walked and how it ended."""

    moves: tuple[MoveDirection, ...]
    terminal_kind: TerminalKind

    @property
    def message(self) -> str:
        if self.terminal_kind is TerminalKind.DEAD_END:
            return DEAD_END_MESSAGE
        return WRONG_DIRECTION_MESSAGE


class _cached:
    """``functools.cached_property`` without the lock that Python 3.11 takes on each first
    read: the value is stored on the instance, where later reads find it before this descriptor."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.fn.__name__, self.fn(obj))


@dataclass(frozen=True)
class ReasoningTrace:
    """Wrong attempts (each closed by its message and RESET), then the solution.

    Holds the maze, its attempts and the solution path; each text piece is
    rendered on first use and cached.
    """

    maze: Maze
    attempts: tuple[WrongAttempt, ...]
    solution: SolutionPath

    @property
    def is_retry(self) -> bool:
        return bool(self.attempts)

    @_cached
    def wrong_segments(self) -> tuple[str, ...]:
        return tuple(_steps_text(self.maze, a.moves) for a in self.attempts)

    @_cached
    def solution_text(self) -> str:
        return _steps_text(self.maze, self.solution.moves)

    def render(self) -> str:
        parts = [f"{text}\n{a.message}\n{RESET_MARKER}" for text, a in zip(self.wrong_segments, self.attempts)]
        return "\n".join([*parts, self.solution_text])


def _walk(
    m: Maze, start: int, first: Optional[tuple[MoveDirection, int]], blocked: set[int], max_moves: int, rng: SplitMix64
) -> tuple[list[MoveDirection], list[int]]:
    """Random walk on flat indices; stops at the budget or when boxed in, as at a dead end."""
    masks, table = m.masks, links(m.width, m.height)
    path = [start]
    moves: list[MoveDirection] = []
    if first is not None:
        d, j = first
        moves.append(d)
        path.append(j)
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
    return moves, path


def _attempt(
    m: Maze, origin: int, first, blocked: set[int], max_n_steps: int, rng: SplitMix64
) -> Optional[WrongAttempt]:
    """The one budgeted search: a wrong attempt from the origin, or None.

    Walks at budgets descending from max_n_steps (a committed first move
    counts) and keeps the first walk that fills its budget or ends on a dead
    end; a shorter walk was boxed in and is retried one step smaller.  None
    when no budget gives such a walk, as when no first move is legal.
    """
    for n_steps in range(max_n_steps, 0, -1):
        moves, path = _walk(m, origin, first, blocked, n_steps, rng)
        dead = m.masks[path[-1]].bit_count() == DEAD_END_WALLS
        if moves and (dead or len(moves) == n_steps):
            return WrongAttempt(tuple(moves), TerminalKind.DEAD_END if dead else TerminalKind.WRONG_DIRECTION)
    return None


def build_attempts(m: Maze, solution: SolutionPath, cfg: AugmentConfig) -> list[WrongAttempt]:
    """This maze's wrong attempts, chosen by the origin's wall count (see the module table).

    A 1-wall origin starts one search per open neighbor off the path, its
    first move committed; that one-move walk always fills budget 1, so every
    such neighbor yields an attempt.  A 2-wall origin starts one uncommitted
    search, which may find nothing.  The searches draw from one
    ``SplitMix64(cfg.seed)`` and block the whole solution path: the origin
    too, which no walk re-enters anyway.
    """
    if m.origin is None:
        raise ValueError("maze has no origin")
    origin = m._origin_index
    # off-grid cells name no cell, so they block nothing
    blocked = {p.row * m.width + p.col for p in solution.cells if m.in_bounds(p)}
    rng = SplitMix64(cfg.seed)
    walls = m.masks[origin].bit_count()
    if walls == 1:
        firsts = [(d, j) for d, j in _open(m.masks, links(m.width, m.height), origin) if j not in blocked]
    else:
        firsts = [None] if walls == 2 else []
    attempts = [_attempt(m, origin, first, blocked, cfg.max_n_steps, rng) for first in firsts]
    return [a for a in attempts if a is not None]


_NAMES = {d: d.value for d in DIRECTIONS}
# the open-direction text of each cell, indexed by the wall bits of its open edges
_OPEN_TEXT = tuple(", ".join(d.value for d, bit, _, _, _ in EDGES if bits & bit) for bits in range(16))


@lru_cache(maxsize=SHAPE_CACHE)
def _cell_names(width: int, height: int) -> tuple[str, ...]:
    """``"(r,c)"`` of each flat index, as step lines name cells."""
    return tuple(f"({r},{c})" for r in range(height) for c in range(width))


def _steps_text(m: Maze, moves) -> str:
    """One template line per move, from the ``_OPEN_TEXT`` and ``_cell_names`` tables.

    The walk starts at the origin and each move takes its open edge to the
    next cell; a maze without an origin, or a move with no open edge, raises.
    """
    if m.origin is None:
        raise ValueError("maze has no origin")
    masks, table, names = m.masks, links(m.width, m.height), _cell_names(m.width, m.height)
    i = m._origin_index
    lines = []
    for d in moves:
        here, bits, j = masks[i], 0, None
        for e, (bit, back, n) in table[i]:
            # ``core._open``'s rule, inlined as in ``core._search``
            if not here & bit and not masks[n] & back:
                bits |= bit
                if e is d:
                    j = n
        if j is None:
            raise ValueError(f"no open edge {d.value} from {names[i]}")
        lines.append(f"At {names[i]}, open: {_OPEN_TEXT[bits]}. Move {_NAMES[d]} to {names[j]}.")
        i = j
    return "\n".join(lines)


def augment_trace(m: Maze, solution: SolutionPath, cfg: AugmentConfig) -> ReasoningTrace:
    """Full per-maze augmentation: the attempts and the trace that renders them on first use."""
    return ReasoningTrace(m, tuple(build_attempts(m, solution, cfg)), solution)
