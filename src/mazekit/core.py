"""Grid geometry, walls, structural validation and movement simulation.

Coordinates are (row, col) with (0, 0) the top-left cell; moving up
decreases the row index.  Walls are stored per cell, redundantly on both
sides of each shared edge, and are expected to stay consistent by
construction.  ``validate_maze`` audits that expectation instead of
repairing breaches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional


class OutOfBoundsError(ValueError):
    """A move or position left the grid."""


class MoveDirection(Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"

    @property
    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]

    @property
    def opposite(self) -> "MoveDirection":
        return _OPPOSITES[self]


_DELTAS = {
    MoveDirection.UP: (-1, 0),
    MoveDirection.DOWN: (1, 0),
    MoveDirection.LEFT: (0, -1),
    MoveDirection.RIGHT: (0, 1),
}
_OPPOSITES = {
    MoveDirection.UP: MoveDirection.DOWN,
    MoveDirection.DOWN: MoveDirection.UP,
    MoveDirection.LEFT: MoveDirection.RIGHT,
    MoveDirection.RIGHT: MoveDirection.LEFT,
}

# Canonical direction order used everywhere: neighbor expansion, wall-token
# naming, trace text. Pinned so results do not depend on enum iteration.
DIRECTIONS: tuple[MoveDirection, ...] = (
    MoveDirection.UP,
    MoveDirection.DOWN,
    MoveDirection.LEFT,
    MoveDirection.RIGHT,
)


@dataclass(frozen=True, order=True)
class Position:
    row: int
    col: int


@dataclass(frozen=True)
class WallSet:
    """Presence flags for the four walls of one cell."""

    up: bool = False
    down: bool = False
    left: bool = False
    right: bool = False

    def has(self, direction: MoveDirection) -> bool:
        return getattr(self, direction.value)

    @property
    def count(self) -> int:
        return self.up + self.down + self.left + self.right

    def directions(self) -> tuple[MoveDirection, ...]:
        """Present walls in canonical up, down, left, right order."""
        return tuple(d for d in DIRECTIONS if self.has(d))

    @classmethod
    def of(cls, *directions: MoveDirection) -> "WallSet":
        present = set(directions)
        return cls(
            up=MoveDirection.UP in present,
            down=MoveDirection.DOWN in present,
            left=MoveDirection.LEFT in present,
            right=MoveDirection.RIGHT in present,
        )


@dataclass(frozen=True)
class Maze:
    """A rectangular wall grid with optional origin/target endpoints.

    Immutable after construction; use ``with_endpoints`` to derive a copy
    with endpoints set.  The constructor checks only grid shape, not the
    structural invariants (see ``validate_maze``).
    """

    width: int
    height: int
    walls: tuple[tuple[WallSet, ...], ...]
    origin: Optional[Position] = None
    target: Optional[Position] = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"maze dimensions must be positive, got {self.width}x{self.height}")
        if len(self.walls) != self.height or any(len(row) != self.width for row in self.walls):
            raise ValueError("wall grid shape does not match width/height")
        for name in ("origin", "target"):
            p = getattr(self, name)
            if p is not None and not self.in_bounds(p):
                raise OutOfBoundsError(f"{name} {p} outside {self.width}x{self.height} grid")

    def in_bounds(self, p: Position) -> bool:
        return 0 <= p.row < self.height and 0 <= p.col < self.width

    def wall_at(self, p: Position) -> WallSet:
        return self.walls[p.row][p.col]

    def with_endpoints(self, origin: Position, target: Position) -> "Maze":
        return Maze(self.width, self.height, self.walls, origin, target)

    def positions(self) -> Iterator[Position]:
        for r in range(self.height):
            for c in range(self.width):
                yield Position(r, c)


class SimStatus(Enum):
    REACHED_TARGET = "reached_target"
    STOPPED_SHORT = "stopped_short"
    WALL_HIT = "wall_hit"
    OUT_OF_BOUNDS = "out_of_bounds"


@dataclass(frozen=True)
class SimOutcome:
    """Result of walking a move sequence.

    For WALL_HIT and OUT_OF_BOUNDS, ``steps_taken`` is the 0-based index of
    the first offending move (all earlier moves were legal) and ``final``
    is the last legal position.
    """

    final: Position
    steps_taken: int
    status: SimStatus

    @property
    def solved(self) -> bool:
        return self.status is SimStatus.REACHED_TARGET


def apply_move(p: Position, d: MoveDirection, width: int, height: int) -> Position:
    """Neighboring position under the up = row-1 convention.

    Raises OutOfBoundsError if the move would leave the width x height grid.
    """
    dr, dc = d.delta
    q = Position(p.row + dr, p.col + dc)
    if not (0 <= q.row < height and 0 <= q.col < width):
        raise OutOfBoundsError(f"move {d.value} from {p} leaves the {width}x{height} grid")
    return q


def is_open(m: Maze, p: Position, d: MoveDirection) -> bool:
    """True iff a move from p in direction d crosses no wall and stays in bounds.

    Checks the wall flag on both sides of the shared edge; they agree on any
    maze that passes ``validate_maze``.
    """
    dr, dc = d.delta
    q = Position(p.row + dr, p.col + dc)
    if not m.in_bounds(q):
        return False
    return not m.wall_at(p).has(d) and not m.wall_at(q).has(d.opposite)


def open_neighbors(m: Maze, p: Position) -> list[tuple[MoveDirection, Position]]:
    """Open (direction, neighbor) pairs from p, in canonical direction order."""
    out = []
    for d in DIRECTIONS:
        if is_open(m, p, d):
            dr, dc = d.delta
            out.append((d, Position(p.row + dr, p.col + dc)))
    return out


def wall_count(m: Maze, p: Position) -> int:
    """Number of present walls at p (0..4)."""
    return m.wall_at(p).count


def validate_maze(m: Maze) -> list[str]:
    """Audit structural invariants; returns one message per violation.

    Checks mutual wall consistency between neighbors, a closed perimeter,
    origin != target when both are set, and connectivity of the open-passage
    graph.  An empty list means the maze is valid.
    """
    problems: list[str] = []
    for r in range(m.height):
        for c in range(m.width):
            w = m.walls[r][c]
            if r + 1 < m.height and w.down != m.walls[r + 1][c].up:
                problems.append(f"wall mismatch between ({r},{c}) and ({r + 1},{c}): down/up flags disagree")
            if c + 1 < m.width and w.right != m.walls[r][c + 1].left:
                problems.append(f"wall mismatch between ({r},{c}) and ({r},{c + 1}): right/left flags disagree")
    for c in range(m.width):
        if not m.walls[0][c].up:
            problems.append(f"perimeter gap: (0,{c}) lacks an up wall")
        if not m.walls[m.height - 1][c].down:
            problems.append(f"perimeter gap: ({m.height - 1},{c}) lacks a down wall")
    for r in range(m.height):
        if not m.walls[r][0].left:
            problems.append(f"perimeter gap: ({r},0) lacks a left wall")
        if not m.walls[r][m.width - 1].right:
            problems.append(f"perimeter gap: ({r},{m.width - 1}) lacks a right wall")
    if m.origin is not None and m.origin == m.target:
        problems.append(f"origin and target coincide at ({m.origin.row},{m.origin.col})")
    reached = len(bfs(m, Position(0, 0)))
    total = m.width * m.height
    if reached != total:
        problems.append(f"disconnected: only {reached} of {total} cells reachable from (0,0)")
    return problems


def bfs(
    m: Maze, src: Position, dst: Optional[Position] = None
) -> dict[Position, Optional[tuple[Position, MoveDirection]]]:
    """Breadth-first search over open passages from src.

    Returns parent links for every cell reached: each maps to its
    (predecessor, move) pair, and src maps to None.  Neighbours expand in
    canonical direction order; the search stops as soon as dst is reached.
    """
    prev: dict[Position, Optional[tuple[Position, MoveDirection]]] = {src: None}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for d, nxt in open_neighbors(m, cur):
            if nxt not in prev:
                prev[nxt] = (cur, d)
                if nxt == dst:
                    return prev
                queue.append(nxt)
    return prev


def simulate_moves(m: Maze, start: Position, moves) -> SimOutcome:
    """Walk moves from start, halting at the first illegal move.

    A wall hit or exit from the grid ends the walk at that move's index.
    A fully legal walk ends REACHED_TARGET iff the final position equals
    the maze target, else STOPPED_SHORT.
    """
    if m.target is None:
        raise ValueError("simulate_moves requires a maze with a target set")
    if not m.in_bounds(start):
        raise OutOfBoundsError(f"start {start} outside the grid")
    seq = tuple(moves)
    pos = start
    for i, d in enumerate(seq):
        dr, dc = d.delta
        nxt = Position(pos.row + dr, pos.col + dc)
        # a present wall blocks the move before the boundary does, so leaving
        # the grid is only reportable through a perimeter gap
        if m.wall_at(pos).has(d):
            return SimOutcome(final=pos, steps_taken=i, status=SimStatus.WALL_HIT)
        if not m.in_bounds(nxt):
            return SimOutcome(final=pos, steps_taken=i, status=SimStatus.OUT_OF_BOUNDS)
        if m.wall_at(nxt).has(d.opposite):
            return SimOutcome(final=pos, steps_taken=i, status=SimStatus.WALL_HIT)
        pos = nxt
    status = SimStatus.REACHED_TARGET if pos == m.target else SimStatus.STOPPED_SHORT
    return SimOutcome(final=pos, steps_taken=len(seq), status=status)
