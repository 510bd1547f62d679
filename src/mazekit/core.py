"""Grid geometry, walls, structural validation and movement simulation.

Coordinates are (row, col) with (0, 0) the top-left cell; moving up
decreases the row index.  Each cell's walls are a 4-bit mask (up 1, down 2,
left 4, right 8).  Walls are still stored per cell, redundantly on both
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


# The open-edge rule, one row per direction in canonical order:
# (direction, this cell's wall bit, the neighbour's wall bit, row step, col step).
# An edge is open only when it stays in bounds and neither cell has its bit.
EDGES = (
    (MoveDirection.UP, 1, 2, -1, 0),
    (MoveDirection.DOWN, 2, 1, 1, 0),
    (MoveDirection.LEFT, 4, 8, 0, -1),
    (MoveDirection.RIGHT, 8, 4, 0, 1),
)
_DELTAS = {d: (dr, dc) for d, _, _, dr, dc in EDGES}
_BITS = {d: bit for d, bit, _, _, _ in EDGES}
_OPPOSITES = {
    MoveDirection.UP: MoveDirection.DOWN,
    MoveDirection.DOWN: MoveDirection.UP,
    MoveDirection.LEFT: MoveDirection.RIGHT,
    MoveDirection.RIGHT: MoveDirection.LEFT,
}

# Canonical direction order used everywhere: neighbor expansion, wall-token
# naming, trace text. Pinned so results do not depend on enum iteration.
DIRECTIONS: tuple[MoveDirection, ...] = tuple(d for d, _, _, _, _ in EDGES)


@dataclass(frozen=True, order=True)
class Position:
    row: int
    col: int


class WallSet(int):
    """The walls of one cell as a 4-bit mask: up 1, down 2, left 4, right 8.

    Constructed from flags; every instance is the shared one in ``WALL_SETS``.
    """

    __slots__ = ()

    def __new__(cls, up: bool = False, down: bool = False, left: bool = False, right: bool = False):
        return WALL_SETS[bool(up) | bool(down) << 1 | bool(left) << 2 | bool(right) << 3]

    def __getnewargs__(self) -> tuple[bool, bool, bool, bool]:
        return self.up, self.down, self.left, self.right

    up = property(lambda self: bool(self & 1))
    down = property(lambda self: bool(self & 2))
    left = property(lambda self: bool(self & 4))
    right = property(lambda self: bool(self & 8))

    def has(self, direction: MoveDirection) -> bool:
        return bool(self & _BITS[direction])

    @property
    def count(self) -> int:
        return self.bit_count()

    def directions(self) -> tuple[MoveDirection, ...]:
        """Present walls in canonical up, down, left, right order."""
        return tuple(d for d, bit, _, _, _ in EDGES if self & bit)

    @classmethod
    def of(cls, *directions: MoveDirection) -> "WallSet":
        return cls(**{d.value: True for d in directions})


# One instance per mask, indexed by the mask.
WALL_SETS: tuple[WallSet, ...] = tuple(int.__new__(WallSet, mask) for mask in range(16))


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


def open_neighbors(m: Maze, p: Position) -> list[tuple[MoveDirection, Position]]:
    """Open (direction, neighbor) pairs from p, in canonical direction order.

    The one open-edge rule (see ``EDGES``): the wall bit on both sides of
    the shared edge is checked; they agree on any maze that passes
    ``validate_maze``.
    """
    walls, height, width, r, c = m.walls, m.height, m.width, p.row, p.col
    here = walls[r][c]
    out = []
    for d, bit, back, dr, dc in EDGES:
        nr, nc = r + dr, c + dc
        if not here & bit and 0 <= nr < height and 0 <= nc < width and not walls[nr][nc] & back:
            out.append((d, Position(nr, nc)))
    return out


def is_open(m: Maze, p: Position, d: MoveDirection) -> bool:
    """True iff a move from p in direction d crosses no wall and stays in bounds."""
    return any(e is d for e, _ in open_neighbors(m, p))


def wall_count(m: Maze, p: Position) -> int:
    """Number of present walls at p (0..4)."""
    return m.wall_at(p).count


def validate_maze(m: Maze) -> list[str]:
    """Audit structural invariants; returns one message per violation.

    Checks mutual wall consistency between neighbors, a closed perimeter,
    origin != target when both are set, and connectivity of the open-passage
    graph.  An empty list means the maze is valid.
    """
    problems = [
        f"wall mismatch between ({r},{c}) and ({r2},{c2}): {pair} flags disagree"
        for r, c, r2, c2, pair in wall_mismatches(m.walls)
    ]
    walls, last_row, last_col = m.walls, m.height - 1, m.width - 1
    for c in range(m.width):
        if not walls[0][c] & 1:
            problems.append(f"perimeter gap: (0,{c}) lacks an up wall")
        if not walls[last_row][c] & 2:
            problems.append(f"perimeter gap: ({last_row},{c}) lacks a down wall")
    for r in range(m.height):
        if not walls[r][0] & 4:
            problems.append(f"perimeter gap: ({r},0) lacks a left wall")
        if not walls[r][last_col] & 8:
            problems.append(f"perimeter gap: ({r},{last_col}) lacks a right wall")
    if m.origin is not None and m.origin == m.target:
        problems.append(f"origin and target coincide at ({m.origin.row},{m.origin.col})")
    reached = len(bfs(m, Position(0, 0)))
    total = m.width * m.height
    if reached != total:
        problems.append(f"disconnected: only {reached} of {total} cells reachable from (0,0)")
    return problems


def wall_mismatches(walls) -> Iterator[tuple[int, int, int, int, str]]:
    """Shared edges whose two cells disagree about the wall, in row-major order.

    Yields (row, col, neighbour row, neighbour col, "down/up" or
    "right/left") for a grid of wall masks.
    """
    height, width = len(walls), len(walls[0])
    for r in range(height):
        for c in range(width):
            # shifted right by one, the down bit (2) lands on up (1) and the
            # right bit (8) on left (4), the bits the facing cells hold
            facing = walls[r][c] >> 1
            if r + 1 < height and (facing ^ walls[r + 1][c]) & 1:
                yield r, c, r + 1, c, "down/up"
            if c + 1 < width and (facing ^ walls[r][c + 1]) & 4:
                yield r, c, r, c + 1, "right/left"


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
        for e, nxt in open_neighbors(m, pos):
            if e is d:
                break
        else:
            # a present wall blocks the move before the boundary does, so leaving
            # the grid is only reportable through a perimeter gap
            dr, dc = d.delta
            off_grid = not m.wall_at(pos).has(d) and not m.in_bounds(Position(pos.row + dr, pos.col + dc))
            status = SimStatus.OUT_OF_BOUNDS if off_grid else SimStatus.WALL_HIT
            return SimOutcome(final=pos, steps_taken=i, status=status)
        pos = nxt
    status = SimStatus.REACHED_TARGET if pos == m.target else SimStatus.STOPPED_SHORT
    return SimOutcome(final=pos, steps_taken=len(seq), status=status)
