"""Grid geometry, walls, structural validation and movement simulation.

Coordinates are (row, col) with (0, 0) the top-left cell; moving up
decreases the row index.  Each cell's walls are a 4-bit mask (up 1, down 2,
left 4, right 8).  Walls are still stored per cell, redundantly on both
sides of each shared edge, and are expected to stay consistent by
construction.  ``validate_maze`` audits that expectation instead of
repairing breaches.

Searches and neighbour walks run on the flat index ``row * width + col``:
each call flattens ``Maze.walls`` once into a list of masks (``_masks``)
and reads the per-shape ``links`` table, which holds every in-bounds edge
of each cell.  ``_open`` applies the one open-edge rule to that table and
serves ``open_neighbors``, ``simulate_moves`` and the trace walks in
``augment``; the one integer BFS, ``_search``, inlines the same rule in its
hot loop and serves connectivity, endpoint placement and the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain
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

SHAPE_CACHE = 64  # grid shapes whose per-shape tables stay cached


@lru_cache(maxsize=SHAPE_CACHE)
def links(width: int, height: int) -> tuple[tuple[tuple[MoveDirection, int, int, int], ...], ...]:
    """Per flat index, the cell's in-bounds edges in ``EDGES`` order:
    (direction, this cell's wall bit, the neighbour's wall bit, its flat index)."""
    return tuple(
        tuple(
            (d, bit, back, (r + dr) * width + c + dc)
            for d, bit, back, dr, dc in EDGES
            if 0 <= r + dr < height and 0 <= c + dc < width
        )
        for r in range(height)
        for c in range(width)
    )


@lru_cache(maxsize=SHAPE_CACHE)
def _cells(width: int, height: int) -> tuple[Position, ...]:
    return tuple(Position(r, c) for r in range(height) for c in range(width))


def _masks(m: Maze) -> list[int]:
    """The wall masks of m in flat-index order."""
    # chain, not sum(m.walls, ()): sum's partial tuples pile up in CPython's tuple free lists
    return list(chain.from_iterable(m.walls))


def _open(masks: list[int], table, i: int) -> list[tuple[MoveDirection, int]]:
    """The open-edge rule: (direction, neighbour's flat index) for each edge of
    cell i in ``table`` (see ``links``) whose wall bit is set on neither side."""
    here = masks[i]
    return [(d, j) for d, bit, back, j in table[i] if not here & bit and not masks[j] & back]


def _search(m: Maze, src: int, dst: int = -1):
    """Integer BFS from flat index src, stopping once dst is reached.

    Returns (parents, order): parents[j] is (predecessor, move) for each
    reached cell, (src, None) for src, None elsewhere; order is discovery order.
    """
    masks, table = _masks(m), links(m.width, m.height)
    parents: list = [None] * len(masks)
    parents[src] = (src, None)
    order = [src]
    for i in order:  # the list grows while it is walked: a FIFO queue
        here = masks[i]
        for d, bit, back, j in table[i]:
            # the ``_open`` rule, inlined: this loop is the hot path of every search
            if parents[j] is None and not here & bit and not masks[j] & back:
                parents[j] = (i, d)
                order.append(j)
                if j == dst:
                    return parents, order
    return parents, order


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
        return iter(_cells(self.width, self.height))


def _index(m: Maze, p: Position) -> int:
    """Flat index of p; the bounds check keeps an off-grid p from aliasing a real cell."""
    if not m.in_bounds(p):
        raise OutOfBoundsError(f"{p} outside the {m.width}x{m.height} grid")
    return p.row * m.width + p.col


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

    The one open-edge rule (``_open``): the edge stays in bounds and the
    wall bit on neither side of it is set; the two bits agree on any maze
    that passes ``validate_maze``.
    """
    cells = _cells(m.width, m.height)
    return [(d, cells[j]) for d, j in _open(_masks(m), links(m.width, m.height), _index(m, p))]


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
    reached = len(_search(m, 0)[1])
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
    cells = _cells(m.width, m.height)
    parents, order = _search(m, _index(m, src), -1 if dst is None else _index(m, dst))
    prev: dict[Position, Optional[tuple[Position, MoveDirection]]] = {src: None}
    for j in order[1:]:
        i, d = parents[j]
        prev[cells[j]] = (cells[i], d)
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
    masks, table, cells = _masks(m), links(m.width, m.height), _cells(m.width, m.height)
    i = _index(m, start)
    for k, d in enumerate(seq):
        for e, j in _open(masks, table, i):
            if e is d:
                break
        else:
            # a present wall blocks the move before the boundary does, so leaving
            # the grid is only reportable through a perimeter gap
            off_grid = not masks[i] & _BITS[d] and all(e is not d for e, _, _, _ in table[i])
            status = SimStatus.OUT_OF_BOUNDS if off_grid else SimStatus.WALL_HIT
            return SimOutcome(final=cells[i], steps_taken=k, status=status)
        i = j
    status = SimStatus.REACHED_TARGET if cells[i] == m.target else SimStatus.STOPPED_SHORT
    return SimOutcome(final=cells[i], steps_taken=len(seq), status=status)
