"""Grid geometry, walls, structural validation and movement simulation.

Coordinates are (row, col) with (0, 0) the top-left cell; moving up
decreases the row index.  Each cell's walls are a 4-bit mask (up 1, down 2,
left 4, right 8), and a maze stores them as ``Maze.masks``: one byte per
cell on the flat index ``row * width + col``.  Walls are stored per cell,
redundantly on both sides of each shared edge, and are expected to stay
consistent by construction.  ``validate_maze`` audits that expectation
instead of repairing breaches.

Searches and walks index those bytes with the per-shape ``links`` table,
which holds every in-bounds edge of each cell.  ``_crosses`` is the one
open-edge rule; ``_open`` applies it to a whole cell for ``open_neighbors``
and the trace walks in ``augment``, and ``simulate_moves`` applies it to the
one edge each move names, found in ``_steps``, the same edges keyed by
direction.  The one integer BFS, ``_search``, inlines the same rule in its
hot loop and serves connectivity, endpoint placement and the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, Optional


class OutOfBoundsError(ValueError):
    """A move or position left the grid."""


class MoveDirection(Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"

    # members are singletons, so identity hashing agrees with equality and
    # skips Enum's Python-level hash of the name on every dict lookup
    __hash__ = object.__hash__


# The open-edge rule, one row per direction in canonical order:
# (direction, this cell's wall bit, the neighbour's wall bit, row step, col step).
# An edge is open only when it stays in bounds and neither cell has its bit.
EDGES = (
    (MoveDirection.UP, 1, 2, -1, 0),
    (MoveDirection.DOWN, 2, 1, 1, 0),
    (MoveDirection.LEFT, 4, 8, 0, -1),
    (MoveDirection.RIGHT, 8, 4, 0, 1),
)
_BITS = {d: bit for d, bit, _, _, _ in EDGES}

# Canonical direction order used everywhere: neighbor expansion, wall-token
# naming, trace text. Pinned so results do not depend on enum iteration.
DIRECTIONS: tuple[MoveDirection, ...] = tuple(d for d, _, _, _, _ in EDGES)


@dataclass(frozen=True, order=True)
class Position:
    row: int
    col: int


class WallSet(int):
    """The walls of one cell as a 4-bit mask: up 1, down 2, left 4, right 8."""

    __slots__ = ()

    up = property(lambda self: bool(self & 1))
    down = property(lambda self: bool(self & 2))
    left = property(lambda self: bool(self & 4))
    right = property(lambda self: bool(self & 8))

    def directions(self) -> tuple[MoveDirection, ...]:
        """Present walls in canonical up, down, left, right order."""
        return tuple(d for d, bit, _, _, _ in EDGES if self & bit)


# One instance per mask, indexed by the mask.
WALL_SETS: tuple[WallSet, ...] = tuple(map(WallSet, range(16)))

SHAPE_CACHE = 64  # grid shapes whose per-shape tables stay cached


@lru_cache(maxsize=SHAPE_CACHE)
def links(width: int, height: int) -> tuple[tuple[tuple[MoveDirection, tuple[int, int, int]], ...], ...]:
    """Per flat index, the cell's in-bounds edges in ``EDGES`` order, each as
    (direction, (this cell's wall bit, the neighbour's wall bit, its flat index))."""
    return tuple(
        tuple(
            (d, (bit, back, (r + dr) * width + c + dc))
            for d, bit, back, dr, dc in EDGES
            if 0 <= r + dr < height and 0 <= c + dc < width
        )
        for r in range(height)
        for c in range(width)
    )


@lru_cache(maxsize=SHAPE_CACHE)
def _steps(width: int, height: int) -> tuple[dict[MoveDirection, tuple[int, int, int]], ...]:
    """The edges of ``links`` keyed by direction, for a move to look its edge up.

    Searches iterate ``links`` itself: its tuples iterate faster than dicts.
    """
    return tuple(map(dict, links(width, height)))


@lru_cache(maxsize=SHAPE_CACHE)
def _cells(width: int, height: int) -> tuple[Position, ...]:
    return tuple(Position(r, c) for r in range(height) for c in range(width))


def _crosses(masks: bytes, i: int, edge: tuple[int, int, int]) -> bool:
    """The open-edge rule: ``edge`` of cell i (see ``links``) is open when
    the wall bit on neither side of it is set."""
    bit, back, j = edge
    return not masks[i] & bit and not masks[j] & back


def _open(masks: bytes, table, i: int) -> list[tuple[MoveDirection, int]]:
    """(direction, neighbour's flat index) for each open edge of cell i, in ``EDGES`` order."""
    return [(d, edge[2]) for d, edge in table[i] if _crosses(masks, i, edge)]


def _search(m: Maze, src: int, dst: int = -1):
    """Integer BFS from flat index src, stopping once dst is reached.

    Returns (parents, order): parents[j] is (predecessor, move) for each
    reached cell, (src, None) for src, None elsewhere; order is discovery order.
    """
    masks, table = m.masks, links(m.width, m.height)
    parents: list = [None] * len(masks)
    parents[src] = (src, None)
    order = [src]
    for i in order:  # the list grows while it is walked: a FIFO queue
        here = masks[i]
        for d, (bit, back, j) in table[i]:
            # the ``_crosses`` rule, inlined: this loop is the hot path of every search
            if parents[j] is None and not here & bit and not masks[j] & back:
                parents[j] = (i, d)
                order.append(j)
                if j == dst:
                    return parents, order
    return parents, order


@dataclass(frozen=True)
class Maze:
    """A rectangular wall grid with optional origin/target endpoints.

    ``masks`` holds one wall mask (0..15) per cell, row-major.  Immutable
    after construction; use ``with_endpoints`` to derive a copy with
    endpoints set.  The constructor checks only the grid's shape and mask
    range, not the structural invariants (see ``validate_maze``).
    """

    width: int
    height: int
    masks: bytes
    origin: Optional[Position] = None
    target: Optional[Position] = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"maze dimensions must be positive, got {self.width}x{self.height}")
        if not isinstance(self.masks, bytes):
            raise TypeError(f"masks must be bytes, got {type(self.masks).__name__}")
        if len(self.masks) != self.width * self.height:
            raise ValueError(f"{len(self.masks)} wall masks for a {self.width}x{self.height} grid")
        if max(self.masks) > 15:
            raise ValueError(f"wall mask {max(self.masks)} is not a 4-bit mask")
        for name in ("origin", "target"):
            p = getattr(self, name)
            if p is not None and not self.in_bounds(p):
                raise OutOfBoundsError(f"{name} {p} outside {self.width}x{self.height} grid")

    def in_bounds(self, p: Position) -> bool:
        return 0 <= p.row < self.height and 0 <= p.col < self.width

    def wall_at(self, p: Position) -> WallSet:
        return WALL_SETS[self.masks[_index(self, p)]]

    def with_endpoints(self, origin: Position, target: Position) -> "Maze":
        return Maze(self.width, self.height, self.masks, origin, target)


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


def open_neighbors(m: Maze, p: Position) -> list[tuple[MoveDirection, Position]]:
    """Open (direction, neighbor) pairs from p, in canonical direction order.

    The one open-edge rule (``_crosses``): the edge stays in bounds and the
    wall bit on neither side of it is set; the two bits agree on any maze
    that passes ``validate_maze``.
    """
    cells = _cells(m.width, m.height)
    return [(d, cells[j]) for d, j in _open(m.masks, links(m.width, m.height), _index(m, p))]


def wall_count(m: Maze, p: Position) -> int:
    """Number of present walls at p (0..4)."""
    return m.masks[_index(m, p)].bit_count()


def validate_maze(m: Maze) -> list[str]:
    """Audit structural invariants; returns one message per violation.

    Checks mutual wall consistency between neighbors, a closed perimeter,
    origin != target when both are set, and connectivity of the open-passage
    graph.  An empty list means the maze is valid.
    """
    masks, w, last_row, last_col = m.masks, m.width, m.height - 1, m.width - 1
    problems = [
        f"wall mismatch between ({r},{c}) and ({r2},{c2}): {pair} flags disagree"
        for r, c, r2, c2, pair in wall_mismatches(masks, w)
    ]
    for c in range(w):
        if not masks[c] & 1:
            problems.append(f"perimeter gap: (0,{c}) lacks an up wall")
        if not masks[last_row * w + c] & 2:
            problems.append(f"perimeter gap: ({last_row},{c}) lacks a down wall")
    for r in range(m.height):
        if not masks[r * w] & 4:
            problems.append(f"perimeter gap: ({r},0) lacks a left wall")
        if not masks[r * w + last_col] & 8:
            problems.append(f"perimeter gap: ({r},{last_col}) lacks a right wall")
    if m.origin is not None and m.origin == m.target:
        problems.append(f"origin and target coincide at ({m.origin.row},{m.origin.col})")
    reached = len(_search(m, 0)[1])
    total = m.width * m.height
    if reached != total:
        problems.append(f"disconnected: only {reached} of {total} cells reachable from (0,0)")
    return problems


def wall_mismatches(masks, width: int) -> Iterator[tuple[int, int, int, int, str]]:
    """Shared edges whose two cells disagree about the wall, in row-major order.

    Yields (row, col, neighbour row, neighbour col, "down/up" or
    "right/left") for row-major wall masks of a grid ``width`` cells wide.
    """
    cells = len(masks)
    for i in range(cells):
        # shifted right by one, the down bit (2) lands on up (1) and the
        # right bit (8) on left (4), the bits the facing cells hold
        facing = masks[i] >> 1
        if i + width < cells and (facing ^ masks[i + width]) & 1:
            r, c = divmod(i, width)
            yield r, c, r + 1, c, "down/up"
        if (i + 1) % width and (facing ^ masks[i + 1]) & 4:
            r, c = divmod(i, width)
            yield r, c, r, c + 1, "right/left"


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
    masks, steps, cells = m.masks, _steps(m.width, m.height), _cells(m.width, m.height)
    i = _index(m, start)
    for k, d in enumerate(seq):
        edge = steps[i].get(d)
        if edge is None or not _crosses(masks, i, edge):
            # a present wall blocks the move before the boundary does, so leaving
            # the grid is only reportable through a perimeter gap
            off_grid = edge is None and not masks[i] & _BITS[d]
            status = SimStatus.OUT_OF_BOUNDS if off_grid else SimStatus.WALL_HIT
            return SimOutcome(final=cells[i], steps_taken=k, status=status)
        i = edge[2]
    status = SimStatus.REACHED_TARGET if i == _index(m, m.target) else SimStatus.STOPPED_SHORT
    return SimOutcome(final=cells[i], steps_taken=len(seq), status=status)
