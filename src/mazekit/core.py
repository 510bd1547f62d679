"""Grid geometry, walls, structural validation and movement simulation.

Coordinates are (row, col) with (0, 0) the top-left cell; moving up
decreases the row index.  Each cell's walls are a 4-bit mask (up 1, down 2,
left 4, right 8), and a maze stores them as ``Maze.masks``: one byte per
cell on the flat index ``row * width + col``.  Walls are stored per cell,
redundantly on both sides of each shared edge, and are expected to stay
consistent by construction.  ``validate_maze`` audits that expectation
instead of repairing breaches.  Only the CLI's readers of outside input
(``cli._maze`` with ``audit`` and ``cli._read_maze``) call it; a maze the
carve built is trusted, and rendering and hashing never audit.

The flat index is the library's internal currency; ``Position`` is what the
public API takes and returns, and a ``Maze`` keeps its endpoints' flat
indices.  ``Maze._trusted`` builds the mazes valid by construction, the
parser's grid match and the carve's solved maze, without the public
constructor's checks.  Searches and walks index the wall bytes with the
per-shape ``links`` table of each cell's in-bounds edges.  ``_open`` states the one open-edge
rule, for each edge of a cell, for ``open_neighbors`` and the trace walks in
``augment``.  ``_walk_moves``, the one move walk, takes each move's
edge from ``_steps``, keyed by direction or by its name (``"up"``):
``tokens.walk_answer``, the one answer reader behind the reward, bench verdict
and strict record check, walks an answer's move-token names from the origin.
It, the one integer BFS ``_search`` and the trace step text of ``augment``
inline the rule.  ``_search`` records its tree in the carve's shape, so
``generate._tree_path`` reads paths from both.  ``wall_mismatches`` tests the
whole grid as one integer against the bit masks of ``_grid_bits`` and walks
only a grid that fails cell by cell, to name each mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterator, Optional, Sequence


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
def _steps(width: int, height: int) -> tuple[dict, ...]:
    """Per flat index, each direction's edge as in ``links`` (flat index -1 off the grid), keyed
    by the direction and by its name, ``"up"`` as a move token's regex match reads it.

    Searches iterate ``links`` itself: its tuples iterate faster than dicts.
    """
    rows = map(dict, links(width, height))
    return tuple({key: row.get(d, (bit, back, -1)) for d, bit, back, _, _ in EDGES for key in (d, d.value)} for row in rows)


@lru_cache(maxsize=SHAPE_CACHE)
def _cells(width: int, height: int) -> tuple[Position, ...]:
    return tuple(Position(r, c) for r in range(height) for c in range(width))


@lru_cache(maxsize=SHAPE_CACHE)
def _grid_bits(width: int, cells: int) -> tuple[int, int]:
    """For a grid read as ``int.from_bytes(masks, "little")`` (cell i in bits 8i..8i+7):
    bit 8i of each cell with one below, and bit 8i+2 of each with one right."""
    down = right = 0
    for i in range(cells):
        down |= (i + width < cells) << 8 * i
        right |= ((i + 1) % width != 0) << 8 * i + 2
    return down, right


def _open(masks: bytes, table, i: int) -> list[tuple[MoveDirection, int]]:
    """The one open-edge rule: (direction, neighbour's flat index) for each edge of cell i
    (see ``links``) with the wall bit set on neither side of it, in ``EDGES`` order."""
    here = masks[i]
    return [(d, j) for d, (bit, back, j) in table[i] if not here & bit and not masks[j] & back]


def _search(m: Maze, src: int, dst: int = -1):
    """Integer BFS from flat index src, stopping once dst is reached.

    Returns its tree in ``generate._carve``'s shape, per flat index the parent, the wall bit
    of the edge in from it and the depth (-1 where not reached), then the discovery order.
    """
    masks, table = m.masks, links(m.width, m.height)
    parent, entered, depth = [0] * len(masks), [0] * len(masks), [-1] * len(masks)
    depth[src] = 0
    order = [src]
    for i in order:  # the list grows while it is walked: a FIFO queue
        here, deeper = masks[i], depth[i] + 1
        for _, (bit, back, j) in table[i]:
            # ``_open``'s rule, inlined: this loop is the hot path of every search
            if depth[j] < 0 and not here & bit and not masks[j] & back:
                parent[j], entered[j], depth[j] = i, bit, deeper
                order.append(j)
                if j == dst:
                    return parent, entered, depth, order
    return parent, entered, depth, order


@dataclass(frozen=True)
class Maze:
    """A rectangular wall grid with optional origin/target endpoints.

    ``masks`` holds one wall mask (0..15) per cell, row-major.  Immutable
    after construction; use ``with_endpoints`` to derive a copy with
    endpoints set.  The constructor checks only the grid's shape and mask
    range, not the structural invariants (see ``validate_maze``).  It keeps
    each endpoint's flat index (-1 when unset), which equality, hash and repr ignore.
    ``_trusted`` skips the checks; its two callers are the parser's grid match and ``generate._tree_solved``.
    """

    width: int
    height: int
    masks: bytes
    origin: Optional[Position] = None
    target: Optional[Position] = None
    _origin_index: int = field(init=False, compare=False, repr=False)
    _target_index: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"maze dimensions must be positive, got {self.width}x{self.height}")
        if not isinstance(self.masks, bytes):
            raise TypeError(f"masks must be bytes, got {type(self.masks).__name__}")
        if len(self.masks) != self.width * self.height:
            raise ValueError(f"{len(self.masks)} wall masks for a {self.width}x{self.height} grid")
        if max(self.masks) > 15:
            raise ValueError(f"wall mask {max(self.masks)} is not a 4-bit mask")
        for name, index in (("origin", "_origin_index"), ("target", "_target_index")):
            p = getattr(self, name)
            if p is not None and not self.in_bounds(p):
                raise OutOfBoundsError(f"{name} {p} outside {self.width}x{self.height} grid")
            object.__setattr__(self, index, -1 if p is None else p.row * self.width + p.col)

    @classmethod
    def _trusted(cls, width: int, height: int, masks: bytes, origin: int, target: int) -> "Maze":
        """A maze whose caller guarantees every ``__post_init__`` check, its endpoints given as flat indices."""
        # field by field, as the generated __init__ does: a __dict__.update would give each maze
        # a dict of its own, about 190 bytes more per maze in a pool
        m, cells, put = object.__new__(cls), _cells(width, height), object.__setattr__
        put(m, "width", width)
        put(m, "height", height)
        put(m, "masks", masks)
        put(m, "origin", cells[origin])
        put(m, "target", cells[target])
        put(m, "_origin_index", origin)
        put(m, "_target_index", target)
        return m

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

    The one open-edge rule (``_open``): the edge stays in bounds and the
    wall bit on neither side of it is set; the two bits agree on any maze
    that passes ``validate_maze``.
    """
    cells = _cells(m.width, m.height)
    return [(d, cells[j]) for d, j in _open(m.masks, links(m.width, m.height), _index(m, p))]


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
    reached = len(_search(m, 0)[3])
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
    grid = int.from_bytes(masks, "little")
    down, right = _grid_bits(width, cells)
    # shifted right by one bit, each down wall (2) lands on up (1) and each right
    # wall (8) on left (4): the bits that the facing cells hold, in the whole
    # grid a shift of 8 * width or 8 bits away, in the per-cell scan at i + width or i + 1
    if not ((grid >> 1 ^ grid >> 8 * width) & down or (grid >> 1 ^ grid >> 8) & right):
        return
    for i in range(cells):
        facing = masks[i] >> 1
        if i + width < cells and (facing ^ masks[i + width]) & 1:
            r, c = divmod(i, width)
            yield r, c, r + 1, c, "down/up"
        if (i + 1) % width and (facing ^ masks[i + 1]) & 4:
            r, c = divmod(i, width)
            yield r, c, r, c + 1, "right/left"


def _walk_moves(m: Maze, i: int, moves: Sequence[MoveDirection | str]) -> tuple[int, int, SimStatus]:
    """The one move walk: (final flat index, steps taken, status) of walking
    moves, directions or their names, from flat index i; see ``simulate_moves``."""
    t = m._target_index
    if t < 0:
        raise ValueError("a move walk requires a maze with a target set")
    masks, steps = m.masks, _steps(m.width, m.height)
    for k, d in enumerate(moves):
        bit, back, j = steps[i][d]
        # ``_open``'s rule, inlined: this loop is the hot path of every reward
        if masks[i] & bit or j < 0 or masks[j] & back:
            # a present wall blocks the move before the boundary does, so leaving
            # the grid is only reportable through a perimeter gap
            return i, k, SimStatus.OUT_OF_BOUNDS if j < 0 and not masks[i] & bit else SimStatus.WALL_HIT
        i = j
    return i, len(moves), SimStatus.REACHED_TARGET if i == t else SimStatus.STOPPED_SHORT


def simulate_moves(m: Maze, start: Position, moves) -> SimOutcome:
    """Walk moves from start, halting at the first illegal move.

    A wall hit or exit from the grid ends the walk at that move's index.
    A fully legal walk ends REACHED_TARGET iff the final position equals
    the maze target, else STOPPED_SHORT.
    """
    i, steps_taken, status = _walk_moves(m, _index(m, start), tuple(moves))  # an off-grid start raises here
    return SimOutcome(final=_cells(m.width, m.height)[i], steps_taken=steps_taken, status=status)
