"""Reference helpers for the tests: Position-based restatements of rules the
package itself applies on the flat cell index, a Position-keyed view of its
integer BFS, wall masks built from directions, and the per-cell wall token."""

from mazekit.core import EDGES, MoveDirection, OutOfBoundsError, Position, _cells, _index, _search, open_neighbors
from mazekit.tokens import _WALL_TOKENS

_STEPS = {d: (dr, dc) for d, _, _, dr, dc in EDGES}
BITS = {d: bit for d, bit, _, _, _ in EDGES}

U, D, L, R = MoveDirection.UP, MoveDirection.DOWN, MoveDirection.LEFT, MoveDirection.RIGHT
OPPOSITE = {U: D, D: U, L: R, R: L}


def mask(*directions):
    """Wall mask with a wall on each given side."""
    return sum(BITS[d] for d in set(directions))


def apply_move(p, d, width, height):
    """Neighbouring position under the up = row-1 convention; OutOfBoundsError off the grid."""
    dr, dc = _STEPS[d]
    q = Position(p.row + dr, p.col + dc)
    if not (0 <= q.row < height and 0 <= q.col < width):
        raise OutOfBoundsError(f"move {d.value} from {p} leaves the {width}x{height} grid")
    return q


def is_open(m, p, d):
    """True iff a move from p in direction d crosses no wall and stays in bounds."""
    return any(e is d for e, _ in open_neighbors(m, p))


def bfs(m, src, dst=None):
    """``core._search`` from src as parent links keyed by Position.

    Every cell reached maps to its (predecessor, move) pair and src maps to
    None, in discovery order; the search stops as soon as dst is reached.
    """
    cells = _cells(m.width, m.height)
    parents, order = _search(m, _index(m, src), -1 if dst is None else _index(m, dst))
    prev = {src: None}
    for j in order[1:]:
        i, d = parents[j]
        prev[cells[j]] = (cells[i], d)
    return prev


def open_passage_count(m):
    """Count of open interior edges; equals cells - 1 on a perfect maze."""
    # the rule is symmetric, so each open edge is seen from both of its cells
    return sum(len(open_neighbors(m, p)) for p in _cells(m.width, m.height)) // 2


def wall_token(w):
    """Wall token for one cell, e.g. ``<|up_down_right_wall|>``."""
    return _WALL_TOKENS[w]
