"""The shared breadth-first search on mazes that are not perfect: open rooms
with cycles, partly walled-off grids, and grids with no passages at all."""

from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mazekit.core import EDGES, Maze, MoveDirection, Position, _cells, _index, open_neighbors, validate_maze
from mazekit.generate import (
    EndpointSamplingError,
    GenConfig,
    SolutionPath,
    UnreachableTargetError,
    _shortest_path,
    place_endpoints,
    solve_shortest_path,
)
from mazekit.rng import derive_seed
from reference import bfs, reference_shortest_path

U, D, L, R = MoveDirection.UP, MoveDirection.DOWN, MoveDirection.LEFT, MoveDirection.RIGHT


def room(width: int, height: int, split_after_col=None, closed=False) -> Maze:
    """A closed perimeter around open cells.

    ``split_after_col`` puts a full-height wall east of that column;
    ``closed`` walls every cell in on its own.
    """

    def cut(c):
        return closed or c == width - 1 or c == split_after_col

    masks = bytes(
        (closed or r == 0) | (closed or r == height - 1) << 1 | (c == 0 or cut(c - 1)) << 2 | cut(c) << 3
        for r in range(height)
        for c in range(width)
    )
    return Maze(width, height, masks)


def test_bfs_parent_links_follow_canonical_order():
    prev = bfs(room(3, 3), Position(0, 0))
    assert len(prev) == 9
    assert prev[Position(0, 0)] is None
    # (1,0) is enqueued before (0,1), so it claims (1,1) first
    assert prev[Position(1, 1)] == (Position(1, 0), R)


def test_bfs_stops_at_destination():
    prev = bfs(room(3, 3), Position(0, 0), Position(1, 0))
    assert set(prev) == {Position(0, 0), Position(1, 0)}


def test_solver_on_room_takes_canonical_shortest_path():
    m = room(3, 3).with_endpoints(Position(0, 0), Position(2, 2))
    assert solve_shortest_path(m).moves == (D, D, R, R)


def test_validate_counts_reachable_cells_exactly():
    problems = validate_maze(room(4, 3, split_after_col=1))
    assert problems == ["disconnected: only 6 of 12 cells reachable from (0,0)"]
    problems = validate_maze(room(2, 2, closed=True))
    assert problems == ["disconnected: only 1 of 4 cells reachable from (0,0)"]


def test_place_endpoints_skips_unreachable_pairs():
    m = room(4, 3, split_after_col=1)
    for i in range(40):
        placed = place_endpoints(m, GenConfig(width=4, height=3, seed=derive_seed(17, i)))
        assert (placed.origin.col <= 1) == (placed.target.col <= 1)
        assert solve_shortest_path(placed).steps >= 1


def test_place_endpoints_without_reachable_pair_raises():
    m = room(3, 3, closed=True)
    with pytest.raises(EndpointSamplingError):
        place_endpoints(m, GenConfig(width=3, height=3, seed=5))


def reference_neighbors(m: Maze, p: Position):
    """The open-edge rule read straight off ``EDGES``: in bounds, and neither cell has its bit."""
    out = []
    for d, bit, back, dr, dc in EDGES:
        q = Position(p.row + dr, p.col + dc)
        if m.in_bounds(q) and not m.wall_at(p) & bit and not m.wall_at(q) & back:
            out.append((d, q))
    return out


def reference_bfs(m: Maze, src: Position, dst=None):
    prev = {src: None}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for d, nxt in reference_neighbors(m, cur):
            if nxt not in prev:
                prev[nxt] = (cur, d)
                if nxt == dst:
                    return prev
                queue.append(nxt)
    return prev


@st.composite
def any_grid(draw):
    """Any 1x1..7x7 grid of masks: walls may disagree across an edge and the perimeter may be open."""
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    masks = draw(st.lists(st.integers(0, 15), min_size=width * height, max_size=width * height))
    cell = st.builds(Position, st.integers(0, height - 1), st.integers(0, width - 1))
    return Maze(width, height, bytes(masks)), draw(cell), draw(st.none() | cell)


@settings(max_examples=300, deadline=None)
@given(any_grid())
def test_flat_rule_matches_edges_reference(case):
    m, src, dst = case
    for p in _cells(m.width, m.height):
        assert open_neighbors(m, p) == reference_neighbors(m, p)
    got, want = bfs(m, src, dst), reference_bfs(m, src, dst)
    assert list(got.items()) == list(want.items())  # keys, parent links and insertion order
    reached, total = len(reference_bfs(m, Position(0, 0))), m.width * m.height
    disconnected = [p for p in validate_maze(m) if p.startswith("disconnected")]
    expected = [] if reached == total else [f"disconnected: only {reached} of {total} cells reachable from (0,0)"]
    assert disconnected == expected


@settings(max_examples=300, deadline=None)
@given(any_grid())
@example((room(3, 3), Position(0, 0), None))  # a room with loops, where ties break by canonical order
@example((room(4, 3, split_after_col=1), Position(2, 3), None))  # half the cells unreachable
def test_shortest_path_matches_the_walk_back_reference(case):
    """The path climbed in the BFS tree is, move for move and cell for cell, the one
    the walk back along (predecessor, move) links finds, from the source to every
    cell: None where unreachable, and the empty path to the source itself."""
    m, src, _ = case
    o = _index(m, src)
    for t, p in enumerate(_cells(m.width, m.height)):
        want = reference_shortest_path(m, o, t)
        assert _shortest_path(m, o, t) == want
        if want is None:
            with pytest.raises(UnreachableTargetError):
                solve_shortest_path(m.with_endpoints(src, p))
        else:
            assert solve_shortest_path(m.with_endpoints(src, p)) == want
    assert reference_shortest_path(m, o, o) == SolutionPath((), (src,))
