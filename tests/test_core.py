import itertools

import pytest

from mazekit.core import (
    DIRECTIONS,
    WALL_SETS,
    Maze,
    MoveDirection,
    OutOfBoundsError,
    Position,
    SimStatus,
    _cells,
    open_neighbors,
    simulate_moves,
    validate_maze,
    wall_count,
    wall_mismatches,
)
from reference import BITS, OPPOSITE, apply_move, bfs, is_open

U, D, L, R = MoveDirection.UP, MoveDirection.DOWN, MoveDirection.LEFT, MoveDirection.RIGHT


def test_apply_move_basic():
    assert apply_move(Position(2, 1), L, 5, 5) == Position(2, 0)
    assert apply_move(Position(4, 1), R, 5, 5) == Position(4, 2)


def test_apply_move_out_of_bounds():
    with pytest.raises(OutOfBoundsError):
        apply_move(Position(0, 0), U, 5, 5)


@pytest.mark.parametrize("p", [Position(0, 5), Position(-1, 0), Position(5, 0), Position(2, -1)])
def test_off_grid_position_is_rejected(example_maze, p):
    # on the flat index (0, 5) would otherwise alias (1, 0) and (-1, 0) the last row
    with pytest.raises(OutOfBoundsError):
        open_neighbors(example_maze, p)
    with pytest.raises(OutOfBoundsError):
        is_open(example_maze, p, U)
    with pytest.raises(OutOfBoundsError):
        bfs(example_maze, p)
    with pytest.raises(OutOfBoundsError):
        bfs(example_maze, Position(0, 0), p)


def test_wall_set_is_its_mask():
    for mask, w in enumerate(WALL_SETS):
        assert w == mask
        assert (w.up, w.down, w.left, w.right) == tuple(bool(mask & BITS[d]) for d in DIRECTIONS)
        assert [d for d in DIRECTIONS if mask & BITS[d]] == list(w.directions())


def test_is_open_on_example(example_maze):
    assert is_open(example_maze, Position(2, 1), L) is True
    assert is_open(example_maze, Position(2, 1), U) is False
    assert is_open(example_maze, Position(0, 0), U) is False


def test_wall_count_on_example(example_maze):
    assert wall_count(example_maze, Position(2, 1)) == 3
    assert wall_count(example_maze, Position(1, 4)) == 1
    assert wall_count(example_maze, Position(4, 0)) == 3


def test_validate_example_is_clean(example_maze):
    assert validate_maze(example_maze) == []


def _with_wall(m: Maze, r: int, c: int, **flags) -> Maze:
    masks, i = bytearray(m.masks), r * m.width + c
    for name, present in flags.items():
        bit = BITS[MoveDirection(name)]
        masks[i] = masks[i] | bit if present else masks[i] & ~bit
    return Maze(m.width, m.height, bytes(masks), m.origin, m.target)


def test_validate_reports_wall_mismatch(example_maze):
    # (0,1) keeps its down wall while (1,1) loses the matching up wall
    broken = _with_wall(example_maze, 1, 1, up=False)
    problems = [p for p in validate_maze(broken) if "mismatch" in p]
    assert len(problems) == 1
    assert "(0,1)" in problems[0] and "(1,1)" in problems[0]


def test_wall_mismatches_compare_facing_flags():
    for a, b in itertools.product(WALL_SETS, repeat=2):
        side_by_side = [] if a.right == b.left else [(0, 0, 0, 1, "right/left")]
        stacked = [] if a.down == b.up else [(0, 0, 1, 0, "down/up")]
        assert list(wall_mismatches(bytes((a, b)), 2)) == side_by_side
        assert list(wall_mismatches(bytes((a, b)), 1)) == stacked


def test_validate_reports_origin_target_coincidence(example_maze):
    broken = example_maze.with_endpoints(Position(2, 1), Position(2, 1))
    problems = validate_maze(broken)
    assert any("coincide" in p for p in problems)


def test_validate_reports_perimeter_gap(example_maze):
    broken = _with_wall(example_maze, 0, 2, up=False)
    problems = validate_maze(broken)
    assert any("perimeter gap" in p and "(0,2)" in p for p in problems)


def test_simulate_solution_reaches_target(example_maze):
    out = simulate_moves(example_maze, example_maze.origin, [L, D, R, D, R])
    assert out.status is SimStatus.REACHED_TARGET
    assert out.final == Position(4, 2)
    assert out.steps_taken == 5


def test_simulate_wall_hit_carries_index(example_maze):
    out = simulate_moves(example_maze, example_maze.origin, [U])
    assert out.status is SimStatus.WALL_HIT
    assert out.steps_taken == 0
    assert out.final == example_maze.origin


def test_simulate_empty_sequence(example_maze):
    out = simulate_moves(example_maze, example_maze.origin, [])
    assert out.status is SimStatus.STOPPED_SHORT
    out = simulate_moves(example_maze, example_maze.target, [])
    assert out.status is SimStatus.REACHED_TARGET


def test_simulate_out_of_bounds_on_perimeter_gap(example_maze):
    # hand-broken maze: opening the perimeter lets a walk leave the grid
    broken = _with_wall(example_maze, 0, 0, up=False)
    out = simulate_moves(broken, Position(0, 0), [U])
    assert out.status is SimStatus.OUT_OF_BOUNDS
    assert out.steps_taken == 0


def test_simulate_stops_at_first_illegal_move(example_maze):
    # legal Left then illegal Up from (2,0): index must be 1
    out = simulate_moves(example_maze, example_maze.origin, [L, U, L])
    assert out.status is SimStatus.WALL_HIT
    assert out.steps_taken == 1
    assert out.final == Position(2, 0)


def test_is_open_symmetry(maze_corpus):
    for m, _ in maze_corpus[:50]:
        for p in _cells(m.width, m.height):
            for d in DIRECTIONS:
                try:
                    q = apply_move(p, d, m.width, m.height)
                except OutOfBoundsError:
                    assert is_open(m, p, d) is False
                    continue
                assert is_open(m, p, d) == is_open(m, q, OPPOSITE[d])


def test_path_symmetry(maze_corpus):
    # reversing the solution and swapping endpoints still reaches the target
    for m, sol in maze_corpus[:50]:
        reversed_moves = [OPPOSITE[d] for d in reversed(sol.moves)]
        swapped = m.with_endpoints(m.target, m.origin)
        out = simulate_moves(swapped, swapped.origin, reversed_moves)
        assert out.status is SimStatus.REACHED_TARGET


def test_open_neighbors_canonical_order(example_maze):
    # (3,0) has walls only on the left: neighbors listed up, down, right
    dirs = [d for d, _ in open_neighbors(example_maze, Position(3, 0))]
    assert dirs == [U, D, R]
