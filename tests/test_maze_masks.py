"""``Maze.masks``, the one stored grid: constructor checks, the derived
``walls``/``wall_at`` views, value semantics, and the identity-hashed
``MoveDirection`` that keys the move step."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings

from mazekit.core import DIRECTIONS, WALL_SETS, Maze, MoveDirection, OutOfBoundsError, Position, wall_mismatches
from test_bfs import any_grid


@pytest.mark.parametrize(
    "width,height,masks",
    [
        (2, 2, bytes(3)),  # one mask short
        (2, 2, bytes(5)),  # one mask over
        (3, 1, b""),
        (2, 2, bytes([15, 15, 16, 15])),  # 16 is not a 4-bit mask
        (1, 1, b"\xff"),
    ],
)
def test_constructor_rejects_bad_masks(width, height, masks):
    with pytest.raises(ValueError):
        Maze(width, height, masks)


@pytest.mark.parametrize("masks", [bytearray(4), [15] * 4, ((15, 15), (15, 15))])
def test_constructor_rejects_masks_that_are_not_bytes(masks):
    # a mutable or nested grid would make the frozen maze unhashable or change under it
    with pytest.raises(TypeError):
        Maze(2, 2, masks)


@pytest.mark.parametrize("width,height", [(0, 1), (1, 0), (-1, 2)])
def test_constructor_rejects_empty_shapes(width, height):
    with pytest.raises(ValueError):
        Maze(width, height, b"")


def test_constructor_rejects_off_grid_endpoints():
    with pytest.raises(OutOfBoundsError):
        Maze(2, 2, bytes(4), Position(0, 2))


@settings(max_examples=200, deadline=None)
@given(any_grid())
def test_walls_and_wall_at_agree_with_masks(case):
    m, _, _ = case
    assert len(m.walls) == m.height and all(len(row) == m.width for row in m.walls)
    for p in m.positions():
        mask = m.masks[p.row * m.width + p.col]
        assert m.walls[p.row][p.col] is WALL_SETS[mask]
        assert m.wall_at(p) is WALL_SETS[mask]
    with pytest.raises(OutOfBoundsError):
        m.wall_at(Position(0, m.width))


@settings(max_examples=300, deadline=None)
@given(any_grid())
def test_wall_mismatches_match_a_cell_by_cell_reference(case):
    # the flat-index scan against the rows of WallSet flags it replaced
    m, _, _ = case
    walls, want = m.walls, []
    for r in range(m.height):
        for c in range(m.width):
            if r + 1 < m.height and walls[r][c].down != walls[r + 1][c].up:
                want.append((r, c, r + 1, c, "down/up"))
            if c + 1 < m.width and walls[r][c].right != walls[r][c + 1].left:
                want.append((r, c, r, c + 1, "right/left"))
    assert list(wall_mismatches(m.masks, m.width)) == want


def test_maze_is_frozen_hashable_and_compares_the_grid():
    a = Maze(2, 1, bytes([13, 14]), Position(0, 0), Position(0, 1))
    b = Maze(2, 1, b"\x0d\x0e", Position(0, 0), Position(0, 1))
    assert a == b and hash(a) == hash(b)
    assert a != Maze(2, 1, bytes([15, 15]), Position(0, 0), Position(0, 1))
    assert a != a.with_endpoints(Position(0, 1), Position(0, 0))
    assert len({a, b, a.with_endpoints(None, None)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.masks = bytes(2)
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("d", DIRECTIONS)
def test_move_direction_survives_pickle_and_copy(d):
    assert pickle.loads(pickle.dumps(d)) is d
    assert copy.copy(d) is d and copy.deepcopy(d) is d
    assert MoveDirection(d.value) is d
    assert {d: 1}[pickle.loads(pickle.dumps(d))] == 1
