"""``Maze.masks``, the one stored grid: constructor checks and the two
callers of the trusted constructor that skips them, the derived ``wall_at`` view, the whole-grid wall audits against per-cell references,
value semantics, and the identity-hashed ``MoveDirection`` that keys the
move step."""

import copy
import dataclasses
import pickle

import re
from unittest import mock

import pytest
from hypothesis import given, settings

from mazekit.core import (
    DIRECTIONS,
    WALL_SETS,
    Maze,
    MoveDirection,
    OutOfBoundsError,
    Position,
    _cells,
    links,
    validate_maze,
    wall_mismatches,
)
from mazekit.generate import GenConfig, solved_pool
from mazekit.tokens import parse_maze_tokens, render_maze_tokens
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


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Maze(0, 1, b""), ValueError, "maze dimensions must be positive, got 0x1"),
        (lambda: Maze(2, -1, b""), ValueError, "maze dimensions must be positive, got 2x-1"),
        (lambda: Maze(2, 2, bytearray(4)), TypeError, "masks must be bytes, got bytearray"),
        (lambda: Maze(2, 2, bytes(3)), ValueError, "3 wall masks for a 2x2 grid"),
        (lambda: Maze(2, 2, bytes([15, 15, 16, 15])), ValueError, "wall mask 16 is not a 4-bit mask"),
        (lambda: Maze(2, 2, bytes(4), Position(0, 2)), OutOfBoundsError, "origin Position(row=0, col=2) outside 2x2 grid"),
        (
            lambda: Maze(2, 2, bytes(4)).with_endpoints(Position(0, 0), Position(2, 0)),
            OutOfBoundsError,
            "target Position(row=2, col=0) outside 2x2 grid",
        ),
    ],
    ids=["zero-width", "negative-height", "not-bytes", "mask-count", "mask-above-15", "origin-off-grid", "target-off-grid"],
)
def test_public_constructor_error_messages(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def _checked(self):
    raise AssertionError("a checked Maze was built")


def _line_maze(width, height):
    """A 1-row or 1-column maze with every interior edge open and its endpoints at the two ends."""
    bit, back = (8, 4) if height == 1 else (2, 1)
    masks = [15] * (width * height)
    for i in range(width * height - 1):
        masks[i] ^= bit
        masks[i + 1] ^= back
    return Maze(width, height, bytes(masks), Position(0, 0), Position(height - 1, width - 1))


def test_only_the_grid_match_and_the_carve_build_trusted_mazes():
    """Rendered text of every shape 1x2..12x12, the same text with CRLF rows, and every pool
    maze are built without ``__post_init__``: the parser builds no checked maze."""
    shapes = [(w, h) for w in range(1, 13) for h in range(1, 13) if w * h > 1]
    mazes = [_line_maze(w, h) if w == 1 or h == 1 else next(solved_pool(GenConfig(w, h, w * h), 1))[1] for w, h in shapes]
    texts = [render_maze_tokens(m) for m in mazes]
    with mock.patch.object(Maze, "__post_init__", _checked):
        assert [parse_maze_tokens(text) for text in texts] == mazes
        assert [parse_maze_tokens(text.replace("\n", "\r\n") + "\r\n") for text in texts] == mazes
        assert len(list(solved_pool(GenConfig(4, 3, 11), 20))) == 20


@settings(max_examples=200, deadline=None)
@given(any_grid())
def test_walls_and_wall_at_agree_with_masks(case):
    m, _, _ = case
    for p in _cells(m.width, m.height):
        assert m.wall_at(p) is WALL_SETS[m.masks[p.row * m.width + p.col]]
    with pytest.raises(OutOfBoundsError):
        m.wall_at(Position(0, m.width))


def reference_mismatches(m):
    """A cell-by-cell comparison of WallSet flags across each shared edge, in row-major order."""
    want = []
    for r in range(m.height):
        for c in range(m.width):
            here = m.wall_at(Position(r, c))
            if r + 1 < m.height and here.down != m.wall_at(Position(r + 1, c)).up:
                want.append((r, c, r + 1, c, "down/up"))
            if c + 1 < m.width and here.right != m.wall_at(Position(r, c + 1)).left:
                want.append((r, c, r, c + 1, "right/left"))
    return want


def reference_audit(m):
    """``validate_maze``'s wall-mismatch and perimeter-gap messages, from per-cell flags."""
    last_row, last_col = m.height - 1, m.width - 1
    problems = [
        f"wall mismatch between ({r},{c}) and ({r2},{c2}): {pair} flags disagree"
        for r, c, r2, c2, pair in reference_mismatches(m)
    ]
    for c in range(m.width):
        if not m.wall_at(Position(0, c)).up:
            problems.append(f"perimeter gap: (0,{c}) lacks an up wall")
        if not m.wall_at(Position(last_row, c)).down:
            problems.append(f"perimeter gap: ({last_row},{c}) lacks a down wall")
    for r in range(m.height):
        if not m.wall_at(Position(r, 0)).left:
            problems.append(f"perimeter gap: ({r},0) lacks a left wall")
        if not m.wall_at(Position(r, last_col)).right:
            problems.append(f"perimeter gap: ({r},{last_col}) lacks a right wall")
    return problems


def audit(m):
    return [p for p in validate_maze(m) if p.startswith(("wall mismatch", "perimeter gap"))]


@settings(max_examples=300, deadline=None)
@given(any_grid())
def test_wall_mismatches_match_a_cell_by_cell_reference(case):
    # the whole-grid test and its flat-index scan against per-cell WallSet flags
    m, _, _ = case
    assert list(wall_mismatches(m.masks, m.width)) == reference_mismatches(m)


@settings(max_examples=300, deadline=None)
@given(any_grid())
def test_validate_maze_audit_matches_a_cell_by_cell_reference(case):
    m, _, _ = case
    assert audit(m) == reference_audit(m)


# every shared edge and perimeter wall of a 3-wide, 4-tall grid, on backgrounds
# of all walls, an open room and (edges only) no walls at all: a bit that bleeds
# into a neighbouring cell's byte, or a row shift taken for a cell shift, names
# a second fault or none
WIDTH, HEIGHT = 3, 4
SHARED_EDGES = [(i, bit, j, back) for i, row in enumerate(links(WIDTH, HEIGHT)) for _, (bit, back, j) in row if j > i]
PERIMETER = [
    (r * WIDTH + c, bit)
    for r in range(HEIGHT)
    for c in range(WIDTH)
    for bit, off_grid in ((1, r == 0), (2, r == HEIGHT - 1), (4, c == 0), (8, c == WIDTH - 1))
    if off_grid
]
OPEN_ROOM = bytes(sum(bit for cell, bit in PERIMETER if cell == i) for i in range(WIDTH * HEIGHT))


@pytest.mark.parametrize(
    "background", [b"\x0f" * (WIDTH * HEIGHT), OPEN_ROOM, bytes(WIDTH * HEIGHT)], ids=["all-walls", "open-room", "no-walls"]
)
@pytest.mark.parametrize("edge", SHARED_EDGES, ids=[f"{i}-{j}" for i, _, j, _ in SHARED_EDGES])
def test_one_mismatched_edge_is_named_alone(background, edge):
    # toggling one side's wall on an edge makes it the only mismatch, wherever it sits
    i, bit, j, back = edge
    for cell, flag in ((i, bit), (j, back)):
        masks = bytearray(background)
        masks[cell] ^= flag
        m = Maze(WIDTH, HEIGHT, bytes(masks))
        (r, c), (r2, c2) = divmod(i, WIDTH), divmod(j, WIDTH)
        pair = "down/up" if bit == 2 else "right/left"
        assert list(wall_mismatches(m.masks, WIDTH)) == [(r, c, r2, c2, pair)]
        problems = audit(m)
        assert problems == reference_audit(m)
        mismatches = [p for p in problems if p.startswith("wall mismatch")]
        assert mismatches == [f"wall mismatch between ({r},{c}) and ({r2},{c2}): {pair} flags disagree"]


@pytest.mark.parametrize("background", [b"\x0f" * (WIDTH * HEIGHT), OPEN_ROOM], ids=["all-walls", "open-room"])
@pytest.mark.parametrize("wall", PERIMETER, ids=[f"{i}-{bit}" for i, bit in PERIMETER])
def test_one_perimeter_gap_is_named_alone(background, wall):
    i, bit = wall
    masks = bytearray(background)
    masks[i] &= ~bit
    m = Maze(WIDTH, HEIGHT, bytes(masks))
    assert list(wall_mismatches(m.masks, WIDTH)) == []
    gaps = audit(m)
    assert gaps == reference_audit(m) and len(gaps) == 1
    assert gaps[0].startswith(f"perimeter gap: ({i // WIDTH},{i % WIDTH}) lacks")


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
