import importlib
import itertools
import pathlib
import pkgutil
import re

import pytest
from hypothesis import given, settings

import mazekit
from mazekit.core import (
    DIRECTIONS,
    SHAPE_CACHE,
    WALL_SETS,
    Maze,
    MoveDirection,
    OutOfBoundsError,
    Position,
    SimStatus,
    _cells,
    _index,
    open_neighbors,
    simulate_moves,
    validate_maze,
    wall_mismatches,
)
from mazekit.rewards import OUTCOME_CACHE
from reference import BITS, OPPOSITE, apply_move, bfs, is_open, wall_token
from test_bfs import any_grid

U, D, L, R = MoveDirection.UP, MoveDirection.DOWN, MoveDirection.LEFT, MoveDirection.RIGHT


def test_every_cache_holds_at_most_shape_cache_shapes():
    """Each ``lru_cache`` in the package but one is a per-shape table bounded by
    ``SHAPE_CACHE``, so no cache grows with the number of shapes seen.  The one
    cache not kept per shape, ``rewards._outcome``, holds reward outcomes and is
    bounded by ``OUTCOME_CACHE``."""
    caches = {}
    for info in pkgutil.iter_modules(mazekit.__path__):
        module = importlib.import_module(f"mazekit.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    # every cache decorator in the source is one of the module-level caches above
    source = "".join(path.read_text(encoding="utf-8") for path in pathlib.Path(mazekit.__file__).parent.glob("*.py"))
    assert len(re.findall(r"@(?:functools\.)?(?:lru_cache|cache)\b", source)) == len(caches)
    assert {"generate._carve_table", "tokens._render_pieces", "rng._lanes"} <= caches.keys()
    assert caches.pop("rewards._outcome") == OUTCOME_CACHE
    assert set(caches.values()) == {SHAPE_CACHE}


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


@settings(max_examples=300, deadline=None)
@given(any_grid())
def test_maze_keeps_its_endpoints_flat_indices(case):
    """Each endpoint's flat index is ``_index`` of it, -1 when unset, recomputed by
    ``with_endpoints``; equality, hash and repr ignore the two fields."""
    bare, origin, target = case
    m = bare.with_endpoints(origin, target)
    assert (bare._origin_index, bare._target_index) == (-1, -1)
    assert m._origin_index == _index(m, origin)
    assert m._target_index == (-1 if target is None else _index(m, target))
    assert (m.with_endpoints(None, None)._origin_index, m.with_endpoints(target, None)._target_index) == (-1, -1)
    twin = Maze(m.width, m.height, m.masks, origin, target)
    object.__setattr__(twin, "_origin_index", -2)
    object.__setattr__(twin, "_target_index", -2)
    assert twin == m and hash(twin) == hash(m)
    assert repr(twin) == repr(m) == (
        f"Maze(width={m.width}, height={m.height}, masks={m.masks!r}, origin={origin!r}, target={target!r})"
    )


def test_wall_set_is_its_mask():
    for mask, w in enumerate(WALL_SETS):
        assert w == mask
        assert (w.up, w.down, w.left, w.right) == tuple(bool(mask & BITS[d]) for d in DIRECTIONS)
        assert [d for d in DIRECTIONS if mask & BITS[d]] == list(w.directions())
        names = "_".join(d.value for d in w.directions())
        assert wall_token(mask) == (f"<|{names}_wall|>" if names else "<|no_wall|>")


def test_is_open_on_example(example_maze):
    assert is_open(example_maze, Position(2, 1), L) is True
    assert is_open(example_maze, Position(2, 1), U) is False
    assert is_open(example_maze, Position(0, 0), U) is False


def test_wall_count_on_example(example_maze):
    assert example_maze.wall_at(Position(2, 1)).bit_count() == 3
    assert example_maze.wall_at(Position(1, 4)).bit_count() == 1
    assert example_maze.wall_at(Position(4, 0)).bit_count() == 3


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
