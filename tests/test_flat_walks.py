"""The walks that run on the flat cell index (wrong-path walks and move
simulation) against Position-based references written from ``EDGES``, on
arbitrary masks: walls may disagree across an edge and the perimeter may be
open."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazekit import augment
from mazekit.augment import AugmentConfig, ReasoningTrace, TerminalKind, generate_wrong_path, process_order1
from mazekit.core import DIRECTIONS, EDGES, OutOfBoundsError, Position, SimStatus, simulate_moves
from mazekit.generate import SolutionPath
from mazekit.rng import SplitMix64
from test_bfs import any_grid, reference_neighbors, room

STEPS = {d: (bit, dr, dc) for d, bit, _, dr, dc in EDGES}


class CountingRng(SplitMix64):
    __slots__ = ("draws",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.draws = 0

    def next_u64(self) -> int:
        self.draws += 1
        return super().next_u64()


def walls(m, p: Position) -> int:
    return m.masks[p.row * m.width + p.col]


def reference_walk(m, start, first, forbidden, max_moves, rng):
    cells, moves = [start], []
    if first is not None:
        moves.append(first[0])
        cells.append(first[1])
    while len(moves) < max_moves:
        if moves and walls(m, cells[-1]).bit_count() >= 3:
            break
        candidates = [(d, q) for d, q in reference_neighbors(m, cells[-1]) if q not in forbidden and q not in cells]
        if not candidates:
            break
        d, q = rng.choice(candidates)
        moves.append(d)
        cells.append(q)
    return tuple(moves), tuple(cells)


def reference_order1(m, path_cells, max_n_steps, rng):
    walks = []
    for d, q in reference_neighbors(m, m.origin):
        if q in path_cells:
            continue
        for n_steps in range(max_n_steps, 0, -1):
            moves, cells = reference_walk(m, m.origin, (d, q), path_cells, n_steps, rng)
            if len(moves) == n_steps or walls(m, cells[-1]).bit_count() == 3:
                walks.append((moves, cells))
                break
    return walks


def reference_simulate(m, start, moves):
    pos = start
    for k, d in enumerate(moves):
        reachable = dict(reference_neighbors(m, pos))
        if d not in reachable:
            bit, dr, dc = STEPS[d]
            off_grid = not walls(m, pos) & bit and not m.in_bounds(Position(pos.row + dr, pos.col + dc))
            return pos, k, SimStatus.OUT_OF_BOUNDS if off_grid else SimStatus.WALL_HIT
        pos = reachable[d]
    return pos, len(moves), SimStatus.REACHED_TARGET if pos == m.target else SimStatus.STOPPED_SHORT


@st.composite
def walk_case(draw):
    """A grid, an in-grid anchor and forbidden cells, some of them just off the grid."""
    m, anchor, _ = draw(any_grid())
    near = st.builds(Position, st.integers(-1, m.height), st.integers(-1, m.width))
    forbidden = frozenset(draw(st.lists(near, max_size=8))) - {anchor}
    return m, anchor, forbidden, draw(st.integers(1, 6)), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(walk_case())
def test_wrong_path_walk_matches_reference(case):
    m, anchor, forbidden, n_steps, seed = case
    rng, ref_rng = CountingRng(seed), CountingRng(seed)
    attempt = generate_wrong_path(m, anchor, forbidden, n_steps, rng)
    moves, cells = reference_walk(m, anchor, None, forbidden, n_steps, ref_rng)
    assert rng.draws == ref_rng.draws
    if not moves:
        assert attempt is None
        return
    assert (attempt.moves, attempt.cells) == (moves, cells)
    assert (attempt.terminal_kind is TerminalKind.DEAD_END) == (walls(m, cells[-1]).bit_count() == 3)


@settings(max_examples=300, deadline=None)
@given(walk_case(), st.integers(1, 4))
def test_order1_walks_match_reference(case, max_n_steps):
    m, origin, path_cells, _, seed = case
    m = m.with_endpoints(origin, None)
    made = []

    def counting(s):
        made.append(CountingRng(s))
        return made[-1]

    with mock.patch.object(augment, "SplitMix64", counting):
        attempts = process_order1(m, SolutionPath((), tuple(path_cells)), AugmentConfig(max_n_steps, seed))
    ref_rng = CountingRng(seed)
    assert [(a.moves, a.cells) for a in attempts] == reference_order1(m, path_cells, max_n_steps, ref_rng)
    assert made[0].draws == ref_rng.draws


@settings(max_examples=300, deadline=None)
@given(any_grid(), st.lists(st.sampled_from(DIRECTIONS), max_size=12))
def test_simulate_moves_matches_reference(case, moves):
    m, start, target = case
    m = m.with_endpoints(start, target or start)
    out = simulate_moves(m, start, moves)
    assert (out.final, out.steps_taken, out.status) == reference_simulate(m, start, moves)


@settings(max_examples=100, deadline=None)
@given(any_grid(), st.integers(0, 3))
def test_off_grid_inputs_raise(case, side):
    m, inside, _ = case
    # just past each side; on the flat index (0, width) would alias (1, 0)
    off = (Position(-1, 0), Position(0, -1), Position(m.height, 0), Position(0, m.width))[side]
    up = DIRECTIONS[0]
    with pytest.raises(OutOfBoundsError):
        generate_wrong_path(m, off, frozenset(), 2, SplitMix64(0))
    with pytest.raises(OutOfBoundsError):
        augment._walk(m, inside, (up, off), frozenset(), 2, SplitMix64(0))
    with pytest.raises(OutOfBoundsError):
        simulate_moves(m.with_endpoints(inside, inside), off, [up])
    with pytest.raises(OutOfBoundsError):
        ReasoningTrace(m, (), SolutionPath((up,), (off, inside))).solution_text


def test_off_grid_forbidden_position_blocks_nothing():
    m = room(5, 2)
    anchor = Position(0, 0)
    # (0, 5) is off the 5-wide grid; read as row*width+col it would be (1, 0)
    attempt = generate_wrong_path(m, anchor, {Position(0, 1), Position(0, 5)}, 1, SplitMix64(0))
    assert attempt is not None and attempt.cells == (anchor, Position(1, 0))
