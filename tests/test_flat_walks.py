"""The walks that run on the flat cell index (wrong-path walks and the
attempts ``build_attempts`` makes of them, move simulation and step text)
against Position-based references written from ``EDGES``, on arbitrary
masks: walls may disagree across an edge and the perimeter may be open."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazekit import augment
from mazekit.augment import AugmentConfig, ReasoningTrace, TerminalKind, build_attempts
from mazekit.core import DIRECTIONS, EDGES, OutOfBoundsError, Position, SimStatus, _cells, simulate_moves
from mazekit.generate import SolutionPath
from reference import CountingRng, attempt_cells
from test_bfs import any_grid, reference_neighbors, room

STEPS = {d: (bit, dr, dc) for d, bit, _, dr, dc in EDGES}


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


def reference_order2(m, path_cells, max_n_steps, rng):
    forbidden = path_cells - {m.origin}
    for n_steps in range(max_n_steps, 0, -1):
        moves, cells = reference_walk(m, m.origin, None, forbidden, n_steps, rng)
        if moves and (len(moves) == n_steps or walls(m, cells[-1]).bit_count() == 3):
            return moves, cells
    return None


def reference_attempts(m, path_cells, max_n_steps, rng):
    """The walks of each origin class, chosen by the origin's own wall count."""
    origin_walls = walls(m, m.origin).bit_count()
    if origin_walls == 1:
        return reference_order1(m, path_cells, max_n_steps, rng)
    if origin_walls == 2:
        walk = reference_order2(m, path_cells, max_n_steps, rng)
        return [walk] if walk is not None else []
    return []


def check_attempts(m, path_cells, max_n_steps, seed):
    """``build_attempts`` on a solution through ``path_cells`` against the reference,
    with the draws of the one rng it made."""
    made = []

    def counting(s):
        made.append(CountingRng(s))
        return made[-1]

    with mock.patch.object(augment, "SplitMix64", counting):
        attempts = build_attempts(m, SolutionPath((), tuple(path_cells)), AugmentConfig(max_n_steps, seed))
    assert len(made) == 1
    ref_rng = CountingRng(seed)
    walks = [(a.moves, attempt_cells(m, a)) for a in attempts]
    assert walks == reference_attempts(m, path_cells, max_n_steps, ref_rng)
    assert made[0].draws == ref_rng.draws
    for a, (_, cells) in zip(attempts, walks):
        assert (a.terminal_kind is TerminalKind.DEAD_END) == (walls(m, cells[-1]).bit_count() == 3)


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
    blocked = {p.row * m.width + p.col for p in forbidden if m.in_bounds(p)}
    moves, path = augment._walk(m, anchor.row * m.width + anchor.col, None, blocked, n_steps, rng)
    cells = tuple(_cells(m.width, m.height)[i] for i in path)
    assert (tuple(moves), cells) == reference_walk(m, anchor, None, forbidden, n_steps, ref_rng)
    assert rng.draws == ref_rng.draws


@settings(max_examples=300, deadline=None)
@given(walk_case(), st.integers(1, 4))
def test_order1_walks_match_reference(case, max_n_steps):
    m, origin, path_cells, _, seed = case
    # the origin is off the path cells; both sides dispatch on its wall count, whatever it is
    check_attempts(m.with_endpoints(origin, None), path_cells, max_n_steps, seed)


@settings(max_examples=300, deadline=None)
@given(walk_case(), st.integers(1, 4))
def test_order2_walk_matches_reference(case, max_n_steps):
    m, origin, path_cells, _, seed = case
    # a solution path starts at the origin, which build_attempts blocks and
    # reference_order2 does not: no walk re-enters its start
    check_attempts(m.with_endpoints(origin, None), path_cells | {origin}, max_n_steps, seed)


@settings(max_examples=300, deadline=None)
@given(any_grid(), st.lists(st.sampled_from(DIRECTIONS), max_size=12))
def test_simulate_moves_matches_reference(case, moves):
    m, start, target = case
    m = m.with_endpoints(start, target or start)
    out = simulate_moves(m, start, moves)
    assert (out.final, out.steps_taken, out.status) == reference_simulate(m, start, moves)


def reference_steps_text(m, cells, moves):
    """The step template filled in from Position attributes and ``reference_neighbors``."""
    return "\n".join(
        f"At ({p.row},{p.col}), open: {', '.join(d.value for d, _ in reference_neighbors(m, p))}. "
        f"Move {d.value} to ({q.row},{q.col})."
        for d, p, q in zip(moves, cells, cells[1:])
    )


@settings(max_examples=300, deadline=None)
@given(any_grid(), st.data())
def test_steps_text_matches_reference(case, data):
    m, origin, _ = case
    m = m.with_endpoints(origin, None)
    # a legal walk from the origin: every move crosses an open edge, revisits allowed
    cells, moves = [origin], []
    for _ in range(data.draw(st.integers(0, 8))):
        options = reference_neighbors(m, cells[-1])
        if not options:
            break
        d, q = data.draw(st.sampled_from(options))
        moves.append(d)
        cells.append(q)
    assert augment._steps_text(m, moves) == reference_steps_text(m, cells, moves)
    # a move with no open edge at any step of the walk, into a wall or off the grid, raises
    k = data.draw(st.integers(0, len(moves)))
    closed = [d for d in DIRECTIONS if d not in dict(reference_neighbors(m, cells[k]))]
    if closed:
        with pytest.raises(ValueError, match="no open edge"):
            augment._steps_text(m, moves[:k] + [data.draw(st.sampled_from(closed))])


@settings(max_examples=100, deadline=None)
@given(any_grid(), st.integers(0, 3))
def test_off_grid_inputs_raise(case, side):
    m, inside, _ = case
    # just past each side; on the flat index (0, width) would alias (1, 0)
    off = (Position(-1, 0), Position(0, -1), Position(m.height, 0), Position(0, m.width))[side]
    up = DIRECTIONS[0]
    with pytest.raises(OutOfBoundsError):
        simulate_moves(m.with_endpoints(inside, inside), off, [up])
    # step text walks from the origin, so a maze without one cannot name its cells
    with pytest.raises(ValueError, match="no origin"):
        ReasoningTrace(m, (), SolutionPath((up,), (inside, inside))).solution_text


def test_off_grid_forbidden_position_blocks_nothing():
    origin = Position(0, 0)
    m = room(5, 2).with_endpoints(origin, None)
    # (0, 5) is off the 5-wide grid; read as row*width+col it would be (1, 0)
    solution = SolutionPath((), (origin, Position(0, 1), Position(0, 5)))
    (attempt,) = build_attempts(m, solution, AugmentConfig(max_n_steps=1))
    assert attempt_cells(m, attempt) == (origin, Position(1, 0))
