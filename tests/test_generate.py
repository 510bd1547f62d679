from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazekit import core, generate
from mazekit.core import Maze, Position, SimStatus, _cells, simulate_moves, open_neighbors, validate_maze
from mazekit.generate import (
    EndpointSamplingError,
    GenConfig,
    generate_maze,
    generate_solved_maze,
    place_endpoints,
    solve_shortest_path,
    solved_pool,
)
from mazekit.rng import GOLDEN_GAMMA, MASK64, SplitMix64, derive_seed
from mazekit.tokens import parse_maze_tokens, render_maze_tokens
from reference import (
    CountingRng,
    apply_move,
    is_open,
    open_passage_count,
    reference_carve,
    reference_shortest_path,
    reference_solved_pool,
    unmix64,
)


def enumerate_simple_paths(m, start, goal):
    """Oracle: exhaustive DFS over all simple start->goal paths."""
    paths = []
    stack = [(start, [start])]
    while stack:
        cur, path = stack.pop()
        if cur == goal:
            paths.append(path)
            continue
        for _, nxt in open_neighbors(m, cur):
            if nxt not in path:
                stack.append((nxt, path + [nxt]))
    return paths


def test_generation_is_deterministic():
    cfg = GenConfig(seed=42)
    assert generate_maze(cfg) == generate_maze(cfg)
    assert generate_solved_maze(cfg) == generate_solved_maze(cfg)


def test_distinct_seeds_differ():
    assert generate_maze(GenConfig(seed=1)) != generate_maze(GenConfig(seed=2))


@pytest.mark.parametrize("seed", [0, 1, 7, 123456789, 2**63])
def test_five_by_five_is_perfect(seed):
    m = generate_maze(GenConfig(seed=seed))
    assert open_passage_count(m) == 24
    assert validate_maze(m) == []


def test_smallest_grid():
    m = generate_maze(GenConfig(width=2, height=2, seed=0))
    assert open_passage_count(m) == 3
    assert validate_maze(m) == []


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=12),
    height=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_every_carve_is_a_valid_spanning_tree(width, height, seed):
    """The build renders carved mazes without auditing them, so every carve must pass the audit."""
    m = generate_maze(GenConfig(width=width, height=height, seed=seed))
    assert validate_maze(m) == []
    assert open_passage_count(m) == width * height - 1


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(width=1, height=5)
    with pytest.raises(ValueError):
        GenConfig(min_steps=5, max_steps=2)


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"max_steps": 0}, "max_steps 0 is below 1"),
        ({"min_steps": -4, "max_steps": -1}, "max_steps -1 is below 1"),
        ({"width": 3, "height": 3, "min_steps": 9}, "min_steps 9 exceeds 8, the longest path in a 3x3 maze"),
    ],
)
def test_config_rejects_step_bounds_no_path_meets(bounds, message):
    with pytest.raises(ValueError, match=message):
        GenConfig(**bounds)
    # the largest bounds a path can still meet are accepted
    GenConfig(width=3, height=3, min_steps=8, max_steps=8)
    GenConfig(min_steps=-4, max_steps=1)


def test_solver_on_example(example_maze):
    from mazekit.core import MoveDirection as MD

    sol = solve_shortest_path(example_maze)
    assert list(sol.moves) == [MD.LEFT, MD.DOWN, MD.RIGHT, MD.DOWN, MD.RIGHT]
    assert sol.cells[0] == example_maze.origin
    assert sol.cells[-1] == example_maze.target
    assert sol.steps == 5


def test_example_path_is_unique(example_maze):
    paths = enumerate_simple_paths(example_maze, example_maze.origin, example_maze.target)
    assert len(paths) == 1
    assert paths[0] == list(solve_shortest_path(example_maze).cells)


def test_unique_path_property(maze_corpus):
    # perfect mazes admit exactly one simple path between the endpoints
    for m, sol in maze_corpus[:30]:
        paths = enumerate_simple_paths(m, m.origin, m.target)
        assert len(paths) == 1
        assert paths[0] == list(sol.cells)


def test_solution_simulates_to_target(maze_corpus):
    for m, sol in maze_corpus:
        assert simulate_moves(m, m.origin, sol.moves).status is SimStatus.REACHED_TARGET


def test_solution_cells_chain(maze_corpus):
    for m, sol in maze_corpus[:50]:
        assert len(sol.cells) == len(sol.moves) + 1
        assert len(set(sol.cells)) == len(sol.cells)
        for i, d in enumerate(sol.moves):
            assert apply_move(sol.cells[i], d, m.width, m.height) == sol.cells[i + 1]


def test_endpoint_bounds_respected():
    for i in range(50):
        cfg = GenConfig(seed=derive_seed(31, i), min_steps=5, max_steps=8)
        m = generate_solved_maze(cfg)
        assert 5 <= solve_shortest_path(m).steps <= 8


def test_adjacent_endpoints_with_unit_bounds():
    cfg = GenConfig(seed=3, min_steps=1, max_steps=1)
    m = generate_solved_maze(cfg)
    sol = solve_shortest_path(m)
    assert sol.steps == 1
    assert is_open(m, m.origin, sol.moves[0])


def test_infeasible_bounds_raise():
    # 8 edges is the longest path any 3x3 tree can have, so the config takes
    # 8..13; this seed's tree has no path longer than 7, so placement fails
    cfg = GenConfig(width=3, height=3, seed=0, min_steps=8, max_steps=13)
    m = generate_maze(cfg)
    with pytest.raises(EndpointSamplingError):
        place_endpoints(m, cfg)


def test_endpoints_deterministic():
    cfg = GenConfig(seed=99)
    m = generate_maze(cfg)
    assert place_endpoints(m, cfg) == place_endpoints(m, cfg)


def test_path_lengths_within_grid_bounds(maze_corpus):
    for m, sol in maze_corpus:
        assert 1 <= sol.steps <= 24


def test_solver_requires_endpoints():
    m = generate_maze(GenConfig(seed=5))
    with pytest.raises(ValueError):
        solve_shortest_path(m)


def test_disconnected_maze_rejected():
    from mazekit.core import Maze
    from mazekit.generate import UnreachableTargetError

    # 2x2 grid with every wall present: no passages at all
    m = Maze(2, 2, bytes([15] * 4), Position(0, 0), Position(1, 1))
    with pytest.raises(UnreachableTargetError):
        solve_shortest_path(m)


@pytest.mark.parametrize(
    "cfg",
    [
        GenConfig(seed=3),
        GenConfig(width=8, height=3, seed=3),
        GenConfig(width=3, height=8, seed=3),
        GenConfig(width=9, height=9, seed=3),
        GenConfig(seed=3, min_steps=9, max_steps=13),
    ],
    ids=["5x5", "8x3", "3x8", "9x9", "steps9-13"],
)
def test_solved_pool_yields_the_path_it_placed(cfg):
    """The pool hands out the path endpoint placement accepted instead of solving again."""
    for seed, m, path in solved_pool(cfg, 40):
        item = replace(cfg, seed=seed)
        assert path == solve_shortest_path(m)
        assert place_endpoints(generate_maze(item), item) == m


# (width, height, seed, next_u64 draws of one generate_maze call, the masks it carves)
CARVES = [
    (5, 5, 0, 26, "0709050309050a0c0d0c0609060a0c0d0603090c060303020a"),
    (5, 5, 2**63 + 11, 26, "05030905090c0d06080e0c04090c0d0c0e060a0c060303030a"),
    (8, 3, 7, 25, "0d0501090d05030b0c0c0c0e0c060309060a06030203030a"),
    (3, 8, 7, 25, "0503090c050a0c06090c050a0c060b06030905090c0e060a"),
    (
        9, 9, 42, 82,
        "050303090509050109060b050a0c0c0c0c0c050906090e0c0c0c0c0c06090609060a0c0c060b0609"
        "0603030a0c05030308050303030a0c07030a060905090d0c050303030a0c0c0c0602030303030a060a",
    ),
]


def counted_carve(cfg):
    """generate_maze's masks and the draws of the one rng it made."""
    made = []

    def counting(s):
        made.append(CountingRng(s))
        return made[-1]

    with mock.patch.object(generate, "SplitMix64", counting):
        m = generate_maze(cfg)
    assert len(made) == 1
    return m.masks, made[0].draws


@pytest.mark.parametrize("width, height, seed, draws, masks", CARVES, ids=["5x5", "5x5-big-seed", "8x3", "3x8", "9x9"])
def test_carve_draws_and_masks_are_pinned(width, height, seed, draws, masks):
    """The carve takes one draw per start coordinate and one per carved edge, and
    its walls are pinned byte for byte, so a faster carve cannot change the stream."""
    assert counted_carve(GenConfig(width, height, seed)) == (bytes.fromhex(masks), draws)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**64 - 1))
def test_carve_matches_the_neighbour_scan(width, height, seed):
    """The table-driven carve against the scan that rebuilds each cell's
    candidates on every step: the same masks from the same number of draws."""
    ref_rng = CountingRng(seed)
    assert counted_carve(GenConfig(width, height, seed)) == (reference_carve(width, height, ref_rng), ref_rng.draws)


# (width, height, carves that draw 2**64 - 1 at a step it rejects)
@pytest.mark.parametrize("width, height, rejecting", [(5, 5, 6), (3, 7, 3), (9, 9, 17)])
def test_carve_replaces_a_rejected_draw(width, height, rejecting):
    """No random seed reaches a rejection (about 2**-64 per draw), so each carve
    here draws 2**64 - 1, which ``randbelow`` rejects at 3 candidates, at one of
    its draw positions: its masks and draws follow the neighbour scan's."""
    extra = 0
    for d in range(1, width * height + 2):
        seed = (unmix64(MASK64) - d * GOLDEN_GAMMA) & MASK64
        ref_rng = CountingRng(seed)
        masks, draws = counted_carve(GenConfig(width, height, seed))
        assert (masks, draws) == (reference_carve(width, height, ref_rng), ref_rng.draws)
        extra += draws - (width * height + 1)
    assert extra == rejecting


def test_carve_takes_its_steps_in_one_block(monkeypatch):
    """A 5x5 carve that rejects no draw draws its start with two ``randbelow``
    calls and its 24 steps with one ``take``, and no draw one at a time."""
    calls = {"randbelow": 0, "take": 0, "next_u64": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(SplitMix64, name, counting(name, getattr(SplitMix64, name)))
    width, height, seed, _, masks = CARVES[0]
    assert generate_maze(GenConfig(width, height, seed)).masks == bytes.fromhex(masks)
    assert calls == {"randbelow": 2, "take": 1, "next_u64": 0}


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**64 - 1), st.data())
def test_tree_path_is_the_bfs_path(width, height, seed, data):
    """The path read from the carve's tree is, move for move and cell for cell,
    the one a BFS walked back from the target finds, for any distinct pair of cells."""
    masks, parent, entered, depth = generate._carve(width, height, seed)
    m = Maze(width, height, bytes(masks))
    cells = width * height
    for _ in range(5):
        o, t = data.draw(st.lists(st.integers(0, cells - 1), min_size=2, max_size=2, unique=True))
        path = generate._tree_path(parent, entered, depth, _cells(width, height), o, t)
        assert path == reference_shortest_path(m, o, t)


def pool_outcome(items):
    """The items a pool yields, or the message of the EndpointSamplingError it raises."""
    try:
        return list(items)
    except EndpointSamplingError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 12),
    st.integers(2, 12),
    st.integers(0, 2**64 - 1),
    st.one_of(st.none(), st.tuples(st.integers(1, 143), st.integers(0, 20))),
)
def test_solved_pool_matches_the_bfs_pool(width, height, seed, bounds):
    """The tree-read pool yields what the pool that solved every candidate pair
    with a BFS yields, with or without step bounds, and fails with its message."""
    if bounds is None:
        cfg = GenConfig(width, height, seed)
    else:
        low = min(bounds[0], width * height - 1)
        cfg = GenConfig(width, height, seed, low, low + bounds[1])
    assert pool_outcome(solved_pool(cfg, 3, start=5)) == pool_outcome(reference_solved_pool(cfg, 3, start=5))


def test_solved_pool_failure_message_is_pinned():
    """Neither 5x5 tree here (pool item 0 of seed 3, and seed 3's own) has a 24-step
    path, so each fails with the message of the pool that solved by BFS."""
    cfg = GenConfig(5, 5, 3, min_steps=24)
    message = "no endpoint pair with path length in [24, None] after 1000 attempts"
    assert pool_outcome(solved_pool(cfg, 1)) == pool_outcome(reference_solved_pool(cfg, 1)) == message
    with pytest.raises(EndpointSamplingError, match=r"^no endpoint pair with path length in \[24, None\] after 1000"):
        generate_solved_maze(cfg)


@pytest.fixture
def solve_calls(monkeypatch):
    """Calls of ``core._search``, at each module that bound it, and of ``Maze.__post_init__``
    and ``Maze._trusted``, the checked and the trusted way to build a maze."""
    search, post_init, trusted = core._search, Maze.__post_init__, Maze._trusted
    calls = {"_search": 0, "__post_init__": 0, "_trusted": 0}

    def counting_search(*args):
        calls["_search"] += 1
        return search(*args)

    def counting_post_init(self):
        calls["__post_init__"] += 1
        return post_init(self)

    def counting_trusted(cls, *args):
        calls["_trusted"] += 1
        return trusted(*args)

    for module in (core, generate):
        monkeypatch.setattr(module, "_search", counting_search)
    monkeypatch.setattr(Maze, "__post_init__", counting_post_init)
    monkeypatch.setattr(Maze, "_trusted", classmethod(counting_trusted))
    return calls


def test_solve_searches_once_and_climbs_once(monkeypatch, example_maze):
    """A solve is one BFS and one climb of its tree, the carve's path builder."""
    calls = {"_search": 0, "_tree_path": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    search = counting("_search", core._search)
    for module in (core, generate):
        monkeypatch.setattr(module, "_search", search)
    monkeypatch.setattr(generate, "_tree_path", counting("_tree_path", generate._tree_path))
    assert solve_shortest_path(example_maze).steps == 5
    assert calls == {"_search": 1, "_tree_path": 1}


def test_pool_item_searches_nothing_and_builds_one_maze(solve_calls):
    """A pool item and a solved maze read their path from the carve's tree: no BFS,
    and one ``Maze``, built trusted with its endpoints set.  ``place_endpoints`` takes any
    maze, so on a parsed one it still solves its candidate pairs by BFS."""
    next(solved_pool(GenConfig(seed=7, min_steps=3, max_steps=8), 1))
    assert solve_calls == {"_search": 0, "__post_init__": 0, "_trusted": 1}
    cfg = GenConfig(seed=7)
    m = generate_solved_maze(cfg)
    assert solve_calls == {"_search": 0, "__post_init__": 0, "_trusted": 2}
    assert place_endpoints(parse_maze_tokens(render_maze_tokens(m)), cfg) == m
    assert solve_calls["_search"] >= 1
