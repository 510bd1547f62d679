from dataclasses import replace

import pytest

from mazekit.core import Position, SimStatus, simulate_moves, open_neighbors, validate_maze
from mazekit.generate import (
    EndpointSamplingError,
    GenConfig,
    generate_maze,
    generate_solved_maze,
    place_endpoints,
    solve_shortest_path,
    solved_pool,
)
from mazekit.rng import derive_seed
from reference import apply_move, is_open, open_passage_count


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


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(width=1, height=5)
    with pytest.raises(ValueError):
        GenConfig(min_steps=5, max_steps=2)


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
    # a 3x3 tree has at most 8 edges on the longest path; 9..13 is impossible
    cfg = GenConfig(width=3, height=3, seed=0, min_steps=9, max_steps=13)
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
