import pytest

from mazekit import augment
from mazekit.augment import (
    DEAD_END_MESSAGE,
    RESET_MARKER,
    WRONG_DIRECTION_MESSAGE,
    AugmentConfig,
    ReasoningTrace,
    TerminalKind,
    augment_trace,
    build_attempts,
)
from mazekit.core import Maze, SimStatus, _index, open_neighbors, simulate_moves
from mazekit.generate import SolutionPath, solve_shortest_path
from mazekit.rng import SplitMix64
from reference import attempt_cells

# attempts per origin wall count; any other count gets none
ATTEMPTS_BY_WALLS = {1: 2, 2: 1}


def _origin_walls(m):
    return m.wall_at(m.origin).bit_count()


def _corpus_by_walls(maze_corpus, walls):
    return [(m, sol) for m, sol in maze_corpus if _origin_walls(m) == walls]


def test_classify_example_is_skip(example_maze):
    # the worked example's origin has three walls, which no branch handles
    assert _origin_walls(example_maze) == 3
    assert build_attempts(example_maze, solve_shortest_path(example_maze), AugmentConfig()) == []


def test_classify_by_wall_count(maze_corpus):
    cfg = AugmentConfig(seed=3)
    for m, sol in maze_corpus:
        assert len(build_attempts(m, sol, cfg)) == ATTEMPTS_BY_WALLS.get(_origin_walls(m), 0)


def test_corpus_has_all_classes(maze_corpus):
    walls = {_origin_walls(m) for m, _ in maze_corpus}
    # 1-wall and 2-wall origins, and at least one that gets no attempts
    assert set(ATTEMPTS_BY_WALLS) <= walls and walls - set(ATTEMPTS_BY_WALLS)


def test_build_attempts_requires_an_origin(example_maze):
    no_origin = Maze(example_maze.width, example_maze.height, example_maze.masks, None, example_maze.target)
    with pytest.raises(ValueError, match="maze has no origin"):
        build_attempts(no_origin, SolutionPath((), ()), AugmentConfig())


def audit_attempt(m, solution, attempt, max_n_steps):
    # every attempt starts at the origin: its cells are its moves walked from there,
    # and a move off the grid raises here
    cells = attempt_cells(m, attempt)
    assert 1 <= len(attempt.moves) <= max_n_steps
    # no revisits
    assert len(set(cells)) == len(cells)
    # no solution-path cell beyond the starting anchor
    path = set(solution.cells)
    assert not any(c in path for c in cells[1:])
    # terminal kind matches the final cell's wall count
    dead = m.wall_at(cells[-1]).bit_count() == 3
    assert (attempt.terminal_kind is TerminalKind.DEAD_END) == dead
    # every move is legal: walking the attempt from the origin never hits a wall
    out = simulate_moves(m, m.origin, attempt.moves)
    assert out.status in (SimStatus.STOPPED_SHORT, SimStatus.REACHED_TARGET)
    assert out.final == cells[-1]
    # the attempt must not accidentally solve the maze
    assert cells[-1] != m.target


def test_attempt_invariants(maze_corpus):
    cfg = AugmentConfig(max_n_steps=3, seed=0xFEED)
    for m, sol in maze_corpus:
        for attempt in build_attempts(m, sol, cfg):
            audit_attempt(m, sol, attempt, cfg.max_n_steps)


def test_order1_attempt_count(maze_corpus):
    # a 1-wall origin has 3 open neighbors, one of them on the path: 2 attempts
    cases = _corpus_by_walls(maze_corpus, 1)
    assert cases
    for m, sol in cases:
        attempts = build_attempts(m, sol, AugmentConfig(seed=1))
        assert len(attempts) == 2
        # each commits its first move into a different off-path neighbor
        assert len({attempt_cells(m, a)[1] for a in attempts}) == 2


def test_order2_yields_single_attempt(maze_corpus):
    cases = _corpus_by_walls(maze_corpus, 2)
    assert cases
    for m, sol in cases[:40]:
        (attempt,) = build_attempts(m, sol, AugmentConfig(seed=2))
        audit_attempt(m, sol, attempt, 3)


def test_augmentation_deterministic(maze_corpus):
    cfg = AugmentConfig(max_n_steps=3, seed=12345)
    for m, sol in maze_corpus[:40]:
        assert build_attempts(m, sol, cfg) == build_attempts(m, sol, cfg)
        assert augment_trace(m, sol, cfg) == augment_trace(m, sol, cfg)


def test_trace_text_renders_once_on_first_use(maze_corpus, monkeypatch):
    cfg = AugmentConfig(seed=99)
    m, sol = next((m, sol) for m, sol in maze_corpus if len(build_attempts(m, sol, cfg)) == 2)
    rendered, real = [], augment._steps_text

    def counting(*args):
        rendered.append(args)
        return real(*args)

    monkeypatch.setattr(augment, "_steps_text", counting)
    trace = augment_trace(m, sol, cfg)
    assert rendered == []
    first = (trace.render(), trace.solution_text, trace.wrong_segments)
    for _ in range(3):
        assert (trace.render(), trace.solution_text, trace.wrong_segments) == first
    assert len(rendered) == 3  # two wrong attempts and the solution
    # equality compares the maze, attempts and path, not what was rendered
    assert trace == augment_trace(m, sol, cfg)


def test_walk_infeasible_when_ringed(maze_corpus):
    m, sol = maze_corpus[0]
    origin = _index(m, m.origin)
    blocked = {_index(m, q) for _, q in open_neighbors(m, m.origin)}
    assert augment._walk(m, origin, None, blocked, 3, SplitMix64(7)) == ([], [origin])


def test_walk_single_step(maze_corpus):
    for m, sol in maze_corpus[:20]:
        origin = _index(m, m.origin)
        neighbors = [_index(m, q) for _, q in open_neighbors(m, m.origin)]
        moves, path = augment._walk(m, origin, None, set(neighbors[1:]), 1, SplitMix64(3))
        assert len(moves) == 1
        assert path == [origin, neighbors[0]]


def test_trace_straight_success(maze_corpus):
    m, sol = maze_corpus[0]
    trace = ReasoningTrace(m, (), sol)
    assert not trace.is_retry
    text = trace.render()
    assert RESET_MARKER not in text
    assert text == trace.solution_text


def test_trace_messages_and_reset(maze_corpus):
    cfg = AugmentConfig(seed=99)
    seen = set()
    for m, sol in maze_corpus:
        trace = augment_trace(m, sol, cfg)
        if not trace.is_retry:
            continue
        lines = trace.render().split("\n")
        for a in trace.attempts:
            assert a.message in (DEAD_END_MESSAGE, WRONG_DIRECTION_MESSAGE)
            seen.add(a.message)
        # each message line is immediately followed by the RESET marker line
        for i, line in enumerate(lines):
            if line in (DEAD_END_MESSAGE, WRONG_DIRECTION_MESSAGE):
                assert lines[i + 1] == RESET_MARKER
        assert lines.count(RESET_MARKER) == len(trace.attempts)
    assert seen == {DEAD_END_MESSAGE, WRONG_DIRECTION_MESSAGE}


def test_trace_ends_with_solution(maze_corpus):
    cfg = AugmentConfig(seed=4)
    for m, sol in maze_corpus[:40]:
        trace = augment_trace(m, sol, cfg)
        assert trace.render().endswith(trace.solution_text)


def test_think_text_has_no_move_tokens(maze_corpus):
    cfg = AugmentConfig(seed=5)
    for m, sol in maze_corpus[:60]:
        text = augment_trace(m, sol, cfg).render()
        for literal in ("<|up|>", "<|down|>", "<|left|>", "<|right|>"):
            assert literal not in text


def test_step_template(maze_corpus):
    m, sol = maze_corpus[0]
    first = ReasoningTrace(m, (), sol).solution_text.split("\n")[0]
    o = m.origin
    assert first.startswith(f"At ({o.row},{o.col}), open: ")
    assert ". Move " in first and first.endswith(").")


def test_dead_end_walk_stops_early(maze_corpus):
    # attempts that end on a 3-walled cell may be shorter than the budget
    cfg = AugmentConfig(max_n_steps=3, seed=31337)
    found = False
    for m, sol in maze_corpus:
        for attempt in build_attempts(m, sol, cfg):
            if attempt.terminal_kind is TerminalKind.DEAD_END and len(attempt.moves) < 3:
                found = True
    assert found


def test_max_n_steps_validation():
    with pytest.raises(ValueError):
        AugmentConfig(max_n_steps=0)
