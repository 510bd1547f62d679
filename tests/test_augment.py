import pytest

from mazekit import augment
from mazekit.augment import (
    DEAD_END_MESSAGE,
    RESET_MARKER,
    WRONG_DIRECTION_MESSAGE,
    AugmentConfig,
    OriginClass,
    ReasoningTrace,
    TerminalKind,
    augment_trace,
    build_attempts,
    classify_origin,
    generate_wrong_path,
    process_order1,
    process_order2,
)
from mazekit.core import SimStatus, open_neighbors, simulate_moves, wall_count
from mazekit.rng import SplitMix64


def _corpus_by_class(maze_corpus, kind):
    return [(m, sol) for m, sol in maze_corpus if classify_origin(m) is kind]


def test_classify_example_is_skip(example_maze):
    # the worked example's origin has three walls, which no branch handles
    assert classify_origin(example_maze) is OriginClass.SKIP


def test_classify_by_wall_count(maze_corpus):
    for m, _ in maze_corpus:
        w = wall_count(m, m.origin)
        expected = {1: OriginClass.ORDER1, 2: OriginClass.ORDER2}.get(w, OriginClass.SKIP)
        assert classify_origin(m) is expected


def test_corpus_has_all_classes(maze_corpus):
    kinds = {classify_origin(m) for m, _ in maze_corpus}
    assert kinds == {OriginClass.ORDER1, OriginClass.ORDER2, OriginClass.SKIP}


def audit_attempt(m, solution, attempt, max_n_steps):
    assert attempt.cells[0] == m.origin
    assert len(attempt.cells) == len(attempt.moves) + 1
    assert 1 <= len(attempt.moves) <= max_n_steps
    # no revisits
    assert len(set(attempt.cells)) == len(attempt.cells)
    # no solution-path cell beyond the starting anchor
    path = set(solution.cells)
    assert not any(c in path for c in attempt.cells[1:])
    # terminal kind matches the final cell's wall count
    dead = wall_count(m, attempt.cells[-1]) == 3
    assert (attempt.terminal_kind is TerminalKind.DEAD_END) == dead
    # every move is legal: walking the attempt never hits a wall
    out = simulate_moves(m, attempt.cells[0], attempt.moves)
    assert out.status in (SimStatus.STOPPED_SHORT, SimStatus.REACHED_TARGET)
    assert out.final == attempt.cells[-1]
    # the attempt must not accidentally solve the maze
    assert attempt.cells[-1] != m.target


def test_attempt_invariants(maze_corpus):
    cfg = AugmentConfig(max_n_steps=3, seed=0xFEED)
    for m, sol in maze_corpus:
        for attempt in build_attempts(m, sol, cfg):
            audit_attempt(m, sol, attempt, cfg.max_n_steps)


def test_order1_attempt_count(maze_corpus):
    # a 1-wall origin has 3 open neighbors, one of them on the path: 2 attempts
    cases = _corpus_by_class(maze_corpus, OriginClass.ORDER1)
    assert cases
    for m, sol in cases:
        attempts = process_order1(m, sol, AugmentConfig(seed=1))
        assert len(attempts) == 2


def test_order2_yields_single_attempt(maze_corpus):
    cases = _corpus_by_class(maze_corpus, OriginClass.ORDER2)
    assert cases
    for m, sol in cases[:40]:
        attempt = process_order2(m, sol, AugmentConfig(seed=2))
        assert attempt is not None
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
    assert len(rendered) == 3  # two wrong segments and the solution
    # equality compares the maze, attempts and path, not what was rendered
    assert trace == augment_trace(m, sol, cfg)


def test_generate_wrong_path_infeasible_when_ringed(maze_corpus):
    m, sol = maze_corpus[0]
    anchor = m.origin
    forbidden = {q for _, q in open_neighbors(m, anchor)}
    rng = SplitMix64(7)
    assert generate_wrong_path(m, anchor, forbidden, 3, rng) is None


def test_generate_wrong_path_single_step(maze_corpus):
    for m, sol in maze_corpus[:20]:
        neighbors = open_neighbors(m, m.origin)
        allowed = [q for _, q in neighbors][:1]
        forbidden = {q for _, q in neighbors if q not in allowed}
        attempt = generate_wrong_path(m, m.origin, forbidden, 1, SplitMix64(3))
        assert attempt is not None
        assert len(attempt.moves) == 1
        assert attempt.cells[1] == allowed[0]
        dead = wall_count(m, allowed[0]) == 3
        assert (attempt.terminal_kind is TerminalKind.DEAD_END) == dead


def test_generate_wrong_path_rejects_forbidden_anchor(maze_corpus):
    m, _ = maze_corpus[0]
    with pytest.raises(ValueError):
        generate_wrong_path(m, m.origin, {m.origin}, 2, SplitMix64(0))


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
        for seg in trace.wrong_segments:
            assert seg.message in (DEAD_END_MESSAGE, WRONG_DIRECTION_MESSAGE)
            seen.add(seg.message)
        # each message line is immediately followed by the RESET marker line
        for i, line in enumerate(lines):
            if line in (DEAD_END_MESSAGE, WRONG_DIRECTION_MESSAGE):
                assert lines[i + 1] == RESET_MARKER
        assert lines.count(RESET_MARKER) == len(trace.wrong_segments)
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
