"""The one move walk, ``core._walk_moves``, behind every scorer: the
simulation, and the reward, the bench verdict and the strict record check
that read an answer through ``tokens.walk_answer``, against their forms from
before it (kept in ``reference``), on arbitrary masks where walls may
disagree across an edge and the perimeter may be open; the errors each
scorer names; and the calls one GRPO group's scoring makes."""

import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mazekit import bench, core, dataset, rewards, tokens
from mazekit.bench import BenchEntry, Difficulty, _verdict, hash16
from mazekit.core import Maze, OutOfBoundsError, Position, SimOutcome, open_neighbors, simulate_moves
from mazekit.augment import ReasoningTrace
from mazekit.dataset import DatasetError, DatasetRecord, RecordKind, make_record, validate_record
from mazekit.generate import GenConfig, generate_solved_maze, solve_shortest_path
from mazekit.rewards import total_reward
from mazekit.tokens import MOVE_TOKENS, extract_move_tokens, render_maze_tokens, render_move_tokens
from reference import reference_simulate_moves, reference_total_reward, reference_verdict

PIECES = ["<|up|>", "<|down|>", "<|left|>", "<|right|>", "<think>", "</think>", "\n", " ", "<|", "|>", "up",
          "<|UP|>", "<|origin|>", "<|up_wall|>", "Move up to (0,1)."]


MAZE = generate_solved_maze(GenConfig(seed=22))
SOLUTION = solve_shortest_path(MAZE)


@st.composite
def scored_case(draw):
    """Any 1x1..9x9 grid of masks with an origin and a target cell, and an
    output of move tokens, think tags, token pieces and noise: either at
    random, or a legal walk from the origin with noise between its moves."""
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    grids = st.lists(st.integers(0, 15), min_size=width * height, max_size=width * height)
    # each wall bit set with odds 1 in 4, so that walks run on past their first step
    masks = bytes(a & b for a, b in zip(draw(grids), draw(grids)))
    cell = st.builds(Position, st.integers(0, height - 1), st.integers(0, width - 1))
    origin = p = draw(cell)
    noise = st.lists(st.sampled_from(PIECES) | st.text(max_size=3), max_size=3).map("".join)
    if draw(st.booleans()):
        parts = [draw(noise)]
        for _ in range(draw(st.integers(0, 12))):
            options = open_neighbors(Maze(width, height, masks), p)
            if not options:
                break
            d, p = draw(st.sampled_from(options))
            parts += [MOVE_TOKENS[d], draw(noise)]
        output = "".join(parts)
    else:
        output = "".join(draw(st.lists(st.sampled_from(PIECES[:4]) | noise, max_size=16)))
    target = p if draw(st.booleans()) else draw(cell)
    return Maze(width, height, masks, origin, target), output


@settings(max_examples=300, deadline=None)
@given(scored_case(), st.integers(0, 12))
@example((MAZE, "<think></think>"), 0)
@example((MAZE, "</think><think>"), 0)
@example((MAZE, "<think><|up|></think>"), 1)
@example((MAZE, "<think></think></think>"), 0)
@example((MAZE, "<think><think></think>"), 0)
@example((MAZE, "<|up|><think></think>"), 1)
@example((MAZE, "<think></think><think>"), 0)
def test_scorers_match_reference(case, steps):
    m, output = case
    moves = extract_move_tokens(output)
    assert simulate_moves(m, m.origin, moves) == reference_simulate_moves(m, m.origin, moves)
    assert total_reward(m, output) == reference_total_reward(m, output)
    entry = BenchEntry(id="e", maze=m, difficulty=Difficulty.MEDIUM, steps=5, maze_tokens="")
    assert _verdict(entry, output) == reference_verdict(entry, output)
    # the parser audits a maze, so a grid with gaps reaches the walk only past it
    text = "maze"
    record = DatasetRecord(f"000001-{hash16(text)}-straight", 0, text, steps, RecordKind.STRAIGHT_SUCCESS, text, output)
    outcome = reference_simulate_moves(m, m.origin, moves)
    if not outcome.solved:
        expected = f"record: completion does not solve the maze ({outcome.status.value})"
    elif steps != len(moves):
        expected = f"record: field 'steps' is {steps}, the answer has {len(moves)} moves"
    else:
        expected = None
    with mock.patch.object(dataset, "parse_maze_tokens", return_value=m):
        try:
            validate_record(record)
            got = None
        except DatasetError as exc:
            got = str(exc)
    assert got == expected


@pytest.mark.parametrize("score, error", [
    (lambda: total_reward(Maze(MAZE.width, MAZE.height, MAZE.masks, MAZE.origin, None), ""), ValueError),
    (lambda: simulate_moves(Maze(MAZE.width, MAZE.height, MAZE.masks, MAZE.origin, None), MAZE.origin, []), ValueError),
    (lambda: total_reward(Maze(MAZE.width, MAZE.height, MAZE.masks, None, MAZE.target), "<|up|>"), ValueError),
    (lambda: simulate_moves(MAZE, Position(-1, 0), []), OutOfBoundsError),
], ids=["reward-no-target", "simulate-no-target", "reward-no-origin", "simulate-off-grid-start"])
def test_scorers_name_their_errors(score, error):
    with pytest.raises(error):
        score()


def test_group_scores_on_move_names(monkeypatch):
    """One 16-output GRPO group builds no direction tuple, no outcome and no
    bounds-checked lookup, and reads each answer once through ``walk_answer``,
    the one answer reader, which the bench verdict and record check call too."""
    moves = render_move_tokens(SOLUTION.moves)
    short = render_move_tokens(SOLUTION.moves[:-1])
    group = [f"<think>\nplan\n</think>\n{moves}", moves, f"<think>\n{moves}\n</think>", "<|up|><|up|><|up|>",
             short, moves + "<|left|>", "<think>\nplan\n</think>\n", "<think>\n<think>\n" + moves] * 2
    expected = [reference_total_reward(MAZE, output) for output in group]
    calls = {"simulate_moves": 0, "extract_move_tokens": 0, "_index": 0, "SimOutcome": 0, "walk_answer": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name, real in [("simulate_moves", core.simulate_moves), ("extract_move_tokens", extract_move_tokens),
                       ("_index", core._index), ("walk_answer", tokens.walk_answer)]:
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("mazekit") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    monkeypatch.setattr(SimOutcome, "__init__", counting("SimOutcome", SimOutcome.__init__))
    assert [total_reward(MAZE, output) for output in group] == expected
    assert calls == {"simulate_moves": 0, "extract_move_tokens": 0, "_index": 0, "SimOutcome": 0, "walk_answer": 16}
    text = render_maze_tokens(MAZE)
    entry = BenchEntry(id=hash16(text), maze=MAZE, difficulty=Difficulty.MEDIUM, steps=SOLUTION.steps, maze_tokens=text)
    assert _verdict(entry, group[0]).solved
    assert calls["walk_answer"] == 17
    validate_record(make_record(1, 22, text, hash16(text), ReasoningTrace(MAZE, (), SOLUTION), retry=False))
    assert calls["walk_answer"] == 18
    for module in (rewards, bench, dataset):
        assert not hasattr(module, "_walk_moves"), module.__name__
    for module in (bench, dataset):
        assert not hasattr(module, "_MOVE_TOKEN_RE"), module.__name__
