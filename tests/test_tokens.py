import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazekit.bench import hash16, maze_id
from mazekit.core import Maze, MoveDirection, Position, validate_maze
from mazekit.generate import GenConfig, generate_solved_maze
from mazekit.tokens import (
    MazeParseError,
    ascii_preview,
    extract_move_tokens,
    parse_maze_tokens,
    render_maze_tokens,
    render_move_tokens,
)
from golden import GAP_MAZE
from reference import mask, reference_ascii_preview, reference_render, wall_token
from test_bfs import any_grid

U, D, L, R = MoveDirection.UP, MoveDirection.DOWN, MoveDirection.LEFT, MoveDirection.RIGHT


@pytest.mark.parametrize(
    "walls,expected",
    [
        ((U, D, L, R), "<|up_down_left_right_wall|>"),
        ((), "<|no_wall|>"),
        ((D, L), "<|down_left_wall|>"),
        ((R,), "<|right_wall|>"),
        ((U, D, R), "<|up_down_right_wall|>"),
    ],
)
def test_wall_token_canonical_order(walls, expected):
    assert wall_token(mask(*walls)) == expected


def test_render_matches_golden_bytes(example_maze, golden_text):
    assert render_maze_tokens(example_maze) == golden_text


def test_parse_golden(golden_text):
    m = parse_maze_tokens(golden_text)
    assert (m.width, m.height) == (5, 5)
    assert m.origin == Position(2, 1)
    assert m.target == Position(4, 2)


def test_token_count(example_maze, golden_text):
    assert golden_text.count("<|") == 75  # 25 cells x 3 tokens


def test_round_trip_corpus(maze_corpus):
    for m, _ in maze_corpus:
        assert parse_maze_tokens(render_maze_tokens(m)) == m


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_round_trip_property(seed):
    m = generate_solved_maze(GenConfig(seed=seed))
    assert parse_maze_tokens(render_maze_tokens(m)) == m


def test_render_is_injective(maze_corpus):
    texts = {render_maze_tokens(m) for m, _ in maze_corpus}
    mazes = {m for m, _ in maze_corpus}
    assert len(texts) == len(mazes)


def test_render_requires_endpoints():
    from mazekit.generate import generate_maze

    with pytest.raises(ValueError, match="without origin and target"):
        render_maze_tokens(generate_maze(GenConfig(seed=1)))
    # a shared cell would render only the target
    m = generate_solved_maze(GenConfig(seed=7))
    with pytest.raises(ValueError, match=re.escape(f"origin and target coincide at ({m.origin.row},{m.origin.col})")):
        render_maze_tokens(m.with_endpoints(m.origin, m.origin))


def test_render_does_not_audit():
    """The gap maze of ``bench run``'s golden suite renders to its own text,
    has the id that suite pins, and only the audit names its gap."""
    gap = parse_maze_tokens(GAP_MAZE)
    assert render_maze_tokens(gap) == GAP_MAZE  # so it parses back to gap
    assert maze_id(gap) == hash16(GAP_MAZE) == "a667604ffa245c95"
    assert validate_maze(gap) == ["perimeter gap: (2,0) lacks a left wall"]


@st.composite
def any_render_case(draw):
    """Any masks on a 1-row, 1-column or 12x12 grid, with distinct endpoints."""
    n = draw(st.integers(2, 12))
    width, height = draw(st.sampled_from([(n, 1), (1, n), (12, 12)]))
    masks = bytes(draw(st.lists(st.integers(0, 15), min_size=width * height, max_size=width * height)))
    origin, target = draw(st.lists(st.integers(0, width * height - 1), min_size=2, max_size=2, unique=True))
    return Maze(width, height, masks, Position(*divmod(origin, width)), Position(*divmod(target, width)))


@settings(max_examples=300, deadline=None)
@given(any_render_case())
def test_render_matches_the_per_cell_join(m):
    """The render fills a per-shape tuple of pieces; its text equals the one
    joined cell by cell, whatever the masks."""
    assert render_maze_tokens(m) == reference_render(m)


def test_parse_missing_origin(golden_text):
    with pytest.raises(MazeParseError, match="missing origin"):
        parse_maze_tokens(golden_text.replace("<|origin|>", "<|blank|>"))


def test_parse_duplicate_target(golden_text):
    broken = golden_text.replace("<|0-0|><|up_left_wall|><|blank|>", "<|0-0|><|up_left_wall|><|target|>")
    with pytest.raises(MazeParseError, match="duplicate target"):
        parse_maze_tokens(broken)


def test_parse_unknown_token(golden_text):
    with pytest.raises(MazeParseError, match="unknown wall token"):
        parse_maze_tokens(golden_text.replace("<|up_left_wall|>", "<|left_up_wall|>", 1))


def test_parse_wall_inconsistency_names_both_cells(golden_text):
    # (1,4) has only a right wall; adding an up wall breaks the pair with (0,4)
    broken = golden_text.replace("<|1-4|><|right_wall|>", "<|1-4|><|up_right_wall|>")
    with pytest.raises(MazeParseError, match=r"\(0,4\) and \(1,4\)"):
        parse_maze_tokens(broken)


def test_parse_coordinate_mismatch(golden_text):
    broken = golden_text.replace("<|0-1|>", "<|0-2|>", 1)
    with pytest.raises(MazeParseError, match="does not match grid position"):
        parse_maze_tokens(broken)


def test_parse_ragged_rows(golden_text):
    lines = golden_text.split("\n")
    lines[1] = lines[1] + "<|1-5|><|no_wall|><|blank|>"
    with pytest.raises(MazeParseError, match="expected 5"):
        parse_maze_tokens("\n".join(lines))


def test_parse_rejects_interleaved_junk(golden_text):
    with pytest.raises(MazeParseError, match="unexpected"):
        parse_maze_tokens(golden_text.replace("<|origin|>", " <|origin|>"))


def test_parse_empty():
    with pytest.raises(MazeParseError):
        parse_maze_tokens("")


@pytest.mark.parametrize("text", ["", "\r", "\n\n", "\r\n\r", "\r\n\r\n"])
def test_parse_names_text_of_empty_rows(text):
    # rows that are all empty once "\r" is stripped hold no maze at all
    with pytest.raises(MazeParseError, match="^empty maze text$"):
        parse_maze_tokens(text)


def test_parse_tolerates_trailing_newline(golden_text):
    assert parse_maze_tokens(golden_text + "\n") == parse_maze_tokens(golden_text)


def test_render_move_tokens():
    assert render_move_tokens([L, D, R, D, R]) == "<|left|><|down|><|right|><|down|><|right|>"
    assert render_move_tokens([]) == ""
    assert render_move_tokens([U]) == "<|up|>"


def test_extract_move_tokens_lenient():
    assert extract_move_tokens("I think <|up|> then <|left|>!") == (U, L)
    assert extract_move_tokens("<think>plan</think><|left|><|down|>") == (L, D)
    assert extract_move_tokens("no moves here") == ()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([U, D, L, R]), max_size=30))
def test_extract_inverts_render(seq):
    assert list(extract_move_tokens(render_move_tokens(seq))) == seq


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.sampled_from([U, D, L, R]), max_size=10),
    st.text(alphabet=st.characters(blacklist_characters="<|"), max_size=20),
)
def test_extract_ignores_noise(seq, noise):
    text = noise + render_move_tokens(seq) + noise
    assert list(extract_move_tokens(text)) == seq


MOVE_NAMES = ["up", "down", "left", "right"]
# stray bracket halves, partial and padded names, and whole tokens back to back
PIECES = ["<|", "|>", "<", ">", "|", "u", "p", "upp", "lef", "righ", "dow", "Up", " ", "<||>", "<|up", "up|>"]
PIECES += [f"<|{n}|>" for n in MOVE_NAMES]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(PIECES + MOVE_NAMES) | st.text(max_size=3), max_size=40))
def test_extract_matches_enum_lookup(parts):
    # the extraction as it was: every findall name through the MoveDirection constructor
    text = "".join(parts)
    names = re.findall(r"<\|(up|down|left|right)\|>", text)
    assert extract_move_tokens(text) == tuple(MoveDirection(name) for name in names)


def test_ascii_preview_shape(example_maze):
    art = ascii_preview(example_maze)
    lines = art.split("\n")
    assert len(lines) == 2 * example_maze.height + 1
    assert "O" in art and "T" in art


@settings(max_examples=300, deadline=None)
@given(any_grid())
def test_ascii_preview_matches_the_wall_at_reference(case):
    # endpoints unset, one of them set, both set, and coinciding (where the origin's mark wins)
    m, p, q = case
    for origin, target in ((None, None), (p, None), (None, p), (p, q), (q, p), (p, p)):
        marked = Maze(m.width, m.height, m.masks, origin, target)
        assert ascii_preview(marked) == reference_ascii_preview(marked)
