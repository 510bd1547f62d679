"""``parse_maze_tokens`` against the token-by-token parser it replaced, on
mutated renderings of valid 1x1..7x7 mazes: both must return equal mazes or
raise ``MazeParseError`` with the same message, and a text that parses must
never reach the token walk, which only names faults."""

import re
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from mazekit import tokens
from mazekit.core import WALL_SETS, Maze, Position, wall_mismatches
from mazekit.generate import GenConfig, solved_pool
from mazekit.tokens import (
    BLANK_TOKEN,
    ORIGIN_TOKEN,
    TARGET_TOKEN,
    _WALL_PIECES,
    _WALL_TOKENS,
    MazeParseError,
    parse_maze_tokens,
    render_maze_tokens,
)
from reference import wall_token

_TOKEN_RE = re.compile(r"<\|([^<>|]*)\|>")
_COORD_RE = re.compile(r"^(\d+)-(\d+)$")


# The reference: the token-by-token parser, kept as it was before the grid
# match, except that a coordinate must be spelt exactly as it is rendered
# ("1-0", not "01-0"), the grid is kept as row-major mask bytes, a trailing
# run of CR and LF characters is dropped, and a row with no tokens has no cells.


def _line_tokens(line: str, row: int) -> list[str]:
    tokens = []
    pos = 0
    for match in _TOKEN_RE.finditer(line):
        if match.start() != pos:
            raise MazeParseError(f"row {row}: unexpected text {line[pos:match.start()]!r} between tokens")
        tokens.append(match.group(0))
        pos = match.end()
    if pos != len(line):
        raise MazeParseError(f"row {row}: unexpected trailing text {line[pos:]!r}")
    return tokens


def reference_parse(text: str) -> Maze:
    lines = text.rstrip("\r\n").split("\n")
    lines = [line.rstrip("\r") for line in lines]
    if not any(lines):
        raise MazeParseError("empty maze text")
    height = len(lines)

    grid = bytearray()
    origin: Position | None = None
    target: Position | None = None
    width: int | None = None
    for r, line in enumerate(lines):
        tokens = _line_tokens(line, r)
        if not tokens:
            raise MazeParseError(f"row {r} has no cells")
        if len(tokens) % 3 != 0:
            raise MazeParseError(f"row {r}: {len(tokens)} tokens is not a whole number of cell triplets")
        row_width = len(tokens) // 3
        if width is None:
            width = row_width
        elif row_width != width:
            raise MazeParseError(f"row {r} has {row_width} cells, expected {width}")
        row_walls = bytearray()
        for c in range(row_width):
            coord, wall, state = tokens[3 * c : 3 * c + 3]
            inner = coord[2:-2]
            cm = _COORD_RE.match(inner)
            if not cm:
                raise MazeParseError(f"row {r}, cell {c}: expected coordinate token, got {coord!r}")
            if inner != f"{r}-{c}":
                raise MazeParseError(f"coordinate token {coord!r} does not match grid position ({r},{c})")
            if wall not in _WALL_TOKENS:
                raise MazeParseError(f"row {r}, cell {c}: unknown wall token {wall!r}")
            row_walls.append(_WALL_TOKENS.index(wall))
            if state == ORIGIN_TOKEN:
                if origin is not None:
                    raise MazeParseError(
                        f"duplicate origin at ({origin.row},{origin.col}) and ({r},{c})"
                    )
                origin = Position(r, c)
            elif state == TARGET_TOKEN:
                if target is not None:
                    raise MazeParseError(
                        f"duplicate target at ({target.row},{target.col}) and ({r},{c})"
                    )
                target = Position(r, c)
            elif state != BLANK_TOKEN:
                raise MazeParseError(f"row {r}, cell {c}: unknown state token {state!r}")
        grid += row_walls

    assert width is not None
    for r, c, r2, c2, _ in wall_mismatches(grid, width):
        raise MazeParseError(f"inconsistent walls between ({r},{c}) and ({r2},{c2})")
    if origin is None:
        raise MazeParseError("missing origin token")
    if target is None:
        raise MazeParseError("missing target token")
    return Maze(width=width, height=height, masks=bytes(grid), origin=origin, target=target)


def outcome(parse, text):
    try:
        return parse(text)
    except MazeParseError as exc:
        return f"MazeParseError: {exc}"


def _no_walk(line, *args):
    raise AssertionError(f"text that parses reached the token walk at {line!r}")


def render(width, height, masks, origin, target):
    """Token text of any mask grid; origin and target may share a cell (origin wins)."""
    states = [BLANK_TOKEN] * (width * height)
    states[target] = TARGET_TOKEN
    states[origin] = ORIGIN_TOKEN
    return "\n".join(
        "".join(f"<|{r}-{c}|>" + wall_token(WALL_SETS[masks[r * width + c]]) + states[r * width + c] for c in range(width))
        for r in range(height)
    )


@st.composite
def valid_text(draw):
    """A rendering that parses: a generated maze, or walls agreeing across every
    edge (a 1x1 grid has room for the origin only, so it lacks its target)."""
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    if width > 1 and height > 1 and draw(st.booleans()):
        _, m, _ = next(solved_pool(GenConfig(width, height, draw(st.integers(0, 2**64 - 1))), 1))
        return render_maze_tokens(m)
    masks = [15] * (width * height)
    for i in range(width * height):
        r, c = divmod(i, width)
        if c + 1 < width and draw(st.booleans()):
            masks[i] &= ~8
            masks[i + 1] &= ~4
        if r + 1 < height and draw(st.booleans()):
            masks[i] &= ~2
            masks[i + width] &= ~1
    n = width * height
    origin = draw(st.integers(0, n - 1))
    target = (origin + draw(st.integers(1, max(1, n - 1)))) % n
    return render(width, height, masks, origin, target)


TOKEN_NAMES = sorted(piece[2:] for piece in _WALL_PIECES) + ["blank", "origin", "target", "up", "0-0", "1-0", "left_up_wall", ""]
STRAY = ["<", ">", "|", "\r", " ", "\n", "<|", "|>", "|><|", "\r\n"]


@st.composite
def mutation(draw, text):
    spans = [m.span() for m in _TOKEN_RE.finditer(text)]
    kind = draw(st.sampled_from([
        "insert_token", "insert_stray", "delete", "state", "wall", "coord",
        "move_newline", "crlf", "trailing_newline",
    ]))
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "trailing_newline":
        return text + draw(st.sampled_from(["\n", "\n\n", "\r\n", "\r\n\r\n", "\n\r"]))
    if kind == "move_newline":
        # drop one row boundary (if any) and break a row at another cell boundary
        newlines = [i for i, ch in enumerate(text) if ch == "\n"]
        dropped = draw(st.sampled_from(newlines)) if newlines else None
        if dropped is not None:
            text = text[:dropped] + text[dropped + 1 :]
        starts = [m.start() for m in _TOKEN_RE.finditer(text)][3::3]
        starts = [i for i in starts if i != dropped]
        if not starts:
            return text
        at = draw(st.sampled_from(starts))
        return text[:at] + "\n" + text[at:]
    if kind in ("insert_token", "insert_stray"):
        at = draw(st.integers(0, len(text)))
        if kind == "insert_token":
            piece = "<|" + draw(st.sampled_from(TOKEN_NAMES)) + "|>"
        else:
            piece = draw(st.sampled_from(STRAY))
        return text[:at] + piece + text[at:]
    if kind == "delete":
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 40)))
        return text[:i] + text[j:]
    # the remaining kinds rewrite one token of a cell triplet in place
    slot = {"coord": 0, "wall": 1, "state": 2}[kind]
    spans = spans[slot::3]
    if not spans:
        return text
    i, j = draw(st.sampled_from(spans))
    if kind == "state":
        new = draw(st.sampled_from([BLANK_TOKEN, ORIGIN_TOKEN, TARGET_TOKEN, "<|blank |>"]))
    elif kind == "wall":
        new = draw(st.sampled_from(sorted(_WALL_TOKENS) + ["<|left_up_wall|>", "<|wall|>"]))
    else:
        cm = _COORD_RE.match(text[i + 2 : j - 2])
        r, c = cm.groups() if cm else ("0", "0")
        new = draw(st.sampled_from([f"<|0{r}-{c}|>", f"<|{r}-0{c}|>", f"<|{c}-{r}|>", f"<|{r}-{int(c) + 1}|>", f"<|{r}{c}|>"]))
    return text[:i] + new + text[j:]


@st.composite
def mutated_text(draw):
    text = draw(valid_text())
    for _ in range(draw(st.integers(0, 4))):
        text = draw(mutation(text))
    return text


@settings(max_examples=1500, deadline=None)
@given(mutated_text())
def test_parse_matches_token_walk(text):
    assert outcome(parse_maze_tokens, text) == outcome(reference_parse, text)


@settings(max_examples=500, deadline=None)
@given(mutated_text())
def test_grid_match_takes_every_text_the_walk_accepts(text):
    # the walk only names faults: CRLF rows and trailing newlines included, a text that parses never reaches it
    want = outcome(reference_parse, text)
    if isinstance(want, Maze):
        with mock.patch.object(tokens, "_walk_row", _no_walk):
            assert parse_maze_tokens(text) == want


# 3x2 mazes with open interiors; row 0 holds the origin at (0,0) and the target at (0,1)
ROW0 = "<|0-0|><|up_left_wall|><|origin|><|0-1|><|up_wall|><|target|><|0-2|><|up_right_wall|><|blank|>"


def test_duplicate_origin_before_bad_cell_is_named_first():
    # the slow path must record endpoints cell by cell: the repeated origin
    # at (1,0) comes before the unknown wall token at (1,2)
    text = ROW0 + "\n<|1-0|><|down_left_wall|><|origin|><|1-1|><|down_wall|><|blank|><|1-2|><|bogus_wall|><|blank|>"
    message = "duplicate origin at (0,0) and (1,0)"
    assert outcome(reference_parse, text) == outcome(parse_maze_tokens, text) == f"MazeParseError: {message}"


def test_first_repeated_endpoint_in_a_clean_row_is_named():
    row1 = "<|1-0|><|down_left_wall|><|{}|><|1-1|><|down_wall|><|{}|><|1-2|><|down_right_wall|><|blank|>"
    for first, second in (("target", "origin"), ("origin", "target")):
        text = ROW0 + "\n" + row1.format(first, second)
        seen = "(0,0)" if first == "origin" else "(0,1)"
        message = f"duplicate {first} at {seen} and (1,0)"
        assert outcome(reference_parse, text) == outcome(parse_maze_tokens, text) == f"MazeParseError: {message}"


def test_zero_padded_coordinate_is_rejected():
    row1 = "<|1-0|><|down_left_wall|><|blank|><|1-1|><|down_wall|><|blank|><|1-2|><|down_right_wall|><|blank|>"
    assert parse_maze_tokens(ROW0 + "\n" + row1).origin == Position(0, 0)
    # each names cell (1,0) by value (the second with an Arabic-Indic one),
    # but only "1-0" is how it is rendered
    for coord in ("01-0", "\u0661-0", "1-00"):
        text = ROW0 + "\n" + row1.replace("<|1-0|>", f"<|{coord}|>")
        message = f"coordinate token '<|{coord}|>' does not match grid position (1,0)"
        assert outcome(reference_parse, text) == outcome(parse_maze_tokens, text) == f"MazeParseError: {message}"


def _rendered_3x3():
    _, m, _ = next(solved_pool(GenConfig(3, 3, 5), 1))
    return render_maze_tokens(m)


def _cells_of(line):
    """The line's cells, each its three tokens as one string."""
    found = _TOKEN_RE.findall(line)
    return ["".join(f"<|{name}|>" for name in found[i : i + 3]) for i in range(0, len(found), 3)]


def test_row_boundary_one_cell_off_keeps_the_walk_message():
    rows = [_cells_of(line) for line in _rendered_3x3().split("\n")]
    early = ["".join(rows[0]), "".join(rows[1][:2]), "".join(rows[1][2:] + rows[2])]
    late = ["".join(rows[0]), "".join(rows[1] + rows[2][:1]), "".join(rows[2][1:])]
    for lines, cells in ((early, 2), (late, 4)):
        text = "\n".join(lines)
        message = f"MazeParseError: row 1 has {cells} cells, expected 3"
        assert outcome(reference_parse, text) == outcome(parse_maze_tokens, text) == message


def test_newline_inside_the_brackets_is_not_a_row_boundary():
    # "|><|\n" splits into the same names as a rendered "|>\n<|" seam, but the
    # newline leaves "<|" at the end of row 0
    text = _rendered_3x3().replace("|>\n<|", "|><|\n", 1)
    message = "MazeParseError: row 0: unexpected trailing text '<|'"
    assert outcome(reference_parse, text) == outcome(parse_maze_tokens, text) == message


def test_first_and_last_brackets_are_checked():
    # the match checks the text's first "<|" in the first coordinate piece, and its end in the last piece, ""
    text = _rendered_3x3()
    for bad in ("|>" + text[2:], "xx" + text[2:], text[:-2] + "<|", text[:-2] + "xx", text + "x", text + "<|"):
        assert outcome(reference_parse, bad) == outcome(parse_maze_tokens, bad)
        assert outcome(parse_maze_tokens, bad).startswith("MazeParseError: row ")


def test_crlf_and_trailing_newlines_parse_as_the_rendering():
    for _, m, _ in solved_pool(GenConfig(4, 3, 11), 5):
        text = render_maze_tokens(m)
        crlf = text.replace("\n", "\r\n")
        for variant in (text + "\n", text + "\n\n", crlf, crlf + "\r\n", crlf + "\r\n\r\n"):
            assert parse_maze_tokens(variant) == m


def test_blank_row_has_no_cells():
    # before, a blank first row was blamed on row 1 ("row 1 has 5 cells, expected 0")
    # and a blank middle row read "row 1 has 0 cells, expected 5"
    text = render_maze_tokens(next(solved_pool(GenConfig(seed=3), 1))[1])
    rows = text.split("\n")
    for blank, row in (("\n" + text, 0), ("\n".join(rows[:1] + [""] + rows[1:]), 1), (text + "\n\r\n" + text, 5)):
        assert outcome(reference_parse, blank) == outcome(parse_maze_tokens, blank) == f"MazeParseError: row {row} has no cells"


def _one_row_or_column(text):
    cells = len(_TOKEN_RE.findall(text)) // 3
    rows = text.count("\n") + 1
    return cells > 1 and (rows == 1 or rows == cells)


@st.composite
def rendered_maze(draw):
    """A carved 2x2..12x12 maze, or the maze of a 1-row or 1-column rendering."""
    if draw(st.booleans()):
        width, height = draw(st.integers(2, 12)), draw(st.integers(2, 12))
        _, m, _ = next(solved_pool(GenConfig(width, height, draw(st.integers(0, 2**64 - 1))), 1))
        return m
    return reference_parse(draw(valid_text().filter(_one_row_or_column)))


@settings(max_examples=300, deadline=None)
@given(rendered_maze())
def test_rendered_text_takes_the_grid_match(m):
    # a drawn 1-row or 1-column wall grid need not be connected: the render does not audit
    with mock.patch.object(tokens, "_walk_row", _no_walk):
        assert parse_maze_tokens(render_maze_tokens(m)) == m


def _cell_of(text, token):
    """The (row, col) of the cell whose state slot holds token."""
    names = _TOKEN_RE.findall(text)
    return tuple(map(int, _COORD_RE.match(names[names.index(token[2:-2]) - 2]).groups()))


def test_state_slots_with_the_blank_count_but_a_wrong_pair_reach_the_walk():
    # cells - 2 blank slots, yet the other two are not one origin and one target: the match finds
    # the endpoints by index, so each text must fail it and take the walk's message
    text = _rendered_3x3()
    (r, c), origin = _cell_of(text, TARGET_TOKEN), _cell_of(text, ORIGIN_TOKEN)
    first, second = (f"({a},{b})" for a, b in sorted([origin, (r, c)]))
    cases = {
        text.replace(TARGET_TOKEN, ORIGIN_TOKEN): f"duplicate origin at {first} and {second}",
        text.replace(ORIGIN_TOKEN, TARGET_TOKEN): f"duplicate target at {first} and {second}",
        text.replace(TARGET_TOKEN, "<|bogus|>"): f"row {r}, cell {c}: unknown state token '<|bogus|>'",
        text.replace(TARGET_TOKEN, "<|up|>"): f"row {r}, cell {c}: unknown state token '<|up|>'",
    }
    for bad, message in cases.items():
        with mock.patch.object(tokens, "_walk_row", wraps=tokens._walk_row) as walk:
            assert outcome(parse_maze_tokens, bad) == outcome(reference_parse, bad) == f"MazeParseError: {message}"
        assert walk.called
