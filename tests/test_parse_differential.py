"""``parse_maze_tokens`` against the token-by-token parser it replaced, on
mutated renderings of valid 1x1..7x7 mazes: both must return equal mazes or
raise ``MazeParseError`` with the same message."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from mazekit.core import WALL_SETS, Maze, Position, WallSet, wall_mismatches
from mazekit.generate import GenConfig, solved_pool
from mazekit.tokens import (
    BLANK_TOKEN,
    ORIGIN_TOKEN,
    TARGET_TOKEN,
    _WALL_TABLE,
    MazeParseError,
    parse_maze_tokens,
    render_maze_tokens,
    wall_token,
)

_TOKEN_RE = re.compile(r"<\|([^<>|]*)\|>")
_COORD_RE = re.compile(r"^(\d+)-(\d+)$")


# The reference: the token-by-token parser, kept as it was before the row
# fast path.


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
    lines = text.rstrip("\n").split("\n")
    lines = [line.rstrip("\r") for line in lines]
    if lines == [""]:
        raise MazeParseError("empty maze text")
    height = len(lines)

    grid: list[list[WallSet]] = []
    origin: Position | None = None
    target: Position | None = None
    width: int | None = None
    for r, line in enumerate(lines):
        tokens = _line_tokens(line, r)
        if len(tokens) % 3 != 0:
            raise MazeParseError(f"row {r}: {len(tokens)} tokens is not a whole number of cell triplets")
        row_width = len(tokens) // 3
        if width is None:
            width = row_width
        elif row_width != width:
            raise MazeParseError(f"row {r} has {row_width} cells, expected {width}")
        row_walls: list[WallSet] = []
        for c in range(row_width):
            coord, wall, state = tokens[3 * c : 3 * c + 3]
            inner = coord[2:-2]
            cm = _COORD_RE.match(inner)
            if not cm:
                raise MazeParseError(f"row {r}, cell {c}: expected coordinate token, got {coord!r}")
            if (int(cm.group(1)), int(cm.group(2))) != (r, c):
                raise MazeParseError(f"coordinate token {coord!r} does not match grid position ({r},{c})")
            ws = _WALL_TABLE.get(wall)
            if ws is None:
                raise MazeParseError(f"row {r}, cell {c}: unknown wall token {wall!r}")
            row_walls.append(ws)
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
        grid.append(row_walls)

    assert width is not None
    for r, c, r2, c2, _ in wall_mismatches(grid):
        raise MazeParseError(f"inconsistent walls between ({r},{c}) and ({r2},{c2})")
    if origin is None:
        raise MazeParseError("missing origin token")
    if target is None:
        raise MazeParseError("missing target token")
    return Maze(
        width=width,
        height=height,
        walls=tuple(tuple(row) for row in grid),
        origin=origin,
        target=target,
    )


def outcome(parse, text):
    try:
        return parse(text)
    except MazeParseError as exc:
        return f"MazeParseError: {exc}"


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


TOKEN_NAMES = sorted(name[2:-2] for name in _WALL_TABLE) + ["blank", "origin", "target", "up", "0-0", "1-0", "left_up_wall", ""]
STRAY = ["<", ">", "|", "\r", " ", "\n", "<|", "|>", "|><|", "\r\n"]


@st.composite
def mutation(draw, text):
    tokens = [m.span() for m in _TOKEN_RE.finditer(text)]
    kind = draw(st.sampled_from(["insert_token", "insert_stray", "delete", "state", "wall", "coord"]))
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
    spans = tokens[slot::3]
    if not spans:
        return text
    i, j = draw(st.sampled_from(spans))
    if kind == "state":
        new = draw(st.sampled_from([BLANK_TOKEN, ORIGIN_TOKEN, TARGET_TOKEN, "<|blank |>"]))
    elif kind == "wall":
        new = draw(st.sampled_from(sorted(_WALL_TABLE) + ["<|left_up_wall|>", "<|wall|>"]))
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


def test_zero_padded_coordinate_is_accepted():
    text = ROW0 + "\n<|01-0|><|down_left_wall|><|blank|><|1-01|><|down_wall|><|blank|><|1-2|><|down_right_wall|><|blank|>"
    m = parse_maze_tokens(text)
    assert m == reference_parse(text)
    assert (m.origin, m.target) == (Position(0, 0), Position(0, 1))
