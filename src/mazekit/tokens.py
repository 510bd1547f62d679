"""The maze token grammar: rendering, strict parsing, and move-token extraction.

One maze row per line; each cell is three adjacent tokens with no separator:

    <|row-col|>  coordinate of the cell
    <|..._wall|> present walls named in canonical up, down, left, right
                 order (``<|no_wall|>`` when the cell has none)
    state        ``<|origin|>``, ``<|target|>`` or ``<|blank|>``

Movement tokens are ``<|up|>``, ``<|down|>``, ``<|left|>``, ``<|right|>``.
Rendering and parsing are exact inverses on every maze the parser accepts.
A rendering copies the per-shape pieces of a blank grid (per cell: its
coordinate token, after the row's newline, then a wall slot and a state
slot), fills in the walls and the two endpoint states, and joins the pieces
once.  The parser rejects malformed input instead of repairing it, so
datasets stay trustworthy at rest.  It matches the whole grid in one pass: one
``str.split`` on ``|>`` cuts the text into pieces, each ``"<|"`` and a token's
name (a row's first coordinate after the row's newline), and the text is
accepted when every piece is a rendering's.  The endpoints are found by index:
with all but two state slots blank, those two hold one origin and one target.
A matched maze is built without rechecking (``Maze._trusted``).  CRLF row
endings are folded to ``\n`` before the match, so it reads them too.  Only
text the match rejects is walked token by token, and the walk only names its
first fault in cell order.
``extract_move_tokens`` and ``walk_answer`` are the lenient entry points: each
scans raw model output and keeps every movement token it finds, in order.
``walk_answer`` is the one answer reader: the reward, the bench verdict and
the strict record check all walk an answer's moves from the origin through it.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .core import DIRECTIONS, EDGES, SHAPE_CACHE, Maze, MoveDirection, SimStatus
from .core import _walk_moves, wall_mismatches

BLANK_TOKEN = "<|blank|>"
ORIGIN_TOKEN = "<|origin|>"
TARGET_TOKEN = "<|target|>"
NO_WALL_TOKEN = "<|no_wall|>"

MOVE_TOKENS = {d: f"<|{d.value}|>" for d in DIRECTIONS}
_MOVE_NAMES = {d.value: d for d in DIRECTIONS}

_MOVE_TOKEN_RE = re.compile(r"<\|(up|down|left|right)\|>")
_TOKEN_RE = re.compile(r"<\|([^<>|]*)\|>")
_COORD_RE = re.compile(r"^\d+-\d+$")


class MazeParseError(ValueError):
    """Token text violates the maze grammar; the message names the spot."""


# wall token of each of the 16 masks, indexed by the mask: its set bits named in ``EDGES`` order
_WALL_TOKENS = tuple(
    "<|" + "_".join(d.value for d, bit, _, _, _ in EDGES if mask & bit) + "_wall|>" if mask else NO_WALL_TOKEN
    for mask in range(16)
)
# the mask of each wall token without its closing "|>", the piece the grid match and the walk read
_WALL_PIECES = {token[:-2]: mask for mask, token in enumerate(_WALL_TOKENS)}


@lru_cache(maxsize=SHAPE_CACHE)
def _coord_pieces(width: int, height: int) -> tuple[str, ...]:
    """The coordinate pieces of a rendered grid as the match splits it on ``|>``:
    ``"<|r-c"``, with the row's newline before each row's first cell but the
    first, then the ``""`` after the text's last ``|>``."""
    return tuple(("\n" if r and not c else "") + f"<|{r}-{c}" for r in range(height) for c in range(width)) + ("",)


@lru_cache(maxsize=SHAPE_CACHE)
def _render_pieces(width: int, height: int) -> tuple[str, ...]:
    """A blank rendering of the grid as three pieces per cell: its coordinate
    token (after the row's newline, on each row's first cell but the first),
    a wall slot (``<|no_wall|>``) and a state slot (``<|blank|>``)."""
    return tuple(
        piece for coord in _coord_pieces(width, height)[:-1] for piece in (coord + "|>", NO_WALL_TOKEN, BLANK_TOKEN)
    )


def render_maze_tokens(m: Maze) -> str:
    """Serialize a maze with two distinct endpoints; rows joined by newline.

    No audit runs, so a perimeter gap or cut-off cells render too: on every
    maze the parser accepts this is the exact inverse of ``parse_maze_tokens``,
    and a maze whose walls disagree renders text the parser rejects.  Missing
    or coinciding endpoints raise ValueError, since the text cannot name them.
    """
    if m.origin is None or m.target is None:
        raise ValueError("cannot render a maze without origin and target")
    if m.origin == m.target:
        raise ValueError(f"cannot render a maze whose origin and target coincide at ({m.origin.row},{m.origin.col})")
    pieces = list(_render_pieces(m.width, m.height))
    pieces[1::3] = map(_WALL_TOKENS.__getitem__, m.masks)
    # the endpoints are distinct, so neither state overwrites the other
    pieces[3 * m._origin_index + 2] = ORIGIN_TOKEN
    pieces[3 * m._target_index + 2] = TARGET_TOKEN
    return "".join(pieces)


def render_move_tokens(moves) -> str:
    """Concatenate movement tokens in order; empty input gives empty text."""
    return "".join(MOVE_TOKENS[d] for d in moves)


def extract_move_tokens(model_output: str) -> tuple[MoveDirection, ...]:
    """Collect every movement token in the output, left to right.

    All other characters are ignored, including reasoning-tag markup, so
    any token that looks like a move counts as one.
    """
    return tuple(map(_MOVE_NAMES.__getitem__, _MOVE_TOKEN_RE.findall(model_output)))


def walk_answer(m: Maze, output: str) -> tuple[int, int, SimStatus]:
    """The one answer reader, for the reward, bench verdict and record check: (move
    count, steps taken, status) of walking the output's movement tokens from the origin."""
    o = m._origin_index
    if o < 0:
        raise ValueError("an answer walk requires a maze with an origin set")
    names = _MOVE_TOKEN_RE.findall(output)
    _, steps_taken, status = _walk_moves(m, o, names)
    return len(names), steps_taken, status


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


def _mark(ends: list[str | None], name: str, r: int, c: int) -> None:
    """Record the origin (ends[0]) or target (ends[1]) at (r, c), as its ``"(r,c)"`` text; a second one is an error."""
    k = 0 if name == "origin" else 1
    if ends[k] is not None:
        raise MazeParseError(f"duplicate {name} at {ends[k]} and ({r},{c})")
    ends[k] = f"({r},{c})"


def _walk_row(line: str, r: int, width: int | None, ends: list[str | None]) -> list[int]:
    """Token-by-token parse of one row, naming the first fault in cell order."""
    tokens = _line_tokens(line, r)
    if not tokens:
        raise MazeParseError(f"row {r} has no cells")
    if len(tokens) % 3 != 0:
        raise MazeParseError(f"row {r}: {len(tokens)} tokens is not a whole number of cell triplets")
    row_width = len(tokens) // 3
    if width is not None and row_width != width:
        raise MazeParseError(f"row {r} has {row_width} cells, expected {width}")
    row_walls: list[int] = []
    for c in range(row_width):
        coord, wall, state = tokens[3 * c : 3 * c + 3]
        if not _COORD_RE.match(coord[2:-2]):
            raise MazeParseError(f"row {r}, cell {c}: expected coordinate token, got {coord!r}")
        # the text, not its value: "01-0" names (1,0) but is not how it is written
        if coord[2:-2] != f"{r}-{c}":
            raise MazeParseError(f"coordinate token {coord!r} does not match grid position ({r},{c})")
        mask = _WALL_PIECES.get(wall[:-2])
        if mask is None:
            raise MazeParseError(f"row {r}, cell {c}: unknown wall token {wall!r}")
        row_walls.append(mask)
        if state in (ORIGIN_TOKEN, TARGET_TOKEN):
            _mark(ends, state[2:-2], r, c)
        elif state != BLANK_TOKEN:
            raise MazeParseError(f"row {r}, cell {c}: unknown state token {state!r}")
    return row_walls


def parse_maze_tokens(text: str) -> Maze:
    """Parse token text back into a maze; the inverse of ``render_maze_tokens``.

    Enforces coordinate tokens spelt as their grid position, mutual wall
    consistency between neighbors, and exactly one origin and one target.
    Perimeter closure and connectivity are not checked here; run
    ``validate_maze`` on the result when those matter.

    A trailing run of CR and LF characters is dropped, and so is the run of
    CRs at the end of each line.  The text is then read by one match over
    the whole grid: one split on ``|>``, whose pieces are accepted only when
    each is a rendering's piece.  Text the match rejects has a fault, and the
    token walk names its first one in cell order; the walk never builds a
    maze.  Every text parses to the same maze, or fails with the same
    message, as it would under the walk alone.
    """
    body = text.rstrip("\r\n")
    if "\r" in body:  # CRLF rows: fold them to the rendering, which the match then reads
        body = "\n".join(line.rstrip("\r") for line in body.split("\n"))
    # in rendered text every "|>" ends a token: the pieces are "<|" + each name, and a last ""
    pieces = body.split("|>")
    height = body.count("\n") + 1
    width = len(pieces) // (3 * height)
    cells = width * height
    states = pieces[2::3]
    masks = ends = None
    # joined by "|>" the pieces are the text, so pieces that all match are exactly a rendering
    if (
        cells
        and len(pieces) == 3 * cells + 1
        and states.count("<|blank") == cells - 2
        and tuple(pieces[0::3]) == _coord_pieces(width, height)
    ):
        try:  # the two slots that are not blank hold one origin and one target
            o, t = states.index("<|origin"), states.index("<|target")
            masks = bytes(map(_WALL_PIECES.__getitem__, pieces[1::3]))
        except (ValueError, KeyError):  # a missing endpoint or an unknown state or wall name, which the walk names
            pass
    if masks is None:
        lines = body.split("\n")
        if not any(lines):
            raise MazeParseError("empty maze text")
        masks = bytearray()
        ends = [None, None]
        width = None
        for r, line in enumerate(lines):
            row_walls = _walk_row(line, r, width, ends)
            width = len(row_walls)
            masks.extend(row_walls)

    for r, c, r2, c2, _ in wall_mismatches(masks, width):
        raise MazeParseError(f"inconsistent walls between ({r},{c}) and ({r2},{c2})")
    if ends is not None:  # the walk found every cell sound, so the match rejected a missing endpoint
        raise MazeParseError(f"missing {'origin' if ends[0] is None else 'target'} token")
    return Maze._trusted(width, height, masks, o, t)


def ascii_preview(m: Maze) -> str:
    """Plain-text rendering for terminals; O marks the origin, T the target."""
    width, masks = m.width, m.masks  # wall bits: up 1, down 2, left 4, right 8
    # an unset endpoint's index, -1, marks the spare slot past the last cell; the origin is marked last, so it wins
    marks = ["   "] * len(masks) + [""]
    marks[m._target_index], marks[m._origin_index] = " T ", " O "
    lines = []
    for row in (range(i, i + width) for i in range(0, len(masks), width)):
        lines.append("".join("+---" if masks[i] & 1 else "+   " for i in row) + "+")
        right = "|" if masks[row[-1]] & 8 else " "
        lines.append("".join(("|" if masks[i] & 4 else " ") + marks[i] for i in row) + right)
    lines.append("".join("+---" if masks[i] & 2 else "+   " for i in row) + "+")  # the last row's down walls
    return "\n".join(lines)
