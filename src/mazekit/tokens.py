"""The maze token grammar: rendering, strict parsing, and move-token extraction.

One maze row per line; each cell is three adjacent tokens with no separator:

    <|row-col|>  coordinate of the cell
    <|..._wall|> present walls named in canonical up, down, left, right
                 order (``<|no_wall|>`` when the cell has none)
    state        ``<|origin|>``, ``<|target|>`` or ``<|blank|>``

Movement tokens are ``<|up|>``, ``<|down|>``, ``<|left|>``, ``<|right|>``.
Rendering and parsing are exact inverses on valid mazes.  The parser rejects
malformed input instead of repairing it, so datasets stay trustworthy at
rest.  ``extract_move_tokens`` is the one lenient entry point: it scans raw
model output and keeps every movement token it finds, in order.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .core import DIRECTIONS, SHAPE_CACHE, WALL_SETS, Maze, MoveDirection, Position, WallSet
from .core import validate_maze, wall_mismatches

BLANK_TOKEN = "<|blank|>"
ORIGIN_TOKEN = "<|origin|>"
TARGET_TOKEN = "<|target|>"
NO_WALL_TOKEN = "<|no_wall|>"

MOVE_TOKENS = {d: f"<|{d.value}|>" for d in DIRECTIONS}

_MOVE_TOKEN_RE = re.compile(r"<\|(up|down|left|right)\|>")
_TOKEN_RE = re.compile(r"<\|([^<>|]*)\|>")
_COORD_RE = re.compile(r"^(\d+)-(\d+)$")


class MazeParseError(ValueError):
    """Token text violates the maze grammar; the message names the spot."""


# wall token of each of the 16 masks, indexed by the mask
_WALL_TOKENS = tuple(
    "<|" + "_".join(d.value for d in w.directions()) + "_wall|>" if w else NO_WALL_TOKEN
    for w in WALL_SETS
)
_WALL_TABLE = dict(zip(_WALL_TOKENS, WALL_SETS))


def wall_token(w: WallSet) -> str:
    """Wall token for one cell, e.g. ``<|up_down_right_wall|>``."""
    return _WALL_TOKENS[w]


@lru_cache(maxsize=SHAPE_CACHE)
def _coord_tokens(width: int, height: int) -> tuple[str, ...]:
    return tuple(f"<|{r}-{c}|>" for r in range(height) for c in range(width))


def render_maze_tokens(m: Maze) -> str:
    """Serialize a valid maze with endpoints; rows joined by newline."""
    if m.origin is None or m.target is None:
        raise ValueError("cannot render a maze without origin and target")
    problems = validate_maze(m)
    if problems:
        raise ValueError("cannot render invalid maze: " + "; ".join(problems))
    w = m.width
    coords = _coord_tokens(w, m.height)
    # a valid maze has distinct endpoints, so neither state overwrites the other
    states = [BLANK_TOKEN] * len(coords)
    states[m.origin.row * w + m.origin.col] = ORIGIN_TOKEN
    states[m.target.row * w + m.target.col] = TARGET_TOKEN
    return "\n".join(
        "".join(coords[i] + _WALL_TOKENS[mask] + states[i] for i, mask in enumerate(row, r * w))
        for r, row in enumerate(m.walls)
    )


def render_move_tokens(moves) -> str:
    """Concatenate movement tokens in order; empty input gives empty text."""
    return "".join(MOVE_TOKENS[d] for d in moves)


def extract_move_tokens(model_output: str) -> tuple[MoveDirection, ...]:
    """Collect every movement token in the output, left to right.

    All other characters are ignored, including reasoning-tag markup, so
    any token that looks like a move counts as one.
    """
    return tuple(MoveDirection(name) for name in _MOVE_TOKEN_RE.findall(model_output))


def first_move_token_index(text: str) -> int | None:
    """Character offset of the first movement token, or None."""
    match = _MOVE_TOKEN_RE.search(text)
    return match.start() if match else None


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


def parse_maze_tokens(text: str) -> Maze:
    """Parse token text back into a maze; the inverse of ``render_maze_tokens``.

    Enforces coordinate tokens matching grid position, mutual wall
    consistency between neighbors, and exactly one origin and one target.
    Perimeter closure and connectivity are not checked here; run
    ``validate_maze`` on the result when those matter.
    """
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


def ascii_preview(m: Maze) -> str:
    """Plain-text rendering for terminals; O marks the origin, T the target."""
    lines = []
    for r in range(m.height):
        top = []
        mid = []
        for c in range(m.width):
            w = m.walls[r][c]
            top.append("+" + ("---" if w.up else "   "))
            p = Position(r, c)
            mark = " O " if p == m.origin else (" T " if p == m.target else "   ")
            mid.append(("|" if w.left else " ") + mark)
        top.append("+")
        mid.append("|" if m.walls[r][m.width - 1].right else " ")
        lines.append("".join(top))
        lines.append("".join(mid))
    bottom = []
    for c in range(m.width):
        bottom.append("+" + ("---" if m.walls[m.height - 1][c].down else "   "))
    bottom.append("+")
    lines.append("".join(bottom))
    return "\n".join(lines)
