"""Reference helpers for the tests: Position-based restatements of rules the
package itself applies on the flat cell index, a Position-keyed view of its
integer BFS, the cells of a wrong attempt, wall masks built from directions,
and the per-cell wall token.

It also keeps the plain forms of the table-driven kernels, for the
differential tests: ``randbelow`` as a loop over ``next_u64``, the carve
that scans each cell's neighbours on every step, the pool that places each
maze's endpoints with a BFS per candidate pair, the solver that walks BFS
parent links back from the target, the rendering joined cell by cell, and
the terminal preview read through ``wall_at``;
plus ``CountingRng``, which counts draws by stream position, and
``unmix64``, the inverse of the SplitMix64 finalizer.  The scorers keep
their form from before the one move walk: ``simulate_moves`` stepping edge
by edge with the open-edge rule written out, ``total_reward`` and the bench
verdict on the ``MoveDirection`` tuple of ``extract_move_tokens`` and a
``SimOutcome``, and the think rule as five scans of the whole output.
``record_dict`` is a record as the JSON object that its written line holds, and
``reference_record_from_dict`` reads one back field by field, as the schema
check did before it compared the fields' exact types in one step.
``materialized`` reads each one-pass split of a build into a tuple, the form
``build_splits`` returned before the writers read each record as it is made."""

from dataclasses import asdict, replace

from mazekit.bench import NO_OUTPUT_REASON, MazeVerdict
from mazekit.core import (
    EDGES,
    Maze,
    MoveDirection,
    OutOfBoundsError,
    Position,
    SimOutcome,
    SimStatus,
    _cells,
    _index,
    _search,
    links,
    open_neighbors,
)
from mazekit.dataset import _RECORD_FIELDS, DatasetError, DatasetRecord, DatasetSplits, RecordKind, field
from mazekit.generate import _ENDPOINT_SALT, ENDPOINT_ATTEMPTS, EndpointSamplingError, GenConfig, SolutionPath
from mazekit.rewards import CORRECTNESS_PER_STEP, INTEGRITY_PER_TOKEN, THINKING_POINTS, RewardBreakdown
from mazekit.rng import _LIMITS, _SMALL_N, GOLDEN_GAMMA, MASK64, SplitMix64, derive_seed, mix64
from mazekit.tokens import _MOVE_TOKEN_RE, _WALL_TOKENS, BLANK_TOKEN, ORIGIN_TOKEN, TARGET_TOKEN, extract_move_tokens

_STEPS = {d: (dr, dc) for d, _, _, dr, dc in EDGES}
BITS = {d: bit for d, bit, _, _, _ in EDGES}
MOVE_OF_BIT = {bit: d for d, bit in BITS.items()}

U, D, L, R = MoveDirection.UP, MoveDirection.DOWN, MoveDirection.LEFT, MoveDirection.RIGHT
OPPOSITE = {U: D, D: U, L: R, R: L}


def mask(*directions):
    """Wall mask with a wall on each given side."""
    return sum(BITS[d] for d in set(directions))


def apply_move(p, d, width, height):
    """Neighbouring position under the up = row-1 convention; OutOfBoundsError off the grid."""
    dr, dc = _STEPS[d]
    q = Position(p.row + dr, p.col + dc)
    if not (0 <= q.row < height and 0 <= q.col < width):
        raise OutOfBoundsError(f"move {d.value} from {p} leaves the {width}x{height} grid")
    return q


def is_open(m, p, d):
    """True iff a move from p in direction d crosses no wall and stays in bounds."""
    return any(e is d for e, _ in open_neighbors(m, p))


def bfs(m, src, dst=None):
    """``core._search`` from src as parent links keyed by Position.

    Every cell reached maps to its (predecessor, move) pair and src maps to
    None, in discovery order; the search stops as soon as dst is reached.
    """
    cells = _cells(m.width, m.height)
    parent, entered, _, order = _search(m, _index(m, src), -1 if dst is None else _index(m, dst))
    prev = {src: None}
    for j in order[1:]:
        prev[cells[j]] = (cells[parent[j]], MOVE_OF_BIT[entered[j]])
    return prev


def reference_shortest_path(m, origin, target):
    """``_shortest_path`` as a BFS that records each cell's (predecessor, move) and walks
    those links back from flat index target; None when unreachable."""
    table, positions = links(m.width, m.height), _cells(m.width, m.height)
    parents = [None] * len(m.masks)
    parents[origin] = (origin, None)
    queue = [origin]
    for i in queue:
        for d, (bit, back, j) in table[i]:
            if parents[j] is None and not m.masks[i] & bit and not m.masks[j] & back:
                parents[j] = (i, d)
                queue.append(j)
    if parents[target] is None:
        return None
    cur, moves, cells = target, [], [positions[target]]
    while cur != origin:
        cur, d = parents[cur]
        moves.append(d)
        cells.append(positions[cur])
    return SolutionPath(moves=tuple(reversed(moves)), cells=tuple(reversed(cells)))


def record_dict(r: DatasetRecord) -> dict:
    """The record's fields in schema order, its kind as the kind's value."""
    return {**asdict(r), "kind": r.kind.value}


def materialized(splits: DatasetSplits) -> DatasetSplits:
    """The splits with each one-pass split read once into a tuple."""
    return replace(splits, test=tuple(splits.test), sft=tuple(splits.sft), grpo=tuple(splits.grpo))


def reference_record_from_dict(row: dict, where: str = "record") -> DatasetRecord:
    """``record_from_dict`` checking each field with ``field`` in schema order, then
    unknown fields, then the kind's value."""
    values = {name: field(where, row, name, typ) for name, typ in _RECORD_FIELDS.items()}
    extra = set(row) - set(_RECORD_FIELDS)
    if extra:
        raise DatasetError(f"{where}: unknown fields {sorted(extra)}")
    try:
        values["kind"] = RecordKind(row["kind"])
    except ValueError:
        raise DatasetError(f"{where}: field 'kind' must be one of "
                           f"{[k.value for k in RecordKind]}, got {row['kind']!r}") from None
    if values["prompt"] == values["maze_tokens"]:
        values["prompt"] = values["maze_tokens"]
    return DatasetRecord(**values)


def attempt_cells(m, attempt):
    """The cells a wrong attempt visits: its moves applied one by one from the origin."""
    cells = [m.origin]
    for d in attempt.moves:
        cells.append(apply_move(cells[-1], d, m.width, m.height))
    return tuple(cells)


def open_passage_count(m):
    """Count of open interior edges; equals cells - 1 on a perfect maze."""
    # the rule is symmetric, so each open edge is seen from both of its cells
    return sum(len(open_neighbors(m, p)) for p in _cells(m.width, m.height)) // 2


def wall_token(w):
    """Wall token for one cell, e.g. ``<|up_down_right_wall|>``."""
    return _WALL_TOKENS[w]


_GAMMA_INVERSE = pow(GOLDEN_GAMMA, -1, MASK64 + 1)


class CountingRng(SplitMix64):
    """A stream that reports how many draws it has taken.

    Every draw, through ``next_u64`` or ``randbelow``, advances the state by
    one ``GOLDEN_GAMMA`` step, and the gamma is odd, so the count is
    ``(state - seed) * GOLDEN_GAMMA**-1 mod 2**64``.
    """

    __slots__ = ("_seed",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._seed = seed & MASK64

    @property
    def draws(self) -> int:
        return (self._state - self._seed) * _GAMMA_INVERSE & MASK64


def _unshift(y: int, shift: int) -> int:
    """The x with ``x ^ (x >> shift) == y``: each round fixes ``shift`` more top bits."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def unmix64(z: int) -> int:
    """The inverse of ``mix64`` on 64-bit values, step by step in reverse."""
    x = _unshift(z, 31)
    x = _unshift(x * pow(0x94D049BB133111EB, -1, MASK64 + 1) & MASK64, 27)
    return _unshift(x * pow(0xBF58476D1CE4E5B9, -1, MASK64 + 1) & MASK64, 30)


def reference_randbelow(rng, n):
    """``randbelow`` as a loop over ``next_u64``: reject draws at or above the largest multiple of n."""
    limit = _LIMITS[n] if n < _SMALL_N else MASK64 + 1 - ((MASK64 + 1) % n)
    while True:
        x = rng.next_u64()
        if x < limit:
            return x % n


def reference_carve(width, height, rng):
    """The carve's masks, its candidates found by scanning each cell's
    neighbours for one still walled on all four sides on every step."""
    table = links(width, height)
    masks = bytearray(b"\x0f" * (width * height))
    stack = [reference_randbelow(rng, height) * width + reference_randbelow(rng, width)]
    while stack:
        i = stack[-1]
        candidates = [edge for _, edge in table[i] if masks[edge[2]] == 15]
        if not candidates:
            stack.pop()
            continue
        bit, back, j = candidates[reference_randbelow(rng, len(candidates))]
        masks[i] &= ~bit
        masks[j] &= ~back
        stack.append(j)
    return bytes(masks)


def reference_solved_pool(cfg, count, start=0):
    """``solved_pool`` from each item's own ``GenConfig``, the neighbour-scan carve
    and a BFS (``reference_shortest_path``) for every candidate endpoint pair."""
    for i in range(start, start + count):
        item = GenConfig(cfg.width, cfg.height, derive_seed(cfg.seed, i), cfg.min_steps, cfg.max_steps)
        m = Maze(item.width, item.height, reference_carve(item.width, item.height, SplitMix64(item.seed)))
        rng = SplitMix64(mix64(item.seed ^ _ENDPOINT_SALT))
        cells = m.width * m.height
        for _ in range(ENDPOINT_ATTEMPTS):
            o = rng.randbelow(cells)
            t = rng.randbelow(cells)
            if o == t:
                continue
            path = reference_shortest_path(m, o, t)
            if path is None:
                continue
            if item.min_steps is not None and path.steps < item.min_steps:
                continue
            if item.max_steps is not None and path.steps > item.max_steps:
                continue
            yield item.seed, m.with_endpoints(path.cells[0], path.cells[-1]), path
            break
        else:
            raise EndpointSamplingError(
                f"no endpoint pair with path length in "
                f"[{item.min_steps}, {item.max_steps}] after {ENDPOINT_ATTEMPTS} attempts"
            )


def reference_render(m: Maze) -> str:
    """Token text joined cell by cell and row by row."""
    rows = []
    for r in range(m.height):
        cells = []
        for c in range(m.width):
            p = Position(r, c)
            state = ORIGIN_TOKEN if p == m.origin else TARGET_TOKEN if p == m.target else BLANK_TOKEN
            cells.append(f"<|{r}-{c}|>" + _WALL_TOKENS[m.masks[r * m.width + c]] + state)
        rows.append("".join(cells))
    return "\n".join(rows)


def reference_ascii_preview(m: Maze) -> str:
    """The terminal preview read cell by cell through ``wall_at``, endpoints compared by ``Position``."""
    lines = []
    for r in range(m.height):
        top = []
        mid = []
        for c in range(m.width):
            p = Position(r, c)
            w = m.wall_at(p)
            top.append("+" + ("---" if w.up else "   "))
            mark = " O " if p == m.origin else (" T " if p == m.target else "   ")
            mid.append(("|" if w.left else " ") + mark)
        top.append("+")
        mid.append("|" if m.wall_at(Position(r, m.width - 1)).right else " ")
        lines.append("".join(top))
        lines.append("".join(mid))
    bottom = []
    for c in range(m.width):
        bottom.append("+" + ("---" if m.wall_at(Position(m.height - 1, c)).down else "   "))
    bottom.append("+")
    lines.append("".join(bottom))
    return "\n".join(lines)


def reference_simulate_moves(m: Maze, start: Position, moves) -> SimOutcome:
    """``simulate_moves`` looking each move's edge up in a dict of ``links`` keyed by direction."""
    if m.target is None:
        raise ValueError("simulate_moves requires a maze with a target set")
    i = _index(m, start)
    seq = tuple(moves)
    masks, table, cells = m.masks, links(m.width, m.height), _cells(m.width, m.height)
    for k, d in enumerate(seq):
        edge = dict(table[i]).get(d)
        if edge is None or masks[i] & edge[0] or masks[edge[2]] & edge[1]:
            off_grid = edge is None and not masks[i] & BITS[d]
            status = SimStatus.OUT_OF_BOUNDS if off_grid else SimStatus.WALL_HIT
            return SimOutcome(final=cells[i], steps_taken=k, status=status)
        i = edge[2]
    status = SimStatus.REACHED_TARGET if i == _index(m, m.target) else SimStatus.STOPPED_SHORT
    return SimOutcome(final=cells[i], steps_taken=len(seq), status=status)


def reference_thinking_reward(output: str) -> float:
    """``thinking_reward`` as five scans of the whole output: both tag counts,
    both tag offsets and the first move token's offset."""
    if output.count("<think>") != 1 or output.count("</think>") != 1:
        return 0.0
    close = output.find("</think>")
    if output.find("<think>") >= close:
        return 0.0
    first_move = _MOVE_TOKEN_RE.search(output)
    if first_move is not None and first_move.start() < close:
        return 0.0
    return THINKING_POINTS


def reference_total_reward(m: Maze, output: str) -> RewardBreakdown:
    """``total_reward`` on the extracted directions and a simulated outcome."""
    moves = extract_move_tokens(output)
    if m.origin is None:
        raise ValueError("correctness_reward requires a maze with endpoints")
    solved = reference_simulate_moves(m, m.origin, moves).solved
    return RewardBreakdown(
        correctness=CORRECTNESS_PER_STEP * len(moves) if solved else 0.0,
        integrity=INTEGRITY_PER_TOKEN * len(moves),
        thinking=reference_thinking_reward(output),
    )


def reference_verdict(entry, output) -> MazeVerdict:
    """The bench verdict of one suite entry, from a simulated outcome."""
    if output is None:
        return MazeVerdict(entry.id, entry.difficulty, entry.steps, False, NO_OUTPUT_REASON)
    outcome = reference_simulate_moves(entry.maze, entry.maze.origin, extract_move_tokens(output))
    if outcome.solved:
        return MazeVerdict(entry.id, entry.difficulty, entry.steps, True, None)
    if outcome.status is SimStatus.WALL_HIT:
        reason = f"wall hit at step {outcome.steps_taken}"
    elif outcome.status is SimStatus.OUT_OF_BOUNDS:
        reason = f"out of bounds at step {outcome.steps_taken}"
    else:
        reason = "stopped short of target"
    return MazeVerdict(entry.id, entry.difficulty, entry.steps, False, reason)
