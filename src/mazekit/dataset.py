"""Deterministic dataset construction: generate, solve, augment, split, JSONL.

A split plan carves one seeded pool of solved mazes into a held-out test
set and three training collections:

    sft retry     mazes whose origin class yields wrong attempts, rendered
                  as retry completions (reasoning with RESET feedback)
    sft straight  mazes rendered as straight-success completions, drawn
                  from mazes not used for retry examples
    grpo          straight-success records from the mazes both sft
                  selections left over, then from the retry mazes: the
                  paper's counts, which every ``--scale`` plan divides, leave
                  few or none over, so grpo mazes are also sft retry mazes

Test mazes never appear in any training collection; identity is a hash of
the wall grid plus endpoints, so even a duplicate maze generated under a
different seed cannot leak across the boundary.  A ``--scale`` plan has no
slack for the training mazes such a duplicate removes, so when a quota falls
short the pool is topped up: items ``total_pool``, ``total_pool + 1``, ...
join the training order until every quota fills.  Everything is a pure
function of the master seeds, which makes output files byte-reproducible.
"""

from __future__ import annotations

import errno
import gzip
import io
import json
import os
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring as _json_str  # json.dumps' string encoder when ensure_ascii=False
from typing import BinaryIO, Iterable, Iterator, Optional, get_type_hints

from .augment import RESET_MARKER, AugmentConfig, ReasoningTrace, augment_trace
from .bench import hash16
from .core import Maze, SimStatus
from .generate import GenConfig, SolutionPath, solved_pool
from .rng import SplitMix64, derive_seed, mix64
from .tokens import parse_maze_tokens, render_maze_tokens, render_move_tokens, walk_answer

_SHUFFLE_SALT = 0x0DD5_F00D_CAFE_1234

PAPER_COUNTS = {
    "total_pool": 530_000,
    "test_count": 30_000,
    "sft_straight_count": 250_000,
    "sft_retry_count": 250_000,
    "grpo_count": 150_000,
}


class DatasetError(ValueError):
    """A dataset file or record failed validation."""


class SplitShortfallError(RuntimeError):
    """A split quota cannot be met from the available mazes."""


class RecordKind(Enum):
    STRAIGHT_SUCCESS = "straight_success"
    RETRY = "retry"


# the last part of a record id, after the index and the maze hash
_ID_SUFFIX = {RecordKind.STRAIGHT_SUCCESS: "straight", RecordKind.RETRY: "retry"}


@dataclass(frozen=True)
class DatasetRecord:
    """One conversation-formatted training example."""

    id: str
    seed: int
    maze_tokens: str
    steps: int
    kind: RecordKind
    prompt: str
    completion: str


# the JSON type of each field, in order: a kind is written as its value
_RECORD_FIELDS = {name: str if typ is RecordKind else typ for name, typ in get_type_hints(DatasetRecord).items()}
_FIELD_TYPES = tuple(_RECORD_FIELDS.values())
_KINDS = {kind.value: kind for kind in RecordKind}


@dataclass(frozen=True)
class SplitPlan:
    total_pool: int
    test_count: int
    sft_straight_count: int
    sft_retry_count: int
    grpo_count: int
    scale_factor: Optional[int] = None

    def __post_init__(self) -> None:
        if any(getattr(self, name) < 0 for name in PAPER_COUNTS):
            raise ValueError("split counts must be non-negative")
        if self.test_count > self.total_pool:
            raise ValueError("test_count exceeds total_pool")

    @classmethod
    def scaled(cls, factor: int) -> "SplitPlan":
        """Proportional replica of the full-scale plan, divided by factor."""
        if factor < 1:
            raise ValueError("scale factor must be at least 1")
        return cls(**{name: count // factor for name, count in PAPER_COUNTS.items()}, scale_factor=factor)


@dataclass(frozen=True)
class DatasetSplits:
    """One-pass splits: each makes its records, in pool-index order, as it is read, and then is empty."""

    test: Iterator[DatasetRecord]
    sft: Iterator[DatasetRecord]
    grpo: Iterator[DatasetRecord]
    top_up: int = 0  # pool items generated past plan.total_pool to fill a scaled plan


def make_record(
    index: int, seed: int, maze_tokens: str, maze_hash: str, trace: ReasoningTrace, retry: bool
) -> DatasetRecord:
    """Assemble one record; ``maze_hash`` is ``hash16(maze_tokens)``, the completion a think block (the
    whole trace for a retry record, its solution text for a straight one), then the solution's moves."""
    kind = RecordKind.RETRY if retry else RecordKind.STRAIGHT_SUCCESS
    text = trace.render() if retry else trace.solution_text
    return DatasetRecord(
        id=f"{index:06d}-{maze_hash}-{_ID_SUFFIX[kind]}",
        seed=seed,
        maze_tokens=maze_tokens,
        steps=trace.solution.steps,
        kind=kind,
        prompt=maze_tokens,
        completion=f"<think>\n{text}\n</think>\n{render_move_tokens(trace.solution.moves)}",
    )


def build_splits(
    plan: SplitPlan,
    gen_cfg: GenConfig,
    aug_cfg: AugmentConfig,
) -> DatasetSplits:
    """Generate the pool and carve it into test, sft and grpo collections.

    Duplicate wall-grid/endpoint combinations are allowed in the pool, but
    a training maze that repeats a test maze's id is left out.  A scaled
    plan (``SplitPlan.scaled``) then tops the pool up past ``total_pool``
    until every quota fills, generating at most ``total_pool`` extra items;
    ``DatasetSplits.top_up`` counts them.  Raises SplitShortfallError with
    the deficit when a quota cannot be met, most commonly when the retry
    quota exceeds the number of mazes whose origin produces wrong attempts,
    before any record is made: each split makes its records as it is read.
    """
    seeds: list[int] = []
    pool: list[Maze] = []
    solutions: list[SolutionPath] = []
    tokens: list[str] = []
    ids: list[str] = []

    def generate(count: int) -> range:
        start = len(pool)
        for seed, m, solution in solved_pool(gen_cfg, count, start):
            seeds.append(seed)
            pool.append(m)
            solutions.append(solution)
            # rendered once: ids and every record of this maze share the string
            tokens.append(render_maze_tokens(m))
            ids.append(hash16(tokens[-1]))
        return range(start, len(pool))

    order = list(generate(plan.total_pool))
    SplitMix64(mix64(gen_cfg.seed ^ _SHUFFLE_SALT)).shuffle(order)
    test_indices = order[: plan.test_count]
    test_ids = {ids[i] for i in test_indices}
    candidates = order[plan.test_count :]
    train_indices = [i for i in candidates if ids[i] not in test_ids]

    # augmented in train order only until the retry quota fills; seeds are
    # per maze, so every maze still augmented draws as it would in a full pass
    traces = {}
    augmented = 0  # train_indices[:augmented] have been augmented
    top_up = 0
    while True:
        while len(traces) < plan.sft_retry_count and augmented < len(train_indices):
            i = train_indices[augmented]
            augmented += 1
            trace = augment_trace(pool[i], solutions[i], AugmentConfig(aug_cfg.max_n_steps, derive_seed(aug_cfg.seed, i)))
            if trace.is_retry:
                traces[i] = trace
        # every quota fills exactly when these are all <= 0; each extra item
        # adds at most one training maze, so the largest is a lower bound on
        # the items still needed and the top-up never overshoots
        short = max(
            plan.sft_retry_count - len(traces),
            plan.sft_retry_count + plan.sft_straight_count - len(train_indices),
            plan.sft_straight_count + plan.grpo_count - len(train_indices),
        )
        if short <= 0 or plan.scale_factor is None or top_up >= plan.total_pool:
            break
        extra = generate(short)
        top_up += short
        candidates += extra
        train_indices += [i for i in extra if ids[i] not in test_ids]

    retry_sel = list(traces)
    rest = [i for i in train_indices if i not in traces]  # each pool index at most once
    straight_sel = rest[: plan.sft_straight_count]
    # retry mazes spill into grpo after the leftovers
    grpo_sel = (rest[plan.sft_straight_count :] + retry_sel)[: plan.grpo_count]
    shortfalls = [
        f"{name} quota shortfall: need {need}, only {len(sel)} {why}"
        for name, need, sel, why in (
            ("retry", plan.sft_retry_count, retry_sel, "mazes produce wrong attempts"),
            ("straight", plan.sft_straight_count, straight_sel, "mazes remain outside the retry selection"),
            ("grpo", plan.grpo_count, grpo_sel, "mazes available"),
        )
        if len(sel) < need
    ]
    if shortfalls:
        repeated = [ids[i] for i in candidates if ids[i] in test_ids]
        if repeated:
            shown = ", ".join(repeated[:5]) + (", ..." if len(repeated) > 5 else "")
            shortfalls[0] += f"; left out as repeats of a test maze id ({len(repeated)}): {shown}"
        raise SplitShortfallError(shortfalls[0])

    def record(i: int, retry: bool = False) -> DatasetRecord:
        # a spilled retry maze's trace already holds its solution text (sft renders first)
        trace = traces.get(i) or ReasoningTrace(pool[i], (), solutions[i])
        return make_record(i, seeds[i], tokens[i], ids[i], trace, retry)

    test = (record(i) for i in sorted(test_indices))
    sft = (record(i, i in traces) for i in sorted(retry_sel + straight_sel))
    grpo = (record(i) for i in sorted(grpo_sel))
    return DatasetSplits(test, sft, grpo, top_up)


@contextmanager
def replace_together(paths: Iterable[str | os.PathLike]) -> Iterator[list[str]]:
    """Temp paths beside paths for the block to write; they replace paths together when it completes, else
    are removed.  A path that is a directory fails before the block, so no replace fails on one after another
    is made, and an OSError on a temp path (opening it, replacing with it) names its path instead."""
    tmps = {os.path.join(os.path.dirname(p), f".{os.path.basename(p)}.{os.getpid()}.tmp"): str(p) for p in paths}
    for path in filter(os.path.isdir, tmps.values()):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        yield list(tmps)
        for tmp, path in tmps.items():
            os.replace(tmp, path)
    except OSError as exc:
        if exc.filename not in tmps:
            raise
        raise OSError(exc.errno, exc.strerror, tmps[exc.filename]) from None
    finally:
        for tmp in tmps:
            with suppress(FileNotFoundError):
                os.remove(tmp)


@contextmanager
def atomic_write(path: str) -> Iterator[BinaryIO]:
    """A binary temp file beside path that replaces it when the block completes, else is removed.
    An OSError opening the temp file or replacing path names path, not the temp file."""
    with replace_together([path]) as (tmp,), open(tmp, "wb") as fh:
        yield fh


def _open_for_read(path: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _write_lines(path: str, lines: Iterable[str]) -> int:
    """Write each line and a newline, atomically, gzip-compressed when path
    ends in ``.gz``; returns the line count."""
    n = 0
    with atomic_write(path) as raw:
        # mtime=0: the header carries no write time, so equal rows give equal bytes
        binary = gzip.GzipFile(path, "wb", fileobj=raw, mtime=0) if str(path).endswith(".gz") else raw
        with io.TextIOWrapper(binary, encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
                n += 1
    return n


def write_jsonl(path: str, rows: Iterable[dict]) -> int:
    """Write one compact JSON object per line, atomically; returns the row count."""
    return _write_lines(path, (json.dumps(row, ensure_ascii=False, separators=(",", ":")) for row in rows))


@contextmanager
def decode_errors_named(path: str, fh) -> Iterator[None]:
    """Re-raise a decode error from reading text file fh as ``<path>: line N: ...``, N found by re-reading
    its bytes, and a gzip stream that is cut short, corrupt or not gzip at all as ``<path>: ...``."""
    try:
        yield
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DatasetError(f"{path}: corrupt gzip file: {exc}") from None
    except UnicodeDecodeError as exc:
        fh.buffer.seek(0)  # split as text mode splits lines: at \r\n, \n or \r
        lines = fh.buffer.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
        lineno = next(n for n, line in enumerate(lines, start=1) if line.decode("utf-8", "ignore").encode() != line)
        raise DatasetError(f"{path}: line {lineno}: not UTF-8: {exc.reason}") from None


_raw_decode = json.JSONDecoder().raw_decode


def iter_jsonl(path: str) -> Iterator[tuple[str, dict]]:
    """Yield each non-blank row with its location, ``"<path>: line N"``.  Each line is decoded once, by
    ``raw_decode``; a line it rejects, or does not take whole, goes to ``json.loads``, which words the fault."""
    with _open_for_read(path) as fh, decode_errors_named(path, fh):
        for lineno, line in enumerate(fh, start=1):
            line = line.strip(" \t\r\n")  # JSON's whitespace only: str.strip() would drop "\xa0" and "\x1c" too
            if not line:
                continue
            where = f"{path}: line {lineno}"
            try:  # the line has no JSON whitespace at either end, so taken whole it is what json.loads accepts
                row, end = _raw_decode(line)
            except (ValueError, RecursionError):
                end = None
            if end != len(line):
                try:
                    row = json.loads(line)
                except (ValueError, RecursionError) as exc:  # not only JSONDecodeError: the int digit limit, deep nesting
                    raise DatasetError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise DatasetError(f"{where}: expected a JSON object")
            yield where, row


def field(where: str, row: dict, name: str, typ: type):
    """``row[name]`` checked against typ (bool never passes as int)."""
    if name not in row:
        raise DatasetError(f"{where}: missing field '{name}'")
    value = row[name]
    if not isinstance(value, typ) or isinstance(value, bool):
        raise DatasetError(f"{where}: field '{name}' must be {typ.__name__}")
    return value


def _record_line(r: DatasetRecord) -> str:
    """The fields in schema order, kind as its value, as ``json.dumps(..., ensure_ascii=False,
    separators=(",", ":"))`` writes them, with the maze text encoded once when the prompt repeats it."""
    maze = _json_str(r.maze_tokens)
    prompt = maze if r.prompt == r.maze_tokens else _json_str(r.prompt)
    return (
        f'{{"id":{_json_str(r.id)},"seed":{r.seed},"maze_tokens":{maze},"steps":{r.steps},'
        f'"kind":{_json_str(r.kind.value)},"prompt":{prompt},"completion":{_json_str(r.completion)}}}'
    )


def write_records(records: Iterable[DatasetRecord], path: str) -> int:
    """Serialize records as JSONL, preserving order; returns the count."""
    return _write_lines(path, map(_record_line, records))


def record_from_dict(row: dict, where: str = "record") -> DatasetRecord:
    """Validate one raw row against the record schema."""
    values = tuple(map(row.get, _RECORD_FIELDS))
    # decoded JSON values have exact types (a bool is not an int), so a valid row passes one
    # comparison; any other row, a str subclass too, is checked field by field in schema order
    if tuple(map(type, values)) != _FIELD_TYPES:
        values = tuple(field(where, row, name, typ) for name, typ in _RECORD_FIELDS.items())
    if len(row) != len(values):  # every schema field is present, so the others are unknown
        raise DatasetError(f"{where}: unknown fields {sorted(set(row) - set(_RECORD_FIELDS))}")
    id_, seed, maze_tokens, steps, kind, prompt, completion = values
    if kind not in _KINDS:
        raise DatasetError(f"{where}: field 'kind' must be one of {list(_KINDS)}, got {kind!r}")
    # a valid prompt is the maze text itself (see make_record): keep one copy
    prompt = maze_tokens if prompt == maze_tokens else prompt
    return DatasetRecord(id_, seed, maze_tokens, steps, _KINDS[kind], prompt, completion)


def validate_record(record: DatasetRecord, where: str = "record") -> None:
    """Strict semantic checks against the record's own maze: the prompt is
    the maze text, the id carries a pool index and the maze hash, the
    completion solves it, the kind agrees with RESET in the think block and
    with the id suffix, and ``steps`` counts the answer's moves.  The maze text
    has no carriage return or trailing newline: both parse, but name its maze twice."""
    if "\r" in record.maze_tokens:
        raise DatasetError(f"{where}: field 'maze_tokens' has a carriage return")
    if record.maze_tokens.endswith("\n"):
        raise DatasetError(f"{where}: field 'maze_tokens' ends in a newline")
    try:
        m = parse_maze_tokens(record.maze_tokens)
    except ValueError as exc:
        raise DatasetError(f"{where}: maze_tokens do not parse: {exc}") from exc
    if record.prompt != record.maze_tokens:
        raise DatasetError(f"{where}: field 'prompt' is not the maze_tokens text")
    id_parts, maze_hash = record.id.split("-"), hash16(record.maze_tokens)
    if len(id_parts) != 3 or id_parts[1] != maze_hash:
        raise DatasetError(f"{where}: field 'id' {record.id!r} does not carry the maze hash {maze_hash}")
    index = id_parts[0]
    if len(index) < 6 or not (index.isascii() and index.isdigit()):
        raise DatasetError(f"{where}: field 'id' {record.id!r} does not start with a pool index of 6 or more digits")
    moves, _, status = walk_answer(m, record.completion)
    if status is not SimStatus.REACHED_TARGET:
        raise DatasetError(f"{where}: completion does not solve the maze ({status.value})")
    has_reset = RESET_MARKER in record.completion
    if has_reset != (record.kind is RecordKind.RETRY):
        raise DatasetError(f"{where}: kind '{record.kind.value}' disagrees with RESET content")
    suffix = _ID_SUFFIX[record.kind]
    if id_parts[2] != suffix:
        raise DatasetError(f"{where}: field 'id' {record.id!r} does not end in '-{suffix}' for kind '{record.kind.value}'")
    if record.steps != moves:
        raise DatasetError(f"{where}: field 'steps' is {record.steps}, the answer has {moves} moves")


def read_records(path: str, strict: bool = False) -> list[DatasetRecord]:
    """Read and schema-check records; strict mode revalidates completions."""
    records = []
    for where, row in iter_jsonl(path):
        record = record_from_dict(row, where)
        if strict:
            validate_record(record, where)
        records.append(record)
    return records
