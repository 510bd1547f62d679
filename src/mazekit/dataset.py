"""Deterministic dataset construction: generate, solve, augment, split, JSONL.

A split plan carves one seeded pool of solved mazes into a held-out test
set and three training collections:

    sft retry     mazes whose origin class yields wrong attempts, rendered
                  as retry completions (reasoning with RESET feedback)
    sft straight  mazes rendered as straight-success completions, drawn
                  from mazes not used for retry examples
    grpo          straight-success records from whatever the sft straight
                  selection left over, spilling into retry-selected mazes
                  when the pool is too small to keep all three disjoint

Test mazes never appear in any training collection; identity is a hash of
the wall grid plus endpoints, so even a duplicate maze generated under a
different seed cannot leak across the boundary.  A ``--scale`` plan has no
slack for the training mazes such a duplicate removes, so when a quota falls
short the pool is topped up: items ``total_pool``, ``total_pool + 1``, ...
join the training order until every quota fills.  Everything is a pure
function of the master seeds, which makes output files byte-reproducible.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Iterable, Iterator, Optional

from .augment import RESET_MARKER, AugmentConfig, ReasoningTrace, augment_trace
from .bench import hash16
from .core import Maze, simulate_moves
from .generate import GenConfig, SolutionPath, solved_pool
from .rng import SplitMix64, derive_seed, mix64
from .tokens import extract_move_tokens, parse_maze_tokens, render_maze_tokens, render_move_tokens

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

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "seed": self.seed,
            "maze_tokens": self.maze_tokens,
            "steps": self.steps,
            "kind": self.kind.value,
            "prompt": self.prompt,
            "completion": self.completion,
        }


_RECORD_FIELDS = {
    "id": str,
    "seed": int,
    "maze_tokens": str,
    "steps": int,
    "kind": str,
    "prompt": str,
    "completion": str,
}


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
    test: tuple[DatasetRecord, ...]
    sft: tuple[DatasetRecord, ...]
    grpo: tuple[DatasetRecord, ...]
    top_up: int = 0  # pool items generated past plan.total_pool to fill a scaled plan


def make_record(
    index: int,
    seed: int,
    maze_tokens: str,
    solution: SolutionPath,
    kind: RecordKind,
    trace_text: str,
) -> DatasetRecord:
    """Assemble one record; the completion is the think block, then the answer moves."""
    return DatasetRecord(
        id=f"{index:06d}-{hash16(maze_tokens)}-{_ID_SUFFIX[kind]}",
        seed=seed,
        maze_tokens=maze_tokens,
        steps=solution.steps,
        kind=kind,
        prompt=maze_tokens,
        completion=f"<think>\n{trace_text}\n</think>\n{render_move_tokens(solution.moves)}",
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
    quota exceeds the number of mazes whose origin produces wrong attempts.
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
    retry_set = set(retry_sel)
    straight_sel = [i for i in train_indices if i not in retry_set][: plan.sft_straight_count]
    straight_set = set(straight_sel)
    leftovers = [i for i in train_indices if i not in retry_set and i not in straight_set]
    spill = [i for i in retry_sel if i not in straight_set]
    grpo_sel = (leftovers + spill)[: plan.grpo_count]
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

    def straight_record(i: int) -> DatasetRecord:
        text = ReasoningTrace(pool[i], (), solutions[i]).solution_text
        return make_record(i, seeds[i], tokens[i], solutions[i], RecordKind.STRAIGHT_SUCCESS, text)

    def retry_record(i: int) -> DatasetRecord:
        return make_record(i, seeds[i], tokens[i], solutions[i], RecordKind.RETRY, traces[i].render())

    test_records = tuple(straight_record(i) for i in sorted(test_indices))
    sft_records = tuple(
        retry_record(i) if i in retry_set else straight_record(i)
        for i in sorted(retry_sel + straight_sel)
    )
    grpo_records = tuple(straight_record(i) for i in sorted(grpo_sel))
    return DatasetSplits(test=test_records, sft=sft_records, grpo=grpo_records, top_up=top_up)


@contextmanager
def atomic_write(path: str) -> Iterator[BinaryIO]:
    """A binary temp file beside path that replaces it when the block completes, else is removed."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    fh = open(tmp, "wb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _open_for_read(path: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def write_jsonl(path: str, rows: Iterable[dict]) -> int:
    """Write one compact JSON object per line, atomically; returns the row count."""
    n = 0
    with atomic_write(path) as raw:
        # mtime=0: the header carries no write time, so equal rows give equal bytes
        binary = gzip.GzipFile(path, "wb", fileobj=raw, mtime=0) if str(path).endswith(".gz") else raw
        with io.TextIOWrapper(binary, encoding="utf-8", newline="\n") as fh:
            for row in rows:
                fh.write(json.dumps(row, ensure_ascii=False, separators=(",", ":")))
                fh.write("\n")
                n += 1
    return n


def iter_jsonl(path: str) -> Iterator[tuple[str, dict]]:
    """Yield each non-blank row with its location, ``"<path>: line N"``."""
    with _open_for_read(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
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


def write_records(records: Iterable[DatasetRecord], path: str) -> int:
    """Serialize records as JSONL, preserving order; returns the count."""
    return write_jsonl(path, (r.to_dict() for r in records))


def record_from_dict(row: dict, where: str = "record") -> DatasetRecord:
    """Validate one raw row against the record schema."""
    values = {name: field(where, row, name, typ) for name, typ in _RECORD_FIELDS.items()}
    extra = set(row) - set(_RECORD_FIELDS)
    if extra:
        raise DatasetError(f"{where}: unknown fields {sorted(extra)}")
    try:
        values["kind"] = RecordKind(row["kind"])
    except ValueError:
        raise DatasetError(f"{where}: field 'kind' must be one of "
                           f"{[k.value for k in RecordKind]}, got {row['kind']!r}") from None
    # a valid prompt is the maze text itself (see make_record): keep one copy
    if values["prompt"] == values["maze_tokens"]:
        values["prompt"] = values["maze_tokens"]
    return DatasetRecord(**values)


def validate_record(record: DatasetRecord, where: str = "record") -> None:
    """Strict semantic checks against the record's own maze: the prompt is
    the maze text, the id carries its hash, the completion solves it, the
    kind agrees with RESET in the think block and with the id suffix, and
    ``steps`` counts the answer's moves."""
    try:
        m = parse_maze_tokens(record.maze_tokens)
    except ValueError as exc:
        raise DatasetError(f"{where}: maze_tokens do not parse: {exc}") from exc
    if record.prompt != record.maze_tokens:
        raise DatasetError(f"{where}: field 'prompt' is not the maze_tokens text")
    id_parts, maze_hash = record.id.split("-"), hash16(record.maze_tokens)
    if len(id_parts) != 3 or id_parts[1] != maze_hash:
        raise DatasetError(f"{where}: field 'id' {record.id!r} does not carry the maze hash {maze_hash}")
    moves = extract_move_tokens(record.completion)
    outcome = simulate_moves(m, m.origin, moves)
    if not outcome.solved:
        raise DatasetError(
            f"{where}: completion does not solve the maze ({outcome.status.value})"
        )
    has_reset = RESET_MARKER in record.completion
    if has_reset != (record.kind is RecordKind.RETRY):
        raise DatasetError(f"{where}: kind '{record.kind.value}' disagrees with RESET content")
    suffix = _ID_SUFFIX[record.kind]
    if id_parts[2] != suffix:
        raise DatasetError(f"{where}: field 'id' {record.id!r} does not end in '-{suffix}' for kind '{record.kind.value}'")
    if record.steps != len(moves):
        raise DatasetError(f"{where}: field 'steps' is {record.steps}, the answer has {len(moves)} moves")


def read_records(path: str, strict: bool = False) -> list[DatasetRecord]:
    """Read and schema-check records; strict mode revalidates completions."""
    records = []
    for where, row in iter_jsonl(path):
        record = record_from_dict(row, where)
        if strict:
            validate_record(record, where)
        records.append(record)
    return records
