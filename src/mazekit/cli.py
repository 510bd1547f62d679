"""Command-line entry point; one subcommand per pipeline stage.

Every randomized command takes a --seed and echoes the effective value on
stderr, and any two runs with identical arguments and input files produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

OUT_DIR_ENV = "MAZEKIT_OUT_DIR"

from .augment import AugmentConfig, augment_trace
from .bench import (
    DEFAULT_COMPOSITION,
    Difficulty,
    StratumShortfallError,
    BenchEntry,
    build_suite,
    classify_difficulty,
    evaluate_suite,
    fit_trendline,
    hash16,
    maze_id,
)
from .core import validate_maze
from .dataset import (
    PAPER_COUNTS,
    DatasetError,
    RecordKind,
    SplitPlan,
    atomic_write,
    build_splits,
    decode_errors_named,
    field,
    iter_jsonl,
    make_record,
    replace_together,
    validate_record,
    write_jsonl,
    write_records,
)
from .generate import GenConfig, UnreachableTargetError, solve_shortest_path, solved_pool
from .rewards import group_advantages, total_reward
from .rng import derive_seed
from .tokens import MazeParseError, ascii_preview, parse_maze_tokens, render_maze_tokens, render_move_tokens


def _echo_seed(seed: int) -> None:
    print(f"seed: {seed}", file=sys.stderr)


def _out(path: str) -> str:
    """Relative output paths land inside $MAZEKIT_OUT_DIR when it is set."""
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _maze(where: str, row: dict, audit: bool = False):
    """The row's maze; with ``audit``, also one that ``validate_maze`` passes,
    for commands that build training or bench data from it."""
    try:
        m = parse_maze_tokens(field(where, row, "maze_tokens", str))
    except MazeParseError as exc:
        raise DatasetError(f"{where}: maze_tokens do not parse: {exc}") from exc
    problems = validate_maze(m) if audit else []
    if problems:
        raise DatasetError(f"{where}: invalid maze: " + "; ".join(problems))
    return m


def _read_maze(path: str):
    """The maze in a token text file, decoded, parsed and audited once; each failure names the file."""
    with open(path, encoding="utf-8") as fh, decode_errors_named(path, fh):
        text = fh.read()
    try:
        m = parse_maze_tokens(text)
    except MazeParseError as exc:
        raise MazeParseError(f"{path}: {exc}") from exc
    problems = validate_maze(m)
    if problems:
        raise ValueError(f"{path}: invalid maze: " + "; ".join(problems))
    return m


def cmd_generate(args: argparse.Namespace) -> int:
    _echo_seed(args.seed)
    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    cfg = GenConfig(
        width=args.width, height=args.height, seed=args.seed, min_steps=args.min_steps, max_steps=args.max_steps
    )

    def rows():
        for i, (seed, m, solution) in enumerate(solved_pool(cfg, args.count)):
            if args.preview and i == 0:
                print(ascii_preview(m))
            tokens = render_maze_tokens(m)
            yield {"id": f"{i:06d}-{hash16(tokens)}", "seed": seed, "maze_tokens": tokens, "steps": solution.steps}

    out = _out(args.out)
    n = write_jsonl(out, rows())
    print(f"wrote {n} mazes to {out}", file=sys.stderr)
    return 0


def cmd_tokenize(args: argparse.Namespace) -> int:
    picked, count = None, 0
    for count, where_row in enumerate(iter_jsonl(args.infile), start=1):  # every row: a bad one past the index fails
        if count == args.index + 1:
            picked = where_row
    if not count:
        raise ValueError(f"{args.infile}: no rows to tokenize")
    if picked is None:
        raise ValueError(f"{args.infile}: index {args.index} outside 0..{count - 1}")
    where, row = picked
    # a row that does not parse fails before anything is printed or written
    m = _maze(where, row)
    text = row["maze_tokens"]
    if args.out:
        out = _out(args.out)
        with atomic_write(out) as fh:
            fh.write(f"{text}\n".encode("utf-8"))
        print(f"wrote maze {args.index} to {out}", file=sys.stderr)
    else:
        print(text)
    if args.preview:
        print(ascii_preview(m), file=sys.stderr)
    return 0


def cmd_parse(args: argparse.Namespace) -> int:
    m = _read_maze(args.infile)
    summary = {
        "width": m.width,
        "height": m.height,
        "origin": [m.origin.row, m.origin.col],
        "target": [m.target.row, m.target.col],
        "steps": solve_shortest_path(m).steps,
        "id": maze_id(m),
    }
    print(json.dumps(summary, sort_keys=True))
    if args.preview:
        print(ascii_preview(m), file=sys.stderr)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    m = _read_maze(args.infile)
    print(render_move_tokens(solve_shortest_path(m).moves))
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    _echo_seed(args.seed)
    records = []
    for i, (where, row) in enumerate(iter_jsonl(args.infile)):
        m = _maze(where, row, audit=True)
        cfg = AugmentConfig(max_n_steps=args.max_n_steps, seed=derive_seed(args.seed, i))
        trace = augment_trace(m, solve_shortest_path(m), cfg)
        tokens = render_maze_tokens(m)
        record = make_record(i, cfg.seed, tokens, hash16(tokens), trace, trace.is_retry)
        if args.strict:
            validate_record(record, where)
        records.append(record)
    out = _out(args.out)
    n = write_records(records, out)
    retries = sum(r.kind is RecordKind.RETRY for r in records)
    print(f"wrote {n} records ({retries} retry) to {out}", file=sys.stderr)
    return 0


def cmd_build_dataset(args: argparse.Namespace) -> int:
    _echo_seed(args.seed)
    counts = (args.pool, args.test, args.sft_straight, args.sft_retry, args.grpo)
    if args.scale is not None:
        if any(v is not None for v in counts):
            raise ValueError("give --scale or --pool/--test/--sft-straight/--sft-retry/--grpo, not both")
        plan = SplitPlan.scaled(args.scale)
    elif None in counts:
        raise ValueError("give --scale or all of --pool/--test/--sft-straight/--sft-retry/--grpo")
    else:
        plan = SplitPlan(*counts)
    aug_seed = args.aug_seed if args.aug_seed is not None else args.seed
    splits = build_splits(
        plan,
        GenConfig(width=args.width, height=args.height, seed=args.seed),
        AugmentConfig(max_n_steps=args.max_n_steps, seed=aug_seed),
    )
    outdir = Path(_out(args.out))
    outdir.mkdir(parents=True, exist_ok=True)
    names = ("test", "sft", "grpo")
    # no file is replaced until all four are written, so a failed build leaves the old ones whole
    with replace_together([*(f"{outdir / name}.jsonl" for name in names), outdir / "manifest.json"]) as tmps:
        records = {name: write_records(getattr(splits, name), tmp) for name, tmp in zip(names, tmps)}
        manifest = {
            "seed": args.seed,
            "aug_seed": aug_seed,
            "max_n_steps": args.max_n_steps,
            "width": args.width,
            "height": args.height,
            "plan": {name: getattr(plan, name) for name in PAPER_COUNTS},
            "records": records,
        }
        if splits.top_up:
            manifest["top_up"] = splits.top_up
        Path(tmps[-1]).write_bytes((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    for name, n in records.items():
        print(f"{name}: {n} records -> {outdir / name}.jsonl", file=sys.stderr)
    return 0


def _suite_entry(where: str, row: dict) -> BenchEntry:
    """One suite row, checked against its own maze: ``steps`` is the solved
    length, ``difficulty`` the band of that length and ``id`` the hash of the
    maze's rendered text (its ``maze_id``)."""
    entry_id = field(where, row, "id", str)
    m = _maze(where, row)
    difficulty = field(where, row, "difficulty", str)
    steps = field(where, row, "steps", int)
    try:
        solved = solve_shortest_path(m).steps
        band = classify_difficulty(solved)
    except (UnreachableTargetError, ValueError) as exc:
        raise DatasetError(f"{where}: {exc}") from exc
    if steps != solved:
        raise DatasetError(f"{where}: steps {steps} does not match the maze's {solved}-step solution")
    if difficulty != band.value:
        raise DatasetError(f"{where}: difficulty {difficulty!r} does not match {solved} steps ({band.value!r})")
    expected_id = maze_id(m)
    if entry_id != expected_id:
        raise DatasetError(f"{where}: field 'id' {entry_id!r} is not the maze's id {expected_id!r}")
    return BenchEntry(id=entry_id, maze=m, difficulty=band, steps=steps, maze_tokens=row["maze_tokens"])


def _by_id(path: str, read):
    """``read(where, row)`` of each row, by the row's id; an id given twice is
    an error naming both lines, raised after the row's own checks."""
    values: dict = {}
    first_line: dict[str, str] = {}
    for where, row in iter_jsonl(path):
        key = field(where, row, "id", str)
        value = read(where, row)
        if key in first_line:
            raise DatasetError(f"{where}: id {key!r} repeats {first_line[key]}")
        first_line[key] = where.rsplit(": ", 1)[1]
        values[key] = value
    return values


def cmd_bench_build(args: argparse.Namespace) -> int:
    _echo_seed(args.seed)
    pool = [_maze(where, row, audit=True) for where, row in iter_jsonl(args.pool)]
    composition = {
        Difficulty.EASY: args.easy,
        Difficulty.MEDIUM: args.medium,
        Difficulty.HARD: args.hard,
    }
    try:
        suite = build_suite(pool, args.seed, composition)
    except StratumShortfallError as exc:
        raise StratumShortfallError(f"{args.pool}: {exc}") from None
    out = _out(args.out)
    rows = ({"id": e.id, "difficulty": e.difficulty.value, "steps": e.steps, "maze_tokens": e.maze_tokens}
            for e in suite)
    write_jsonl(out, rows)
    counts = " / ".join(f"{sum(e.difficulty is d for e in suite)} {d.value}" for d in Difficulty)
    print(f"suite: {counts} -> {out}", file=sys.stderr)
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    if args.scores_csv is not None and args.step is None:
        raise ValueError("--scores-csv needs --step")
    suite = _by_id(args.suite, _suite_entry)
    outputs = _by_id(args.outputs, lambda where, row: field(where, row, "output", str))
    try:
        report = evaluate_suite(tuple(suite.values()), outputs)
    except ValueError as exc:  # the suite is empty
        raise ValueError(f"{args.suite}: {exc}") from None
    doc = {
        "overall": report.overall,
        "by_difficulty": {d.value: rate for d, rate in report.by_difficulty.items()},
        "verdicts": [{**asdict(v), "difficulty": v.difficulty.value} for v in report.verdicts],
    }
    with atomic_write(_out(args.report)) as fh:
        fh.write((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    print(f"overall: {report.overall}", file=sys.stderr)
    if args.scores_csv is not None:
        with open(_out(args.scores_csv), "a", encoding="utf-8") as fh:
            fh.write(f"{args.step},{report.overall}\n")
    return 0


def cmd_reward(args: argparse.Namespace) -> int:
    rows_out, groups = [], {}
    text = m = None  # the last maze text and its maze: a group's outputs are usually in a run
    for where, row in iter_jsonl(args.pairs):
        if field(where, row, "maze_tokens", str) != text:
            m, text = _maze(where, row), row["maze_tokens"]
        breakdown = total_reward(m, field(where, row, "output", str))
        out = {**vars(breakdown), "total": breakdown.total}  # a new dict: breakdowns of equal outcomes are shared
        if "id" in row:
            try:  # json.loads accepts a lone surrogate escape, which the UTF-8 write would reject
                json.dumps(row["id"], ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise DatasetError(f"{where}: field 'id' is not UTF-8 text: {exc.reason}") from None
            out = {"id": row["id"], **out}
        rows_out.append(out)
        groups.setdefault(row["maze_tokens"], []).append(out)
    if args.advantages:
        if not rows_out:
            raise ValueError(f"{args.pairs}: no rows to score")
        # GRPO's group: the outputs sampled for one prompt, which is the maze text
        for group in groups.values():
            for out, a in zip(group, group_advantages([o["total"] for o in group]).advantages):
                out["advantage"] = a
    out = _out(args.out)
    write_jsonl(out, rows_out)
    print(f"scored {len(rows_out)} outputs -> {out}", file=sys.stderr)
    return 0


def _read_points(path: str) -> list[tuple[float, float]]:
    points = []
    header_allowed = True  # on the first non-blank line only
    with open(path, "r", encoding="utf-8") as fh, decode_errors_named(path, fh):
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected two comma-separated values")
            try:
                points.append((float(parts[0]), float(parts[1])))
            except ValueError:
                if not header_allowed:
                    raise ValueError(f"{path}: line {lineno}: values are not numeric") from None
            header_allowed = False
    return points


def cmd_trend(args: argparse.Namespace) -> int:
    points = _read_points(args.points)
    try:
        fit = fit_trendline(points)
    except ValueError as exc:
        raise ValueError(f"{args.points}: {exc}") from None
    print(json.dumps({name: round(value, 6) for name, value in asdict(fit).items()}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mazekit",
        description="Generate tokenized mazes, build datasets and benchmarks, score outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate solved mazes as JSONL")
    p.add_argument("--count", type=int, required=True, help="number of mazes")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--width", type=int, default=5)
    p.add_argument("--height", type=int, default=5)
    p.add_argument("--min-steps", type=int, default=None, help="lower bound on solution length")
    p.add_argument("--max-steps", type=int, default=None, help="upper bound on solution length")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--preview", action="store_true", help="print an ASCII preview of the first maze")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("tokenize", help="extract one maze's token text from a JSONL file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", default=None, help="write here instead of stdout")
    p.add_argument("--preview", action="store_true")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("parse", help="parse token text and print a summary")
    p.add_argument("--in", dest="infile", required=True, help="token text file")
    p.add_argument("--preview", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("solve", help="print the shortest solution as movement tokens")
    p.add_argument("--in", dest="infile", required=True, help="token text file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("augment", help="emit training records with retry traces")
    p.add_argument("--in", dest="infile", required=True, help="JSONL with maze_tokens rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n-steps", type=int, default=3)
    p.add_argument("--strict", action="store_true", help="revalidate every record before writing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("build-dataset", help="build test/sft/grpo splits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--aug-seed", type=int, default=None, help="augmentation seed (defaults to --seed)")
    p.add_argument("--scale", type=int, default=None, help="divide the full-scale plan by this factor")
    p.add_argument("--pool", type=int, default=None)
    p.add_argument("--test", type=int, default=None)
    p.add_argument("--sft-straight", type=int, default=None)
    p.add_argument("--sft-retry", type=int, default=None)
    p.add_argument("--grpo", type=int, default=None)
    p.add_argument("--width", type=int, default=5)
    p.add_argument("--height", type=int, default=5)
    p.add_argument("--max-n-steps", type=int, default=3)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_build_dataset)

    bench = sub.add_parser("bench", help="benchmark suite tools")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    p = bench_sub.add_parser("build", help="sample a stratified suite from a pool")
    p.add_argument("--pool", required=True, help="JSONL with maze_tokens rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--easy", type=int, default=DEFAULT_COMPOSITION[Difficulty.EASY])
    p.add_argument("--medium", type=int, default=DEFAULT_COMPOSITION[Difficulty.MEDIUM])
    p.add_argument("--hard", type=int, default=DEFAULT_COMPOSITION[Difficulty.HARD])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench_build)

    p = bench_sub.add_parser("run", help="score model outputs against a suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--outputs", required=True, help="JSONL with id and output fields")
    p.add_argument("--report", required=True, help="JSON report path")
    p.add_argument("--scores-csv", default=None, help="append step,score to this CSV")
    p.add_argument("--step", type=int, default=None, help="step label for --scores-csv")
    p.set_defaults(func=cmd_bench_run)

    p = sub.add_parser("reward", help="batch-score maze/output pairs")
    p.add_argument("--pairs", required=True, help="JSONL with maze_tokens and output fields")
    p.add_argument("--advantages", action="store_true", help="add group-normalized advantages")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("trend", help="fit an OLS trendline to x,y points")
    p.add_argument("--points", required=True, help="CSV of x,y pairs (header row allowed)")
    p.set_defaults(func=cmd_trend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
