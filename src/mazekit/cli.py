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
from pathlib import Path

OUT_DIR_ENV = "MAZEKIT_OUT_DIR"

from .augment import AugmentConfig, augment_trace
from .bench import (
    DEFAULT_COMPOSITION,
    Difficulty,
    BenchEntry,
    BenchSuite,
    build_suite,
    classify_difficulty,
    evaluate_suite,
    fit_trendline,
    hash16,
    maze_id,
)
from .dataset import (
    PAPER_COUNTS,
    DatasetError,
    RecordKind,
    SplitPlan,
    atomic_write,
    build_splits,
    field,
    iter_jsonl,
    make_record,
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


def _maze(where: str, row: dict):
    try:
        return parse_maze_tokens(field(where, row, "maze_tokens", str))
    except MazeParseError as exc:
        raise DatasetError(f"{where}: maze_tokens do not parse: {exc}") from exc


def _load_mazes(path: str) -> list:
    """Read mazes from any JSONL whose rows carry a maze_tokens field."""
    return [_maze(where, row) for where, row in iter_jsonl(path)]


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def cmd_generate(args: argparse.Namespace) -> int:
    _echo_seed(args.seed)
    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    cfg = GenConfig(
        width=args.width, height=args.height, seed=args.seed, min_steps=args.min_steps, max_steps=args.max_steps
    )
    rows = []
    for i, (seed, m, solution) in enumerate(solved_pool(cfg, args.count)):
        tokens = render_maze_tokens(m)
        rows.append(
            {"id": f"{i:06d}-{hash16(tokens)}", "seed": seed, "maze_tokens": tokens, "steps": solution.steps}
        )
        if args.preview and i == 0:
            print(ascii_preview(m))
    out = _out(args.out)
    n = write_jsonl(out, rows)
    print(f"wrote {n} mazes to {out}", file=sys.stderr)
    return 0


def cmd_tokenize(args: argparse.Namespace) -> int:
    rows = list(iter_jsonl(args.infile))
    if not 0 <= args.index < len(rows):
        raise ValueError(f"index {args.index} outside 0..{len(rows) - 1}")
    text = field(*rows[args.index], "maze_tokens", str)
    if args.out:
        out = _out(args.out)
        with atomic_write(out) as fh:
            fh.write(f"{text}\n".encode("utf-8"))
        print(f"wrote maze {args.index} to {out}", file=sys.stderr)
    else:
        print(text)
    if args.preview:
        print(ascii_preview(parse_maze_tokens(text)), file=sys.stderr)
    return 0


def cmd_parse(args: argparse.Namespace) -> int:
    m = parse_maze_tokens(_read_text(args.infile))
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
    m = parse_maze_tokens(_read_text(args.infile))
    print(render_move_tokens(solve_shortest_path(m).moves))
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    _echo_seed(args.seed)
    records = []
    for i, (where, row) in enumerate(iter_jsonl(args.infile)):
        m = _maze(where, row)
        solution = solve_shortest_path(m)
        cfg = AugmentConfig(max_n_steps=args.max_n_steps, seed=derive_seed(args.seed, i))
        trace = augment_trace(m, solution, cfg)
        kind = RecordKind.RETRY if trace.is_retry else RecordKind.STRAIGHT_SUCCESS
        record = make_record(i, cfg.seed, render_maze_tokens(m), solution, kind, trace.render())
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
    files = {
        "test": outdir / "test.jsonl",
        "sft": outdir / "sft.jsonl",
        "grpo": outdir / "grpo.jsonl",
    }
    write_records(splits.test, str(files["test"]))
    write_records(splits.sft, str(files["sft"]))
    write_records(splits.grpo, str(files["grpo"]))
    manifest = {
        "seed": args.seed,
        "aug_seed": aug_seed,
        "max_n_steps": args.max_n_steps,
        "width": args.width,
        "height": args.height,
        "plan": {name: getattr(plan, name) for name in PAPER_COUNTS},
        "records": {name: len(getattr(splits, name)) for name in ("test", "sft", "grpo")},
    }
    if splits.top_up:
        manifest["top_up"] = splits.top_up
    with atomic_write(outdir / "manifest.json") as fh:
        fh.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    for name, path in files.items():
        print(f"{name}: {manifest['records'][name]} records -> {path}", file=sys.stderr)
    return 0


def _suite_to_rows(suite: BenchSuite) -> list[dict]:
    return [
        {
            "id": e.id,
            "difficulty": e.difficulty.value,
            "steps": e.steps,
            "maze_tokens": e.maze_tokens,
        }
        for e in suite.entries
    ]


def _suite_entry(where: str, row: dict) -> BenchEntry:
    """One suite row, checked against its own maze: ``steps`` is the solved
    length and ``difficulty`` the band of that length."""
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
    return BenchEntry(id=entry_id, maze=m, difficulty=band, steps=steps, maze_tokens=row["maze_tokens"])


def _load_suite(path: str) -> BenchSuite:
    return BenchSuite(entries=tuple(_suite_entry(where, row) for where, row in iter_jsonl(path)))


def _load_outputs(path: str) -> dict[str, str]:
    """Model outputs by id; an id given twice is an error naming both lines."""
    outputs: dict[str, str] = {}
    first_line: dict[str, str] = {}
    for where, row in iter_jsonl(path):
        key = field(where, row, "id", str)
        if key in first_line:
            raise DatasetError(f"{where}: id {key!r} repeats {first_line[key]}")
        first_line[key] = where.rsplit(": ", 1)[1]
        outputs[key] = field(where, row, "output", str)
    return outputs


def cmd_bench_build(args: argparse.Namespace) -> int:
    _echo_seed(args.seed)
    pool = _load_mazes(args.pool)
    composition = {
        Difficulty.EASY: args.easy,
        Difficulty.MEDIUM: args.medium,
        Difficulty.HARD: args.hard,
    }
    suite = build_suite(pool, args.seed, composition)
    out = _out(args.out)
    write_jsonl(out, _suite_to_rows(suite))
    counts = suite.counts()
    print(
        f"suite: {counts[Difficulty.EASY]} easy / {counts[Difficulty.MEDIUM]} medium / "
        f"{counts[Difficulty.HARD]} hard -> {out}",
        file=sys.stderr,
    )
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    report = evaluate_suite(_load_suite(args.suite), _load_outputs(args.outputs))
    doc = {
        "overall": report.overall,
        "by_difficulty": {d.value: rate for d, rate in report.by_difficulty.items()},
        "verdicts": [
            {
                "id": v.id,
                "difficulty": v.difficulty.value,
                "steps": v.steps,
                "solved": v.solved,
                "reason": v.reason,
            }
            for v in report.verdicts
        ],
    }
    with atomic_write(_out(args.report)) as fh:
        fh.write((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    print(f"overall: {report.overall}", file=sys.stderr)
    if args.scores_csv is not None:
        if args.step is None:
            raise ValueError("--scores-csv needs --step")
        with open(_out(args.scores_csv), "a", encoding="utf-8") as fh:
            fh.write(f"{args.step},{report.overall}\n")
    return 0


def cmd_reward(args: argparse.Namespace) -> int:
    rows_out = []
    rewards = []
    for where, row in iter_jsonl(args.pairs):
        breakdown = total_reward(_maze(where, row), field(where, row, "output", str))
        rewards.append(breakdown.total)
        out = {
            "correctness": breakdown.correctness,
            "integrity": breakdown.integrity,
            "thinking": breakdown.thinking,
            "total": breakdown.total,
        }
        if "id" in row:
            out = {"id": row["id"], **out}
        rows_out.append(out)
    if args.advantages:
        adv = group_advantages(rewards).advantages
        for out, a in zip(rows_out, adv):
            out["advantage"] = a
    out = _out(args.out)
    write_jsonl(out, rows_out)
    print(f"scored {len(rows_out)} outputs -> {out}", file=sys.stderr)
    return 0


def _read_points(path: str) -> list[tuple[float, float]]:
    points = []
    with open(path, "r", encoding="utf-8") as fh:
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
                if lineno == 1:
                    continue  # header row
                raise ValueError(f"{path}: line {lineno}: values are not numeric") from None
    return points


def cmd_trend(args: argparse.Namespace) -> int:
    fit = fit_trendline(_read_points(args.points))
    print(
        json.dumps(
            {
                "slope": round(fit.slope, 6),
                "intercept": round(fit.intercept, 6),
                "residual_std": round(fit.residual_std, 6),
            },
            sort_keys=True,
        )
    )
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
