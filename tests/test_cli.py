import gzip
import json
import pathlib
import sys
from dataclasses import replace

import pytest

from golden import POOL_DIGEST, sha256
from mazekit import cli, core, dataset
from mazekit.augment import RESET_MARKER
from mazekit.bench import maze_id
from mazekit.cli import main
from mazekit.dataset import RecordKind, read_records
from mazekit.generate import GenConfig, generate_solved_maze, solve_shortest_path
from mazekit.rewards import total_reward
from mazekit.rng import derive_seed
from mazekit.tokens import ascii_preview, parse_maze_tokens, render_maze_tokens, render_move_tokens

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "example_maze_tokens.txt"
GOLDEN_ID = maze_id(parse_maze_tokens(GOLDEN_PATH.read_text(encoding="utf-8")))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_prints_oracle_tokens(capsys):
    code, out, _ = run(capsys, "solve", "--in", str(GOLDEN_PATH))
    assert code == 0
    assert out.strip() == "<|left|><|down|><|right|><|down|><|right|>"


def test_parse_summary(capsys):
    code, out, _ = run(capsys, "parse", "--in", str(GOLDEN_PATH))
    assert code == 0
    summary = json.loads(out)
    assert summary["origin"] == [2, 1]
    assert summary["target"] == [4, 2]
    assert summary["steps"] == 5


def test_generate_is_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    code, _, err = run(capsys, "generate", "--count", "20", "--seed", "3", "--out", str(a))
    assert code == 0
    assert "seed: 3" in err
    run(capsys, "generate", "--count", "20", "--seed", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    rows = [json.loads(line) for line in a.read_text().splitlines()]
    assert len(rows) == 20
    for row in rows:
        m = parse_maze_tokens(row["maze_tokens"])
        assert solve_shortest_path(m).steps == row["steps"]


def test_generate_respects_step_bounds(capsys, tmp_path):
    out = tmp_path / "bounded.jsonl"
    code, _, _ = run(capsys, "generate", "--count", "10", "--seed", "5",
                     "--min-steps", "9", "--max-steps", "13", "--out", str(out))
    assert code == 0
    for line in out.read_text().splitlines():
        assert 9 <= json.loads(line)["steps"] <= 13


def test_tokenize_round_trip(capsys, tmp_path):
    pool = tmp_path / "pool.jsonl"
    run(capsys, "generate", "--count", "3", "--seed", "1", "--out", str(pool))
    code, out, _ = run(capsys, "tokenize", "--in", str(pool), "--index", "2")
    assert code == 0
    row = [json.loads(line) for line in pool.read_text().splitlines()][2]
    assert out.strip("\n") == row["maze_tokens"]


def test_augment_emits_records(capsys, tmp_path):
    pool = tmp_path / "pool.jsonl"
    out = tmp_path / "records.jsonl"
    run(capsys, "generate", "--count", "30", "--seed", "9", "--out", str(pool))
    code, _, err = run(capsys, "augment", "--in", str(pool), "--seed", "4", "--strict", "--out", str(out))
    assert code == 0
    records = read_records(str(out), strict=True)
    assert len(records) == 30
    assert any("retry" in r.id for r in records)


def test_bench_build_and_run(capsys, tmp_path):
    pool = tmp_path / "pool.jsonl"
    suite = tmp_path / "suite.jsonl"
    outputs = tmp_path / "outputs.jsonl"
    report = tmp_path / "report.json"
    run(capsys, "generate", "--count", "400", "--seed", "11", "--out", str(pool))
    code, _, err = run(capsys, "bench", "build", "--pool", str(pool), "--seed", "7", "--out", str(suite))
    assert code == 0
    assert "50 easy / 40 medium / 10 hard" in err

    rows = [json.loads(line) for line in suite.read_text().splitlines()]
    assert len(rows) == 100
    with outputs.open("w") as fh:
        for row in rows:
            m = parse_maze_tokens(row["maze_tokens"])
            moves = render_move_tokens(solve_shortest_path(m).moves)
            fh.write(json.dumps({"id": row["id"], "output": moves}) + "\n")
    code, _, err = run(capsys, "bench", "run", "--suite", str(suite),
                       "--outputs", str(outputs), "--report", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["overall"] == 100.0
    assert len(doc["verdicts"]) == 100


def test_bench_run_scores_csv(capsys, tmp_path):
    pool = tmp_path / "pool.jsonl"
    suite = tmp_path / "suite.jsonl"
    outputs = tmp_path / "outputs.jsonl"
    report = tmp_path / "report.json"
    csv = tmp_path / "scores.csv"
    run(capsys, "generate", "--count", "400", "--seed", "11", "--out", str(pool))
    run(capsys, "bench", "build", "--pool", str(pool), "--seed", "7", "--out", str(suite))
    outputs.write_text("")
    run(capsys, "bench", "run", "--suite", str(suite), "--outputs", str(outputs),
        "--report", str(report), "--scores-csv", str(csv), "--step", "0")
    assert csv.read_text() == "0,0.0\n"


def test_bench_run_scores_csv_without_step_writes_nothing(capsys, tmp_path):
    golden = GOLDEN_PATH.read_text(encoding="utf-8")
    suite = _jsonl(tmp_path / "suite.jsonl", {"id": GOLDEN_ID, "difficulty": "medium", "steps": 5, "maze_tokens": golden})
    report = tmp_path / "report.json"
    csv = tmp_path / "scores.csv"
    code, _, err = run(capsys, "bench", "run", "--suite", suite, "--outputs", _jsonl(tmp_path / "o.jsonl"),
                       "--report", str(report), "--scores-csv", str(csv))
    assert code == 1
    assert "error: --scores-csv needs --step" in err
    assert not report.exists() and not csv.exists()


@pytest.fixture
def audits(monkeypatch):
    """Every ``validate_maze`` call, counted at each mazekit module that bound the name."""
    original = core.validate_maze
    calls = []

    def counting(m):
        calls.append(m)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("mazekit") and getattr(module, "validate_maze", None) is original:
            monkeypatch.setattr(module, "validate_maze", counting)
    return calls


def test_validate_maze_runs_once_per_read_maze(capsys, tmp_path, audits):
    pool = tmp_path / "pool.jsonl"
    maze = tmp_path / "maze.txt"
    expected = {
        # carved mazes are trusted
        ("generate", "--count", "50", "--seed", "11", "--out", str(pool)): 0,
        ("build-dataset", "--seed", "6", "--pool", "60", "--test", "6", "--sft-straight", "20",
         "--sft-retry", "20", "--grpo", "14", "--out", str(tmp_path / "ds")): 0,
        ("tokenize", "--in", str(pool), "--index", "3", "--out", str(maze)): 0,
        # read mazes are audited once
        ("augment", "--in", str(pool), "--out", str(tmp_path / "aug.jsonl")): 50,
        ("parse", "--in", str(maze)): 1,
        ("solve", "--in", str(maze)): 1,
        # the whole pool on read; build_suite's renders of the 10 chosen do not audit
        ("bench", "build", "--pool", str(pool), "--easy", "3", "--medium", "4", "--hard", "3",
         "--out", str(tmp_path / "suite.jsonl")): 50,
    }
    counts = {}
    for argv in expected:
        audits.clear()
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        counts[argv] = len(audits)
    assert counts == expected


@pytest.fixture
def lookups(monkeypatch):
    """Calls of ``core._index``, counted at each mazekit module that bound the name, and of ``Maze.in_bounds``."""
    index, in_bounds = core._index, core.Maze.in_bounds
    calls = {"_index": 0, "in_bounds": 0}

    def counting_index(m, p):
        calls["_index"] += 1
        return index(m, p)

    def counting_in_bounds(self, p):
        calls["in_bounds"] += 1
        return in_bounds(self, p)

    for name, module in list(sys.modules.items()):
        if name.startswith("mazekit") and getattr(module, "_index", None) is index:
            monkeypatch.setattr(module, "_index", counting_index)
    monkeypatch.setattr(core.Maze, "in_bounds", counting_in_bounds)
    return calls


def test_build_walks_step_text_without_looking_cells_up(capsys, tmp_path, lookups):
    """Step text follows each walk's moves from the origin, and the attempts
    index the solution's cells by arithmetic, so no cell of a walk goes back
    through a bounds-checked lookup."""
    out = tmp_path / "ds"
    code, _, err = run(capsys, "build-dataset", "--scale", "400", "--seed", "0", "--out", str(out))
    assert code == 0, err
    manifest = json.loads((out / "manifest.json").read_text())
    pool = manifest["plan"]["total_pool"] + manifest.get("top_up", 0)
    # 15.79 and 22.77 per pool maze when the step text looked up each walk's cells
    assert lookups["_index"] / pool <= 2.2
    assert lookups["in_bounds"] / pool <= 9.0


def test_reward_batch(capsys, tmp_path):
    pairs = tmp_path / "pairs.jsonl"
    out = tmp_path / "rewards.jsonl"
    golden = GOLDEN_PATH.read_text(encoding="utf-8")
    m = parse_maze_tokens(golden)
    solving = "<think>plan</think>" + render_move_tokens(solve_shortest_path(m).moves)
    with pairs.open("w") as fh:
        fh.write(json.dumps({"id": "good", "maze_tokens": golden, "output": solving}) + "\n")
        fh.write(json.dumps({"id": "bad", "maze_tokens": golden, "output": "<|up|>"}) + "\n")
    code, _, _ = run(capsys, "reward", "--pairs", str(pairs), "--advantages", "--out", str(out))
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows[0]["id"] == "good"
    assert rows[0]["total"] == pytest.approx(3.75)
    assert rows[1]["total"] == pytest.approx(0.5)
    assert rows[0]["advantage"] == pytest.approx(1.0, abs=1e-6)
    assert rows[1]["advantage"] == pytest.approx(-1.0, abs=1e-6)


def test_reward_advantages_are_per_maze(capsys, tmp_path):
    """Each row is normalized within the rows of its own maze (GRPO's group
    for one prompt), so a correct answer scores +1 whatever its length; one
    file-wide group gave -0.494, -0.618, +1.73 and -0.618 here."""
    pairs, out = tmp_path / "pairs.jsonl", tmp_path / "rewards.jsonl"
    rows = []
    for seed, steps in [(5, 1), (81, 19)]:
        m = generate_solved_maze(GenConfig(5, 5, seed))
        moves = solve_shortest_path(m).moves
        assert len(moves) == steps
        text = render_maze_tokens(m)
        rows += [{"maze_tokens": text, "output": f"<think>\n</think>\n{render_move_tokens(moves)}"},
                 {"maze_tokens": text, "output": "<think>\n</think>\n"}]
    pairs.write_text("".join(json.dumps(row) + "\n" for row in rows))
    code, _, err = run(capsys, "reward", "--pairs", str(pairs), "--advantages", "--out", str(out))
    assert code == 0, err
    scored = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["total"] for row in scored] == pytest.approx([0.95, 0.25, 13.55, 0.25])
    assert [row["advantage"] for row in scored] == pytest.approx([1.0, -1.0, 1.0, -1.0], abs=1e-6)


def test_reward_rows_leave_shared_breakdowns_alone(capsys, tmp_path):
    """Outputs with one outcome share a breakdown, so each row is a new dict: the
    advantage written into one row reaches neither the other row nor the breakdown."""
    pairs, out = tmp_path / "pairs.jsonl", tmp_path / "rewards.jsonl"
    golden = GOLDEN_PATH.read_text(encoding="utf-8")
    m = parse_maze_tokens(golden)
    solving = render_move_tokens(solve_shortest_path(m).moves)
    rows = [{"id": "a", "maze_tokens": golden, "output": "<think></think>"}, {"maze_tokens": golden, "output": solving},
            {"id": "b", "maze_tokens": golden, "output": "<think>other</think>"}]
    pairs.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert run(capsys, "reward", "--pairs", str(pairs), "--advantages", "--out", str(out))[0] == 0
    scored = [json.loads(line) for line in out.read_text().splitlines()]
    assert [list(row) for row in scored] == [
        ["id", "correctness", "integrity", "thinking", "total", "advantage"],
        ["correctness", "integrity", "thinking", "total", "advantage"],
        ["id", "correctness", "integrity", "thinking", "total", "advantage"],
    ]
    assert scored[0]["advantage"] == scored[2]["advantage"] == pytest.approx(-2 ** -0.5, abs=1e-6)
    shared = total_reward(m, "<think></think>")
    assert shared is total_reward(m, "<think>other</think>")
    assert vars(shared) == {"correctness": 0.0, "integrity": 0.0, "thinking": 0.25}


def test_trend_fits_points(capsys, tmp_path):
    csv = tmp_path / "fig.csv"
    pts = [(0, 86), (1, 86), (2, 91), (3, 91), (4, 88), (5, 92), (6, 89), (7, 91), (8, 93), (9, 92), (10, 90)]
    for head in ("step,score\n", "\n\nstep,score\n"):  # the header is the first non-blank line
        csv.write_text(head + "\n".join(f"{x},{y}" for x, y in pts) + "\n")
        code, out, _ = run(capsys, "trend", "--points", str(csv))
        assert code == 0
        fit = json.loads(out)
        assert fit["slope"] == pytest.approx(0.4636, abs=1e-3)
        assert fit["intercept"] == pytest.approx(87.5909, abs=1e-3)


def test_bench_build_renders_each_entry_once(capsys, tmp_path, monkeypatch):
    from mazekit import bench, cli, tokens

    pool = tmp_path / "pool.jsonl"
    suite = tmp_path / "suite.jsonl"
    run(capsys, "generate", "--count", "400", "--seed", "11", "--out", str(pool))
    rendered = []

    def counting(m):
        rendered.append(m)
        return tokens.render_maze_tokens(m)

    for module in (bench, cli):
        monkeypatch.setattr(module, "render_maze_tokens", counting)
    code, _, _ = run(capsys, "bench", "build", "--pool", str(pool), "--seed", "7", "--out", str(suite))
    assert code == 0
    rows = [json.loads(line) for line in suite.read_text().splitlines()]
    assert len(rendered) == len(rows) == 100
    assert [tokens.render_maze_tokens(m) for m in rendered] == [row["maze_tokens"] for row in rows]


def test_build_dataset_explicit_counts(capsys, tmp_path):
    outdir = tmp_path / "ds"
    code, _, _ = run(capsys, "build-dataset", "--seed", "6",
                     "--pool", "80", "--test", "8", "--sft-straight", "25",
                     "--sft-retry", "25", "--grpo", "20", "--out", str(outdir))
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["records"] == {"test": 8, "sft": 50, "grpo": 20}
    assert len(read_records(str(outdir / "sft.jsonl"), strict=True)) == 50


def test_build_and_augment_make_one_record_per_maze(capsys, tmp_path):
    """A built record is the augment record of its pool maze, seed aside, or
    for a retry maze built straight, that record with the solution text alone."""
    pool, augmented, built = tmp_path / "pool.jsonl", tmp_path / "augmented.jsonl", tmp_path / "built"
    assert run(capsys, "generate", "--seed", "21", "--count", "60", "--out", str(pool))[0] == 0
    assert run(capsys, "augment", "--in", str(pool), "--seed", "5", "--out", str(augmented))[0] == 0
    assert run(capsys, "build-dataset", "--seed", "21", "--aug-seed", "5", "--pool", "60", "--test", "10",
               "--sft-straight", "15", "--sft-retry", "15", "--grpo", "15", "--out", str(built))[0] == 0
    by_index = {int(r.id[:6]): r for r in read_records(str(augmented))}
    same_kind = straight_of_retry = 0
    for name in ("test", "sft", "grpo"):
        for r in read_records(str(built / f"{name}.jsonl")):
            i = int(r.id[:6])
            a = by_index[i]
            assert (r.seed, a.seed) == (derive_seed(21, i), derive_seed(5, i))
            if r.kind is a.kind:
                assert replace(r, seed=a.seed) == a
                same_kind += 1
                continue
            assert (r.kind, a.kind) == (RecordKind.STRAIGHT_SUCCESS, RecordKind.RETRY)
            solution_only = "<think>\n" + a.completion.rsplit(f"{RESET_MARKER}\n", 1)[1]
            straight = replace(a, id=a.id.replace("-retry", "-straight"), kind=r.kind, completion=solution_only)
            assert replace(r, seed=a.seed) == straight
            straight_of_retry += 1
    assert (same_kind, straight_of_retry) == (25, 30)


def test_build_dataset_byte_identical(capsys, tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    args = ["build-dataset", "--seed", "6", "--pool", "60", "--test", "6",
            "--sft-straight", "20", "--sft-retry", "20", "--grpo", "14"]
    run(capsys, *args, "--out", str(d1))
    run(capsys, *args, "--out", str(d2))
    for name in ("test.jsonl", "sft.jsonl", "grpo.jsonl", "manifest.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_errors_exit_nonzero(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "--in", str(tmp_path / "missing.txt"))
    assert code == 1
    assert "error:" in err

    bad = tmp_path / "bad.txt"
    bad.write_text("<|0-0|><|no_wall|><|blank|>")
    code, _, err = run(capsys, "solve", "--in", str(bad))
    assert code == 1
    assert "error:" in err


def test_generate_checks_config_before_the_loop(capsys, tmp_path):
    out = tmp_path / "pool.jsonl"
    code, _, err = run(capsys, "generate", "--count", "0", "--width", "1", "--out", str(out))
    assert code == 1
    assert "at least 2x2" in err
    assert not out.exists()


def test_generate_rejects_negative_count(capsys, tmp_path):
    out = tmp_path / "pool.jsonl"
    code, _, err = run(capsys, "generate", "--count", "-3", "--out", str(out))
    assert code == 1
    assert "error: --count must be non-negative, got -3" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--min-steps", "-4", "--max-steps", "-1"], "error: max_steps -1 is below 1"),
        (["--width", "3", "--height", "3", "--min-steps", "9"], "error: min_steps 9 exceeds 8"),
    ],
)
def test_generate_rejects_step_bounds_no_path_meets(capsys, tmp_path, monkeypatch, argv, message):
    def no_pool(*args):
        raise AssertionError("the pool loop ran")

    monkeypatch.setattr(cli, "solved_pool", no_pool)
    out = tmp_path / "pool.jsonl"
    code, _, err = run(capsys, "generate", "--count", "1", *argv, "--out", str(out))
    assert code == 1
    assert message in err
    assert not out.exists()


def test_tokenize_names_an_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out, err = run(capsys, "tokenize", "--in", str(empty))
    assert (code, out) == (1, "")
    assert err == f"error: {empty}: no rows to tokenize\n"


# (to_file, preview); the ids of the --preview cases are their to_file values
@pytest.mark.parametrize(
    "to_file, preview",
    [
        pytest.param(False, True, id="False"),
        pytest.param(True, True, id="True"),
        pytest.param(False, False, id="False-no-preview"),
        pytest.param(True, False, id="True-no-preview"),
    ],
)
def test_tokenize_preview_rejects_a_bad_row_before_any_output(capsys, tmp_path, to_file, preview):
    """With or without --preview, tokenize parses the row before it copies it."""
    rows = _jsonl(tmp_path / "bad.jsonl", {"maze_tokens": "<|0-0|>junk"})
    maze = tmp_path / "maze.txt"
    argv = ["tokenize", "--in", rows, "--index", "0"] + ["--preview"] * preview + ["--out", str(maze)] * to_file
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {rows}: line 1: maze_tokens do not parse: ")
    assert not maze.exists()


def test_reward_advantages_names_an_empty_file(capsys, tmp_path):
    empty = _text(tmp_path / "empty.jsonl", "")
    out = tmp_path / "rewards.jsonl"
    code, stdout, err = run(capsys, "reward", "--pairs", empty, "--advantages", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == f"error: {empty}: no rows to score\n"
    assert not out.exists()
    # without --advantages an empty file still scores to an empty output
    assert run(capsys, "reward", "--pairs", empty, "--out", str(out))[0] == 0
    assert out.read_text() == ""


@pytest.mark.parametrize("flag", ["--pool", "--test", "--sft-straight", "--sft-retry", "--grpo"])
def test_build_dataset_rejects_scale_with_explicit_counts(capsys, tmp_path, flag):
    out = tmp_path / "ds"
    code, _, err = run(capsys, "build-dataset", "--scale", "400", flag, "5", "--out", str(out))
    assert code == 1
    assert "error: give --scale or --pool/--test/--sft-straight/--sft-retry/--grpo, not both" in err
    assert not out.exists()


def test_build_dataset_requires_plan(capsys, tmp_path):
    code, _, err = run(capsys, "build-dataset", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "--scale" in err


def test_out_dir_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MAZEKIT_OUT_DIR", str(tmp_path / "sandbox"))
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "generate", "--count", "2", "--seed", "1", "--out", "pool.jsonl")
    assert code == 0
    assert (tmp_path / "sandbox" / "pool.jsonl").exists()
    assert not (tmp_path / "pool.jsonl").exists()
    # absolute paths win over the env var
    absolute = tmp_path / "abs.jsonl"
    run(capsys, "generate", "--count", "2", "--seed", "1", "--out", str(absolute))
    assert absolute.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--help"],
        ["tokenize", "--help"],
        ["parse", "--help"],
        ["solve", "--help"],
        ["augment", "--help"],
        ["build-dataset", "--help"],
        ["bench", "build", "--help"],
        ["bench", "run", "--help"],
        ["reward", "--help"],
        ["trend", "--help"],
    ],
)
def test_help_screens(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out

def _jsonl(path, *rows):
    """Write rows as JSONL; a None row becomes a blank line."""
    path.write_text("".join(("" if r is None else json.dumps(r)) + "\n" for r in rows))
    return str(path)


def _text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _bytes(path, data):
    path.write_bytes(data)
    return str(path)


def _bad_row_cases(tmp_path):
    golden = GOLDEN_PATH.read_text(encoding="utf-8")
    entry = {"id": GOLDEN_ID, "difficulty": "medium", "steps": 5, "maze_tokens": golden}
    solution = "<|left|><|down|><|right|><|down|><|right|>"
    pair = {"id": "a", "maze_tokens": golden, "output": solution}
    walled_in = "<|0-0|><|up_down_left_right_wall|><|origin|><|0-1|><|up_down_left_right_wall|><|target|>"
    corridor = "".join(  # 1x15, origin and target at its two ends: 14 steps
        f"<|0-{c}|><|up_down{'_left' if c == 0 else ''}{'_right' if c == 14 else ''}_wall|>"
        + ("<|origin|>" if c == 0 else "<|target|>" if c == 14 else "<|blank|>")
        for c in range(15)
    )
    # parses, but (0,0) lacks its up wall, so rendering it again would fail
    gap = golden.replace("<|up_left_wall|>", "<|left_wall|>", 1)
    suite = _jsonl(tmp_path / "suite.jsonl", entry)
    report = str(tmp_path / "report.json")
    out = str(tmp_path / "out.jsonl")
    return {
        "tokenize-no-maze_tokens": (
            ["tokenize", "--in", _jsonl(tmp_path / "t.jsonl", {"id": "x"}), "--index", "0"],
            "t.jsonl: line 1: missing field 'maze_tokens'",
        ),
        "suite-row-without-id": (
            ["bench", "run", "--suite", _jsonl(tmp_path / "s.jsonl", {k: entry[k] for k in entry if k != "id"}),
             "--outputs", _jsonl(tmp_path / "o1.jsonl"), "--report", report],
            "s.jsonl: line 1: missing field 'id'",
        ),
        "reward-non-string-maze_tokens": (
            ["reward", "--pairs", _jsonl(tmp_path / "r1.jsonl", {"maze_tokens": 5, "output": ""}),
             "--out", out],
            "r1.jsonl: line 1: field 'maze_tokens' must be str",
        ),
        "pool-after-blank-lines": (
            ["augment", "--in", _jsonl(tmp_path / "p.jsonl", {"maze_tokens": golden}, None, None,
                                       {"maze_tokens": "<|0-0|>"}), "--out", out],
            "p.jsonl: line 4: maze_tokens do not parse",
        ),
        "outputs-after-blank-lines": (
            ["bench", "run", "--suite", suite, "--outputs",
             _jsonl(tmp_path / "o2.jsonl", {"id": GOLDEN_ID, "output": ""}, None, None, {"id": "b"}),
             "--report", report],
            "o2.jsonl: line 4: missing field 'output'",
        ),
        "pairs-after-blank-lines": (
            ["reward", "--pairs", _jsonl(tmp_path / "r2.jsonl", None, None, {"maze_tokens": golden}),
             "--out", out],
            "r2.jsonl: line 3: missing field 'output'",
        ),
        "outputs-repeated-id": (
            ["bench", "run", "--suite", suite, "--outputs",
             _jsonl(tmp_path / "o3.jsonl", {"id": GOLDEN_ID, "output": solution}, None,
                    {"id": GOLDEN_ID, "output": ""}),
             "--report", report],
            f"o3.jsonl: line 3: id '{GOLDEN_ID}' repeats line 1",
        ),
        "suite-repeated-id": (
            ["bench", "run", "--suite", _jsonl(tmp_path / "s8.jsonl", entry, None, entry),
             "--outputs", _jsonl(tmp_path / "o10.jsonl"), "--report", report],
            f"s8.jsonl: line 3: id '{GOLDEN_ID}' repeats line 1",
        ),
        "suite-unknown-difficulty": (
            ["bench", "run", "--suite", _jsonl(tmp_path / "s2.jsonl", {**entry, "difficulty": "extreme"}),
             "--outputs", _jsonl(tmp_path / "o4.jsonl"), "--report", report],
            "s2.jsonl: line 1: difficulty 'extreme' does not match 5 steps ('medium')",
        ),
        "suite-steps-not-solved-length": (
            ["bench", "run", "--suite", _jsonl(tmp_path / "s3.jsonl", entry, {**entry, "steps": 99}),
             "--outputs", _jsonl(tmp_path / "o5.jsonl"), "--report", report],
            "s3.jsonl: line 2: steps 99 does not match the maze's 5-step solution",
        ),
        "suite-difficulty-not-band": (
            ["bench", "run", "--suite", _jsonl(tmp_path / "s4.jsonl", {**entry, "difficulty": "hard"}),
             "--outputs", _jsonl(tmp_path / "o6.jsonl"), "--report", report],
            "s4.jsonl: line 1: difficulty 'hard' does not match 5 steps ('medium')",
        ),
        "suite-id-not-maze_id": (
            ["bench", "run", "--suite", _jsonl(tmp_path / "s7.jsonl", entry, {**entry, "id": "a"}),
             "--outputs", _jsonl(tmp_path / "o9.jsonl"), "--report", report],
            f"s7.jsonl: line 2: field 'id' 'a' is not the maze's id '{GOLDEN_ID}'",
        ),
        "suite-unreachable-target": (
            ["bench", "run", "--suite", _jsonl(tmp_path / "s5.jsonl", {**entry, "maze_tokens": walled_in}),
             "--outputs", _jsonl(tmp_path / "o7.jsonl"), "--report", report],
            "s5.jsonl: line 1: target Position(row=0, col=1) unreachable",
        ),
        "suite-steps-outside-bands": (
            ["bench", "run", "--suite", _jsonl(tmp_path / "s6.jsonl", {**entry, "maze_tokens": corridor}),
             "--outputs", _jsonl(tmp_path / "o8.jsonl"), "--report", report],
            "s6.jsonl: line 1: step count 14 is outside the 1..13 difficulty bands",
        ),
        "augment-invalid-maze": (
            ["augment", "--in", _jsonl(tmp_path / "p2.jsonl", {"maze_tokens": golden}, {"maze_tokens": gap}),
             "--out", out],
            "p2.jsonl: line 2: invalid maze: perimeter gap: (0,0) lacks an up wall",
        ),
        "bench-build-invalid-maze": (
            ["bench", "build", "--pool", _jsonl(tmp_path / "p3.jsonl", {"maze_tokens": golden}, {"maze_tokens": gap}),
             "--out", out],
            "p3.jsonl: line 2: invalid maze: perimeter gap: (0,0) lacks an up wall",
        ),
        "parse-invalid-maze": (
            ["parse", "--in", _text(tmp_path / "gap1.txt", gap)],
            "gap1.txt: invalid maze: perimeter gap: (0,0) lacks an up wall",
        ),
        "solve-invalid-maze": (
            ["solve", "--in", _text(tmp_path / "gap2.txt", gap)],
            "gap2.txt: invalid maze: perimeter gap: (0,0) lacks an up wall",
        ),
        "parse-bad-token": (
            ["parse", "--in", _text(tmp_path / "bad1.txt", golden.replace("<|0-0|>", "<|0-9|>", 1))],
            "bad1.txt: coordinate token '<|0-9|>' does not match grid position (0,0)",
        ),
        "solve-bad-token": (
            ["solve", "--in", _text(tmp_path / "bad2.txt", golden.replace("<|0-0|>", "<|0-9|>", 1))],
            "bad2.txt: coordinate token '<|0-9|>' does not match grid position (0,0)",
        ),
        # text mode ends a line at \r\n, \n or a lone \r, and the line named counts them so
        "tokenize-not-utf8": (
            ["tokenize", "--in", _bytes(tmp_path / "u1.jsonl", json.dumps({"maze_tokens": golden}).encode()
                                        + b"\r\n\xff\n")],
            "u1.jsonl: line 2: not UTF-8: invalid start byte",
        ),
        "augment-gzip-not-utf8": (
            ["augment", "--in", _bytes(tmp_path / "u2.jsonl.gz", gzip.compress(b"\n\n{\"id\": \"\xe2\x82\"}\n")),
             "--out", out],
            "u2.jsonl.gz: line 3: not UTF-8: invalid continuation byte",
        ),
        "trend-not-utf8": (
            ["trend", "--points", _bytes(tmp_path / "u3.csv", b"step,score\r1,2\n3,\xe2\x82")],
            "u3.csv: line 3: not UTF-8: unexpected end of data",
        ),
        "trend-second-header": (
            ["trend", "--points", _text(tmp_path / "h.csv", "\n\nstep,score\nstep,score\n1,2\n3,4\n")],
            "h.csv: line 4: values are not numeric",
        ),
        "parse-not-utf8": (
            ["parse", "--in", _bytes(tmp_path / "u4.txt", golden.encode().replace(b"<|1-0|>", b"<|1-0\xff|>"))],
            "u4.txt: line 2: not UTF-8: invalid start byte",
        ),
        "reward-lone-surrogate-id": (
            ["reward", "--pairs", _jsonl(tmp_path / "r3.jsonl", {"id": "a", "maze_tokens": golden, "output": ""},
                                         {"id": "\ud800", "maze_tokens": golden, "output": ""}), "--out", out],
            "r3.jsonl: line 2: field 'id' is not UTF-8 text: surrogates not allowed",
        ),
        # json.loads rejects these with a ValueError that is not a JSONDecodeError, and a RecursionError
        "reward-integer-past-digit-limit": (
            ["reward", "--pairs", _text(tmp_path / "r4.jsonl", '\n{"id": ' + "9" * 5000 + "}\n"),
             "--out", out],
            "r4.jsonl: line 2: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion",
        ),
        "reward-nested-too-deep": (
            ["reward", "--pairs", _text(tmp_path / "r5.jsonl", "[" * 200_000 + "\n"), "--out", out],
            "r5.jsonl: line 1: invalid JSON: maximum recursion depth exceeded",
        ),
        # only " \t\r\n" is JSON whitespace: a no-break space and a form feed around a row, or a lone
        # file separator (a line boundary to str.splitlines, not to a text file), are not JSON
        "reward-row-in-unicode-spaces": (
            ["reward", "--pairs", _text(tmp_path / "r6.jsonl", "\n\xa0" + json.dumps(pair) + "\x0c\n"), "--out", out],
            "r6.jsonl: line 2: invalid JSON: Expecting value: line 1 column 1 (char 0)",
        ),
        "reward-file-separator-line": (
            ["reward", "--pairs", _text(tmp_path / "r7.jsonl", json.dumps(pair) + "\n\x1c\n"), "--out", out],
            "r7.jsonl: line 2: invalid JSON: Expecting value: line 1 column 1 (char 0)",
        ),
    }


@pytest.mark.parametrize(
    "case",
    [
        "tokenize-no-maze_tokens",
        "suite-row-without-id",
        "reward-non-string-maze_tokens",
        "pool-after-blank-lines",
        "outputs-after-blank-lines",
        "pairs-after-blank-lines",
        "outputs-repeated-id",
        "suite-repeated-id",
        "suite-unknown-difficulty",
        "suite-steps-not-solved-length",
        "suite-difficulty-not-band",
        "suite-id-not-maze_id",
        "suite-unreachable-target",
        "suite-steps-outside-bands",
        "augment-invalid-maze",
        "bench-build-invalid-maze",
        "parse-invalid-maze",
        "solve-invalid-maze",
        "parse-bad-token",
        "solve-bad-token",
        "tokenize-not-utf8",
        "augment-gzip-not-utf8",
        "trend-not-utf8",
        "trend-second-header",
        "parse-not-utf8",
        "reward-lone-surrogate-id",
        "reward-integer-past-digit-limit",
        "reward-nested-too-deep",
        "reward-row-in-unicode-spaces",
        "reward-file-separator-line",
    ],
)
def test_bad_row_names_file_line(capsys, tmp_path, case):
    argv, message = _bad_row_cases(tmp_path)[case]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert f"error: {tmp_path}/{message}" in err


def _whole_file_cases(tmp_path):
    golden = GOLDEN_PATH.read_text(encoding="utf-8")  # a 5-step, medium maze
    rows = "".join(json.dumps({"id": str(i), "maze_tokens": golden, "output": ""}) + "\n" for i in range(50))
    packed = gzip.compress(rows.encode(), mtime=0)  # 600 bytes
    return {
        "reward-gzip-cut-short": (
            ["reward", "--pairs", _bytes(tmp_path / "cut.jsonl.gz", packed[:300]), "--out", str(tmp_path / "r.jsonl")],
            "cut.jsonl.gz: corrupt gzip file: Compressed file ended before the end-of-stream marker was reached",
        ),
        "tokenize-gzip-scrambled": (
            ["tokenize", "--in", _bytes(tmp_path / "xor.jsonl.gz",
                                        packed[:40] + bytes(b ^ 0x5A for b in packed[40:200]) + packed[200:])],
            "xor.jsonl.gz: corrupt gzip file: Error -3 while decompressing data: invalid code -- missing end-of-block",
        ),
        "bench-run-gzip-not-gzip": (
            ["bench", "run", "--suite", _text(tmp_path / "plain.jsonl.gz", "not gzip\n"),
             "--outputs", _jsonl(tmp_path / "o.jsonl"), "--report", str(tmp_path / "report.json")],
            "plain.jsonl.gz: corrupt gzip file: Not a gzipped file (b'no')",
        ),
        "tokenize-index-past-the-rows": (
            ["tokenize", "--in", _jsonl(tmp_path / "one.jsonl", {"maze_tokens": golden}), "--index", "3"],
            "one.jsonl: index 3 outside 0..0",
        ),
        "bench-run-blank-suite": (
            ["bench", "run", "--suite", _jsonl(tmp_path / "blank.jsonl", None, None),
             "--outputs", _jsonl(tmp_path / "o.jsonl"), "--report", str(tmp_path / "report.json")],
            "blank.jsonl: cannot evaluate an empty suite",
        ),
        "trend-one-point": (
            ["trend", "--points", _text(tmp_path / "one.csv", "step,score\n1,2\n")],
            "one.csv: fit_trendline requires at least two points",
        ),
        "trend-constant-x": (
            ["trend", "--points", _text(tmp_path / "flat.csv", "1,2\n1,3\n")],
            "flat.csv: fit_trendline requires non-constant x values",
        ),
        "bench-build-pool-short": (
            ["bench", "build", "--pool", _jsonl(tmp_path / "small.jsonl", {"maze_tokens": golden}),
             "--easy", "4", "--medium", "0", "--hard", "0", "--out", str(tmp_path / "suite.jsonl")],
            "small.jsonl: pool cannot fill the suite: easy short by 4",
        ),
    }


@pytest.mark.parametrize(
    "case",
    ["tokenize-index-past-the-rows", "bench-run-blank-suite", "trend-one-point", "trend-constant-x",
     "bench-build-pool-short", "reward-gzip-cut-short", "tokenize-gzip-scrambled", "bench-run-gzip-not-gzip"],
)
def test_whole_file_error_names_the_file(capsys, tmp_path, case):
    argv, message = _whole_file_cases(tmp_path)[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    # bench build echoes its seed first; the error is the last line
    assert err.splitlines()[-1] == f"error: {tmp_path}/{message}"
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "suite.jsonl").exists()


def test_bench_build_rejects_negative_quota(capsys, tmp_path):
    pool = tmp_path / "pool.jsonl"
    suite = tmp_path / "suite.jsonl"
    run(capsys, "generate", "--count", "5", "--seed", "1", "--out", str(pool))
    code, _, err = run(capsys, "bench", "build", "--pool", str(pool), "--easy", "-1",
                       "--medium", "0", "--hard", "0", "--out", str(suite))
    assert code == 1
    assert "non-negative" in err
    assert not suite.exists()


def test_tokenize_reads_the_rows_past_the_index(capsys, tmp_path):
    """tokenize keeps only the picked row, but still reads every row, so a bad one after it fails."""
    golden = GOLDEN_PATH.read_text(encoding="utf-8")
    rows = _text(tmp_path / "pool.jsonl", json.dumps({"maze_tokens": golden}) + "\n\n{not json\n")
    code, out, err = run(capsys, "tokenize", "--in", rows, "--index", "0")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {rows}: line 3: invalid JSON: ")


def test_generate_preview_prints_the_first_maze_of_the_pinned_pool(capsys, tmp_path):
    pool = tmp_path / "pool.jsonl"
    code, out, _ = run(capsys, "generate", "--count", "500", "--seed", "7", "--preview", "--out", str(pool))
    assert code == 0
    first = json.loads(pool.read_text(encoding="utf-8").splitlines()[0])
    assert out == ascii_preview(parse_maze_tokens(first["maze_tokens"])) + "\n"
    assert sha256(pool) == POOL_DIGEST


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["generate", "tokenize", "reward", "bench-run"])
def test_a_failed_output_write_names_the_output_path(capsys, tmp_path, command, target):
    """The error names the path given, not the hidden temp file beside it, and no temp file is left."""
    golden = GOLDEN_PATH.read_text(encoding="utf-8")
    solution = "<|left|><|down|><|right|><|down|><|right|>"
    if target == "directory":
        path, reason = tmp_path / "out", "[Errno 21] Is a directory"
        path.mkdir()
    else:
        path, reason = tmp_path / "nodir" / "out", "[Errno 2] No such file or directory"
    argv = {
        "generate": ["generate", "--count", "3", "--out", str(path)],
        "tokenize": ["tokenize", "--in", _jsonl(tmp_path / "pool.jsonl", {"maze_tokens": golden}), "--out", str(path)],
        "reward": ["reward", "--pairs", _jsonl(tmp_path / "pairs.jsonl", {"maze_tokens": golden, "output": solution}),
                   "--out", str(path)],
        "bench-run": ["bench", "run",
                      "--suite", _jsonl(tmp_path / "suite.jsonl",
                                        {"id": GOLDEN_ID, "difficulty": "medium", "steps": 5, "maze_tokens": golden}),
                      "--outputs", _jsonl(tmp_path / "outputs.jsonl", {"id": GOLDEN_ID, "output": solution}),
                      "--report", str(path)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"error: {reason}: '{path}'"
    assert list(tmp_path.rglob("*.tmp")) == []


FILES = ["grpo.jsonl", "manifest.json", "sft.jsonl", "test.jsonl"]


def _digests(outdir):
    return {p.name: sha256(p) for p in outdir.iterdir() if p.is_file()}


@pytest.fixture
def seed_1_build(capsys, tmp_path):
    """``build-dataset --scale 400 --seed 1`` into tmp_path/ds, and its files' digests."""
    ds = tmp_path / "ds"
    assert run(capsys, "build-dataset", "--scale", "400", "--seed", "1", "--out", str(ds))[0] == 0
    old = _digests(ds)
    assert sorted(old) == FILES
    assert [old[name][:8] for name in ("test.jsonl", "sft.jsonl", "grpo.jsonl")] == ["5246e311", "c81c405e", "8dd7d8d1"]
    return ds, old


def test_a_build_that_cannot_replace_a_file_replaces_none(capsys, seed_1_build):
    """With sft.jsonl made a directory, a --seed 2 build into the same directory
    fails before it replaces test.jsonl, so no file mixes the two runs."""
    ds, old = seed_1_build
    (ds / "sft.jsonl").unlink()
    (ds / "sft.jsonl").mkdir()
    code, _, err = run(capsys, "build-dataset", "--scale", "400", "--seed", "2", "--out", str(ds))
    assert (code, err.splitlines()[-1]) == (1, f"error: [Errno 21] Is a directory: '{ds / 'sft.jsonl'}'")
    del old["sft.jsonl"]
    assert _digests(ds) == old
    assert sorted(p.name for p in ds.iterdir()) == FILES


def test_a_build_that_fails_while_writing_leaves_the_old_files(capsys, monkeypatch, seed_1_build):
    """A write that fails after test.jsonl is written replaces no file, removes
    every temp file and names the file it was writing, not its temp file."""
    ds, old = seed_1_build
    written = []

    def failing(records, path):
        if written:  # the second split, sft
            raise OSError(28, "No space left on device", path)
        written.append(path)
        return dataset.write_records(records, path)

    monkeypatch.setattr(cli, "write_records", failing)
    code, _, err = run(capsys, "build-dataset", "--scale", "400", "--seed", "2", "--out", str(ds))
    assert (code, err.splitlines()[-1]) == (1, f"error: [Errno 28] No space left on device: '{ds / 'sft.jsonl'}'")
    assert _digests(ds) == old
    assert sorted(p.name for p in ds.iterdir()) == FILES
