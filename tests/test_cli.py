import json
import pathlib

import pytest

from mazekit.cli import main
from mazekit.dataset import read_records
from mazekit.generate import solve_shortest_path
from mazekit.tokens import parse_maze_tokens, render_move_tokens

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "example_maze_tokens.txt"


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


def test_trend_fits_points(capsys, tmp_path):
    csv = tmp_path / "fig.csv"
    pts = [(0, 86), (1, 86), (2, 91), (3, 91), (4, 88), (5, 92), (6, 89), (7, 91), (8, 93), (9, 92), (10, 90)]
    csv.write_text("step,score\n" + "\n".join(f"{x},{y}" for x, y in pts) + "\n")
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


def _bad_row_cases(tmp_path):
    golden = GOLDEN_PATH.read_text(encoding="utf-8")
    entry = {"id": "a", "difficulty": "medium", "steps": 5, "maze_tokens": golden}
    solution = "<|left|><|down|><|right|><|down|><|right|>"
    walled_in = "<|0-0|><|up_down_left_right_wall|><|origin|><|0-1|><|up_down_left_right_wall|><|target|>"
    corridor = "".join(  # 1x15, origin and target at its two ends: 14 steps
        f"<|0-{c}|><|up_down{'_left' if c == 0 else ''}{'_right' if c == 14 else ''}_wall|>"
        + ("<|origin|>" if c == 0 else "<|target|>" if c == 14 else "<|blank|>")
        for c in range(15)
    )
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
             _jsonl(tmp_path / "o2.jsonl", {"id": "a", "output": ""}, None, None, {"id": "b"}),
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
             _jsonl(tmp_path / "o3.jsonl", {"id": "a", "output": solution}, None, {"id": "a", "output": ""}),
             "--report", report],
            "o3.jsonl: line 3: id 'a' repeats line 1",
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
        "suite-unknown-difficulty",
        "suite-steps-not-solved-length",
        "suite-difficulty-not-band",
        "suite-unreachable-target",
        "suite-steps-outside-bands",
    ],
)
def test_bad_row_names_file_line(capsys, tmp_path, case):
    argv, message = _bad_row_cases(tmp_path)[case]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert f"error: {tmp_path}/{message}" in err


def test_bench_build_rejects_negative_quota(capsys, tmp_path):
    pool = tmp_path / "pool.jsonl"
    suite = tmp_path / "suite.jsonl"
    run(capsys, "generate", "--count", "5", "--seed", "1", "--out", str(pool))
    code, _, err = run(capsys, "bench", "build", "--pool", str(pool), "--easy", "-1",
                       "--medium", "0", "--hard", "0", "--out", str(suite))
    assert code == 1
    assert "non-negative" in err
    assert not suite.exists()
