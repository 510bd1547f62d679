"""The CLI loaders fed mutated valid input: ``tokenize``, ``augment``,
``bench build --pool``, ``bench run --suite`` and ``--outputs``,
``reward --pairs`` and ``trend --points``.

A mutation replaces a short span of the file, or of one row's text field,
with JSON punctuation, token pieces or a copy of nearby text (for the
points CSV: number pieces), with bytes that are not UTF-8, or with the JSON
escape of a lone surrogate.  Whatever it does, each run exits 0 with output
that reads back, or exits 1 with ``error: <path>: line N: ...`` for a row
fault or ``error: <path>: ...`` for a fault of the whole file; it never
raises."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mazekit.bench import classify_difficulty, hash16
from mazekit.cli import main
from mazekit.dataset import read_records
from mazekit.generate import GenConfig, generate_solved_maze, solve_shortest_path
from mazekit.tokens import parse_maze_tokens, render_maze_tokens, render_move_tokens

ROWS = [{"seed": seed, "maze_tokens": render_maze_tokens(generate_solved_maze(GenConfig(3, 2, seed)))} for seed in (1, 2)]
SOLUTIONS = [solve_shortest_path(parse_maze_tokens(row["maze_tokens"])) for row in ROWS]
SUITE = [
    {"id": hash16(row["maze_tokens"]), "difficulty": classify_difficulty(sol.steps).value, "steps": sol.steps,
     "maze_tokens": row["maze_tokens"]}
    for row, sol in zip(ROWS, SOLUTIONS)
]
OUTPUTS = [{"id": entry["id"], "output": render_move_tokens(sol.moves)} for entry, sol in zip(SUITE, SOLUTIONS)]
PAIRS = [
    {"id": entry["id"], "maze_tokens": entry["maze_tokens"], "output": f"<think>\nplan\n</think>\n{out['output']}"}
    for entry, out in zip(SUITE, OUTPUTS)
]
POINTS = "step,score\n0,86\n1,86.5\n2,91\n3,-4e1\n"

# raw bytes ride in the text as surrogate escapes (see ``write``): 0xff is never
# UTF-8, and 0xe2 0x82 is the first two of the three bytes of "\u20ac"
RAW_FF, TRUNCATED = "\udcff", "\udce2\udc82"
# JSON structure and escapes, token punctuation, digits and the letters of every token name
ALPHABET = '{}[]":,\\ \n\r<|>-_0123456789abdefghiglnortuw' + RAW_FF
PIECES = ["<|origin|>", "<|target|>", "<|blank|>", "<|no_wall|>", "<|up_wall|>", "<|0-0|>", "|><|", "\\n", "\n",
          TRUNCATED, "\\ud800"]
# the points CSV: number spellings that float() reads or rejects, separators and header text
CSV_ALPHABET = "0123456789.,-+eE_ \t\n\rnaifstp" + RAW_FF
CSV_PIECES = ["nan", "inf", "-inf", "1e308", "-1e308", "e200", "1e999", "1e-320", "0x1", ",", "\n", TRUNCATED]


@st.composite
def mutated(draw, text, alphabet=ALPHABET, pieces=PIECES):
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        k = draw(st.integers(0, len(text)))
        piece = draw(st.text(alphabet, max_size=6) | st.sampled_from(pieces) | st.just(text[k : k + j - i + 1]))
        text = text[:i] + piece + text[j:]
    return text


def _lines(rows):
    return "".join(json.dumps(row) + "\n" for row in rows)


@st.composite
def mutated_file(draw, rows=ROWS, key="maze_tokens"):
    """The JSONL text of rows, mutated either as raw text or inside one row's ``key`` text."""
    rows = [dict(row) for row in rows]
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[key] = draw(mutated(row[key]))
        return _lines(rows)
    return draw(mutated(_lines(rows)))


def write(path, text):
    """Write text as UTF-8, each surrogate escape as the raw byte it stands for."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_named_failure(path, code, err, whole_file=()):
    """Exit 1 naming the file and a line, or one of the ``whole_file`` messages, which name only the file."""
    assert code == 1, err
    assert "Traceback" not in err
    # some commands echo their seed first; the error is the last line
    last = err.splitlines()[-1]
    assert last.startswith(f"error: {path}: "), err
    rest = last.removeprefix(f"error: {path}: ")
    assert re.fullmatch(r"line \d+: .*", rest) or rest.startswith(whole_file), err


@settings(max_examples=300, deadline=None)
@given(mutated_file())
def test_tokenize_exits_0_or_names_the_line(workdir, text):
    path = workdir / "rows.jsonl"
    write(path, text)
    code, out, err = run("tokenize", "--in", str(path), "--preview")
    if code == 0:
        assert parse_maze_tokens(out.removesuffix("\n"))
    else:
        assert_named_failure(str(path), code, err)
        assert out == ""


@settings(max_examples=300, deadline=None)
@given(mutated_file())
def test_augment_exits_0_or_names_the_line(workdir, text):
    path, records = workdir / "rows.jsonl", workdir / "records.jsonl"
    write(path, text)
    records.unlink(missing_ok=True)
    code, _, err = run("augment", "--in", str(path), "--strict", "--out", str(records))
    if code == 0:
        assert read_records(str(records), strict=True)
    else:
        assert_named_failure(str(path), code, err)
        assert not records.exists()


@settings(max_examples=300, deadline=None)
@given(mutated_file())
def test_bench_build_pool_exits_0_or_names_the_file(workdir, text):
    path, suite = workdir / "pool.jsonl", workdir / "suite.jsonl"
    write(path, text)
    suite.unlink(missing_ok=True)
    code, _, err = run("bench", "build", "--pool", str(path), "--easy", "2", "--medium", "0", "--hard", "0",
                       "--out", str(suite))
    if code == 0:
        assert len(suite.read_text(encoding="utf-8").splitlines()) == 2
    else:
        assert_named_failure(str(path), code, err, whole_file=("pool cannot fill the suite: ",))
        assert not suite.exists()


def bench_run(workdir, suite_text, outputs_text):
    suite, outputs, report = workdir / "suite.jsonl", workdir / "outputs.jsonl", workdir / "report.json"
    write(suite, suite_text)
    write(outputs, outputs_text)
    report.unlink(missing_ok=True)
    code, _, err = run("bench", "run", "--suite", str(suite), "--outputs", str(outputs), "--report", str(report))
    if code == 0:
        assert 0.0 <= json.loads(report.read_text(encoding="utf-8"))["overall"] <= 100.0
    else:
        assert not report.exists()
    return code, err, str(suite), str(outputs)


@settings(max_examples=300, deadline=None)
@given(mutated_file(SUITE))
def test_bench_run_suite_exits_0_or_names_the_file(workdir, text):
    code, err, suite, _ = bench_run(workdir, text, _lines(OUTPUTS))
    if code:
        assert_named_failure(suite, code, err, whole_file=("cannot evaluate an empty suite",))


@settings(max_examples=300, deadline=None)
@given(mutated_file(OUTPUTS, "output"))
def test_bench_run_outputs_exits_0_or_names_the_line(workdir, text):
    code, err, _, outputs = bench_run(workdir, _lines(SUITE), text)
    if code:
        assert_named_failure(outputs, code, err)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["id", "maze_tokens", "output"]).flatmap(lambda key: mutated_file(PAIRS, key)))
# a lone surrogate id reads as JSON and fails only at the UTF-8 write: run it every time, not by chance
@example(text=_lines([{**PAIRS[0], "id": "\ud800"}, PAIRS[1]]))
def test_reward_pairs_exits_0_or_names_the_file(workdir, text):
    path, out = workdir / "pairs.jsonl", workdir / "rewards.jsonl"
    write(path, text)
    out.unlink(missing_ok=True)
    code, _, err = run("reward", "--pairs", str(path), "--advantages", "--out", str(out))
    if code == 0:
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert rows and all(set(row) >= {"total", "advantage"} for row in rows)
    else:
        assert_named_failure(str(path), code, err, whole_file=("no rows to score",))
        assert not out.exists()


@settings(max_examples=300, deadline=None)
@given(mutated(POINTS, CSV_ALPHABET, CSV_PIECES))
def test_trend_points_exits_0_or_names_the_file(workdir, text):
    path = workdir / "points.csv"
    write(path, text)
    code, out, err = run("trend", "--points", str(path))
    if code == 0:
        assert set(json.loads(out)) == {"slope", "intercept", "residual_std"}
    else:
        assert_named_failure(str(path), code, err, whole_file=("fit_trendline requires ",))
        assert out == ""
