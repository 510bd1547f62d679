"""Two CLI loaders, ``tokenize`` and ``augment``, fed mutated valid rows.

A mutation replaces a short span of the file, or of one row's maze text,
with JSON punctuation, token pieces or a copy of nearby text.  Whatever it
does, each run exits 0 with output that reads back, or exits 1 with
``error: <path>: line N: ...``; it never raises."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazekit.cli import main
from mazekit.dataset import read_records
from mazekit.generate import GenConfig, generate_solved_maze
from mazekit.tokens import parse_maze_tokens, render_maze_tokens

ROWS = [{"seed": seed, "maze_tokens": render_maze_tokens(generate_solved_maze(GenConfig(3, 2, seed)))} for seed in (1, 2)]

# JSON structure and escapes, token punctuation, digits and the letters of every token name
ALPHABET = '{}[]":,\\ \n\r<|>-_0123456789abdefghiglnortuw'
PIECES = ["<|origin|>", "<|target|>", "<|blank|>", "<|no_wall|>", "<|up_wall|>", "<|0-0|>", "|><|", "\\n", "\n"]


@st.composite
def mutated(draw, text):
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        k = draw(st.integers(0, len(text)))
        piece = draw(st.text(ALPHABET, max_size=6) | st.sampled_from(PIECES) | st.just(text[k : k + j - i + 1]))
        text = text[:i] + piece + text[j:]
    return text


@st.composite
def mutated_file(draw):
    """The JSONL text of ROWS, mutated either as raw text or inside one row's maze text."""
    rows = [dict(row) for row in ROWS]
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row["maze_tokens"] = draw(mutated(row["maze_tokens"]))
        return "".join(json.dumps(row) + "\n" for row in rows)
    return draw(mutated("".join(json.dumps(row) + "\n" for row in rows)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_named_failure(path, code, err):
    assert code == 1, err
    # augment echoes its seed first; the error is the last line
    assert re.fullmatch(rf"error: {re.escape(path)}: line \d+: .*", err.splitlines()[-1]), err
    assert "Traceback" not in err


@settings(max_examples=300, deadline=None)
@given(mutated_file())
def test_tokenize_exits_0_or_names_the_line(workdir, text):
    path = workdir / "rows.jsonl"
    path.write_text(text, encoding="utf-8")
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
    path.write_text(text, encoding="utf-8")
    records.unlink(missing_ok=True)
    code, _, err = run("augment", "--in", str(path), "--strict", "--out", str(records))
    if code == 0:
        assert read_records(str(records), strict=True)
    else:
        assert_named_failure(str(path), code, err)
        assert not records.exists()
