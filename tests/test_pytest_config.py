"""The pytest settings in pyproject.toml keep a failing Hypothesis test a plain
test failure, so the tests after it still run and report."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_hypothesis_test_is_reported_not_internalerror(tmp_path):
    test_file = tmp_path / "test_fails.py"
    test_file.write_text(FAILING_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", str(test_file)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed" in out
