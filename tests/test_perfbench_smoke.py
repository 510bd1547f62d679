"""The benchmark runs end to end: each workload imports mazekit through the
names perfbench uses, sets up, checks every output and reports no failure."""

import json
import pathlib
import subprocess
import sys

import pytest

RUN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize(
    "workload,trace", [("build", 0), ("score", 0), ("ingest", 0), ("build", 1)], ids=str
)
def test_perfbench_run_reports_no_failure(workload, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--trace", str(trace), "--seconds", "0.5"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, proc.stderr[-3000:]
