"""The benchmark's output gates, run with the test suite.

bench/run.py checks every design and fold a workload makes.  Each
workload BENCHMARK.json declares runs here for a moment, untraced and
traced, and must report its outputs correct and no operation failed.
The traced pass also replays its operations untraced and must match
them record for record; for cli-jobs2 it checks as well that --jobs 1
and --jobs 2 print the same designs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload, trace", [
    pytest.param(w["name"], trace, id=w["name"] + ("-traced" if trace == "1" else ""))
    for w in SPEC["workloads"] for trace in ("0", "1")
])
def test_workload_passes_the_output_gates(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seconds", "0.05", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
