"""The benchmark's own checks at smoke size: outputs that ``perfbench`` would
reject fail here too.  A traced run rebinds every name in ``spans.TARGETS``,
so a package change that drops one of them fails here as well."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["nonuniq-fine", "ecf-coarse", "dynkin-grid", "uniqueness-audit"]


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_smoke_is_correct(workload):
    _smoke(workload, trace=0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_smoke_traced_is_correct(workload):
    _smoke(workload, trace=1)
