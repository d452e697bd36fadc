"""Smoke run of every benchmark workload against this checkout's src.

Each workload runs for 0.3 s in a fresh process through bench/worker.py,
which checks every output it produces (the workloads' own independent
checks, such as the 4 phi(n) count on enumerate_primitives(16)).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_passes_its_checks(name):
    result = subprocess.run(
        [sys.executable, "bench/worker.py", "measure", name, "1", "0.3"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    assert record["failed"] == 0, record["failures"]
    assert record["violations"] == []
