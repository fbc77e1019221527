"""The benchmark worker runs every workload against this checkout.

The worker parses instance files, hashes them and calls the estimators the
way `tvbench/run.py` does, so a change to those functions' signatures or
return types shows up here, not first in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "tvbench"
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_worker_runs_the_workload(workload, tmp_path):
    args = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "1", "--seconds", "0"]
    if workload == "cli-small":
        wl.write_cli_files(wl.generate(workload, 1), tmp_path)
        args += ["--cli-dir", str(tmp_path)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["attempted"] > 0 and record["failed"] == 0
