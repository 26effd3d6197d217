"""The benchmark harness runs end to end at tiny sizes, with every output check."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_passes():
    # the harness reads the package's public names and shapes, so a change
    # that breaks them fails here before it fails a benchmark run
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_session_script_in_process(monkeypatch):
    # the cli-session workload's script at smoke size, run twice in one
    # process: the outputs pass the harness's checks and the second run
    # repeats the first
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name in [name for name in os.environ if name.startswith("COVERCERT_")]:
        monkeypatch.delenv(name)
    session = workloads.SMOKE["cli-session"]
    inputs = session.build(1)
    first, calls, failed = session.run_pass(inputs)
    assert (calls, failed) == (len(inputs.ops), 0)
    session.check(inputs, first)
    second, _, _ = session.run_pass(inputs)
    assert second == first
