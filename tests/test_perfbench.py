"""The benchmark harness runs end to end at tiny sizes, with every output check."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# the work counts of one traced smoke pass at seed 0: residues stepped,
# level-set members, levels and distinct hit-count values
SMOKE_COUNTS = {
    "certify-primorial": (532, 749, 42, 15),
    "certify-dyadic": (256, 266, 8, 37),
}


@pytest.mark.parametrize("workload", ["certify-primorial", "certify-dyadic", "cli-session"])
def test_traced_smoke_pass(workload):
    # the tracer hooks level_set(...).members, the result of hit_fractions
    # and step_measure(...).modulus, so a change to the kernels' shapes that
    # breaks a hook fails here rather than in a traced benchmark run, and a
    # change to the work the pipeline does shows in the exact counts
    proc = subprocess.run(
        [
            sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "0",
            "--check", "1", "--smoke", "--trace", "1", "--seconds", "0.01",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["errors"] == []
    layer = result["per_layer"]
    if workload == "cli-session":
        assert layer["cli.main.calls"] == 13
    else:
        names = ("step_measure.residues", "level_set.members", "levels", "distinct_fractions")
        counts = tuple(layer[f"distortion.{name}"] for name in names)
        assert counts == SMOKE_COUNTS[workload]


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
