"""The benchmark harness runs end to end at tiny sizes, with every output check."""

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
