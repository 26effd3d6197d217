"""The example scripts run with their default arguments, and the A/B
benchmark runner runs in smoke mode.

The examples import the public pipeline names (prime_ladder,
default_delta_schedule, certify), so a change to that API that breaks them
fails here.
"""

import importlib.util
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["schedule_sweep.py", "family_demo.py"])
def test_script_runs_with_defaults(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_schedule_sweep_matches_fresh_certificates():
    # one system object under the seven schedules, over four levels, with
    # shared prefixes and exact repeats: each printed eta, verdict and
    # branch line, and the best schedule's lines, are those of certify on a
    # fresh system for that schedule
    from covercert import certify, parse_system, rational_str

    text = "1 mod 2, 0 mod 3, 2 mod 6, 1 mod 5, 3 mod 10, 4 mod 7, 0 mod 21, 5 mod 35"
    script = ROOT / "scripts" / "schedule_sweep.py"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script), "--system", text],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location("schedule_sweep", script)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)

    def fresh():
        return parse_system(text.replace(",", "\n"))

    rows = []
    for name, schedule in sweep.candidate_schedules(fresh()):
        cert = certify(fresh(), schedule)
        branches = "".join("1" if t.branch == "first-moment" else "2" for t in cert.terms)
        rows.append((name, schedule, cert, branches))
    assert len(rows) == 7 and len(rows[0][1]) == 4
    assert len({tuple(schedule) for _, schedule, _, _ in rows}) < len(rows)
    assert {cert.verdict for _, _, cert, _ in rows} == {"NotCovering", "Inconclusive"}
    printed = re.findall(
        r"^ +eta = (\S+) = \S+  verdict = (\S+)  branches = (\d+)$", proc.stdout, re.MULTILINE
    )
    assert printed == [
        (rational_str(cert.eta), cert.verdict, branches) for _, _, cert, branches in rows
    ]
    name, _, best, _ = min(rows, key=lambda row: row[2].eta)
    assert f"best schedule: {name} with eta = {rational_str(best.eta)}" in proc.stdout
    assert f"witness: {best.witness} mod 210 is uncovered" in proc.stdout
    assert best.eta < 1


def _git_checkout_root() -> str | None:
    """The top of the git checkout holding the tests, or None outside one."""
    if shutil.which("git") is None:
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "--verify", "HEAD"],
        capture_output=True, text=True,
    )
    return proc.stdout.splitlines()[0] if proc.returncode == 0 else None


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(
    _git_checkout_root() != str(ROOT), reason="the A/B runner needs a git checkout"
)
def test_ab_smoke_run_against_head(tmp_path):
    # base and change are both HEAD: the base tree is extracted by git
    # archive into a temporary directory, no worktree is added, and each
    # side's checks pass
    worktrees = subprocess.run(["git", "-C", str(ROOT), "worktree", "list"],
                               capture_output=True, text=True).stdout
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), "--base", "HEAD", "--pairs", "1",
         "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    assert report["base"]["commit"] == report["change"]["commit"] == head
    assert report["python"] == platform.python_version()
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert list(report["workloads"]) == names
    for result in report["workloads"].values():
        assert result["base"] == result["change"] == {"correct": True, "failed": 0}
    assert subprocess.run(["git", "-C", str(ROOT), "worktree", "list"],
                          capture_output=True, text=True).stdout == worktrees


def test_ab_summary():
    ab = _load_ab()

    def run(pass_ref, peak, correct=True, failed=0):
        return {"correct": correct, "failed": failed,
                "metrics": {"pass_ref": pass_ref, "peak_rss_mb": peak}}

    declared = [
        {"name": "pass_ref", "unit": "ratio", "better": "lower"},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
        {"name": "setup_s", "unit": "s", "better": "lower"},
    ]
    sides = {
        "base": [run(1.0, 24.4), run(1.1, 24.5), run(0.9, 24.3), run(1.2, 24.4)],
        "change": [run(0.8, 23.3), run(1.2, 23.4), run(0.85, 24.5, failed=2), run(1.0, 23.3)],
    }
    summary = ab.summarize(sides, declared)
    assert summary["base"] == {"correct": True, "failed": 0}
    assert summary["change"] == {"correct": True, "failed": 2}
    assert set(summary["metrics"]) == {"pass_ref", "peak_rss_mb"}  # no run has setup_s
    pass_ref = summary["metrics"]["pass_ref"]
    assert pass_ref["base_median"] == pytest.approx(1.05)
    assert pass_ref["change_median"] == pytest.approx(0.925)
    assert pass_ref["base_quartiles"] == pytest.approx([0.975, 1.125])
    assert (pass_ref["change_better_pairs"], pass_ref["pairs"]) == (3, 4)
    assert summary["metrics"]["peak_rss_mb"]["change_better_pairs"] == 3
    assert summary["runs"] == sides
