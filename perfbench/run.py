#!/usr/bin/env python3
"""Benchmark of covercert: seeded workloads, whole-pass timings, checked outputs.

  python3 perfbench/run.py --workload certify-primorial --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 the run starts fresh processes (perfbench/worker.py) one after
another: one that sets up, runs the cold pass and checks its outputs, then
WINDOW_PROCESSES that each set up, run the cold pass and run warm passes
for their share of --seconds, with a process that only sets up and runs
the cold pass after every second of them.  Spreading the samples over many
processes and the whole run keeps one slow stretch of the machine from
setting a run's figures.  With --trace 1 one process alternates untraced and traced
warm passes for --seconds and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Median wall times go to standard error for
information; they are too unsteady on a shared machine to gate on (see
README.md).

--smoke runs every workload once at tiny sizes with all output checks and
prints one line per workload.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("certify-primorial", "certify-dyadic", "cli-session")
WINDOW_PROCESSES = 10
RUN_BUDGET_S = 170


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("COVERCERT_")}
    # the program under test sees its defaults: no flag from the environment,
    # Python's default int/str digit limit
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], deadline: float) -> tuple[dict, int]:
    """Run worker.py to the end; return its result and its peak RSS in KiB."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        # wait4 reaps the child and hands back its own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss


def _common(args, extra: list[str]) -> list[str]:
    return ["--workload", args.workload, "--seed", str(args.seed), *extra]


def measure(args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        main, _ = run_worker(
            _common(args, ["--seconds", str(args.seconds), "--check", "1", "--trace", "1",
                           "--trace-file", str(trace_file)]),
            deadline,
        )
        runs = [main]
        metrics = main["per_layer"]
    else:
        runs = [run_worker(_common(args, ["--check", "1"]), deadline)[0]]
        share = args.seconds / WINDOW_PROCESSES
        windows = []
        for i in range(WINDOW_PROCESSES):
            windows.append(run_worker(_common(args, ["--seconds", str(share)]), deadline))
            if i % 2:
                # a cold pass alone: more cold samples, spread over the run
                runs.append(run_worker(_common(args, []), deadline)[0])
        runs += [r for r, _ in windows]
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "cold_ref": statistics.median(r["cold_ref"] for r in runs),
            "pass_ref": statistics.median(x for r in runs for x in r["pass_ref"]),
            "peak_rss_mb": statistics.median(rss for _, rss in windows) / 1024,
        }
        wall = {
            "cold_pass_s": statistics.median(r["cold_pass_s"] for r in runs),
            "pass_s": statistics.median(t for r in runs for t in r["pass_s"]),
            "warm_passes": sum(len(r["pass_s"]) for r in runs),
        }
        print("wall " + json.dumps(wall), file=sys.stderr)
    errors = [e for r in runs for e in r["errors"]]
    if not any(r["checked"] for r in runs):
        errors.append("no process checked its outputs")
    if len({r["digest"] for r in runs}) != 1:
        errors.append("processes disagree on the outputs of a pass")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def smoke() -> int:
    """Every workload at tiny sizes, one checked cold pass each."""
    deadline = time.monotonic() + RUN_BUDGET_S
    ok = True
    for name in WORKLOADS:
        result, _ = run_worker(
            ["--workload", name, "--seed", "0", "--check", "1", "--smoke"],
            deadline,
        )
        status = "ok" if not result["errors"] else "FAILED: " + "; ".join(result["errors"])
        ok = ok and not result["errors"]
        print(f"{name}: attempted {result['attempted']} failed {result['failed']} {status}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, checks only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "covercert" / "__init__.py").is_file():
        print(f"error: no covercert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(result["metrics"]):
        print(f"error: measured metrics differ from BENCHMARK.json: {sorted(units)}", file=sys.stderr)
        return 1
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
