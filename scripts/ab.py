#!/usr/bin/env python3
"""Alternated A/B runs of the benchmark: a base commit against this checkout.

  python3 scripts/ab.py --base HEAD~1 --pairs 10 --out bench.json
  python3 scripts/ab.py --base HEAD --pairs 1 --smoke --out /tmp/bench.json

Run it from anywhere inside a git checkout.  The base revision's tree is
extracted with `git archive <commit> | tar -x` into a temporary directory,
which is removed at the end; nothing is written to .git/.  For each
workload of BENCHMARK.json, pair i runs `perfbench/run.py` once in the base
and once in this checkout, one process at a time: the base first when i is
even, the change first when i is odd.  Each side runs its own
`perfbench/run.py`, at seed SEED for BENCHMARK.json's run_seconds.  With
--smoke each side runs `perfbench/run.py --smoke` instead, which checks the
outputs at tiny sizes and measures nothing.

The output file holds both commit ids (and whether this checkout has
uncommitted changes to tracked files), the Python version, and per workload
and side whether every run was correct and how many calls failed.  Per
metric of BENCHMARK.json's end_to_end list it holds the median of each
side, the base's quartiles and the number of pairs in which the change was
better (by the metric's "better"), and every run's figures, with the
median wall times run.py reports for information.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


class ABError(Exception):
    pass


def git(*args: str) -> str:
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise ABError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def extract(commit: str, dest: Path) -> None:
    """Write the tree of commit into dest, by `git archive <commit> | tar -x`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True)
    if archive.returncode != 0:
        raise ABError(f"git archive {commit}: {archive.stderr.decode().strip()}")
    dest.mkdir()
    tar = subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                         capture_output=True)
    if tar.returncode != 0:
        raise ABError(f"tar -x: {tar.stderr.decode().strip()}")


def measure(tree: Path, workloads: list[str], seconds: int, smoke: bool) -> dict:
    """perfbench/run.py in tree: per workload, {"correct", "failed", "metrics"}.

    A real run takes one workload.  One --smoke run checks every workload,
    and reports no metrics.  A run that exits non-zero or prints no result
    line counts as incorrect, with no metrics.
    """
    if smoke:
        cmd = ["--smoke"]
    else:
        (workload,) = workloads
        cmd = ["--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
               "--trace", "0"]
    proc = subprocess.run([sys.executable, "perfbench/run.py", *cmd], cwd=tree,
                          capture_output=True, text=True)
    broken = {"correct": False, "failed": None, "metrics": {}}
    if smoke:
        out = {}
        for workload in workloads:
            # one line per workload: "<name>: attempted N failed M ok"
            found = re.search(rf"^{re.escape(workload)}: attempted \d+ failed (\d+) ok$",
                              proc.stdout, re.MULTILINE)
            if proc.returncode != 0 or found is None:
                out[workload] = broken
            else:
                out[workload] = {"correct": True, "failed": int(found[1]), "metrics": {}}
        return out
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        return {workload: broken}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    run = {"correct": result["correct"], "failed": result["failed"], "metrics": metrics}
    # the median wall times run.py prints for information, ungated
    wall = re.search(r"^wall (\{.*\})$", proc.stderr, re.MULTILINE)
    if wall:
        run["wall"] = json.loads(wall[1])
    return {workload: run}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(sides: dict[str, list[dict]], declared: list[dict]) -> dict:
    """One workload's runs, {"base": [...], "change": [...]} with run i of
    each side in pair i, as the output file holds them."""
    pairs = list(zip(sides["base"], sides["change"]))
    out = {
        side: {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] or 0 for r in runs),
        }
        for side, runs in sides.items()
    }
    metrics = {}
    for metric in declared:
        name = metric["name"]
        both = [(b["metrics"][name], c["metrics"][name]) for b, c in pairs
                if name in b["metrics"] and name in c["metrics"]]
        if not both:
            continue
        base, change = [b for b, _ in both], [c for _, c in both]
        lower = metric["better"] == "lower"
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base_median": statistics.median(base),
            "change_median": statistics.median(change),
            "base_quartiles": quartiles(base),
            "change_better_pairs": sum((c < b) if lower else (c > b) for b, c in both),
            "pairs": len(both),
        }
    out["metrics"] = metrics
    out["runs"] = {side: runs for side, runs in sides.items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True,
                        help="the output file, such as BENCH_<n>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="run perfbench/run.py --smoke on each side, which measures nothing")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    try:
        base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
        change_commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        scratch = Path(tempfile.mkdtemp(prefix="covercert-ab-"))
        base_tree = scratch / "base"
        try:
            extract(base_commit, base_tree)
            trees = {"base": base_tree, "change": ROOT}
            runs = {w: {"base": [], "change": []} for w in workloads}
            # a real run measures one workload, so that the two runs of a pair are adjacent
            groups = [workloads] if args.smoke else [[w] for w in workloads]
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for group in groups:
                    for side in order:
                        got = measure(trees[side], group, bench["run_seconds"], args.smoke)
                        for workload, run in got.items():
                            runs[workload][side].append(run)
                            print(f"pair {i + 1}/{args.pairs} {workload} {side}: "
                                  + json.dumps(run), file=sys.stderr)
            results = {w: summarize(runs[w], bench["end_to_end"]) for w in workloads}
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except ABError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = {
        "base": {"rev": args.base, "commit": base_commit},
        "change": {"commit": change_commit, "uncommitted_changes": dirty},
        "python": platform.python_version(),
        "pairs": args.pairs,
        "seed": SEED,
        "seconds": None if args.smoke else bench["run_seconds"],
        "smoke": args.smoke,
        "workloads": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    correct = all(w[side]["correct"] for w in results.values() for side in ("base", "change"))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
