"""One benchmark process: set up a workload, time its passes, check outputs.

run.py starts this script in a fresh interpreter for every sample that
must see a cold process.  The script prints one JSON object as its last
line of standard output.

Every process sets up (imports covercert, builds the inputs from the seed)
and runs one cold pass, the pass a fresh process pays for.  It then runs
warm passes for --seconds, each between two runs of a fixed reference loop.
With --check 1 the outputs of the cold pass are then checked against the
reference computations in oracle.py.  With --trace 1 warm passes alternate
between untraced and traced, and the per-layer metrics of the traced ones
are reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_WARM_PASSES = 3


def reference_loop() -> int:
    """A fixed pure-Python load, timed next to each pass to gauge machine speed.

    Integer arithmetic, list indexing and Fraction additions, like the
    program's own mix.
    """
    acc = 0
    table = list(range(97))
    for i in range(400_000):
        acc = (acc * 31 + table[i % 97]) % 1_000_003
    total = Fraction(0)
    for k in range(1, 4_000):
        total += Fraction(k % 13, k % 29 + 1)
    return acc + total.denominator


def _reference_cpu() -> float:
    start = time.process_time()
    reference_loop()
    return time.process_time() - start


def _timed_pass(workload, inputs):
    """One untraced pass: (wall s, CPU s, outputs, attempted, failed)."""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    outputs, attempted, failed = workload.run_pass(inputs)
    wall = time.perf_counter() - t0
    return wall, time.process_time() - cpu0, outputs, attempted, failed


def _digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    # -- set-up: import the package from the checkout and build the inputs --
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import covercert  # noqa: F401  (pulls in mpmath)
    import workloads

    workload = (workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]
    inputs = workload.build(args.seed)
    result = {"setup_s": time.perf_counter() - start}

    # -- the cold pass, between two reference loops ----------------------------
    ref_before = _reference_cpu()
    wall, cpu, cold_outputs, total_attempted, total_failed = _timed_pass(workload, inputs)
    ref_after = _reference_cpu()
    result["cold_pass_s"] = wall
    result["cold_ref"] = cpu / ((ref_before + ref_after) / 2)
    ref_before = ref_after

    # -- warm passes ----------------------------------------------------------
    tracer = None
    if args.trace:
        from covercert import analytic, cli, constructions, core, distortion

        from tracer import Tracer

        modules = [core, distortion, constructions, analytic, cli]
        # the workloads module binds the functions it calls, so it is rebound too
        tracer = Tracer(modules, [covercert, *modules, workloads])

    pass_s, pass_ref, traced_s, layer_runs = [], [], [], []
    mismatched = 0
    if args.seconds > 0:
        window_start = time.perf_counter()
        while (
            time.perf_counter() - window_start < args.seconds
            or len(pass_s) < MIN_WARM_PASSES
            or (tracer is not None and len(traced_s) < MIN_WARM_PASSES)
        ):
            if tracer is not None and len(traced_s) < len(pass_s):
                wall, (outputs, attempted, failed) = tracer.traced_pass(
                    lambda: workload.run_pass(inputs)
                )
                traced_s.append(wall)
                layer_runs.append(
                    {**tracer.layer_metrics(), "cli.output_bytes": workload.cli_output_bytes(outputs)}
                )
            else:
                wall, cpu, outputs, attempted, failed = _timed_pass(workload, inputs)
                ref_after = _reference_cpu()
                pass_s.append(wall)
                pass_ref.append(cpu / ((ref_before + ref_after) / 2))
                ref_before = ref_after
            total_attempted += attempted
            total_failed += failed
            mismatched += outputs != cold_outputs
    result["pass_s"] = pass_s
    result["pass_ref"] = pass_ref

    if tracer is not None:
        # median_low reports a value one traced pass measured; counts stay whole
        layer = {
            name: statistics.median_low(run[name] for run in layer_runs) for name in layer_runs[0]
        }
        layer["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(pass_s)
        result["per_layer"] = layer
        if args.trace_file:
            summary = tracer.summary()
            summary.update(workload=args.workload, seed=args.seed, traced_pass_s=traced_s)
            Path(args.trace_file).write_text(json.dumps(summary))

    # -- checks ---------------------------------------------------------------
    errors = []
    if mismatched:
        errors.append(f"{mismatched} warm passes gave outputs other than the cold pass")
    if args.check:
        import oracle

        try:
            workload.check(inputs, cold_outputs)
        except oracle.CheckFailed as exc:
            errors.append(f"check failed: {exc}")
    result.update(
        attempted=total_attempted,
        failed=total_failed,
        checked=bool(args.check),
        errors=errors,
        digest=_digest(cold_outputs),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
