"""Outside-in tracing of covercert's public functions.

The tracer replaces every public function of the traced modules, in every
module namespace that binds it (so `distortion.largest_prime_factor` and
`core.largest_prime_factor` both lead to the wrapper), and restores the
originals on `uninstall`.  The program's files are not touched.

Each call opens a span with a parent, a start and an end.  A span's self
time is its duration minus the time its child spans cover.  The work counts
a hook derives from a call's arguments or result (say, the residues a
measure step produced) are taken after the span's clock stops, and that
bookkeeping is charged to no span, so the self times of one pass add up to
the pass.  Garbage-collector pauses are read through `gc.callbacks`.
"""

from __future__ import annotations

import functools
import gc
import inspect
import time
from collections import defaultdict

_clock = time.perf_counter


def _residues_of_result(args, kwargs, result):
    return {"residues": result.modulus}


def _residues_of_system(args, kwargs, result):
    system = args[0] if args else kwargs["sys"]
    return {"residues": system.lcm_modulus}


# per traced function: work counts taken from a finished call
COUNT_HOOKS = {
    "distortion.step_measure": _residues_of_result,
    "distortion.level_set": lambda a, k, r: {"members": len(r.members)},
    "distortion.hit_fractions": lambda a, k, r: {"distinct": len(set(r))},
    "core.is_minimal": _residues_of_system,
    "core.covers_oracle": _residues_of_system,
    "constructions.shift_expand": lambda a, k, r: {"classes_out": len(r)},
}


class _Frame:
    __slots__ = ("span", "name", "parent", "start", "child")

    def __init__(self, span, name, parent, start):
        self.span = span
        self.name = name
        self.parent = parent
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self, traced_modules, binding_modules):
        self.originals = {}
        for module in traced_modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    self.originals[id(obj)] = (obj, f"{short}.{name}")
        self.binding_modules = binding_modules
        self.wrappers = {key: self._wrap(fn, label) for key, (fn, label) in self.originals.items()}
        self.installed = []
        self.reset()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module in self.binding_modules:
            for name, obj in list(vars(module).items()):
                wrapper = self.wrappers.get(id(obj))
                if wrapper is not None and self.originals[id(obj)][0] is obj:
                    setattr(module, name, wrapper)
                    self.installed.append((module, name, obj))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        for module, name, obj in reversed(self.installed):
            setattr(module, name, obj)
        self.installed.clear()

    # -- accounting ---------------------------------------------------------

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.edges = defaultdict(int)
        self.spans = []
        self.stack = []
        self.bookkeeping_s = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None

    def _open(self, name: str) -> _Frame:
        parent = self.stack[-1].span if self.stack else None
        frame = _Frame(len(self.spans), name, parent, 0.0)
        self.spans.append(None)
        self.stack.append(frame)
        frame.start = _clock()
        return frame

    def _close(self, frame: _Frame, hook=None, args=(), kwargs=None, result=None) -> None:
        end = _clock()
        self.stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        name = frame.name
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += own
        parent_name = self.stack[-1].name if self.stack else None
        self.edges[(parent_name, name)] += 1
        self.spans[frame.span] = (frame.span, frame.parent, name, frame.start, end, own)
        if hook is not None:
            for key, value in hook(args, kwargs or {}, result).items():
                self.counts[f"{name}.{key}"] += value
        done = _clock()
        self.bookkeeping_s += done - end
        if self.stack:
            # the bookkeeping stays out of the parent's self time
            self.stack[-1].child += done - frame.start

    def _wrap(self, fn, label):
        hook = COUNT_HOOKS.get(label)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # a generator's work happens as it is resumed, so each resumption is a span
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                frame = tracer._open(label)
                try:
                    inner = fn(*args, **kwargs)
                finally:
                    tracer._close(frame)
                while True:
                    frame = tracer._open(label)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame)
                raise
            tracer._close(frame, hook, args, kwargs, result)
            return result

        return wrapper

    def _gc_callback(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = _clock()
        elif self._gc_start is not None:
            self.gc_s += _clock() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- one traced pass ----------------------------------------------------

    def traced_pass(self, run):
        """Run run() as the root span "pass"; return its wall time and result."""
        self.reset()
        self.install()
        try:
            root = self._open("pass")
            try:
                result = run()
            finally:
                self._close(root)
        finally:
            self.uninstall()
        return self.total["pass"], result

    def layer_metrics(self) -> dict:
        """The per-layer metrics of the last traced pass."""

        def t(name):
            return self.total.get(name, 0.0)

        residues = self.counts.get("distortion.step_measure.residues", 0)
        return {
            "distortion.step_measure.s": t("distortion.step_measure"),
            "distortion.step_measure.residues": residues,
            "distortion.step_measure.ns_per_residue":
                t("distortion.step_measure") / residues * 1e9 if residues else 0.0,
            "distortion.level_set.s": t("distortion.level_set"),
            "distortion.level_set.members": self.counts.get("distortion.level_set.members", 0),
            "distortion.hit_fractions.s": t("distortion.hit_fractions"),
            "distortion.moments.s": t("distortion.moments"),
            "distortion.certify.self_s": self.self_time.get("distortion.certify", 0.0),
            "distortion.levels": self.calls.get("distortion.step_measure", 0),
            "distortion.distinct_fractions":
                self.counts.get("distortion.hit_fractions.distinct", 0),
            "python.gc_s": self.gc_s,
            "python.gc_collections": self.gc_collections,
            "core.largest_prime_factor.s": t("core.largest_prime_factor"),
            "core.largest_prime_factor.calls": self.calls.get("core.largest_prime_factor", 0),
            "core.factorize.s": t("core.factorize"),
            "core.factorize.calls": self.calls.get("core.factorize", 0),
            "core.is_minimal.s": t("core.is_minimal"),
            "core.is_minimal.residues": self.counts.get("core.is_minimal.residues", 0),
            "core.covers_oracle.s": t("core.covers_oracle"),
            "core.covers_oracle.residues": self.counts.get("core.covers_oracle.residues", 0),
            "core.covers_interval.s": t("core.covers_interval"),
            "core.parse_system.s": t("core.parse_system"),
            "core.emit_system.s": t("core.emit_system"),
            "cli.main.calls": self.calls.get("cli.main", 0),
            "cli.main.self_s": self.self_time.get("cli.main", 0.0),
            "constructions.construct_minimal_family.s":
                t("constructions.construct_minimal_family"),
            "constructions.shift_expand.self_s": self.self_time.get("constructions.shift_expand", 0.0),
            "constructions.shift_expand.classes_out":
                self.counts.get("constructions.shift_expand.classes_out", 0),
            "analytic.smooth_reciprocal_sum.s": t("analytic.smooth_reciprocal_sum"),
            "analytic.jth_modulus_bound.s": t("analytic.jth_modulus_bound"),
            "analytic.multiplicity_modulus_bound.s": t("analytic.multiplicity_modulus_bound"),
        }

    def _self_under(self, ancestor: str, prefix: str) -> float:
        """Self time of the spans named prefix* inside some span named ancestor."""
        spans = self.spans
        inside = {}

        def under(span_id):
            if span_id is None:
                return False
            if span_id not in inside:
                _, parent, name, _, _, _ = spans[span_id]
                inside[span_id] = name == ancestor or under(parent)
            return inside[span_id]

        return sum(s[5] for s in spans if s[2].startswith(prefix) and under(s[0]))

    def summary(self) -> dict:
        """Per-function totals, caller edges and the spans of the last traced pass."""
        names = sorted(self.calls)
        self_sum = sum(self.self_time.values())
        certify_total = self.total.get("distortion.certify", 0.0)
        return {
            "pass_s": self.total.get("pass", 0.0),
            "self_time_sum_s": self_sum,
            "bookkeeping_s": self.bookkeeping_s,
            "functions": {
                n: {"calls": self.calls[n], "total_s": self.total[n], "self_s": self.self_time[n]}
                for n in names
            },
            "counts": dict(self.counts),
            "edges": [
                {"parent": p, "child": c, "calls": k} for (p, c), k in sorted(self.edges.items(), key=str)
            ],
            "distortion_self_share_of_certify":
                self._self_under("distortion.certify", "distortion.") / certify_total
                if certify_total else None,
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
            "spans": self.spans,
        }
