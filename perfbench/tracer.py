"""Spans around the calls into each module of stochinv, recorded from outside.

`Tracer.install()` replaces every `stochinv.*` module attribute bound to a
target function with a timing wrapper, so `from .policy import check_cop`
in heuristic, testbed and cli is covered as well as policy.check_cop
itself. A functools cache built around a target at import time (testbed's
`_cached_pmf` around `pmf_parametric`) is rebuilt around the wrapper, so
cache misses are still seen. A target a later version no longer has is
listed in `missing` instead of failing the run.

While installed, each call appends a span [name, start, end, parent] to
an in-memory list; self time is a span's duration minus the durations of
its direct children (calls are sequential, so children never overlap).
Work counts are computed from call arguments and results, not measured,
and repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _solve(counts, args, result):
    counts["sdp.solve.states"] += result.C.size


def _window_min(counts, args, result):
    g_row, cap = args[0], args[1]
    counts["sdp.window_min.cells"] += g_row.size * (int(cap) + 1)


def _continuation(counts, args, result):
    c_row, pmf = args[0], args[1]
    counts["sdp.expected_continuation.ops"] += len(pmf.support) * c_row.size


def _thresholds(counts, args, result):
    counts["policy.bands"] += len(result.pairs)


def _simulation(counts, args, result):
    counts["simulate.reps"] += result.reps
    counts["simulate.unconverged"] += not result.converged


def _csv_bytes(counts, args, result):
    counts["files.to_csv.bytes"] += os.path.getsize(args[1])


def _violations(counts, args, result):
    counts["cex.violations"] += len(result)


def _point(counts, args, result):
    counts["testbed.points_failed"] += result.error is not None


# (span name, module, attribute, count hook)
TARGETS = (
    ("sdp.solve", "stochinv.sdp", "solve", _solve),
    ("sdp.loss_row", "stochinv.sdp", "_loss_row", None),
    ("sdp.expected_continuation", "stochinv.sdp", "_expected_continuation",
     _continuation),
    ("sdp.window_min", "stochinv.sdp", "_window_min_finite", _window_min),
    ("policy.check_cop", "stochinv.policy", "check_cop", None),
    ("policy.extract_thresholds", "stochinv.policy", "extract_thresholds",
     _thresholds),
    ("heuristic.modified_ss_from_tables", "stochinv.heuristic",
     "modified_ss_from_tables", None),
    ("simulate.simulate_policy", "stochinv.simulate", "simulate_policy",
     _simulation),
    ("files.load_instance", "stochinv.files", "load_instance", None),
    ("files.to_csv", "stochinv.sdp", "ValueTables.to_csv", _csv_bytes),
    ("files.thresholds_csv", "stochinv.files", "thresholds_csv", None),
    ("demand.pmf_parametric", "stochinv.demand", "pmf_parametric", None),
    ("cex.search_cop_violations", "stochinv.cex", "search_cop_violations",
     _violations),
    ("cex.random_instance", "stochinv.cex", "random_instance", None),
    ("testbed.build_design", "stochinv.testbed", "build_design", None),
    ("testbed.evaluate_point", "stochinv.testbed", "_evaluate_point", _point),
    ("cli.main", "stochinv.cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        # import first: a module imported while wrappers are in place would
        # bind them at import time, out of reach of uninstall()
        for _, module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        for name, module_name, attr, hook in TARGETS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            target = getattr(owner, leaf, None)
            if target is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, target, hook)
            self._replace(owner, leaf, wrapper)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != "stochinv":
                    continue
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._replace(module, key, wrapper)
                    elif (getattr(value, "__wrapped__", None) is target
                          and hasattr(value, "cache_clear")):
                        maxsize = value.cache_parameters()["maxsize"]
                        self._replace(module, key,
                                      functools.lru_cache(maxsize=maxsize)(wrapper))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _replace(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def reset(self) -> None:
        """Drop the spans and counts recorded so far."""
        self.spans, self.counts, self._stack = [], Counter(), []

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = perf_counter()
            if hook is not None:
                try:
                    hook(self.counts, args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    # the stage changed shape; its count is reported missing
                    if f"{name} count" not in self.missing:
                        self.missing.append(f"{name} count")
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the last recording, by metric name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, covered):
            self_s[name] += end - start - inner
            calls[name] += 1

        out = dict(self.counts)
        for name, _, _, _ in TARGETS:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        sim_s = self_s["simulate.simulate_policy"]
        out["simulate.reps_per_s"] = self.counts["simulate.reps"] / sim_s if sim_s else 0.0
        instances = calls["cex.random_instance"]
        out["cex.instances"] = instances
        out["cex.violations_per_instance"] = (
            self.counts["cex.violations"] / instances if instances else 0.0)
        return out
