"""Span tracing of the ``dapq`` layers, applied from outside the package.

Each traced function is replaced, under every ``dapq`` module name that
binds it, by a wrapper that records a span ``[name, start, end, parent]``.
Rebinding every name matters because the modules import each other's
functions by name (``dapq.mean_wait`` binds ``md1_stationary``,
``dapq.transforms`` binds ``busy_state_distribution``, every module binds
``validate``), so wrapping only the defining module would miss the calls
made inside the package.  Spans stay in memory until the run writes them.

A span's self time is its duration minus the durations of its direct
child spans.  Calls are single-threaded and strictly nested, so the self
times of all spans add up to the time covered by the root spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

# (module, function) pairs wrapped in a traced pass; metric names use
# "<module>.<function>".
LAYERS = (
    ("core", "validate"),
    ("markov", "md1_stationary"),
    ("markov", "busy_state_distribution"),
    ("mean_wait", "md1_dapq_class2_mean"),
    ("mean_wait", "mm1_dapq_class2_mean"),
    ("mean_wait", "dapq_means"),
    ("transforms", "class2_cdf_dapq"),
    ("kpi", "b_star_class2"),
    ("kpi", "b_star_class1"),
    ("kpi", "feasible_region"),
    ("approx", "kpi_mean_threshold"),
    ("simulate", "run_single"),
    ("simulate", "run_replicated"),
    ("cli", "main"),
)

# Work counts read off a traced call: span name -> (count name, count of one call).
COUNTERS = {
    "markov.md1_stationary": (
        "markov.md1_stationary.terms", lambda result, args: result.truncation_K),
    "markov.busy_state_distribution": (
        "markov.busy_state_distribution.states", lambda result, args: len(result)),
    "transforms.class2_cdf_dapq": (
        "transforms.points", lambda result, args: len(result.ts)),
    "simulate.run_single": (
        "simulate.customers", lambda result, args: args[0].burn_in + args[0].n_customers),
}

# Scalar contour evaluations per inverted point: burn-in plus averaged
# Euler terms plus the k = 0 term (transforms._euler_params at the seed).
CONTOUR_TERMS_PER_POINT = 61


class Tracer:
    """In-memory span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](result, args)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    """Bind a tracing wrapper to every ``dapq`` module name of each layer function."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "dapq" or n.startswith("dapq."))]
    replaced = []
    try:
        for module_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"dapq.{module_name}"], fn_name)
            wrapper = tracer.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _under_kpi(spans, index) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith("kpi."):
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass whose ops took ``wall_s`` in total.

    Returns name -> (value, unit).  ``trace.remainder_s`` is the part of
    ``wall_s`` outside every span, so the ``self_s`` values plus the
    remainder add up to ``trace.wall_s``.
    """
    spans = tracer.spans
    own = self_times(spans)
    calls, self_s = Counter(), Counter()
    for (name, _, _, _), t in zip(spans, own):
        calls[name] += 1
        self_s[name] += t
    out = {}
    for module_name, fn_name in LAYERS:
        name = f"{module_name}.{fn_name}"
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    counts = tracer.counts
    for count_name, _ in COUNTERS.values():
        out[count_name] = (counts[count_name], "count")
    points = counts["transforms.points"]
    out["transforms.point_us"] = (
        1e6 * self_s["transforms.class2_cdf_dapq"] / points if points else 0.0, "us")
    out["transforms.contour_evals"] = (points * CONTOUR_TERMS_PER_POINT, "count")
    out["kpi.cdf_evals"] = (sum(
        1 for i, s in enumerate(spans)
        if s[0] == "transforms.class2_cdf_dapq" and _under_kpi(spans, i)), "count")
    out["kpi.mean_evals"] = (sum(
        1 for i, s in enumerate(spans)
        if s[0] == "mean_wait.dapq_means" and _under_kpi(spans, i)), "count")
    customers = counts["simulate.customers"]
    out["simulate.ns_per_customer"] = (
        1e9 * self_s["simulate.run_single"] / customers if customers else 0.0, "ns")
    covered = sum(end - start for _, start, end, parent in spans if parent < 0)
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.remainder_s"] = (wall_s - covered, "s")
    return out
