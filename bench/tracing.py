"""Spans around the calls into each sephill module, recorded from outside.

Each wrapped public function is patched in every module that looks it up
(``montecarlo`` and ``cli`` import several functions by name).  A span
keeps its name, start, end, parent span, the replication ``(n, rep_id)``
it belongs to when a ``run_replication`` span encloses it, the block it
ran in, its thread, and one count taken at the boundary (rows drawn, fit
iterations, elements ordered, ...).  A span is the child of the span open
on its thread when it starts; the first span on a pool thread is a child
of the outermost open span (``cli.main``).  Self time is a span's
duration minus the part of it that its children's spans cover, so time a
pool's threads spend in parallel counts once.  A function that calls
itself (``cli.dumps_json``) is folded into its outermost span.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from contextlib import contextmanager

import numpy as np

from sephill import bounds, cli, distributions, estimators, linalg, montecarlo

LOG2 = math.log(2.0)

# Which modules look each function up, besides the one defining it.
WRAPPED = {
    "distributions.sample_elliptical": (montecarlo, cli),
    "estimators.estimate_location_scatter": (montecarlo, cli),
    "estimators.mahalanobis_distances": (montecarlo, cli),
    "estimators.order_desc": (montecarlo, cli),
    "estimators.univariate_hill": (montecarlo,),
    "linalg.spd_inverse": (),
    "linalg.cholesky": (),
    "linalg.spectral_norm": (),
    "bounds.perturbation_coefficients": (),
    "bounds.complete_bound": (),
    "bounds.verify_epsilon_lemma": (),
    "bounds.verify_log_ratio_lemma": (),
    "montecarlo.run_replication": (),
    "montecarlo.aggregate_records": (),
    "cli.main": (),
    "cli.dumps_json": (),
}

MODULES = {
    "distributions": distributions,
    "estimators": estimators,
    "linalg": linalg,
    "bounds": bounds,
    "montecarlo": montecarlo,
    "cli": cli,
}


# Boundary counts: (args, kwargs, result) -> the span's count.
def _rows(args, kwargs, result):
    return int(kwargs.get("n", args[1] if len(args) > 1 else 0))


def _fit(args, kwargs, result):
    sample = kwargs.get("sample", args[0] if args else None)
    return (int(result.iterations), int(np.shape(sample)[0]))


def _elements(args, kwargs, result):
    return int(result.shape[0])


def _b_n(args, kwargs, result):
    return float(result.b_n)


def _applicable(args, kwargs, result):
    return bool(result.applicable)


COUNTS = {
    "distributions.sample_elliptical": _rows,
    "estimators.estimate_location_scatter": _fit,
    "estimators.order_desc": _elements,
    "bounds.complete_bound": _b_n,
    "bounds.verify_epsilon_lemma": _applicable,
    "bounds.verify_log_ratio_lemma": _applicable,
}

# Percentiles of the replication time.  Beyond the median, one is reported
# only when at least ten samples lie beyond it; an unreported one reads 0.
REP_PERCENTILES = (50, 75, 90, 95, 99)


class Tracer:
    """In-memory span recorder; patches are live only inside ``installed``."""

    def __init__(self):
        self.spans = []
        self.block = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._patches = []
        for name, extra_modules in WRAPPED.items():
            mod_name, fn_name = name.split(".")
            original = getattr(MODULES[mod_name], fn_name)
            wrapper = self._wrap(name, original, COUNTS.get(name))
            for mod in (MODULES[mod_name],) + extra_modules:
                if getattr(mod, fn_name) is not original:
                    raise RuntimeError(f"{mod.__name__}.{fn_name} is not {name}")
                self._patches.append((mod, fn_name, original, wrapper))

    @contextmanager
    def installed(self):
        for mod, fn_name, _, wrapper in self._patches:
            setattr(mod, fn_name, wrapper)
        try:
            yield
        finally:
            for mod, fn_name, original, _ in self._patches:
                setattr(mod, fn_name, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            if stack:
                parent_id, rep = stack[-1][1], stack[-1][2]
            else:
                parent_id, rep = tracer._root, None
            is_root = parent_id is None
            if is_root:
                tracer._root = span_id
            if name == "montecarlo.run_replication":
                rep = (int(args[1]), int(args[2]))
            stack.append((name, span_id, rep))
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if is_root:
                    tracer._root = None
                value = count(args, kwargs, result) if ok and count else None
                tracer.spans.append(
                    (span_id, name, start, end, parent_id, rep, tracer.block,
                     threading.get_ident(), ok, value)
                )

        return wrapper

    def write(self, path) -> None:
        """All spans as JSON lines, ordered by start time."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "rep", "block",
                "thread", "ok", "count", "self_ns")
        own = self_times(self.spans)
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps(dict(zip(keys, span + (own[span[0]],)))) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    own = {}
    for span_id, _, start, end, *_ in spans:
        covered, reach = 0, start
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own[span_id] = end - start - covered
    return own


def layer_metrics(spans, traced_wall_s, traced_cpu_s, workers, bytes_written, units, overhead_frac):
    """Per-layer metrics named in BENCHMARK.json, from the recorded spans.

    A function that is not called on a workload reports 0 calls and 0 s.
    """
    calls = {name: 0 for name in WRAPPED}
    self_ns = {name: 0 for name in WRAPPED}
    values = {name: [] for name in COUNTS}
    rep_ms = []
    failed_reps = 0
    own = self_times(spans)
    for span_id, name, start, end, _, _, _, _, ok, value in spans:
        calls[name] += 1
        self_ns[name] += own[span_id]
        if value is not None:
            values[name].append(value)
        if name == "montecarlo.run_replication":
            rep_ms.append((end - start) / 1e6)
            failed_reps += not ok

    m = {}
    for name in WRAPPED:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
    m["distributions.rows"] = (sum(values["distributions.sample_elliptical"]), "count")
    fits = values["estimators.estimate_location_scatter"]
    m["estimators.fit_iterations"] = (sum(it for it, _ in fits), "count")
    m["estimators.fit_row_passes"] = (sum(it * n for it, n in fits), "computed_rows")
    m["estimators.order_desc.elements"] = (sum(values["estimators.order_desc"]), "count")
    b_n = values["bounds.complete_bound"]
    m["bounds.informative_frac"] = (
        sum(b < LOG2 for b in b_n) / len(b_n) if b_n else 0.0, "fraction")
    checks = values["bounds.verify_epsilon_lemma"] + values["bounds.verify_log_ratio_lemma"]
    m["bounds.applicable_frac"] = (sum(checks) / len(checks) if checks else 0.0, "fraction")
    for p in REP_PERCENTILES:
        enough = rep_ms and (p == 50 or len(rep_ms) * (100 - p) / 100 >= 10)
        m[f"montecarlo.run_replication.p{p}_ms"] = (
            float(np.percentile(rep_ms, p)) if enough else 0.0, "ms")
    capacity = traced_wall_s * workers
    m["montecarlo.busy_frac"] = (sum(rep_ms) / 1e3 / capacity if rep_ms else 0.0, "fraction")
    m["montecarlo.cpu_per_wall"] = (traced_cpu_s / capacity, "fraction")
    m["montecarlo.failed_reps"] = (failed_reps, "count")
    m["cli.bytes_written"] = (bytes_written, "bytes")
    m["trace.units"] = (units, "count")
    m["trace.overhead_frac"] = (overhead_frac, "fraction")
    return m
