"""Span tracer that wraps tsindep's layers from outside the package.

Every boundary is a module attribute that the package looks up at call
time, e.g. ``tsindep.bootstrap.gram_matrix``: replacing that attribute
catches each call ``bootstrap.py`` makes, while the package source stays
untouched.  A boundary whose attribute no longer exists is skipped and
listed as absent; a metric none of whose boundaries was entered during
the traced ops is left out of the output, never reported as zero.

A span records its name, start, end and parent span.  Self time is a
span's duration minus the durations of its direct children.  Counts are
taken at the same boundaries.
"""

from __future__ import annotations

import importlib
import operator
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_FLOAT_BYTES = 8


def _gram_bytes(tracer, args, kwargs, result):
    # Computed, not measured: the n x n x d difference tensor plus the
    # n x n output of one Gram construction.
    points = kwargs.get("points", args[1] if len(args) > 1 else None)
    pts = np.asarray(points)
    n = pts.shape[0]
    d = pts.shape[1] if pts.ndim > 1 else 1
    tracer.counts["kernels.gram_bytes"] += _FLOAT_BYTES * (n * n * d + n * n)


def _steps_at(index):
    def hook(tracer, args, kwargs, result):
        innov = np.asarray(kwargs.get("innovations", args[index] if len(args) > index else None))
        tracer.counts["models.simulate_steps"] += int(np.prod(innov.shape[:-1]))

    return hook


def _replicates(tracer, args, kwargs, result):
    if result:
        first = result[0]
        tracer.counts["bootstrap.replicates"] += int(first.n_replicates)
        tracer.counts["bootstrap.replicates_valid"] += int(first.n_replicates - first.n_failed)


# (span name, module, attribute, hook run on return).  When one attribute
# appears twice, the later entry wraps the earlier one and is its parent.
SPANS = [
    ("kernels.gram", "tsindep.bootstrap", "gram_matrix", _gram_bytes),
    ("kernels.gram", "tsindep.hsic", "gram_matrix", _gram_bytes),
    ("hsic.stat", "tsindep.bootstrap", "stat_from_grams", None),
    ("models.simulate", "tsindep.bootstrap", "_simulate_var", _steps_at(3)),
    ("models.simulate", "tsindep.bootstrap", "_simulate_garch", _steps_at(1)),
    ("models.simulate", "tsindep.simlab", "_simulate_var", _steps_at(3)),
    ("models.simulate", "tsindep.simlab", "_simulate_garch_mixed", _steps_at(1)),
    ("models.var_refit", "tsindep.bootstrap", "_fit_var_batch", None),
    ("models.var_refit", "tsindep.bootstrap", "_var_onestep_batch", None),
    ("models.garch_onestep", "tsindep.bootstrap", "_garch_xspace_scores_batch", None),
    ("models.garch_onestep", "tsindep.bootstrap", "_garch_unpack_batch", None),
    ("models.garch_onestep", "tsindep.bootstrap", "_garch_residuals_batch", None),
    ("models.garch_fit", "tsindep.cli", "fit_ccc_garch", None),
    ("models.garch_fit", "tsindep.bootstrap", "fit_ccc_garch", None),
    ("models.garch_fit", "tsindep.simlab", "fit_ccc_garch", None),
    ("models.garch_curvature", "tsindep.models", "_garch_scores", None),
    ("models.garch_curvature", "tsindep.models", "_garch_curvature", None),
    ("models.garch_curvature", "tsindep.models", "_garch_xspace_info", None),
    ("bootstrap.run", "tsindep.bootstrap", "bootstrap_run", _replicates),
    ("bootstrap.run", "tsindep.simlab", "bootstrap_run", _replicates),
    ("bootstrap.draw", "tsindep.bootstrap", "_draw_innovations", None),
    ("streams.substream", "tsindep.bootstrap", "substream", None),
    ("streams.substream", "tsindep.simlab", "substream", None),
    ("streams.substream", "tsindep.models", "substream", None),
    ("crosscorr.g", "tsindep.cli", "g_test", None),
    ("crosscorr.g", "tsindep.simlab", "g_test", None),
    ("crosscorr.w", "tsindep.cli", "w_test", None),
    ("crosscorr.w", "tsindep.simlab", "w_test", None),
    ("crosscorr.l", "tsindep.cli", "l_test", None),
    ("crosscorr.l", "tsindep.simlab", "l_test", None),
    ("crosscorr.t", "tsindep.cli", "t_test", None),
    ("crosscorr.t", "tsindep.simlab", "t_test", None),
    ("simlab.egp", "tsindep.simlab", "egp_innovations", None),
    ("simlab.dgp", "tsindep.simlab", "gen_var_pair", None),
    ("simlab.dgp", "tsindep.simlab", "gen_garch_pair", None),
    ("simlab.fit", "tsindep.simlab", "fit_var", None),
    ("simlab.fit", "tsindep.simlab", "fit_ccc_garch", None),
    ("io.read_csv", "tsindep.cli", "read_csv", None),
    ("cli.report", "tsindep.cli", "_json_text", None),
    ("cli.report", "tsindep.cli", "_emit", None),
]

# (count name, module, attribute, span that must be open for the call to count)
COUNTERS = [
    ("hsic.single_calls", "tsindep.hsic", "single_from_grams", None),
    ("models.garch_ll_passes", "tsindep.models", "_garch_total_ll_batch", "models.garch_onestep"),
    ("models.garch_loglik_evals", "tsindep.models", "garch_loglik_terms", "models.garch_fit"),
]

# metric name -> (span name, "total" | "self" | "calls")
SPAN_METRICS = {
    "kernels.gram_s": ("kernels.gram", "total"),
    "kernels.gram_calls": ("kernels.gram", "calls"),
    "hsic.stat_s": ("hsic.stat", "total"),
    "hsic.stat_calls": ("hsic.stat", "calls"),
    "models.simulate_s": ("models.simulate", "total"),
    "models.var_refit_s": ("models.var_refit", "total"),
    "models.garch_onestep_s": ("models.garch_onestep", "total"),
    "models.garch_fit_s": ("models.garch_fit", "total"),
    "models.garch_fit_optimizer_s": ("models.garch_fit", "self"),
    "models.garch_fit_curvature_s": ("models.garch_curvature", "total"),
    "bootstrap.run_s": ("bootstrap.run", "self"),
    "bootstrap.draw_s": ("bootstrap.draw", "total"),
    "streams.substream_s": ("streams.substream", "total"),
    "streams.substream_calls": ("streams.substream", "calls"),
    "crosscorr.g_s": ("crosscorr.g", "total"),
    "crosscorr.w_s": ("crosscorr.w", "total"),
    "crosscorr.l_s": ("crosscorr.l", "total"),
    "crosscorr.t_s": ("crosscorr.t", "total"),
    "simlab.egp_s": ("simlab.egp", "total"),
    "simlab.dgp_s": ("simlab.dgp", "total"),
    "simlab.fit_s": ("simlab.fit", "total"),
    "io.read_csv_s": ("io.read_csv", "total"),
    "cli.report_s": ("cli.report", "total"),
}

# counts filled by span hooks, reported only when their span was entered
HOOK_COUNTS = {
    "kernels.gram_bytes": "kernels.gram",
    "models.simulate_steps": "models.simulate",
    "bootstrap.replicates": "bootstrap.run",
}

ROOT = "op"


class Tracer:
    """In-memory spans and counts for the ops run while it is installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []
        self._saved = []

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _in_span(self, name):
        return any(self.spans[i][0] == name for i in self._stack)

    @contextmanager
    def root(self):
        rec = self._open(ROOT)
        try:
            yield
        finally:
            self._close(rec)

    def _span_wrapper(self, name, fn, hook):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name, fn, within):
        def counted(*args, **kwargs):
            if within is None or self._in_span(within):
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module_name, attr, make):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        if module is None or not hasattr(module, attr):
            self.absent.append(f"{module_name}.{attr}")
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self):
        for name, module, attr, hook in SPANS:
            self._patch(module, attr, lambda fn, n=name, h=hook: self._span_wrapper(n, fn, h))
        for name, module, attr, within in COUNTERS:
            self._patch(module, attr, lambda fn, n=name, w=within: self._count_wrapper(n, fn, w))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts


def summarize(spans, counts):
    """Per-span-name totals (outermost spans only), self times and calls."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_time[name] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start
    return {"total": total, "self": self_time, "calls": calls, "counts": counts}


def _per_op(count, n_ops):
    value = count / n_ops
    return int(value) if count % n_ops == 0 else value


def layer_metrics(summary, n_ops, absent):
    """Per-op layer metrics from one summary; absent metrics are omitted."""
    out = {}
    calls, counts = summary["calls"], summary["counts"]
    for metric, (span, kind) in SPAN_METRICS.items():
        if calls.get(span):
            out[metric] = (_per_op if kind == "calls" else operator.truediv)(
                summary[kind][span], n_ops)
    for metric, span in HOOK_COUNTS.items():
        if calls.get(span):
            out[metric] = _per_op(counts.get(metric, 0), n_ops)
    for metric, module, attr, within in COUNTERS:
        if f"{module}.{attr}" in absent:
            continue
        if metric in counts or (within is not None and calls.get(within)):
            out[metric] = _per_op(counts.get(metric, 0), n_ops)
    if calls.get("bootstrap.run"):
        reps = counts.get("bootstrap.replicates", 0)
        valid = counts.get("bootstrap.replicates_valid", 0)
        out["bootstrap.valid_ratio"] = valid / reps
    out["op_s"] = summary["total"][ROOT] / n_ops
    return out
