"""Span tracing for the benchmark's traced run, from outside the library.

`Tracer.installed()` swaps each public entry point listed in BOUNDARIES for a
wrapper that records a span (name, start, end, parent, run_id) in memory, and
restores the originals on exit. A function is replaced in every smoothpa
module namespace that holds it, because modules call each other through names
they imported. Nothing under src/ changes, and the wrappers consume no
randomness, so traced artifacts are byte-identical to untraced ones.

A layer's self time is its span durations minus the parts covered by child
spans. The root span of each traced pass is "trace.root"; its self time is
the unattributed remainder, so the self times of all spans sum exactly to the
traced wall time.
"""

from __future__ import annotations

import csv
import inspect
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import smoothpa.adversary
import smoothpa.cli
import smoothpa.core
import smoothpa.coupling
import smoothpa.diagnostics
import smoothpa.harness
import smoothpa.hypotheses
import smoothpa.learners

ROOT = "trace.root"


def _cover_size(counts, bound, result):
    counts["learners.cover_size"] = max(counts.get("learners.cover_size", 0), len(result))


def _csv_bytes(counts, bound, result):
    counts["harness.csv_bytes"] = counts.get("harness.csv_bytes", 0) + len(result.encode())


def poisson_support_size(rate: float, tail_cutoff: float) -> int:
    """Per-coordinate Poisson(rate) support kept by chi_square_bruteforce's
    tail cutoff (leading terms up to the last one above the cutoff)."""
    pm = [math.exp(-rate)]
    while pm[-1] > tail_cutoff and len(pm) < 500:
        pm.append(pm[-1] * rate / len(pm))
    while len(pm) > 1 and pm[-1] <= tail_cutoff:
        pm.pop()
    return len(pm)


def _chi2_cells(counts, bound, result):
    u = len(bound["target"].pmf)
    k = poisson_support_size(bound["n_rate"] / (2.0 * u), bound["tail_cutoff"])
    counts["diagnostics.chi2_cells"] = counts.get("diagnostics.chi2_cells", 0) + k ** (2 * u)


def _nml_sequences(counts, bound, result):
    seqs = 2 ** len(bound["contexts"]) * len(bound["hypotheses"])
    counts["diagnostics.nml_sequences"] = counts.get("diagnostics.nml_sequences", 0) + seqs


def _coupling(counts, bound, result):
    counts["coupling.accepted"] = counts.get("coupling.accepted", 0) + int(result[0].sum())
    counts["coupling.scans"] = counts.get("coupling.scans", 0) + int(bound["trials"])


LEARNER_CLASSES = [c for c in vars(smoothpa.learners).values() if isinstance(c, type)
                   and c.__module__ == smoothpa.learners.__name__
                   and {"predict", "update"} <= vars(c).keys()]

# (span name, owners, attribute, counter hook). Functions are listed under
# their defining module; methods under the classes that define them.
BOUNDARIES = [
    ("learners.predict", LEARNER_CLASSES, "predict", None),
    ("learners.update", LEARNER_CLASSES, "update", None),
    ("learners.epsilon_cover", [smoothpa.learners], "epsilon_cover", _cover_size),
    ("hypotheses.mle_from_counts", [smoothpa.hypotheses], "mle_from_counts", None),
    ("hypotheses.ComparatorTracker.update", [smoothpa.hypotheses.ComparatorTracker],
     "update", None),
    ("adversary.context_distribution", [smoothpa.adversary.AdversaryPolicy],
     "context_distribution", None),
    ("adversary.label", [smoothpa.adversary.AdversaryPolicy], "label", None),
    ("adversary.observe", [smoothpa.adversary.AdversaryPolicy], "observe", None),
    ("core.run_game", [smoothpa.core], "run_game", None),
    ("core.log_loss", [smoothpa.core], "log_loss", None),
    ("harness.run", [smoothpa.harness], "run", None),
    ("harness.format_records_csv", [smoothpa.core], "format_records_csv", _csv_bytes),
    ("harness.fit_scaling", [smoothpa.harness], "fit_scaling", None),
    ("harness.derive_seed", [smoothpa.harness], "derive_seed", None),
    ("diagnostics.chi_square_bruteforce", [smoothpa.diagnostics], "chi_square_bruteforce",
     _chi2_cells),
    ("diagnostics.nml_value", [smoothpa.diagnostics], "nml_value", _nml_sequences),
    ("diagnostics.rademacher_estimate", [smoothpa.diagnostics], "rademacher_estimate", None),
    ("coupling.rejection_couple_batch", [smoothpa.coupling], "rejection_couple_batch",
     _coupling),
    ("cli.main", [smoothpa.cli], "main", None),
]

# Counts reported next to the timed boundaries, with their units and direction.
COUNTS = [
    ("learners.cover_size", "count", "lower"),
    ("harness.csv_bytes", "bytes", "lower"),
    ("diagnostics.chi2_cells", "count", "lower"),
    ("diagnostics.nml_sequences", "count", "lower"),
    ("coupling.accept_ratio", "ratio", "higher"),
]
TRACE_METRICS = [
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for name, *_ in BOUNDARIES:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    return specs + COUNTS + TRACE_METRICS


class Tracer:
    """In-memory span recorder with per-pass self-time aggregation."""

    def __init__(self):
        self.names = [ROOT] + [name for name, *_ in BOUNDARIES]
        self.spans: list = []          # (name id, start ns, end ns, parent span, run_id)
        self.run_id = ""
        self.counts: dict[str, float] = {}
        self.ops = 0
        self.calls = np.zeros(len(self.names), dtype=np.int64)
        self.self_ns = np.zeros(len(self.names), dtype=np.int64)
        self.wall_ns = 0
        self._stack = [-1]

    def _wrap(self, fn, name_id: int, count, set_run_id: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        signature = inspect.signature(fn) if count else None
        tracer = self

        def traced(*args, **kwargs):
            if set_run_id:
                tracer.run_id = kwargs.get("run_id", "")
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, tracer.run_id)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(tracer.counts, bound.arguments, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _clear_run_id(self, fn):
        def marked(*args, **kwargs):
            self.run_id = ""
            return fn(*args, **kwargs)
        return marked

    @contextmanager
    def installed(self):
        """Replace every boundary with its traced wrapper; restore on exit."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "smoothpa" or n.startswith("smoothpa.")) and m is not None]
        undo = []

        def replace(owner, attr, new):
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

        try:
            for name_id, (name, owners, attr, count) in enumerate(BOUNDARIES, start=1):
                for owner in owners:
                    original = vars(owner)[attr]
                    wrapper = self._wrap(original, name_id, count, name == "core.run_game")
                    if isinstance(owner, type):
                        replace(owner, attr, wrapper)
                        continue
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                replace(mod, key, wrapper)
            # A trajectory's spans share its run_id from run_game on; the
            # learner built for the next trajectory starts an unlabelled stretch.
            replace(smoothpa.harness, "learner_from_spec",
                    self._clear_run_id(smoothpa.harness.learner_from_spec))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @contextmanager
    def root_span(self):
        """Trace one timed pass under a root span, then fold its spans into the
        totals. Spans of the latest pass stay in memory for write()."""
        self.spans.clear()
        self.run_id = ""
        self.spans.append(None)
        self._stack[:] = [-1, 0]
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack[:] = [-1]
            self.spans[0] = (0, start, end, -1, "")
            self._fold()

    def _fold(self) -> None:
        arr = np.array([s[:4] for s in self.spans], dtype=np.int64)
        names, dur, parent = arr[:, 0], arr[:, 2] - arr[:, 1], arr[:, 3]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(arr)).astype(np.int64)
        self_ns = dur - child
        self.calls += np.bincount(names, minlength=len(self.names))
        self.self_ns += np.bincount(names, weights=self_ns,
                                    minlength=len(self.names)).astype(np.int64)
        self.wall_ns += int(dur[0])
        self.ops += 1

    def metrics(self, untraced_run_s: float) -> dict[str, float]:
        """Per-layer metrics as means per traced pass."""
        ops = max(self.ops, 1)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = self.calls[i] / ops
            out[f"{name}.self_s"] = self.self_ns[i] / ops * 1e-9
        c = self.counts
        out["learners.cover_size"] = c.get("learners.cover_size", 0)
        for key in ("harness.csv_bytes", "diagnostics.chi2_cells", "diagnostics.nml_sequences"):
            out[key] = c.get(key, 0) / ops
        scans = c.get("coupling.scans", 0)
        out["coupling.accept_ratio"] = c.get("coupling.accepted", 0) / scans if scans else 0.0
        out["trace.wall_s"] = self.wall_ns / ops * 1e-9
        out["trace.unattributed_s"] = self.self_ns[0] / ops * 1e-9
        out["trace.overhead_s"] = out["trace.wall_s"] - untraced_run_s
        return {k: float(v) for k, v in out.items()}

    def write(self, path: Path) -> None:
        """Write the latest pass's spans as CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start_ns", "end_ns", "parent", "run_id"])
            for i, (name_id, start, end, parent, run_id) in enumerate(self.spans):
                w.writerow([i, self.names[name_id], start, end, parent, run_id])
