"""Per-module tracing from outside the package.

``Tracer`` replaces public functions of ``hetsvrg`` at their module (or class)
attribute with a wrapper that records one span per call: name, start, end,
parent span, and optional counts taken from the arguments or the result.  The
optimizers look their callees up through ``prob.`` / ``sampling.`` / ``comm.``
/ ``optim.`` at call time, so wrapping the attribute reaches the calls made
inside the loops.  Spans stay in memory; ``summarize`` turns them into the
per-layer metrics and ``write_spans`` writes them out.
"""

from __future__ import annotations

import csv
import os
from importlib import import_module

import numpy as np

from clock import CLOCK


def _rows_of_shard_gradient(args, kwargs, result):
    problem, shard_id = args[0], args[1]
    idx = kwargs.get("sample_indices", args[3] if len(args) > 3 else None)
    return {"rows": problem.shard(shard_id).size if idx is None else len(idx)}


def _rows_of_estimate(args, kwargs, result):
    return {"rows": kwargs.get("n_m", args[4] if len(args) > 4 else 0)}


def _distinct_of_histogram(args, kwargs, result):
    return {"distinct": len(result.counts)} if result is not None else {}


def _steps_of_trace(args, kwargs, result):
    return {"steps": len(result.rows)} if result is not None else {}


def _bytes_of_csv(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)} if path is not None and os.path.exists(path) else {}


# (module, attribute path, counts taken from the call).  The labels are the
# per-layer metric prefixes, e.g. ``problem.shard_gradient``.
TARGETS = (
    ("problem", "full_loss", None),
    ("problem", "shard_gradient", _rows_of_shard_gradient),
    ("problem", "test_metrics", None),
    ("problem", "lipschitz_info", None),
    ("problem", "generate_heterogeneous", None),
    ("sampling", "estimate_shard_weight", _rows_of_estimate),
    ("sampling", "sample_categorical", None),
    ("comm", "pc_sample", _distinct_of_histogram),
    ("comm", "optimal_comm_sample", _distinct_of_histogram),
    ("optim", "run_sgd", _steps_of_trace),
    ("optim", "run_svrg", _steps_of_trace),
    ("optim", "run_asd_svrg", _steps_of_trace),
    ("optim", "RunTrace.to_csv", _bytes_of_csv),
    ("harness", "ComparisonReport.to_csv", None),
    ("harness", "emit_plotdata", None),
    ("harness", "grid_best_from_rows", None),
    ("harness", "make_problem", None),
    ("harness", "run_experiment", None),
    ("cli", "main", None),
)

LABELS = tuple(f"{module}.{attr}" for module, attr, _ in TARGETS)


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.child_s = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Context manager that wraps every name in ``TARGETS`` while active.

    A name the package no longer has is listed in ``absent`` and skipped.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.absent = []
        for module, path, counter in TARGETS:
            label = f"{module}.{path}"
            owner = import_module(f"hetsvrg.{module}")
            *parents, attr = path.split(".")
            try:
                for name in parents:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except AttributeError:
                self.absent.append(label)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(label, original, counter))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans = []

    def _wrapper(self, label, original, counter):
        stack = self._stack
        clock = CLOCK

        def traced(*args, **kwargs):
            spans = self.spans
            span = Span(label, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            result = None
            span.start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                # optim.Diverged carries the partial trace of the run it stopped
                result = getattr(exc, "trace", None)
                raise
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.duration
                if counter is not None:
                    span.counts = counter(args, kwargs, result)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", label)
        return traced


def write_spans(spans: list[Span], path) -> None:
    """One CSV row per span: index, name, start, end, parent index."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "name", "start_s", "end_s", "parent"])
        t0 = spans[0].start if spans else 0.0
        for i, span in enumerate(spans):
            writer.writerow([i, span.name, f"{span.start - t0:.9f}", f"{span.end - t0:.9f}", span.parent])


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    calls = dict.fromkeys(LABELS, 0)
    self_s = dict.fromkeys(LABELS, 0.0)
    total_s = dict.fromkeys(LABELS, 0.0)
    counts = {label: {} for label in LABELS}
    durations = {"comm.pc_sample": [], "comm.optimal_comm_sample": []}
    asd_distinct = 0
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += span.self_s
        total_s[span.name] += span.duration
        if span.counts:
            bucket = counts[span.name]
            for key, value in span.counts.items():
                bucket[key] = bucket.get(key, 0) + value
        if span.name in durations:
            durations[span.name].append(span.duration)
            if span.parent >= 0 and spans[span.parent].name == "optim.run_asd_svrg":
                asd_distinct += span.counts.get("distinct", 0)

    out: dict[str, float] = {}
    for name in ("problem.full_loss", "problem.test_metrics", "problem.lipschitz_info",
                 "sampling.sample_categorical", "optim.RunTrace.to_csv"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in ("problem.shard_gradient", "sampling.estimate_shard_weight"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.rows"] = counts[name].get("rows", 0)
    out["problem.generate_heterogeneous.self_s"] = self_s["problem.generate_heterogeneous"]
    for name, values in durations.items():
        us = np.asarray(values) * 1e6
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.us_p50"] = float(np.percentile(us, 50)) if us.size else 0.0
        out[f"{name}.us_p99"] = float(np.percentile(us, 99)) if us.size else 0.0
    for name in ("optim.run_sgd", "optim.run_svrg", "optim.run_asd_svrg"):
        steps = counts[name].get("steps", 0)
        out[f"{name}.cells"] = calls[name]
        out[f"{name}.steps"] = steps
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.step_us"] = total_s[name] / steps * 1e6 if steps else 0.0
    estimated = calls["sampling.estimate_shard_weight"]
    out["optim.sampled_share"] = asd_distinct / estimated if estimated else 0.0
    out["optim.RunTrace.to_csv.bytes"] = counts["optim.RunTrace.to_csv"].get("bytes", 0)
    for name in ("harness.ComparisonReport.to_csv", "harness.emit_plotdata", "harness.grid_best_from_rows",
                 "harness.make_problem", "harness.run_experiment", "cli.main"):
        out[f"{name}.self_s"] = self_s[name]
    return out
