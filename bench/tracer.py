"""Spans and counts around calls into radioloc's public functions.

The benchmark's own files install the instrumentation by rebinding each
function a per-layer metric reads (two of them ``Radiomap`` matrix methods)
in every radioloc module that holds a reference to it, so calls made through
``from .x import f`` bindings are seen too. Nothing under ``src/`` is edited.
Work done inside a function that is not itself wrapped, such as building
``Fingerprint`` objects inside virtual synthesis, the ``MeasurementSet``
scans inside ``fit`` or loading a floorplan inside ``cli.main``, lands in the
enclosing span's self time.

Spans are kept in memory as ``[name, start, end, parent, request]`` lists and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    """Span and count recorder; records only while a request id is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple, float] = defaultdict(float)
        self.request = None
        self._stack: list[int] = []
        self._seen_links: set = set()
        self._bindings: list[tuple[object, str, object, object]] | None = None

    # -- spans and counts -------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[(self.request, name)] += value

    def begin(self, request) -> int:
        """Start a request: a root span every module span of the request nests in."""
        self.request = request
        return self.open("bench.op")

    def new_round(self) -> None:
        """Link tests repeat only within a round (one pass of the workload)."""
        self._seen_links.clear()

    def end(self, root: int) -> None:
        self.close(root)
        self.request = None

    # -- instrumentation --------------------------------------------------

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    def _collect_bindings(self) -> list[tuple[object, str, object, object]]:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "radioloc" or n.startswith("radioloc.")]
        bindings = []
        for module_name, func_name, counter in _TARGETS:
            owner = sys.modules[f"radioloc.{module_name}"]
            name = f"{module_name}.{func_name}"
            if "." in func_name:
                cls_name, meth = func_name.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                bindings.append((cls, meth, original, self._wrap(name, original, counter)))
                continue
            original = getattr(owner, func_name)
            wrapped = self._wrap(name, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        bindings.append((module, attr, original, wrapped))
        return bindings

    def install(self) -> None:
        """Rebind every instrumented function in every loaded radioloc module."""
        if self._bindings is None:
            self._bindings = self._collect_bindings()
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings or []:
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[tuple, float]:
        """Self time per (request, span name): duration minus direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[tuple, float] = defaultdict(float)
        for i, (name, start, end, _, request) in enumerate(self.spans):
            totals[(request, name)] += (end - start) - child[i]
        return totals

    def durations(self, name: str, requests) -> list[tuple]:
        """(request, seconds) of every span called ``name`` in ``requests``."""
        wanted = set(requests)
        return [(r, end - start) for n, start, end, _, r in self.spans
                if n == name and r in wanted]

    def dump(self, path, scales: dict) -> None:
        """Write spans (raw perf_counter seconds), counts and per-request scales."""
        doc = {
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "scales": [[request, scale] for request, scale in scales.items()],
            "counts": [[request, name, value]
                       for (request, name), value in sorted(self.counts.items(),
                                                            key=lambda kv: str(kv[0]))],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# Counters, run after the wrapped call returns
# ---------------------------------------------------------------------------

def _count_links(tracer, args, kwargs, result):
    plan = _arg(args, kwargs, 0, "plan")
    tx = _arg(args, kwargs, 1, "tx")
    rx = np.asarray(_arg(args, kwargs, 2, "rx_xyz"), dtype=float)
    tests = rx.shape[0] * len(plan.obstacles)
    key = (hash(plan.obstacles), tx.x, tx.y, tx.z, hash(rx.tobytes()))
    tracer.count("floorplan.link_tests", tests)
    if key in tracer._seen_links:
        tracer.count("floorplan.repeat_link_tests", tests)
    tracer._seen_links.add(key)


def _count_predictions(tracer, args, kwargs, result):
    tracer.count("propagation.predictions", len(result))


def _count_single_prediction(tracer, args, kwargs, result):
    tracer.count("propagation.predictions", 1)


def _count_rows(tracer, args, kwargs, result):
    tracer.count("fitting.rows_parsed", len(result.records))


def _count_samples(tracer, args, kwargs, result):
    tracer.count("fitting.samples", result.m_used)


def _count_virtual(tracer, args, kwargs, result):
    tracer.count("radiomap.virtual_rps", len(result))


def _count_matrix(tracer, args, kwargs, result):
    tracer.count("radiomap.matrix_calls", 1)


def _count_radiomap_bytes(tracer, args, kwargs, result):
    tracer.count("radiomap.json_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _count_locate(tracer, args, kwargs, result):
    rmap = _arg(args, kwargs, 0, "rmap")
    tracer.count("positioning.requests", 1)
    tracer.count("positioning.distance_evals", len(rmap) * len(rmap.aps))
    tracer.count("positioning.k_sum", len(result.neighbors))
    tracer.count("positioning.k_n", 1)


def _count_curves(tracer, args, kwargs, result):
    rp_rss = _arg(args, kwargs, 0, "rp_rss")
    n_targets, k_max = result.shape
    tracer.count("positioning.targets_scored", n_targets)
    tracer.count("positioning.distance_evals", n_targets * rp_rss.shape[0] * rp_rss.shape[1])
    tracer.count("positioning.k_sum", k_max)
    tracer.count("positioning.k_n", 1)


def _count_cells(tracer, args, kwargs, result):
    report = result[0] if isinstance(result, tuple) else result
    tracer.count("evaluation.cells", len(report.cells))
    tracer.count("evaluation.failed_cells", sum(1 for c in report.cells if c.error))


def _count_report_bytes(tracer, args, kwargs, result):
    tracer.count("evaluation.report_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _count_campaign(tracer, args, kwargs, result):
    measurements, test_points = result
    tracer.count("simulator.records", len(measurements.records) + len(test_points))


# (module, public function or Class.method, counter). Only functions a
# per-layer metric reads are wrapped; the time of every other function (private
# helpers, loaders, MeasurementSet methods) is its caller's self time.
_TARGETS = [
    ("floorplan", "crossing_flags_batch", _count_links),
    ("floorplan", "crossing_counts_batch", None),
    ("floorplan", "floors_crossed_batch", None),
    ("floorplan", "count_obstructions", None),
    ("propagation", "predict_rss_many", _count_predictions),
    ("propagation", "predict_rss", _count_single_prediction),
    ("fitting", "load_measurements", _count_rows),
    ("fitting", "fit", _count_samples),
    ("radiomap", "generate_virtual_fingerprints", _count_virtual),
    ("radiomap", "save_radiomap", _count_radiomap_bytes),
    ("radiomap", "load_radiomap", None),
    ("radiomap", "Radiomap.rss_matrix", _count_matrix),
    ("radiomap", "Radiomap.positions_matrix", _count_matrix),
    ("positioning", "locate", _count_locate),
    ("positioning", "error_curves", _count_curves),
    ("evaluation", "run_prediction_analysis", _count_cells),
    ("evaluation", "run_positioning_sweep", _count_cells),
    ("evaluation", "run_kest_sweep", None),
    ("evaluation", "emit_report", _count_report_bytes),
    ("simulator", "simulate_campaign", _count_campaign),
    ("cli", "main", None),
]

# Per-layer time metric -> the spans whose self times it sums. Together they
# read every span an operation can open except the simulator's (set-up only),
# so their sum and trace.unattributed_frac make up the operation's wall time.
_SPAN_METRICS = {
    "floorplan.crossing_s": ["floorplan.crossing_flags_batch",
                             "floorplan.crossing_counts_batch",
                             "floorplan.floors_crossed_batch",
                             "floorplan.count_obstructions"],
    "propagation.predict_s": ["propagation.predict_rss_many", "propagation.predict_rss"],
    "fitting.load_measurements_s": ["fitting.load_measurements"],
    "fitting.fit_s": ["fitting.fit"],
    "radiomap.synthesis_s": ["radiomap.generate_virtual_fingerprints"],
    "radiomap.matrix_s": ["radiomap.Radiomap.rss_matrix", "radiomap.Radiomap.positions_matrix"],
    "radiomap.save_s": ["radiomap.save_radiomap"],
    "radiomap.load_s": ["radiomap.load_radiomap"],
    "positioning.locate_s": ["positioning.locate"],
    "positioning.error_curves_s": ["positioning.error_curves"],
    "evaluation.prediction_s": ["evaluation.run_prediction_analysis"],
    "evaluation.positioning_sweep_s": ["evaluation.run_positioning_sweep"],
    "evaluation.kest_s": ["evaluation.run_kest_sweep"],
    "evaluation.emit_s": ["evaluation.emit_report"],
    "cli.self_s": ["cli.main"],
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def tail(values: list[float]) -> float:
    """The highest percentile, at most p99, with ten samples beyond it; else the maximum."""
    if len(values) <= 10:
        return max(values, default=0.0)
    ordered = sorted(values)
    return ordered[min(int(0.99 * len(ordered)), len(ordered) - 11)]


def layer_metrics(tracer: Tracer, ops: list, setups: list, scales: dict, overhead: float,
                  warnings_per_op: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    ``scales`` maps a request id to the machine-speed calibration it ran
    under; ``overhead`` is (traced - untraced) / untraced operation latency.
    """
    self_t = {key: t * scales.get(key[0], 1.0) for key, t in tracer.self_times().items()}
    n_ops = max(len(ops), 1)
    n_setups = max(len(setups), 1)

    def span_s(names, requests=ops):
        return sum(self_t.get((r, n), 0.0) for r in requests for n in names)

    def count(name, requests=ops):
        return sum(tracer.counts.get((r, name), 0.0) for r in requests)

    m = {name: (span_s(spans) / n_ops, "s") for name, spans in _SPAN_METRICS.items()}
    crossing = span_s(_SPAN_METRICS["floorplan.crossing_s"])
    tests = count("floorplan.link_tests")
    load_meas = span_s(["fitting.load_measurements"])
    rows = count("fitting.rows_parsed")
    op_wall = sum(t * scales[r] for r, t in tracer.durations("bench.op", ops))
    attributed = sum(value for value, _ in m.values()) * n_ops
    locate_ms = [1e3 * t * scales[r] for r, t in tracer.durations("positioning.locate", ops)]
    m.update({
        "floorplan.link_tests": (tests / n_ops, "count"),
        "floorplan.link_tests_per_s": (_ratio(tests, crossing), "1/s"),
        "floorplan.repeat_link_frac": (_ratio(count("floorplan.repeat_link_tests"), tests),
                                       "ratio"),
        "propagation.predictions": (count("propagation.predictions") / n_ops, "count"),
        "fitting.rows_parsed": (rows / n_ops, "count"),
        "fitting.rows_per_s": (_ratio(rows, load_meas), "1/s"),
        "fitting.samples": (count("fitting.samples") / n_ops, "count"),
        "fitting.warnings": (warnings_per_op, "count"),
        "radiomap.virtual_rps": (count("radiomap.virtual_rps") / n_ops, "count"),
        "radiomap.matrix_calls": (count("radiomap.matrix_calls") / n_ops, "count"),
        "radiomap.json_bytes": (count("radiomap.json_bytes") / n_ops, "bytes"),
        "positioning.locate_p99_ms": (tail(locate_ms), "ms"),
        "positioning.requests": (count("positioning.requests") / n_ops, "count"),
        "positioning.targets_scored": (count("positioning.targets_scored") / n_ops, "count"),
        "positioning.distance_evals": (count("positioning.distance_evals") / n_ops, "count"),
        "positioning.k_mean": (_ratio(count("positioning.k_sum"), count("positioning.k_n")),
                               "count"),
        "evaluation.report_bytes": (count("evaluation.report_bytes") / n_ops, "bytes"),
        "evaluation.cells": (count("evaluation.cells") / n_ops, "count"),
        "evaluation.failed_cells": (count("evaluation.failed_cells") / n_ops, "count"),
        "simulator.campaign_s": (span_s(["simulator.simulate_campaign"], setups) / n_setups,
                                 "s"),
        "simulator.records": (count("simulator.records", setups) / n_setups, "count"),
        "trace.overhead_frac": (overhead, "ratio"),
        # Operation wall time in no metric's spans: the benchmark's own glue
        # around the call, and any span no time metric reads.
        "trace.unattributed_frac": (_ratio(op_wall - attributed, op_wall), "ratio"),
    })
    return m
