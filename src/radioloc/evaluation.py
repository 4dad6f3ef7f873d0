"""Evaluation harness: prediction accuracy, positioning sweeps, gain, k-rule checks.

Three procedures are reproduced on a realized world (geometry, APs, survey
measurements, held-out test points):

* prediction analysis: for a grid of survey fractions rho, fit the model on
  ceil(rho * N) points and score |measured - predicted| at every survey point;
* positioning sweep: a full factorial over real-RP density, virtual-RP
  density, and k, reporting per-target errors and the gain of adding virtual
  fingerprints relative to the same real density without them;
* k-rule sweep: compare the density-derived k against the error-minimizing k
  over a grid of alpha values.

Reports are plain dataclasses serializable to CSV (one row per sweep cell) and
JSON (round-trippable).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

from .errors import DegenerateFitError, InsufficientDataError
from .fitting import FitResult, FitStrategy, MeasurementSet, fit
from .floorplan import Floorplan
from .ioutil import (_NUMBER_TYPES, atomic_files, format_json, json_array, json_integer,
                     json_number, json_object, read_json, write_text_atomic)
from .positioning import _best_k, error_curves, k_est_from_counts
from .propagation import AccessPoint, LinkTable, ModelKind
from .radiomap import (
    DETECTION_FLOOR_DBM,
    NOT_DETECTED_DBM,
    RpArrays,
    build_real_fingerprints,
    ceil_scaled,
    decimation_order,
    generate_virtual_fingerprints,
    place_virtual_rps,
)
from .simulator import (
    ALPHA_RANGE,
    ALPHA_STEP,
    ScenarioPreset,
    WorldSpec,
    grid_rp_positions,
    make_world,
    simulate_campaign,
    target_measurements,
    template_info,
    template_test_positions,
)

_SWEEP_STREAM = 307


# ---------------------------------------------------------------------------
# Shared statistics helpers
# ---------------------------------------------------------------------------

def cdf_points(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF as (value, cumulative_fraction) pairs; last fraction is 1.0."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def boxplot_stats(values: Sequence[float]) -> dict:
    """Min, quartiles, max, and 1.5*IQR outliers of a non-empty sample.

    One sort gives them all (``_column_stats``), equal to ``np.percentile``,
    ``min`` and ``max`` bit for bit except where zeros of both signs tie.
    """
    arr = np.asarray(values, dtype=float)
    quartiles, low, high = _column_stats(arr[:, None])
    p25, p50, p75 = quartiles[:, 0].tolist()
    iqr = p75 - p25
    lo, hi = p25 - 1.5 * iqr, p75 + 1.5 * iqr
    return {
        "min": float(low[0]),
        "p25": p25,
        "p50": p50,
        "p75": p75,
        "max": float(high[0]),
        "outliers": [float(v) for v in arr[(arr < lo) | (arr > hi)]],
    }


_QUARTILES = np.array([25.0, 50.0, 75.0]) / 100


def _column_stats(curves: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(quartiles (3, K), minima (K,), maxima (K,)) of the columns of a
    (T, K) array, T >= 1, from one sort of each column.

    The results equal ``np.percentile(curves, [25, 50, 75], axis=0)``,
    ``curves.min(axis=0)`` and ``curves.max(axis=0)`` bit for bit: the
    quartiles take numpy's linear-method indices, (T - 1) * q, and its
    ``_lerp`` arithmetic, and a column holding NaN gives NaN throughout. (A
    column holding zeros of both signs is the one exception: which of them
    numpy puts at an index is unspecified.)
    """
    t = curves.shape[0]
    lanes = curves.T.copy()
    lanes.sort(axis=1)
    virtual = (t - 1) * _QUARTILES
    prev = np.floor(virtual)
    nxt = prev + 1
    last = virtual >= t - 1  # T = 1: both neighbours are the only value
    prev[last] = nxt[last] = -1
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    gamma = virtual - prev
    a, b = lanes[:, prev], lanes[:, nxt]
    diff = b - a
    quartiles = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=quartiles, where=gamma >= 0.5)
    nan = np.isnan(lanes[:, -1])  # the sort puts a column's NaN last
    if nan.any():
        quartiles[nan] = lanes[nan, 0] = np.nan
    return quartiles.T, lanes[:, 0], lanes[:, -1]


# ---------------------------------------------------------------------------
# The realized world an evaluation runs against
# ---------------------------------------------------------------------------

@dataclass
class EvalWorld:
    """Everything the system under evaluation gets to see.

    The held-out test points are ``tp_rss`` (T, L) fingerprints, one column
    per AP, taken at ``tp_pos`` (T, 3).
    """

    plan: Floorplan
    aps: list[AccessPoint]
    measurements: MeasurementSet
    tp_pos: np.ndarray
    tp_rss: np.ndarray
    sentinel_dbm: float = NOT_DETECTED_DBM
    detection_floor_dbm: float = DETECTION_FLOOR_DBM
    seed: int = 0

    @property
    def area(self) -> float:
        return self.plan.area


def build_world(template: str, seed: int, preset: ScenarioPreset | None = None,
                noise=None) -> tuple[EvalWorld, WorldSpec]:
    """Realize a template world and its full-density survey campaign."""
    world = make_world(template, seed, noise=noise)
    info = template_info(template)
    rp_positions = grid_rp_positions(world.plan, info.dr_max)
    tp_positions = template_test_positions(template, seed, world.plan)
    if preset is None:
        preset = ScenarioPreset.controlled()
    measurements, test_points = simulate_campaign(world, rp_positions, tp_positions, preset)
    targets = build_real_fingerprints(target_measurements(world, test_points), world.aps,
                                      world.sentinel_dbm)
    return (
        EvalWorld(plan=world.plan, aps=world.aps, measurements=measurements,
                  tp_pos=targets.pos, tp_rss=targets.rss,
                  sentinel_dbm=world.sentinel_dbm,
                  detection_floor_dbm=world.detection_floor_dbm, seed=world.seed),
        world,
    )


# ---------------------------------------------------------------------------
# Report dataclasses
# ---------------------------------------------------------------------------

@dataclass
class PredictionCell:
    rho: float
    strategy: str
    model: str
    n_rps_fit: int
    n_pairs: int
    mean_delta_db: float
    per_ap_mean_db: dict[str, float]
    per_ap_deltas: dict[str, list[float]]
    error: str | None = None


@dataclass
class PredictionReport:
    cells: list[PredictionCell] = field(default_factory=list)


@dataclass
class PositioningCell:
    d_real: float
    d_virtual: float
    n_real: int
    n_virtual: int
    k_values: list[int]
    mean_error_by_k: list[float]
    p25_by_k: list[float]
    p50_by_k: list[float]
    p75_by_k: list[float]
    min_by_k: list[float]
    max_by_k: list[float]
    k_opt: int
    errors_at_k_opt: list[float]
    error: str | None = None

    def mean_error_at(self, k: int) -> float:
        try:
            return self.mean_error_by_k[self.k_values.index(k)]
        except ValueError:
            raise KeyError(f"k={k} not evaluated in this cell") from None

    @property
    def mean_error_at_k_opt(self) -> float:
        return self.mean_error_at(self.k_opt)


@dataclass
class PositioningReport:
    strategy: str
    model: str
    placement: str
    cells: list[PositioningCell] = field(default_factory=list)

    def cell(self, d_real: float, d_virtual: float) -> PositioningCell:
        return _find_cell(self.cells, d_real, d_virtual)


def _find_cell(cells: list, d_real: float, d_virtual: float):
    """The first of ``cells`` at (d_real, d_virtual); KeyError if none is."""
    for c in cells:
        if c.d_real == d_real and c.d_virtual == d_virtual:
            return c
    raise KeyError(f"no cell for d_real={d_real}, d_virtual={d_virtual}")


@dataclass
class GainCell:
    d_real: float
    d_virtual: float
    k_baseline: int
    k_cell: int
    gain: float


@dataclass
class GainReport:
    policy: str
    cells: list[GainCell] = field(default_factory=list)

    def gain(self, d_real: float, d_virtual: float) -> float:
        return _find_cell(self.cells, d_real, d_virtual).gain


@dataclass
class KestCell:
    d_real: float
    d_virtual: float
    alpha: float
    k_est: int
    k_opt: int
    mean_error_kest_m: float
    mean_error_kopt_m: float
    beta_m: float


@dataclass
class KestReport:
    cells: list[KestCell] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Survey prefixes and their fits
# ---------------------------------------------------------------------------

class _SurveyFits:
    """The fits of one survey's farthest-point prefixes, shared by the sweeps.

    ``order`` is the survey points' decimation order; a prefix is its first
    n points. ``links`` holds one LinkTable per AP over the survey, which the
    predictions read too; a prefix is fitted as the survey's subset of its
    points, on tables taken from these, so each AP's survey links are counted
    once. Each (strategy, model, n) is fitted once: a later request returns
    the same FitResult, or raises the same fit error again. Geometry and
    input errors are not kept; they end the evaluation.
    """

    def __init__(self, plan: Floorplan, aps: list[AccessPoint], meas: MeasurementSet):
        self.plan, self.aps, self.meas = plan, aps, meas
        self.order = decimation_order(meas.xyz)
        self.links = {ap.id: LinkTable(plan, ap, meas.xyz) for ap in aps}
        self._fits: dict = {}

    def fit(self, strategy: FitStrategy, model: ModelKind, n_keep: int) -> FitResult:
        key = (strategy, model, n_keep)
        if key not in self._fits:
            # Sorted, the prefix's points are in the subset's own point order.
            points = np.sort(np.array(self.order[:n_keep], dtype=np.intp))
            links = {ap_id: table.take(points) for ap_id, table in self.links.items()}
            try:
                self._fits[key] = fit(strategy, model, self.plan, self.aps,
                                      self.meas.subset(points), _links=links)
            except (DegenerateFitError, InsufficientDataError) as exc:
                self._fits[key] = exc
        result = self._fits[key]
        if isinstance(result, Exception):
            raise result
        return result


# ---------------------------------------------------------------------------
# Prediction analysis
# ---------------------------------------------------------------------------

def run_prediction_analysis(meas: MeasurementSet, plan: Floorplan,
                            aps: list[AccessPoint],
                            rho_grid: Sequence[float],
                            strategies: Sequence[FitStrategy],
                            models: Sequence[ModelKind], *,
                            _fits: _SurveyFits | None = None) -> PredictionReport:
    """Score RSS prediction error over a grid of survey fractions.

    For each (rho, strategy, model): calibrate on ceil(rho * N) survey points
    chosen by farthest-point decimation, predict at every survey point, and
    collect |measured - predicted| over all pairs where the AP was detected.
    Fit failures are recorded in their cell instead of aborting the sweep.
    ``_fits`` shares the survey's fits with the positioning sweep.
    """
    if any(not 0.0 < rho <= 1.0 for rho in rho_grid):
        raise ValueError("rho grid values must lie in (0, 1]")
    fits = _SurveyFits(plan, aps, meas) if _fits is None else _fits
    means = meas.mean_matrix()
    column = {ap_id: j for j, ap_id in enumerate(meas.ap_ids())}

    report = PredictionReport()
    for rho in rho_grid:
        n_keep = ceil_scaled(rho * len(fits.order))
        for strategy in strategies:
            for model in models:
                cell = PredictionCell(
                    rho=float(rho), strategy=strategy.kind.value, model=model.value,
                    n_rps_fit=n_keep, n_pairs=0, mean_delta_db=float("nan"),
                    per_ap_mean_db={}, per_ap_deltas={},
                )
                report.cells.append(cell)
                try:
                    result = fits.fit(strategy, model, n_keep)
                except (DegenerateFitError, InsufficientDataError) as exc:
                    cell.error = str(exc)
                    continue
                per_ap_deltas: dict[str, list[float]] = {}
                for ap in aps:
                    j = column.get(ap.id)
                    if j is None:
                        continue
                    measured = means[:, j]
                    detected = ~np.isnan(measured)
                    if not detected.any():
                        continue
                    predicted = fits.links[ap.id].predict_rss(model, result.params_for(ap.id))
                    per_ap_deltas[ap.id] = np.abs(measured - predicted)[detected].tolist()
                pooled = [d for deltas in per_ap_deltas.values() for d in deltas]
                cell.n_pairs = len(pooled)
                cell.mean_delta_db = float(np.mean(pooled)) if pooled else float("nan")
                cell.per_ap_deltas = per_ap_deltas
                cell.per_ap_mean_db = {ap_id: float(np.mean(d))
                                       for ap_id, d in per_ap_deltas.items()}
    return report


# ---------------------------------------------------------------------------
# Positioning sweep and virtualization gain
# ---------------------------------------------------------------------------

def _evaluate_cell(world: EvalWorld, fit_result: FitResult, model: ModelKind,
                   real_rps: RpArrays, d_real: float, d_virtual: float,
                   placement: str, seed: int,
                   grid: dict[float, tuple[np.ndarray, list[LinkTable]]],
                   ) -> PositioningCell:
    """One sweep cell. ``grid`` holds the grid-placed virtual positions of each
    d_virtual seen so far in the sweep, with their link tables."""
    virtual_rps = RpArrays.empty(len(world.aps))
    if d_virtual > 0:
        geometry = grid.get(d_virtual) if placement == "grid" else None
        if geometry is None:
            positions = place_virtual_rps(world.plan, d_virtual, placement, seed=seed)
            geometry = positions, [LinkTable(world.plan, ap, positions) for ap in world.aps]
            if placement == "grid":
                grid[d_virtual] = geometry
        positions, links = geometry
        virtual_rps = generate_virtual_fingerprints(
            fit_result, model, world.plan, world.aps, positions,
            sentinel_dbm=world.sentinel_dbm,
            detection_floor_dbm=world.detection_floor_dbm, links=links)
    rps = real_rps + virtual_rps

    # k runs over 1..k_max, one error-curve column each.
    k_max = min(len(rps), max(15, ceil_scaled(0.25 * len(rps))))
    curves = error_curves(rps.rss, rps.pos, world.tp_rss, world.tp_pos, k_max)
    means = curves.mean(axis=0)
    quartiles, lows, highs = _column_stats(curves)
    k_values = list(range(1, k_max + 1))
    k_opt = _best_k(k_values, means)
    return PositioningCell(
        d_real=float(d_real), d_virtual=float(d_virtual),
        n_real=len(real_rps), n_virtual=len(virtual_rps),
        k_values=k_values,
        mean_error_by_k=means.tolist(),
        p25_by_k=quartiles[0].tolist(),
        p50_by_k=quartiles[1].tolist(),
        p75_by_k=quartiles[2].tolist(),
        min_by_k=lows.tolist(),
        max_by_k=highs.tolist(),
        k_opt=k_opt,
        errors_at_k_opt=curves[:, k_opt - 1].tolist(),
    )


def _failed_cell(d_real: float, d_virtual: float, n_real: int, message: str,
                 ) -> PositioningCell:
    return PositioningCell(
        d_real=float(d_real), d_virtual=float(d_virtual), n_real=n_real, n_virtual=0,
        k_values=[], mean_error_by_k=[], p25_by_k=[], p50_by_k=[], p75_by_k=[],
        min_by_k=[], max_by_k=[], k_opt=0, errors_at_k_opt=[], error=message,
    )


def _gain(baseline_mean: float, cell_mean: float) -> float:
    """``baseline_mean / cell_mean`` as Python divides, except that a zero
    ``cell_mean`` gives what IEEE 754 gives: infinity, or NaN for 0 / 0."""
    try:
        return baseline_mean / cell_mean
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(baseline_mean) / cell_mean)


def run_positioning_sweep(world: EvalWorld, dr_grid: Sequence[float],
                          dv_grid: Sequence[float],
                          strategy: FitStrategy | None = None,
                          model: ModelKind = ModelKind.MWMF,
                          placement: str = "grid", *,
                          _fits: _SurveyFits | None = None,
                          ) -> tuple[PositioningReport, GainReport]:
    """Full factorial sweep of positioning error over (d_real, d_virtual, k).

    Each d_real keeps the first ceil(d_real * area) survey points in
    farthest-point order, refits the model on them, and evaluates WkNN error
    at every requested virtual density (a d_virtual = 0 baseline is always
    computed; it anchors the gain). Gain compares the baseline's and each
    cell's mean error, each at its own error-minimizing k; it is infinite
    where the cell's mean error is 0, and NaN where the baseline's is 0 too.
    ``_fits`` shares the survey's fits with the prediction analysis.
    """
    if not len(world.tp_rss):
        raise ValueError("positioning sweep needs test points")
    if strategy is None:
        strategy = FitStrategy.environment()

    fits = _SurveyFits(world.plan, world.aps, world.measurements) if _fits is None else _fits
    rps_all = build_real_fingerprints(world.measurements, world.aps, world.sentinel_dbm)
    area = world.area

    dv_values = sorted({float(dv) for dv in dv_grid} | {0.0})
    report = PositioningReport(strategy=strategy.kind.value, model=model.value,
                               placement=placement, cells=[])
    # Grid placement depends on d_virtual alone, so each lattice and its
    # geometry is computed once per sweep; random placement never repeats.
    grid: dict[float, tuple[np.ndarray, list[LinkTable]]] = {}

    for i_dr, d_real in enumerate(dr_grid):
        n_real = int(math.floor(round(d_real * area, 9) + 0.5))
        n_real = max(1, min(n_real, len(rps_all)))
        real_rps = rps_all[fits.order[:n_real]]
        try:
            fit_result = fits.fit(strategy, model, n_real)
        except (DegenerateFitError, InsufficientDataError) as exc:
            for dv in dv_values:
                report.cells.append(_failed_cell(d_real, dv, n_real, str(exc)))
            continue
        for i_dv, dv in enumerate(dv_values):
            cell_seed = int(np.random.SeedSequence(
                [world.seed, _SWEEP_STREAM, i_dr, i_dv]).generate_state(1)[0])
            try:
                cell = _evaluate_cell(world, fit_result, model, real_rps,
                                      d_real, dv, placement, cell_seed, grid)
            except ValueError as exc:
                cell = _failed_cell(d_real, dv, n_real, str(exc))
            report.cells.append(cell)

    gain = GainReport(policy="per-cell-k-opt", cells=[])
    requested_dvs = sorted({float(dv) for dv in dv_grid if dv > 0})
    n_dv = len(dv_values)
    for i_dr, d_real in enumerate(dr_grid):
        # The row of d_real's cells, one per d_virtual: a repeated d_real
        # reads its own row.
        row = dict(zip(dv_values, report.cells[i_dr * n_dv:(i_dr + 1) * n_dv]))
        baseline = row[0.0]
        if baseline.error:
            continue
        for dv in requested_dvs:
            cell = row[dv]
            if cell.error:
                continue
            value = _gain(baseline.mean_error_at_k_opt, cell.mean_error_at_k_opt)
            gain.cells.append(GainCell(d_real=float(d_real), d_virtual=dv,
                                       k_baseline=baseline.k_opt, k_cell=cell.k_opt,
                                       gain=float(value)))
    return report, gain


# ---------------------------------------------------------------------------
# k-rule validity sweep
# ---------------------------------------------------------------------------

# The most alphas one k-rule sweep takes; a step that gives more is refused
# before any alpha is built. The default grid has 25.
MAX_ALPHAS = 10_000


def alpha_grid(alpha_range: tuple[float, float] = ALPHA_RANGE,
               alpha_step: float = ALPHA_STEP) -> list[float]:
    """The alphas from ``alpha_range``'s min to its max, both in (0, 1], in
    ``alpha_step`` steps, each rounded to ten significant digits.

    ValueError when the range or step is invalid, when the range holds more
    than MAX_ALPHAS steps, or when two consecutive alphas round equal (a step
    below the grid's ten-digit resolution).
    """
    a_min, a_max = alpha_range
    if not 0.0 < a_min <= a_max <= 1.0:
        raise ValueError("alpha range must satisfy 0 < min <= max <= 1")
    if not alpha_step > 0:
        raise ValueError("alpha step must be positive")
    # The grid's size first: i * step passes the range's end after about
    # span / step steps. A quotient that overflows is inf, and refused too.
    if (a_max + 1e-12 - a_min) / alpha_step >= MAX_ALPHAS:
        raise ValueError(f"alpha step {alpha_step!r} gives more than {MAX_ALPHAS} alphas "
                         f"over {a_min!r}:{a_max!r}")
    alphas: list[float] = []
    i = 0
    while True:
        # Ten significant digits strip the float fuzz of i * step, and keep
        # every alpha of a positive range positive.
        alpha = float(f"{a_min + i * alpha_step:.10g}")
        if alpha > a_max + 1e-12:
            return alphas
        if alphas and alpha <= alphas[-1]:
            raise ValueError(f"alpha step {alpha_step!r} is below the alphas' ten-digit "
                             f"resolution: {alpha!r} repeats")
        alphas.append(alpha)
        i += 1


def run_kest_sweep(positioning: PositioningReport, dr_grid: Sequence[float],
                   dv_max: float, alpha_range: tuple[float, float] = ALPHA_RANGE,
                   alpha_step: float = ALPHA_STEP) -> KestReport:
    """Excess error of the density-derived k over the best k, across alpha.

    For each d_real at the maximum virtual density, beta(alpha) is the mean
    positioning error at the density rule's k (``k_est_from_counts``, capped
    at the sweep's largest k) minus the error at the sweep's best k, read
    from ``positioning``, the report ``run_positioning_sweep`` writes for
    dr_grid and a d_virtual grid holding dv_max. The alphas are
    ``alpha_grid(alpha_range, alpha_step)``.
    """
    if dv_max <= 0:
        raise ValueError("k-rule sweep needs a positive virtual density")
    alphas = alpha_grid(alpha_range, alpha_step)

    report = KestReport()
    # The sweep writes one row of cells per d_real, all rows of one length, so
    # a repeated d_real reads its own row's cell.
    row_length = len(positioning.cells) // max(len(dr_grid), 1)
    for i, d_real in enumerate(dr_grid):
        row = positioning.cells[i * row_length:(i + 1) * row_length]
        cell = _find_cell(row, float(d_real), float(dv_max))
        if cell.error:
            continue
        for alpha in alphas:
            k_rule = min(k_est_from_counts(cell.n_real, cell.n_virtual, alpha),
                         cell.k_values[-1])
            err_rule = cell.mean_error_at(k_rule)
            err_opt = cell.mean_error_at_k_opt
            report.cells.append(KestCell(
                d_real=float(d_real), d_virtual=float(dv_max), alpha=float(alpha),
                k_est=int(k_rule), k_opt=int(cell.k_opt),
                mean_error_kest_m=float(err_rule), mean_error_kopt_m=float(err_opt),
                beta_m=float(err_rule - err_opt),
            ))
    return report


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

_REPORT_TYPES = {
    "prediction": (PredictionReport, PredictionCell),
    "positioning": (PositioningReport, PositioningCell),
    "gain": (GainReport, GainCell),
    "kest": (KestReport, KestCell),
}

# CSV header of each report type. The one-row-per-cell reports write the cell
# field of each column's name: those in _REPR_COLUMNS as ``repr``, the others
# as ``csv.writer`` writes them.
_CSV_COLUMNS = {
    "prediction": ["rho", "strategy", "model", "n_rps_fit", "n_pairs", "mean_delta_db",
                   "error"],
    "positioning": ["d_real", "d_virtual", "k", "strategy", "model", "mean_error_m",
                    "p25", "p50", "p75", "min", "max", "gain"],
    "gain": ["d_real", "d_virtual", "k_baseline", "k_cell", "gain"],
    "kest": ["d_real", "d_virtual", "alpha", "k_est", "k_opt", "mean_error_kest_m",
             "mean_error_kopt_m", "beta_m"],
}
_REPR_COLUMNS = frozenset({"rho", "mean_delta_db", "d_real", "d_virtual", "gain", "alpha",
                           "mean_error_kest_m", "mean_error_kopt_m", "beta_m"})
_PER_K = ("mean_error_by_k", "p25_by_k", "p50_by_k", "p75_by_k", "min_by_k", "max_by_k")
# json's spelling of the floats whose repr is not JSON.
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# JSON indentation of a cell (document > "cells" > cell) and of its fields.
_CELL_PAD = " " * 4
_FIELD_PAD = " " * 6


def _csv_text(rows) -> str:
    """``rows`` as ``csv.writer`` writes them: minimal quoting, ``\\r\\n`` line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _same(value):
    return value


def _scalar(value, csv_form=repr) -> tuple[object, str]:
    """A cell field's CSV value and JSON text: one ``repr`` for an exact float or
    int; else ``csv_form(value)`` and json's own text."""
    if type(value) in _NUMBER_TYPES:
        text = repr(value)
        return text, _JSON_SPECIAL.get(text, text)
    return csv_form(value), format_json(value)


def _spelled(build: Callable[[list[str]], str], texts: list[str]) -> str:
    """``build(texts)``, rebuilt with NaN and infinities spelled as ``json`` spells
    them if it holds any: of the texts of floats and ints, only theirs hold an n."""
    text = build(texts)
    if "n" in text:
        text = build([_JSON_SPECIAL.get(t, t) for t in texts])
    return text


class _Numbers:
    """A list of numbers, with the ``repr`` of each made once for both formats.

    Where some value is not an exact float or int, json encodes the list itself.
    """

    __slots__ = ("values", "csv", "exact", "all_float")

    def __init__(self, values):
        self.values = values
        self.csv = list(map(repr, values))
        types = set(map(type, values))
        self.exact = types <= _NUMBER_TYPES
        self.all_float = types <= {float}

    def json_at(self, pad: str) -> str:
        if not self.exact:
            return format_json(self.values, pad)
        return _spelled(lambda texts: json_array(texts, pad), self.csv)

    def cdf_json_at(self, pad: str, fractions: dict[int, list[str]]) -> str:
        """``cdf_points(values)`` as JSON. When every value is a float, their texts
        are reused: ``sorted`` orders the values as it orders their indices keyed
        by them. ``fractions`` holds the texts of (i + 1) / n by n."""
        if not self.all_float:
            return format_json(cdf_points(self.values), pad)
        n = len(self.values)
        if n not in fractions:
            fractions[n] = [repr((i + 1) / n) for i in range(n)]
        inner = pad + "  "
        head, middle, tail = "[\n" + inner + "  ", ",\n" + inner + "  ", "\n" + inner + "]"
        order = sorted(range(n), key=self.values.__getitem__)
        return _spelled(lambda texts: json_array(
            [head + texts[i] + middle + fraction + tail
             for i, fraction in zip(order, fractions[n])], pad), self.csv)


class _CellRenderer:
    """Renders each cell of one report as its CSV rows and its JSON object.

    The two share every number's text.
    """

    def __init__(self, report, kind: str):
        self.kind = kind
        self.fractions: dict[int, list[str]] = {}
        if kind == "positioning":
            self.render = self._positioning
            self.middle = "," + _csv_text([[report.strategy, report.model]])[:-2] + ","
            self.baselines = {c.d_real: c for c in report.cells
                              if c.d_virtual == 0.0 and not c.error}
        else:
            self.render = self._one_row

    @staticmethod
    def _json(cell, texts: dict[str, str], extra: list[tuple[str, str]]) -> str:
        """The cell's fields in order, from ``texts`` where rendered there, then ``extra``."""
        items = [(name, texts[name] if name in texts
                  else format_json(getattr(cell, name), _FIELD_PAD))
                 for name in cell.__dataclass_fields__]
        return json_object(items + extra, _CELL_PAD)

    def _one_row(self, cell) -> tuple[str, str]:
        texts: dict[str, str] = {}
        row = []
        for name in _CSV_COLUMNS[self.kind]:
            csv_value, texts[name] = _scalar(getattr(cell, name),
                                             repr if name in _REPR_COLUMNS else _same)
            row.append(csv_value)
        extra = []
        if self.kind == "prediction":
            pad = _FIELD_PAD + "  "
            deltas = {ap: _Numbers(d) for ap, d in cell.per_ap_deltas.items()}
            texts["per_ap_deltas"] = json_object(
                [(ap, d.json_at(pad)) for ap, d in deltas.items()], _FIELD_PAD)
            if not cell.error:
                extra.append(("per_ap_cdf", json_object(
                    [(ap, d.cdf_json_at(pad, self.fractions)) for ap, d in deltas.items()],
                    _FIELD_PAD)))
        return _csv_text([row]), self._json(cell, texts, extra)

    def _positioning(self, cell: PositioningCell) -> tuple[str, str]:
        d_real, d_real_json = _scalar(cell.d_real)
        d_virtual, d_virtual_json = _scalar(cell.d_virtual)
        ks = _Numbers(cell.k_values)
        columns = [_Numbers(getattr(cell, name)) for name in _PER_K]
        rows = "" if cell.error else self._rows(cell, d_real, d_virtual, ks, columns)
        errors = _Numbers(cell.errors_at_k_opt)
        texts = {"d_real": d_real_json, "d_virtual": d_virtual_json,
                 "k_values": ks.json_at(_FIELD_PAD),
                 "errors_at_k_opt": errors.json_at(_FIELD_PAD)}
        texts.update((name, column.json_at(_FIELD_PAD)) for name, column in zip(_PER_K, columns))
        extra = []
        if not cell.error:
            extra = [("cdf_at_k_opt", errors.cdf_json_at(_FIELD_PAD, self.fractions)),
                     ("boxplot_at_k_opt",
                      format_json(boxplot_stats(cell.errors_at_k_opt), _FIELD_PAD))]
        return rows, self._json(cell, texts, extra)

    def _rows(self, cell, d_real: str, d_virtual: str, ks: _Numbers,
              columns: list[_Numbers]) -> str:
        """One row per k. The gain is ``_gain(baseline mean, cell mean)``,
        empty where the baseline lacks the k."""
        head = f"{d_real},{d_virtual},"
        k_texts = ks.csv if ks.exact else map(str, cell.k_values)
        stats = map(",".join, zip(*(column.csv for column in columns)))
        gains = [""] * len(cell.k_values)
        baseline = self.baselines.get(cell.d_real)
        if cell.d_virtual > 0 and baseline is not None:
            # Reversed, so a repeated k keeps its first entry, as list.index finds it.
            base_mean = dict(zip(reversed(baseline.k_values),
                                 reversed(baseline.mean_error_by_k)))
            gains = [repr(_gain(base_mean[k], mean)) if k in base_mean else ""
                     for k, mean in zip(cell.k_values, cell.mean_error_by_k)]
        return "".join([f"{head}{k}{self.middle}{row},{gain}\r\n"
                        for k, row, gain in zip(k_texts, stats, gains)])


def _report_kind(report) -> str:
    for name, (report_cls, _) in _REPORT_TYPES.items():
        if isinstance(report, report_cls):
            return name
    raise TypeError(f"unknown report type {type(report).__name__}")


def _render(report, csv_out: TextIO, json_out: TextIO) -> None:
    """Write ``report`` as CSV to ``csv_out`` and as JSON to ``json_out``, cell by cell.

    The CSV is what ``csv.writer`` writes for one row per cell, or per (cell,
    k) in a positioning report, with floats as ``repr``. The JSON is
    ``json.dumps(doc, indent=2)`` of the report's fields and its ``type``,
    with ``cdf_at_k_opt`` and ``boxplot_at_k_opt`` added to each positioning
    cell and ``per_ap_cdf`` to each prediction cell that did not fail. Each
    exact float or int is converted to text once for both files.
    """
    kind = _report_kind(report)
    renderer = _CellRenderer(report, kind)
    csv_out.write(",".join(_CSV_COLUMNS[kind]) + "\r\n")
    # Every report dataclass declares its cells last.
    json_out.write("{\n" + "".join(
        f"  {format_json(name)}: {format_json(getattr(report, name), '  ')},\n"
        for name in report.__dataclass_fields__ if name != "cells") + '  "cells": [')
    separator = "\n" + _CELL_PAD
    for cell in report.cells:
        rows, cell_json = renderer.render(cell)
        csv_out.write(rows)
        json_out.write(separator + cell_json)
        separator = ",\n" + _CELL_PAD
    end = "\n  ]" if report.cells else "]"
    json_out.write(f'{end},\n  "type": {format_json(kind)}\n}}\n')


def emit_report(report, path: str | Path, fmt: str = "json") -> None:
    """Write a report to disk as CSV (one row per sweep cell) or JSON. Both texts
    are rendered, as in ``emit_report_pair``, so a report that one format cannot
    hold is refused in either."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    texts = {"csv": io.StringIO(), "json": io.StringIO()}
    _render(report, texts["csv"], texts["json"])
    write_text_atomic(path, texts[fmt].getvalue())


def emit_report_pair(report, csv_path: str | Path, json_path: str | Path) -> None:
    """Write a report's CSV and JSON files in one pass: both of them, or neither
    when rendering fails."""
    with atomic_files(csv_path, json_path) as (csv_out, json_out):
        _render(report, csv_out, json_out)


def _json_list(read: Callable) -> Callable:
    def read_list(value) -> list:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return [read(item) for item in value]
    return read_list


def _json_dict(read: Callable) -> Callable:
    return lambda value: {key: read(item) for key, item in value.items()}


# How a report file's cell field is read, by the field's annotation; a field
# not listed (a str) is taken as it is.
_FIELD_READERS: dict[str, Callable] = {
    "float": json_number,
    "int": json_integer,
    "list[float]": _json_list(json_number),
    "list[int]": _json_list(json_integer),
    "dict[str, float]": _json_dict(json_number),
    "dict[str, list[float]]": _json_dict(_json_list(json_number)),
}


def _report_from_dict(doc: dict):
    kind = doc.pop("type", None)
    if kind not in _REPORT_TYPES:
        raise ValueError(f"unknown report type {kind!r}")
    report_cls, cell_cls = _REPORT_TYPES[kind]
    readers = {f.name: _FIELD_READERS.get(f.type, lambda value: value)
               for f in fields(cell_cls)}
    cells = [cell_cls(**{k: readers[k](v) for k, v in item.items() if k in readers})
             for item in doc.pop("cells", [])]
    top_fields = {k: v for k, v in doc.items()
                  if k in report_cls.__dataclass_fields__ and k != "cells"}
    return report_cls(cells=cells, **top_fields)


def load_report(path: str | Path):
    """Re-parse a JSON report emitted by emit_report into an equal report object."""
    return read_json(path, "report", _report_from_dict)
