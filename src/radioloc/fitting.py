"""Least-squares calibration of path-loss parameters from an RSS survey.

With the 1 m reference loss pinned, the received power is linear in the
unknowns: gamma multiplies a 10*log10(d) regressor, the constant loss is an
intercept, and each obstacle family (wall, door) contributes its crossing
count as a regressor. Calibration is therefore ordinary linear least squares
on one design matrix per survey, one row per detected same-floor (point, AP)
pair: solved whole (environment fitting) or one AP's rows at a time
(specific-AP fitting), while the no-fit strategy scores its fixed parameters
through the same columns. The columns are read from the same
``propagation.LinkTable``s that predict RSS, one per AP over the survey, so
the fit and its predictions share one log (``np.log10``) and one set of
obstruction counts. Scans are averaged per (point, AP) pair first and
not-detected entries are dropped, never imputed.
"""

from __future__ import annotations

import csv
import io
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import DegenerateFitError, GeometryError, InsufficientDataError
from .floorplan import Floorplan, ObstacleFamily, Point3
from .ioutil import (atomic_files, csv_rows, json_integer, json_number, read_bytes, read_csv,
                     read_json, read_sidecar, write_json, write_sidecar)
from .propagation import (
    FREE_SPACE_L0_DB,
    AccessPoint,
    LinkTable,
    ModelKind,
    PropagationParams,
    params_from_dict,
    params_to_dict,
)

MEASUREMENT_COLUMNS = ["rp_id", "x", "y", "z", "ap_id", "rss_dbm", "scan_index"]
NOT_DETECTED_TOKEN = "ND"


@dataclass(frozen=True)
class MeasurementRecord:
    """One scan of one AP at one survey point; rss_dbm is None when not detected."""

    rp_id: str
    location: Point3
    ap_id: str
    rss_dbm: float | None
    scan_index: int

    def __post_init__(self):
        if self.rss_dbm is not None and not (-120.0 <= self.rss_dbm <= 0.0):
            raise ValueError(f"rss_dbm {self.rss_dbm} outside [-120, 0]")


def _first_appearance(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes of ``index`` in order of first appearance, and ``index`` renumbered to them.

    Codes in 0..n-1 that never appear are dropped.
    """
    codes, first = np.unique(index, return_index=True)
    used = codes[np.argsort(first, kind="stable")]
    renumber = np.zeros(n, dtype=np.intp)
    renumber[used] = np.arange(used.shape[0])
    return used, renumber[index]


def _index_names(names) -> tuple[list[str], np.ndarray]:
    """Unique names in first-appearance order, and each entry's position among them."""
    unique = list(dict.fromkeys(names))
    lookup = {name: i for i, name in enumerate(unique)}
    return unique, np.fromiter(map(lookup.__getitem__, names), dtype=np.intp,
                               count=len(names))


def _survey_points(rp_ids: Sequence[str], coords: Iterable,
                   ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Point ids, each row's point index, and one (x, y, z) row per point.

    ``coords`` holds one (x, y, z) tuple of number tokens per row. Only
    distinct (id, coordinate) pairs are converted by ``float()``; rows of one
    point that disagree in value raise ValueError.
    """
    names, rp_index = _index_names(rp_ids)
    lookup = {name: i for i, name in enumerate(names)}
    xyz: list = [None] * len(names)
    for rp_id, coord in dict.fromkeys(zip(rp_ids, coords)):
        point = tuple(map(float, coord))
        i = lookup[rp_id]
        if xyz[i] is None:
            xyz[i] = point
        elif xyz[i] != point:
            raise ValueError(f"point {rp_id!r} has inconsistent coordinates")
    return names, rp_index, np.array(xyz, dtype=float).reshape(-1, 3)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _Records(Sequence):
    """The survey's rows as MeasurementRecord objects, built on access."""

    def __init__(self, meas: "MeasurementSet"):
        self._meas = meas

    def __len__(self) -> int:
        return self._meas.rp_index.shape[0]

    def __getitem__(self, i: int) -> MeasurementRecord:
        return self._meas._record(range(len(self))[i])

    def __iter__(self):
        return map(self._meas._record, range(len(self)))


def _whole_numbers(values, dtype, name: str) -> np.ndarray:
    """``values`` as a ``dtype`` array; ValueError naming the column when a
    floating-point value is not a whole number that ``dtype`` holds."""
    column = np.asarray(values)
    if column.dtype.kind != "f":
        return np.asarray(column, dtype=dtype)
    with np.errstate(invalid="ignore"):  # NaN, infinities and overflow fail the test below
        whole = column.astype(dtype)
    if not np.array_equal(whole, column):
        bad = column[whole != column][0]
        raise ValueError(f"{name} value {float(bad)!r} is not an {np.dtype(dtype).name}")
    return whole


class MeasurementSet:
    """A survey stored as columns: one entry per scan row, one position per point.

    Built from indexed columns: ``xyz`` has one (x, y, z) row per entry of
    ``rp_ids``, ``rp_index`` and ``ap_index`` give each row's point and AP,
    and ``rss`` (dBm) is ignored where ``detected`` is False. Points and APs
    no row refers to are dropped and the rest renumbered in first-appearance
    order, so the stored ``rp_index`` and ``ap_index`` index ``rp_ids()`` and
    ``ap_ids()``; the stored ``rss`` is NaN where a row is not detected. All
    arrays are read-only. ``records`` presents the rows as MeasurementRecord
    objects without storing them.
    """

    def __init__(self, rp_ids: Sequence[str], xyz, ap_ids: Sequence[str], rp_index,
                 ap_index, rss, detected, scan):
        rp_index = _whole_numbers(rp_index, np.intp, "rp_index")
        m = rp_index.shape[0]
        if m == 0:
            raise ValueError("measurement set is empty")
        columns = [_whole_numbers(ap_index, np.intp, "ap_index"), np.asarray(rss, dtype=float),
                   np.asarray(detected, dtype=bool), _whole_numbers(scan, np.int64, "scan")]
        if any(col.shape != (m,) for col in columns):
            raise ValueError("measurement columns must have equal lengths")
        ap_index, rss, detected, scan = columns
        for index, names in ((rp_index, rp_ids), (ap_index, ap_ids)):
            if index.min() < 0 or index.max() >= len(names):
                raise ValueError("measurement index out of range")
        xyz = np.asarray(xyz, dtype=float)
        if xyz.shape != (len(rp_ids), 3):
            raise ValueError("expected one (x, y, z) row per point id")
        if not np.all(np.isfinite(xyz)):
            raise ValueError("coordinates must be finite")
        values = rss[detected]
        out_of_range = ~((values >= -120.0) & (values <= 0.0))
        if out_of_range.any():
            raise ValueError(
                f"rss_dbm {float(values[np.argmax(out_of_range)])!r} outside [-120, 0]")

        rp_used, rp_index = _first_appearance(rp_index, len(rp_ids))
        ap_used, ap_index = _first_appearance(ap_index, len(ap_ids))
        self._rp_ids = [rp_ids[i] for i in rp_used]
        self._ap_ids = [ap_ids[i] for i in ap_used]
        self.xyz = _read_only(xyz[rp_used])
        self.rp_index = _read_only(rp_index)
        self.ap_index = _read_only(ap_index)
        self.rss = _read_only(np.where(detected, rss, np.nan))
        self.detected = _read_only(np.array(detected))
        self.scan = _read_only(np.array(scan))
        self._means: np.ndarray | None = None

    @property
    def records(self) -> Sequence[MeasurementRecord]:
        return _Records(self)

    def _record(self, i: int) -> MeasurementRecord:
        x, y, z = self.xyz[self.rp_index[i]].tolist()
        return MeasurementRecord(
            rp_id=self._rp_ids[self.rp_index[i]],
            location=Point3(x, y, z),
            ap_id=self._ap_ids[self.ap_index[i]],
            rss_dbm=float(self.rss[i]) if self.detected[i] else None,
            scan_index=int(self.scan[i]),
        )

    def rp_ids(self) -> list[str]:
        """Survey point ids in first-appearance order."""
        return list(self._rp_ids)

    def ap_ids(self) -> list[str]:
        return list(self._ap_ids)

    def mean_matrix(self) -> np.ndarray:
        """Mean detected RSS as an (n_points, n_aps) array; NaN where never detected.

        Each mean adds the detected scans in row order, then divides by their
        count, so it equals a plain sequential loop over the rows bit for bit.
        """
        if self._means is None:
            n_rp, n_ap = len(self._rp_ids), len(self._ap_ids)
            pair = (self.rp_index * n_ap + self.ap_index)[self.detected]
            sums = np.bincount(pair, weights=self.rss[self.detected], minlength=n_rp * n_ap)
            counts = np.bincount(pair, minlength=n_rp * n_ap)
            with np.errstate(invalid="ignore"):
                means = sums / counts
            self._means = _read_only(means.reshape(n_rp, n_ap))
        return self._means

    def subset(self, points) -> "MeasurementSet":
        """The rows of the points at positions ``points`` in ``rp_ids()``, in row order."""
        keep = np.zeros(len(self._rp_ids), dtype=bool)
        keep[points] = True
        rows = keep[self.rp_index]
        if not rows.any():
            raise ValueError("subset selects no measurements")
        return MeasurementSet(
            self._rp_ids, self.xyz, self._ap_ids, self.rp_index[rows], self.ap_index[rows],
            self.rss[rows], self.detected[rows], self.scan[rows])


class StrategyKind(str, Enum):
    ENVIRONMENT = "environment"
    PER_AP = "per-ap"
    NO_FIT = "no-fit"


@dataclass(frozen=True)
class FitStrategy:
    """How measurements are pooled to estimate parameters; no-fit carries fixed params."""

    kind: StrategyKind
    no_fit_params: PropagationParams | None = None

    def __post_init__(self):
        if self.kind is StrategyKind.NO_FIT and self.no_fit_params is None:
            raise ValueError("no-fit strategy requires a complete parameter set")

    @classmethod
    def environment(cls) -> "FitStrategy":
        return cls(StrategyKind.ENVIRONMENT)

    @classmethod
    def no_fit(cls, params: PropagationParams) -> "FitStrategy":
        return cls(StrategyKind.NO_FIT, no_fit_params=params)


@dataclass
class FitResult:
    """Calibrated parameters per AP plus the fit's pooled residual statistics.

    Environment fitting maps every AP id to the same parameter instance.
    """

    params_by_ap: dict[str, PropagationParams]
    residual_rms_db: float
    m_used: int
    model: ModelKind
    strategy: StrategyKind

    def params_for(self, ap_id: str) -> PropagationParams:
        try:
            return self.params_by_ap[ap_id]
        except KeyError:
            raise KeyError(f"no fitted parameters for AP {ap_id!r}") from None


class _Design:
    """The least-squares system of one survey, rows in (AP id, point id) order.

    Each row is one detected same-floor (point, AP) pair. ``columns`` holds
    10*log10(d) for the one-slope model and, for the multi-wall model, also a
    constant 1 and one crossing count per obstacle family of the plan; ``y``
    is EIRP - l0 - mean RSS. ``rows`` maps each AP id with rows to its slice.
    The columns are read from ``links``, one LinkTable per AP over the
    survey's points in ``meas.rp_ids()`` order, the tables that predict RSS
    with the fitted parameters: the log term is ``10.0 * log10_d``, and the
    counts and floors are the tables'. The one-slope model reads only the
    tables' floors, so it counts no crossings.

    Building it raises ValueError on a survey AP missing from ``links``, then
    GeometryError on the first detected point that lies on its AP, in (AP id,
    point id) order, then warns of the cross-floor pairs it leaves out.
    """

    def __init__(self, plan: Floorplan, links: dict[str, LinkTable], meas: MeasurementSet,
                 model: ModelKind, l0_db: float):
        ap_ids = meas.ap_ids()
        unknown = [ap_id for ap_id in ap_ids if ap_id not in links]
        if unknown:
            raise ValueError(f"measurements reference unknown APs: {sorted(unknown)}")

        self.model, self.l0_db, self.keys = model, l0_db, plan.obstacle_keys()
        self.links = links
        means = meas.mean_matrix()
        rp_ids = meas.rp_ids()
        # Rows go in (AP id, point id) order; the solve's rounding depends on it.
        by_id = np.array(sorted(range(len(rp_ids)), key=rp_ids.__getitem__), dtype=np.intp)

        n_columns = 1 if model is ModelKind.ONE_SLOPE else 2 + len(self.keys)
        columns, ys = [np.empty((0, n_columns))], [np.empty(0)]
        self.rows: dict[str, slice] = {}
        start = skipped_floor = 0
        for j in sorted(range(len(ap_ids)), key=ap_ids.__getitem__):
            ap_id, table = ap_ids[j], links[ap_ids[j]]
            points = by_id[~np.isnan(means[by_id, j])]
            at_ap = table.at_ap[points]
            if at_ap.any():
                raise GeometryError(f"point {rp_ids[points[np.argmax(at_ap)]]!r} "
                                    f"coincides with AP {ap_id!r}")
            # The floor term is not part of the fitted set; cross-floor samples
            # cannot be attributed and are excluded.
            same = table.floors[points] == 0
            skipped_floor += points.shape[0] - int(np.count_nonzero(same))
            points = points[same]
            n = points.shape[0]
            if n == 0:
                continue
            log_term = 10.0 * table.log10_d[points]
            if model is ModelKind.MWMF:
                counts, _ = table.obstructions
                columns.append(np.column_stack(
                    [log_term, np.ones(n), *(arr[points] for arr in counts.values())]))
            else:
                columns.append(log_term[:, None])
            ys.append(table.ap.eirp_dbm - l0_db - means[points, j])
            self.rows[ap_id] = slice(start, start + n)
            start += n
        self.columns, self.y = np.concatenate(columns), np.concatenate(ys)
        if skipped_floor:
            warnings.warn(f"excluded {skipped_floor} cross-floor samples from the fit",
                          stacklevel=3)

    def solve(self, strategy: FitStrategy) -> FitResult:
        """The fit of every row of the design with ``strategy``."""
        model, l0_db, columns, y, rows = self.model, self.l0_db, self.columns, self.y, self.rows
        if strategy.kind is StrategyKind.PER_AP:
            params_by_ap: dict[str, PropagationParams] = {}
            per_ap_residuals = []
            for ap_id in self.links:
                if ap_id in rows:
                    params_by_ap[ap_id], residuals = _solve(
                        columns[rows[ap_id]], y[rows[ap_id]], self.keys, model, ap_id, l0_db)
                    per_ap_residuals.append(residuals)
            if not params_by_ap:
                raise InsufficientDataError("no AP has any detected sample")
            residuals = np.concatenate(per_ap_residuals)
        else:
            if strategy.kind is StrategyKind.NO_FIT:
                params = strategy.no_fit_params
                residuals = columns @ _theta(model, params, self.keys) - y
            else:
                params, residuals = _solve(columns, y, self.keys, model, "environment", l0_db)
            params_by_ap = {ap_id: params for ap_id in self.links}
        rms = float(np.sqrt(np.mean(residuals ** 2))) if residuals.size else 0.0
        return FitResult(params_by_ap=params_by_ap, residual_rms_db=rms,
                         m_used=y.shape[0], model=model, strategy=strategy.kind)


def _solve(columns: np.ndarray, y: np.ndarray, keys: list[ObstacleFamily], model: ModelKind,
           scope: str, l0_db: float) -> tuple[PropagationParams, np.ndarray]:
    """Solve one system of design rows; returns (params, per-row residuals).

    Its warnings point at the code that called ``fit``.
    """
    if model is ModelKind.MWMF:
        # Obstacle families no row crosses are unidentifiable; they are excluded
        # from the solve and their loss reported as zero.
        observed = columns[:, 2:].any(axis=0)
        if not observed.all():
            missing = [key.value for key, seen in zip(keys, observed) if not seen]
            warnings.warn(f"{scope}: no sample crosses {missing}; "
                          "their losses are unconstrained and set to 0",
                          stacklevel=4)
        columns = columns[:, np.concatenate([[True, True], observed])]

    m, n_params = columns.shape
    if m < n_params:
        raise InsufficientDataError(f"{scope}: {m} samples for {n_params} parameters")
    solution, _, rank, _ = np.linalg.lstsq(columns, y, rcond=None)
    if rank < n_params:
        raise DegenerateFitError(scope)

    if model is ModelKind.ONE_SLOPE:
        params = PropagationParams(l0_db=l0_db, gamma=float(solution[0]), lc_db=0.0)
    else:
        losses = dict(zip(compress(keys, observed), solution[2:].tolist()))
        if any(v < 0 for v in losses.values()):
            warnings.warn(f"{scope}: fitted obstacle losses include negative values",
                          stacklevel=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # range warning already issued above
            params = PropagationParams(
                l0_db=l0_db, gamma=float(solution[0]), lc_db=float(solution[1]),
                wall_db=losses.get(ObstacleFamily.WALL, 0.0),
                door_db=losses.get(ObstacleFamily.DOOR, 0.0))
    return params, columns @ solution - y


def _theta(model: ModelKind, params: PropagationParams,
           keys: list[ObstacleFamily]) -> np.ndarray:
    """Fixed parameters as a coefficient vector over the design's columns."""
    if model is ModelKind.ONE_SLOPE:
        return np.array([params.gamma])
    return np.array([params.gamma, params.lc_db, *(params.loss_db(key) for key in keys)])


def fit(strategy: FitStrategy, model: ModelKind, plan: Floorplan,
        aps: list[AccessPoint], meas: MeasurementSet, *,
        _links: dict[str, LinkTable] | None = None) -> FitResult:
    """Estimate propagation parameters from scan-averaged measurements.

    The reference loss is pinned (free-space 40.22 dB; the no-fit strategy
    uses its own parameters' l0) and excluded from the solved set; a free
    intercept would be collinear with the constant loss.

    Cost: one design matrix of the M detected same-floor (point, AP) pairs,
    read from one ``LinkTable`` per AP over every survey point, the tables
    that predict RSS: one ``np.log10`` per link and, for the multi-wall
    model, one batched obstruction count per AP (candidate pairs only, no
    per-obstacle matrix). Environment fitting solves it whole with one
    SVD-based least-squares solve (``np.linalg.lstsq``), O(M * p^2) flops for
    p parameters; per-AP fitting solves each AP's rows on their own; no-fit
    scores its fixed parameters with one matrix-vector product over the same
    rows.

    ``_links`` may pass those tables, one per AP of ``aps`` by id over the
    points of ``meas.rp_ids()``, in order. The evaluation sweeps fit many
    point subsets of one survey: each passes tables taken from the survey's
    (``LinkTable.take``), so the survey is counted once per AP.
    """
    l0_db = (strategy.no_fit_params.l0_db if strategy.kind is StrategyKind.NO_FIT
             else FREE_SPACE_L0_DB)
    if _links is None:
        _links = {ap.id: LinkTable(plan, ap, meas.xyz) for ap in aps}
    return _Design(plan, _links, meas, model, l0_db).solve(strategy)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def _csv_prefixes(rows: Iterable[list[str]]) -> np.ndarray:
    """Each row's text as ``csv.writer`` writes it before a further field.

    Each row is written with a trailing empty field, so its quoting stays the
    writer's own (a row of one empty field alone would be quoted), and the
    line end is cut off. Returns an object array of str.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    # writerow returns the characters written, "\r\n" line end included.
    lengths = [writer.writerow([*row, ""]) for row in rows]
    text = buf.getvalue()
    return np.array([text[end - n:end - 2] for n, end in zip(lengths, accumulate(lengths))],
                    dtype=object)


_SURVEY_HEADER = ",".join(MEASUREMENT_COLUMNS)
SURVEY_LANES_FORMAT = "radioloc-survey-lanes/1"
_SURVEY_LANES_KEYS = ["rows", "rp_ids", "ap_ids"]
# The longest number save_measurements writes: a float's repr, say
# -2.2250738585072014e-308.
_LONGEST_NUMBER = 24


def _survey_layout(header: dict) -> list[tuple]:
    """``xyz`` (points, 3), then ``rp_index``, ``ap_index``, ``rss``,
    ``detected`` and ``scan`` (rows,)."""
    n = json_integer(header["rows"])
    return [("<f8", (len(header["rp_ids"]), 3)), ("<i8", (n,)), ("<i8", (n,)), ("<f8", (n,)),
            (bool, (n,)), ("<i8", (n,))]


def _survey_from_lanes(header: dict, xyz, rp_index, ap_index, rss, detected,
                       scan) -> MeasurementSet:
    """The survey of a lanes file, through the checks of ``MeasurementSet``.

    ValueError where the CSV's parse would fail on a field longer than
    ``csv.field_size_limit()``: an id, or a number under a limit below
    ``_LONGEST_NUMBER``.
    """
    rp_ids, ap_ids = header["rp_ids"], header["ap_ids"]
    if max(_LONGEST_NUMBER, *map(len, rp_ids), *map(len, ap_ids)) > csv.field_size_limit():
        raise ValueError("a field is longer than the CSV reader takes")
    return MeasurementSet(rp_ids, xyz, ap_ids, rp_index, ap_index, rss, detected, scan)


def save_measurements(meas: MeasurementSet, path: str | Path) -> None:
    """Write ``meas`` as a survey CSV, byte for byte as ``csv.writer`` writes its
    rows, and, beside it, its lanes file (``ioutil.write_sidecar``).

    Each point's ``rp_id,x,y,z,`` and each AP's ``ap_id,`` prefix is rendered
    once, each detected RSS is one ``repr`` and each distinct scan index one
    text. The text is joined from these pieces in one pass, so no per-row
    string is built, and encoded and hashed once.

    The lanes file holds the ids in its header, then the columns: float64
    ``xyz`` (points, 3), int64 ``rp_index`` and ``ap_index``, float64 ``rss``,
    the ``detected`` flags and int64 ``scan`` (rows,). It is written only when
    the point ids and the AP ids are each unique: parsing the CSV merges
    repeated ids, or rejects a point's two coordinates, so no lanes file
    could hold what the parse gives. The CSV is then written alone, and a
    lanes file left beside it from an earlier survey does not match it.
    """
    points = _csv_prefixes([rp_id, repr(x), repr(y), repr(z)]
                           for rp_id, (x, y, z) in zip(meas.rp_ids(), meas.xyz.tolist()))
    aps = _csv_prefixes([ap_id] for ap_id in meas.ap_ids())
    scans, scan_of_row = np.unique(meas.scan, return_inverse=True)
    pieces = np.empty((len(meas.rss), 4), dtype=object)
    pieces[:, 0] = points[meas.rp_index]
    pieces[:, 1] = aps[meas.ap_index]
    pieces[:, 2] = NOT_DETECTED_TOKEN
    pieces[meas.detected, 2] = list(map(repr, meas.rss[meas.detected].tolist()))
    pieces[:, 3] = np.array([f",{scan}\r\n" for scan in scans.tolist()],
                            dtype=object)[scan_of_row]
    texts = pieces.ravel().tolist()
    texts.insert(0, _SURVEY_HEADER + "\r\n")
    data = "".join(texts).encode()
    rp_ids, ap_ids = meas.rp_ids(), meas.ap_ids()
    if len(set(rp_ids)) < len(rp_ids) or len(set(ap_ids)) < len(ap_ids):
        with atomic_files(path, binary=True) as (out,):
            out.write(data)
        return
    write_sidecar(path, data, SURVEY_LANES_FORMAT,
                  dict(zip(_SURVEY_LANES_KEYS, [len(meas.rss), rp_ids, ap_ids])),
                  [meas.xyz, meas.rp_index.astype(np.int64, copy=False),
                   meas.ap_index.astype(np.int64, copy=False),
                   meas.rss, meas.detected, meas.scan])


def load_measurements(path: str | Path) -> MeasurementSet:
    """The survey in the CSV file ``path``, read from its lanes file when that
    file matches the CSV's bytes, and parsed from the CSV otherwise.

    Raises InputError on an unreadable file, a wrong header, a short or long
    row, an unparsable number, an rss_dbm outside [-120, 0] (NaN included;
    only the ``ND`` token marks a non-detection), non-finite coordinates, or
    a point id whose rows disagree on its coordinates.

    The CSV is split into fields by ``csv.reader`` and every number read by
    ``float()`` or ``int()``. A lanes file holds what that parse gives, so
    both give one survey.
    """
    data = read_bytes(path, "measurement")
    meas = read_sidecar(path, data, SURVEY_LANES_FORMAT, _SURVEY_LANES_KEYS, _survey_layout,
                        _survey_from_lanes)
    if meas is not None:
        return meas
    return read_csv(path, "measurement", lambda text: _measurements_from_rows(csv_rows(text)),
                    data)


def _measurements_from_rows(rows: list[list[str]]) -> MeasurementSet:
    if rows[:1] != [MEASUREMENT_COLUMNS]:
        raise ValueError(f"expected header {','.join(MEASUREMENT_COLUMNS)}")
    del rows[0]
    if not rows:
        raise ValueError("no measurement rows")
    if set(map(len, rows)) != {len(MEASUREMENT_COLUMNS)}:
        malformed = next(row for row in rows if len(row) != len(MEASUREMENT_COLUMNS))
        raise ValueError(f"malformed row {malformed!r}")

    rp_ids, ap_ids, tokens, scans = (list(map(itemgetter(j), rows)) for j in (0, 4, 5, 6))
    detected = [token != NOT_DETECTED_TOKEN for token in tokens]
    names, rp_index, xyz = _survey_points(rp_ids, map(itemgetter(1, 2, 3), rows))
    ap_names, ap_index = _index_names(ap_ids)
    rss = np.full(len(rows), np.nan)
    rss[np.array(detected)] = np.fromiter(map(float, compress(tokens, detected)),
                                          dtype=float)
    scan_of = {text: int(text) for text in dict.fromkeys(scans)}
    return MeasurementSet(
        names, xyz, ap_names, rp_index, ap_index, rss, np.array(detected),
        np.fromiter(map(scan_of.__getitem__, scans), dtype=np.int64, count=len(scans)))


def fit_result_to_dict(result: FitResult) -> dict:
    doc = {
        "strategy": result.strategy.value,
        "model": result.model.value,
        "residual_rms_db": result.residual_rms_db,
        "m_used": result.m_used,
    }
    shared = list(result.params_by_ap.values())
    if shared and all(p is shared[0] for p in shared):
        doc["params"] = params_to_dict(result.model, shared[0])
        doc["ap_ids"] = list(result.params_by_ap)
    else:
        doc["params_by_ap"] = {ap_id: params_to_dict(result.model, p)
                               for ap_id, p in result.params_by_ap.items()}
    return doc


def fit_result_from_dict(doc: dict) -> FitResult:
    model = ModelKind(doc["model"])
    strategy = StrategyKind(doc["strategy"])
    if "params" in doc:
        _, params = params_from_dict(doc["params"])
        params_by_ap = {ap_id: params for ap_id in doc["ap_ids"]}
    else:
        params_by_ap = {}
        for ap_id, item in doc["params_by_ap"].items():
            _, params_by_ap[ap_id] = params_from_dict(item)
    return FitResult(params_by_ap=params_by_ap,
                     residual_rms_db=json_number(doc["residual_rms_db"]),
                     m_used=json_integer(doc["m_used"]), model=model, strategy=strategy)


def save_fit_result(result: FitResult, path: str | Path) -> None:
    write_json(path, fit_result_to_dict(result))


def load_fit_result(path: str | Path) -> FitResult:
    return read_json(path, "fit result", fit_result_from_dict)
