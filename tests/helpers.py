"""Shared test oracles and small world builders.

The oracles here are deliberately independent of the library's computation
paths: obstruction counts come from dense sampling along the link, and WkNN
estimates from a plain Python sort-and-accumulate loop. The exceptions are
``reference_crossing_flags``, the per-obstacle loop that the blocked
``crossing_flags_batch`` must match bit for bit (and whose per-family sums
``crossing_counts_batch`` must equal), ``reference_lattice_positions``, the
loop that ``lattice_positions`` must match bit for bit, ``reference_wknn``, the
per-target loop that the batched WkNN kernel must match bit for bit, and
``reference_fit_rows``, the per-sample loop whose rows the fit's design matrix
must equal bit for bit (its log is ``np.log10`` of one distance at a time,
the one log that ``LinkTable`` takes of all of them),
``reference_boxplot_stats``, the ``np.percentile`` form that ``boxplot_stats``
must equal, and ``reference_report_text``, the
``asdict`` + ``json.dumps`` and per-row ``csv.writer`` report writer whose
bytes the evaluation's report formatting must equal, and ``csv_path_outcome``,
survey loading through the csv rows path alone, which the loadtxt path must
equal, ``reference_detected_means``, the per-(target, AP) loop whose means the
simulator's target fingerprints must equal bit for bit, and
``reference_survey_csv``, the per-row ``csv.writer`` survey writer whose text
``save_measurements`` must equal.
"""

import csv
import io
import json
import math
from dataclasses import asdict

import numpy as np

from radioloc import fitting, ioutil
from radioloc.errors import InputError
from radioloc.evaluation import (
    GainReport,
    KestReport,
    PositioningReport,
    PredictionReport,
    boxplot_stats,
    cdf_points,
    emit_report_pair,
)
from radioloc.floorplan import (
    GRAZE_EPS_M,
    Bounds,
    Floorplan,
    ObstacleFamily,
    PlanarObstacle,
    Point3,
)
from radioloc.propagation import AccessPoint, ModelKind, PropagationParams, floor_term_db

# A custom world file: a 20 x 10 m empty floor with one AP.
CUSTOM_WORLD = {
    "floorplan": {"bounds": {"min_x": 0, "min_y": 0, "max_x": 20, "max_y": 10},
                  "floors": [], "obstacles": []},
    "aps": [{"id": "x", "x": 5, "y": 5, "z": 2.8, "eirp_dbm": 20}],
    "truth_params": {"model": "mwmf", "gamma": 2.5, "l0_db": 40.22,
                     "lc_db": 1.0, "losses": {"wall": 5, "door": 1},
                     "lf_db": 18, "b": 0.46},
}


def oracle_count_2d(plan, tx, rx, samples=2000):
    """Dense-sampling obstruction count for the 2D projection of a link.

    Walks `samples` points along the segment, watches the sign of the
    side-of-obstacle-line test, and counts a sign change as a crossing when
    the (linearly interpolated, hence exact) crossing point falls strictly
    inside the obstacle segment.
    """
    ax, ay = tx.x, tx.y
    bx, by = rx.x, rx.y
    story_lo = min(plan.story_of(tx.z), plan.story_of(rx.z))
    story_hi = max(plan.story_of(tx.z), plan.story_of(rx.z))
    ts = np.linspace(0.0, 1.0, samples)
    px = ax + ts * (bx - ax)
    py = ay + ts * (by - ay)

    counts = {key: 0 for key in plan.obstacle_keys()}
    if (ax, ay) != (bx, by):
        for obs in plan.obstacles:
            if not story_lo <= obs.floor_index <= story_hi:
                continue
            vx, vy = obs.x2 - obs.x1, obs.y2 - obs.y1
            side = vx * (py - obs.y1) - vy * (px - obs.x1)
            signs = np.sign(side)
            # Samples can land exactly on the obstacle line (sign 0); a
            # crossing is a transition between nonzero signs. The zero of the
            # affine side function is recovered exactly by interpolation.
            nz = np.nonzero(signs)[0]
            seq = signs[nz]
            changes = np.nonzero(seq[:-1] * seq[1:] < 0)[0]
            for c in changes:
                i0, i1 = nz[c], nz[c + 1]
                f0, f1 = side[i0], side[i1]
                t_star = ts[i0] + (ts[i1] - ts[i0]) * (-f0) / (f1 - f0)
                cx = ax + t_star * (bx - ax)
                cy = ay + t_star * (by - ay)
                u = ((cx - obs.x1) * vx + (cy - obs.y1) * vy) / (vx * vx + vy * vy)
                if 0.0 < u < 1.0:
                    counts[obs.family] += 1
    floors = sum(1 for z in plan.floors if min(tx.z, rx.z) < z < max(tx.z, rx.z))
    return counts, floors


def reference_crossing_flags(plan, tx, rx_xyz):
    """crossing_flags_batch evaluated one obstacle at a time, with scalar obstacle terms."""
    pts = np.asarray(rx_xyz, dtype=float)
    n = pts.shape[0]

    ax, ay = tx.x, tx.y
    ux = pts[:, 0] - ax
    uy = pts[:, 1] - ay
    norm_u = np.hypot(ux, uy)
    planar = norm_u > GRAZE_EPS_M

    story_tx = plan.story_of(tx.z)
    stories_rx = np.searchsorted(plan.floors, pts[:, 2], side="right")
    story_lo = np.minimum(stories_rx, story_tx)
    story_hi = np.maximum(stories_rx, story_tx)

    flags = np.zeros((n, len(plan.obstacles)), dtype=bool)
    tol_s = GRAZE_EPS_M * norm_u
    for j, obs in enumerate(plan.obstacles):
        in_story = (story_lo <= obs.floor_index) & (obs.floor_index <= story_hi)
        if not in_story.any():
            continue
        wcx, wcy = obs.x1 - ax, obs.y1 - ay
        wdx, wdy = obs.x2 - ax, obs.y2 - ay
        sc = ux * wcy - uy * wcx
        sd = ux * wdy - uy * wdx
        straddles_link_line = ((sc > tol_s) & (sd < -tol_s)) | ((sc < -tol_s) & (sd > tol_s))

        vx, vy = obs.x2 - obs.x1, obs.y2 - obs.y1
        tol_t = GRAZE_EPS_M * math.hypot(vx, vy)
        ta = vx * (ay - obs.y1) - vy * (ax - obs.x1)
        tb = vx * (pts[:, 1] - obs.y1) - vy * (pts[:, 0] - obs.x1)
        straddles_obstacle_line = ((ta > tol_t) & (tb < -tol_t)) | ((ta < -tol_t) & (tb > tol_t))

        flags[:, j] = planar & in_story & straddles_link_line & straddles_obstacle_line
    return flags


def reference_lattice_positions(bounds, n):
    """lattice_positions as a per-divisor and per-cell Python loop: a list of (x, y)."""
    w, h = bounds.width, bounds.height
    best = None
    for ny in range(1, n + 1):
        if n % ny:
            continue
        nx = n // ny
        sx, sy = w / nx, h / ny
        ratio = max(sx, sy) / min(sx, sy)
        if best is None or ratio < best[0]:
            best = (ratio, nx, ny)
    if best is not None and best[0] <= 2.2:
        _, nx, ny = best
    else:
        ny = max(1, int(math.floor(math.sqrt(n * h / w) + 0.5)))
        nx = math.ceil(n / ny)
    points = []
    for j in range(ny):
        y = bounds.min_y + (j + 0.5) * h / ny
        for i in range(nx):
            x = bounds.min_x + (i + 0.5) * w / nx
            points.append((x, y))
    return points[:n]


def reference_predict_rss(model, params, plan, ap, pts):
    """predict_rss_many's expression, on counts summed from reference_crossing_flags.

    The terms are added in the library's order (distance term; then lc, the
    per-key losses in key order and the floor term; then EIRP minus the
    loss), so equal inputs give equal bits.
    """
    delta = pts - ap.position.as_array()
    pl = params.l0_db + 10.0 * params.gamma * np.log10(np.sqrt(np.sum(delta * delta, axis=1)))
    if model is ModelKind.MWMF:
        flags = reference_crossing_flags(plan, ap.position, pts)
        extra = np.full(pts.shape[0], params.lc_db)
        for key in plan.obstacle_keys():
            loss = params.loss_db(key)
            if loss:
                columns = [j for j, o in enumerate(plan.obstacles) if o.family == key]
                extra += flags[:, columns].sum(axis=1) * loss
        floors = np.array([sum(1 for z in plan.floors
                               if min(p[2], ap.position.z) < z < max(p[2], ap.position.z))
                           for p in pts], dtype=int)
        for nf in np.unique(floors):
            if nf > 0:
                extra[floors == nf] += floor_term_db(params, int(nf))
        pl = pl + extra
    return ap.eirp_dbm - pl


def mean_delta(report, rho, strategy, model):
    """The mean prediction error of a PredictionReport's (rho, strategy, model) cell."""
    (cell,) = [c for c in report.cells if (c.rho, c.strategy, c.model) == (rho, strategy, model)]
    return cell.mean_delta_db


def reference_fit_rows(plan, aps, meas, model, l0_db):
    """The fit's least-squares rows, built one (AP, point) sample at a time.

    APs go in id order and each AP's points in id order. A sample is a
    detected (point, AP) pair whose link crosses no floor plane. Its row is
    ``(ap_id, x, y)``: ``x`` is ``[10*log10(d)]`` for the one-slope model and
    ``[10*log10(d), 1, count per plan key...]`` for the multi-wall model, with
    ``d`` summed and rooted in Python and the log from ``np.log10``, as
    ``LinkTable`` takes it; ``y`` is EIRP - l0 - the scan-averaged RSS.
    """
    means = meas.mean_matrix()
    rp_ids, ap_ids = meas.rp_ids(), meas.ap_ids()
    ap_by_id = {ap.id: ap for ap in aps}
    keys = plan.obstacle_keys()
    rows = []
    for ap_id in sorted(ap_ids):
        ap = ap_by_id[ap_id]
        a = ap.position
        for rp_id in sorted(rp_ids):
            mean = means[rp_ids.index(rp_id), ap_ids.index(ap_id)]
            if math.isnan(mean):
                continue
            p = Point3(*meas.xyz[rp_ids.index(rp_id)].tolist())
            if any(min(p.z, a.z) < z < max(p.z, a.z) for z in plan.floors):
                continue
            dx, dy, dz = p.x - a.x, p.y - a.y, p.z - a.z
            x = [10.0 * float(np.log10(math.sqrt(dx * dx + dy * dy + dz * dz)))]
            if model is ModelKind.MWMF:
                flags = reference_crossing_flags(plan, a, np.array([[p.x, p.y, p.z]]))[0]
                x += [1.0] + [float(sum(flag for flag, o in zip(flags, plan.obstacles)
                                        if o.family == key))
                              for key in keys]
            rows.append((ap_id, x, ap.eirp_dbm - l0_db - mean))
    return rows


def count_crossing_calls(monkeypatch):
    """Count runs of the candidate-pair search per (tx, receiver bytes) from here on.

    Wraps ``floorplan._crossings``, the one search behind
    crossing_counts_batch, crossing_flags_batch and count_obstructions, where
    the library binds it: in floorplan and in propagation (behind LinkTable).
    """
    from collections import Counter

    from radioloc import floorplan, propagation

    calls = Counter()
    original = floorplan._crossings

    def counting(plan, tx, pts, with_flags):
        calls[(tx, np.asarray(pts, dtype=float).tobytes())] += 1
        return original(plan, tx, pts, with_flags)

    for module in (floorplan, propagation):
        monkeypatch.setattr(module, "_crossings", counting)
    return calls


def oracle_wknn(rp_rss, rp_positions, target, k, order=2.0, cap=1e9):
    """Brute-force top-k weighted centroid with sequential accumulation."""
    n = len(rp_rss)
    sims = []
    for i in range(n):
        acc = 0.0
        for a, b in zip(rp_rss[i], target):
            d = abs(float(a) - float(b))
            acc += d * d if order == 2.0 else d ** order
        if acc == 0.0:
            sims.append(cap)
        else:
            dist = math.sqrt(acc) if order == 2.0 else acc ** (1.0 / order)
            sims.append(1.0 / dist)
    ranked = sorted(range(n), key=lambda i: (-sims[i], i))[:k]
    num = [0.0, 0.0, 0.0]
    den = 0.0
    for i in ranked:
        w = sims[i]
        for axis in range(3):
            num[axis] = num[axis] + w * float(rp_positions[i][axis])
        den = den + w
    return [v / den for v in num], ranked, [sims[i] for i in ranked]


def reference_wknn(rp_rss, rp_positions, targets, k, order=2.0, cap=1e9):
    """WkNN one target row at a time, with the benchmark oracle's semantics.

    The powered Minkowski distance is accumulated one AP column at a time from
    0.0 over numpy columns, an exact match gets the cap, neighbours are ranked
    by descending similarity with ties going to the lower index (a lexsort of
    the whole row), and running sums in rank order give the estimate for
    every neighbour count. Returns, per target, ``(estimates, ranked, sims)``:
    the (x, y, z) estimate for each count 1..k, the k ranked indices and the
    similarities of all reference points.
    """
    results = []
    for target in targets:
        acc = np.zeros(rp_rss.shape[0])
        for col in range(rp_rss.shape[1]):
            d = np.abs(rp_rss[:, col] - target[col])
            acc = acc + (d * d if order == 2.0 else d ** order)
        sims = np.full(acc.shape, cap)
        hit = acc > 0.0
        sims[hit] = 1.0 / (np.sqrt(acc[hit]) if order == 2.0 else acc[hit] ** (1.0 / order))
        ranked = np.lexsort((np.arange(sims.shape[0]), -sims))[:k].tolist()
        num = [0.0, 0.0, 0.0]
        den = 0.0
        estimates = []
        for i in ranked:
            w = float(sims[i])
            for axis in range(3):
                num[axis] = num[axis] + w * float(rp_positions[i, axis])
            den = den + w
            estimates.append((num[0] / den, num[1] / den, num[2] / den))
        results.append((estimates, ranked, sims))
    return results


def estimate_bits(estimates):
    """Per WkNN estimate: its (x, y, z) and its similarities as int64 bit
    patterns, so that -0.0 and +0.0 differ, and its ranked RP indices."""
    return [(np.array([e.position.x, e.position.y, e.position.z]).view(np.int64).tolist(),
             e.indices.tolist(), e.similarities.view(np.int64).tolist())
            for e in estimates]


def random_plan(rng, n_obstacles=10):
    """A random rectangular plan with random obstacle segments, one story."""
    w = float(rng.uniform(15.0, 50.0))
    h = float(rng.uniform(10.0, 30.0))
    obstacles = []
    for _ in range(n_obstacles):
        x1, x2 = rng.uniform(0.0, w, 2)
        y1, y2 = rng.uniform(0.0, h, 2)
        if (x1, y1) == (x2, y2):
            continue
        family = ObstacleFamily.WALL if rng.random() < 0.7 else ObstacleFamily.DOOR
        obstacles.append(PlanarObstacle(float(x1), float(y1), float(x2), float(y2),
                                        family=family))
    return Floorplan(bounds=Bounds(0.0, 0.0, w, h), obstacles=tuple(obstacles))


def random_point(rng, plan, z=1.2):
    b = plan.bounds
    return Point3(float(rng.uniform(b.min_x + 0.01, b.max_x - 0.01)),
                  float(rng.uniform(b.min_y + 0.01, b.max_y - 0.01)), z)


def tiny_world():
    """A hand-built plan + APs + known params for exact fitting tests.

    Three walls and one door arranged so links from the two APs to a spread of
    survey points produce varied crossing counts.
    """
    plan = Floorplan(
        bounds=Bounds(0.0, 0.0, 20.0, 10.0),
        obstacles=(
            PlanarObstacle(5.0, 0.0, 5.0, 10.0, family=ObstacleFamily.WALL),
            PlanarObstacle(10.0, 0.0, 10.0, 6.0, family=ObstacleFamily.WALL),
            PlanarObstacle(15.0, 2.0, 15.0, 10.0, family=ObstacleFamily.WALL),
            PlanarObstacle(10.0, 7.0, 10.0, 8.5, family=ObstacleFamily.DOOR),
        ),
    )
    aps = [
        AccessPoint("a", Point3(1.0, 5.0, 2.5), eirp_dbm=20.0),
        AccessPoint("b", Point3(19.0, 1.0, 2.5), eirp_dbm=20.0),
    ]
    params = PropagationParams(gamma=2.8, lc_db=1.5, wall_db=5.0, door_db=1.0)
    return plan, aps, params


def survey_points(nx=6, ny=3, z=1.2):
    pts = []
    for j in range(ny):
        for i in range(nx):
            pts.append(Point3(0.7 + i * 19.0 / nx, 0.9 + j * 4.05, z))
    return pts


def reference_gain(baseline_mean, cell_mean):
    """``baseline_mean / cell_mean``; by a zero mean, what IEEE 754 division gives:
    NaN for 0 / 0 and NaN / 0, else an infinity signed by both operands."""
    if cell_mean != 0:
        return baseline_mean / cell_mean
    if baseline_mean == 0 or math.isnan(baseline_mean):
        return math.nan
    return math.copysign(math.inf, baseline_mean) * math.copysign(1.0, cell_mean)


def _reference_positioning_rows(report):
    rows = []
    baselines = {c.d_real: c for c in report.cells if c.d_virtual == 0.0 and not c.error}
    for cell in report.cells:
        if cell.error:
            continue
        baseline = baselines.get(cell.d_real)
        for idx, k in enumerate(cell.k_values):
            gain = ""
            if cell.d_virtual > 0 and baseline is not None and k in baseline.k_values:
                gain = repr(reference_gain(baseline.mean_error_at(k),
                                           cell.mean_error_by_k[idx]))
            rows.append([repr(cell.d_real), repr(cell.d_virtual), k,
                         report.strategy, report.model,
                         repr(cell.mean_error_by_k[idx]), repr(cell.p25_by_k[idx]),
                         repr(cell.p50_by_k[idx]), repr(cell.p75_by_k[idx]),
                         repr(cell.min_by_k[idx]), repr(cell.max_by_k[idx]), gain])
    return rows


def reference_boxplot_stats(values):
    """Min, quartiles, max and 1.5*IQR outliers of a sample, from ``np.percentile``,
    ``min`` and ``max``."""
    arr = np.asarray(values, dtype=float)
    p25, p50, p75 = (float(v) for v in np.percentile(arr, [25, 50, 75]))
    iqr = p75 - p25
    lo, hi = p25 - 1.5 * iqr, p75 + 1.5 * iqr
    return {"min": float(arr.min()), "p25": p25, "p50": p50, "p75": p75,
            "max": float(arr.max()),
            "outliers": [float(v) for v in arr[(arr < lo) | (arr > hi)]]}


def reference_report_text(report, fmt):
    """A report's CSV or JSON text as a ``csv.writer`` row loop and ``asdict`` +
    ``json.dumps(indent=2)`` write it."""
    kinds = {PredictionReport: "prediction", PositioningReport: "positioning",
             GainReport: "gain", KestReport: "kest"}
    if fmt == "json":
        doc = asdict(report)
        doc["type"] = kinds[type(report)]
        if isinstance(report, PositioningReport):
            for cell, cell_doc in zip(report.cells, doc["cells"]):
                if not cell.error:
                    cell_doc["cdf_at_k_opt"] = cdf_points(cell.errors_at_k_opt)
                    cell_doc["boxplot_at_k_opt"] = boxplot_stats(cell.errors_at_k_opt)
        if isinstance(report, PredictionReport):
            for cell, cell_doc in zip(report.cells, doc["cells"]):
                if not cell.error:
                    cell_doc["per_ap_cdf"] = {
                        ap: cdf_points(d) for ap, d in cell.per_ap_deltas.items()}
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    if isinstance(report, PositioningReport):
        writer.writerow(["d_real", "d_virtual", "k", "strategy", "model", "mean_error_m",
                         "p25", "p50", "p75", "min", "max", "gain"])
        writer.writerows(_reference_positioning_rows(report))
    elif isinstance(report, PredictionReport):
        writer.writerow(["rho", "strategy", "model", "n_rps_fit", "n_pairs",
                         "mean_delta_db", "error"])
        for c in report.cells:
            writer.writerow([repr(c.rho), c.strategy, c.model, c.n_rps_fit, c.n_pairs,
                             repr(c.mean_delta_db), c.error or ""])
    elif isinstance(report, GainReport):
        writer.writerow(["d_real", "d_virtual", "k_baseline", "k_cell", "gain"])
        for c in report.cells:
            writer.writerow([repr(c.d_real), repr(c.d_virtual), c.k_baseline,
                             c.k_cell, repr(c.gain)])
    else:
        writer.writerow(["d_real", "d_virtual", "alpha", "k_est", "k_opt",
                         "mean_error_kest_m", "mean_error_kopt_m", "beta_m"])
        for c in report.cells:
            writer.writerow([repr(c.d_real), repr(c.d_virtual), repr(c.alpha),
                             c.k_est, c.k_opt, repr(c.mean_error_kest_m),
                             repr(c.mean_error_kopt_m), repr(c.beta_m)])
    return buf.getvalue()


def written_report_pair(report, directory):
    """The (CSV, JSON) texts ``emit_report_pair`` writes for ``report`` in ``directory``."""
    csv_path, json_path = directory / "report.csv", directory / "report.json"
    emit_report_pair(report, csv_path, json_path)
    return csv_path.read_bytes().decode(), json_path.read_bytes().decode()


def measurement_set(records):
    """A MeasurementSet of ``records`` (MeasurementRecord rows), in their order.

    Each point takes its first record's location; a later record of the point
    at another location raises ValueError.
    """
    records = list(records)
    rp_ids = list(dict.fromkeys(rec.rp_id for rec in records))
    ap_ids = list(dict.fromkeys(rec.ap_id for rec in records))
    location = {}
    for rec in records:
        if location.setdefault(rec.rp_id, rec.location) != rec.location:
            raise ValueError(f"point {rec.rp_id!r} has inconsistent coordinates")
    rp_of = {rp_id: i for i, rp_id in enumerate(rp_ids)}
    ap_of = {ap_id: i for i, ap_id in enumerate(ap_ids)}
    return fitting.MeasurementSet(
        rp_ids, [location[rp_id].as_array() for rp_id in rp_ids], ap_ids,
        [rp_of[rec.rp_id] for rec in records], [ap_of[rec.ap_id] for rec in records],
        [math.nan if rec.rss_dbm is None else rec.rss_dbm for rec in records],
        [rec.rss_dbm is not None for rec in records],
        [rec.scan_index for rec in records])


def most_scans_per_pair(meas):
    """The most rows any one (point, AP) pair of a MeasurementSet has."""
    pair = meas.rp_index * len(meas.ap_ids()) + meas.ap_index
    return int(np.bincount(pair).max())


def survey_state(meas):
    """Everything a MeasurementSet holds; each array as (dtype, shape, bytes)."""
    arrays = (meas.xyz, meas.rp_index, meas.ap_index, meas.rss, meas.detected, meas.scan)
    return (meas.rp_ids(), meas.ap_ids(), most_scans_per_pair(meas),
            [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


def survey_outcome(load, path):
    """``survey_state`` of ``load(path)``, or the message of the InputError it raises."""
    try:
        return survey_state(load(path))
    except InputError as exc:
        return f"InputError: {exc}"


def _load_by_rows(path):
    return ioutil.read_csv(path, "measurement",
                           lambda text: fitting._measurements_from_rows(ioutil.csv_rows(text)))


def csv_path_outcome(path):
    """``survey_outcome`` of the survey in ``path`` read through the csv rows path alone."""
    return survey_outcome(_load_by_rows, path)


def reference_detected_means(scans, floor, sentinel):
    """Mean detected scan of each (target, AP) entry of ``scans`` (n_tp, L, S), as
    nested lists: ``np.mean`` of the entry's scans at or above ``floor``, or
    ``sentinel`` where there are none, one entry at a time."""
    means = []
    for target in scans:
        row = []
        for entry in target:
            detected = entry[entry >= floor]
            row.append(sentinel if detected.size == 0 else float(np.mean(detected)))
        means.append(row)
    return means


def reference_survey_csv(meas):
    """The survey CSV text of a MeasurementSet, written by ``csv.writer`` row by row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fitting.MEASUREMENT_COLUMNS)
    rp_ids, ap_ids = meas.rp_ids(), meas.ap_ids()
    for i, a, value, hit, scan in zip(meas.rp_index.tolist(), meas.ap_index.tolist(),
                                      meas.rss.tolist(), meas.detected.tolist(),
                                      meas.scan.tolist()):
        x, y, z = meas.xyz[i].tolist()
        rss = repr(value) if hit else fitting.NOT_DETECTED_TOKEN
        writer.writerow([rp_ids[i], repr(x), repr(y), repr(z), ap_ids[a], rss, scan])
    return buf.getvalue()
