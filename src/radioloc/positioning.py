"""Online phase: deterministic weighted k-nearest-neighbors position estimation.

Similarity between fingerprints is the inverse Minkowski distance of order o
(o = 2, inverse Euclidean, by default). The estimate is the similarity-weighted
centroid of the k most similar reference points. k may be given directly,
found by sweeping against test points, or derived from the map's RP densities
with the ceil(alpha * (d_real + d_virtual) * area) rule, alpha in (0, 1].
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .floorplan import Point3
from .radiomap import Fingerprint, Radiomap, _check_rss, ceil_scaled

# Similarity assigned to an exact fingerprint match, where the inverse
# distance is singular.
SIMILARITY_CAP = 1e9


@dataclass(frozen=True)
class WknnConfig:
    """Estimator settings.

    Exactly one of ``k`` (explicit neighbor count) or ``alpha`` (density rule)
    drives neighbor selection; ``alpha`` applies when ``k`` is None. Sentinel
    entries participate in fingerprint distances at their numeric dBm value,
    for targets and reference points alike.
    """

    k: int | None = None
    order: float = 2.0
    alpha: float = 0.05

    def __post_init__(self):
        if self.k is not None:
            _check_count("k", self.k)
            if self.k < 1:
                raise ValueError("k must be >= 1")
        _check_order(self.order)
        _check_alpha(self.alpha)


def _check_count(name: str, value) -> None:
    """A neighbour count is an integer: not a float, even an integral one, and
    not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_order(order: float) -> None:
    if not 1.0 <= order < math.inf:
        raise ValueError(f"Minkowski order must be finite and >= 1, got {order!r}")


def _check_alpha(alpha: float) -> None:
    """The density rule's alpha lies in (0, 1]: above 1 it asks for more
    neighbours than the map holds."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")


@dataclass(eq=False)
class PositionEstimate:
    """A WkNN estimate: the weighted centroid ``position`` of the k reference
    points ``indices`` (RP indices in rank order) with their ``similarities``
    (non-increasing). ``locate`` and ``locate_many`` return both as
    read-only (k,) arrays."""

    position: Point3
    indices: np.ndarray
    similarities: np.ndarray

    @property
    def neighbors(self) -> list[tuple[int, float]]:
        """(rp index, similarity) pairs in rank order, built on each read."""
        return list(zip(self.indices.tolist(), self.similarities.tolist()))

    def __eq__(self, other):
        if not isinstance(other, PositionEstimate):
            return NotImplemented
        return (self.position == other.position
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.similarities, other.similarities))


# Targets are scored in row blocks so that the (targets x APs x reference
# points) temporary of the distance pass holds at most this many elements.
SCORE_BLOCK = 2 ** 16


def _lanes(rss_matrix: np.ndarray) -> np.ndarray:
    """The (L, N) AP-major lanes of an (N, L) fingerprint array: a view of a
    Radiomap's stored array, a copy of a C-ordered or strided one."""
    return np.ascontiguousarray(rss_matrix.T)


def _distance_sums(lanes: np.ndarray, targets: np.ndarray, order: float) -> np.ndarray:
    """(B, N) powered Minkowski distance sums, sum |d| ** order over the APs,
    of B target rows to the N reference points, whose fingerprints are the
    (L, N) contiguous per-AP ``lanes``.

    One broadcast subtract fills a (B, L, N) temporary, which is powered in
    place and summed over the AP axis. numpy sums an axis that is not the
    innermost one by sequential adds in axis order, so each entry gets the
    same adds, from AP 0 up, as a plain per-entry loop. (It sums an innermost
    axis pairwise; with a single reference point the AP axis is innermost, so
    that case takes a running sum instead.) Squaring by multiplication keeps
    the default order free of libm pow rounding, and needs no absolute value:
    ``d * d`` equals ``|d| * |d|`` bit for bit.
    """
    diff = np.subtract(lanes, targets[:, :, None])
    if order == 2.0:
        np.multiply(diff, diff, out=diff)
    else:
        np.abs(diff, out=diff)
        with np.errstate(over="ignore"):  # an overflowed distance has similarity 0
            diff **= order
    if lanes.shape[1] > 1:
        return np.add.reduce(diff, axis=1)
    return np.cumsum(diff, axis=1)[:, -1]


def _similarities(sums: np.ndarray, order: float) -> np.ndarray:
    """The similarities of powered distance sums, computed in place: the
    inverse root, or ``SIMILARITY_CAP`` for a zero sum, an exact match, where
    the inverse distance is singular. An array without a zero skips that
    masked store."""
    if order == 2.0:
        np.sqrt(sums, out=sums)
    else:
        sums **= 1.0 / order
    if sums.all():
        return np.divide(1.0, sums, out=sums)
    # The root of a positive sum is positive, so the zeros are the exact matches.
    exact = sums == 0.0
    with np.errstate(divide="ignore"):
        np.divide(1.0, sums, out=sums)
    sums[exact] = SIMILARITY_CAP
    return sums


def similarity(a: Fingerprint, b: Fingerprint, order: float = 2.0) -> float:
    """Inverse Minkowski distance between two fingerprints; capped on exact match."""
    if len(a) != len(b):
        raise ValueError(f"fingerprint lengths differ: {len(a)} vs {len(b)}")
    _check_order(order)
    sums = _distance_sums(a.rss[:, None], b.rss[None, :], order)[0]
    return float(_similarities(sums, order)[0])


def k_est(d_real: float, d_virtual: float, area_m2: float, alpha: float = 0.05) -> int:
    """Neighbor count from RP densities: ceil(alpha * (d_real + d_virtual) * area).

    Equivalent to ceil(alpha * (n_real + n_virtual)). Float fuzz is rounded
    away before the ceiling so integer products do not spill upward, and the
    result is at least 1, the ceiling of any positive product. alpha lies in
    (0, 1].
    """
    _check_alpha(alpha)
    if d_real < 0 or d_virtual < 0 or (d_real == 0 and d_virtual == 0):
        raise ValueError("densities must be nonnegative and not both zero")
    if area_m2 <= 0:
        raise ValueError("area must be positive")
    return _ceil_k(alpha * (d_real + d_virtual) * area_m2)


def k_est_from_counts(n_real: int, n_virtual: int, alpha: float = 0.05) -> int:
    """k_est expressed directly on RP counts."""
    if n_real < 0 or n_virtual < 0 or n_real + n_virtual == 0:
        raise ValueError("counts must be nonnegative and not both zero")
    _check_alpha(alpha)
    return _ceil_k(alpha * (n_real + n_virtual))


def _ceil_k(expected: float) -> int:
    """The density rule's ceiling of a positive expected neighbour count."""
    if not math.isfinite(expected):
        raise ValueError(f"expected neighbour count {expected!r} is not finite")
    return ceil_scaled(expected)


def _best_k(ks, means) -> int:
    """The k in ks with the least mean error; ties pick the smallest k."""
    return int(min(ks, key=lambda k: (means[k - 1], k)))


def _top_k(sums: np.ndarray, k: int, order: float) -> tuple[np.ndarray, np.ndarray]:
    """(B, k) indices of each row's k most similar reference points, in rank
    order, and their (B, k) similarities, from the (B, N) powered distance
    sums of ``_distance_sums`` at Minkowski ``order``.

    Ranking is by descending similarity with ties going to the lower RP
    index. A partition of ``sums`` at k - 1 finds each row's k-th smallest
    sum, and the window of entries at most a small margin above it is taken
    in index order; only the window's similarities are computed. A window of
    exactly k entries is negated and sorted with numpy's default, unstable
    (SIMD) argsort, whose order is the ranking unless two sorted values are
    equal. In a block where some window holds more than k entries, the
    windows are ranked by one stable sort on (row, -similarity) and each row
    keeps its first k. Ties are repaired by row, so the result does not
    depend on how the unstable sort orders them: in a row with equal
    neighbours, each run of equal values is put in index order by sorting
    (run, index) keys.

    Cost per row: an O(n) partition of a copy of the row and one O(n) pass
    for the window mask, then O(k log k) on the window alone: its roots and
    reciprocals, and its sort.
    """
    b, n = sums.shape
    kth = np.partition(sums, k - 1, axis=1)[:, k - 1, None]
    # The window holds every entry whose similarity is at least the k-th
    # largest one. sqrt and 1/x are correctly rounded and pow is within 1
    # ulp, so a sum more than (1 + 1e-14) ** order times the k-th sum has a
    # root more than 1e-14, dozens of ulps, above each root of the k smallest
    # sums, and so a strictly lower similarity. Zero sums score the cap,
    # which positive sums up to about SIMILARITY_CAP ** -order outrank; the
    # floor takes those in. It is at least the smallest normal double: for
    # orders from about 34 to 36, SIMILARITY_CAP ** -order is a subnormal,
    # whose 1-ulp pow error is no longer within the margin. An order whose
    # margin overflows puts every entry in the window.
    margin = (1.0 + 1e-14) ** order if order < 1e16 else math.inf
    floor = max(SIMILARITY_CAP ** -order, sys.float_info.min)
    in_band = sums <= np.maximum(kth, floor) * margin
    band = np.flatnonzero(in_band)
    w = _similarities(sums.take(band), order)
    if band.size == b * k:
        rank = np.negative(w).reshape(b, k).argsort(axis=1)
        if b > 1:  # flat offsets of each row's band; a lone row's are 0
            rank += np.arange(0, b * k, k)[:, None]
    else:
        # band is in index order and lexsort is stable, so each row's
        # window is ranked by (-similarity, index); keep its first k.
        counts = np.count_nonzero(in_band, axis=1)
        starts = np.cumsum(counts) - counts
        rank = np.lexsort((-w, band // n)).take(starts[:, None] + np.arange(k))
    band = band.take(rank)
    w = w.take(rank)
    if b > 1:
        band -= np.arange(0, b * n, n)[:, None]
    ties = w[:, 1:] == w[:, :-1]
    if ties.any():
        tied = ties.any(axis=1)
        runs = np.zeros((np.count_nonzero(tied), k), dtype=np.intp)
        np.cumsum(~ties[tied], axis=1, out=runs[:, 1:])
        band[tied] = np.sort(runs * n + band[tied], axis=1) % n
    return band, w


def _row_blocks(n_targets: int, n_rps: int, n_aps: int):
    """Slices of at most SCORE_BLOCK // (n_rps * n_aps) target rows (at least one)."""
    step = max(1, SCORE_BLOCK // (n_rps * n_aps))
    return (slice(start, start + step) for start in range(0, n_targets, step))


def _locate_rows(rmap: Radiomap, rows: np.ndarray, cfg: WknnConfig) -> list[PositionEstimate]:
    n = len(rmap)
    if n == 0:
        raise ValueError("radiomap has no reference points")
    k = cfg.k if cfg.k is not None else k_est_from_counts(rmap.n_real, rmap.n_virtual, cfg.alpha)
    if k > n:
        raise ValueError(f"k={k} exceeds the number of reference points ({n})")
    lanes, positions = _lanes(rmap.rss_matrix()), rmap.positions_matrix()
    out = []
    for block in _row_blocks(rows.shape[0], n, lanes.shape[0]):
        ranked, w = _top_k(_distance_sums(lanes, rows[block], cfg.order), k, cfg.order)
        # [w*x, w*y, w*z, w] with the rank axis innermost: a running sum adds
        # in rank order, so its last entry is the per-target loop's sum, but
        # started from the first term, not from +0.0. The two differ only in
        # a -0.0 sum (all terms -0.0), which + 0.0 turns into the loop's
        # +0.0; no weight is -0.0.
        terms = np.empty((4,) + w.shape)
        terms[:3] = positions.take(ranked, axis=0).transpose(2, 0, 1)
        terms[:3] *= w
        terms[3] = w
        sums = np.add.accumulate(terms, axis=2, out=terms)[:, :, -1]
        if not sums[3].all():
            raise ValueError(f"the {k} most similar reference points all have similarity 0 "
                             f"at Minkowski order {cfg.order!r}: their distances overflow")
        xyz = (sums[:3] + 0.0) / sums[3]
        # Each estimate holds row views of the block's arrays.
        ranked.flags.writeable = w.flags.writeable = False
        out += map(PositionEstimate, starmap(Point3, xyz.T.tolist()), ranked, w)
    return out


def locate(rmap: Radiomap, target: Fingerprint, cfg: WknnConfig = WknnConfig(),
           ) -> PositionEstimate:
    """Estimate the target position as the weighted centroid of its top-k RPs.

    Cost per request: O(N * L) distance arithmetic over the N reference
    points, in one broadcast pass over the radiomap's contiguous per-AP
    lanes (no copy: ``RpArrays`` stores fingerprints AP-major) into an
    (L, N) temporary, summed into N powered distance sums; an O(N) value
    partition of the sums for the k-th smallest one and one O(N) window
    mask; the roots and reciprocals of the window's k entries only, and an
    O(k log k) unstable sort of them; and one O(k) in-order sum of the k
    weighted positions, for the k-th estimate only. Equal sums that straddle
    the k-th one widen the window, which a stable sort of its entries then
    ranks and trims to k, and ties inside the band add a second O(k log k)
    sort. Raises ValueError when the k weights sum to 0, which an order high
    enough to overflow every distance gives.
    """
    if len(target) != len(rmap.aps):
        raise ValueError("target fingerprint length must match the AP count")
    return _locate_rows(rmap, target.rss[None, :], cfg)[0]


def locate_many(rmap: Radiomap, targets, cfg: WknnConfig = WknnConfig(),
                ) -> list[PositionEstimate]:
    """``locate`` for each row of a (B, L) array of target fingerprints.

    Rows are checked like ``Fingerprint`` values and scored in row blocks;
    each estimate equals ``locate(rmap, Fingerprint(row), cfg)``.
    """
    rows = np.asarray(targets, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(rmap.aps):
        raise ValueError("targets must be a (B, L) array with one column per AP")
    _check_rss(rows)
    return _locate_rows(rmap, rows, cfg)


def error_curves(rp_rss: np.ndarray, rp_positions: np.ndarray, tp_rss: np.ndarray,
                 tp_pos: np.ndarray, k_max: int, order: float = 2.0) -> np.ndarray:
    """Positioning error of every test point for every k in 1..k_max.

    The T test points are ``tp_rss`` (T, L) fingerprints, checked like
    ``Fingerprint`` values, taken at ``tp_pos`` (T, 3). Returns a (T, k_max)
    array of 3D errors in meters; the array-level entry point the evaluation
    sweeps build on. Test points are scored in row blocks. ``rp_rss`` may be
    any (N, L) array: an ``RpArrays.rss`` is scored in place, and a C-ordered
    or strided one is copied into per-AP lanes once per call.
    """
    n = rp_rss.shape[0]
    _check_count("k_max", k_max)
    if not 1 <= k_max <= n:
        raise ValueError(f"k_max must lie in [1, {n}]")
    _check_order(order)
    tp_rss = np.asarray(tp_rss, dtype=float)
    tp_pos = np.asarray(tp_pos, dtype=float)
    t = tp_rss.shape[0] if tp_rss.ndim == 2 else -1
    if tp_rss.shape != (t, rp_rss.shape[1]) or tp_pos.shape != (t, 3):
        raise ValueError("test points need tp_rss (T, L) and tp_pos (T, 3)")
    _check_rss(tp_rss)
    lanes = _lanes(rp_rss)
    errors = np.empty((t, k_max))
    for block in _row_blocks(t, n, lanes.shape[0]):
        # Running sums along the rank axis, on contiguous per-axis lanes,
        # make the j-th estimate the sum of the top-j terms in rank order.
        ranked, w = _top_k(_distance_sums(lanes, tp_rss[block], order), k_max, order)
        # Taken from the (N, 3) rows: a take from the (3, N) transpose copies it whole.
        estimates = np.ascontiguousarray(rp_positions.take(ranked, axis=0).transpose(2, 0, 1))
        estimates *= w
        np.cumsum(estimates, axis=2, out=estimates)
        estimates /= np.cumsum(w, axis=1)
        delta = estimates - tp_pos[block].T[:, :, None]
        delta *= delta
        errors[block] = np.sqrt(delta[0] + delta[1] + delta[2])
    return errors


def find_k_opt(rmap: Radiomap, tp_rss: np.ndarray, tp_pos: np.ndarray, k_range) -> int:
    """The k in k_range minimizing mean positioning error over the test points
    (``error_curves``' ``tp_rss`` and ``tp_pos``) at Minkowski order 2; ties
    pick the smallest k."""
    if not len(tp_rss):
        raise ValueError("find_k_opt needs at least one test point")
    ks = list(k_range)
    for k in ks:
        _check_count("each k_range entry", k)
    ks = sorted(set(map(int, ks)))
    n = len(rmap)
    if not ks:
        raise ValueError("empty k range")
    if ks[0] < 1 or ks[-1] > n:
        raise ValueError(f"k range must lie within [1, {n}]")
    curves = error_curves(rmap.rss_matrix(), rmap.positions_matrix(), tp_rss, tp_pos, ks[-1])
    return _best_k(ks, curves.mean(axis=0))
