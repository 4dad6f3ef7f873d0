"""Online phase: deterministic weighted k-nearest-neighbors position estimation.

Similarity between fingerprints is the inverse Minkowski distance of order o
(o = 2, inverse Euclidean, by default). The estimate is the similarity-weighted
centroid of the k most similar reference points. k may be given directly or
derived from the map's RP counts by the density rule ``k_est_from_counts``,
ceil(alpha * (n_real + n_virtual)), alpha in (0, 1]; ``error_curves`` scores
every k up to a bound at once, for the sweeps that look for the best k.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .floorplan import Point3
from .radiomap import Fingerprint, Radiomap, _check_rss, ceil_scaled

# Similarity assigned to an exact fingerprint match, where the inverse
# distance is singular.
SIMILARITY_CAP = 1e9
# The highest Minkowski order: the largest integer order at which
# SIMILARITY_CAP ** -order is a normal double, so no distance of at least
# 1 / SIMILARITY_CAP powers to 0 and takes the cap. The largest distance of
# two fingerprints, 120 dB, powers to about 5e70, far from overflow.
MAX_ORDER = 34.0


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
    if not 1.0 <= order <= MAX_ORDER:
        raise ValueError(f"Minkowski order must lie in [1, {MAX_ORDER:g}], got {order!r}")


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


def k_est_from_counts(n_real: int, n_virtual: int, alpha: float = 0.05) -> int:
    """The density rule's neighbour count, ceil(alpha * (n_real + n_virtual)):
    the ceil(alpha * (d_real + d_virtual) * area) rule on RP counts.

    Float fuzz is rounded away before the ceiling so integer products do not
    spill upward, and the result is at least 1, the ceiling of any positive
    product. alpha lies in (0, 1].
    """
    if n_real < 0 or n_virtual < 0 or n_real + n_virtual == 0:
        raise ValueError("counts must be nonnegative and not both zero")
    _check_alpha(alpha)
    return ceil_scaled(alpha * (n_real + n_virtual))


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
    # floor takes those in. Up to MAX_ORDER the floor is a normal double, so
    # its 1-ulp pow error is within the margin.
    margin = (1.0 + 1e-14) ** order
    in_band = sums <= np.maximum(kth, SIMILARITY_CAP ** -order) * margin
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
    sort.
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
