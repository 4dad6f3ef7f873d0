"""Online phase: deterministic weighted k-nearest-neighbors position estimation.

Similarity between fingerprints is the inverse Minkowski distance of order o
(o = 2, inverse Euclidean, by default). The estimate is the similarity-weighted
centroid of the k most similar reference points. k may be given directly,
found by sweeping against test points, or derived from the map's RP densities
with the ceil(alpha * (d_real + d_virtual) * area) rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .floorplan import Point3
from .radiomap import Fingerprint, Radiomap

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
    cap: float = SIMILARITY_CAP

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.order < 1.0:
            raise ValueError("Minkowski order must be >= 1")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.cap <= 0.0:
            raise ValueError("similarity cap must be positive")


@dataclass
class PositionEstimate:
    position: Point3
    neighbors: list[tuple[int, float]]  # (rp index, similarity), non-increasing


def _powered_distances(rss_matrix: np.ndarray, target: np.ndarray, order: float) -> np.ndarray:
    # Cumulative sum keeps strictly sequential accumulation semantics so that
    # results are reproducible against a plain per-entry loop; squaring by
    # multiplication keeps the default order free of libm pow rounding.
    diff = np.abs(rss_matrix - target)
    powered = diff * diff if order == 2.0 else diff ** order
    return np.cumsum(powered, axis=1)[:, -1]


def _similarities(rss_matrix: np.ndarray, target: np.ndarray, order: float,
                  cap: float) -> np.ndarray:
    dist_pow = _powered_distances(rss_matrix, target, order)
    sims = np.full(dist_pow.shape, cap)
    nonzero = dist_pow > 0.0
    if order == 2.0:
        sims[nonzero] = 1.0 / np.sqrt(dist_pow[nonzero])
    else:
        sims[nonzero] = 1.0 / (dist_pow[nonzero] ** (1.0 / order))
    return sims


def similarity(a: Fingerprint, b: Fingerprint, order: float = 2.0,
               cap: float = SIMILARITY_CAP) -> float:
    """Inverse Minkowski distance between two fingerprints; capped on exact match."""
    if len(a) != len(b):
        raise ValueError(f"fingerprint lengths differ: {len(a)} vs {len(b)}")
    if order < 1.0:
        raise ValueError("Minkowski order must be >= 1")
    return float(_similarities(a.rss[None, :], b.rss, order, cap)[0])


def k_est(d_real: float, d_virtual: float, area_m2: float, alpha: float = 0.05) -> int:
    """Neighbor count from RP densities: ceil(alpha * (d_real + d_virtual) * area).

    Equivalent to ceil(alpha * (n_real + n_virtual)). Float fuzz is rounded
    away before the ceiling so integer products do not spill upward.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if d_real < 0 or d_virtual < 0 or (d_real == 0 and d_virtual == 0):
        raise ValueError("densities must be nonnegative and not both zero")
    if area_m2 <= 0:
        raise ValueError("area must be positive")
    return int(math.ceil(round(alpha * (d_real + d_virtual) * area_m2, 9)))


def k_est_from_counts(n_real: int, n_virtual: int, alpha: float = 0.05) -> int:
    """k_est expressed directly on RP counts."""
    if n_real < 0 or n_virtual < 0 or n_real + n_virtual == 0:
        raise ValueError("counts must be nonnegative and not both zero")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return int(math.ceil(round(alpha * (n_real + n_virtual), 9)))


def _ranked_neighbors(sims: np.ndarray) -> np.ndarray:
    # Stable sort on descending similarity: ties resolve to the lower RP index.
    return np.argsort(-sims, kind="stable")


def _estimates_by_k(sims: np.ndarray, positions: np.ndarray, k_max: int,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted-centroid estimates for every k in 1..k_max at once.

    Returns (ranked indices, sorted similarities, (k_max, 3) estimates).
    Running sums make the k-th estimate identical to summing the top-k terms
    in rank order.
    """
    ranked = _ranked_neighbors(sims)[:k_max]
    w = sims[ranked]
    weighted = np.cumsum(w[:, None] * positions[ranked], axis=0)
    total = np.cumsum(w)
    return ranked, w, weighted / total[:, None]


def locate(rmap: Radiomap, target: Fingerprint, cfg: WknnConfig = WknnConfig(),
           ) -> PositionEstimate:
    """Estimate the target position as the weighted centroid of its top-k RPs.

    Cost per request: O(N * L) distance arithmetic over the N reference
    points plus an O(N log N) ranking.
    """
    n = len(rmap)
    if n == 0:
        raise ValueError("radiomap has no reference points")
    if len(target) != len(rmap.aps):
        raise ValueError("target fingerprint length must match the AP count")
    k = cfg.k if cfg.k is not None else k_est_from_counts(rmap.n_real, rmap.n_virtual, cfg.alpha)
    if k > n:
        raise ValueError(f"k={k} exceeds the number of reference points ({n})")

    sims = _similarities(rmap.rss_matrix(), target.rss, cfg.order, cfg.cap)
    ranked, w, estimates = _estimates_by_k(sims, rmap.positions_matrix(), k)
    x, y, z = estimates[k - 1]
    return PositionEstimate(
        position=Point3(float(x), float(y), float(z)),
        neighbors=[(int(i), float(s)) for i, s in zip(ranked, w)],
    )


def error_curves(rp_rss: np.ndarray, rp_positions: np.ndarray,
                 test_points: list[tuple[Point3, Fingerprint]], k_max: int,
                 order: float = 2.0, cap: float = SIMILARITY_CAP) -> np.ndarray:
    """Positioning error of every test point for every k in 1..k_max.

    Returns an (n_test_points, k_max) array of 3D errors in meters; the
    array-level entry point the evaluation sweeps build on.
    """
    n = rp_rss.shape[0]
    if not 1 <= k_max <= n:
        raise ValueError(f"k_max must lie in [1, {n}]")
    errors = np.empty((len(test_points), k_max))
    for i, (pos, fingerprint) in enumerate(test_points):
        sims = _similarities(rp_rss, fingerprint.rss, order, cap)
        _, _, estimates = _estimates_by_k(sims, rp_positions, k_max)
        delta = estimates - pos.as_array()
        errors[i] = np.sqrt(np.sum(delta * delta, axis=1))
    return errors


def find_k_opt(rmap: Radiomap, test_points: list[tuple[Point3, Fingerprint]],
               k_range, cfg: WknnConfig = WknnConfig()) -> int:
    """The k in k_range minimizing mean positioning error; ties pick the smallest k."""
    if not test_points:
        raise ValueError("find_k_opt needs at least one test point")
    ks = sorted(set(int(k) for k in k_range))
    n = len(rmap)
    if not ks:
        raise ValueError("empty k range")
    if ks[0] < 1 or ks[-1] > n:
        raise ValueError(f"k range must lie within [1, {n}]")
    curves = error_curves(rmap.rss_matrix(), rmap.positions_matrix(),
                          test_points, ks[-1], cfg.order, cfg.cap)
    means = curves.mean(axis=0)
    best = min(ks, key=lambda k: (means[k - 1], k))
    return int(best)
