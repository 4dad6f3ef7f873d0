"""Brute-force WkNN reference the benchmark checks radioloc's estimates against.

Semantics follow acceptance criterion 08: the powered Minkowski distance is
accumulated one AP column at a time from 0.0, an exact match gets the
similarity cap, neighbours are ranked by descending similarity with ties going
to the lower reference-point index, and the estimate is the running
similarity-weighted sum of the top-k positions divided by the running weight
sum, both accumulated in rank order.
"""

from __future__ import annotations

import math

import numpy as np

SIMILARITY_CAP = 1e9


def wknn(rp_rss: np.ndarray, rp_pos: np.ndarray, target: np.ndarray, k: int,
         order: float = 2.0, cap: float = SIMILARITY_CAP,
         ) -> tuple[tuple[float, float, float], list[int]]:
    """Return ((x, y, z), ranked neighbour indices) for one target fingerprint."""
    acc = np.zeros(rp_rss.shape[0])
    for col in range(rp_rss.shape[1]):
        d = np.abs(rp_rss[:, col] - target[col])
        acc = acc + (d * d if order == 2.0 else d ** order)
    sims = np.full(acc.shape, cap)
    hit = acc > 0.0
    sims[hit] = 1.0 / (np.sqrt(acc[hit]) if order == 2.0 else acc[hit] ** (1.0 / order))
    # lexsort sorts by its last key first: descending similarity, then index.
    ranked = np.lexsort((np.arange(sims.shape[0]), -sims))[:k].tolist()
    num = [0.0, 0.0, 0.0]
    den = 0.0
    for i in ranked:
        w = float(sims[i])
        for axis in range(3):
            num[axis] = num[axis] + w * float(rp_pos[i, axis])
        den = den + w
    return (num[0] / den, num[1] / den, num[2] / den), ranked


def k_from_alpha(n_rps: int, alpha: float) -> int:
    """The density rule on counts, ceil(alpha * N) with float fuzz rounded away."""
    return int(math.ceil(round(alpha * n_rps, 9)))


def radiomap_arrays(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """(rss (N, L), positions (N, 3)) from a radiomap JSON document."""
    sentinel = float(doc["sentinel_dbm"])
    rss = np.array([[sentinel if v is None else float(v) for v in rp["rss"]]
                    for rp in doc["rps"]], dtype=float)
    pos = np.array([[rp["x"], rp["y"], rp["z"]] for rp in doc["rps"]], dtype=float)
    return rss, pos
