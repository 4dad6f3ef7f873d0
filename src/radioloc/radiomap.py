"""Fingerprint database construction: real reference points, decimation, virtual synthesis.

A fingerprint is the L-vector of RSS values aligned to the deployment's AP
list. Real reference points average survey scans; virtual ones are model
predictions on a chosen layout. Undetected (or below-floor) entries hold a
numeric sentinel so that fingerprint distances stay finite.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .fitting import FitResult, MeasurementSet
from .floorplan import Floorplan, lattice_positions, points_xyz
from .ioutil import read_json, write_text_atomic
from .propagation import (
    AccessPoint,
    LinkTable,
    ModelKind,
    aps_from_list,
    aps_to_list,
)

NOT_DETECTED_DBM = -100.0
DETECTION_FLOOR_DBM = -95.0
DEVICE_HEIGHT_M = 1.2


class RpKind(str, Enum):
    REAL = "real"
    VIRTUAL = "virtual"


class Fingerprint:
    """An L-vector of dBm values; not-detected entries carry the sentinel value."""

    __slots__ = ("rss",)

    def __init__(self, rss):
        values = np.asarray(rss, dtype=float)
        if values.ndim != 1:
            raise ValueError("fingerprint must be a 1-D vector")
        _check_rss(values)
        self.rss = values

    @classmethod
    def _trusted(cls, rss: np.ndarray) -> "Fingerprint":
        """A fingerprint of a 1-D float array whose values ``_check_rss`` has passed."""
        fingerprint = cls.__new__(cls)
        fingerprint.rss = rss
        return fingerprint

    def __len__(self) -> int:
        return self.rss.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Fingerprint) and np.array_equal(self.rss, other.rss)

    def __repr__(self) -> str:
        return f"Fingerprint({self.rss.tolist()})"


def _check_rss(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("fingerprint values must be finite")
    if np.any(values < -120.0) or np.any(values > 0.0):
        raise ValueError("fingerprint values must lie within [-120, 0] dBm")


class RpArrays:
    """Reference points stored as arrays: ``pos`` (n, 3), ``rss`` (n, L), ``virtual`` (n,).

    ``virtual`` marks virtual reference points; the rest are real. The arrays
    are validated once, on construction, and are read-only. ``rss`` is stored
    AP-major (Fortran order), so ``rss.T`` is one contiguous (L, n) lane per
    AP, the layout positioning scores against. Indexing with a slice or an
    index sequence, and ``+`` with another RpArrays, give a new RpArrays.
    """

    __slots__ = ("pos", "rss", "virtual")
    __hash__ = None

    def __init__(self, pos, rss, virtual):
        pos = np.array(pos, dtype=float)
        rss = np.array(rss, dtype=float, order="F")
        virtual = np.array(virtual, dtype=bool)
        n = pos.shape[0] if pos.ndim == 2 else -1
        if pos.shape != (n, 3) or rss.ndim != 2 or rss.shape[0] != n or virtual.shape != (n,):
            raise ValueError("reference points need pos (n, 3), rss (n, L) and virtual (n,)")
        if not np.all(np.isfinite(pos)):
            raise ValueError("coordinates must be finite")
        _check_rss(rss)
        self._set(pos, rss, virtual)

    def _set(self, pos: np.ndarray, rss: np.ndarray, virtual: np.ndarray) -> None:
        rss = np.asfortranarray(rss)  # a copy only for a slice or a C-ordered array
        for array in (pos, rss, virtual):
            array.setflags(write=False)
        self.pos, self.rss, self.virtual = pos, rss, virtual

    @classmethod
    def _trusted(cls, pos, rss, virtual) -> "RpArrays":
        rps = cls.__new__(cls)
        rps._set(pos, rss, virtual)
        return rps

    @classmethod
    def empty(cls, n_aps: int) -> "RpArrays":
        return cls._trusted(np.zeros((0, 3)), np.zeros((0, n_aps)), np.zeros(0, dtype=bool))

    @property
    def n_aps(self) -> int:
        return self.rss.shape[1]

    @property
    def n_virtual(self) -> int:
        return int(np.count_nonzero(self.virtual))

    @property
    def n_real(self) -> int:
        return len(self) - self.n_virtual

    def __len__(self) -> int:
        return self.pos.shape[0]

    def __getitem__(self, key) -> "RpArrays":
        if isinstance(key, (int, np.integer)):
            raise TypeError("index RpArrays with a slice or an index sequence")
        return RpArrays._trusted(self.pos[key], self.rss[key], self.virtual[key])

    def __add__(self, other: "RpArrays") -> "RpArrays":
        if other.n_aps != self.n_aps:
            raise ValueError("fingerprint lengths differ")
        if not len(other):
            return self
        if not len(self):
            return other
        return RpArrays._trusted(np.concatenate([self.pos, other.pos]),
                                 np.concatenate([self.rss.T, other.rss.T], axis=1).T,
                                 np.concatenate([self.virtual, other.virtual]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RpArrays):
            return NotImplemented
        return (np.array_equal(self.pos, other.pos) and np.array_equal(self.rss, other.rss)
                and np.array_equal(self.virtual, other.virtual))

    def __repr__(self) -> str:
        return (f"RpArrays({self.n_real} real + {self.n_virtual} virtual, "
                f"{self.n_aps} APs)")


class Radiomap:
    """The fingerprint database: APs plus real and/or virtual reference points.

    ``rps`` is an RpArrays with one fingerprint column per AP.
    ``area_m2`` is needed to express RP counts as spatial densities; it may be
    omitted when only counts matter (e.g. a map loaded for bare positioning).
    Treated as immutable once built; positioning reads it concurrently without
    locking.
    """

    def __init__(self, aps: list[AccessPoint], rps: RpArrays,
                 area_m2: float | None = None,
                 sentinel_dbm: float = NOT_DETECTED_DBM):
        if not aps:
            raise ValueError("radiomap needs at least one AP")
        if rps.n_aps != len(aps):
            raise ValueError("fingerprint length must equal the number of APs")
        if area_m2 is not None and not 0 < area_m2 < math.inf:
            raise ValueError(f"area must be positive and finite, got {area_m2!r}")
        self.aps = list(aps)
        self.rps = rps
        self.n_virtual = rps.n_virtual
        self.n_real = len(rps) - self.n_virtual
        self.area_m2 = area_m2
        self.sentinel_dbm = sentinel_dbm

    def __len__(self) -> int:
        return len(self.rps)

    def _require_area(self) -> float:
        if self.area_m2 is None:
            raise ValueError("radiomap has no area; densities are undefined")
        return self.area_m2

    @property
    def d_real(self) -> float:
        return self.n_real / self._require_area()

    @property
    def d_virtual(self) -> float:
        return self.n_virtual / self._require_area()

    def rss_matrix(self) -> np.ndarray:
        """The stored, read-only (N, L) fingerprint array, AP-major in memory."""
        return self.rps.rss

    def positions_matrix(self) -> np.ndarray:
        """The stored, read-only (N, 3) position array."""
        return self.rps.pos


def build_real_fingerprints(meas: MeasurementSet, aps: list[AccessPoint],
                            sentinel_dbm: float = NOT_DETECTED_DBM,
                            ) -> RpArrays:
    """Average the survey into one real fingerprint per point.

    Each entry is the arithmetic mean of that AP's detected scans; an AP never
    detected at the point gets the sentinel. Points keep the survey's order.
    """
    means = meas.mean_matrix()
    column = {ap_id: j for j, ap_id in enumerate(meas.ap_ids())}
    rss = np.full((means.shape[0], len(aps)), float(sentinel_dbm))
    for l, ap in enumerate(aps):
        j = column.get(ap.id)
        if j is not None:
            detected = ~np.isnan(means[:, j])
            rss[detected, l] = means[detected, j]
    return RpArrays(meas.xyz, rss, np.zeros(means.shape[0], dtype=bool))


def ceil_scaled(value: float) -> int:
    """Ceiling after rounding away float fuzz, so exact integers stay put."""
    return int(math.ceil(round(value, 9)))


def decimation_order(positions: np.ndarray) -> list[int]:
    """Deterministic farthest-point ordering of positions ((n, 3) array).

    Starts at the point closest to the centroid of the positions' bounding
    box, then repeatedly appends the point farthest from all selected ones.
    Distance ties resolve to the lowest index.
    """
    pts = np.asarray(positions, dtype=float)
    n = pts.shape[0]
    centroid = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    first = int(np.argmin(np.linalg.norm(pts - centroid, axis=1)))
    order = [first]
    min_dist = np.linalg.norm(pts - pts[first], axis=1)
    for _ in range(n - 1):
        nxt = int(np.argmax(min_dist))
        order.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(pts - pts[nxt], axis=1))
    return order


def select_rps(rps: RpArrays, rho: float) -> RpArrays:
    """Keep ceil(rho * N) reference points by farthest-point decimation.

    Selections nest: the kept set for a smaller rho is a subset of the kept
    set for any larger rho.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    n_keep = ceil_scaled(rho * len(rps))
    return rps[decimation_order(rps.pos)[:n_keep]]


def place_virtual_rps(plan: Floorplan, d_virtual: float, placement: str = "grid",
                      seed: int | None = None, z_m: float = DEVICE_HEIGHT_M,
                      ) -> np.ndarray:
    """Positions for ceil(d_virtual * area) virtual reference points, as an (n, 3) array.

    ``placement`` is "grid" (near-uniform lattice at cell centers) or "random"
    (uniform i.i.d. inside the bounds, seeded).
    """
    if d_virtual <= 0:
        raise ValueError("virtual RP density must be positive")
    n = ceil_scaled(d_virtual * plan.area)
    bounds = plan.bounds
    if placement == "grid":
        xy = lattice_positions(bounds, n)
    elif placement == "random":
        if seed is None:
            raise ValueError("random placement requires a seed")
        rng = np.random.default_rng(seed)
        xs = rng.uniform(bounds.min_x, bounds.max_x, n)
        ys = rng.uniform(bounds.min_y, bounds.max_y, n)
        xy = np.column_stack([xs, ys])
    else:
        raise ValueError(f"unknown placement {placement!r}")
    return np.column_stack([xy, np.full(n, float(z_m))])


def generate_virtual_fingerprints(
    fit_result: FitResult, model: ModelKind, plan: Floorplan,
    aps: list[AccessPoint], positions,
    sentinel_dbm: float = NOT_DETECTED_DBM,
    detection_floor_dbm: float = DETECTION_FLOOR_DBM,
    links: Sequence[LinkTable] | None = None,
) -> RpArrays:
    """Predict one virtual fingerprint per position with each AP's fitted params.

    ``positions`` is an (n, 3) array or a sequence of Point3. Predictions
    below the detection floor become the sentinel, mirroring how real
    non-detections are recorded. ``links`` may pass one LinkTable per AP,
    built for these positions, so that a caller synthesizing the same
    positions under several fits computes their geometry once.

    Cost: O(n_positions * n_keys) per AP from ready tables. Building a table
    for the multi-wall model counts obstructions per AP: an O(n_positions log
    n_positions) azimuth sort, then a test of the (position, obstacle) pairs
    inside each obstacle's wedge, binned into n_positions x n_keys integers;
    the one-slope model needs only distances.
    """
    pts = points_xyz(positions)
    if pts.shape[0] == 0:
        return RpArrays.empty(len(aps))
    if links is None:
        links = [LinkTable(plan, ap, pts) for ap in aps]
    columns = []
    for ap, table in zip(aps, links, strict=True):
        values = table.predict_rss(model, fit_result.params_for(ap.id))
        columns.append(np.where(values < detection_floor_dbm, sentinel_dbm, values))
    matrix = np.column_stack(columns)
    # A strong fit can predict above 0 dBm only for degenerate geometry; clip
    # to the fingerprint's representable range.
    matrix = np.clip(matrix, -120.0, 0.0)
    return RpArrays(pts, matrix, np.ones(pts.shape[0], dtype=bool))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _indent(text: str) -> str:
    """A nested value's ``json.dumps(..., indent=2)`` text one level deeper."""
    return text.replace("\n", "\n  ")


def radiomap_to_json(rmap: Radiomap) -> str:
    """The radiomap document, byte-identical to ``json.dumps(doc, indent=2)``.

    The reference points are formatted straight from the arrays, one column at
    a time: each AP's values, and each distinct coordinate bit pattern, get one
    ``repr``. The small remaining fields go through ``json``. Not-detected
    entries become null.
    """
    sentinel = rmap.sentinel_dbm
    rps = rmap.rps
    # Keyed on bits: a float key would merge 0.0 with -0.0.
    bits, where = np.unique(rps.pos.reshape(-1).view(np.int64), return_inverse=True)
    texts = list(map(repr, bits.view(float).tolist()))
    coords = list(map(texts.__getitem__, where.tolist()))
    columns = [["null" if v == sentinel else repr(v) for v in column]
               for column in rps.rss.T.tolist()]
    rss = map(",\n        ".join, zip(*columns))  # a Radiomap has at least one AP
    virtual, real = RpKind.VIRTUAL.value, RpKind.REAL.value
    items = [f'    {{\n      "x": {x},\n      "y": {y},\n      "z": {z},\n'
             f'      "kind": "{virtual if v else real}",\n'
             f'      "rss": [\n        {values}\n      ]\n    }}'
             for x, y, z, v, values in zip(coords[0::3], coords[1::3], coords[2::3],
                                           rps.virtual.tolist(), rss)]
    fields = [
        ("aps", _indent(json.dumps(aps_to_list(rmap.aps), indent=2))),
        ("sentinel_dbm", json.dumps(sentinel)),
        ("rps", "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"),
    ]
    if rmap.area_m2 is not None:
        fields.append(("area_m2", json.dumps(rmap.area_m2)))
    return "{\n" + ",\n".join(f'  "{key}": {text}' for key, text in fields) + "\n}"


def radiomap_from_dict(doc: dict) -> Radiomap:
    aps = aps_from_list(doc["aps"])
    sentinel = float(doc.get("sentinel_dbm", NOT_DETECTED_DBM))
    items = doc.get("rps", [])
    real, virtual = RpKind.REAL.value, RpKind.VIRTUAL.value
    kinds = [item.get("kind", real) for item in items]
    for kind in set(kinds):
        RpKind(kind)  # rejects unknown kinds
    rps = RpArrays.empty(len(aps))
    if items:
        # One flat pass per field, in file order; RpArrays lays the values
        # out AP-major.
        rows = [item["rss"] for item in items]
        if set(map(len, rows)) != {len(aps)}:
            raise ValueError("fingerprint length must equal the number of APs")
        rss = np.fromiter([sentinel if v is None else v for v in chain.from_iterable(rows)],
                          float, len(rows) * len(aps))
        pos = np.fromiter(chain.from_iterable(map(itemgetter("x", "y", "z"), items)),
                          float, 3 * len(items))
        rps = RpArrays(pos.reshape(-1, 3), rss.reshape(len(rows), -1),
                       [kind == virtual for kind in kinds])
    area = doc.get("area_m2")
    return Radiomap(aps, rps, area_m2=None if area is None else float(area),
                    sentinel_dbm=sentinel)


def save_radiomap(rmap: Radiomap, path: str | Path) -> None:
    write_text_atomic(path, radiomap_to_json(rmap) + "\n")


def load_radiomap(path: str | Path) -> Radiomap:
    return read_json(path, "radiomap", radiomap_from_dict)
