"""Path-loss models and RSS prediction.

Two deterministic models are supported: a one-slope distance law

    PL_os(d) = l0 + 10 * gamma * log10(d)      [dB]

and a multi-wall multi-floor variant that adds, on top of PL_os, a constant
loss, a per-crossing loss for every 2D obstacle the link traverses, and an
empirical floor term

    A = lc + N_wall * l_wall + N_door * l_door + Nf^((Nf+2)/(Nf+1) - b) * lf   [dB].

Received power is the AP's EIRP minus the path loss.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import GeometryError, InputError
from .floorplan import (
    Floorplan,
    ObstacleFamily,
    Point3,
    _crossings,
    floors_crossed_batch,
    points_xyz,
)
from .ioutil import json_number, read_json, write_json

# Free-space reference loss at d = 1 m for the 2.45 GHz band.
FREE_SPACE_L0_DB = 40.22
DEFAULT_FLOOR_LOSS_DB = 18.0
DEFAULT_FLOOR_B = 0.46


class ModelKind(str, Enum):
    MWMF = "mwmf"
    ONE_SLOPE = "os"


@dataclass(frozen=True)
class PropagationParams:
    """Deterministic path-loss parameters.

    ``wall_db`` and ``door_db`` are the per-crossing losses of the two
    obstacle families, in dB. The one-slope model reads only ``l0_db`` and
    ``gamma``. Fitted instances may carry negative losses (the calibration is
    unconstrained); a warning is emitted when that happens.
    """

    l0_db: float = FREE_SPACE_L0_DB
    gamma: float = 2.0
    lc_db: float = 0.0
    wall_db: float = 0.0
    door_db: float = 0.0
    lf_db: float = DEFAULT_FLOOR_LOSS_DB
    b: float = DEFAULT_FLOOR_B

    def __post_init__(self):
        values = [self.l0_db, self.gamma, self.lc_db, self.wall_db, self.door_db,
                  self.lf_db, self.b]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("propagation parameters must be finite")
        if self.l0_db <= 0:
            raise ValueError("reference loss l0_db must be positive")
        if self.gamma <= 0 or min(self.lf_db, self.wall_db, self.door_db) < 0:
            warnings.warn("propagation parameters outside their nominal range "
                          "(gamma <= 0 or negative losses)", stacklevel=2)

    def loss_db(self, family: ObstacleFamily) -> float:
        """Per-crossing loss of an obstacle family, in dB."""
        return self.wall_db if family is ObstacleFamily.WALL else self.door_db


@dataclass(frozen=True)
class AccessPoint:
    """A WiFi AP at a known position emitting a known EIRP."""

    id: str
    position: Point3
    eirp_dbm: float = 20.0


def floor_term_db(params: PropagationParams, n_floors: int) -> float:
    """Empirical floor-crossing loss; zero when no floor plane is crossed."""
    if n_floors <= 0:
        return 0.0
    exponent = (n_floors + 2) / (n_floors + 1) - params.b
    return (n_floors ** exponent) * params.lf_db


def predict_rss(model: ModelKind, params: PropagationParams, plan: Floorplan,
                ap: AccessPoint, rx: Point3) -> float:
    """Predicted received power at rx, in dBm (EIRP minus path loss).

    A one-receiver ``LinkTable``, so it equals ``predict_rss_many`` bit for
    bit. The value is not clamped to any detection floor here; flooring
    happens when fingerprints are assembled.
    """
    return float(LinkTable(plan, ap, [rx]).predict_rss(model, params)[0])


class LinkTable:
    """Parameter-free geometry of the links from one AP to a set of receiver positions.

    The one place where a link becomes the model's inputs: ``log10_d``, the
    (n,) base-10 log distances (``np.log10``), ``floors``, the crossed floor
    planes, found without a crossing search, and on first use by the
    multi-wall model the per-family crossing counts (``obstructions``). The
    one-slope model reads only ``log10_d``, so it never counts crossings. The
    fit's design matrix reads the same tables, so its residuals are those of
    these predictions. One table serves any parameters of either model;
    ``predict_rss`` equals ``predict_rss_many`` bit for bit. A receiver on
    the AP is marked in ``at_ap`` (its ``log10_d`` is -inf), and
    ``predict_rss`` raises GeometryError for it.
    """

    def __init__(self, plan: Floorplan, ap: AccessPoint,
                 positions: np.ndarray | list[Point3]):
        pts = points_xyz(positions)
        delta = pts - ap.position.as_array()
        d = np.sqrt(np.sum(delta * delta, axis=1))
        self.plan = plan
        self.ap = ap
        self.positions = pts
        self.at_ap = d <= 0
        with np.errstate(divide="ignore"):  # log10(0) = -inf, marked in at_ap
            self.log10_d = np.log10(d)
        self._floors: np.ndarray | None = None
        self._floor_counts: list[int] = []
        self._counts: dict[ObstacleFamily, np.ndarray] | None = None
        self._source: tuple[LinkTable, np.ndarray] | None = None

    def take(self, points: np.ndarray) -> "LinkTable":
        """``LinkTable(plan, ap, positions[points])`` for an integer array
        ``points``, bit for bit; its floors and crossing counts are read from
        this table's on first use, so the positions are counted once."""
        table = copy.copy(self)
        table.positions, table.at_ap, table.log10_d = (
            self.positions[points], self.at_ap[points], self.log10_d[points])
        table._floors, table._counts, table._source = None, None, (self, points)
        return table

    @property
    def floors(self) -> np.ndarray:
        """Floor planes strictly between the AP and each receiver height."""
        if self._floors is None:
            self._floors = (floors_crossed_batch(self.plan, self.ap.position, self.positions)
                            if self._source is None else self._source[0].floors[self._source[1]])
            self._floor_counts = [nf for nf in np.unique(self._floors).tolist() if nf > 0]
        return self._floors

    def crossing_flags(self) -> np.ndarray:
        """Per-obstacle crossing flags (n, n_obstacles), counted afresh and not kept.

        The first call also fills ``obstructions`` from the same pass, so a
        caller that needs both counts the links once.
        """
        counts, flags = _crossings(self.plan, self.ap.position, self.positions, with_flags=True)
        if self._counts is None:
            self._counts = counts
        return flags

    @property
    def obstructions(self) -> tuple[dict[ObstacleFamily, np.ndarray], np.ndarray]:
        """Per-family crossing counts (plan key order) and crossed floor planes, per link."""
        if self._counts is None:
            if self._source is None:
                self._counts = _crossings(self.plan, self.ap.position, self.positions,
                                          with_flags=False)[0]
            else:
                source, points = self._source
                self._counts = {key: arr[points] for key, arr in source.obstructions[0].items()}
        return self._counts, self.floors

    def predict_rss(self, model: ModelKind, params: PropagationParams) -> np.ndarray:
        """Predicted received power at every position, in dBm."""
        if self.at_ap.any():
            x, y, z = self.positions[np.argmax(self.at_ap)].tolist()
            raise GeometryError(f"receiver position ({x}, {y}, {z}) coincides with AP "
                                f"{self.ap.id!r}")
        pl = params.l0_db + 10.0 * params.gamma * self.log10_d

        if model is ModelKind.MWMF:
            counts, floors = self.obstructions
            extra = np.full(self.log10_d.shape[0], params.lc_db)
            for family, arr in counts.items():
                loss = params.loss_db(family)
                if loss:
                    extra += arr * loss
            for nf in self._floor_counts:
                extra[floors == nf] += floor_term_db(params, nf)
            pl = pl + extra

        return self.ap.eirp_dbm - pl


def predict_rss_many(model: ModelKind, params: PropagationParams, plan: Floorplan,
                     ap: AccessPoint, positions: np.ndarray | list[Point3]) -> np.ndarray:
    """Vectorized predict_rss over many receiver positions ((n, 3) array or Point3 list)."""
    return LinkTable(plan, ap, positions).predict_rss(model, params)


# ---------------------------------------------------------------------------
# JSON serialization (params and AP files)
# ---------------------------------------------------------------------------

def params_to_dict(model: ModelKind, params: PropagationParams) -> dict:
    return {
        "model": model.value,
        "l0_db": params.l0_db,
        "gamma": params.gamma,
        "lc_db": params.lc_db,
        "losses": {"wall": params.wall_db, "door": params.door_db},
        "lf_db": params.lf_db,
        "b": params.b,
    }


def params_from_dict(doc: dict) -> tuple[ModelKind, PropagationParams]:
    losses = doc.get("losses", {})
    params = PropagationParams(
        gamma=json_number(doc["gamma"]),
        lc_db=json_number(doc.get("lc_db", 0.0)),
        wall_db=json_number(losses.get("wall", 0.0)),
        door_db=json_number(losses.get("door", 0.0)),
        l0_db=json_number(doc.get("l0_db", FREE_SPACE_L0_DB)),
        lf_db=json_number(doc.get("lf_db", DEFAULT_FLOOR_LOSS_DB)),
        b=json_number(doc.get("b", DEFAULT_FLOOR_B)),
    )
    return ModelKind(doc.get("model", ModelKind.MWMF.value)), params


def load_params(path: str | Path) -> tuple[ModelKind, PropagationParams]:
    return read_json(path, "params", params_from_dict)


def aps_to_list(aps: list[AccessPoint]) -> list[dict]:
    return [
        {"id": ap.id, "x": ap.position.x, "y": ap.position.y, "z": ap.position.z,
         "eirp_dbm": ap.eirp_dbm}
        for ap in aps
    ]


def aps_from_list(items: list[dict]) -> list[AccessPoint]:
    if not isinstance(items, list):
        raise TypeError(f"an AP list must be a JSON list, got {type(items).__name__}")
    if not items:
        raise ValueError("an AP list needs at least one AP")
    aps = [
        AccessPoint(
            id=str(item["id"]),
            position=Point3(*(json_number(item[axis]) for axis in "xyz")),
            eirp_dbm=json_number(item.get("eirp_dbm", 20.0)),
        )
        for item in items
    ]
    ids = [ap.id for ap in aps]
    if len(set(ids)) != len(ids):
        raise InputError("AP ids must be unique within a deployment")
    return aps


def save_access_points(aps: list[AccessPoint], path: str | Path) -> None:
    write_json(path, aps_to_list(aps))


def load_access_points(path: str | Path) -> list[AccessPoint]:
    return read_json(path, "AP", aps_from_list)
