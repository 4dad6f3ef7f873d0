"""Synthetic testbeds and measurement campaigns.

Worlds are office-like single-story layouts (a central corridor with rooms,
fire partitions, door panels, and in-room clutter, all generated from a seed)
with APs at known positions and a ground-truth multi-wall propagation
parameter set. The truth deliberately departs from anything the fitted model
can express: individual obstacles spread their per-crossing loss around the
family value, and a spatially correlated residual field adds what no segment
inventory captures. Both are fixed functions of the world, so repeated
campaigns see the same anomalies. Campaign noise on top of that: per-scan
fast fading, a per-visit slow-fading offset that scan averaging cannot
remove, and per-device biases set by the scenario preset.

Two scenario presets mirror a carefully controlled survey (many scans per
point, one device) and a crowdsourcing-like one (few scans, single-scan
targets, per-device biases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import GeometryError
from .fitting import MeasurementSet
from .floorplan import (
    Bounds,
    Floorplan,
    ObstacleFamily,
    PlanarObstacle,
    Point3,
    floorplan_from_dict,
    lattice_positions,
    points_xyz,
)
from .ioutil import json_number, read_json
from .propagation import (
    AccessPoint,
    LinkTable,
    ModelKind,
    PropagationParams,
    aps_from_list,
    params_from_dict,
)
from .radiomap import (
    DETECTION_FLOOR_DBM,
    DEVICE_HEIGHT_M,
    NOT_DETECTED_DBM,
    Fingerprint,
    _check_rss,
    ceil_scaled,
)

AP_HEIGHT_M = 2.8

# The standard experiment grids: survey fractions rho, virtual RP densities
# in RPs/m^2, and the k rule's alpha values from ALPHA_RANGE in ALPHA_STEP
# steps.
RHO_GRID = (0.1, 0.2, 0.5, 1.0)
DV_GRID = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)
ALPHA_RANGE = (0.01, 0.25)
ALPHA_STEP = 0.01

# The most scans one campaign draws, survey and targets together. simulate
# takes about 320 bytes of memory and 70 bytes of survey file a scan, so about
# 3 GB at the cap; a built-in template's default campaign draws under 50,000.
MAX_CAMPAIGN_SCANS = 10_000_000

# Random Fourier features per residual field.
_FIELD_FEATURES = 64

# Fixed stream tags so every consumer of a world's seed draws from a distinct,
# reproducible substream.
_LAYOUT_STREAM = 11
_CAMPAIGN_STREAM = 101
_FIELD_STREAM = 211
_TP_POSITION_STREAM = 401


class TestPoint(NamedTuple):
    position: Point3
    fingerprint: Fingerprint


@dataclass(frozen=True)
class NoiseConfig:
    """Stochastic imperfections applied to simulated measurements.

    ``shadowing_sigma_db`` is fast fading, i.i.d. per scan; it averages away
    with the scan count. ``slow_fading_sigma_db`` is drawn once per
    (location, AP) per visit, so all scans of a visit share it and averaging
    does not remove it; it is the dominant single-fingerprint uncertainty.
    Per-device offsets belong to the survey discipline (ScenarioPreset).
    ``mismatch_sigma_db`` sets the standard deviation of the stationary
    residual field, with correlation length ``mismatch_corr_m``; zero disables
    the field and makes the world exactly realizable by the fitted model.
    ``drift_sigma_db`` scales a per-AP offset between the survey campaign and
    the later positioning requests. ``wall_loss_spread_db`` spreads the true
    per-crossing loss of individual obstacles around their family value, so a
    single fitted loss per type can never reproduce the world exactly (the
    empirical-model misfit); zero makes obstacles homogeneous.
    """

    shadowing_sigma_db: float = 3.0
    slow_fading_sigma_db: float = 5.5
    mismatch_sigma_db: float = 1.5
    mismatch_corr_m: float = 6.0
    drift_sigma_db: float = 0.0
    wall_loss_spread_db: float = 3.5

    def __post_init__(self):
        if min(self.shadowing_sigma_db, self.slow_fading_sigma_db, self.mismatch_sigma_db,
               self.drift_sigma_db, self.wall_loss_spread_db) < 0 \
                or self.mismatch_corr_m <= 0:
            raise ValueError("noise magnitudes must be nonnegative, correlation positive")

    @classmethod
    def none(cls) -> "NoiseConfig":
        return cls(shadowing_sigma_db=0.0, slow_fading_sigma_db=0.0, mismatch_sigma_db=0.0,
                   drift_sigma_db=0.0, wall_loss_spread_db=0.0)


@dataclass(frozen=True)
class ScenarioPreset:
    """Survey discipline: scans per RP, scans per target fingerprint, device spread."""

    name: str
    q: int
    tp_scans: int
    device_bias_sigma_db: float

    def __post_init__(self):
        if self.q < 1 or self.tp_scans < 1:
            raise ValueError("scan counts must be >= 1")

    @classmethod
    def controlled(cls) -> "ScenarioPreset":
        return cls(name="controlled", q=50, tp_scans=50, device_bias_sigma_db=0.0)

    @classmethod
    def crowdsourcing_like(cls) -> "ScenarioPreset":
        return cls(name="crowdsourcing", q=5, tp_scans=1, device_bias_sigma_db=2.0)


_PRESETS = {
    "controlled": ScenarioPreset.controlled,
    "crowdsourcing": ScenarioPreset.crowdsourcing_like,
}


def preset_by_name(name: str) -> ScenarioPreset:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown scenario preset {name!r}") from None


@dataclass
class WorldSpec:
    """A synthetic testbed: geometry, APs, ground-truth propagation, and noise.

    ``obstacle_loss_offsets_db`` holds each obstacle's deviation from its
    family's nominal per-crossing loss (None means homogeneous obstacles).
    """

    plan: Floorplan
    aps: list[AccessPoint]
    truth: dict[str, PropagationParams]
    noise: NoiseConfig
    detection_floor_dbm: float = DETECTION_FLOOR_DBM
    sentinel_dbm: float = NOT_DETECTED_DBM
    seed: int = 0
    obstacle_loss_offsets_db: np.ndarray | None = None

    def __post_init__(self):
        for ap in self.aps:
            if not self.plan.bounds.contains(ap.position.x, ap.position.y):
                raise GeometryError(f"AP {ap.id!r} lies outside the floorplan bounds")
            if ap.id not in self.truth:
                raise ValueError(f"no ground-truth parameters for AP {ap.id!r}")

    def truth_for(self, ap_id: str) -> PropagationParams:
        return self.truth[ap_id]


@dataclass(frozen=True)
class TemplateInfo:
    """Canonical survey layout of a world template.

    ``dr_grid`` holds the exact real-RP densities ceil(rho * n_rp_total) / area
    for ``RHO_GRID``; published two-decimal density values are roundings of
    these.
    """

    name: str
    width_m: float
    height_m: float
    n_rp_total: int
    n_test_points: int

    @property
    def area(self) -> float:
        return self.width_m * self.height_m

    @property
    def n_rp_grid(self) -> tuple[int, ...]:
        return tuple(ceil_scaled(rho * self.n_rp_total) for rho in RHO_GRID)

    @property
    def dr_grid(self) -> tuple[float, ...]:
        return tuple(n / self.area for n in self.n_rp_grid)

    @property
    def dr_max(self) -> float:
        return self.dr_grid[-1]

    @property
    def dv_max(self) -> float:
        return DV_GRID[-1]


_TEMPLATES = {
    "spinv_like": TemplateInfo("spinv_like", 42.0, 12.0, 72, 31),
    "twist_like": TemplateInfo("twist_like", 30.0, 15.0, 41, 80),
}
_TEMPLATE_TAGS = {"spinv_like": 3, "twist_like": 5, "custom": 7}


def template_info(name: str) -> TemplateInfo:
    try:
        return _TEMPLATES[name]
    except KeyError:
        raise ValueError(f"unknown world template {name!r}") from None


def _office_layout(rng: np.random.Generator, bounds: Bounds, corridor_y: float,
                   room_span: tuple[float, float],
                   partition_span: tuple[float, float] = (8.0, 12.0),
                   clutter_per_m2: float = 1 / 8.0) -> tuple[list[PlanarObstacle], int]:
    """Corridor walls with door panels, room-divider walls, and in-room clutter."""
    half_width = rng.uniform(1.35, 1.7)
    door_w = 1.4
    obstacles: list[PlanarObstacle] = []

    sides = (
        (corridor_y - half_width, bounds.min_y),  # south rooms
        (corridor_y + half_width, bounds.max_y),  # north rooms
    )
    for wall_y, room_edge_y in sides:
        dividers = []
        x = bounds.min_x
        while True:
            x += rng.uniform(*room_span)
            if x >= bounds.max_x - 2.5:
                break
            dividers.append(x)
            obstacles.append(PlanarObstacle(x, min(wall_y, room_edge_y),
                                            x, max(wall_y, room_edge_y),
                                            family=ObstacleFamily.WALL))
        # One door per room, cut into the corridor-facing wall.
        edges = [bounds.min_x] + dividers + [bounds.max_x]
        cuts = []
        for x0, x1 in zip(edges[:-1], edges[1:]):
            if x1 - x0 < door_w + 1.0:
                continue
            start = rng.uniform(x0 + 0.5, x1 - 0.5 - door_w)
            cuts.append((start, start + door_w))
            obstacles.append(PlanarObstacle(start, wall_y, start + door_w, wall_y,
                                            family=ObstacleFamily.DOOR))
        prev = bounds.min_x
        for start, end in cuts:
            if start - prev > 1e-6:
                obstacles.append(PlanarObstacle(prev, wall_y, start, wall_y,
                                                family=ObstacleFamily.WALL))
            prev = end
        if bounds.max_x - prev > 1e-6:
            obstacles.append(PlanarObstacle(prev, wall_y, bounds.max_x, wall_y,
                                            family=ObstacleFamily.WALL))

    # Fire/lobby partitions across the corridor: without them the corridor
    # ducts every AP end to end and per-AP coverage never becomes partial.
    x = bounds.min_x
    while True:
        x += rng.uniform(*partition_span)
        if x >= bounds.max_x - 4.0:
            break
        door_lo = rng.uniform(corridor_y - half_width + 0.2,
                              corridor_y + half_width - 0.2 - door_w)
        obstacles.append(PlanarObstacle(x, corridor_y - half_width, x, door_lo,
                                        family=ObstacleFamily.WALL))
        obstacles.append(PlanarObstacle(x, door_lo, x, door_lo + door_w,
                                        family=ObstacleFamily.DOOR))
        obstacles.append(PlanarObstacle(x, door_lo + door_w, x, corridor_y + half_width,
                                        family=ObstacleFamily.WALL))

    # In-room clutter (cabinets, shelving): short attenuating segments that
    # give fingerprints structure away from the room boundaries. Returned
    # after the structural obstacles; callers may treat them differently.
    n_structural = len(obstacles)
    n_clutter = int(bounds.area * clutter_per_m2)
    for _ in range(n_clutter):
        cx = rng.uniform(bounds.min_x + 0.5, bounds.max_x - 0.5)
        cy = rng.uniform(bounds.min_y + 0.5, bounds.max_y - 0.5)
        half = 0.5 * rng.uniform(0.8, 2.0)
        angle = rng.uniform(0.0, math.pi)
        dx, dy = half * math.cos(angle), half * math.sin(angle)
        obstacles.append(PlanarObstacle(cx - dx, cy - dy, cx + dx, cy + dy,
                                        family=ObstacleFamily.WALL))
    return obstacles, n_structural


def _custom_world_from_dict(doc: dict, seed: int) -> WorldSpec:
    plan = floorplan_from_dict(doc["floorplan"])
    aps = aps_from_list(doc["aps"])
    _, truth = params_from_dict(doc["truth_params"])
    noise = NoiseConfig(**{key: json_number(value)
                           for key, value in doc.get("noise", {}).items()})
    offsets = None
    if noise.wall_loss_spread_db > 0 and plan.obstacles:
        rng = np.random.default_rng(np.random.SeedSequence([seed, _LAYOUT_STREAM]))
        offsets = rng.normal(0.0, noise.wall_loss_spread_db, len(plan.obstacles))
        nominal = np.array([truth.loss_db(o.family) for o in plan.obstacles])
        offsets = np.maximum(offsets, 0.3 - nominal)
    return WorldSpec(
        plan=plan, aps=aps, truth={ap.id: truth for ap in aps}, noise=noise,
        detection_floor_dbm=json_number(doc.get("detection_floor_dbm", DETECTION_FLOOR_DBM)),
        sentinel_dbm=json_number(doc.get("sentinel_dbm", NOT_DETECTED_DBM)),
        seed=seed, obstacle_loss_offsets_db=offsets,
    )


def make_world(template: str, seed: int, noise: NoiseConfig | None = None,
               custom_file: str | Path | None = None) -> WorldSpec:
    """Build a seeded synthetic testbed from a template.

    ``spinv_like`` is a 42 x 12 m floor with 7 corridor-ceiling APs
    (sub-optimal coverage geometry); ``twist_like`` is 30 x 15 m with 4 corner
    APs (good spatial diversity). ``custom`` loads geometry, APs, and truth
    parameters from ``custom_file``; a custom world draws per-obstacle loss
    offsets from its seed when the noise config requests a spread.
    """
    if template == "custom":
        if custom_file is None:
            raise ValueError("custom template requires custom_file")
        world = read_json(custom_file, "custom world",
                          lambda doc: _custom_world_from_dict(doc, seed))
        if noise is not None:
            world.noise = noise
        return world

    info = template_info(template)
    bounds = Bounds(0.0, 0.0, info.width_m, info.height_m)
    corridor_y = info.height_m / 2.0
    ss = np.random.SeedSequence([int(seed), _TEMPLATE_TAGS[template], _LAYOUT_STREAM])
    layout_rng, truth_rng = (np.random.default_rng(c) for c in ss.spawn(2))

    if template == "spinv_like":
        # Sub-optimal coverage testbed: long narrow floor, heavily partitioned.
        obstacles, n_structural = _office_layout(layout_rng, bounds, corridor_y,
                                                 room_span=(4.2, 6.5),
                                                 partition_span=(6.0, 9.0),
                                                 clutter_per_m2=1 / 6.0)
    else:
        obstacles, n_structural = _office_layout(layout_rng, bounds, corridor_y,
                                                 room_span=(4.2, 6.5))
    plan = Floorplan(bounds=bounds, floors=(), obstacles=tuple(obstacles))

    if template == "spinv_like":
        # Corridor-ceiling APs: along the corridor but staggered off its center
        # line (exactly collinear APs would make mirror points across the
        # corridor indistinguishable by distance).
        xs = np.linspace(4.0, info.width_m - 4.0, 7)
        offsets = truth_rng.uniform(0.5, 1.1, size=7) * np.where(np.arange(7) % 2, -1.0, 1.0)
        positions = [(float(x), float(corridor_y + dy)) for x, dy in zip(xs, offsets)]
    else:
        inset = 2.5
        positions = [(inset, inset), (info.width_m - inset, inset),
                     (inset, info.height_m - inset), (info.width_m - inset, info.height_m - inset)]
    aps = [AccessPoint(id=f"ap{i + 1:02d}", position=Point3(x, y, AP_HEIGHT_M), eirp_dbm=20.0)
           for i, (x, y) in enumerate(positions)]

    truth = PropagationParams(
        gamma=float(truth_rng.uniform(3.0, 3.8)),
        lc_db=float(truth_rng.uniform(1.0, 3.0)),
        wall_db=float(truth_rng.uniform(8.0, 13.0)),
        door_db=float(truth_rng.uniform(2.0, 4.0)),
    )
    noise = noise if noise is not None else NoiseConfig()
    offsets = None
    if noise.wall_loss_spread_db > 0:
        offsets = truth_rng.normal(0.0, noise.wall_loss_spread_db, len(obstacles))
        nominal = np.array([truth.loss_db(o.family) for o in obstacles])
        # Clutter attenuates far less than structural walls; the single fitted
        # per-type loss cannot represent both, which is the point.
        clutter_true = truth_rng.uniform(2.0, 6.0, len(obstacles) - n_structural)
        offsets[n_structural:] = clutter_true - nominal[n_structural:]
        # Keep every true per-crossing loss attenuating.
        offsets = np.maximum(offsets, 0.3 - nominal)
    return WorldSpec(
        plan=plan, aps=aps, truth={ap.id: truth for ap in aps},
        noise=noise, seed=int(seed), obstacle_loss_offsets_db=offsets,
    )


class _ResidualField:
    """Stationary Gaussian-like dB field via random Fourier features.

    Approximates a zero-mean process with RBF covariance of the configured
    standard deviation and correlation length; evaluating at the same (x, y)
    always returns the same value.
    """

    def __init__(self, rng: np.random.Generator, sigma_db: float, corr_m: float):
        self._amp = sigma_db * math.sqrt(2.0 / _FIELD_FEATURES)
        self._freq = rng.normal(0.0, 1.0 / corr_m, size=(_FIELD_FEATURES, 2))
        self._phase = rng.uniform(0.0, 2.0 * math.pi, size=_FIELD_FEATURES)

    def __call__(self, xy: np.ndarray) -> np.ndarray:
        return self._amp * np.cos(xy @ self._freq.T + self._phase).sum(axis=1)


def _residual_fields(world: WorldSpec) -> list[_ResidualField] | None:
    if world.noise.mismatch_sigma_db <= 0:
        return None
    ss = np.random.SeedSequence([world.seed, _FIELD_STREAM])
    return [_ResidualField(np.random.default_rng(child), world.noise.mismatch_sigma_db,
                           world.noise.mismatch_corr_m)
            for child in ss.spawn(len(world.aps))]


def _true_rss_matrix(world: WorldSpec, positions: np.ndarray) -> np.ndarray:
    """Noise-free received power including per-obstacle loss spread and the
    residual field, shape (n, L)."""
    fields = _residual_fields(world)
    offsets = world.obstacle_loss_offsets_db
    columns = []
    for l, ap in enumerate(world.aps):
        table = LinkTable(world.plan, ap, positions)
        # Counting the flags first lets the prediction reuse them.
        flags = table.crossing_flags() if offsets is not None else None
        values = table.predict_rss(ModelKind.MWMF, world.truth_for(ap.id))
        if flags is not None:
            values = values - flags @ offsets
        if fields is not None:
            values = values + fields[l](positions[:, :2])
        columns.append(values)
    return np.column_stack(columns)


def check_campaign_size(n_rp: float, n_tp: int, n_aps: int, preset: ScenarioPreset) -> None:
    """ValueError unless a campaign of ``n_rp`` survey points (or the density times
    the area) and ``n_tp`` targets draws at most MAX_CAMPAIGN_SCANS scans."""
    scans = (n_rp * preset.q + n_tp * preset.tp_scans) * n_aps
    if not scans <= MAX_CAMPAIGN_SCANS:
        raise ValueError(f"the campaign would draw {scans:,.0f} scans, more than "
                         f"{MAX_CAMPAIGN_SCANS:,}")


def grid_rp_positions(plan: Floorplan, d_real: float) -> list[Point3]:
    """Regular survey lattice realizing round(d_real * area) reference points."""
    if d_real <= 0:
        raise ValueError("real RP density must be positive")
    n = int(math.floor(round(d_real * plan.area, 9) + 0.5))
    if n < 1:
        raise ValueError(f"density {d_real} yields no grid point on this plan")
    return [Point3(x, y, DEVICE_HEIGHT_M) for x, y in lattice_positions(plan.bounds, n).tolist()]


def random_positions(plan: Floorplan, n: int,
                     seed: int | np.random.SeedSequence) -> list[Point3]:
    """n uniformly random positions at device height, 0.3 m or more inside the bounds."""
    rng = np.random.default_rng(seed)
    b = plan.bounds
    xs = rng.uniform(b.min_x + 0.3, b.max_x - 0.3, n)
    ys = rng.uniform(b.min_y + 0.3, b.max_y - 0.3, n)
    return [Point3(float(x), float(y), DEVICE_HEIGHT_M) for x, y in zip(xs, ys)]


def template_test_positions(template: str, seed: int, plan: Floorplan,
                            n: int | None = None) -> list[Point3]:
    """The template's randomly distributed target locations for a given seed.

    ``n`` defaults to the template's target count; ``custom`` has none.
    """
    if n is None:
        n = template_info(template).n_test_points
    ss = np.random.SeedSequence([int(seed), _TEMPLATE_TAGS[template], _TP_POSITION_STREAM])
    return random_positions(plan, n, ss)


def _detected_means(scans: np.ndarray, floor: float, sentinel: float) -> np.ndarray:
    """Mean detected scan of each (target, AP) entry of ``scans`` (n_tp, L, S),
    as an (n_tp, L) matrix; ``sentinel`` where no scan is detected.

    The entries with m detected scans are averaged together: their detected
    scans, in row order, form one contiguous (G, m) block whose row means add
    the same terms in the same order as ``np.mean`` of each entry's detected
    scans, so every mean equals that per-entry mean bit for bit.
    """
    detected = scans >= floor
    counts = np.count_nonzero(detected, axis=2)
    means = np.full(counts.shape, sentinel, dtype=float)
    for m in np.unique(counts[counts > 0]).tolist():
        entries = counts == m
        means[entries] = scans[entries][detected[entries]].reshape(-1, m).mean(axis=1)
    return means


def simulate_campaign(world: WorldSpec, rp_positions: list[Point3],
                      tp_positions: list[Point3], preset: ScenarioPreset,
                      ) -> tuple[MeasurementSet, list[TestPoint]]:
    """Run one measurement campaign over the given survey and target positions.

    Every scan is truth RSS plus the visit's slow-fading offset, per-scan fast
    fading, and the device bias in effect. The survey shares a single device
    bias draw; each target fingerprint gets its own (a positioning request
    comes from its own device), and target scans additionally see the per-AP
    campaign drift. Scans below the detection floor are recorded as
    {not detected}.
    """
    for p in rp_positions + tp_positions:
        if not world.plan.bounds.contains(p.x, p.y):
            raise GeometryError(f"campaign position ({p.x}, {p.y}) outside bounds")
    if not rp_positions:
        raise ValueError("campaign needs at least one survey point")

    ss = np.random.SeedSequence([world.seed, _CAMPAIGN_STREAM])
    rp_rng, tp_rng, bias_rng, drift_rng = (np.random.default_rng(c) for c in ss.spawn(4))
    sigma = world.noise.shadowing_sigma_db
    bias_sigma = preset.device_bias_sigma_db
    drift_sigma = world.noise.drift_sigma_db
    n_rp, n_tp, n_ap = len(rp_positions), len(tp_positions), len(world.aps)
    drift = (drift_rng.normal(0.0, drift_sigma, n_ap) if drift_sigma > 0
             else np.zeros(n_ap))

    rp_bias = float(bias_rng.normal(0.0, bias_sigma)) if bias_sigma > 0 else 0.0
    tp_bias = (bias_rng.normal(0.0, bias_sigma, n_tp) if bias_sigma > 0
               else np.zeros(n_tp))

    slow_sigma = world.noise.slow_fading_sigma_db
    rp_xyz, tp_xyz = points_xyz(rp_positions), points_xyz(tp_positions)
    # One link table per AP for the survey and the targets together.
    base = _true_rss_matrix(world, np.concatenate([rp_xyz, tp_xyz]))
    base_rp, base_tp = base[:n_rp], base[n_rp:]
    slow_rp = (rp_rng.normal(0.0, slow_sigma, size=(n_rp, n_ap)) if slow_sigma > 0
               else np.zeros((n_rp, n_ap)))
    shadow = (rp_rng.normal(0.0, sigma, size=(n_rp, n_ap, preset.q)) if sigma > 0
              else np.zeros((n_rp, n_ap, preset.q)))
    scans_rp = np.minimum(base_rp[:, :, None] + slow_rp[:, :, None] + shadow + rp_bias, 0.0)
    measurements = _survey("rp", rp_xyz, world.aps, scans_rp,
                           scans_rp >= world.detection_floor_dbm)

    test_points = []
    if n_tp:
        slow_tp = (tp_rng.normal(0.0, slow_sigma, size=(n_tp, n_ap)) if slow_sigma > 0
                   else np.zeros((n_tp, n_ap)))
        shadow_tp = (tp_rng.normal(0.0, sigma, size=(n_tp, n_ap, preset.tp_scans))
                     if sigma > 0 else np.zeros((n_tp, n_ap, preset.tp_scans)))
        scans_tp = np.minimum(base_tp[:, :, None] + slow_tp[:, :, None] + shadow_tp
                              + drift[None, :, None] + tp_bias[:, None, None], 0.0)
        means = _detected_means(scans_tp, world.detection_floor_dbm, world.sentinel_dbm)
        _check_rss(means)
        test_points = [TestPoint(position, Fingerprint._trusted(row))
                       for position, row in zip(tp_positions, means)]

    return measurements, test_points


def _survey(prefix: str, xyz: np.ndarray, aps: list[AccessPoint], scans: np.ndarray,
            detected: np.ndarray) -> MeasurementSet:
    """The (point, AP, scan) array ``scans``, taken at ``xyz``, as a survey whose
    rows run over (point, AP, scan), scan fastest; points are named ``prefix``
    plus 000, 001, ..."""
    n, n_ap, q = scans.shape
    return MeasurementSet(
        [f"{prefix}{i:03d}" for i in range(n)], xyz, [ap.id for ap in aps],
        rp_index=np.repeat(np.arange(n), n_ap * q),
        ap_index=np.tile(np.repeat(np.arange(n_ap), q), n), rss=scans.reshape(-1),
        detected=detected.reshape(-1), scan=np.tile(np.arange(q), n * n_ap))


def target_measurements(world: WorldSpec, test_points: list[TestPoint]) -> MeasurementSet:
    """The targets as a survey of one scan (index 0) per target ``tp000``, ``tp001``,
    ... and AP, not detected at the world's sentinel; ``build_real_fingerprints``
    of it at that sentinel gives the targets back."""
    rss = np.array([tp.fingerprint.rss for tp in test_points])[:, :, None]
    return _survey("tp", points_xyz([tp.position for tp in test_points]), world.aps, rss,
                   rss != world.sentinel_dbm)
