"""Indoor environment geometry: bounds, obstacles, and link obstruction counts.

A floorplan is a 2.5D model: an axis-aligned outer rectangle, an ordered list
of horizontal floor-plane heights, and 2D obstacle segments (walls, door
panels) attached to a story. A radio link is the straight segment between a
transmitter and a receiver; its obstruction count is the number of obstacle
segments properly crossed by the link's 2D projection plus the number of
floor planes the link passes through vertically.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import GeometryError, InputError
from .ioutil import write_text_atomic

# Contacts closer than this to an obstacle endpoint or line (in meters) are
# treated as grazing and count as zero crossings.
GRAZE_EPS_M = 1e-9


class ObstacleFamily(str, Enum):
    WALL = "wall"
    DOOR = "door"


@dataclass(frozen=True)
class Point3:
    """A 3D position in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y}, {self.z})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned rectangle in plan view."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self):
        if not (self.max_x > self.min_x and self.max_y > self.min_y):
            raise ValueError("bounds must have positive width and height")

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.min_x + self.max_x), 0.5 * (self.min_y + self.max_y))

    def contains(self, x: float, y: float, slack: float = GRAZE_EPS_M) -> bool:
        return (
            self.min_x - slack <= x <= self.max_x + slack
            and self.min_y - slack <= y <= self.max_y + slack
        )


@dataclass(frozen=True)
class PlanarObstacle:
    """A vertical 2D obstacle (wall or door panel) seen as a segment in plan view.

    ``floor_index`` is the story the obstacle belongs to (story 0 below the
    first listed floor plane, story 1 between the first and second, ...).
    """

    x1: float
    y1: float
    x2: float
    y2: float
    floor_index: int = 0
    family: ObstacleFamily = ObstacleFamily.WALL
    type_index: int = 1

    def __post_init__(self):
        if self.x1 == self.x2 and self.y1 == self.y2:
            raise ValueError("obstacle endpoints must be distinct")
        if self.type_index < 1:
            raise ValueError("type_index must be >= 1")
        if self.floor_index < 0:
            raise ValueError("floor_index must be >= 0")


ObstacleKey = tuple[ObstacleFamily, int]


@dataclass(frozen=True)
class Floorplan:
    """Environment geometry used for obstruction counting.

    ``floors`` lists the z heights of separating floor planes in strictly
    increasing order; a single-story plan has an empty list. Immutable once
    constructed, so concurrent read-only use needs no synchronization.
    """

    bounds: Bounds
    floors: tuple[float, ...] = ()
    obstacles: tuple[PlanarObstacle, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "floors", tuple(float(z) for z in self.floors))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if any(b >= a for a, b in zip(self.floors[1:], self.floors[:-1])):
            raise ValueError("floor heights must be strictly increasing")
        n_stories = len(self.floors) + 1
        for obs in self.obstacles:
            if obs.floor_index >= n_stories:
                raise ValueError(
                    f"obstacle floor_index {obs.floor_index} invalid for {n_stories} stories"
                )

    @property
    def area(self) -> float:
        return self.bounds.area

    def story_of(self, z: float) -> int:
        """Story index of a point at height z (number of floor planes at or below it)."""
        return bisect_right(self.floors, z)

    def obstacle_keys(self) -> list[ObstacleKey]:
        """Sorted inventory of (family, type_index) pairs present in the plan."""
        return sorted({(o.family, o.type_index) for o in self.obstacles},
                      key=lambda k: (k[0].value, k[1]))


@dataclass
class ObstructionCount:
    """Per-(family, type) crossing counts and crossed floor planes for one link."""

    counts: dict[ObstacleKey, int]
    floors_crossed: int

    def __post_init__(self):
        if self.floors_crossed < 0 or any(n < 0 for n in self.counts.values()):
            raise ValueError("obstruction counts must be nonnegative")

    def total_2d(self) -> int:
        return sum(self.counts.values())


def points_xyz(points) -> np.ndarray:
    """Positions as an (n, 3) float array, from such an array or a sequence of Point3."""
    if isinstance(points, np.ndarray):
        pts = np.asarray(points, dtype=float)
    else:
        pts = np.array([(p.x, p.y, p.z) for p in points], dtype=float).reshape(-1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("positions must have shape (n, 3)")
    return pts


def link_distance(tx: Point3, rx: Point3) -> float:
    """Euclidean 3D distance of the tx-rx link, in meters."""
    if tx == rx:
        raise GeometryError("link endpoints coincide")
    return math.dist((tx.x, tx.y, tx.z), (rx.x, rx.y, rx.z))


def _check_in_bounds(plan: Floorplan, p: Point3, name: str) -> None:
    if not plan.bounds.contains(p.x, p.y):
        raise GeometryError(f"{name} ({p.x}, {p.y}) lies outside the floorplan bounds")


def crossing_flags_batch(plan: Floorplan, tx: Point3, rx_xyz: np.ndarray) -> np.ndarray:
    """Per-obstacle crossing indicators for many receivers against one transmitter.

    ``rx_xyz`` is an (n, 3) array; the result is an (n, n_obstacles) boolean
    array aligned with ``plan.obstacles``. Grazing contacts (within
    GRAZE_EPS_M of an obstacle line or endpoint) count as no crossing, as do
    links whose 2D projection degenerates to a point.
    """
    pts = np.asarray(rx_xyz, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("rx_xyz must have shape (n, 3)")
    n = pts.shape[0]

    ax, ay = tx.x, tx.y
    ux = pts[:, 0] - ax
    uy = pts[:, 1] - ay
    norm_u = np.hypot(ux, uy)
    planar = norm_u > GRAZE_EPS_M  # vertical links cross no 2D obstacle

    # Stories traversed per link; an obstacle applies when its story lies in range.
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
        sc = ux * wcy - uy * wcx  # cross(u, c - a): obstacle endpoints vs link line
        sd = ux * wdy - uy * wdx
        straddles_link_line = ((sc > tol_s) & (sd < -tol_s)) | ((sc < -tol_s) & (sd > tol_s))

        vx, vy = obs.x2 - obs.x1, obs.y2 - obs.y1
        norm_v = math.hypot(vx, vy)
        tol_t = GRAZE_EPS_M * norm_v
        ta = vx * (ay - obs.y1) - vy * (ax - obs.x1)  # cross(v, a - c): link ends vs obstacle line
        tb = vx * (pts[:, 1] - obs.y1) - vy * (pts[:, 0] - obs.x1)
        straddles_obstacle_line = ((ta > tol_t) & (tb < -tol_t)) | ((ta < -tol_t) & (tb > tol_t))

        flags[:, j] = planar & in_story & straddles_link_line & straddles_obstacle_line
    return flags


def floors_crossed_batch(plan: Floorplan, tx: Point3, rx_xyz: np.ndarray) -> np.ndarray:
    """Number of floor planes strictly between tx and each receiver height."""
    pts = np.asarray(rx_xyz, dtype=float)
    if not plan.floors:
        return np.zeros(pts.shape[0], dtype=int)
    planes = np.asarray(plan.floors)
    lo = np.minimum(pts[:, 2], tx.z)[:, None]
    hi = np.maximum(pts[:, 2], tx.z)[:, None]
    return np.sum((planes > lo) & (planes < hi), axis=1).astype(int)


def crossing_counts_batch(
    plan: Floorplan, tx: Point3, rx_xyz: np.ndarray
) -> tuple[dict[ObstacleKey, np.ndarray], np.ndarray]:
    """Obstruction counts for many receivers against one transmitter.

    ``rx_xyz`` is an (n, 3) array. Returns a dict mapping each obstacle key of
    the plan to an (n,) int array of crossing counts, plus an (n,) int array of
    crossed floor planes.
    """
    flags = crossing_flags_batch(plan, tx, rx_xyz)
    counts = {key: np.zeros(flags.shape[0], dtype=int) for key in plan.obstacle_keys()}
    for j, obs in enumerate(plan.obstacles):
        counts[(obs.family, obs.type_index)] += flags[:, j]
    return counts, floors_crossed_batch(plan, tx, rx_xyz)


def count_obstructions(plan: Floorplan, tx: Point3, rx: Point3) -> ObstructionCount:
    """Count obstacle segments and floor planes obstructing the tx-rx link."""
    if tx == rx:
        raise GeometryError("transmitter and receiver coincide")
    _check_in_bounds(plan, tx, "tx")
    _check_in_bounds(plan, rx, "rx")
    counts, floors = crossing_counts_batch(plan, tx, rx.as_array()[None, :])
    return ObstructionCount(
        counts={key: int(arr[0]) for key, arr in counts.items()},
        floors_crossed=int(floors[0]),
    )


def lattice_positions(bounds: Bounds, n: int) -> list[tuple[float, float]]:
    """Exactly n near-uniform lattice points inside bounds, at cell centers.

    Uses the divisor pair of n whose cell spacing is closest to square when one
    exists within an aspect tolerance; otherwise builds the aspect-matched
    lattice of at least n cells and keeps the first n in row-major order.
    """
    if n < 1:
        raise ValueError("lattice size must be >= 1")
    w, h = bounds.width, bounds.height

    best: tuple[float, int, int] | None = None
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


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def floorplan_to_dict(plan: Floorplan) -> dict:
    return {
        "bounds": {
            "min_x": plan.bounds.min_x,
            "min_y": plan.bounds.min_y,
            "max_x": plan.bounds.max_x,
            "max_y": plan.bounds.max_y,
        },
        "floors": list(plan.floors),
        "obstacles": [
            {
                "family": o.family.value,
                "type_index": o.type_index,
                "floor": o.floor_index,
                "x1": o.x1,
                "y1": o.y1,
                "x2": o.x2,
                "y2": o.y2,
            }
            for o in plan.obstacles
        ],
    }


def floorplan_from_dict(doc: dict) -> Floorplan:
    try:
        b = doc["bounds"]
        bounds = Bounds(float(b["min_x"]), float(b["min_y"]), float(b["max_x"]), float(b["max_y"]))
        obstacles = tuple(
            PlanarObstacle(
                x1=float(o["x1"]),
                y1=float(o["y1"]),
                x2=float(o["x2"]),
                y2=float(o["y2"]),
                floor_index=int(o.get("floor", 0)),
                family=ObstacleFamily(o["family"]),
                type_index=int(o.get("type_index", 1)),
            )
            for o in doc.get("obstacles", [])
        )
        return Floorplan(bounds=bounds, floors=tuple(doc.get("floors", [])), obstacles=obstacles)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed floorplan document: {exc}") from exc


def save_floorplan(plan: Floorplan, path: str | Path) -> None:
    write_text_atomic(path, json.dumps(floorplan_to_dict(plan), indent=2) + "\n")


def load_floorplan(path: str | Path) -> Floorplan:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise InputError(f"cannot read floorplan file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"floorplan file {path} is not valid JSON: {exc}") from exc
    return floorplan_from_dict(doc)
