"""Indoor environment geometry: bounds, obstacles, and link obstruction counts.

A floorplan is a 2.5D model: an axis-aligned outer rectangle, an ordered list
of horizontal floor-plane heights, and 2D obstacle segments (walls, door
panels) attached to a story. A radio link is the straight segment between a
transmitter and a receiver; its obstruction count is the number of obstacle
segments properly crossed by the link's 2D projection plus the number of
floor planes the link passes through vertically.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import GeometryError
from .ioutil import json_integer, json_number, read_json, write_json

# Contacts closer than this to an obstacle endpoint or line (in meters) are
# treated as grazing and count as zero crossings.
GRAZE_EPS_M = 1e-9

# The candidate-pair search (_crossings) tests at most this many (link,
# obstacle) pairs at a time, so its per-pair temporaries stay cache-sized.
CROSSING_BLOCK = 8192

# The candidate-pair search widens every obstacle's azimuth wedge by this
# angle. The rounding of the difference vectors and of arctan2 moves an
# azimuth by a few units in the last place of pi (about 1e-15 rad), far less.
WEDGE_SLACK_RAD = 1e-12

# Within this distance of tx (receivers' plus obstacle ends'), the rounding of
# the crossing expressions, at most 2**-51 times a distance, stays under half
# their GRAZE_EPS_M margins, so every flagged pair is a proper crossing of the
# link and the obstacle. Calls that reach farther test every pair.
SWEEP_REACH_M = GRAZE_EPS_M * 2.0**50

# The candidate-pair search looks up each obstacle's wedge and its copies
# shifted by these angles among receiver azimuths in [-pi, pi].
_WEDGE_COPIES = np.array([[-2 * np.pi], [0.0], [2 * np.pi]])


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

    def contains(self, x: float, y: float) -> bool:
        """Whether (x, y) lies inside the rectangle or within GRAZE_EPS_M of it."""
        return (
            self.min_x - GRAZE_EPS_M <= x <= self.max_x + GRAZE_EPS_M
            and self.min_y - GRAZE_EPS_M <= y <= self.max_y + GRAZE_EPS_M
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

    def __post_init__(self):
        if self.x1 == self.x2 and self.y1 == self.y2:
            raise ValueError("obstacle endpoints must be distinct")
        if self.floor_index < 0:
            raise ValueError("floor_index must be >= 0")


class _ObstacleColumns(NamedTuple):
    """Per-obstacle scalars of a plan as read-only arrays aligned with its obstacles,
    and ``extent``, the largest distance of an obstacle end from the origin."""

    ends: np.ndarray  # (4, n_obstacles): rows x1, y1, x2, y2
    vx: np.ndarray  # x2 - x1
    vy: np.ndarray  # y2 - y1
    tol_t: np.ndarray  # grazing tolerance of the side-of-obstacle-line test
    floor_index: np.ndarray
    extent: float
    keys: tuple[ObstacleFamily, ...]  # the plan's obstacle_keys()
    family: np.ndarray  # each obstacle's family, as its index in ``keys``

    @classmethod
    def of(cls, obstacles: tuple[PlanarObstacle, ...],
           keys: list[ObstacleFamily]) -> "_ObstacleColumns":
        def column(values, dtype=float):
            array = np.array(values, dtype=dtype)
            array.setflags(write=False)
            return array

        x1, y1 = column([o.x1 for o in obstacles]), column([o.y1 for o in obstacles])
        x2, y2 = column([o.x2 for o in obstacles]), column([o.y2 for o in obstacles])
        tol_t = column([GRAZE_EPS_M * math.hypot(o.x2 - o.x1, o.y2 - o.y1) for o in obstacles])
        family = column([keys.index(o.family) for o in obstacles], np.intp)
        extent = max((math.hypot(x, y) for o in obstacles
                      for x, y in ((o.x1, o.y1), (o.x2, o.y2))), default=0.0)
        return cls(column([x1, y1, x2, y2]), column(x2 - x1), column(y2 - y1), tol_t,
                   column([o.floor_index for o in obstacles], int), extent, tuple(keys),
                   family)


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
    # Derived once, for the crossing counts and floors_crossed_batch; not compared.
    _columns: _ObstacleColumns = field(init=False, repr=False, compare=False)
    _floors: np.ndarray = field(init=False, repr=False, compare=False)  # ``floors``, read-only

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
        object.__setattr__(self, "_columns",
                           _ObstacleColumns.of(self.obstacles, self.obstacle_keys()))
        object.__setattr__(self, "_floors", np.array(self.floors, dtype=float))
        self._floors.setflags(write=False)

    @property
    def area(self) -> float:
        return self.bounds.area

    def story_of(self, z: float) -> int:
        """Story index of a point at height z (number of floor planes at or below it)."""
        return bisect_right(self.floors, z)

    def obstacle_keys(self) -> list[ObstacleFamily]:
        """The obstacle families present in the plan, sorted by name: door before wall."""
        return sorted({o.family for o in self.obstacles}, key=lambda f: f.value)


@dataclass
class ObstructionCount:
    """Per-family crossing counts and crossed floor planes for one link."""

    counts: dict[ObstacleFamily, int]
    floors_crossed: int

    def __post_init__(self):
        if self.floors_crossed < 0 or any(n < 0 for n in self.counts.values()):
            raise ValueError("obstruction counts must be nonnegative")


def points_xyz(points) -> np.ndarray:
    """Positions as an (n, 3) float array, from such an array or a sequence of Point3."""
    if isinstance(points, np.ndarray):
        pts = np.asarray(points, dtype=float)
    else:
        pts = np.array([(p.x, p.y, p.z) for p in points], dtype=float).reshape(-1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("positions must have shape (n, 3)")
    return pts


def _check_in_bounds(plan: Floorplan, p: Point3, name: str) -> None:
    if not plan.bounds.contains(p.x, p.y):
        raise GeometryError(f"{name} ({p.x}, {p.y}) lies outside the floorplan bounds")


def _crossings(plan: Floorplan, tx: Point3, pts: np.ndarray, with_flags: bool,
               ) -> tuple[dict[ObstacleFamily, np.ndarray], np.ndarray | None]:
    """The candidate-pair search: per-family crossing counts of the links from
    tx to the (n, 3) ``pts`` (crossing_counts_batch's dict), and with
    ``with_flags`` the (n, n_obstacles) flags of crossing_flags_batch too.

    An angular sweep around tx picks the (receiver, obstacle) pairs to test:
    a crossing link properly crosses its obstacle, so the link's azimuth
    lies inside the wedge that the obstacle's endpoints span from tx. The
    cost is an O(n log n) sort of the receivers by azimuth, O(m log n)
    searches for each obstacle's ranges of that order, then the elementwise
    test on the candidate pairs only, at most CROSSING_BLOCK pairs at a time.
    Pairs well inside their wedge skip the link-line half of the test, which
    they are shown to pass. The crossing pairs are binned by family with one
    np.bincount into n x n_families integers and, with ``with_flags``,
    scattered into the flags. Both equal, bit for bit, what testing every
    one of the n x m pairs with the same comparisons gives.
    """
    n = pts.shape[0]
    obs = plan._columns
    m = obs.tol_t.shape[0]
    x1, y1 = obs.ends[0], obs.ends[1]

    ax, ay = tx.x, tx.y
    ux = pts[:, 0] - ax
    uy = pts[:, 1] - ay
    norm_u = np.hypot(ux, uy)
    planar = norm_u > GRAZE_EPS_M  # vertical links cross no 2D obstacle

    ta = obs.vx * (ay - y1) - obs.vy * (ax - x1)  # cross(v, a - c): tx vs obstacle lines
    w = obs.ends - np.array([[ax], [ay], [ax], [ay]])  # obstacle ends relative to tx

    # Receivers by azimuth around tx; links with no planar extent sort last.
    # Their coordinates are kept in that order, so a range's gathers run in
    # order.
    azimuth = np.where(planar, np.arctan2(uy, ux), np.inf)
    order = np.argsort(azimuth)
    azimuth = azimuth[order]
    px, py = pts[order, 0], pts[order, 1]
    # Stories traversed per link; an obstacle applies when its story lies in
    # range. On a plan without floors every story is 0, so every one does.
    if plan.floors:
        story_tx = plan.story_of(tx.z)
        stories_rx = np.searchsorted(plan._floors, pts[order, 2], side="right")
        story_lo = np.minimum(stories_rx, story_tx)
        story_hi = np.maximum(stories_rx, story_tx)

    # Each obstacle's short wedge from tx, widened to [start, stop]. Every
    # planar receiver, [-pi, pi], when the widened wedge spans more than a
    # half turn, so rounding may have picked its wrong side, or when the call
    # reaches past SWEEP_REACH_M. None when tx lies within the grazing
    # tolerance of the obstacle's line, so that no link straddles that line
    # and every candidate pair has |ta| > tol_t.
    theta_c, theta_d = np.arctan2(w[1::2], w[0::2])
    lo, hi = np.minimum(theta_c, theta_d), np.maximum(theta_c, theta_d)
    wraps = hi - lo > np.pi
    start = np.where(wraps, hi, lo) - WEDGE_SLACK_RAD
    stop = np.where(wraps, lo + 2 * np.pi, hi) + WEDGE_SLACK_RAD
    reach = norm_u.max(initial=0.0) + obs.extent + math.hypot(ax, ay)
    full = (stop - start > np.pi) | (not reach <= SWEEP_REACH_M)
    start[full], stop[full] = -np.pi, np.pi
    on_line = np.abs(ta) <= obs.tol_t
    start[on_line], stop[on_line] = np.inf, np.inf
    # rx lies across an obstacle's line from tx when side * tb < -tol_t, with
    # tb = cross(v, b - c). It is computed as (side * vx) * (py - y1) -
    # (side * vy) * (px - x1): negation is exact and commutes with rounded
    # products and differences, so only the sign of a zero can differ, and no
    # zero lies below -tol_t.
    side = np.where(ta > 0.0, 1.0, -1.0)
    side_vx, side_vy, neg_tol_t = side * obs.vx, side * obs.vy, -obs.tol_t

    # Each wedge's inner wedge: azimuths at least margin = 2e-9 / |w| rad inside
    # both ends' (|w| the nearer end's distance from tx); none in a full
    # wedge. As a wedge spans at most a half turn, each end then lies at least
    # |w| sin(margin) >= 1.27e-9 m off the link's line, so |sc| and |sd| are at
    # least 1.27e-9 |u|: more than tol_s = 1e-9 |u| plus their rounding, below
    # 2**-52 |u| |w| <= 0.25e-9 |u| within SWEEP_REACH_M. The inner wedge's
    # pairs would pass the link-line test, so they skip it. The extra slack
    # covers the rounding of the azimuths.
    with np.errstate(divide="ignore", invalid="ignore"):  # an end at tx: no inner wedge
        gap = 2 * GRAZE_EPS_M / np.hypot(w[0::2], w[1::2]).min(axis=0) + 2 * WEDGE_SLACK_RAD
        inner_start, inner_stop = start + gap, stop - gap
    no_inner = full | on_line | ~(inner_start < inner_stop)
    inner_start[no_inner] = inner_stop[no_inner] = stop[no_inner]

    # The wedge, its inner wedge and their copies shifted by -2 pi and +2 pi,
    # searched among the sorted azimuths: a wedge across the +-pi seam lies
    # in two of the three. Range k, of copy k // m of obstacle k % m, is
    # [first[k], last[k]), and its inner range [in_first[k], in_last[k]).
    wedges = np.array([start, inner_start, inner_stop, stop])[:, None, :] + _WEDGE_COPIES
    first, in_first, in_last, last = np.searchsorted(azimuth, wedges).reshape(4, -1)

    # The ranges as segments of one flat list of pairs: pair p of segment k is
    # the receiver of rank p + rank_shift[k] against obstacle k % m. Each
    # range is cut into its inner part (segments k < 3m) and the two edges
    # around it, whose pairs run the link-line test.
    seg_first = np.concatenate([in_first, first, in_last])
    seg_len = np.concatenate([in_last, in_first, last]) - seg_first
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    rank_shift = seg_first - seg_start
    n_pairs = int(seg_end[-1]) if m else 0

    flags = np.zeros((n, m), dtype=bool) if with_flags else None
    codes = [np.empty(0, dtype=np.intp)]  # family * n + receiver, per crossing pair
    for lo_pair in range(0, n_pairs, CROSSING_BLOCK):
        hi_pair = min(lo_pair + CROSSING_BLOCK, n_pairs)
        k0, k1 = np.searchsorted(seg_end, [lo_pair, hi_pair - 1], side="right")
        segs, ks = slice(k0, k1 + 1), np.arange(k0, k1 + 1)
        counts = np.minimum(seg_end[segs], hi_pair) - np.maximum(seg_start[segs], lo_pair)
        o = np.repeat(ks % m, counts)
        rank = np.arange(lo_pair, hi_pair) + np.repeat(rank_shift[segs], counts)

        side_tb = side_vx[o] * (py[rank] - y1[o]) - side_vy[o] * (px[rank] - x1[o])
        crosses = side_tb < neg_tol_t[o]  # rx across the obstacle's line
        # Outside the inner wedges, the obstacle's ends across the link's line too.
        edge = np.flatnonzero(crosses & np.repeat(ks >= 3 * m, counts))
        if edge.size:
            re = order[rank[edge]]
            uxr, uyr, tol_sr = ux[re], uy[re], GRAZE_EPS_M * norm_u[re]
            wcx, wcy, wdx, wdy = w[:, o[edge]]
            sc = uxr * wcy - uyr * wcx  # cross(u, c - a): obstacle ends vs link line
            sd = uxr * wdy - uyr * wdx
            crosses[edge] = (np.minimum(sc, sd) < -tol_sr) & (np.maximum(sc, sd) > tol_sr)

        # The story test on the crossing pairs only: the same conjunction.
        keep = np.flatnonzero(crosses)
        rank, o = rank[keep], o[keep]
        if plan.floors:
            floor = obs.floor_index[o]
            in_story = (story_lo[rank] <= floor) & (floor <= story_hi[rank])
            rank, o = rank[in_story], o[in_story]
        r = order[rank]
        codes.append(obs.family[o] * n + r)
        if flags is not None:
            flags[r, o] = True
    by_family = np.bincount(np.concatenate(codes), minlength=len(obs.keys) * n)
    return dict(zip(obs.keys, by_family.reshape(len(obs.keys), n))), flags


def crossing_flags_batch(plan: Floorplan, tx: Point3, rx_xyz: np.ndarray) -> np.ndarray:
    """Per-obstacle crossing indicators for many receivers against one transmitter.

    ``rx_xyz`` is an (n, 3) array; the result is an (n, n_obstacles) boolean
    array aligned with ``plan.obstacles``. A flagged link properly crosses the
    obstacle's segment in plan view, and the obstacle's story lies between
    the link ends' stories. Grazing contacts (within GRAZE_EPS_M of an
    obstacle line or endpoint) count as no crossing, as do links whose 2D
    projection degenerates to a point. The flags are the crossing pairs of
    the candidate-pair search that crossing_counts_batch bins, scattered into
    a matrix that the counts path never builds.
    """
    return _crossings(plan, tx, points_xyz(rx_xyz), with_flags=True)[1]


def floors_crossed_batch(plan: Floorplan, tx: Point3, rx_xyz: np.ndarray) -> np.ndarray:
    """Number of floor planes strictly between tx and each receiver height."""
    pts = np.asarray(rx_xyz, dtype=float)
    if not plan.floors:
        return np.zeros(pts.shape[0], dtype=int)
    planes = plan._floors
    lo = np.minimum(pts[:, 2], tx.z)[:, None]
    hi = np.maximum(pts[:, 2], tx.z)[:, None]
    return np.sum((planes > lo) & (planes < hi), axis=1).astype(int)


def crossing_counts_batch(
    plan: Floorplan, tx: Point3, rx_xyz: np.ndarray
) -> tuple[dict[ObstacleFamily, np.ndarray], np.ndarray]:
    """Obstruction counts for many receivers against one transmitter.

    ``rx_xyz`` is an (n, 3) array. Returns a dict mapping each obstacle family of
    the plan, in ``plan.obstacle_keys()`` order, to an (n,) int array of
    crossing counts, plus an (n,) int array of crossed floor planes. A count
    is the number of the link's flags in crossing_flags_batch that belong to
    the family. It is binned straight from the crossing (receiver, obstacle)
    pairs of an angular sweep around tx, so the cost is an O(n log n) sort
    plus the candidate pairs, and the result takes n x n_families integers.
    """
    pts = points_xyz(rx_xyz)
    return _crossings(plan, tx, pts, with_flags=False)[0], floors_crossed_batch(plan, tx, pts)


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


def lattice_positions(bounds: Bounds, n: int) -> np.ndarray:
    """Exactly n near-uniform lattice points inside bounds, at cell centers, as an
    (n, 2) array of (x, y) rows.

    Uses the divisor pair of n whose cell spacing is closest to square when one
    exists within an aspect tolerance (the first such pair by row count on a
    tie); otherwise builds the aspect-matched lattice of at least n cells and
    keeps the first n in row-major order.
    """
    if n < 1:
        raise ValueError("lattice size must be >= 1")
    w, h = bounds.width, bounds.height

    # Row counts that divide n, ascending: the divisors up to sqrt(n), then
    # their cofactors.
    small = np.arange(1, math.isqrt(n) + 1)
    small = small[n % small == 0]
    large = n // small[::-1]
    rows = np.concatenate([small, large[1:] if large[0] == small[-1] else large])
    cols = n // rows
    sx, sy = w / cols, h / rows
    ratio = np.maximum(sx, sy) / np.minimum(sx, sy)
    best = int(np.argmin(ratio))
    if ratio[best] <= 2.2:
        nx, ny = int(cols[best]), int(rows[best])
    else:
        ny = max(1, int(math.floor(math.sqrt(n * h / w) + 0.5)))
        nx = math.ceil(n / ny)

    x = bounds.min_x + (np.arange(nx) + 0.5) * w / nx
    y = bounds.min_y + (np.arange(ny) + 0.5) * h / ny
    return np.column_stack([np.tile(x, ny), np.repeat(y, nx)])[:n]


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
                "type_index": 1,
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
    """The plan in ``doc``; ValueError on an obstacle whose ``type_index`` is
    present and not 1, since each family carries one loss."""
    b = doc["bounds"]
    for o in doc.get("obstacles", []):
        if json_integer(o.get("type_index", 1)) != 1:
            raise ValueError(f"obstacle type_index {o['type_index']!r}: only type 1 exists")
    bounds = Bounds(*(json_number(b[key]) for key in ("min_x", "min_y", "max_x", "max_y")))
    obstacles = tuple(
        PlanarObstacle(
            *(json_number(o[key]) for key in ("x1", "y1", "x2", "y2")),
            floor_index=json_integer(o.get("floor", 0)),
            family=ObstacleFamily(o["family"]),
        )
        for o in doc.get("obstacles", [])
    )
    return Floorplan(bounds=bounds, floors=tuple(map(json_number, doc.get("floors", []))),
                     obstacles=obstacles)


def save_floorplan(plan: Floorplan, path: str | Path) -> None:
    write_json(path, floorplan_to_dict(plan))


def load_floorplan(path: str | Path) -> Floorplan:
    return read_json(path, "floorplan", floorplan_from_dict)
