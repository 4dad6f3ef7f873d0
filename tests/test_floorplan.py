import json

import numpy as np
import pytest

from radioloc.errors import GeometryError, InputError
from radioloc.floorplan import (
    Bounds,
    Floorplan,
    ObstacleFamily,
    PlanarObstacle,
    Point3,
    count_obstructions,
    crossing_counts_batch,
    crossing_flags_batch,
    floorplan_from_dict,
    floorplan_to_dict,
    lattice_positions,
    load_floorplan,
    save_floorplan,
)

from helpers import oracle_count_2d, random_plan, random_point

WALL = ObstacleFamily.WALL
DOOR = ObstacleFamily.DOOR


def empty_plan():
    return Floorplan(bounds=Bounds(0.0, 0.0, 20.0, 10.0))


class TestCountObstructions:
    def test_empty_room_all_zero(self):
        plan = empty_plan()
        obs = count_obstructions(plan, Point3(1, 1, 1.5), Point3(18, 8, 1.5))
        assert sum(obs.counts.values()) == 0
        assert obs.floors_crossed == 0

    def test_vertical_link_crosses_one_plane(self):
        plan = Floorplan(bounds=Bounds(0, 0, 20, 10), floors=(3.0,),
                         obstacles=(PlanarObstacle(5, 0, 5, 10, family=WALL),))
        obs = count_obstructions(plan, Point3(4, 4, 1.5), Point3(4, 4, 4.5))
        assert obs.floors_crossed == 1
        assert sum(obs.counts.values()) == 0

    def test_three_parallel_walls(self):
        # Expected count confirmed against the dense-sampling oracle.
        walls = tuple(PlanarObstacle(x, 0.0, x, 10.0, family=WALL) for x in (5, 10, 15))
        plan = Floorplan(bounds=Bounds(0, 0, 20, 10), obstacles=walls)
        tx, rx = Point3(1, 5, 1.5), Point3(19, 5, 1.5)
        obs = count_obstructions(plan, tx, rx)
        assert obs.counts[WALL] == 3
        oracle_counts, _ = oracle_count_2d(plan, tx, rx, samples=100_000)
        assert oracle_counts[WALL] == 3

    def test_grazing_endpoint_touch_counts_zero(self):
        plan = Floorplan(bounds=Bounds(0, 0, 20, 10),
                         obstacles=(PlanarObstacle(10, 5, 10, 10, family=WALL),))
        # Link passes exactly through the obstacle's lower endpoint.
        obs = count_obstructions(plan, Point3(5, 5, 1.5), Point3(15, 5, 1.5))
        assert sum(obs.counts.values()) == 0

    # A wall along y = 0 from x = 0 to 1 has a grazing tolerance of exactly
    # 1e-9 m. A receiver that far past the line, on either side, grazes it; one
    # twice as far crosses it.
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_receiver_at_the_grazing_tolerance_counts_zero(self, side):
        plan = Floorplan(bounds=Bounds(0, -5, 2, 5),
                         obstacles=(PlanarObstacle(0, 0, 1, 0, family=WALL),))
        tx = Point3(0.5, side, 1.5)
        rx = np.array([[0.5, -side * 1e-9, 1.5], [0.5, -side * 2e-9, 1.5]])
        counts, _ = crossing_counts_batch(plan, tx, rx)
        assert counts[WALL].tolist() == [0, 1]
        assert crossing_flags_batch(plan, tx, rx)[:, 0].tolist() == [False, True]

    def test_collinear_counts_zero(self):
        plan = Floorplan(bounds=Bounds(0, 0, 20, 10),
                         obstacles=(PlanarObstacle(8, 5, 12, 5, family=WALL),))
        obs = count_obstructions(plan, Point3(1, 5, 1.5), Point3(19, 5, 1.5))
        assert sum(obs.counts.values()) == 0

    def test_coincident_endpoints_raise(self):
        with pytest.raises(GeometryError):
            count_obstructions(empty_plan(), Point3(1, 1, 1), Point3(1, 1, 1))

    def test_out_of_bounds_raises(self):
        with pytest.raises(GeometryError):
            count_obstructions(empty_plan(), Point3(1, 1, 1), Point3(30, 5, 1))

    def test_doors_counted_separately(self):
        plan = Floorplan(bounds=Bounds(0, 0, 20, 10),
                         obstacles=(PlanarObstacle(10, 0, 10, 4, family=WALL),
                                    PlanarObstacle(10, 4, 10, 5.5, family=DOOR),
                                    PlanarObstacle(10, 5.5, 10, 10, family=WALL)))
        obs = count_obstructions(plan, Point3(5, 4.7, 1.5), Point3(15, 4.9, 1.5))
        assert obs.counts[DOOR] == 1
        assert obs.counts[WALL] == 0


class TestProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            plan = random_plan(rng)
            a, b = random_point(rng, plan), random_point(rng, plan)
            if a == b:
                continue
            assert count_obstructions(plan, a, b) == count_obstructions(plan, b, a)

    def test_additivity_on_collinear_split(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 50:
            plan = random_plan(rng)
            a, b = random_point(rng, plan), random_point(rng, plan)
            if a == b:
                continue
            t = rng.uniform(0.2, 0.8)
            m = Point3(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y),
                       a.z + t * (b.z - a.z))
            whole = count_obstructions(plan, a, b)
            left = count_obstructions(plan, a, m)
            right = count_obstructions(plan, m, b)
            total = {k: left.counts[k] + right.counts[k] for k in whole.counts}
            assert total == whole.counts
            done += 1

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            plan = random_plan(rng)
            for _ in range(20):
                a, b = random_point(rng, plan), random_point(rng, plan)
                if a == b:
                    continue
                got = count_obstructions(plan, a, b)
                want_counts, want_floors = oracle_count_2d(plan, a, b)
                assert got.counts == want_counts
                assert got.floors_crossed == want_floors


class TestLattice:
    @pytest.mark.parametrize("n", [1, 5, 6, 41, 72, 504])
    def test_exact_count_and_containment(self, n):
        bounds = Bounds(0, 0, 42, 12)
        pts = lattice_positions(bounds, n).tolist()
        assert len(pts) == n
        assert len(set(map(tuple, pts))) == n
        for x, y in pts:
            assert bounds.contains(x, y)

    def test_single_point_is_center(self):
        assert lattice_positions(Bounds(0, 0, 10, 4), 1).tolist() == [[5.0, 2.0]]


class TestValidation:
    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            Bounds(0, 0, 0, 10)

    def test_floors_strictly_increasing(self):
        with pytest.raises(ValueError):
            Floorplan(bounds=Bounds(0, 0, 10, 10), floors=(3.0, 3.0))

    def test_obstacle_endpoints_distinct(self):
        with pytest.raises(ValueError):
            PlanarObstacle(1, 1, 1, 1)

    def test_floor_index_checked(self):
        with pytest.raises(ValueError):
            Floorplan(bounds=Bounds(0, 0, 10, 10),
                      obstacles=(PlanarObstacle(1, 1, 2, 2, floor_index=1),))

    def test_point_must_be_finite(self):
        with pytest.raises(ValueError):
            Point3(float("nan"), 0, 0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        plan = Floorplan(
            bounds=Bounds(0, 0, 30, 15), floors=(3.0,),
            obstacles=(PlanarObstacle(1, 1, 5, 1, family=WALL),
                       PlanarObstacle(2, 2, 2, 9, floor_index=1, family=DOOR)))
        path = tmp_path / "plan.json"
        save_floorplan(plan, path)
        assert load_floorplan(path) == plan

    def test_dict_shape_matches_schema(self):
        plan = empty_plan()
        doc = floorplan_to_dict(plan)
        assert set(doc) == {"bounds", "floors", "obstacles"}
        assert set(doc["bounds"]) == {"min_x", "min_y", "max_x", "max_y"}

    def test_malformed_raises_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            load_floorplan(path)
        path.write_text(json.dumps({"bounds": {"min_x": 0}}))
        with pytest.raises(InputError):
            load_floorplan(path)
        path.write_text("[" * 100_000)  # nested deeper than the decoder's recursion limit
        with pytest.raises(InputError, match="not valid JSON"):
            load_floorplan(path)
        path.write_bytes(b'{"bounds": "\xe9"}')
        with pytest.raises(InputError, match="not valid JSON"):
            load_floorplan(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_floorplan(tmp_path / "absent.json")

    @pytest.mark.parametrize("edit, error, message", [
        (lambda doc: doc["bounds"].update(min_x=False), TypeError, "got false"),
        (lambda doc: doc["obstacles"][0].update(x1=True), TypeError, "got true"),
        (lambda doc: doc["obstacles"][0].update(floor=True), TypeError, "got true"),
        (lambda doc: doc["obstacles"][0].update(floor=0.5), ValueError, "integer, got 0.5"),
        (lambda doc: doc["obstacles"][0].update(type_index=True), TypeError, "got true"),
        (lambda doc: doc.update(floors=[False]), TypeError, "got false"),
    ], ids=["bounds", "end", "floor", "fractional-floor", "type-index", "floor-plane"])
    def test_from_dict_rejects_booleans_and_fractional_indices(self, edit, error, message):
        doc = {"bounds": {"min_x": 0, "min_y": 0, "max_x": 5, "max_y": 5},
               "obstacles": [{"x1": 1, "y1": 0, "x2": 1, "y2": 5, "family": "wall"}]}
        assert floorplan_from_dict(doc).obstacles[0].x1 == 1.0
        edit(doc)
        with pytest.raises(error, match=message):
            floorplan_from_dict(doc)

    def test_from_dict_defaults(self):
        plan = floorplan_from_dict(
            {"bounds": {"min_x": 0, "min_y": 0, "max_x": 5, "max_y": 5}})
        assert plan.area == 25.0
        assert plan.obstacles == ()
