import numpy as np
import pytest

from radioloc.fitting import FitStrategy, MeasurementRecord, MeasurementSet, fit
from radioloc.floorplan import Bounds, Floorplan, Point3
from radioloc.propagation import AccessPoint, ModelKind, PropagationParams, predict_rss
from radioloc.radiomap import (
    NOT_DETECTED_DBM,
    Fingerprint,
    Radiomap,
    ReferencePoint,
    RpKind,
    build_real_fingerprints,
    ceil_scaled,
    generate_virtual_fingerprints,
    load_radiomap,
    place_virtual_rps,
    save_radiomap,
    select_rps,
)

from helpers import survey_points, tiny_world


def rp_at(x, y, rss=(-50.0,), kind=RpKind.REAL):
    return ReferencePoint(Point3(x, y, 1.2), Fingerprint(list(rss)), kind)


class TestBuildRealFingerprints:
    def test_mean_of_detected_scans(self):
        p = Point3(1, 1, 1.2)
        meas = MeasurementSet([
            MeasurementRecord("rp0", p, "ap01", -50.0, 0),
            MeasurementRecord("rp0", p, "ap01", -52.0, 1),
        ])
        aps = [AccessPoint("ap01", Point3(5, 5, 2.8))]
        rps = build_real_fingerprints(meas, aps)
        assert rps[0].fingerprint.rss[0] == pytest.approx(-51.0)
        assert rps[0].kind is RpKind.REAL

    def test_never_detected_gets_sentinel(self):
        p = Point3(1, 1, 1.2)
        meas = MeasurementSet([
            MeasurementRecord("rp0", p, "ap01", -50.0, 0),
            MeasurementRecord("rp0", p, "ap02", None, 0),
        ])
        aps = [AccessPoint("ap01", Point3(5, 5, 2.8)),
               AccessPoint("ap02", Point3(9, 5, 2.8))]
        rps = build_real_fingerprints(meas, aps)
        assert rps[0].fingerprint.rss[1] == NOT_DETECTED_DBM

    def test_identical_scans_average_exactly(self):
        p = Point3(1, 1, 1.2)
        meas = MeasurementSet([
            MeasurementRecord("rp0", p, "ap01", -63.25, s) for s in range(50)
        ])
        aps = [AccessPoint("ap01", Point3(5, 5, 2.8))]
        rps = build_real_fingerprints(meas, aps)
        assert rps[0].fingerprint.rss[0] == -63.25


class TestSelectRps:
    def grid_rps(self, n):
        from radioloc.floorplan import lattice_positions

        pts = lattice_positions(Bounds(0, 0, 42, 12), n)
        return [rp_at(x, y) for x, y in pts]

    def test_rho_one_keeps_all(self):
        rps = self.grid_rps(30)
        assert select_rps(rps, 1.0) == rps[:0] + select_rps(rps, 1.0)
        assert len(select_rps(rps, 1.0)) == 30

    def test_published_counts(self):
        assert len(select_rps(self.grid_rps(72), 0.1)) == 8
        assert len(select_rps(self.grid_rps(41), 0.2)) == 9

    def test_nested_across_grid(self):
        # Grid positions are distinct, so they identify the selected points.
        rps = self.grid_rps(72)
        previous = set()
        for rho in (0.1, 0.2, 0.5, 1.0):
            chosen = {rp.position for rp in select_rps(rps, rho)}
            assert previous <= chosen
            previous = chosen
        assert len(previous) == 72

    def test_rho_out_of_range(self):
        rps = self.grid_rps(10)
        for rho in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                select_rps(rps, rho)

    def test_selection_spreads_out(self):
        # Farthest-point decimation should cover the area, not cluster.
        rps = self.grid_rps(72)
        chosen = select_rps(rps, 0.1)
        xs = [rp.position.x for rp in chosen]
        assert max(xs) - min(xs) > 30.0


class TestPlaceVirtualRps:
    def plan(self, w=42.0, h=12.0):
        return Floorplan(bounds=Bounds(0, 0, w, h))

    def test_counts_match_published_values(self):
        assert len(place_virtual_rps(self.plan(42, 12), 1.0)) == 504
        assert len(place_virtual_rps(self.plan(30, 15), 0.01)) == 5
        # Fractional products round up, matching the published N_v tables.
        assert len(place_virtual_rps(self.plan(42, 12), 0.01)) == 6
        assert len(place_virtual_rps(self.plan(42, 12), 0.05)) == 26

    def test_random_placement_deterministic(self):
        a = place_virtual_rps(self.plan(), 0.1, placement="random", seed=42)
        b = place_virtual_rps(self.plan(), 0.1, placement="random", seed=42)
        assert a == b
        c = place_virtual_rps(self.plan(), 0.1, placement="random", seed=43)
        assert a != c

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            place_virtual_rps(self.plan(), 0.1, placement="random")

    def test_zero_density_rejected(self):
        with pytest.raises(ValueError):
            place_virtual_rps(self.plan(), 0.0)

    @pytest.mark.parametrize("dv", [0.05, 0.1, 1.0, 10.0])
    def test_grid_spacing_uniformity(self, dv):
        pts = place_virtual_rps(self.plan(), dv)
        xy = np.array([[p.x, p.y] for p in pts])
        if len(pts) < 2:
            return
        bound = 2.0 * np.sqrt(1.0 / dv)
        for i in range(len(pts)):
            d = np.linalg.norm(xy - xy[i], axis=1)
            d[i] = np.inf
            assert d.min() <= bound

    def test_points_inside_bounds(self):
        plan = self.plan()
        for placement, seed in (("grid", None), ("random", 3)):
            for p in place_virtual_rps(plan, 0.5, placement, seed=seed):
                assert plan.bounds.contains(p.x, p.y)


class TestGenerateVirtualFingerprints:
    def fitted(self):
        plan, aps, truth = tiny_world()
        records = []
        for idx, p in enumerate(survey_points()):
            for ap in aps:
                value = predict_rss(ModelKind.MWMF, truth, plan, ap, p)
                records.append(MeasurementRecord(f"rp{idx:03d}", p, ap.id, value, 0))
        meas = MeasurementSet(records)
        result = fit(FitStrategy.environment(), ModelKind.MWMF, plan, aps, meas)
        return plan, aps, truth, meas, result

    def test_virtual_matches_real_at_same_position(self):
        plan, aps, truth, meas, result = self.fitted()
        real = build_real_fingerprints(meas, aps)
        positions = [rp.position for rp in real]
        virtual = generate_virtual_fingerprints(result, ModelKind.MWMF, plan, aps,
                                                positions)
        for r, v in zip(real, virtual):
            assert v.kind is RpKind.VIRTUAL
            np.testing.assert_allclose(v.fingerprint.rss, r.fingerprint.rss,
                                       atol=1e-6)

    def test_below_floor_becomes_sentinel(self):
        plan, aps, truth, meas, result = self.fitted()
        virtual = generate_virtual_fingerprints(
            result, ModelKind.MWMF, plan, aps, [Point3(18.5, 9.5, 1.2)],
            detection_floor_dbm=0.0)  # floor above every value
        assert np.all(virtual[0].fingerprint.rss == NOT_DETECTED_DBM)

    def test_los_rss_decreases_with_distance(self):
        plan = Floorplan(bounds=Bounds(0, 0, 40, 10))
        ap = AccessPoint("a", Point3(1, 5, 2.8))
        truth = PropagationParams(gamma=2.5)
        records = [MeasurementRecord(f"rp{i}", Point3(2 + 3 * i, 5, 1.2), "a",
                                     predict_rss(ModelKind.ONE_SLOPE, truth, plan,
                                                 ap, Point3(2 + 3 * i, 5, 1.2)), 0)
                   for i in range(10)]
        result = fit(FitStrategy.environment(), ModelKind.ONE_SLOPE, plan, [ap],
                     MeasurementSet(records))
        positions = [Point3(2 + 2 * i, 5, 1.2) for i in range(15)]
        virtual = generate_virtual_fingerprints(result, ModelKind.ONE_SLOPE, plan,
                                                [ap], positions)
        values = [v.fingerprint.rss[0] for v in virtual]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestRadiomap:
    def test_density_bookkeeping(self):
        aps = [AccessPoint("a", Point3(1, 1, 2.8))]
        rps = [rp_at(1, 1), rp_at(2, 2),
               rp_at(3, 3, kind=RpKind.VIRTUAL)]
        rmap = Radiomap(aps, rps, area_m2=50.0)
        assert rmap.n_real == 2 and rmap.n_virtual == 1
        assert rmap.d_real == 2 / 50.0
        assert rmap.d_virtual == 1 / 50.0

    def test_fingerprint_length_checked(self):
        aps = [AccessPoint("a", Point3(1, 1, 2.8)),
               AccessPoint("b", Point3(2, 1, 2.8))]
        with pytest.raises(ValueError):
            Radiomap(aps, [rp_at(1, 1, rss=(-50.0,))])

    def test_density_needs_area(self):
        rmap = Radiomap([AccessPoint("a", Point3(1, 1, 2.8))], [rp_at(1, 1)])
        with pytest.raises(ValueError):
            _ = rmap.d_real

    def test_json_round_trip_with_nd(self, tmp_path):
        import json

        aps = [AccessPoint("a", Point3(1, 1, 2.8)),
               AccessPoint("b", Point3(5, 1, 2.8))]
        rps = [rp_at(1, 1, rss=(-50.0, NOT_DETECTED_DBM)),
               rp_at(2, 2, rss=(-60.5, -70.25), kind=RpKind.VIRTUAL)]
        rmap = Radiomap(aps, rps, area_m2=42.0)
        path = tmp_path / "map.json"
        save_radiomap(rmap, path)
        doc = json.loads(path.read_text())
        assert doc["rps"][0]["rss"][1] is None  # ND serialized as null
        assert set(doc) == {"aps", "sentinel_dbm", "rps", "area_m2"}
        loaded = load_radiomap(path)
        assert loaded.aps == rmap.aps
        assert loaded.area_m2 == 42.0
        for a, b in zip(loaded.rps, rmap.rps):
            assert a.kind == b.kind and a.position == b.position
            assert a.fingerprint == b.fingerprint

    def test_matrices_are_stored_read_only_arrays(self):
        aps = [AccessPoint("a", Point3(1, 1, 2.8))]
        rmap = Radiomap(aps, [rp_at(1, 1), rp_at(2, 2, kind=RpKind.VIRTUAL)])
        rss = rmap.rss_matrix()
        assert rmap.rss_matrix() is rss
        assert rmap.positions_matrix() is rmap.positions_matrix()
        for array in (rss, rmap.positions_matrix()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = -1.0
        assert rss.tolist() == [[-50.0], [-50.0]]
        assert rmap.rps[1].fingerprint.rss.base is not None  # a view, not a copy

    def test_fingerprint_validation(self):
        with pytest.raises(ValueError):
            Fingerprint([-130.0])
        with pytest.raises(ValueError):
            Fingerprint([1.0])
        with pytest.raises(ValueError):
            Fingerprint([[1.0, 2.0]])


class TestCeilScaled:
    def test_float_fuzz_does_not_spill(self):
        assert ceil_scaled(0.2 * 15) == 3
        assert ceil_scaled(0.05 * 520) == 26
        assert ceil_scaled(0.1 * 72) == 8
        assert ceil_scaled(25.95) == 26
