import hashlib
import json
import re

import numpy as np
import pytest

import radioloc.radiomap as radiomap
from radioloc.errors import InputError
from radioloc.fitting import FitStrategy, MeasurementRecord, fit
from radioloc.floorplan import Bounds, Floorplan, Point3
from radioloc.propagation import AccessPoint, ModelKind, PropagationParams, predict_rss
from radioloc.radiomap import (
    MAX_VIRTUAL_RPS,
    NOT_DETECTED_DBM,
    Fingerprint,
    Radiomap,
    RpArrays,
    build_real_fingerprints,
    ceil_scaled,
    generate_virtual_fingerprints,
    lanes_path,
    load_radiomap,
    radiomap_from_dict,
    place_virtual_rps,
    save_radiomap,
    select_rps,
    virtual_rp_count,
)

from helpers import measurement_set, survey_points, tiny_world


def rps_at(*points, rss=(-50.0,), virtual=False):
    """RpArrays of points (x, y) at 1.2 m, each with fingerprint ``rss``."""
    return RpArrays([(x, y, 1.2) for x, y in points], [list(rss)] * len(points),
                    [virtual] * len(points))


class TestBuildRealFingerprints:
    def test_mean_of_detected_scans(self):
        p = Point3(1, 1, 1.2)
        meas = measurement_set([
            MeasurementRecord("rp0", p, "ap01", -50.0, 0),
            MeasurementRecord("rp0", p, "ap01", -52.0, 1),
        ])
        aps = [AccessPoint("ap01", Point3(5, 5, 2.8))]
        rps = build_real_fingerprints(meas, aps)
        assert rps.rss[0, 0] == pytest.approx(-51.0)
        assert rps.virtual.tolist() == [False]

    def test_never_detected_gets_sentinel(self):
        p = Point3(1, 1, 1.2)
        meas = measurement_set([
            MeasurementRecord("rp0", p, "ap01", -50.0, 0),
            MeasurementRecord("rp0", p, "ap02", None, 0),
        ])
        aps = [AccessPoint("ap01", Point3(5, 5, 2.8)),
               AccessPoint("ap02", Point3(9, 5, 2.8))]
        rps = build_real_fingerprints(meas, aps)
        assert rps.rss[0, 1] == NOT_DETECTED_DBM

    def test_identical_scans_average_exactly(self):
        p = Point3(1, 1, 1.2)
        meas = measurement_set([
            MeasurementRecord("rp0", p, "ap01", -63.25, s) for s in range(50)
        ])
        aps = [AccessPoint("ap01", Point3(5, 5, 2.8))]
        rps = build_real_fingerprints(meas, aps)
        assert rps.rss[0, 0] == -63.25


class TestSelectRps:
    def grid_rps(self, n):
        from radioloc.floorplan import lattice_positions

        return rps_at(*lattice_positions(Bounds(0, 0, 42, 12), n))

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
            chosen = set(map(tuple, select_rps(rps, rho).pos.tolist()))
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
        xs = chosen.pos[:, 0]
        assert xs.max() - xs.min() > 30.0


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
        assert a.shape == (ceil_scaled(0.1 * 42 * 12), 3)
        np.testing.assert_array_equal(a, b)
        c = place_virtual_rps(self.plan(), 0.1, placement="random", seed=43)
        assert not np.array_equal(a, c)

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            place_virtual_rps(self.plan(), 0.1, placement="random")

    def test_zero_density_rejected(self):
        with pytest.raises(ValueError):
            place_virtual_rps(self.plan(), 0.0)

    def test_count_is_capped_before_placement(self):
        # Counted only: a placement of the rejected sizes is never allocated.
        assert virtual_rp_count(MAX_VIRTUAL_RPS / 100.0, 100.0) == MAX_VIRTUAL_RPS
        assert virtual_rp_count((MAX_VIRTUAL_RPS + 1e-10) / 100.0, 100.0) == MAX_VIRTUAL_RPS
        for dv, area in ((MAX_VIRTUAL_RPS / 100.0 + 0.01, 100.0), (1e300, 504.0),
                         (1e308, 504.0), (1e7, 504.0)):  # 1e308 * 504 overflows to inf
            with pytest.raises(ValueError, match="more than 1,000,000 virtual RPs"):
                virtual_rp_count(dv, area)
        with pytest.raises(ValueError, match="more than 1,000,000 virtual RPs"):
            place_virtual_rps(self.plan(), 1e300)

    @pytest.mark.parametrize("dv", [0.05, 0.1, 1.0, 10.0])
    def test_grid_spacing_uniformity(self, dv):
        pts = place_virtual_rps(self.plan(), dv)
        xy = pts[:, :2]
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
            for x, y, z in place_virtual_rps(plan, 0.5, placement, seed=seed).tolist():
                assert plan.bounds.contains(x, y) and z == 1.2


class TestGenerateVirtualFingerprints:
    def fitted(self):
        plan, aps, truth = tiny_world()
        records = []
        for idx, p in enumerate(survey_points()):
            for ap in aps:
                value = predict_rss(ModelKind.MWMF, truth, plan, ap, p)
                records.append(MeasurementRecord(f"rp{idx:03d}", p, ap.id, value, 0))
        meas = measurement_set(records)
        result = fit(FitStrategy.environment(), ModelKind.MWMF, plan, aps, meas)
        return plan, aps, truth, meas, result

    def test_virtual_matches_real_at_same_position(self):
        plan, aps, truth, meas, result = self.fitted()
        real = build_real_fingerprints(meas, aps)
        virtual = generate_virtual_fingerprints(result, ModelKind.MWMF, plan, aps,
                                                real.pos)
        assert virtual.virtual.all()
        np.testing.assert_array_equal(virtual.pos, real.pos)
        np.testing.assert_allclose(virtual.rss, real.rss, atol=1e-6)

    def test_below_floor_becomes_sentinel(self):
        plan, aps, truth, meas, result = self.fitted()
        virtual = generate_virtual_fingerprints(
            result, ModelKind.MWMF, plan, aps, [Point3(18.5, 9.5, 1.2)],
            detection_floor_dbm=0.0)  # floor above every value
        assert virtual.rss.shape == (1, len(aps))
        assert np.all(virtual.rss == NOT_DETECTED_DBM)

    def test_los_rss_decreases_with_distance(self):
        plan = Floorplan(bounds=Bounds(0, 0, 40, 10))
        ap = AccessPoint("a", Point3(1, 5, 2.8))
        truth = PropagationParams(gamma=2.5)
        records = [MeasurementRecord(f"rp{i}", Point3(2 + 3 * i, 5, 1.2), "a",
                                     predict_rss(ModelKind.ONE_SLOPE, truth, plan,
                                                 ap, Point3(2 + 3 * i, 5, 1.2)), 0)
                   for i in range(10)]
        result = fit(FitStrategy.environment(), ModelKind.ONE_SLOPE, plan, [ap],
                     measurement_set(records))
        positions = [Point3(2 + 2 * i, 5, 1.2) for i in range(15)]
        virtual = generate_virtual_fingerprints(result, ModelKind.ONE_SLOPE, plan,
                                                [ap], positions)
        values = virtual.rss[:, 0].tolist()
        assert all(b < a for a, b in zip(values, values[1:]))


class TestRadiomap:
    def test_density_bookkeeping(self):
        aps = [AccessPoint("a", Point3(1, 1, 2.8))]
        rps = rps_at((1, 1), (2, 2)) + rps_at((3, 3), virtual=True)
        rmap = Radiomap(aps, rps, area_m2=50.0)
        assert rmap.n_real == 2 and rmap.n_virtual == 1
        assert rmap.d_real == 2 / 50.0
        assert rmap.d_virtual == 1 / 50.0

    def test_fingerprint_length_checked(self):
        aps = [AccessPoint("a", Point3(1, 1, 2.8)),
               AccessPoint("b", Point3(2, 1, 2.8))]
        with pytest.raises(ValueError):
            Radiomap(aps, rps_at((1, 1), rss=(-50.0,)))

    @pytest.mark.parametrize("area", [0.0, -1.0, float("nan"), float("inf")])
    def test_area_must_be_positive_and_finite(self, area):
        with pytest.raises(ValueError, match="area must be positive and finite"):
            Radiomap([AccessPoint("a", Point3(1, 1, 2.8))], rps_at((1, 1)), area_m2=area)

    @pytest.mark.parametrize("sentinel", [0.5, -120.5, 50.0, float("nan"), float("inf")])
    def test_sentinel_must_lie_in_the_fingerprint_range(self, sentinel):
        with pytest.raises(ValueError, match="sentinel must lie within"):
            Radiomap([AccessPoint("a", Point3(1, 1, 2.8))], rps_at((1, 1)),
                     sentinel_dbm=sentinel)

    def test_density_needs_area(self):
        rmap = Radiomap([AccessPoint("a", Point3(1, 1, 2.8))], rps_at((1, 1)))
        with pytest.raises(ValueError):
            _ = rmap.d_real

    def test_json_round_trip_with_nd(self, tmp_path):
        import json

        aps = [AccessPoint("a", Point3(1, 1, 2.8)),
               AccessPoint("b", Point3(5, 1, 2.8))]
        rps = (rps_at((1, 1), rss=(-50.0, NOT_DETECTED_DBM))
               + rps_at((2, 2), rss=(-60.5, -70.25), virtual=True))
        rmap = Radiomap(aps, rps, area_m2=42.0)
        path = tmp_path / "map.json"
        save_radiomap(rmap, path)
        doc = json.loads(path.read_text())
        assert doc["rps"][0]["rss"][1] is None  # ND serialized as null
        assert set(doc) == {"aps", "sentinel_dbm", "rps", "area_m2"}
        loaded = load_radiomap(path)
        assert loaded.aps == rmap.aps
        assert loaded.area_m2 == 42.0
        assert loaded.rps == rmap.rps

    def test_matrices_are_stored_read_only_arrays(self):
        aps = [AccessPoint("a", Point3(1, 1, 2.8))]
        rmap = Radiomap(aps, rps_at((1, 1)) + rps_at((2, 2), virtual=True))
        rss = rmap.rss_matrix()
        assert rmap.rss_matrix() is rss
        assert rmap.positions_matrix() is rmap.positions_matrix()
        for array in (rss, rmap.positions_matrix()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = -1.0
        assert rss.tolist() == [[-50.0], [-50.0]]
        assert rss is rmap.rps.rss  # the stored array, not a copy

    def test_fingerprint_validation(self):
        with pytest.raises(ValueError):
            Fingerprint([-130.0])
        with pytest.raises(ValueError):
            Fingerprint([1.0])
        with pytest.raises(ValueError):
            Fingerprint([[1.0, 2.0]])


class TestRpArrays:
    def test_concatenation_checks_lengths_when_one_side_is_empty(self):
        four = rps_at((1, 1), (2, 2), rss=(-50.0, -60.0, -70.0, -80.0))
        for left, right in ((RpArrays.empty(3), four), (four, RpArrays.empty(3)),
                            (rps_at((3, 3), rss=(-50.0, -60.0, -70.0)), four)):
            with pytest.raises(ValueError, match="fingerprint lengths differ"):
                left + right
        assert RpArrays.empty(4) + four is four
        assert four + RpArrays.empty(4) is four

    def test_index_selects_rows(self):
        rps = rps_at((1, 1), (2, 2)) + rps_at((3, 3), virtual=True)
        assert rps[[2, 0]] == rps_at((3, 3), virtual=True) + rps_at((1, 1))
        assert rps[1:] == rps_at((2, 2)) + rps_at((3, 3), virtual=True)
        with pytest.raises(TypeError):
            rps[0]


def assert_ap_lanes(rps):
    """``rps.rss`` is read-only and stored AP-major: its transpose is one
    contiguous lane per AP."""
    assert not rps.rss.flags.writeable
    assert rps.rss.T.flags.c_contiguous


class TestApLanes:
    def test_every_construction_path_stores_lanes(self):
        values = np.arange(-90.0, -66.0).reshape(8, 3)
        pos = np.arange(24.0).reshape(8, 3)
        wide = np.zeros((16, 6))
        wide[::2, ::2] = values
        for rss in (values.tolist(), values, np.asfortranarray(values), wide[::2, ::2]):
            rps = RpArrays(pos, rss, [False] * 8)
            assert_ap_lanes(rps)
            assert rps.rss.tolist() == values.tolist()
        for part in (rps[[5, 0, 5]], rps[2:7], rps[::3], rps[:0], rps + rps[1:3],
                     rps[:4] + rps[4:], RpArrays.empty(3)):
            assert_ap_lanes(part)
        assert (rps[[5, 0, 5]] + rps[::3]).rss.tolist() == (
            values[[5, 0, 5]].tolist() + values[::3].tolist())

    def test_builders_and_loader_store_lanes(self, tmp_path):
        plan, aps, truth, meas, result = TestGenerateVirtualFingerprints().fitted()
        real = build_real_fingerprints(meas, aps)
        virtual = generate_virtual_fingerprints(result, ModelKind.MWMF, plan, aps, real.pos)
        path = tmp_path / "map.json"
        save_radiomap(Radiomap(aps, real + virtual), path)
        loaded = load_radiomap(path)
        for rps in (real, virtual, loaded.rps):
            assert_ap_lanes(rps)

    def test_loader_rejects_rows_of_the_wrong_length(self):
        doc = {"aps": [{"id": "a", "x": 1, "y": 1, "z": 2.8},
                       {"id": "b", "x": 5, "y": 1, "z": 2.8}],
               "rps": [{"x": 0, "y": 0, "z": 1.2, "rss": [-50.0, None]},
                       {"x": 1, "y": 0, "z": 1.2, "rss": [-50.0, None]}]}
        assert radiomap_from_dict(doc).rss_matrix().tolist() == [[-50.0, NOT_DETECTED_DBM]] * 2
        for rows in ([[-50.0]] * 2, [[-50.0], [-50.0, -60.0, -70.0]],
                     [[-50.0, -60.0, -70.0]] * 2):
            bad = {**doc, "rps": [{**item, "rss": row} for item, row in zip(doc["rps"], rows)]}
            with pytest.raises(ValueError, match="must equal the number of APs"):
                radiomap_from_dict(bad)


    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["rps"][0].update(rss=[False, False]), "got false"),
        (lambda doc: doc["rps"][1].update(x=True), "got true"),
        (lambda doc: doc.update(area_m2=True), "got true"),
        (lambda doc: doc.update(sentinel_dbm=False), "got false"),
        # Strings that float() would parse are not numbers either.
        (lambda doc: doc["rps"][0].update(rss=["-50.5", -1.0]), 'got "-50.5"'),
        (lambda doc: doc["rps"][1].update(rss=[-50.0, "1"]), 'got "1"'),
        (lambda doc: doc["rps"][1].update(z="1.2"), 'got "1.2"'),
        (lambda doc: doc.update(area_m2="1"), 'got "1"'),
        (lambda doc: doc.update(sentinel_dbm="-100"), 'got "-100"'),
    ], ids=["rss", "position", "area", "sentinel", "rss-string", "rss-string-one",
            "position-string", "area-string", "sentinel-string"])
    def test_loader_rejects_booleans(self, edit, message):
        doc = {"aps": [{"id": "a", "x": 1, "y": 1, "z": 2.8},
                       {"id": "b", "x": 5, "y": 1, "z": 2.8}],
               "rps": [{"x": 0, "y": 0, "z": 1.2, "rss": [0, -1.0]},
                       {"x": 1, "y": 0, "z": 1, "rss": [-50.0, None]}],
               "area_m2": 1}
        rmap = radiomap_from_dict(doc)  # zeros and ones as numbers are numbers
        assert rmap.rss_matrix().tolist() == [[0.0, -1.0], [-50.0, NOT_DETECTED_DBM]]
        assert rmap.positions_matrix().tolist() == [[0.0, 0.0, 1.2], [1.0, 0.0, 1.0]]
        edit(doc)
        with pytest.raises(TypeError, match=f"expected a number, {message}"):
            radiomap_from_dict(doc)


class TestCeilScaled:
    def test_float_fuzz_does_not_spill(self):
        assert ceil_scaled(0.2 * 15) == 3
        assert ceil_scaled(0.05 * 520) == 26
        assert ceil_scaled(0.1 * 72) == 8
        assert ceil_scaled(25.95) == 26

    def test_positive_product_keeps_one_point(self):
        # Rounding to 9 decimals takes a product below 5e-10 to 0.
        assert ceil_scaled(4e-10) == 1
        assert ceil_scaled(1e-12 * 72) == 1
        assert len(select_rps(RpArrays(np.zeros((3, 3)), np.full((3, 1), -50.0),
                                       np.zeros(3, dtype=bool)), 1e-12)) == 1


def two_maps():
    """Two radiomaps of one AP list whose files differ."""
    aps = [AccessPoint("a", Point3(1, 1, 2.8)), AccessPoint("b", Point3(5, 1, 2.8))]
    first = Radiomap(aps, rps_at((1, 1), (2, 2), rss=(-50.0, NOT_DETECTED_DBM))
                     + rps_at((3, 3), rss=(-0.0, -70.25), virtual=True), area_m2=42.0)
    second = Radiomap(aps, rps_at((4, 1), rss=(-61.0, -62.5), virtual=True))
    return first, second


def parsed(path):
    return radiomap_from_dict(json.loads(path.read_text()))


def same_map(a, b):
    return (a.rps == b.rps and a.aps == b.aps and a.area_m2 == b.area_m2
            and a.sentinel_dbm == b.sentinel_dbm)


class TestLanesFile:
    """``load_radiomap`` reads the lanes file beside the radiomap file only when it
    was written with the radiomap file's bytes and its arrays are the ones it was
    written with; otherwise it parses the JSON."""

    @pytest.fixture
    def counted_parses(self, monkeypatch):
        calls = []

        def counting(doc):
            calls.append(None)
            return radiomap_from_dict(doc)

        monkeypatch.setattr(radiomap, "radiomap_from_dict", counting)
        return calls

    def test_save_writes_the_lanes_file_beside_the_map(self, tmp_path, counted_parses):
        rmap, _ = two_maps()
        path = tmp_path / "map.json"
        save_radiomap(rmap, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["map.json", "map.json.lanes"]
        header = lanes_path(path).read_bytes().split(b"\n", 1)[0]
        assert list(json.loads(header)) == [
            "format", "sha256", "arrays_sha256", "n", "aps", "sentinel_dbm", "area_m2"]
        assert json.loads(header)["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        arrays = lanes_path(path).read_bytes()[len(header) + 1:]
        assert json.loads(header)["arrays_sha256"] == hashlib.sha256(arrays).hexdigest()
        assert same_map(load_radiomap(path), parsed(path))
        assert counted_parses == []

    def test_stale_lanes_file_reads_the_json(self, tmp_path, counted_parses):
        first, second = two_maps()
        path = tmp_path / "map.json"
        save_radiomap(first, path)
        stale = lanes_path(path).read_bytes()
        save_radiomap(second, path)
        lanes_path(path).write_bytes(stale)
        loaded = load_radiomap(path)
        assert same_map(loaded, parsed(path)) and same_map(loaded, second)
        assert len(counted_parses) == 1

    @pytest.mark.parametrize("damage", [
        lambda data: data[:-1],
        lambda data: data + b"\0",
        lambda data: b"garbage\n" + data.split(b"\n", 1)[1],
        lambda data: data.replace(b'"n": 3', b'"n": 2', 1),
        lambda data: data.replace(b'"format": "radioloc-lanes/1"', b'"format": "x"', 1),
        lambda data: data.split(b"\n", 1)[1],
        lambda data: b"",
    ], ids=["truncated", "longer", "garbage-header", "wrong-count", "wrong-format",
            "no-header", "empty"])
    def test_malformed_lanes_file_reads_the_json(self, tmp_path, counted_parses, damage):
        rmap, _ = two_maps()
        path = tmp_path / "map.json"
        save_radiomap(rmap, path)
        lanes_path(path).write_bytes(damage(lanes_path(path).read_bytes()))
        assert same_map(load_radiomap(path), parsed(path))
        assert len(counted_parses) == 1

    def test_missing_lanes_file_reads_the_json(self, tmp_path, counted_parses):
        rmap, _ = two_maps()
        path = tmp_path / "map.json"
        save_radiomap(rmap, path)
        lanes_path(path).unlink()
        assert same_map(load_radiomap(path), parsed(path))
        assert len(counted_parses) == 1

    @pytest.mark.parametrize("value, offset", [
        (5.0, 24 * 3),  # the first RSS entry, above 0 dBm
        (float("nan"), 0),  # the first coordinate
    ])
    def test_lanes_values_are_checked_like_the_json(self, tmp_path, counted_parses,
                                                     value, offset):
        rmap, _ = two_maps()
        path = tmp_path / "map.json"
        save_radiomap(rmap, path)
        data = bytearray(lanes_path(path).read_bytes())
        start = data.index(b"\n") + 1 + offset
        data[start:start + 8] = np.float64(value).tobytes()
        lanes_path(path).write_bytes(bytes(data))
        assert same_map(load_radiomap(path), rmap)
        assert len(counted_parses) == 1

    @pytest.mark.parametrize("offset", [
        24 * 3,  # the first RSS entry
        0,  # the first coordinate
    ])
    def test_edited_in_range_value_reads_the_json(self, tmp_path, counted_parses, offset):
        rmap, _ = two_maps()
        path = tmp_path / "map.json"
        save_radiomap(rmap, path)
        data = bytearray(lanes_path(path).read_bytes())
        start = data.index(b"\n") + 1 + offset
        value = np.frombuffer(data, "<f8", 1, start)[0]
        data[start:start + 8] = np.float64(value - 1.0).tobytes()
        lanes_path(path).write_bytes(bytes(data))
        assert same_map(load_radiomap(path), rmap)
        assert len(counted_parses) == 1

    def test_flags_other_than_0_and_1_read_the_json(self, tmp_path, counted_parses):
        rmap, _ = two_maps()
        path = tmp_path / "map.json"
        save_radiomap(rmap, path)
        data = lanes_path(path).read_bytes()
        lanes_path(path).write_bytes(data[:-1] + b"\x02")
        assert same_map(load_radiomap(path), rmap)
        assert len(counted_parses) == 1

    def test_out_of_range_sentinel_names_the_map_on_both_paths(self, tmp_path):
        path = tmp_path / "map.json"
        aps = [{"id": "a", "x": 1.0, "y": 1.0, "z": 2.8, "eirp_dbm": 20.0}]
        data = json.dumps({"aps": aps, "sentinel_dbm": 50.0, "rps": []}).encode()
        path.write_bytes(data)
        message = re.escape(f"malformed radiomap file {path}: sentinel must lie within")
        with pytest.raises(InputError, match=message):
            load_radiomap(path)
        header = {"format": radiomap.LANES_FORMAT, "sha256": hashlib.sha256(data).hexdigest(),
                  "arrays_sha256": hashlib.sha256(b"").hexdigest(),
                  "n": 0, "aps": aps, "sentinel_dbm": 50.0, "area_m2": None}
        lanes_path(path).write_bytes(json.dumps(header).encode() + b"\n")
        with pytest.raises(InputError, match=message):
            load_radiomap(path)
