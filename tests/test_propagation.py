import json

import numpy as np
import pytest

from radioloc.errors import GeometryError, InputError
from radioloc.ioutil import write_json
from radioloc.floorplan import (
    Bounds,
    Floorplan,
    ObstacleFamily,
    PlanarObstacle,
    Point3,
    count_obstructions,
)
from radioloc.propagation import (
    AccessPoint,
    LinkTable,
    ModelKind,
    PropagationParams,
    aps_from_list,
    load_access_points,
    load_params,
    params_from_dict,
    params_to_dict,
    predict_rss,
    predict_rss_many,
    save_access_points,
)

from helpers import count_crossing_calls, reference_predict_rss

WALL = ObstacleFamily.WALL
DOOR = ObstacleFamily.DOOR


def link_loss(model, params, plan, tx, rx):
    """Path loss of the tx-rx link in dB: a 0 dBm transmitter's predicted RSS, negated."""
    return -predict_rss(model, params, plan, AccessPoint("tx", tx, eirp_dbm=0.0), rx)


def one_slope_losses(params, distances):
    """One-slope path losses at the given distances from a transmitter at the origin."""
    ap = AccessPoint("ap", Point3(0.0, 0.0, 0.0), eirp_dbm=0.0)
    positions = np.column_stack([distances, np.zeros(len(distances)), np.zeros(len(distances))])
    return -LinkTable(Floorplan(bounds=Bounds(-1, -1, 100, 1)), ap,
                      positions).predict_rss(ModelKind.ONE_SLOPE, params)


class TestPathLossOs:
    def test_reference_distance(self):
        params = PropagationParams(gamma=2.0, l0_db=40.22)
        assert one_slope_losses(params, [1.0])[0] == pytest.approx(40.22)

    def test_one_decade(self):
        params = PropagationParams(gamma=2.0, l0_db=40.22)
        assert one_slope_losses(params, [10.0])[0] == pytest.approx(60.22)

    def test_two_decades_gamma3(self):
        params = PropagationParams(gamma=3.0, l0_db=40.0)
        assert one_slope_losses(params, [100.0])[0] == pytest.approx(100.0)

    def test_nonpositive_distance_rejected(self):
        params = PropagationParams()
        for distances in ([0.0], [3.0, 0.0, 5.0]):
            with pytest.raises(GeometryError, match="coincides with AP 'ap'"):
                one_slope_losses(params, distances)
        plan = Floorplan(bounds=Bounds(0, 0, 10, 10))
        with pytest.raises(ValueError):
            link_loss(ModelKind.ONE_SLOPE, params, plan, Point3(1, 1, 1), Point3(1, 1, 1))

    def test_strictly_increasing_in_distance(self):
        params = PropagationParams(gamma=2.4)
        losses = one_slope_losses(params, np.linspace(0.5, 60.0, 200))
        assert np.all(np.diff(losses) > 0)


def extra_loss(params, plan, tx, rx):
    """The multi-wall model's loss on top of the one-slope loss for one link, in dB."""
    return (link_loss(ModelKind.MWMF, params, plan, tx, rx)
            - link_loss(ModelKind.ONE_SLOPE, params, plan, tx, rx))


class TestAdditionalLoss:
    def test_linear_sum(self):
        # Three walls and one door across a 10 m corridor link.
        plan = Floorplan(
            bounds=Bounds(0, 0, 12, 4),
            obstacles=(PlanarObstacle(3, 0, 3, 4, family=WALL),
                       PlanarObstacle(5, 0, 5, 4, family=WALL),
                       PlanarObstacle(7, 0, 7, 4, family=DOOR),
                       PlanarObstacle(9, 0, 9, 4, family=WALL)))
        params = PropagationParams(gamma=2, lc_db=2.0, wall_db=5.0, door_db=1.0)
        tx, rx = Point3(1, 2, 1.5), Point3(11, 2, 1.5)
        assert count_obstructions(plan, tx, rx).counts == {DOOR: 1, WALL: 3}
        assert extra_loss(params, plan, tx, rx) == pytest.approx(18.0)

    def test_single_floor_term_independent_of_b(self):
        plan = Floorplan(bounds=Bounds(0, 0, 10, 10), floors=(3.0,))
        tx, rx = Point3(2, 2, 1.5), Point3(7, 6, 4.5)
        assert count_obstructions(plan, tx, rx).floors_crossed == 1
        for b in (0.0, 0.46, 1.3):
            params = PropagationParams(lf_db=18.0, b=b)
            assert extra_loss(params, plan, tx, rx) == pytest.approx(18.0)

    def test_empty_link_zero(self):
        plan = Floorplan(bounds=Bounds(0, 0, 10, 10),
                         obstacles=(PlanarObstacle(5, 6, 5, 10, family=WALL),))
        params = PropagationParams(gamma=2.0, lc_db=0.0, wall_db=5.0)
        tx, rx = Point3(1, 2, 1.5), Point3(9, 2, 1.5)
        assert count_obstructions(plan, tx, rx).counts == {WALL: 0}
        assert extra_loss(params, plan, tx, rx) == 0.0

    def test_no_floor_crossing_no_floor_term(self):
        plan = Floorplan(bounds=Bounds(0, 0, 10, 10), floors=(3.0,))
        params = PropagationParams(lc_db=0.5, lf_db=18.0)
        assert extra_loss(params, plan, Point3(2, 2, 1.5),
                          Point3(7, 6, 2.5)) == pytest.approx(0.5)

    def test_unparameterized_type_contributes_nothing(self):
        plan = Floorplan(
            bounds=Bounds(0, 0, 12, 4),
            obstacles=tuple(PlanarObstacle(x, 0, x, 4, family=WALL) for x in (3, 5, 7, 9)))
        params = PropagationParams(lc_db=0.0)
        tx, rx = Point3(1, 2, 1.5), Point3(11, 2, 1.5)
        assert count_obstructions(plan, tx, rx).counts == {WALL: 4}
        assert extra_loss(params, plan, tx, rx) == 0.0


def walled_plan():
    return Floorplan(
        bounds=Bounds(0, 0, 30, 10),
        obstacles=(PlanarObstacle(10, 0, 10, 10, family=WALL),
                   PlanarObstacle(20, 0, 20, 10, family=WALL)))


class TestPathLoss:
    def test_mwmf_without_obstacles_equals_os(self):
        plan = Floorplan(bounds=Bounds(0, 0, 30, 10))
        params = PropagationParams(gamma=2.6, lc_db=0.0, wall_db=5.0)
        tx, rx = Point3(1, 5, 2), Point3(25, 5, 2)
        assert link_loss(ModelKind.MWMF, params, plan, tx, rx) == pytest.approx(
            link_loss(ModelKind.ONE_SLOPE, params, plan, tx, rx))

    def test_decomposition(self):
        plan = walled_plan()
        params = PropagationParams(gamma=2.6, lc_db=1.0, wall_db=6.0)
        rng = np.random.default_rng(3)
        for _ in range(25):
            tx = Point3(float(rng.uniform(0.5, 29.5)), float(rng.uniform(0.5, 9.5)), 2.0)
            rx = Point3(float(rng.uniform(0.5, 29.5)), float(rng.uniform(0.5, 9.5)), 1.2)
            if tx == rx:
                continue
            obs = count_obstructions(plan, tx, rx)
            extra = params.lc_db + sum(n * params.loss_db(family)
                                       for family, n in obs.counts.items())
            assert link_loss(ModelKind.MWMF, params, plan, tx, rx) == pytest.approx(
                link_loss(ModelKind.ONE_SLOPE, params, plan, tx, rx) + extra)

    def test_hand_evaluated_link(self):
        # 10 m link crossing two 6 dB walls with 1 dB constant loss.
        plan = Floorplan(
            bounds=Bounds(0, 0, 12, 6),
            obstacles=(PlanarObstacle(4, 0, 4, 6, family=WALL),
                       PlanarObstacle(7, 0, 7, 6, family=WALL)))
        params = PropagationParams(gamma=2.0, lc_db=1.0, wall_db=6.0,
                                          l0_db=40.22)
        pl = link_loss(ModelKind.MWMF, params, plan, Point3(1, 3, 1.5),
                       Point3(11, 3, 1.5))
        assert pl == pytest.approx(73.22)


class TestPredictRss:
    def test_eirp_minus_loss(self):
        plan = Floorplan(bounds=Bounds(0, 0, 30, 10))
        ap = AccessPoint("ap", Point3(1, 5, 2), eirp_dbm=20.0)
        params = PropagationParams(gamma=2.0, l0_db=40.22)
        # 10 m one-slope link: loss 60.22 dB.
        assert predict_rss(ModelKind.ONE_SLOPE, params, plan, ap,
                           Point3(11, 5, 2)) == pytest.approx(-40.22)

    def test_free_space_one_meter(self):
        plan = Floorplan(bounds=Bounds(0, 0, 30, 10))
        ap = AccessPoint("ap", Point3(5, 5, 2), eirp_dbm=20.0)
        params = PropagationParams(gamma=2.0, l0_db=40.22)
        assert predict_rss(ModelKind.MWMF, params, plan, ap,
                           Point3(6, 5, 2)) == pytest.approx(-20.22)

    def test_wall_loss_linearity(self):
        plan = walled_plan()
        ap = AccessPoint("ap", Point3(1, 5, 2), eirp_dbm=20.0)
        rx = Point3(25, 5, 1.2)  # crosses both walls
        base = PropagationParams(gamma=2.5, lc_db=1.0, wall_db=4.0)
        doubled = PropagationParams(gamma=2.5, lc_db=1.0, wall_db=8.0)
        drop = (predict_rss(ModelKind.MWMF, base, plan, ap, rx)
                - predict_rss(ModelKind.MWMF, doubled, plan, ap, rx))
        assert drop == pytest.approx(2 * 4.0)

    def test_batch_matches_scalar(self):
        plan = walled_plan()
        ap = AccessPoint("ap", Point3(2, 3, 2.5), eirp_dbm=20.0)
        params = PropagationParams(gamma=2.7, lc_db=1.5, wall_db=5.0)
        rng = np.random.default_rng(5)
        points = [Point3(float(rng.uniform(0.5, 29.5)), float(rng.uniform(0.5, 9.5)), 1.2)
                  for _ in range(40)]
        batch = predict_rss_many(ModelKind.MWMF, params, plan, ap, points)
        for p, value in zip(points, batch):
            assert value == pytest.approx(
                predict_rss(ModelKind.MWMF, params, plan, ap, p), abs=1e-12)

    def test_rx_at_ap_rejected(self):
        plan = walled_plan()
        ap = AccessPoint("ap", Point3(2, 3, 2.5))
        with pytest.raises(ValueError):
            predict_rss_many(ModelKind.ONE_SLOPE, PropagationParams(), plan, ap,
                             [ap.position])


def two_story_scene():
    """A two-story plan with walls and a door, an AP on the upper story and
    receivers on both."""
    plan = Floorplan(
        bounds=Bounds(0.0, 0.0, 30.0, 10.0),
        floors=(3.0,),
        obstacles=(
            PlanarObstacle(8.0, 0.0, 8.0, 10.0, floor_index=0, family=WALL),
            PlanarObstacle(14.0, 0.0, 14.0, 7.0, floor_index=1, family=WALL),
            PlanarObstacle(14.0, 7.0, 14.0, 10.0, floor_index=1, family=DOOR),
            PlanarObstacle(22.0, 2.0, 22.0, 10.0, floor_index=0, family=WALL),
            PlanarObstacle(0.0, 5.0, 30.0, 5.0, floor_index=1, family=WALL),
        ),
    )
    ap = AccessPoint("ap", Point3(3.0, 2.0, 5.5), eirp_dbm=18.0)
    rng = np.random.default_rng(11)
    pts = np.column_stack([rng.uniform(0.5, 29.5, 60), rng.uniform(0.5, 9.5, 60),
                           rng.choice([1.2, 4.2], 60)])
    return plan, ap, pts


class TestLinkTable:
    PARAMS = [
        PropagationParams(gamma=2.4, lc_db=1.3, wall_db=4.7, door_db=1.1, lf_db=15.5, b=0.5),
        PropagationParams(gamma=3.1, lc_db=0.0, wall_db=5.0, door_db=0.0),
        PropagationParams(l0_db=38.0, gamma=1.9, lc_db=-0.7),
    ]

    def test_reused_table_matches_fresh_prediction_bit_for_bit(self):
        plan, ap, pts = two_story_scene()
        table = LinkTable(plan, ap, pts)
        for model in (ModelKind.ONE_SLOPE, ModelKind.MWMF, ModelKind.ONE_SLOPE):
            for params in self.PARAMS:
                got = table.predict_rss(model, params)
                assert got.tobytes() == predict_rss_many(model, params, plan, ap,
                                                         pts).tobytes()
                assert got.tobytes() == reference_predict_rss(model, params, plan, ap,
                                                              pts).tobytes()

    def test_one_slope_counts_no_crossings(self, monkeypatch):
        plan, ap, pts = two_story_scene()
        calls = count_crossing_calls(monkeypatch)
        LinkTable(plan, ap, pts).predict_rss(ModelKind.ONE_SLOPE, self.PARAMS[0])
        predict_rss_many(ModelKind.ONE_SLOPE, self.PARAMS[0], plan, ap, pts)
        assert not calls

    def test_flags_and_predictions_count_once(self, monkeypatch):
        plan, ap, pts = two_story_scene()
        calls = count_crossing_calls(monkeypatch)
        table = LinkTable(plan, ap, pts)
        flags = table.crossing_flags()
        for params in self.PARAMS:
            table.predict_rss(ModelKind.MWMF, params)
        assert list(calls.values()) == [1]
        assert flags.shape == (60, len(plan.obstacles)) and flags.any()


class TestParamsValidation:
    def test_nonpositive_l0_rejected(self):
        with pytest.raises(ValueError):
            PropagationParams(l0_db=0.0)

    def test_negative_loss_warns_not_raises(self):
        with pytest.warns(UserWarning):
            params = PropagationParams(gamma=2.0, wall_db=-1.0)
        assert params.wall_db == -1.0


class TestSerialization:
    def test_params_round_trip(self, tmp_path):
        params = PropagationParams(gamma=2.9, lc_db=1.2, wall_db=5.5,
                                          door_db=1.1, lf_db=17.0, b=0.5)
        path = tmp_path / "params.json"
        write_json(path, params_to_dict(ModelKind.MWMF, params))
        model, loaded = load_params(path)
        assert model is ModelKind.MWMF
        assert loaded == params

    def test_params_schema(self, tmp_path):
        import json

        path = tmp_path / "params.json"
        write_json(path, params_to_dict(ModelKind.ONE_SLOPE, PropagationParams()))
        doc = json.loads(path.read_text())
        assert set(doc) == {"model", "l0_db", "gamma", "lc_db", "losses", "lf_db", "b"}
        assert set(doc["losses"]) == {"wall", "door"}

    def test_aps_round_trip(self, tmp_path):
        aps = [AccessPoint("ap01", Point3(1, 2, 2.8), 20.0),
               AccessPoint("ap02", Point3(5, 2, 2.8), 18.0)]
        path = tmp_path / "aps.json"
        save_access_points(aps, path)
        assert load_access_points(path) == aps

    @pytest.mark.parametrize("key", ["x", "z", "eirp_dbm"])
    def test_ap_boolean_number_rejected(self, key):
        item = {"id": "a", "x": 0, "y": 0, "z": 1}
        assert aps_from_list([item])[0].position == Point3(0.0, 0.0, 1.0)
        with pytest.raises(TypeError, match="expected a number, got true"):
            aps_from_list([{**item, key: True}])

    @pytest.mark.parametrize("edit", [lambda doc: doc.update(gamma=True),
                                      lambda doc: doc.update(b=False),
                                      lambda doc: doc["losses"].update(wall=True)],
                             ids=["gamma", "b", "wall"])
    def test_params_boolean_number_rejected(self, edit):
        doc = params_to_dict(ModelKind.MWMF, PropagationParams())
        edit(doc)
        with pytest.raises(TypeError, match="expected a number, got (true|false)"):
            params_from_dict(doc)

    def test_duplicate_ap_ids_rejected(self):
        with pytest.raises(InputError):
            aps_from_list([{"id": "a", "x": 0, "y": 0, "z": 1},
                           {"id": "a", "x": 1, "y": 0, "z": 1}])

    def test_bad_params_file(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("[1, 2]")
        with pytest.raises(InputError):
            load_params(path)

    @pytest.mark.parametrize("doc, error", [({"id": "a"}, TypeError), ([], ValueError)],
                             ids=["object", "empty-list"])
    def test_ap_list_shape(self, tmp_path, doc, error):
        # The parser raises a plain error; only the file reader wraps it.
        with pytest.raises(error):
            aps_from_list(doc)
        path = tmp_path / "aps.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="malformed AP file"):
            load_access_points(path)

    def test_ap_file_not_utf8(self, tmp_path):
        path = tmp_path / "aps.json"
        path.write_bytes(b'[{"id": "\xe9"}]')
        with pytest.raises(InputError, match="not valid JSON"):
            load_access_points(path)
