import builtins
import csv
import hashlib
import io
import json
import os
from dataclasses import replace

import numpy as np
import pytest

import radioloc.fitting as fitting
from radioloc.errors import DegenerateFitError, InputError, InsufficientDataError
from radioloc.fitting import (
    FitResult,
    FitStrategy,
    MeasurementRecord,
    MeasurementSet,
    StrategyKind,
    fit,
    fit_result_from_dict,
    fit_result_to_dict,
    load_fit_result,
    load_measurements,
    save_fit_result,
    save_measurements,
)
from radioloc.floorplan import Bounds, Floorplan, ObstacleFamily, PlanarObstacle, Point3
from radioloc.ioutil import read_csv, sidecar_path
from radioloc.propagation import (
    AccessPoint,
    LinkTable,
    ModelKind,
    PropagationParams,
    predict_rss,
)

from helpers import (
    csv_path_outcome,
    measurement_set,
    most_scans_per_pair,
    survey_outcome,
    survey_points,
    tiny_world,
    with_arrays_digest,
)


def synth_measurements(plan, aps, params_by_ap, points, q=3, model=ModelKind.MWMF):
    """Noise-free scans generated straight from the forward model."""
    records = []
    for idx, p in enumerate(points):
        for ap in aps:
            value = predict_rss(model, params_by_ap[ap.id], plan, ap, p)
            for s in range(q):
                records.append(MeasurementRecord(f"rp{idx:03d}", p, ap.id, value, s))
    return measurement_set(records)


def params_close(a, b, tol=1e-6):
    return (abs(a.gamma - b.gamma) <= tol and abs(a.lc_db - b.lc_db) <= tol
            and abs(a.wall_db - b.wall_db) <= tol and abs(a.door_db - b.door_db) <= tol)


class TestExactRecovery:
    def test_mwmf_both_strategies(self):
        plan, aps, truth = tiny_world()
        meas = synth_measurements(plan, aps, {ap.id: truth for ap in aps},
                                  survey_points())
        for strategy in (FitStrategy.environment(), FitStrategy(StrategyKind.PER_AP)):
            result = fit(strategy, ModelKind.MWMF, plan, aps, meas)
            for ap in aps:
                assert params_close(result.params_for(ap.id), truth)
            assert result.residual_rms_db < 1e-9
            assert result.m_used >= 4

    def test_one_slope_recovery(self):
        plan, aps, _ = tiny_world()
        plan = Floorplan(bounds=plan.bounds)  # no obstacles: OS is exact
        truth = PropagationParams(gamma=2.35)
        meas = synth_measurements(plan, aps, {ap.id: truth for ap in aps},
                                  survey_points(), model=ModelKind.ONE_SLOPE)
        for strategy in (FitStrategy.environment(), FitStrategy(StrategyKind.PER_AP)):
            result = fit(strategy, ModelKind.ONE_SLOPE, plan, aps, meas)
            for ap in aps:
                assert abs(result.params_for(ap.id).gamma - truth.gamma) < 1e-9

    def test_per_ap_separates_heterogeneous_gammas(self):
        plan, aps, _ = tiny_world()
        truths = {
            "a": PropagationParams(gamma=2.2, lc_db=1.0, wall_db=4.0, door_db=1.0),
            "b": PropagationParams(gamma=3.1, lc_db=1.0, wall_db=4.0, door_db=1.0),
        }
        meas = synth_measurements(plan, aps, truths, survey_points())
        per_ap = fit(FitStrategy(StrategyKind.PER_AP), ModelKind.MWMF, plan, aps, meas)
        for ap in aps:
            assert params_close(per_ap.params_for(ap.id), truths[ap.id])
        pooled = fit(FitStrategy.environment(), ModelKind.MWMF, plan, aps, meas)
        assert pooled.residual_rms_db > 0.1

    def test_strategy_consistency_with_shared_truth(self):
        plan, aps, truth = tiny_world()
        meas = synth_measurements(plan, aps, {ap.id: truth for ap in aps},
                                  survey_points())
        env = fit(FitStrategy.environment(), ModelKind.MWMF, plan, aps, meas)
        per_ap = fit(FitStrategy(StrategyKind.PER_AP), ModelKind.MWMF, plan, aps, meas)
        for ap in aps:
            assert params_close(env.params_for(ap.id), per_ap.params_for(ap.id))


class TestFitContracts:
    def test_degenerate_equidistant_ring(self):
        # Survey points on a circle around the AP, no obstacles: the log-d
        # column is constant, collinear with the intercept.
        plan = Floorplan(bounds=Bounds(0, 0, 20, 20))
        ap = AccessPoint("a", Point3(10, 10, 1.2))
        truth = PropagationParams(gamma=2.0)
        points = [Point3(10 + 5 * np.cos(t), 10 + 5 * np.sin(t), 1.2)
                  for t in np.linspace(0, 2 * np.pi, 9)[:-1]]
        meas = synth_measurements(plan, [ap], {"a": truth}, points)
        with pytest.raises(DegenerateFitError) as info:
            fit(FitStrategy(StrategyKind.PER_AP), ModelKind.MWMF, plan, [ap], meas)
        assert info.value.scope == "a"

    def test_insufficient_data(self):
        plan, aps, truth = tiny_world()
        meas = synth_measurements(plan, aps, {ap.id: truth for ap in aps},
                                  survey_points()[:1])
        with pytest.raises(InsufficientDataError):
            fit(FitStrategy.environment(), ModelKind.MWMF, plan, aps, meas)

    def test_unobserved_obstacle_type_dropped_with_warning(self):
        plan, aps, truth = tiny_world()
        # Points in the leftmost room only: links from AP "a" cross nothing.
        points = [Point3(1.0 + 0.6 * i, 0.8 + 0.9 * j, 1.2)
                  for i in range(4) for j in range(3)]
        meas = synth_measurements(plan, [aps[0]], {"a": truth}, points)
        with pytest.warns(UserWarning, match="no sample crosses"):
            result = fit(FitStrategy(StrategyKind.PER_AP), ModelKind.MWMF, plan, [aps[0]], meas)
        params = result.params_for("a")
        assert params.wall_db == 0.0 and params.door_db == 0.0
        assert abs(params.gamma - truth.gamma) < 1e-6

    def test_averaging_contract_duplicate_scans(self):
        plan, aps, truth = tiny_world()
        meas = synth_measurements(plan, aps, {ap.id: truth for ap in aps},
                                  survey_points(), q=2)
        doubled = measurement_set(list(meas.records) + [
            MeasurementRecord(r.rp_id, r.location, r.ap_id, r.rss_dbm,
                              r.scan_index + 100)
            for r in meas.records])
        a = fit(FitStrategy.environment(), ModelKind.MWMF, plan, aps, meas)
        b = fit(FitStrategy.environment(), ModelKind.MWMF, plan, aps, doubled)
        assert a.params_for("a") == b.params_for("a")
        assert a.m_used == b.m_used

    def test_not_detected_entries_excluded(self):
        plan, aps, truth = tiny_world()
        meas = synth_measurements(plan, aps, {ap.id: truth for ap in aps},
                                  survey_points())
        with_nd = measurement_set(list(meas.records) + [
            MeasurementRecord("rp000", Point3(*meas.xyz[0].tolist()), "a", None, 99)])
        a = fit(FitStrategy.environment(), ModelKind.MWMF, plan, aps, meas)
        b = fit(FitStrategy.environment(), ModelKind.MWMF, plan, aps, with_nd)
        assert a.params_for("a") == b.params_for("a")

    def test_residual_optimality(self):
        plan, aps, truth = tiny_world()
        rng = np.random.default_rng(2)
        records = []
        for idx, p in enumerate(survey_points()):
            for ap in aps:
                value = predict_rss(ModelKind.MWMF, truth, plan, ap, p)
                records.append(MeasurementRecord(
                    f"rp{idx:03d}", p, ap.id,
                    float(np.clip(value + rng.normal(0, 2.0), -119, 0)), 0))
        meas = measurement_set(records)
        result = fit(FitStrategy.environment(), ModelKind.MWMF, plan, aps, meas)
        fitted = result.params_for("a")
        means = meas.mean_matrix()

        def objective(params):
            total = 0.0
            for i, j in zip(*np.nonzero(~np.isnan(means))):
                ap = next(a for a in aps if a.id == meas.ap_ids()[j])
                predicted = predict_rss(ModelKind.MWMF, params, plan, ap,
                                        Point3(*meas.xyz[i].tolist()))
                total += (means[i, j] - predicted) ** 2
            return total

        best = objective(fitted)
        for delta in (+0.1, -0.1):
            variants = [
                replace(fitted, gamma=fitted.gamma + delta),
                replace(fitted, lc_db=fitted.lc_db + delta),
                replace(fitted, wall_db=fitted.wall_db + delta),
                replace(fitted, door_db=fitted.door_db + delta),
            ]
            for params in variants:
                assert objective(params) >= best - 1e-9

    def test_no_fit_requires_params(self):
        with pytest.raises(ValueError):
            FitStrategy(StrategyKind.NO_FIT)


def fitted_predictions(result, model, plan, aps, positions):
    """Predicted RSS per AP id at ``positions``, from each AP's fitted parameters."""
    return {ap.id: LinkTable(plan, ap, positions).predict_rss(model, result.params_for(ap.id))
            for ap in aps}


class TestPredictForMeasurements:
    def test_no_fit_os_baseline(self):
        plan, aps, _ = tiny_world()
        baseline = PropagationParams(gamma=2.0, l0_db=20.0)
        result = fit(FitStrategy.no_fit(baseline), ModelKind.ONE_SLOPE, plan, aps,
                     synth_measurements(plan, aps, {ap.id: baseline for ap in aps},
                                        survey_points(), model=ModelKind.ONE_SLOPE))
        rx = Point3(11.0, 5.0, 1.2)
        predictions = fitted_predictions(result, ModelKind.ONE_SLOPE, plan, aps, [rx])
        d = np.sqrt((11 - 1) ** 2 + (5 - 5) ** 2 + (1.2 - 2.5) ** 2)
        expected = 20.0 - (20.0 + 20.0 * np.log10(d))
        assert predictions["a"][0] == pytest.approx(expected)

    def test_exact_fit_reproduces_measurements(self):
        plan, aps, truth = tiny_world()
        points = survey_points()
        meas = synth_measurements(plan, aps, {ap.id: truth for ap in aps}, points)
        result = fit(FitStrategy.environment(), ModelKind.MWMF, plan, aps, meas)
        predictions = fitted_predictions(result, ModelKind.MWMF, plan, aps, meas.xyz)
        means = meas.mean_matrix()
        for j, ap_id in enumerate(meas.ap_ids()):
            detected = ~np.isnan(means[:, j])
            assert detected.all()
            np.testing.assert_allclose(predictions[ap_id][detected], means[detected, j],
                                       rtol=0, atol=1e-6)

    def test_rigid_translation_invariance(self):
        plan, aps, truth = tiny_world()
        points = survey_points()
        meas = synth_measurements(plan, aps, {ap.id: truth for ap in aps}, points)
        result = fit(FitStrategy.environment(), ModelKind.MWMF, plan, aps, meas)
        base = fitted_predictions(result, ModelKind.MWMF, plan, aps, points)

        dx, dy = 100.0, -40.0
        shifted_plan = Floorplan(
            bounds=Bounds(plan.bounds.min_x + dx, plan.bounds.min_y + dy,
                          plan.bounds.max_x + dx, plan.bounds.max_y + dy),
            obstacles=tuple(PlanarObstacle(o.x1 + dx, o.y1 + dy, o.x2 + dx,
                                           o.y2 + dy, o.floor_index, o.family)
                            for o in plan.obstacles))
        shifted_aps = [AccessPoint(ap.id, Point3(ap.position.x + dx,
                                                 ap.position.y + dy, ap.position.z),
                                   ap.eirp_dbm) for ap in aps]
        shifted_points = [Point3(p.x + dx, p.y + dy, p.z) for p in points]
        shifted = fitted_predictions(result, ModelKind.MWMF, shifted_plan, shifted_aps,
                                     shifted_points)
        for ap in aps:
            np.testing.assert_allclose(shifted[ap.id], base[ap.id], rtol=0, atol=1e-9)

    def test_unknown_ap_rejected(self):
        plan, aps, truth = tiny_world()
        meas = synth_measurements(plan, [aps[0]], {"a": truth}, survey_points())
        result = fit(FitStrategy(StrategyKind.PER_AP), ModelKind.MWMF, plan, [aps[0]], meas)
        with pytest.raises(KeyError):
            fitted_predictions(result, ModelKind.MWMF, plan, aps, [Point3(3, 3, 1.2)])


def two_story_survey():
    """A two-story plan, one AP per story, and a noisy survey on both stories
    with some pairs never detected."""
    plan = Floorplan(
        bounds=Bounds(0.0, 0.0, 20.0, 10.0), floors=(3.0,),
        obstacles=(PlanarObstacle(6.0, 0.0, 6.0, 10.0, floor_index=0),
                   PlanarObstacle(13.0, 0.0, 13.0, 7.0, floor_index=1),
                   PlanarObstacle(13.0, 7.0, 13.0, 10.0, floor_index=1,
                                  family=ObstacleFamily.DOOR)))
    aps = [AccessPoint("up", Point3(18.0, 2.0, 5.5), eirp_dbm=18.0),
           AccessPoint("down", Point3(1.0, 5.0, 2.5), eirp_dbm=20.0)]
    truth = PropagationParams(gamma=2.6, lc_db=1.0, wall_db=5.0, door_db=2.0)
    rng = np.random.default_rng(4)
    records = []
    for i, p in enumerate(survey_points(z=1.2) + survey_points(z=4.2)):
        for ap in aps:
            if rng.random() < 0.15:
                continue
            value = predict_rss(ModelKind.MWMF, truth, plan, ap, p)
            for scan in range(2):
                records.append(MeasurementRecord(
                    f"rp{i:03d}", p, ap.id,
                    float(np.clip(value + rng.normal(0, 3.0), -120, 0)), scan))
    return plan, aps, measurement_set(records)


class TestNoFitResidual:
    PARAMS = PropagationParams(gamma=2.3, lc_db=0.7, wall_db=4.0, door_db=1.5, l0_db=38.0)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_rms_over_same_floor_detected_pairs(self, model):
        plan, aps, meas = two_story_survey()
        with pytest.warns(UserWarning, match="cross-floor samples"):
            result = fit(FitStrategy.no_fit(self.PARAMS), model, plan, aps, meas)
        means = meas.mean_matrix()
        stories = np.array([plan.story_of(z) for z in meas.xyz[:, 2].tolist()])
        deltas = []
        for j, ap_id in enumerate(meas.ap_ids()):
            ap = next(ap for ap in aps if ap.id == ap_id)
            pairs = ~np.isnan(means[:, j]) & (stories == plan.story_of(ap.position.z))
            predicted = LinkTable(plan, ap, meas.xyz).predict_rss(model, self.PARAMS)
            deltas.append((predicted - means[:, j])[pairs])
        deltas = np.concatenate(deltas)
        assert 0 < deltas.size < np.count_nonzero(~np.isnan(means))
        assert result.m_used == deltas.size
        assert result.residual_rms_db == pytest.approx(
            float(np.sqrt(np.mean(deltas ** 2))), rel=1e-12)
        assert result.params_for("up") is self.PARAMS


HEADER = "rp_id,x,y,z,ap_id,rss_dbm,scan_index"


def two_point_survey():
    return MeasurementSet(["a", "b"], [[0.0, 0.0, 1.2], [1.0, 1.0, 1.2]], ["x"], [0, 1, 1],
                          [0, 0, 0], [-50.0, -60.0, 0.0], [True, True, False], [0, 0, 1])


def outcome_beside_a_stale_lanes_file(path):
    """``survey_outcome`` of the survey file ``path`` with the lanes file of
    another survey, saved at ``path`` before, beside it."""
    data = path.read_bytes()
    save_measurements(two_point_survey(), path)
    assert sidecar_path(path).exists()
    path.write_bytes(data)
    return survey_outcome(load_measurements, path)


class TestMeasurementIo:
    def test_csv_round_trip_with_nd(self, tmp_path):
        records = [
            MeasurementRecord("rp000", Point3(1.25, 2.5, 1.2), "ap01", -51.375, 0),
            MeasurementRecord("rp000", Point3(1.25, 2.5, 1.2), "ap01", None, 1),
            MeasurementRecord("rp001", Point3(3.0, 2.5, 1.2), "ap02", -70.0, 0),
        ]
        meas = measurement_set(records)
        path = tmp_path / "meas.csv"
        save_measurements(meas, path)
        text = path.read_text()
        assert text.splitlines()[0] == "rp_id,x,y,z,ap_id,rss_dbm,scan_index"
        assert "ND" in text
        loaded = load_measurements(path)
        assert list(loaded.records) == records
        assert most_scans_per_pair(loaded) == 2

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InputError) as excinfo:
            load_measurements(path)
        assert outcome_beside_a_stale_lanes_file(path) == f"InputError: {excinfo.value}"

    @pytest.mark.parametrize("body", [
        "rp0,1,2,1.2,ap01,nan,0\n",            # NaN is not the ND marker
        "rp0,1,2,1.2,ap01,inf,0\n",
        "rp0,1,2,1.2,ap01,-130.0,0\n",
        "rp0,1,2,1.2,ap01,0.5,0\n",
        "rp0,1,nan,1.2,ap01,-50.0,0\n",
        "rp0,1,2,inf,ap01,-50.0,0\n",
        "rp0,1,2,1.2,ap01,-50.0,0\nrp0,1,2.5,1.2,ap01,-51.0,1\n",
        "rp0,1,2,1.2,ap01,-50.0,1.5\n",
        "rp0,1,2,1.2,ap01,-50.0\n",
        "rp0,1,2,1.2,ap01,-50.0,0,7\n",
        "",
        "rp0,1,2,1.2,ap01,-50.0,0\n  \nrp1,3,2,1.2,ap01,-60.0,0\n",
        "rp0,1,2,1.2,ap01,-50.0,12345678901234567890\n",
        "rp0,1,2,1.2,ap01, ND,0\n",
        "rp0,0x10,2,1.2,ap01,-50.0,0\n",
        "rp0,1\x1c,2,1.2,ap01,-50.0,0\n",
        "rp0,1,2,1.2,ap01,-50.0,3\x1f\n",
        "rp0,1\r,2,1.2,ap01,-50.0,0\n",
        "rp0,1,2,1.2,ap01,-50.0,0#\n",
        "rp0,0,0,0,ap01,-50.0,0\nrp0,nan,0,0,ap01,-50.0,1\n",
        "rp0,nan,0,0,ap01,-50.0,0\nrp0,NaN,0,0,ap01,-50.0,1\n",
    ], ids=["nan-rss", "inf-rss", "rss-below-range", "rss-above-range", "nan-coordinate",
            "inf-coordinate", "two-coordinates", "fractional-scan", "short-row",
            "long-row", "no-rows", "whitespace-only-line", "20-digit-scan", "spaced-nd",
            "hex-coordinate", "fs-around-number", "us-around-scan", "lone-cr-in-field",
            "hash-in-scan", "nan-in-later-row", "nan-in-two-spellings"])
    def test_malformed_rows_rejected(self, tmp_path, body):
        path = tmp_path / "meas.csv"
        path.write_bytes(("rp_id,x,y,z,ap_id,rss_dbm,scan_index\n" + body).encode())
        with pytest.raises(InputError) as excinfo:
            load_measurements(path)
        # The same message as the csv rows path gives.
        assert f"InputError: {excinfo.value}" == csv_path_outcome(path)
        assert outcome_beside_a_stale_lanes_file(path) == f"InputError: {excinfo.value}"

    def test_field_over_csv_limit_is_not_valid_csv(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("rp_id,x,y,z,ap_id,rss_dbm,scan_index\n"
                        f"rp0,{'0' * csv.field_size_limit()}1,2,1.2,ap01,-50.0,0\n")
        with pytest.raises(InputError, match="is not valid CSV: field larger than field limit"):
            load_measurements(path)
        assert outcome_beside_a_stale_lanes_file(path) == csv_path_outcome(path)

    @pytest.mark.parametrize("text", ["", "rp_id,x,y,z,ap_id,rss_dbm\n"],
                             ids=["empty-file", "short-header"])
    def test_missing_or_wrong_header_rejected(self, tmp_path, text):
        path = tmp_path / "meas.csv"
        path.write_text(text)
        with pytest.raises(InputError) as excinfo:
            load_measurements(path)
        assert outcome_beside_a_stale_lanes_file(path) == f"InputError: {excinfo.value}"

    def test_equal_coordinates_in_other_spelling_accepted(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("rp_id,x,y,z,ap_id,rss_dbm,scan_index\n"
                        "rp0,1,2,1.2,ap01,-50.0,0\nrp0,1.0,2e0,1.20,ap01,ND,1\n")
        meas = load_measurements(path)
        assert meas.rp_ids() == ["rp0"] and meas.xyz.tolist() == [[1.0, 2.0, 1.2]]
        assert meas.ap_ids() == ["ap01"] and meas.mean_matrix().tolist() == [[-50.0]]

    # Texts the parser must accept, each one survey, bit for bit the csv rows
    # path's.
    @pytest.mark.parametrize("text", [
        f"{HEADER}\nrp0,1,2,1.2,ap01,-50.5,0\nrp0,1,2,1.2,ap01,ND,1\n"
        "rp1,3,2,1.2,ap02,-70,0\n",
        f"{HEADER}\r\nrp0,1,2,1.2,ap01,-50.5,0\r\nrp0,1,2,1.2,ap01,ND,1\r\n",
        f"{HEADER}\nrp0,1,2,1.2,ap01,-50.5,0",
        f"{HEADER}\n\nrp0,1,2,1.2,ap01,-50,0\n\n\nrp1,3,2,1.2,ap01,ND,0\n\n",
        f"{HEADER}\r\n\r\nrp0,1,2,1.2,ap01,-50,0\r\n\r\n",
        f"{HEADER}\nrp0, 1 ,2\t, 1.2,ap01, -50.5 , 0 \nrp1,3,2,1.2,ap01,ND,1\n",
        f"{HEADER}\nrp0,1e0,2E+00,.12e1,ap01,-5.05e1,0\nrp0,1.,2,1.2,ap01,-0.0,1\n",
        f"{HEADER}\n#rp0,1,2,1.2,ap#1,-50,0\n",
        f"{HEADER}\nrp0,1,2,1.2,00:1a:2b:3c:4d:5e,-50,0\n",
        f"{HEADER}\n{'p' * 31},1,2,1.2,{'a' * 31},-50.0000000000000000001,0\n",
        f"{HEADER}\nrp\x0c0,1,2,1.2\x0c,ap\x0b1,-50,0\n",
        f"{HEADER}\nrp0,1,2,1.2,ap01,-50,-3\nrp0,1,2,1.2,ap01,-51,+4\n",
        f"{HEADER}\nrp0,1,2,1.2,ap01,-50,1_1\nrp0,1,2,1.2,ap01,-51,{'0' * 22}7\n",
        f"{HEADER}\nrp0,1,2,1.2,ap01,-50,{'0' * 23}7\n",
        f"{HEADER}\n{'p' * 32},1,2,1.2,ap01,-50,0\n",
        f"{HEADER}\n{'p' * 33},1,2,1.2,ap01,-50,0\nrp1,3,2,1.2,{'a' * 33},-50,0\n",
        f"{HEADER}\nrp0,1,2,1.2,ap01,-50.00000000000000000001,0\n",
        f'{HEADER}\n"rp,0",1,2,1.2,"say ""hi""",-50,0\n',
        f'"rp_id",x,y,z,ap_id,rss_dbm,scan_index\nrp0,1,2,1.2,ap01,-50,0\n',
        f"{HEADER}\nrp0,0.0,2,1.2,ap01,-50,0\nrp0,-0.0,2,1.2,ap01,-51,1\n",
        f"{HEADER}\nrp0,1_0,2,1.2,ap01,-50,1_1\n",
        f"{HEADER}\nrp0,\u0663,2,1.2,ap01,-50,0\n",
        f"{HEADER}\nrp\x1c0,1,2,1.2,ap01,-50,0\n",
        f"{HEADER}\nrp\u20280,1,2,1.2,ap\x851,-50,0\n",
        f"{HEADER}\rrp0,1,2,1.2,ap01,-50,0\rrp1,3,2,1.2,ap01,ND,0\r",
        f"{HEADER}\r\nrp0,1,2,1.2,ap01,-50,0\r\r\n",
        f"\n{HEADER}\nrp0,1,2,1.2,ap01,-50,0\n",
        f"{HEADER}\nrp0,1,2,1.2,ap01,-50,0\nrp1,3,2,1.2,ap01,-60,0\n"
        "rp0,1.0,2,1.2,ap01,-51,1\nrp0,1e0,2.0,1.2,ap02,ND,0\n",
        f"{HEADER}\nrp0,1,0.0,1.2,ap01,-50,0\nrp1,3,2,1.2,ap01,-60,0\n"
        "rp0,1,0.0,1.2,ap01,-51,1\nrp0,1,-0.0,1.2,ap02,-52,0\n",
        f"{HEADER}\nrp0,1,2,1.{'0' * 21},ap01,-50,0\n",
        f"{HEADER}\nrp0,1,2,1.{'0' * 22},ap01,-50,0\n",
        f"{HEADER}\nrp0,1,2,1.2,ap01,-50,01\nrp0,1,2,1.2,ap01,-51,1\n"
        "rp0,1,2,1.2,ap01,-52,001\n",
    ], ids=["lf", "crlf", "one-row-no-eol", "blank-lines", "crlf-blank-lines",
            "spaces-around-numbers", "exponent-forms", "hash-in-ids", "bssid-ap-id",
            "31-char-ids-and-23-char-rss", "ff-and-vt-in-fields", "signed-scans",
            "underscore-and-23-char-scans", "24-char-scan", "32-char-id", "33-char-ids",
            "24-char-rss", "quoted-ids", "quoted-header",
            "negative-zero-coordinate", "underscore-numbers", "arabic-digit",
            "fs-in-id", "u2028-and-nel-in-ids", "lone-cr-lines", "cr-cr-lf",
            "blank-line-before-header", "one-coordinate-in-three-spellings",
            "negative-zero-in-a-later-row", "23-char-coordinate", "24-char-coordinate",
            "scans-01-and-1"])
    def test_loadtxt_path_equals_csv_path(self, tmp_path, text):
        path = tmp_path / "meas.csv"
        path.write_bytes(text.encode())
        outcome = survey_outcome(load_measurements, path)
        assert not isinstance(outcome, str), outcome
        assert outcome == csv_path_outcome(path)

    # Scans that int() rejects or int64 cannot hold.
    @pytest.mark.parametrize("scan", ["1.5", "1.0", "1e2", "12345678901234567890",
                                      "9223372036854775808"])
    def test_scan_that_int_rejects_declines(self, tmp_path, scan):
        text = f"{HEADER}\nrp0,1,2,1.2,ap01,-50,0\nrp0,1,2,1.2,ap01,-51,{scan}\n"
        path = tmp_path / "meas.csv"
        path.write_bytes(text.encode())
        with pytest.raises(InputError) as excinfo:
            load_measurements(path)
        assert f"InputError: {excinfo.value}" == csv_path_outcome(path)
        assert outcome_beside_a_stale_lanes_file(path) == csv_path_outcome(path)

    def test_scan_over_int64_in_a_later_row_declines(self, tmp_path):
        # Scan tokens are read once each, and the first rows' all fit int64.
        text = (f"{HEADER}\nrp0,1,2,1.2,ap01,-50,0\nrp1,3,2,1.2,ap01,-60,1\n"
                "rp1,3,2,1.2,ap01,-61,0\nrp0,1,2,1.2,ap01,-51,9223372036854775808\n")
        path = tmp_path / "meas.csv"
        path.write_bytes(text.encode())
        with pytest.raises(InputError) as excinfo:
            load_measurements(path)
        assert f"InputError: {excinfo.value}" == csv_path_outcome(path)
        assert outcome_beside_a_stale_lanes_file(path) == csv_path_outcome(path)

    def test_round_trip_of_ids_that_need_quoting(self, tmp_path):
        records = [
            MeasurementRecord('rp,"0"', Point3(1.25, 2.5, 1.2), "ap01", -51.375, 0),
            MeasurementRecord('rp,"0"', Point3(1.25, 2.5, 1.2), 'a,"p"', None, 1),
            MeasurementRecord("#rp1", Point3(3.0, -0.0, 1.2), 'a,"p"', -70.0, 0),
        ]
        path = tmp_path / "meas.csv"
        save_measurements(measurement_set(records), path)
        loaded = load_measurements(path)
        assert list(loaded.records) == records
        assert survey_outcome(load_measurements, path) == csv_path_outcome(path)

    def test_rss_range_validated(self):
        with pytest.raises(ValueError):
            MeasurementRecord("rp", Point3(0, 0, 0), "ap", 5.0, 0)

    @staticmethod
    def two_row_survey(rp_index, ap_index, scan):
        return MeasurementSet(["a", "b"], [[0, 0, 0], [1, 1, 1]], ["x"], rp_index, ap_index,
                              [-50, -60], [True, False], scan)

    @pytest.mark.parametrize("columns, name", [
        (([0.7, 1.9], [0, 0], [0, 3]), "rp_index"),
        (([0, 1], [0, 0.5], [0, 3]), "ap_index"),
        (([0, 1], [0, 0], [0.2, 3.9]), "scan"),
        (([0, 1], [0, 0], [np.nan, 3]), "scan"),
        (([0, 1], [0, 0], [2.0**63, 3]), "scan"),
    ])
    def test_fractional_index_or_scan_rejected(self, columns, name):
        with pytest.raises(ValueError, match=f"^{name} value"):
            self.two_row_survey(*columns)

    def test_whole_float_columns_accepted(self):
        meas = self.two_row_survey([0.0, 1.0], [0.0, 0.0], [0.0, 1.0])
        assert meas.rp_index.tolist() == [0, 1] and meas.ap_index.tolist() == [0, 0]
        assert meas.scan.tolist() == [0, 1]
        assert meas.rp_index.dtype == np.intp and meas.scan.dtype == np.int64

    def test_inconsistent_location_rejected(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(f"{HEADER}\nrp000,1,2,1.2,ap01,-50.0,0\nrp000,9,2,1.2,ap01,-50.0,1\n")
        with pytest.raises(InputError, match="'rp000' has inconsistent coordinates"):
            load_measurements(path)
        assert csv_path_outcome(path) == survey_outcome(load_measurements, path)
        assert outcome_beside_a_stale_lanes_file(path) == csv_path_outcome(path)


class TestSurveyLanesFile:
    """``load_measurements`` reads the lanes file beside the survey file only when
    it was written with the survey file's bytes and its arrays are the ones it
    was written with; otherwise it parses the CSV."""

    @pytest.fixture
    def counted_parses(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(None)
            return read_csv(*args)

        monkeypatch.setattr(fitting, "read_csv", counting)
        return calls

    def test_save_writes_the_lanes_file_beside_the_survey(self, tmp_path, counted_parses):
        meas = two_point_survey()
        path = tmp_path / "meas.csv"
        save_measurements(meas, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["meas.csv", "meas.csv.lanes"]
        data = sidecar_path(path).read_bytes()
        header, arrays = data.split(b"\n", 1)
        assert json.loads(header) == {
            "format": "radioloc-survey-lanes/1",
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "arrays_sha256": hashlib.sha256(arrays).hexdigest(),
            "rows": 3, "rp_ids": ["a", "b"], "ap_ids": ["x"]}
        assert arrays == b"".join([
            meas.xyz.astype("<f8").tobytes(), np.array([0, 1, 1], "<i8").tobytes(),
            np.zeros(3, "<i8").tobytes(), np.array([-50.0, -60.0, np.nan], "<f8").tobytes(),
            bytes([1, 1, 0]), np.array([0, 0, 1], "<i8").tobytes()])
        assert survey_outcome(load_measurements, path) == csv_path_outcome(path)
        assert counted_parses == []

    @pytest.mark.parametrize("damage", [
        lambda data: data[:-1],
        lambda data: data + b"\0",
        lambda data: data[:-8] + np.int64(0).tobytes(),  # the last scan, header copied
        lambda data: data.replace(b'"rows": 3', b'"rows": 2', 1),
        lambda data: data.replace(b"radioloc-survey-lanes/1", b"radioloc-lanes/1", 1),
        lambda data: b"",
    ], ids=["truncated", "longer", "edited-array", "wrong-count", "wrong-format", "empty"])
    def test_malformed_lanes_file_reads_the_csv(self, tmp_path, counted_parses, damage):
        path = tmp_path / "meas.csv"
        save_measurements(two_point_survey(), path)
        want = csv_path_outcome(path)
        sidecar_path(path).write_bytes(damage(sidecar_path(path).read_bytes()))
        assert survey_outcome(load_measurements, path) == want
        assert len(counted_parses) == 1

    @pytest.mark.parametrize("offset, value", [
        (24 * 2 + 8 * 3 * 2, np.float64(5.0).tobytes()),  # the first RSS, above 0 dBm
        (0, np.float64(np.inf).tobytes()),  # the first coordinate
        (24 * 2 + 8 * 3 * 3, b"\x02"),  # the first detected flag
        (24 * 2, np.int64(2).tobytes()),  # the first row's point index
    ], ids=["rss-above-range", "inf-coordinate", "flag-2", "index-out-of-range"])
    def test_lanes_values_are_checked_like_the_csv(self, tmp_path, counted_parses, offset,
                                                   value):
        path = tmp_path / "meas.csv"
        save_measurements(two_point_survey(), path)
        want = csv_path_outcome(path)
        data = bytearray(sidecar_path(path).read_bytes())
        start = data.index(b"\n") + 1 + offset
        data[start:start + len(value)] = value
        sidecar_path(path).write_bytes(with_arrays_digest(data))
        assert survey_outcome(load_measurements, path) == want
        assert len(counted_parses) == 1

    def test_survey_with_repeated_ids_is_written_alone(self, tmp_path, counted_parses):
        path = tmp_path / "meas.csv"
        save_measurements(two_point_survey(), path)
        stale = sidecar_path(path).read_bytes()
        # Two points named "a" at one position read back as one point, and
        # at two positions as an error; two APs named "x" as one AP.
        for rp_ids, xyz, ap_ids in ((["a", "a"], [[0.0, 0.0, 1.2]] * 2, ["x", "y"]),
                                    (["a", "a"], [[0.0, 0.0, 1.2], [1, 1, 1.2]], ["x", "y"]),
                                    (["a", "b"], [[0.0, 0.0, 1.2], [1, 1, 1.2]], ["x", "x"])):
            meas = MeasurementSet(rp_ids, xyz, ap_ids, [0, 1], [0, 1], [-50.0, -60.0],
                                  [True, True], [0, 0])
            save_measurements(meas, path)
            assert sidecar_path(path).read_bytes() == stale
            assert survey_outcome(load_measurements, path) == csv_path_outcome(path)
        assert len(counted_parses) == 3
        assert csv_path_outcome(path)[1] == ["x"]

    def test_survey_beside_a_stale_lanes_file_is_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "meas.csv"
        save_measurements(two_point_survey(), path)
        meas = MeasurementSet(["a", "a"], [[0.0, 0.0, 1.2]] * 2, ["x", "y"], [0, 1], [0, 1],
                              [-50.0, -60.0], [True, True], [0, 0])
        save_measurements(meas, path)  # repeated ids: the earlier lanes file stays
        want = csv_path_outcome(path)
        opened = []
        real_open = io.open

        def counting(file, *args, **kwargs):
            opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
            return real_open(file, *args, **kwargs)

        # Path.read_bytes opens through io.open, and a bare open() is builtins.open.
        monkeypatch.setattr(io, "open", counting)
        monkeypatch.setattr(builtins, "open", counting)
        got = survey_outcome(load_measurements, path)
        monkeypatch.undo()
        assert got == want
        assert opened.count(os.fspath(path)) == 1
        assert opened.count(os.fspath(sidecar_path(path))) == 1

    def test_directory_at_the_lanes_path_replaces_neither_file(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("old")
        sidecar_path(path).mkdir()
        with pytest.raises(IsADirectoryError):
            save_measurements(two_point_survey(), path)
        assert path.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["meas.csv", "meas.csv.lanes"]

    # A 40-character id: over a limit of 39, the CSV's parse fails, so the
    # lanes file is not read; under a limit below the longest number a survey
    # file may hold, the CSV is parsed too, whatever its numbers.
    @pytest.mark.parametrize("limit, parses", [(39, 1), (40, 0), (23, 1)])
    def test_field_size_limit_decides_the_reader(self, tmp_path, counted_parses, limit,
                                                 parses):
        meas = MeasurementSet(["p" * 40], [[0.0, 0.0, 1.2]], ["x"], [0], [0], [-50.0],
                              [True], [0])
        path = tmp_path / "meas.csv"
        save_measurements(meas, path)
        old = csv.field_size_limit(limit)
        try:
            outcome = survey_outcome(load_measurements, path)
            assert outcome == csv_path_outcome(path)
        finally:
            csv.field_size_limit(old)
        assert len(counted_parses) == parses
        assert ("field larger than field limit (39)" in outcome) == (limit == 39)


class TestFitResultIo:
    @pytest.mark.parametrize("edit, error, message", [
        (lambda doc: doc["params"].update(gamma=True), TypeError, "number, got true"),
        (lambda doc: doc.update(m_used=True), TypeError, "number, got true"),
        (lambda doc: doc.update(residual_rms_db=False), TypeError, "number, got false"),
        (lambda doc: doc.update(m_used=2.7), ValueError, "integer, got 2.7"),
        (lambda doc: doc.update(m_used=float("inf")), ValueError, "integer, got inf"),
    ], ids=["gamma-true", "m-used-true", "rms-false", "m-used-2.7", "m-used-inf"])
    def test_rejects_booleans_and_fractional_m_used(self, edit, error, message):
        result = FitResult({"a": PropagationParams()}, 1.5, 12, ModelKind.MWMF,
                           StrategyKind.ENVIRONMENT)
        doc = fit_result_to_dict(result)
        doc["m_used"] = 12.0  # a whole float is the integer it spells
        assert fit_result_from_dict(doc) == result
        edit(doc)
        with pytest.raises(error, match=message):
            fit_result_from_dict(doc)

    def test_shared_params_round_trip(self, tmp_path):
        plan, aps, truth = tiny_world()
        meas = synth_measurements(plan, aps, {ap.id: truth for ap in aps},
                                  survey_points())
        result = fit(FitStrategy.environment(), ModelKind.MWMF, plan, aps, meas)
        path = tmp_path / "fit.json"
        save_fit_result(result, path)
        loaded = load_fit_result(path)
        assert loaded.strategy is StrategyKind.ENVIRONMENT
        assert loaded.model is ModelKind.MWMF
        assert loaded.m_used == result.m_used
        assert loaded.params_for("a") == result.params_for("a")
        assert loaded.params_for("a") is loaded.params_for("b")

    def test_per_ap_round_trip(self):
        plan, aps, _ = tiny_world()
        truths = {
            "a": PropagationParams(gamma=2.2, wall_db=4.0, door_db=1.0),
            "b": PropagationParams(gamma=3.0, wall_db=6.0, door_db=2.0),
        }
        meas = synth_measurements(plan, aps, truths, survey_points())
        result = fit(FitStrategy(StrategyKind.PER_AP), ModelKind.MWMF, plan, aps, meas)
        doc = fit_result_to_dict(result)
        assert "params_by_ap" in doc
        loaded = fit_result_from_dict(doc)
        for ap in aps:
            assert loaded.params_for(ap.id) == result.params_for(ap.id)
