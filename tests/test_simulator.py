import json

import numpy as np
import pytest

from radioloc.errors import GeometryError, InputError
from radioloc.fitting import FitStrategy, fit
from radioloc.floorplan import ObstacleFamily, Point3
from radioloc.positioning import WknnConfig, locate
from radioloc.propagation import ModelKind
from radioloc.radiomap import (
    Radiomap,
    build_real_fingerprints,
    generate_virtual_fingerprints,
)
from radioloc.simulator import (
    DV_GRID,
    MAX_CAMPAIGN_SCANS,
    NoiseConfig,
    ScenarioPreset,
    WorldSpec,
    check_campaign_size,
    grid_rp_positions,
    make_world,
    preset_by_name,
    simulate_campaign,
    template_info,
    template_test_positions,
)

from helpers import CUSTOM_WORLD, count_crossing_calls, most_scans_per_pair


class TestTemplates:
    def test_spinv_like_shape(self):
        world = make_world("spinv_like", 3)
        assert world.plan.area == pytest.approx(504.0)
        assert len(world.aps) == 7
        assert all(ap.eirp_dbm == 20.0 for ap in world.aps)

    def test_twist_like_shape(self):
        world = make_world("twist_like", 3)
        assert world.plan.area == pytest.approx(450.0)
        assert len(world.aps) == 4

    def test_same_seed_same_world(self):
        a = make_world("spinv_like", 11)
        b = make_world("spinv_like", 11)
        assert a.plan == b.plan
        assert a.aps == b.aps
        assert a.truth_for("ap01") == b.truth_for("ap01")
        np.testing.assert_array_equal(a.obstacle_loss_offsets_db,
                                      b.obstacle_loss_offsets_db)

    def test_different_seeds_differ(self):
        assert make_world("spinv_like", 1).plan != make_world("spinv_like", 2).plan

    def test_walls_and_doors_present(self):
        world = make_world("spinv_like", 5)
        families = {o.family for o in world.plan.obstacles}
        assert families == {ObstacleFamily.WALL, ObstacleFamily.DOOR}

    def test_template_info_grids(self):
        info = template_info("spinv_like")
        assert info.n_rp_grid == (8, 15, 36, 72)
        assert DV_GRID == (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)
        assert info.dv_max == 10.0
        assert template_info("twist_like").n_rp_grid == (5, 9, 21, 41)

    def test_unknown_template(self):
        with pytest.raises(ValueError):
            make_world("nonexistent", 0)

    def test_custom_template(self, tmp_path):
        path = tmp_path / "world.json"
        path.write_text(json.dumps(CUSTOM_WORLD))
        world = make_world("custom", 7, custom_file=path)
        assert world.plan.area == 200.0
        assert world.truth_for("x").gamma == 2.5
        with pytest.raises(InputError):
            make_world("custom", 7, custom_file=tmp_path / "missing.json")

    def test_ap_outside_bounds_rejected(self):
        world = make_world("spinv_like", 1)
        from radioloc.propagation import AccessPoint

        bad = [AccessPoint("far", Point3(1000.0, 0.0, 2.8))]
        with pytest.raises(GeometryError):
            WorldSpec(plan=world.plan, aps=bad, truth={"far": world.truth_for("ap01")},
                      noise=NoiseConfig.none())


class TestGridPositions:
    def test_published_counts(self):
        spinv = make_world("spinv_like", 1)
        info = template_info("spinv_like")
        assert len(grid_rp_positions(spinv.plan, info.dr_max)) == 72
        twist = make_world("twist_like", 1)
        assert len(grid_rp_positions(twist.plan, template_info("twist_like").dr_max)) == 41

    def test_density_one_point(self):
        world = make_world("twist_like", 1)
        pts = grid_rp_positions(world.plan, 1.0 / world.plan.area)
        assert len(pts) == 1
        assert (pts[0].x, pts[0].y) == world.plan.bounds.center

    def test_nonpositive_density(self):
        world = make_world("twist_like", 1)
        with pytest.raises(ValueError):
            grid_rp_positions(world.plan, 0.0)


class TestPresets:
    def test_controlled(self):
        preset = ScenarioPreset.controlled()
        assert preset.q == 50 and preset.tp_scans == 50
        assert preset.device_bias_sigma_db == 0.0

    def test_crowdsourcing_like(self):
        preset = ScenarioPreset.crowdsourcing_like()
        assert preset.q == 5 and preset.tp_scans == 1
        assert preset.device_bias_sigma_db > 0

    def test_by_name(self):
        assert preset_by_name("controlled") == ScenarioPreset.controlled()
        with pytest.raises(ValueError):
            preset_by_name("unknown")


class TestCampaign:
    def test_noiseless_equals_truth_predictions(self):
        world = make_world("twist_like", 2, noise=NoiseConfig.none())
        rp = grid_rp_positions(world.plan, 21 / world.plan.area)
        meas, _ = simulate_campaign(world, rp, [], ScenarioPreset.controlled())
        means = meas.mean_matrix()
        from radioloc.propagation import predict_rss

        pairs = list(zip(*np.nonzero(~np.isnan(means))))
        assert pairs
        for i, j in pairs[:40]:
            ap = next(a for a in world.aps if a.id == meas.ap_ids()[j])
            expected = predict_rss(ModelKind.MWMF, world.truth_for(ap.id),
                                   world.plan, ap, Point3(*meas.xyz[i].tolist()))
            assert means[i, j] == pytest.approx(expected, abs=1e-9)

    def test_scan_count_and_nd_tokens(self):
        world = make_world("spinv_like", 2)
        rp = grid_rp_positions(world.plan, 8 / world.plan.area)
        meas, _ = simulate_campaign(world, rp, [], ScenarioPreset.controlled())
        assert most_scans_per_pair(meas) == 50
        assert len(meas.records) == len(rp) * len(world.aps) * 50
        # Heavy walls guarantee some links are below the detection floor.
        assert any(r.rss_dbm is None for r in meas.records)

    def test_reproducibility_bit_identical(self):
        world = make_world("spinv_like", 9)
        rp = grid_rp_positions(world.plan, 15 / world.plan.area)
        tp = template_test_positions("spinv_like", 9, world.plan, 5)
        m1, t1 = simulate_campaign(world, rp, tp, ScenarioPreset.controlled())
        m2, t2 = simulate_campaign(world, rp, tp, ScenarioPreset.controlled())
        assert list(m1.records) == list(m2.records)
        assert len(t1) == len(t2) == 5
        assert all(a.position == b.position and a.fingerprint == b.fingerprint
                   for a, b in zip(t1, t2))

    def test_truth_counts_each_ap_once(self, monkeypatch):
        world = make_world("twist_like", 3)
        rp = grid_rp_positions(world.plan, 15 / world.plan.area)
        tp = template_test_positions("twist_like", 3, world.plan, 7)
        calls = count_crossing_calls(monkeypatch)
        simulate_campaign(world, rp, tp, ScenarioPreset.crowdsourcing_like())
        # One call per AP, over the survey and the targets together.
        assert len(calls) == len(world.aps) and set(calls.values()) == {1}
        assert {tx for tx, _ in calls} == {ap.position for ap in world.aps}

    def test_survey_and_targets_do_not_depend_on_each_other(self):
        world = make_world("spinv_like", 4)
        rp = grid_rp_positions(world.plan, 15 / world.plan.area)
        tp = template_test_positions("spinv_like", 4, world.plan, 9)
        preset = ScenarioPreset.crowdsourcing_like()
        meas, tps = simulate_campaign(world, rp, tp, preset)
        alone, _ = simulate_campaign(world, rp, [], preset)
        _, other = simulate_campaign(world, rp[:2], tp, preset)
        assert meas.rss.tobytes() == alone.rss.tobytes()
        assert [t.fingerprint for t in tps] == [t.fingerprint for t in other]

    def test_scan_averaging_reduces_noise(self):
        # With q scans of sigma fast fading and nothing else, the averaged
        # fingerprint error should shrink like sigma/sqrt(q).
        noise = NoiseConfig(shadowing_sigma_db=3.0, slow_fading_sigma_db=0.0,
                            mismatch_sigma_db=0.0, drift_sigma_db=0.0,
                            wall_loss_spread_db=0.0)
        errors = []
        for seed in range(20):
            world = make_world("twist_like", seed, noise=noise)
            rp = grid_rp_positions(world.plan, 21 / world.plan.area)
            meas, _ = simulate_campaign(world, rp, [], ScenarioPreset.controlled())
            means = meas.mean_matrix()
            from radioloc.propagation import predict_rss

            for i, j in zip(*np.nonzero(~np.isnan(means))):
                ap = next(a for a in world.aps if a.id == meas.ap_ids()[j])
                truth = predict_rss(ModelKind.MWMF, world.truth_for(ap.id),
                                    world.plan, ap, Point3(*meas.xyz[i].tolist()))
                if truth > world.detection_floor_dbm + 5:  # avoid censoring bias
                    errors.append(means[i, j] - truth)
        std = float(np.std(errors))
        assert len(errors) > 500
        assert std == pytest.approx(3.0 / np.sqrt(50), rel=0.15)

    def test_positions_outside_bounds_rejected(self):
        world = make_world("twist_like", 1)
        with pytest.raises(GeometryError):
            simulate_campaign(world, [Point3(100, 1, 1.2)], [],
                              ScenarioPreset.controlled())

    def test_noiseless_pipeline_zero_error_at_virtual_rp(self):
        world = make_world("twist_like", 4, noise=NoiseConfig.none())
        world.detection_floor_dbm = -120.0  # keep every sample for the fit
        rp_positions = grid_rp_positions(world.plan, 41 / world.plan.area)
        probe = Point3(7.3, 4.1, 1.2)
        meas, tps = simulate_campaign(world, rp_positions, [probe],
                                      ScenarioPreset.controlled())
        result = fit(FitStrategy.environment(), ModelKind.MWMF, world.plan,
                     world.aps, meas)
        virtual = generate_virtual_fingerprints(
            result, ModelKind.MWMF, world.plan, world.aps,
            [probe, Point3(12.0, 8.0, 1.2)],
            sentinel_dbm=world.sentinel_dbm,
            detection_floor_dbm=world.detection_floor_dbm)
        real = build_real_fingerprints(meas, world.aps, world.sentinel_dbm)
        rmap = Radiomap(world.aps, real + virtual, area_m2=world.plan.area,
                        sentinel_dbm=world.sentinel_dbm)
        est = locate(rmap, tps[0].fingerprint, WknnConfig(k=3))
        assert abs(est.position.x - probe.x) < 1e-6
        assert abs(est.position.y - probe.y) < 1e-6

    def test_crowdsourcing_degrades_prediction(self):
        # Matched seeds: fewer scans per point must not improve the survey.
        from radioloc.evaluation import run_prediction_analysis

        worse = 0
        for seed in range(4):
            world = make_world("spinv_like", seed)
            rp = grid_rp_positions(world.plan, template_info("spinv_like").dr_max)
            deltas = {}
            for preset in (ScenarioPreset.controlled(),
                           ScenarioPreset.crowdsourcing_like()):
                meas, _ = simulate_campaign(world, rp, [], preset)
                report = run_prediction_analysis(
                    meas, world.plan, world.aps, [1.0],
                    [FitStrategy.environment()], [ModelKind.MWMF])
                deltas[preset.name] = report.cells[0].mean_delta_db
            worse += deltas["crowdsourcing"] >= deltas["controlled"]
        assert worse >= 3


class TestCampaignSize:
    """Oversized campaigns are refused by the count alone: nothing here draws a scan."""

    def test_default_campaigns_pass(self):
        for name in ("spinv_like", "twist_like"):
            info = template_info(name)
            n_aps = len(make_world(name, 1).aps)
            for preset in ("controlled", "crowdsourcing"):
                check_campaign_size(info.n_rp_total, info.n_test_points, n_aps,
                                    preset_by_name(preset))

    def test_the_cap_itself_passes(self):
        preset = ScenarioPreset("one-scan", q=1, tp_scans=1, device_bias_sigma_db=0.0)
        check_campaign_size(MAX_CAMPAIGN_SCANS - 3, 3, 1, preset)
        with pytest.raises(ValueError, match=f"would draw {MAX_CAMPAIGN_SCANS + 1:,} scans"):
            check_campaign_size(MAX_CAMPAIGN_SCANS - 3, 4, 1, preset)

    @pytest.mark.parametrize("n_rp, n_tp, scans", [
        (1e9 * 504.0, 31, "176,400,000,010,850"),  # simulate --dr 1e9 on spinv_like
        (72, 10**12, "350,000,000,025,200"),  # simulate --tp-count 1000000000000
        (1e308 * 504.0, 31, "inf"),  # a density whose count overflows
    ], ids=["dr-1e9", "tp-count-1e12", "overflow"])
    def test_oversized_flags_are_refused(self, n_rp, n_tp, scans):
        with pytest.raises(ValueError, match=f"would draw {scans} scans, more than 10,000,000"):
            check_campaign_size(n_rp, n_tp, 7, ScenarioPreset.controlled())
