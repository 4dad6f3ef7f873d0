import json
import math
import re
from collections import Counter

import numpy as np
import pytest

from radioloc import evaluation
from radioloc.errors import InputError
from radioloc.evaluation import (
    MAX_ALPHAS,
    EvalWorld,
    GainCell,
    GainReport,
    KestCell,
    KestReport,
    PositioningCell,
    PositioningReport,
    PredictionCell,
    PredictionReport,
    alpha_grid,
    boxplot_stats,
    build_world,
    cdf_points,
    emit_report,
    emit_report_pair,
    load_report,
    run_kest_sweep,
    run_positioning_sweep,
    run_prediction_analysis,
)
from radioloc.fitting import FitStrategy, StrategyKind
from radioloc.positioning import WknnConfig, locate
from radioloc.propagation import ModelKind
from radioloc.floorplan import points_xyz
from radioloc.radiomap import Fingerprint, Radiomap, build_real_fingerprints, place_virtual_rps
from radioloc.simulator import NoiseConfig, ScenarioPreset, template_info

from helpers import count_crossing_calls, mean_delta, reference_report_text, written_report_pair


@pytest.fixture(scope="module")
def clean_world():
    # Seed chosen so that even the smallest survey subset keeps every
    # per-AP system full rank; the floor is disabled so nothing is censored.
    world, spec = build_world("spinv_like", 4, noise=NoiseConfig.none())
    return world, spec


@pytest.fixture(scope="module")
def noisy_world():
    world, spec = build_world("spinv_like", 0)
    return world, spec


def rebuild_noiseless(seed=4):
    from radioloc.simulator import (
        grid_rp_positions,
        make_world,
        simulate_campaign,
        template_test_positions,
    )

    spec = make_world("spinv_like", seed, noise=NoiseConfig.none())
    spec.detection_floor_dbm = -120.0
    info = template_info("spinv_like")
    rp = grid_rp_positions(spec.plan, info.dr_max)
    tp = template_test_positions("spinv_like", seed, spec.plan)
    meas, tps = simulate_campaign(spec, rp, tp, ScenarioPreset.controlled())
    return EvalWorld(plan=spec.plan, aps=spec.aps, measurements=meas,
                     tp_pos=points_xyz([tp.position for tp in tps]),
                     tp_rss=np.array([tp.fingerprint.rss for tp in tps]),
                     sentinel_dbm=spec.sentinel_dbm,
                     detection_floor_dbm=spec.detection_floor_dbm,
                     seed=spec.seed), spec


class TestStatsHelpers:
    def test_cdf_points(self):
        cdf = cdf_points([3.0, 1.0, 2.0, 2.0])
        values = [v for v, _ in cdf]
        fractions = [f for _, f in cdf]
        assert values == sorted(values)
        assert fractions == [0.25, 0.5, 0.75, 1.0]
        assert cdf[-1][1] == 1.0

    def test_boxplot_stats_iqr_rule(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 100.0]
        stats = boxplot_stats(values)
        assert stats["min"] == 1.0 and stats["max"] == 100.0
        assert stats["p50"] == pytest.approx(3.5)
        assert 100.0 in stats["outliers"]
        assert 5.0 not in stats["outliers"]


class TestPredictionAnalysis:
    def test_noiseless_exact(self):
        world, _ = rebuild_noiseless()
        report = run_prediction_analysis(
            world.measurements, world.plan, world.aps, [0.1, 0.2, 0.5, 1.0],
            [FitStrategy.environment(), FitStrategy(StrategyKind.PER_AP)],
            [ModelKind.MWMF])
        for cell in report.cells:
            assert cell.error is None
            assert cell.mean_delta_db <= 1e-6

    def test_rho_counts(self):
        world, _ = rebuild_noiseless()
        report = run_prediction_analysis(
            world.measurements, world.plan, world.aps, [0.1, 1.0],
            [FitStrategy.environment()], [ModelKind.MWMF])
        assert report.cells[0].n_rps_fit == 8
        assert report.cells[1].n_rps_fit == 72

    def test_more_data_does_not_hurt(self, noisy_world):
        world, _ = noisy_world
        report = run_prediction_analysis(
            world.measurements, world.plan, world.aps, [0.1, 1.0],
            [FitStrategy.environment()], [ModelKind.MWMF])
        full = mean_delta(report, 1.0, "environment", "mwmf")
        sparse = mean_delta(report, 0.1, "environment", "mwmf")
        assert full <= sparse + 0.5

    def test_mwmf_beats_os_on_walled_world(self, noisy_world):
        world, _ = noisy_world
        report = run_prediction_analysis(
            world.measurements, world.plan, world.aps, [1.0],
            [FitStrategy.environment()],
            [ModelKind.MWMF, ModelKind.ONE_SLOPE])
        assert (mean_delta(report, 1.0, "environment", "mwmf")
                < mean_delta(report, 1.0, "environment", "os"))

    def test_bad_rho_rejected(self, noisy_world):
        world, _ = noisy_world
        with pytest.raises(ValueError):
            run_prediction_analysis(world.measurements, world.plan, world.aps,
                                    [0.0], [FitStrategy.environment()],
                                    [ModelKind.MWMF])


class TestPositioningSweep:
    def test_baseline_cell_is_pure_real_fingerprinting(self, noisy_world):
        world, _ = noisy_world
        info = template_info("spinv_like")
        report, _ = run_positioning_sweep(world, [info.dr_max], [])
        cell = report.cell(info.dr_max, 0.0)
        assert cell.n_virtual == 0 and cell.n_real == 72

        # Independent recomputation of the same cell at one k via locate().
        rps = build_real_fingerprints(world.measurements, world.aps,
                                      world.sentinel_dbm)
        rmap = Radiomap(world.aps, rps, area_m2=world.area,
                        sentinel_dbm=world.sentinel_dbm)
        k = cell.k_opt
        errors = []
        for rss, pos in zip(world.tp_rss, world.tp_pos.tolist()):
            est = locate(rmap, Fingerprint(rss), WknnConfig(k=k))
            errors.append(math.dist(
                (est.position.x, est.position.y, est.position.z), pos))
        assert np.mean(errors) == pytest.approx(cell.mean_error_at(k), abs=1e-9)
        np.testing.assert_allclose(sorted(errors), sorted(cell.errors_at_k_opt),
                                   atol=1e-9)

    def test_mean_error_is_arithmetic_mean(self, noisy_world):
        world, _ = noisy_world
        info = template_info("spinv_like")
        report, _ = run_positioning_sweep(world, [info.dr_grid[0]], [1.0])
        cell = report.cell(info.dr_grid[0], 1.0)
        assert cell.mean_error_at_k_opt == pytest.approx(
            float(np.mean(cell.errors_at_k_opt)), rel=1e-12)

    def test_gain_identity(self, noisy_world):
        world, _ = noisy_world
        info = template_info("spinv_like")
        report, gain = run_positioning_sweep(world, [info.dr_grid[0]], [1.0, 10.0])
        for cell in gain.cells:
            base = report.cell(cell.d_real, 0.0).mean_error_at(cell.k_baseline)
            with_virtual = report.cell(cell.d_real, cell.d_virtual).mean_error_at(
                cell.k_cell)
            assert cell.gain * with_virtual == pytest.approx(base, rel=1e-12)
            assert cell.gain > 0

    def test_quartiles_ordered(self, noisy_world):
        world, _ = noisy_world
        info = template_info("spinv_like")
        report, _ = run_positioning_sweep(world, [info.dr_grid[0]], [1.0])
        for cell in report.cells:
            for i in range(len(cell.k_values)):
                assert (cell.min_by_k[i] <= cell.p25_by_k[i] <= cell.p50_by_k[i]
                        <= cell.p75_by_k[i] <= cell.max_by_k[i])


class TestGeometryReuse:
    DV_GRID = [0.1, 1.0, 5.0]

    def test_sweep_counts_each_virtual_position_set_once(self, noisy_world, monkeypatch):
        world, _ = noisy_world
        dr_grid = template_info("spinv_like").dr_grid
        calls = count_crossing_calls(monkeypatch)
        report, _ = run_positioning_sweep(world, dr_grid, self.DV_GRID)
        assert len(dr_grid) == 4 and not any(c.error for c in report.cells)
        for dv in self.DV_GRID:
            positions = place_virtual_rps(world.plan, dv).tobytes()
            assert [calls[(ap.position, positions)] for ap in world.aps] == [1] * len(world.aps)

    @pytest.mark.parametrize("placement", ["grid", "random"])
    def test_grid_placed_once_per_d_virtual(self, noisy_world, monkeypatch, placement):
        world, _ = noisy_world
        dr_grid = template_info("spinv_like").dr_grid
        calls = Counter()
        original = evaluation.place_virtual_rps

        def counting(plan, d_virtual, *args, **kwargs):
            calls[d_virtual] += 1
            return original(plan, d_virtual, *args, **kwargs)

        monkeypatch.setattr(evaluation, "place_virtual_rps", counting)
        report, _ = run_positioning_sweep(world, dr_grid, self.DV_GRID, placement=placement)
        assert not any(c.error for c in report.cells)
        per_dv = 1 if placement == "grid" else len(dr_grid)  # random draws a set per cell
        assert calls == {dv: per_dv for dv in self.DV_GRID}

    def test_prediction_analysis_counts_survey_links_once(self, noisy_world, monkeypatch):
        world, _ = noisy_world
        calls = count_crossing_calls(monkeypatch)
        run_prediction_analysis(world.measurements, world.plan, world.aps, [0.2, 0.5, 1.0],
                                [FitStrategy.environment()], [ModelKind.MWMF])
        survey = world.measurements.xyz.tobytes()
        assert [calls[(ap.position, survey)] for ap in world.aps] == [1] * len(world.aps)
        # No other search runs on survey points, the fit's included.
        points = set(map(tuple, world.measurements.xyz.tolist()))
        on_survey = Counter()
        for (tx, pts), n in calls.items():
            if set(map(tuple, np.frombuffer(pts).reshape(-1, 3).tolist())) <= points:
                on_survey[tx] += n
        assert [on_survey[ap.position] for ap in world.aps] == [1] * len(world.aps)

    def test_one_slope_makes_no_crossing_calls(self, noisy_world, monkeypatch):
        world, _ = noisy_world
        calls = count_crossing_calls(monkeypatch)
        report, _ = run_positioning_sweep(world, template_info("spinv_like").dr_grid,
                                          self.DV_GRID, model=ModelKind.ONE_SLOPE)
        run_prediction_analysis(world.measurements, world.plan, world.aps, [0.2, 1.0],
                                [FitStrategy.environment()], [ModelKind.ONE_SLOPE])
        assert not any(c.error for c in report.cells)
        assert sum(calls.values()) == 0


class TestKestSweep:
    def test_beta_nonnegative_and_zero_at_kopt(self, noisy_world):
        world, _ = noisy_world
        info = template_info("spinv_like")
        positioning, _ = run_positioning_sweep(world, [info.dr_grid[0]], [1.0])
        cell = positioning.cell(info.dr_grid[0], 1.0)
        n = cell.n_real + cell.n_virtual
        report = run_kest_sweep(positioning, [info.dr_grid[0]], 1.0,
                                alpha_range=(0.01, 0.25), alpha_step=0.01)
        assert all(c.beta_m >= 0 for c in report.cells)
        # An alpha that lands exactly on k_opt must give beta == 0.
        alpha_exact = cell.k_opt / n
        extra = run_kest_sweep(positioning, [info.dr_grid[0]], 1.0,
                               alpha_range=(alpha_exact, alpha_exact), alpha_step=1.0)
        assert extra.cells[0].k_est == cell.k_opt
        assert extra.cells[0].beta_m == 0.0

    def test_tiny_alpha_takes_one_neighbor(self, noisy_world):
        world, _ = noisy_world
        info = template_info("spinv_like")
        positioning, _ = run_positioning_sweep(world, [info.dr_grid[0]], [1.0])
        cell = positioning.cell(info.dr_grid[0], 1.0)
        report = run_kest_sweep(positioning, [info.dr_grid[0]], 1.0,
                                alpha_range=(1e-300, 1e-300))
        assert [(c.alpha, c.k_est) for c in report.cells] == [(1e-300, 1)]
        assert report.cells[0].mean_error_kest_m == cell.mean_error_at(1)

    def test_alpha_grid_contains_bounds(self, noisy_world):
        world, _ = noisy_world
        info = template_info("spinv_like")
        positioning, _ = run_positioning_sweep(world, [info.dr_grid[0]], [1.0])
        report = run_kest_sweep(positioning, [info.dr_grid[0]], 1.0)
        alphas = sorted({c.alpha for c in report.cells})
        assert alphas[0] == 0.01 and alphas[-1] == 0.25
        assert 0.05 in alphas
        assert len(alphas) == 25

    def test_alpha_grid_default_and_size_cap(self):
        assert alpha_grid() == [i / 100 for i in range(1, 26)]
        assert len(alpha_grid((1e-4, 1.0), 1e-4)) == MAX_ALPHAS
        with pytest.raises(ValueError, match=f"more than {MAX_ALPHAS}"):
            alpha_grid((1e-4, 1.0), 9.9e-5)

    # Steps whose grid would never end or would repeat alphas: 0.01 + i * 1e-300
    # formats to 0.01 for every i, and 0.24 / 5e-324 overflows to inf.
    @pytest.mark.parametrize("alpha_range, step, message", [
        ((0.01, 0.25), 1e-300, "more than"),
        ((0.01, 0.25), 5e-324, "more than"),
        ((0.01, 0.25), 1e-9, "more than"),
        ((0.5, 0.50000001), 1e-11, "resolution"),
        ((0.9, 0.9000001), 3e-11, "resolution"),
    ])
    def test_alpha_grid_rejects_unending_steps(self, alpha_range, step, message):
        with pytest.raises(ValueError, match=message):
            alpha_grid(alpha_range, step)
        report = PositioningReport(strategy="environment", model="mwmf", placement="grid")
        with pytest.raises(ValueError, match=message):
            run_kest_sweep(report, [0.1], 1.0, alpha_range=alpha_range, alpha_step=step)

    def test_validation(self):
        report = PositioningReport(strategy="environment", model="mwmf", placement="grid")
        with pytest.raises(ValueError):
            run_kest_sweep(report, [0.1], 0.0)
        with pytest.raises(ValueError):
            run_kest_sweep(report, [0.1], 1.0, alpha_range=(0.0, 0.1))
        for high in (1.5, 1e308):  # more neighbours than the map holds
            with pytest.raises(ValueError, match="<= 1"):
                run_kest_sweep(report, [0.1], 1.0, alpha_range=(0.1, high))
        for step in (0.0, -0.01):  # would never reach the top of the range
            with pytest.raises(ValueError):
                run_kest_sweep(report, [0.1], 1.0, alpha_step=step)


class TestReports:
    def test_empty_sweep_header_only_csv(self, tmp_path):
        report = PositioningReport(strategy="environment", model="mwmf",
                                   placement="grid", cells=[])
        path = tmp_path / "pos.csv"
        emit_report(report, path, fmt="csv")
        lines = path.read_text().splitlines()
        assert lines == ["d_real,d_virtual,k,strategy,model,mean_error_m,"
                         "p25,p50,p75,min,max,gain"]

    def test_positioning_csv_columns(self, noisy_world, tmp_path):
        world, _ = noisy_world
        info = template_info("spinv_like")
        report, gain = run_positioning_sweep(world, [info.dr_grid[0]], [1.0])
        path = tmp_path / "pos.csv"
        emit_report(report, path, fmt="csv")
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["d_real", "d_virtual", "k", "strategy", "model",
                          "mean_error_m", "p25", "p50", "p75", "min", "max", "gain"]
        assert len(lines) > 1

    def test_json_round_trip_all_report_types(self, noisy_world, tmp_path):
        world, _ = noisy_world
        info = template_info("spinv_like")
        positioning, gain = run_positioning_sweep(world, [info.dr_grid[0]], [1.0])
        kest = run_kest_sweep(positioning, [info.dr_grid[0]], 1.0)
        prediction = run_prediction_analysis(
            world.measurements, world.plan, world.aps, [1.0],
            [FitStrategy.environment()], [ModelKind.MWMF])
        for name, report in (("prediction", prediction), ("positioning", positioning),
                             ("gain", gain), ("kest", kest)):
            path = tmp_path / f"{name}.json"
            emit_report(report, path, fmt="json")
            assert load_report(path) == report

    def test_cdf_emitted_in_json(self, noisy_world, tmp_path):
        world, _ = noisy_world
        info = template_info("spinv_like")
        report, _ = run_positioning_sweep(world, [info.dr_grid[0]], [])
        path = tmp_path / "pos.json"
        emit_report(report, path, fmt="json")
        doc = json.loads(path.read_text())
        cdf = doc["cells"][0]["cdf_at_k_opt"]
        assert cdf[-1][1] == 1.0
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(GainReport(policy="per-cell-k-opt"), tmp_path / "x", fmt="xml")

    def test_gain_report_lookup(self):
        report = GainReport(policy="per-cell-k-opt",
                            cells=[GainCell(0.1, 1.0, 3, 5, 1.4)])
        assert report.gain(0.1, 1.0) == 1.4
        with pytest.raises(KeyError):
            report.gain(0.2, 1.0)


def _positioning_cell(d_real, d_virtual, k_values, scale, error=None):
    """A hand-built cell whose per-k statistics are distinct, non-zero floats."""
    if error:
        return PositioningCell(d_real, d_virtual, 3, 0, [], [], [], [], [], [], [], 0, [],
                               error=error)
    n = len(k_values)
    col = lambda offset: [scale * (offset + 0.1 * i + 1 / 3) for i in range(n)]  # noqa: E731
    errors = [scale * v for v in (0.25, 1.5, 2.0, -0.0, 7.125, 1e-5, 3.0, 1e16)]
    return PositioningCell(d_real, d_virtual, 12, 40 if d_virtual else 0, list(k_values),
                           col(1.0), col(0.5), col(0.9), col(1.4), col(0.0), col(3.0),
                           k_values[0], errors)


def hand_built_reports(strategy="environment"):
    """Reports with failed cells (NaN, empty lists), k grids with gaps, several d_real
    and d_virtual both 0 and > 0."""
    prediction = PredictionReport(cells=[
        PredictionCell(0.2, strategy, "mwmf", 4, 0, float("nan"), {}, {},
                       error='too few samples, "rho" 0.2'),
        PredictionCell(1.0, strategy, "mwmf", 20, 6, 2.5, {"ap01": 1.5, "ap02": -0.0},
                       {"ap01": [0.5, 2.5, 1.5], "ap02": [3.0, 1e-7, float("inf")]}),
    ])
    positioning = PositioningReport(strategy=strategy, model="mwmf", placement="grid", cells=[
        _positioning_cell(0.05, 0.0, [1, 3, 5], 1.0),
        _positioning_cell(0.05, 1.0, [1, 2, 3, 7], 0.75),
        _positioning_cell(0.05, 2.5, [5, 3], 0.5),
        _positioning_cell(0.1, 0.0, [], 1.0, error="degenerate fit"),
        _positioning_cell(0.1, 1.0, [], 1.0, error="degenerate fit"),
        _positioning_cell(0.2, 0.0, [1, 2], 1.25),
        _positioning_cell(0.2, 1.0, [1, 2], 1e-3),
        _positioning_cell(0.4, 1.0, [1], 2.0),  # no baseline: empty gains
    ])
    gain = GainReport(policy="per-cell-k-opt", cells=[
        GainCell(0.05, 1.0, 1, 1, 1.3333333333333333),
        GainCell(0.2, 1.0, 1, 2, float("nan")),
    ])
    kest = KestReport(cells=[
        KestCell(0.05, 2.5, 0.1, 3, 5, 1.5, 1.25, 0.25),
        KestCell(0.2, 1.0, 0.30000000000000004, 1, 1, 2.0, 2.0, 0.0),
    ])
    return {"prediction": prediction, "positioning": positioning, "gain": gain,
            "kest": kest}


class TestReportWriters:
    """Each report's CSV and JSON files are written in one pass, byte for byte as
    the ``asdict`` + ``json.dumps`` and ``csv.writer`` reference writes them."""

    @pytest.mark.parametrize("strategy", ["environment", 'a,"b"'])
    @pytest.mark.parametrize("name", ["prediction", "positioning", "gain", "kest"])
    def test_hand_built_reports_match_reference(self, tmp_path, name, strategy):
        report = hand_built_reports(strategy)[name]
        csv_text, json_text = written_report_pair(report, tmp_path)
        assert json_text == reference_report_text(report, "json")
        assert csv_text == reference_report_text(report, "csv")
        for fmt in ("csv", "json"):  # the one-file form writes the same bytes
            path = tmp_path / f"{name}.{fmt}"
            emit_report(report, path, fmt=fmt)
            assert path.read_bytes().decode() == reference_report_text(report, fmt)
        # repr, since NaN != NaN; it also tells 1 from 1.0 and -0.0 from 0.0.
        assert repr(load_report(tmp_path / f"{name}.json")) == repr(report)

    @pytest.mark.parametrize("name, edit, message", [
        ("gain", lambda cell: cell.update(gain=True, k_cell=2.7),
         "expected an integer, got 2.7"),
        ("gain", lambda cell: cell.update(gain=True), "expected a number, got true"),
        ("kest", lambda cell: cell.update(alpha=None), "must be a string or a real number"),
        ("positioning", lambda cell: cell.update(k_values="123"), "expected a list, got str"),
        ("positioning", lambda cell: cell.update(p50_by_k=[1.5, False]),
         "expected a number, got false"),
        ("prediction", lambda cell: cell.update(per_ap_mean_db={"ap01": True}),
         "expected a number, got true"),
        ("prediction", lambda cell: cell.update(per_ap_deltas={"ap01": [0.5, "x"]}),
         'expected a number, got "x"'),
        # float() would parse it; a number in quotes is still a string.
        ("gain", lambda cell: cell.update(gain="1.5"), 'expected a number, got "1.5"'),
    ], ids=["gain-and-k_cell", "gain", "alpha", "k_values", "p50_by_k", "per_ap_mean_db",
            "per_ap_deltas", "gain-string"])
    def test_load_rejects_a_numeric_field_of_the_wrong_type(self, tmp_path, name, edit,
                                                            message):
        path = tmp_path / f"{name}.json"
        emit_report(hand_built_reports()[name], path, fmt="json")
        doc = json.loads(path.read_text())
        edit(doc["cells"][-1])
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=re.escape(f"malformed report file {path}: ")
                           + ".*" + message):
            load_report(path)

    def test_missing_baseline_k_gives_empty_gain(self, tmp_path):
        csv_text, _ = written_report_pair(hand_built_reports()["positioning"], tmp_path)
        rows = csv_text.split("\r\n")
        gains = {tuple(r.split(",")[:3]): r.split(",")[-1] for r in rows[1:-1]}
        assert gains[("0.05", "1.0", "1")] != "" and gains[("0.05", "1.0", "2")] == ""
        assert gains[("0.05", "1.0", "7")] == "" and gains[("0.05", "0.0", "1")] == ""
        assert gains[("0.4", "1.0", "1")] == ""

    def test_zero_mean_error_gives_an_ieee_gain_like_the_reference(self, tmp_path):
        report = hand_built_reports()["positioning"]
        baseline, cell = report.cells[:2]  # d_real 0.05; k = 1 is first in both
        written = []
        for zeroed in (cell, baseline):
            zeroed.mean_error_by_k[0] = 0.0
            csv_text, json_text = written_report_pair(report, tmp_path)
            assert csv_text == reference_report_text(report, "csv")
            assert json_text == reference_report_text(report, "json")
            rows = csv_text.split("\r\n")
            gains = {tuple(r.split(",")[:3]): r.split(",")[-1] for r in rows[1:-1]}
            written.append(gains[("0.05", "1.0", "1")])
        # inf while only the cell's mean is 0, NaN once the baseline's is 0 too.
        assert written == ["inf", "nan"]

    def test_failed_render_keeps_the_old_files(self, tmp_path):
        csv_path, json_path = tmp_path / "gain.csv", tmp_path / "gain.json"
        csv_path.write_text("old csv")
        json_path.write_text("old json")
        report = GainReport(policy="per-cell-k-opt",
                            cells=[GainCell(0.1, 1.0, 3, 5, 1.4), GainCell(0.2, 1.0, 3, 5, {1})])
        with pytest.raises(TypeError):
            emit_report_pair(report, csv_path, json_path)
        assert (csv_path.read_text(), json_path.read_text()) == ("old csv", "old json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gain.csv", "gain.json"]

    def test_directory_target_replaces_neither_file(self, tmp_path):
        # The renames are one at a time: a directory in the pair is refused
        # before the first one, so the CSV beside it keeps its old bytes.
        csv_path, json_path = tmp_path / "gain.csv", tmp_path / "gain.json"
        csv_path.write_text("old csv")
        json_path.mkdir()
        with pytest.raises(IsADirectoryError, match=re.escape(str(json_path))):
            emit_report_pair(hand_built_reports()["gain"], csv_path, json_path)
        assert csv_path.read_text() == "old csv" and json_path.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gain.csv", "gain.json"]

    def test_symlink_to_a_directory_is_replaced(self, tmp_path):
        # A rename replaces the link itself, so the check does not follow it.
        csv_path, json_path = tmp_path / "gain.csv", tmp_path / "gain.json"
        (tmp_path / "d").mkdir()
        json_path.symlink_to("d")
        emit_report_pair(hand_built_reports()["gain"], csv_path, json_path)
        assert json_path.is_file() and not json_path.is_symlink()
        assert repr(load_report(json_path)) == repr(hand_built_reports()["gain"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "gain.csv", "gain.json"]

    def test_sweep_reports_match_reference(self, noisy_world, tmp_path):
        world, _ = noisy_world
        info = template_info("spinv_like")
        dr_grid = [info.dr_grid[0], info.dr_max]
        positioning, gain = run_positioning_sweep(world, dr_grid, [1.0, 10.0])
        kest = run_kest_sweep(positioning, dr_grid, 10.0)
        prediction = run_prediction_analysis(
            world.measurements, world.plan, world.aps, [0.5, 1.0],
            [FitStrategy.environment()], [ModelKind.MWMF])
        for report in (prediction, positioning, gain, kest):
            csv_text, json_text = written_report_pair(report, tmp_path)
            assert json_text == reference_report_text(report, "json")
            assert csv_text == reference_report_text(report, "csv")


class TestBuildWorld:
    def test_build_world_contract(self):
        world, spec = build_world("twist_like", 0)
        n = template_info("twist_like").n_test_points
        assert world.tp_pos.shape == (n, 3)
        assert world.tp_rss.shape == (n, len(world.aps))
        assert len(world.measurements.rp_ids()) == 41
        assert world.area == pytest.approx(450.0)
        assert spec.seed == 0
