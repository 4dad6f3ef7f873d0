"""Acceptance suite.

Each test exercises one acceptance criterion end to end on synthetic worlds
and prints a PASS/FAIL line with the measured numbers. Heavy sweeps are
computed once in module-scoped fixtures and shared across criteria.
"""

import time

import numpy as np
import pytest

from radioloc.cli import main as cli_main
from radioloc.evaluation import (
    build_world,
    run_kest_sweep,
    run_positioning_sweep,
    run_prediction_analysis,
)
from radioloc.fitting import FitStrategy, StrategyKind, fit
from radioloc.floorplan import Point3, count_obstructions
from radioloc.positioning import WknnConfig, locate
from radioloc.propagation import ModelKind, PropagationParams
from radioloc.radiomap import (
    Fingerprint,
    Radiomap,
    RpArrays,
    ceil_scaled,
    decimation_order,
)
from radioloc.simulator import (
    RHO_GRID,
    NoiseConfig,
    ScenarioPreset,
    grid_rp_positions,
    make_world,
    simulate_campaign,
    template_info,
)

from helpers import mean_delta, oracle_count_2d, oracle_wknn, random_plan, random_point

SEEDS = list(range(10))
TEMPLATES = ("spinv_like", "twist_like")
EXACT_RECOVERY_SEED = 4  # verified to keep every per-AP system full rank


def report_line(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# Shared sweeps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trend_sweeps():
    """Per template and seed: positioning/gain/kest sweeps over the full
    real-density grid at virtual densities {0, 10}."""
    t0 = time.perf_counter()
    results = {}
    for template in TEMPLATES:
        info = template_info(template)
        dr_grid = list(info.dr_grid)
        per_seed = []
        for seed in SEEDS:
            world, _ = build_world(template, seed)
            positioning, gain = run_positioning_sweep(world, dr_grid, [0.0, 10.0])
            kest = run_kest_sweep(positioning, dr_grid, 10.0)
            per_seed.append((positioning, gain, kest))
        results[template] = per_seed
    results["elapsed_s"] = time.perf_counter() - t0
    return results


@pytest.fixture(scope="module")
def prediction_worlds():
    """Default-noise worlds plus their ground truth, for the delta criteria."""
    worlds = {}
    for template in TEMPLATES:
        worlds[template] = [build_world(template, seed) for seed in SEEDS]
    return worlds


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_exact_recovery_oracle():
    """Noiseless world: the fit recovers its generators and predicts exactly.

    The detection floor is disabled; the exact-recovery argument presumes
    uncensored samples, and partial coverage is a separate concern.
    """
    t0 = time.perf_counter()
    spec = make_world("spinv_like", EXACT_RECOVERY_SEED, noise=NoiseConfig.none())
    spec.detection_floor_dbm = -120.0
    info = template_info("spinv_like")
    rp_positions = grid_rp_positions(spec.plan, info.dr_max)
    meas, _ = simulate_campaign(spec, rp_positions, [], ScenarioPreset.controlled())
    truth = spec.truth_for("ap01")

    worst_param = 0.0
    worst_delta = 0.0
    for strategy in (FitStrategy.environment(), FitStrategy(StrategyKind.PER_AP)):
        report = run_prediction_analysis(meas, spec.plan, spec.aps, RHO_GRID, [strategy],
                                         [ModelKind.MWMF])
        for cell in report.cells:
            assert cell.error is None, cell.error
            worst_delta = max(worst_delta, cell.mean_delta_db)
        order = decimation_order(meas.xyz)
        for rho in RHO_GRID:
            keep = order[:ceil_scaled(rho * len(order))]
            result = fit(strategy, ModelKind.MWMF, spec.plan, spec.aps,
                         meas.subset(keep))
            for params in result.params_by_ap.values():
                worst_param = max(
                    worst_param,
                    abs(params.gamma - truth.gamma),
                    abs(params.lc_db - truth.lc_db),
                    abs(params.wall_db - truth.wall_db),
                    abs(params.door_db - truth.door_db))
    elapsed = time.perf_counter() - t0
    ok = worst_param <= 1e-6 and worst_delta <= 1e-6 and elapsed < 5.0
    report_line("criterion 01 exact-recovery", ok,
                f"worst param err {worst_param:.2e}, worst mean delta "
                f"{worst_delta:.2e} dB, {elapsed:.1f}s")
    assert worst_param <= 1e-6
    assert worst_delta <= 1e-6
    assert elapsed < 5.0


def test_criterion_02_mwmf_beats_one_slope(prediction_worlds):
    """Fitted multi-wall predictions beat the one-slope model by >= 1 dB."""
    t0 = time.perf_counter()
    gaps = {}
    for template in TEMPLATES:
        per_seed = []
        for world, _ in prediction_worlds[template]:
            report = run_prediction_analysis(
                world.measurements, world.plan, world.aps, [1.0],
                [FitStrategy.environment()],
                [ModelKind.MWMF, ModelKind.ONE_SLOPE])
            per_seed.append(mean_delta(report, 1.0, "environment", "os")
                            - mean_delta(report, 1.0, "environment", "mwmf"))
        gaps[template] = float(np.mean(per_seed))
    elapsed = time.perf_counter() - t0
    ok = all(gap >= 1.0 for gap in gaps.values()) and elapsed < 60.0
    report_line("criterion 02 mwmf-vs-os", ok,
                ", ".join(f"{t}: gap {g:.2f} dB" for t, g in gaps.items())
                + f", {elapsed:.1f}s")
    for template, gap in gaps.items():
        assert gap >= 1.0, f"{template}: mean delta gap {gap:.2f} dB < 1"
    assert elapsed < 60.0


def test_criterion_03_no_fit_degradation(prediction_worlds):
    """Borrowed parameters off by +-30 percent cost >= 2 dB vs a sparse fit."""
    gaps = {}
    for template in TEMPLATES:
        per_seed = []
        for world, spec in prediction_worlds[template]:
            truth = spec.truth_for(spec.aps[0].id)
            signs = np.random.default_rng(world.seed + 1000).choice(
                [-1.0, 1.0], size=4)
            perturbed = PropagationParams(
                gamma=truth.gamma * (1 + 0.3 * signs[0]),
                lc_db=truth.lc_db * (1 + 0.3 * signs[1]),
                wall_db=truth.wall_db * (1 + 0.3 * signs[2]),
                door_db=truth.door_db * (1 + 0.3 * signs[3]))
            report = run_prediction_analysis(
                world.measurements, world.plan, world.aps, [0.1],
                [FitStrategy.environment(), FitStrategy.no_fit(perturbed)],
                [ModelKind.MWMF])
            per_seed.append(mean_delta(report, 0.1, "no-fit", "mwmf")
                            - mean_delta(report, 0.1, "environment", "mwmf"))
        gaps[template] = float(np.mean(per_seed))
    ok = all(gap >= 2.0 for gap in gaps.values())
    report_line("criterion 03 no-fit-degradation", ok,
                ", ".join(f"{t}: +{g:.1f} dB" for t, g in gaps.items()))
    for template, gap in gaps.items():
        assert gap >= 2.0, f"{template}: no-fit only {gap:.2f} dB worse"


def test_criterion_04_virtualization_gain_trend(trend_sweeps):
    """Dense virtual fingerprints help a sparse survey, not a full one."""
    stats = {}
    for template in TEMPLATES:
        info = template_info(template)
        g_min = [gain.gain(info.dr_grid[0], 10.0)
                 for _, gain, _ in trend_sweeps[template]]
        g_max = [gain.gain(info.dr_max, 10.0)
                 for _, gain, _ in trend_sweeps[template]]
        stats[template] = (float(np.mean(g_min)), float(np.mean(g_max)))
    elapsed = trend_sweeps["elapsed_s"]
    ok = (all(lo >= 1.2 and hi <= 1.15 for lo, hi in stats.values())
          and elapsed < 300.0)
    report_line("criterion 04 virtualization-gain", ok,
                ", ".join(f"{t}: G(dr_min)={lo:.2f}, G(dr_max)={hi:.2f}"
                          for t, (lo, hi) in stats.items())
                + f", sweeps {elapsed:.0f}s")
    for template, (lo, hi) in stats.items():
        assert lo >= 1.2, f"{template}: mean G(dr_min, dv=10) = {lo:.2f} < 1.2"
        assert hi <= 1.15, f"{template}: mean G(dr_max, dv=10) = {hi:.2f} > 1.15"
    assert elapsed < 300.0


def test_criterion_05_measurement_reduction(trend_sweeps):
    """A sparse survey plus virtual fingerprints matches the dense baseline."""
    ratios = {}
    for template in TEMPLATES:
        info = template_info(template)
        per_seed = []
        for positioning, _, _ in trend_sweeps[template]:
            sparse = positioning.cell(info.dr_grid[0], 10.0).mean_error_at_k_opt
            dense = positioning.cell(info.dr_max, 0.0).mean_error_at_k_opt
            per_seed.append(sparse / dense)
        ratios[template] = float(np.mean(per_seed))
    ok = all(r <= 1.2 for r in ratios.values())
    report_line("criterion 05 measurement-reduction", ok,
                ", ".join(f"{t}: ratio {r:.2f}" for t, r in ratios.items()))
    for template, ratio in ratios.items():
        assert ratio <= 1.2, (f"{template}: sparse+virtual error is {ratio:.2f}x "
                              "the dense-survey baseline")


def test_criterion_06_k_rule_validity(trend_sweeps):
    """The density-derived k at alpha=0.05 stays within 10% of the best k."""
    worst = {}
    for template in TEMPLATES:
        info = template_info(template)
        by_dr = {dr: [] for dr in info.dr_grid}
        for _, _, kest in trend_sweeps[template]:
            for cell in kest.cells:
                if abs(cell.alpha - 0.05) < 1e-9:
                    by_dr[cell.d_real].append(cell.beta_m / cell.mean_error_kopt_m)
        worst[template] = max(float(np.mean(v)) for v in by_dr.values())
    ok = all(w <= 0.10 for w in worst.values())
    report_line("criterion 06 k-rule", ok,
                ", ".join(f"{t}: worst mean beta/eps {w:.3f}"
                          for t, w in worst.items()))
    for template, value in worst.items():
        assert value <= 0.10, (f"{template}: beta(alpha=0.05) reaches "
                               f"{value:.3f} of the best-k error")


def test_criterion_07_k_opt_range(trend_sweeps):
    """Real-fingerprint maps keep their best k in the classic small range."""
    rates = {}
    for template in TEMPLATES:
        info = template_info(template)
        hits = total = 0
        for positioning, _, _ in trend_sweeps[template]:
            for dr in info.dr_grid:
                k_opt = positioning.cell(dr, 0.0).k_opt
                total += 1
                hits += 1 <= k_opt <= 12
        rates[template] = hits / total
    ok = all(rate >= 0.9 for rate in rates.values())
    report_line("criterion 07 k-opt-range", ok,
                ", ".join(f"{t}: {rate:.0%}" for t, rate in rates.items()))
    for template, rate in rates.items():
        assert rate >= 0.9, f"{template}: k_opt in [1,12] only {rate:.0%}"


def test_criterion_08_wknn_oracle_equivalence():
    """locate() matches a brute-force top-k weighted-mean oracle exactly."""
    rng = np.random.default_rng(2024)
    from radioloc.propagation import AccessPoint

    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        length = int(rng.integers(1, 11))
        aps = [AccessPoint(f"ap{i}", Point3(float(i), 0.0, 2.8))
               for i in range(length)]
        rss = rng.uniform(-100, -35, size=(n, length))
        if rng.random() < 0.3:
            rss[rng.integers(0, n)] = rng.uniform(-100, -35, length)
        positions = rng.uniform(0, 60, size=(n, 3))
        rmap = Radiomap(aps, RpArrays(positions, rss, np.zeros(n, dtype=bool)),
                        area_m2=3600.0)
        target = Fingerprint(rss[rng.integers(0, n)] if rng.random() < 0.2
                             else rng.uniform(-100, -35, length))
        k = int(rng.integers(1, n + 1))
        est = locate(rmap, target, WknnConfig(k=k))
        want_pos, want_idx, want_sims = oracle_wknn(rss, positions, target.rss, k)
        if ([i for i, _ in est.neighbors] != want_idx
                or (est.position.x, est.position.y, est.position.z)
                != tuple(want_pos)
                or any(s != w for (_, s), w in zip(est.neighbors, want_sims))):
            mismatches += 1
    ok = mismatches == 0
    report_line("criterion 08 wknn-oracle", ok,
                f"{1000 - mismatches}/1000 instances exact")
    assert mismatches == 0


def test_criterion_09_obstruction_oracle_equivalence():
    """Segment-crossing counts match dense sampling on random floorplans."""
    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(100):
        plan = random_plan(rng, n_obstacles=int(rng.integers(4, 14)))
        for _ in range(100):
            a, b = random_point(rng, plan), random_point(rng, plan)
            if a == b:
                continue
            got = count_obstructions(plan, a, b)
            want_counts, want_floors = oracle_count_2d(plan, a, b, samples=1500)
            if got.counts != want_counts or got.floors_crossed != want_floors:
                mismatches += 1
    ok = mismatches == 0
    report_line("criterion 09 obstruction-oracle", ok,
                f"{mismatches} mismatches over 10,000 links")
    assert mismatches == 0


def test_criterion_10_crowdsourcing_degradation():
    """Crowdsourced surveys cost accuracy; virtual maps still reach the new bound."""
    info = template_info("spinv_like")
    strictly_worse = 0
    ratios = []
    for seed in SEEDS:
        controlled, _ = build_world("spinv_like", seed,
                                    preset=ScenarioPreset.controlled())
        crowd, _ = build_world("spinv_like", seed,
                               preset=ScenarioPreset.crowdsourcing_like())
        base_c, _ = run_positioning_sweep(controlled, [info.dr_max], [])
        sweep_x, _ = run_positioning_sweep(crowd, [info.dr_grid[0], info.dr_max],
                                           [10.0])
        e_controlled = base_c.cell(info.dr_max, 0.0).mean_error_at_k_opt
        e_crowd = sweep_x.cell(info.dr_max, 0.0).mean_error_at_k_opt
        e_crowd_virtual = sweep_x.cell(info.dr_grid[0], 10.0).mean_error_at_k_opt
        strictly_worse += e_crowd > e_controlled
        ratios.append(e_crowd_virtual / e_crowd)
    mean_ratio = float(np.mean(ratios))
    ok = strictly_worse == len(SEEDS) and mean_ratio <= 1.2
    report_line("criterion 10 crowdsourcing", ok,
                f"strictly worse {strictly_worse}/{len(SEEDS)}, "
                f"virtual-vs-bound ratio {mean_ratio:.2f}")
    assert strictly_worse == len(SEEDS)
    assert mean_ratio <= 1.2


def test_criterion_11_cli_determinism(tmp_path):
    """Every pipeline rerun with the same seed is byte identical."""
    def run_pipeline(root):
        world = root / "world"
        reports = root / "reports"
        assert cli_main(["simulate", "--template", "twist_like", "--seed", "5",
                         "--out-dir", str(world)]) == 0
        assert cli_main(["fit",
                         "--measurements", str(world / "measurements.csv"),
                         "--floorplan", str(world / "floorplan.json"),
                         "--aps", str(world / "aps.json"),
                         "--out", str(root / "fit.json")]) == 0
        assert cli_main(["build-radiomap",
                         "--measurements", str(world / "measurements.csv"),
                         "--floorplan", str(world / "floorplan.json"),
                         "--aps", str(world / "aps.json"),
                         "--fit", str(root / "fit.json"),
                         "--rho", "0.5", "--dv", "1", "--seed", "5",
                         "--out", str(root / "radiomap.json")]) == 0
        assert cli_main(["evaluate", "--world-dir", str(world),
                         "--rho-grid", "0.5,1.0", "--dv-grid", "0.5",
                         "--seed", "5", "--out-dir", str(reports)]) == 0
        files = ["world/floorplan.json", "world/aps.json",
                 "world/measurements.csv", "world/testpoints.csv",
                 "fit.json", "radiomap.json"]
        files += [f"reports/{n}.{e}" for n in ("prediction", "positioning",
                                               "gain", "kest")
                  for e in ("csv", "json")]
        return {name: (root / name).read_bytes() for name in files}

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    diffs = [name for name in first if first[name] != second[name]]
    ok = not diffs
    report_line("criterion 11 determinism", ok,
                "all outputs byte-identical" if ok else f"differs: {diffs}")
    assert not diffs
