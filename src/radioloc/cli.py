"""Command-line front end: simulate | fit | build-radiomap | locate | evaluate.

Every subcommand is a pure function of its input files and flags, ``--seed``
among them for simulate, build-radiomap and evaluate, so reruns with
identical arguments produce byte-identical outputs. Exit codes:
0 success; 2 a bad flag, an unreadable, non-UTF-8 or malformed input file
(invalid geometry included) or an unwritable output path; 3 a degenerate or
underdetermined fit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .errors import DegenerateFitError, GeometryError, InputError, InsufficientDataError
from .evaluation import (
    EvalWorld,
    _SurveyFits,
    alpha_grid,
    emit_report_pair,
    run_kest_sweep,
    run_positioning_sweep,
    run_prediction_analysis,
)
from .fitting import (
    NOT_DETECTED_TOKEN,
    FitStrategy,
    MeasurementSet,
    StrategyKind,
    fit,
    load_fit_result,
    load_measurements,
    save_fit_result,
    save_measurements,
)
from .floorplan import load_floorplan, save_floorplan
from .ioutil import csv_rows, read_csv
from .positioning import MAX_ORDER, WknnConfig, locate
from .propagation import (
    ModelKind,
    load_access_points,
    load_params,
    save_access_points,
)
from .radiomap import (
    DETECTION_FLOOR_DBM,
    NOT_DETECTED_DBM,
    Fingerprint,
    Radiomap,
    RpArrays,
    build_real_fingerprints,
    ceil_scaled,
    generate_virtual_fingerprints,
    load_radiomap,
    place_virtual_rps,
    save_radiomap,
    select_rps,
    virtual_rp_count,
)
from .simulator import (
    ALPHA_RANGE,
    ALPHA_STEP,
    DV_GRID,
    RHO_GRID,
    NoiseConfig,
    check_campaign_size,
    grid_rp_positions,
    make_world,
    preset_by_name,
    simulate_campaign,
    target_measurements,
    template_info,
    template_test_positions,
)


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _alpha_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return (float(lo), float(hi))


def _checked(convert, ok, requirement: str):
    """An argparse type: ``convert`` the flag's text, then require ``ok(value)``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


_COUNT = _checked(int, lambda k: k >= 1, "must be >= 1")
_POSITIVE = _checked(float, lambda v: v > 0 and math.isfinite(v), "must be positive")
_NONNEGATIVE = _checked(float, lambda v: v >= 0 and math.isfinite(v), "must be finite and >= 0")
_FINITE = _checked(float, math.isfinite, "must be finite")
_FRACTION = _checked(float, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")
_ORDER = _checked(float, lambda v: 1.0 <= v <= MAX_ORDER,
                  f"Minkowski order must lie in [1, {MAX_ORDER:g}]")
_SENTINEL = _checked(float, lambda v: -120.0 <= v <= 0.0, "must lie within [-120, 0] dBm")
_RHO_GRID = _checked(_float_list, lambda vs: vs and all(0.0 < v <= 1.0 for v in vs),
                     "needs values in (0, 1]")
_DV_GRID = _checked(
    _float_list, lambda vs: vs and all(0 <= v < math.inf for v in vs) and max(vs) > 0,
    "needs finite values >= 0, at least one of them positive")
_ALPHA_RANGE = _checked(_alpha_range, lambda r: 0.0 < r[0] <= r[1] <= 1.0,
                        "expected MIN:MAX with 0 < MIN <= MAX <= 1")


def _check_survey_aps(meas: MeasurementSet, aps, source) -> None:
    """Every AP the survey names must be in the AP file."""
    missing = set(meas.ap_ids()) - {ap.id for ap in aps}
    if missing:
        raise InputError(f"{source} references APs missing from the AP file: "
                         f"{sorted(missing)}")


def _strategy_from_args(args) -> FitStrategy:
    if args.strategy == "no-fit":
        if not args.params:
            raise InputError("--strategy no-fit requires --params")
        _, params = load_params(args.params)
        return FitStrategy.no_fit(params)
    return FitStrategy(StrategyKind(args.strategy))


def cmd_simulate(args) -> int:
    given = {field: getattr(args, field) for _, field, _, _ in _NOISE_FLAGS
             if getattr(args, field) is not None}
    if args.template == "custom":
        for flag, value in (("--custom-file", args.custom_file), ("--dr", args.dr),
                            ("--tp-count", args.tp_count)):
            if value is None:
                raise InputError(f"--template custom requires {flag}")
        if given:
            flags = ", ".join(flag for flag, field, _, _ in _NOISE_FLAGS if field in given)
            raise InputError(f"{flags}: a custom world takes its noise from the "
                             f"\"noise\" block of {args.custom_file}")
        noise = None
    else:
        noise = NoiseConfig(**({field: default for _, field, _, default in _NOISE_FLAGS}
                               | given))
    world = make_world(args.template, args.seed, noise=noise,
                       custom_file=args.custom_file)
    preset = preset_by_name(args.preset)
    d_real = args.dr if args.dr is not None else template_info(args.template).dr_max
    n_tp = args.tp_count or template_info(args.template).n_test_points
    try:  # the campaign is counted before any position or scan is allocated
        check_campaign_size(d_real * world.plan.area, n_tp, len(world.aps), preset)
        rp_positions = grid_rp_positions(world.plan, d_real)
    except ValueError as exc:
        raise InputError(f"--dr {d_real} with --tp-count {n_tp}: {exc}") from exc
    tp_positions = template_test_positions(args.template, args.seed, world.plan, n_tp)
    measurements, test_points = simulate_campaign(world, rp_positions, tp_positions, preset)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_floorplan(world.plan, out / "floorplan.json")
    save_access_points(world.aps, out / "aps.json")
    save_measurements(measurements, out / "measurements.csv")
    # Target fingerprints use the survey's schema; the id column names the TP.
    save_measurements(target_measurements(world, test_points), out / "testpoints.csv")
    if args.verbose:
        print(f"wrote world artifacts to {out} "
              f"({len(rp_positions)} RPs, {len(tp_positions)} TPs)")
    return 0


def cmd_fit(args) -> int:
    plan = load_floorplan(args.floorplan)
    aps = load_access_points(args.aps)
    measurements = load_measurements(args.measurements)
    _check_survey_aps(measurements, aps, args.measurements)
    strategy = _strategy_from_args(args)
    result = fit(strategy, ModelKind(args.model), plan, aps, measurements)
    save_fit_result(result, args.out)
    if args.verbose:
        print(f"fit ok: residual rms {result.residual_rms_db:.3f} dB "
              f"over {result.m_used} samples")
    return 0


def cmd_build_radiomap(args) -> int:
    plan = load_floorplan(args.floorplan)
    aps = load_access_points(args.aps)
    measurements = load_measurements(args.measurements)
    _check_survey_aps(measurements, aps, args.measurements)
    fit_result = load_fit_result(args.fit)

    real_rps = build_real_fingerprints(measurements, aps, args.sentinel)
    real_rps = select_rps(real_rps, args.rho)
    virtual_rps = RpArrays.empty(len(aps))
    if args.dv > 0:
        missing = {ap.id for ap in aps} - set(fit_result.params_by_ap)
        if missing:
            raise InputError(f"{args.fit} has no fitted parameters for APs {sorted(missing)}")
        try:
            positions = place_virtual_rps(plan, args.dv, args.placement, seed=args.seed)
        except ValueError as exc:  # more virtual RPs than MAX_VIRTUAL_RPS
            raise InputError(f"--dv: {exc}") from None
        virtual_rps = generate_virtual_fingerprints(
            fit_result, fit_result.model, plan, aps, positions,
            sentinel_dbm=args.sentinel, detection_floor_dbm=args.detection_floor)
    rmap = Radiomap(aps, real_rps + virtual_rps, area_m2=plan.area,
                    sentinel_dbm=args.sentinel)
    save_radiomap(rmap, args.out)
    if args.verbose:
        print(f"radiomap: {rmap.n_real} real + {rmap.n_virtual} virtual RPs")
    return 0


def _load_target(path: str | Path, rmap: Radiomap) -> Fingerprint:
    """The fingerprint in ``path``: header ``ap_id,rss_dbm``, then at most one row
    per AP; an AP without a row is not detected."""
    def parse(text: str) -> Fingerprint:
        rows = csv_rows(text)
        if rows[:1] != [["ap_id", "rss_dbm"]]:
            raise ValueError("expected header ap_id,rss_dbm")
        known = {ap.id for ap in rmap.aps}
        values: dict[str, float] = {}
        for row in rows[1:]:
            if len(row) != 2:
                raise ValueError(f"malformed row {row!r}")
            ap_id, rss = row
            if ap_id not in known:
                raise ValueError(f"unknown AP {ap_id!r}")
            if ap_id in values:
                raise ValueError(f"more than one row for AP {ap_id!r}")
            values[ap_id] = rmap.sentinel_dbm if rss == NOT_DETECTED_TOKEN else float(rss)
        return Fingerprint([values.get(ap.id, rmap.sentinel_dbm) for ap in rmap.aps])

    return read_csv(path, "target", parse)


def cmd_locate(args) -> int:
    rmap = load_radiomap(args.radiomap)
    target = _load_target(args.target, rmap)
    cfg = WknnConfig(k=args.k, order=args.order, alpha=args.alpha)
    try:  # no reference points, k above their count, or every weight 0
        estimate = locate(rmap, target, cfg)
    except ValueError as exc:
        raise InputError(f"{args.radiomap}: {exc}") from exc
    print(json.dumps({
        "x": estimate.position.x,
        "y": estimate.position.y,
        "z": estimate.position.z,
        "neighbors": estimate.neighbors,  # each (index, similarity) pair as a JSON list
    }))
    return 0


def _load_world_dir(world_dir: str | Path, seed: int) -> EvalWorld:
    world_dir = Path(world_dir)
    plan = load_floorplan(world_dir / "floorplan.json")
    aps = load_access_points(world_dir / "aps.json")
    measurements = load_measurements(world_dir / "measurements.csv")
    tp_meas = load_measurements(world_dir / "testpoints.csv")
    for meas, name in ((measurements, "measurements.csv"), (tp_meas, "testpoints.csv")):
        _check_survey_aps(meas, aps, world_dir / name)
    tps = build_real_fingerprints(tp_meas, aps, NOT_DETECTED_DBM)
    return EvalWorld(plan=plan, aps=aps, measurements=measurements,
                     tp_pos=tps.pos, tp_rss=tps.rss, seed=seed)


def cmd_evaluate(args) -> int:
    try:  # the k-rule grid is checked before the sweeps it would end
        alpha_grid(args.alpha_range, args.alpha_step)
    except ValueError as exc:
        raise InputError(f"--alpha-step: {exc}") from None
    world = _load_world_dir(args.world_dir, args.seed)
    strategy = _strategy_from_args(args)
    model = ModelKind(args.model)
    n_total = len(world.measurements.rp_ids())
    area = world.area
    dr_grid = [ceil_scaled(rho * n_total) / area for rho in args.rho_grid]
    dv_grid = [dv for dv in args.dv_grid]
    try:  # each density's placement is counted before any sweep allocates it
        for dv in dv_grid:
            if dv > 0:
                virtual_rp_count(dv, area)
    except ValueError as exc:
        raise InputError(f"--dv-grid: {exc}") from None

    # Both sweeps fit the same survey prefixes: each is solved once.
    fits = _SurveyFits(world.plan, world.aps, world.measurements)
    prediction = run_prediction_analysis(
        world.measurements, world.plan, world.aps, args.rho_grid,
        [strategy], [model], _fits=fits)
    positioning, gain = run_positioning_sweep(
        world, dr_grid, dv_grid, strategy=strategy, model=model,
        placement=args.placement, _fits=fits)
    dv_max = max(dv_grid)
    kest = run_kest_sweep(positioning, dr_grid, dv_max, alpha_range=args.alpha_range,
                          alpha_step=args.alpha_step)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, report in (("prediction", prediction), ("positioning", positioning),
                         ("gain", gain), ("kest", kest)):
        emit_report_pair(report, out / f"{name}.csv", out / f"{name}.json")

    failures = [c for c in prediction.cells if c.error]
    failures += [c for c in positioning.cells if c.error]
    for cell in failures:
        print(f"cell failed: {cell!r}", file=sys.stderr)

    # A headline whose cell is missing or failed is not printed.
    ok_pred = [c for c in prediction.cells if not c.error]
    if ok_pred:
        best = min(ok_pred, key=lambda c: c.mean_delta_db)
        print(f"prediction: mean delta {best.mean_delta_db:.2f} dB "
              f"(rho={best.rho}, {best.strategy}, {best.model})")
    baseline = positioning.cell(dr_grid[-1], 0.0)
    if not baseline.error:
        print(f"positioning: mean error {baseline.mean_error_at_k_opt:.2f} m "
              f"at d_real={baseline.d_real:.4f}, d_virtual=0, k_opt={baseline.k_opt}")
    headline = [c.gain for c in gain.cells if (c.d_real, c.d_virtual) == (dr_grid[0], dv_max)]
    if headline:
        print(f"gain: {headline[0]:.2f} at d_real={dr_grid[0]:.4f}, d_virtual={dv_max}")
    kest_05 = [c for c in kest.cells if abs(c.alpha - 0.05) < 1e-9]
    if kest_05:
        worst = max(kest_05, key=lambda c: c.beta_m)
        print(f"k rule: worst beta at alpha=0.05 is {worst.beta_m:.3f} m "
              f"(d_real={worst.d_real:.4f})")

    # Prediction cells fail only through fit errors, so a sweep that failed
    # everywhere had no solvable fit.
    all_cells = len(prediction.cells) + len(positioning.cells)
    if all_cells and len(failures) == all_cells:
        raise InsufficientDataError("every sweep cell failed")
    return 0


# simulate's noise flags: (flag, NoiseConfig field, type, value for a
# built-in template). A custom world takes its noise from its file only.
_NOISE_FLAGS = (
    ("--shadowing-sigma", "shadowing_sigma_db", _NONNEGATIVE, 3.0),
    ("--mismatch-sigma", "mismatch_sigma_db", _NONNEGATIVE, 2.75),
    ("--mismatch-corr", "mismatch_corr_m", _POSITIVE, 6.0),
    ("--drift-sigma", "drift_sigma_db", _NONNEGATIVE, 1.5),
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true")
    # Only the commands that draw random numbers take a seed.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_checked(int, lambda s: s >= 0, "must be >= 0"),
                        default=0, help="master RNG seed")

    parser = argparse.ArgumentParser(
        prog="radioloc",
        description="RSS radiomap construction and WkNN indoor positioning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[seeded, common],
                       help="generate a synthetic world and measurement campaign")
    p.add_argument("--template", default="spinv_like",
                   choices=["spinv_like", "twist_like", "custom"])
    p.add_argument("--custom-file", default=None)
    p.add_argument("--preset", default="controlled",
                   choices=["controlled", "crowdsourcing"])
    p.add_argument("--dr", type=_POSITIVE, default=None,
                   help="survey RP density (RPs/m^2); default: template full grid")
    p.add_argument("--tp-count", type=_COUNT, default=None)
    for flag, field, kind, default in _NOISE_FLAGS:
        p.add_argument(flag, dest=field, type=kind, default=None,
                       help=f"built-in templates only (default: {default})")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", parents=[common],
                       help="calibrate path-loss parameters from measurements")
    p.add_argument("--measurements", required=True)
    p.add_argument("--floorplan", required=True)
    p.add_argument("--aps", required=True)
    p.add_argument("--strategy", default="environment",
                   choices=["environment", "per-ap", "no-fit"])
    p.add_argument("--model", default="mwmf", choices=["mwmf", "os"])
    p.add_argument("--params", default=None,
                   help="params JSON for the no-fit strategy")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("build-radiomap", parents=[seeded, common],
                       help="assemble real + virtual fingerprints into a radiomap")
    p.add_argument("--measurements", required=True)
    p.add_argument("--floorplan", required=True)
    p.add_argument("--aps", required=True)
    p.add_argument("--fit", required=True, help="fit result JSON from the fit command")
    p.add_argument("--rho", type=_FRACTION, default=1.0,
                   help="fraction of survey points kept as real RPs")
    p.add_argument("--dv", type=_NONNEGATIVE, default=0.0, help="virtual RP density (RPs/m^2)")
    p.add_argument("--placement", default="grid", choices=["grid", "random"])
    p.add_argument("--sentinel", type=_SENTINEL, default=NOT_DETECTED_DBM)
    p.add_argument("--detection-floor", type=_FINITE, default=DETECTION_FLOOR_DBM)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_radiomap)

    p = sub.add_parser("locate", parents=[common],
                       help="estimate a target position from its fingerprint")
    p.add_argument("--radiomap", required=True)
    p.add_argument("--target", required=True, help="CSV with header ap_id,rss_dbm")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--k", type=_COUNT, default=None)
    group.add_argument("--alpha", type=_FRACTION, default=0.05)
    p.add_argument("--order", type=_ORDER, default=2.0)
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("evaluate", parents=[seeded, common],
                       help="run prediction, positioning, gain, and k-rule sweeps")
    p.add_argument("--world-dir", required=True,
                   help="directory written by the simulate command")
    p.add_argument("--strategy", default="environment",
                   choices=["environment", "per-ap", "no-fit"])
    p.add_argument("--params", default=None)
    p.add_argument("--model", default="mwmf", choices=["mwmf", "os"])
    p.add_argument("--placement", default="grid", choices=["grid", "random"])
    p.add_argument("--rho-grid", type=_RHO_GRID, default=list(RHO_GRID))
    p.add_argument("--dv-grid", type=_DV_GRID, default=list(DV_GRID))
    p.add_argument("--alpha-range", type=_ALPHA_RANGE, default=ALPHA_RANGE,
                   metavar="MIN:MAX")
    p.add_argument("--alpha-step", type=_POSITIVE, default=ALPHA_STEP)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    return parser


@functools.cache
def _cached_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building the tree costs more than parsing with it."""
    return build_parser()


def main(argv=None) -> int:
    args = _cached_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateFitError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
