"""radioloc benchmark: one workload per process, closed loop, one caller.

Usage (from the repository root):

    python3 bench/run.py --workload locate-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--record FILE`` also appends the result with its provenance to a JSON-lines
file that ``bench/compare.py`` reads.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one BLAS/OpenMP thread, so timings do
# not depend on how many cores a numerical library decides to grab.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

DEFAULT_SEED = 1
# Held out: check a claimed gain on this seed too, which was not used while
# writing the change.
HOLDOUT_SEED = 1009
SETUP_REPEATS = 5
# Operations per timed block, the unit the calibration scales.
BLOCK = {"locate-dense": 16, "offline-build": 1, "eval-sweep": 1}


def provenance(args) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "radioloc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "src_sha256": src.hexdigest(),
    }


class Block(NamedTuple):
    """Consecutive operations timed under one calibration scale."""

    traced: bool
    slot: int
    times: list[float]
    scale: float
    requests: range  # the operations' request ids, as in the trace


def _run_ops(wl, seconds: float, sampler, tracer=None) -> list[Block]:
    """Operations for ``seconds``, in whole rounds and at least two.

    A round covers every slot of the workload (a pass over the map grid for
    offline-build) and at least one block. With a tracer, untraced and
    traced rounds alternate.
    """
    block = BLOCK[wl.name]
    round_len = max(block, wl.n_slots)
    units = []
    n_ops = 0
    rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or rounds < 2:
        on = tracer is not None and rounds % 2 == 1
        if on:
            tracer.install()
            tracer.new_round()
            wl.tracer = tracer
        try:
            for _ in range(round_len // block):
                slot = n_ops % wl.n_slots
                first = wl.attempted + 1
                t0 = time.perf_counter()
                times = [wl.run_op() for _ in range(block)]
                units.append(Block(on, slot, times, sampler.scale(t0, time.perf_counter()),
                                   range(first, wl.attempted + 1)))
                n_ops += block
        finally:
            if on:
                wl.tracer = None
                tracer.uninstall()
        rounds += 1
    return units


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def latency(units: list[Block], scaled: bool = True) -> tuple[float, float]:
    """(median, mean) seconds of one operation per slot, summed over slots.

    Each block's median and mean are scaled by the calibration, unless
    ``scaled`` is false. Per slot,
    the lower quartile over blocks is kept: the probe tracks contention for
    the core but not all of it (cache and memory traffic of neighbours), and
    a disturbed stretch then moves the figure only once it covers three
    quarters of a run's blocks, while a program change moves every block.
    """
    medians: dict[int, list[float]] = {}
    means: dict[int, list[float]] = {}
    for u in units:
        scale = u.scale if scaled else 1.0
        medians.setdefault(u.slot, []).append(statistics.median(u.times) * scale)
        means.setdefault(u.slot, []).append(statistics.fmean(u.times) * scale)
    return (sum(_quartiles(v)[0] for v in medians.values()),
            sum(_quartiles(v)[0] for v in means.values()))


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        work_root: Path | None = None) -> dict:
    """Run one workload.

    Returns {correct, attempted, failed, metrics, problems, calibration};
    ``tiny`` shrinks the inputs for the benchmark's own smoke tests.
    """
    import tracer as tracing
    from calibration import SpeedSampler
    from workloads import WORKLOADS

    work_root = work_root or ROOT / ".bench_run"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        wl = WORKLOADS[workload](seed, work_dir, tiny)
        with warnings.catch_warnings(), SpeedSampler() as sampler:
            warnings.simplefilter("ignore", UserWarning)
            wl.clock = sampler.clock
            if trace:
                tr = tracing.Tracer()
                tr.install()
                root = tr.begin("setup")
                t0 = time.perf_counter()
                wl.setup()
                scales = {"setup": sampler.scale(t0, time.perf_counter())}
                tr.end(root)
                tr.uninstall()
                wl.warm_up()
                units = _run_ops(wl, seconds, sampler, tr)
            else:
                setups = []
                for _ in range(SETUP_REPEATS):
                    t0, c0 = time.perf_counter(), sampler.clock()
                    wl.setup()
                    elapsed = sampler.clock() - c0
                    setups.append(elapsed * sampler.scale(t0, time.perf_counter()))
                wl.warm_up()
                units = _run_ops(wl, seconds, sampler)
        wl.finish()
        untraced = [u for u in units if not u.traced]
        q1, q2, q3 = _quartiles([u.scale for u in untraced])
        # The raw figure and the scales applied, so that a program change
        # that moved the probe itself can be seen (bench/compare.py).
        calibration = {"raw_latency_ms": latency(untraced, scaled=False)[0] * 1e3,
                       "scale_median": q2, "scale_q1": q1, "scale_q3": q3}
        if trace:
            traced = [u for u in units if u.traced]
            scales.update((r, u.scale) for u in traced for r in u.requests)
            metrics = tracing.layer_metrics(
                tr, ops=[r for u in traced for r in u.requests], setups=["setup"],
                scales=scales,
                overhead=latency(traced)[0] / latency(untraced)[0] - 1,
                warnings_per_op=wl.warnings / sum(len(u.times) for u in traced))
            tr.dump(work_root / f"trace-{workload}-s{seed}.json", scales)
        else:
            median_s, mean_s = latency(units)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "latency_ms": (median_s * 1e3, "ms"),
                "throughput_per_s": (1.0 / mean_s, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "mean_error_m": (wl.mean_error_m(), "m"),
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "correct": wl.failed == 0 and not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
        "problems": wl.problems,
        "calibration": calibration,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["locate-dense", "offline-build", "eval-sweep"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {HOLDOUT_SEED} is held out for checking claims")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", default=None,
                        help="append the result and its provenance to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "radioloc" / "__init__.py").is_file():
        print(f"error: no radioloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    prov = provenance(args)
    print("provenance: " + json.dumps(prov))
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"correct: {str(result['correct']).lower()} "
          f"(failed {result['failed']} of {result['attempted']} operations)")
    cal = result["calibration"]
    print(f"calibration: unscaled latency {cal['raw_latency_ms']:.6g} ms, scale median "
          f"{cal['scale_median']:.4f} [{cal['scale_q1']:.4f}, {cal['scale_q3']:.4f}]")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"provenance": prov, "result": result}) + "\n")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
