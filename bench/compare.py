"""Compare benchmark results of two commits, or check the spread of one.

    python3 bench/compare.py spread RESULTS.jsonl
    python3 bench/compare.py report BASE.jsonl CHANGE.jsonl

Both read the JSON-lines files that ``bench/run.py --record FILE`` appends
to. ``report`` pairs the k-th untraced run of a workload and seed in BASE
with the k-th of the same seed in CHANGE (run them alternately, same
``--seconds``) and, for every workload and end-to-end metric, prints each
side's median and quartiles, the pairs won, every ratio with its base, and
a verdict:

* ``gain``: the change wins at least 9/10 of the pairs and the medians
  differ by more than the base's interquartile range;
* ``regression``: the change's median is worse than the base's by more than
  the metric's bound in BENCHMARK.json;
* ``unresolved``: the base's spread (IQR / median) exceeds the bound, unless
  every change run is better than every base run;
* ``no regression`` otherwise.

``mean_error_m`` is exact for a seed, so its verdict is ``result changed``
when any pair differs at all, and ``unchanged`` otherwise.

Timings are scaled by a machine-speed probe that runs inside the measured
process (``bench/calibration.py``). ``report`` also prints each side's
unscaled latency and the probe scales applied, and flags the comparison
when the scales differ between the sides by more than either side's
interquartile range: the change may then have moved the probe, and the
unscaled latency is the safer reading.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# End-to-end metrics that repeat exactly for a seed.
EXACT = {"mean_error_m"}


def load_metrics() -> dict[str, dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in doc["end_to_end"]}


def load_runs(path: str) -> dict[str, list[tuple[int, dict]]]:
    """Untraced (seed, result) pairs per workload, in file order."""
    runs: dict[str, list[tuple[int, dict]]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            prov = rec["provenance"]
            if not prov["trace"]:
                runs[prov["workload"]].append((prov["seed"], rec["result"]))
    return runs


def pair_by_seed(base: list[tuple[int, dict]], change: list[tuple[int, dict]],
                 ) -> list[tuple[dict, dict]]:
    """The k-th base run of a seed with the k-th change run of the same seed."""
    waiting: dict[int, list[dict]] = defaultdict(list)
    for seed, result in change:
        waiting[seed].append(result)
    pairs = []
    for seed, result in base:
        if waiting[seed]:
            pairs.append((result, waiting[seed].pop(0)))
    return pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def values(results: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in results]


def cmd_spread(path: str) -> int:
    metrics = load_metrics()
    for workload, runs in load_runs(path).items():
        results = [r for _, r in runs]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, failed {failed} of {attempted} operations")
        for name, spec in metrics.items():
            vals = values(results, name)
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            flag = ("  ok" if s < spec["bound"] / 3 else
                    "  within bound" if s <= spec["bound"] else "  OVER BOUND")
            print(f"  {name:14s} median {q2:.6g} {spec['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {s:.3f} (bound {spec['bound']}){flag}")
        print_calibration("  ", results)
    return 0


def print_calibration(indent: str, results: list[dict]) -> tuple[float, float, float]:
    """Print the unscaled latency and probe scales of some runs; return the scales' quartiles."""
    raw = quartiles([r["calibration"]["raw_latency_ms"] for r in results])
    scale = quartiles([r["calibration"]["scale_median"] for r in results])
    print(f"{indent}unscaled latency_ms median {raw[1]:.6g}  q1 {raw[0]:.6g}  q3 {raw[2]:.6g}; "
          f"probe scale median {scale[1]:.4f}  q1 {scale[0]:.4f}  q3 {scale[2]:.4f}")
    return scale


def verdict(base: list[float], change: list[float], spec: dict) -> tuple[str, int]:
    lower = spec["better"] == "lower"
    better = (lambda c, b: c < b) if lower else (lambda c, b: c > b)
    wins = sum(1 for b, c in zip(base, change) if better(c, b))
    if spec["name"] in EXACT:
        changed = sum(1 for b, c in zip(base, change) if b != c)
        return (f"result changed in {changed} pairs" if changed else "unchanged"), wins
    q1, base_med, q3 = quartiles(base)
    change_med = statistics.median(change)
    worse_by = (change_med - base_med) / base_med * (1 if lower else -1)
    if wins >= 0.9 * min(len(base), len(change)) and abs(change_med - base_med) > q3 - q1:
        return "gain", wins
    if worse_by > spec["bound"]:
        return "regression", wins
    if spread(base) > spec["bound"]:
        if all(better(c, b) for c in change for b in base):
            return "better in every run", wins
        return "unresolved", wins
    return "no regression", wins


def cmd_report(base_path: str, change_path: str) -> int:
    metrics = load_metrics()
    base_runs, change_runs = load_runs(base_path), load_runs(change_path)
    for workload in sorted(set(base_runs) | set(change_runs)):
        pairs = pair_by_seed(base_runs.get(workload, []), change_runs.get(workload, []))
        n = len(pairs)
        print(f"{workload}: {n} pairs with matching seeds")
        if n == 0:
            continue
        base, change = [b for b, _ in pairs], [c for _, c in pairs]
        scales = {}
        for side, results in (("base", base), ("change", change)):
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print(f"  {side}: failed {failed} of {attempted} operations")
            scales[side] = print_calibration("    ", results)
        (bq1, bmed, bq3), (cq1, cmed, cq3) = scales["base"], scales["change"]
        if abs(cmed - bmed) > max(bq3 - bq1, cq3 - cq1):
            print("  PROBE SCALES DIFFER between the sides: the change may have moved the "
                  "probe; read the unscaled latency")
        for name, spec in metrics.items():
            b, c = values(base, name), values(change, name)
            bq, cq = quartiles(b), quartiles(c)
            word, wins = verdict(b, c, spec)
            print(f"  {name} [{spec['unit']}, {spec['better']} is better, bound {spec['bound']}]")
            print(f"    base   median {bq[1]:.6g}  quartiles {bq[0]:.6g} .. {bq[2]:.6g}")
            print(f"    change median {cq[1]:.6g}  quartiles {cq[0]:.6g} .. {cq[2]:.6g}")
            print(f"    change/base median ratio {cq[1] / bq[1]:.4f} (base {bq[1]:.6g})")
            print("    pair ratios " + " ".join(f"{y / x:.3f}" for x, y in zip(b, c)))
            print(f"    pairs won by change {wins}/{n}: {word}")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "spread":
        return cmd_spread(argv[1])
    if len(argv) == 3 and argv[0] == "report":
        return cmd_report(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
