"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest bench/test_smoke.py -q

They check that every metric BENCHMARK.json names is reported with its
unit, that the output checks count a wrong estimate and a changed output
byte as failed operations, that every traced span is read by a time metric,
and that known extra work in ``locate`` raises the calibrated latency by
about its own calibrated time.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
from calibration import SpeedSampler  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: bool, tmp_path: Path) -> dict:
    return run.run(workload, seed=1, seconds=0.5, trace=trace, tiny=True, work_root=tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace, tmp_path):
    result = _run(workload, trace, tmp_path)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_estimate_is_a_failed_operation(monkeypatch, tmp_path):
    import radioloc.positioning as positioning
    from radioloc.floorplan import Point3

    real_locate = positioning.locate
    calls = []

    def nudged(rmap, target, cfg):
        estimate = real_locate(rmap, target, cfg)
        calls.append(None)
        if len(calls) == 40:  # a timed request, after the warm-up ones
            p = estimate.position
            estimate.position = Point3(p.x + 1e-9, p.y, p.z)
        return estimate

    monkeypatch.setattr(positioning, "locate", nudged)
    result = _run("locate-dense", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_changed_output_byte_is_a_failed_operation(monkeypatch, tmp_path):
    import radioloc.cli as cli

    real_save = cli.save_radiomap
    calls = []

    def changed(rmap, path):
        real_save(rmap, path)
        calls.append(None)
        if len(calls) == 2:  # call 1 is the reference pass, call 2 a timed rerun
            data = Path(path).read_bytes()
            Path(path).write_bytes(data[:-1] + b" \n")  # still valid JSON

    monkeypatch.setattr(cli, "save_radiomap", changed)
    result = _run("offline-build", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1


def test_every_wrapped_span_is_read_by_a_time_metric():
    wrapped = {f"{module}.{name}" for module, name, _ in tracer._TARGETS}
    read = set(chain(*tracer._SPAN_METRICS.values())) | {"simulator.simulate_campaign"}
    assert wrapped == read


def _extra_work() -> float:
    """Fixed CPU and allocation work: dicts of lists, then a sort and a reduction."""
    table = {i: [i, i * 0.5, str(i)] for i in range(12000)}
    values = np.sort(np.array([row[1] for row in table.values()])[::-1])
    return float(values.sum())


def test_injected_work_raises_latency_by_its_own_time(monkeypatch, tmp_path):
    """The probe must not move with the program: extra work in ``locate`` shows in full."""
    import radioloc.positioning as positioning

    base = run.run("locate-dense", seed=1, seconds=3, trace=False, tiny=True,
                   work_root=tmp_path)
    # The extra work alone, timed and scaled the way run.py times blocks.
    blocks = []
    with SpeedSampler() as sampler:
        stop = time.perf_counter() + 2
        while time.perf_counter() < stop:
            times = []
            t0 = time.perf_counter()
            for _ in range(run.BLOCK["locate-dense"]):
                c0 = sampler.clock()
                _extra_work()
                times.append(sampler.clock() - c0)
            blocks.append(run.Block(False, 0, times, sampler.scale(t0, time.perf_counter()),
                                    range(0)))
    extra_ms = run.latency(blocks)[0] * 1e3

    real_locate = positioning.locate

    def slowed(rmap, target, cfg):
        _extra_work()
        return real_locate(rmap, target, cfg)

    monkeypatch.setattr(positioning, "locate", slowed)
    slow = run.run("locate-dense", seed=1, seconds=3, trace=False, tiny=True,
                   work_root=tmp_path)
    assert slow["correct"], slow["problems"]
    rise_ms = slow["metrics"]["latency_ms"]["value"] - base["metrics"]["latency_ms"]["value"]
    assert 0.7 * extra_ms < rise_ms < 1.3 * extra_ms, (rise_ms, extra_ms)
