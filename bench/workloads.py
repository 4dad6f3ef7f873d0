"""The benchmark's three workloads: set-up, timed operations and output checks.

All three are closed loops with one caller that waits for each result, in
one process. The program only sees what the simulator generated from the
run's seed: world files on disk (``offline-build``, ``eval-sweep``) or the
loaded radiomap and target fingerprints (``locate-dense``).

An operation fails on an exception, a nonzero exit code, an estimate that
differs from the brute-force WkNN oracle, or a rerun whose output bytes
differ from the reference run of the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np

import oracle
import radioloc.cli as cli
import radioloc.evaluation as evaluation
import radioloc.fitting as fitting
import radioloc.positioning as positioning
import radioloc.radiomap as radiomap
import radioloc.simulator as simulator
from radioloc.propagation import ModelKind

ALPHA = 0.05
# Seed stream for target positions, kept apart from the simulator's own.
_TARGET_STREAM = 7919


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """One workload: ``setup`` builds inputs, ``run_op`` times one operation.

    Operations cycle through ``n_slots`` kinds of work (the maps of the
    ``offline-build`` grid; one kind elsewhere); the latency metric covers
    one of each.
    """

    name = ""
    n_slots = 1

    def __init__(self, seed: int, work_dir: Path, tiny: bool):
        self.seed = seed
        self.work_dir = work_dir
        self.tiny = tiny
        self.tracer = None  # set during traced operations
        self.clock = time.perf_counter  # the harness may exclude its own probes
        self.attempted = 0
        self.failed = 0
        self.warnings = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def timed(self, call):
        """Run ``call`` once, timed, under a root span when tracing.

        Returns (result, seconds); result is None when the call raised.
        """
        self.attempted += 1
        tracer = self.tracer
        root = tracer.begin(self.attempted) if tracer is not None else None
        caught = contextlib.nullcontext([])
        if tracer is not None:
            caught = warnings.catch_warnings(record=True)
        try:
            with caught as recorded:
                if tracer is not None:
                    warnings.simplefilter("always")
                start = self.clock()
                try:
                    result = call()
                finally:
                    elapsed = self.clock() - start
                    if root is not None:
                        tracer.end(root)
                self.warnings += len(recorded)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"op {self.attempted}: {type(exc).__name__}: {exc}")
            return None, elapsed
        return result, elapsed

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_op(self) -> float:
        """One timed operation; returns its seconds."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run once after the timed window."""

    def mean_error_m(self) -> float:
        raise NotImplementedError


def _simulate(world: Path, template: str, preset: str, seed: int, extra=()) -> None:
    rc = cli.main(["simulate", "--template", template, "--preset", preset,
                   "--seed", str(seed), "--out-dir", str(world), *extra])
    if rc != 0:
        raise RuntimeError(f"simulate exited with {rc}")


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _load_testpoints(world: Path, ap_ids: list[str]):
    """Target fingerprints from testpoints.csv: [(position (3,), rss (L,), rows)]."""
    points: dict[str, dict] = {}
    with open(world / "testpoints.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            tp = points.setdefault(row["rp_id"], {
                "pos": np.array([float(row["x"]), float(row["y"]), float(row["z"])]),
                "rss": {}})
            tp["rss"][row["ap_id"]] = row["rss_dbm"]
    result = []
    for tp in points.values():
        tokens = [tp["rss"][ap] for ap in ap_ids]
        rss = np.array([radiomap.NOT_DETECTED_DBM if t == "ND" else float(t) for t in tokens])
        rows = "".join(f"{ap},{t}\n" for ap, t in zip(ap_ids, tokens))
        result.append((tp["pos"], rss, "ap_id,rss_dbm\n" + rows))
    return result


# ---------------------------------------------------------------------------
# locate-dense: the online phase
# ---------------------------------------------------------------------------

class LocateDense(Workload):
    """Single WkNN requests against a dense real + virtual radiomap of spinv_like.

    72 real RPs from the controlled survey plus grid virtual RPs at 10 per m^2
    give N = 5,112, L = 7 and k = ceil(0.05 * N) = 256. Targets are
    single-scan (crowdsourcing-like) fingerprints at seeded random positions.
    """

    name = "locate-dense"

    def __init__(self, seed, work_dir, tiny):
        super().__init__(seed, work_dir, tiny)
        self.dv = 1.0 if tiny else 10.0
        self.n_targets = 48 if tiny else 1024
        self.next_target = 0
        self.first: dict[int, tuple] = {}  # target index -> (position, neighbour ids)

    def setup(self) -> None:
        ew, spec = evaluation.build_world("spinv_like", self.seed)
        fit_result = fitting.fit(fitting.FitStrategy.environment(), ModelKind.MWMF,
                                 ew.plan, ew.aps, ew.measurements)
        real = radiomap.build_real_fingerprints(ew.measurements, ew.aps, ew.sentinel_dbm)
        virtual = radiomap.generate_virtual_fingerprints(
            fit_result, ModelKind.MWMF, ew.plan, ew.aps,
            radiomap.place_virtual_rps(ew.plan, self.dv),
            sentinel_dbm=ew.sentinel_dbm, detection_floor_dbm=ew.detection_floor_dbm)
        self.path = self.work_dir / "radiomap.json"
        radiomap.save_radiomap(radiomap.Radiomap(ew.aps, real + virtual, area_m2=ew.area,
                                                 sentinel_dbm=ew.sentinel_dbm), self.path)
        self.rmap = radiomap.load_radiomap(self.path)
        positions = simulator.random_positions(
            ew.plan, self.n_targets, np.random.SeedSequence([self.seed, _TARGET_STREAM]))
        _, test_points = simulator.simulate_campaign(
            spec, positions[:1], positions, simulator.ScenarioPreset.crowdsourcing_like())
        self.targets = test_points
        self.cfg = positioning.WknnConfig(alpha=ALPHA)

    def warm_up(self) -> None:
        for tp in self.targets[:16]:
            positioning.locate(self.rmap, tp.fingerprint, self.cfg)

    def run_op(self) -> float:
        index = self.next_target
        self.next_target = (index + 1) % self.n_targets
        fingerprint = self.targets[index].fingerprint
        estimate, elapsed = self.timed(
            lambda: positioning.locate(self.rmap, fingerprint, self.cfg))
        if estimate is not None:
            p = estimate.position
            got = ((p.x, p.y, p.z), [i for i, _ in estimate.neighbors])
            seen = self.first.setdefault(index, got)
            if seen != got:
                self.fail(f"target {index}: rerun returned a different estimate")
        return elapsed

    def finish(self) -> None:
        # Every target is requested at least once, so mean_error_m always
        # covers the full target set.
        while len(self.first) < self.n_targets and self.attempted < 4 * self.n_targets:
            self.run_op()
        # The oracle reads the database from the file, not through Radiomap.
        rss, pos = oracle.radiomap_arrays(json.loads(self.path.read_text()))
        k = oracle.k_from_alpha(len(rss), ALPHA)
        requests = np.bincount(np.arange(self.attempted) % self.n_targets,
                               minlength=self.n_targets)
        for index, got in self.first.items():
            want = oracle.wknn(rss, pos, self.targets[index].fingerprint.rss, k)
            if got != want:
                for _ in range(requests[index]):
                    self.fail(f"target {index}: estimate differs from the WkNN oracle")

    def mean_error_m(self) -> float:
        errors = [math.dist(self.first[i][0], tuple(self.targets[i].position.as_array()))
                  for i in sorted(self.first)]
        return float(np.mean(errors))


# ---------------------------------------------------------------------------
# offline-build: the write path through the CLI
# ---------------------------------------------------------------------------

class OfflineBuild(Workload):
    """One operation is the chain fit -> build-radiomap -> locate for one map.

    Operations cycle through the grid rho in {0.1, 0.2, 0.5, 1} x dv in
    {1, 10} on the spinv_like controlled survey (25.2k CSV rows, parsed by
    fit and by build-radiomap); eight operations make one pass.
    """

    name = "offline-build"

    def __init__(self, seed, work_dir, tiny):
        super().__init__(seed, work_dir, tiny)
        self.grid = ([(0.5, 1.0)] if tiny else
                     [(rho, dv) for rho in (0.1, 0.2, 0.5, 1.0) for dv in (1.0, 10.0)])
        self.n_slots = len(self.grid)
        self.next_map = 0
        self.ok_reference = True

    def setup(self) -> None:
        self.world = self.work_dir / "world"
        # More test points than the template's 31 only sharpen mean_error_m;
        # the CLI chain never reads them.
        _simulate(self.world, "spinv_like", "controlled", self.seed,
                  ["--dr", "0.05", "--tp-count", "16"] if self.tiny else ["--tp-count", "512"])
        ap_ids = [ap["id"] for ap in json.loads((self.world / "aps.json").read_text())]
        self.testpoints = _load_testpoints(self.world, ap_ids)
        for m in range(len(self.grid)):
            (self.work_dir / f"map{m}").mkdir(exist_ok=True)
            (self.work_dir / f"map{m}" / "target.csv").write_text(
                self.testpoints[m % len(self.testpoints)][2])

    def _chain(self, m: int) -> tuple[tuple[int, int, int], str]:
        """fit, build-radiomap and locate for map m: (exit codes, locate output)."""
        w = self.world
        d = self.work_dir / f"map{m}"
        rho, dv = self.grid[m]
        common = ["--measurements", str(w / "measurements.csv"),
                  "--floorplan", str(w / "floorplan.json"), "--aps", str(w / "aps.json")]
        rc_fit, _ = _run_cli(["fit", *common, "--strategy", "environment",
                              "--model", "mwmf", "--out", str(d / "fit.json")])
        rc_build, _ = _run_cli(["build-radiomap", *common, "--fit", str(d / "fit.json"),
                                "--rho", repr(rho), "--dv", repr(dv), "--seed", str(self.seed),
                                "--out", str(d / "radiomap.json")])
        rc_loc, out = _run_cli(["locate", "--radiomap", str(d / "radiomap.json"),
                                "--target", str(d / "target.csv"), "--alpha", repr(ALPHA)])
        return (rc_fit, rc_build, rc_loc), out

    def _outputs(self, m: int, codes: tuple[int, int, int], out: str) -> dict:
        d = self.work_dir / f"map{m}"
        return {
            "rc": codes,
            "fit.json": _digest((d / "fit.json").read_bytes()) if codes[0] == 0 else None,
            "radiomap.json": (_digest((d / "radiomap.json").read_bytes())
                              if codes[1] == 0 else None),
            "locate": out,
        }

    def warm_up(self) -> None:
        """One untimed pass; its outputs are the reference for every rerun."""
        self.reference = [self._outputs(m, *self._chain(m)) for m in range(len(self.grid))]
        self.errors = []
        for m, ref in enumerate(self.reference):
            if ref["rc"] != (0, 0, 0):
                self.ok_reference = False
                self.problems.append(f"reference pass, map {m}: exit codes {ref['rc']}")
                continue
            doc = json.loads((self.work_dir / f"map{m}" / "radiomap.json").read_text())
            rss, pos = oracle.radiomap_arrays(doc)
            k = oracle.k_from_alpha(len(rss), ALPHA)
            for t, (true_pos, target, _) in enumerate(self.testpoints):
                est, ranked = oracle.wknn(rss, pos, target, k)
                self.errors.append(math.dist(est, tuple(true_pos)))
                if t == m % len(self.testpoints):
                    got = json.loads(ref["locate"])
                    if ((got["x"], got["y"], got["z"]) != est
                            or [i for i, _ in got["neighbors"]] != ranked):
                        self.ok_reference = False
                        self.problems.append(f"map {m}: CLI locate differs from the oracle")

    def run_op(self) -> float:
        m = self.next_map
        self.next_map = (m + 1) % len(self.grid)
        result, elapsed = self.timed(lambda: self._chain(m))
        if result is None:
            return elapsed
        got = self._outputs(m, *result)
        if got["rc"] != (0, 0, 0):
            self.fail(f"map {m}: exit codes {got['rc']}")
        elif got != self.reference[m]:
            self.fail(f"map {m}: rerun output bytes differ from the reference pass")
        elif not self.ok_reference:
            self.fail("reference pass failed its checks")
        return elapsed

    def mean_error_m(self) -> float:
        return float(np.mean(self.errors)) if self.errors else float("nan")


# ---------------------------------------------------------------------------
# eval-sweep: the research path
# ---------------------------------------------------------------------------

REPORTS = [f"{n}.{e}" for n in ("prediction", "positioning", "gain", "kest")
           for e in ("csv", "json")]


class EvalSweep(Workload):
    """One operation is ``radioloc evaluate`` with the default grids.

    The world is twist_like simulated with the crowdsourcing preset: 4 APs,
    95 obstacles, an 820-row survey and 80 targets.
    """

    name = "eval-sweep"

    def setup(self) -> None:
        self.world = self.work_dir / "world"
        _simulate(self.world, "twist_like", "crowdsourcing", self.seed)
        self.out = self.work_dir / "reports"
        self.argv = ["evaluate", "--world-dir", str(self.world), "--seed", str(self.seed),
                     "--out-dir", str(self.out)]
        if self.tiny:
            self.argv += ["--rho-grid", "0.2,1", "--dv-grid", "1"]

    def _outputs(self, rc: int, printed: str) -> dict:
        doc = {"rc": rc, "printed": printed}
        for name in REPORTS:
            path = self.out / name
            doc[name] = _digest(path.read_bytes()) if path.exists() else None
        return doc

    def warm_up(self) -> None:
        rc, printed = _run_cli(self.argv)
        self.reference = self._outputs(rc, printed)
        self.ok_reference = rc == 0
        if rc != 0:
            self.problems.append(f"reference evaluate exited with {rc}")
            self.errors = [float("nan")]
            return
        load = lambda name: json.loads((self.out / name).read_text())  # noqa: E731
        cells = load("prediction.json")["cells"] + load("positioning.json")["cells"]
        failed = [c for c in cells if c.get("error")]
        if failed:
            self.ok_reference = False
            self.problems.append(f"{len(failed)} sweep cells failed")
        gain_cells = load("gain.json")["cells"]
        dr_min = min(c["d_real"] for c in gain_cells)
        dv_max = max(c["d_virtual"] for c in gain_cells)
        headline = [c["gain"] for c in gain_cells
                    if c["d_real"] == dr_min and c["d_virtual"] == dv_max]
        self.headline_gain = headline[0] if headline else float("nan")
        if not self.headline_gain > 1.0:
            self.ok_reference = False
            self.problems.append(f"headline gain G(dr_min, dv_max) = {self.headline_gain}")
        self.errors = [c["mean_error_by_k"][c["k_values"].index(c["k_opt"])]
                       for c in load("positioning.json")["cells"] if not c.get("error")]

    def run_op(self) -> float:
        result, elapsed = self.timed(lambda: _run_cli(self.argv))
        if result is None:
            return elapsed
        got = self._outputs(*result)
        if got["rc"] != 0:
            self.fail(f"evaluate exited with {got['rc']}")
        elif got != self.reference:
            self.fail("rerun report bytes differ from the reference evaluate")
        elif not self.ok_reference:
            self.fail("reference evaluate failed its checks")
        return elapsed

    def mean_error_m(self) -> float:
        return float(np.mean(self.errors))


WORKLOADS = {w.name: w for w in (LocateDense, OfflineBuild, EvalSweep)}
