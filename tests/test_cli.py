import contextlib
import errno
import json
import math
import os
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import radioloc.cli as cli
import radioloc.ioutil as ioutil
import radioloc.radiomap as radiomap
import radioloc.simulator as simulator
from radioloc import evaluation
from radioloc.cli import build_parser, main
from radioloc.fitting import StrategyKind, load_fit_result, load_measurements
from radioloc.floorplan import Point3, load_floorplan
from radioloc.propagation import LinkTable
from radioloc.ioutil import sidecar_path
from radioloc.radiomap import (build_real_fingerprints, load_radiomap, place_virtual_rps,
                               radiomap_from_dict)
from radioloc.simulator import ALPHA_RANGE, ALPHA_STEP, DV_GRID, RHO_GRID

from helpers import CUSTOM_WORLD, count_crossing_calls, measurement_set


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    code = main(["simulate", "--template", "twist_like", "--preset", "controlled",
                 "--seed", "3", "--out-dir", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fit_file(world_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit") / "fit.json"
    code = main(["fit",
                 "--measurements", str(world_dir / "measurements.csv"),
                 "--floorplan", str(world_dir / "floorplan.json"),
                 "--aps", str(world_dir / "aps.json"),
                 "--strategy", "environment", "--model", "mwmf",
                 "--out", str(out)])
    assert code == 0
    return out


def exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def map_file(world_dir, fit_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("map") / "map.json"
    code = main(["build-radiomap",
                 "--measurements", str(world_dir / "measurements.csv"),
                 "--floorplan", str(world_dir / "floorplan.json"),
                 "--aps", str(world_dir / "aps.json"),
                 "--fit", str(fit_file), "--rho", "1", "--dv", "0.1",
                 "--out", str(out)])
    assert code == 0
    return out


class TestSimulate:
    def test_writes_all_artifacts(self, world_dir):
        for name in ("floorplan.json", "aps.json", "measurements.csv",
                     "testpoints.csv"):
            assert (world_dir / name).exists()

    def test_artifacts_parse(self, world_dir):
        meas = load_measurements(world_dir / "measurements.csv")
        assert len(meas.rp_ids()) == 41
        tps = load_measurements(world_dir / "testpoints.csv")
        assert len(tps.rp_ids()) == 80

    def test_deterministic_outputs(self, tmp_path):
        args = ["simulate", "--template", "twist_like", "--seed", "3"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        for name in ("floorplan.json", "aps.json", "measurements.csv",
                     "testpoints.csv", "measurements.csv.lanes", "testpoints.csv.lanes"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_custom_template(self, tmp_path):
        world = tmp_path / "world.json"
        world.write_text(json.dumps(CUSTOM_WORLD))
        args = ["simulate", "--template", "custom", "--custom-file", str(world),
                "--dr", "0.2", "--tp-count", "5", "--seed", "4"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("floorplan.json", "aps.json", "measurements.csv",
                     "testpoints.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
        assert len(load_measurements(tmp_path / "a" / "measurements.csv").rp_ids()) == 40
        assert len(load_measurements(tmp_path / "a" / "testpoints.csv").rp_ids()) == 5
        assert main(["fit", "--measurements", str(tmp_path / "a" / "measurements.csv"),
                     "--floorplan", str(tmp_path / "a" / "floorplan.json"),
                     "--aps", str(tmp_path / "a" / "aps.json"),
                     "--out", str(tmp_path / "fit.json")]) == 0

    def test_ap_id_with_a_comma_is_quoted_in_both_surveys(self, tmp_path):
        world = tmp_path / "world.json"
        world.write_text(json.dumps(
            {**CUSTOM_WORLD, "aps": [{**CUSTOM_WORLD["aps"][0], "id": "ap,1"}]}))
        out = tmp_path / "world"
        assert main(["simulate", "--template", "custom", "--custom-file", str(world),
                     "--dr", "0.2", "--tp-count", "3", "--out-dir", str(out)]) == 0
        for name in ("measurements.csv", "testpoints.csv"):
            assert load_measurements(out / name).ap_ids() == ["ap,1"]
        assert main(["evaluate", "--world-dir", str(out), "--out-dir", str(tmp_path / "r"),
                     "--rho-grid", "1", "--dv-grid", "1"]) == 0

    def test_non_ascii_ids_are_written_as_utf8_under_any_locale(self, tmp_path):
        # Under the C locale, with locale coercion and UTF-8 mode off, Python's
        # default text encoding is ASCII; every file is written as UTF-8 anyway.
        world = tmp_path / "world.json"
        world.write_text(json.dumps({**CUSTOM_WORLD,
                                     "aps": [{**CUSTOM_WORLD["aps"][0], "id": "caf\u00e9"}]}))
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join(
                   [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / "world"

        def run(*argv):
            done = subprocess.run([sys.executable, *map(str, argv)], env=env,
                                  capture_output=True)
            assert done.returncode == 0, done.stderr.decode("utf-8", "replace")

        run("-m", "radioloc.cli", "simulate", "--template", "custom", "--custom-file", world,
            "--dr", "0.2", "--tp-count", "3", "--seed", "4", "--out-dir", out)
        fit_argv = ["-m", "radioloc.cli", "fit", "--measurements", out / "measurements.csv",
                    "--floorplan", out / "floorplan.json", "--aps", out / "aps.json",
                    "--out", tmp_path / "f"]
        run(*fit_argv)  # from the lanes file
        sidecar_path(out / "measurements.csv").unlink()
        run(*fit_argv)  # from the CSV
        for name in ("measurements.csv", "testpoints.csv"):
            assert load_measurements(out / name).ap_ids() == ["caf\u00e9"]
        # A text written through atomic_files is UTF-8 too.
        run("-c", "import sys; from radioloc.ioutil import write_text_atomic; "
                  "write_text_atomic(sys.argv[1], 'caf\\u00e9')", tmp_path / "t")
        assert (tmp_path / "t").read_bytes() == "caf\u00e9".encode()

    @pytest.mark.parametrize("template", ["spinv_like", "twist_like"])
    def test_testpoints_file_holds_the_campaign_targets(self, tmp_path, monkeypatch, template):
        campaigns = []

        def recorded(world, *args):
            result = simulator.simulate_campaign(world, *args)
            campaigns.append((world, result[1]))
            return result

        monkeypatch.setattr(cli, "simulate_campaign", recorded)
        out = tmp_path / "world"
        assert main(["simulate", "--template", template, "--seed", "5",
                     "--out-dir", str(out)]) == 0
        (world, targets), = campaigns
        tps = build_real_fingerprints(load_measurements(out / "testpoints.csv"), world.aps,
                                      world.sentinel_dbm)
        assert tps.rss.tobytes() == np.array([tp.fingerprint.rss for tp in targets]).tobytes()
        assert tps.pos.tobytes() == np.array(
            [[tp.position.x, tp.position.y, tp.position.z] for tp in targets]).tobytes()
        # save_measurements writes it: the survey's header and CRLF line ends.
        text = (out / "testpoints.csv").read_bytes()
        assert text.startswith(b"rp_id,x,y,z,ap_id,rss_dbm,scan_index\r\n")
        assert text.count(b"\n") == text.count(b"\r\n") == len(targets) * len(world.aps) + 1


class TestFit:
    def test_output_loadable(self, fit_file):
        result = load_fit_result(fit_file)
        assert result.m_used > 4
        assert result.residual_rms_db >= 0

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["fit", "--measurements", str(tmp_path / "no.csv"),
                     "--floorplan", str(tmp_path / "no.json"),
                     "--aps", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "out.json")])
        assert code == 2
        # The offending path is named in the message.
        assert "no.json" in capsys.readouterr().err

    def test_degenerate_exits_3(self, tmp_path):
        # Survey points on a ring around the only AP: underdetermined system.
        plan = {"bounds": {"min_x": 0, "min_y": 0, "max_x": 20, "max_y": 20},
                "floors": [], "obstacles": []}
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        (tmp_path / "aps.json").write_text(json.dumps(
            [{"id": "a", "x": 10, "y": 10, "z": 1.2, "eirp_dbm": 20}]))
        import math

        rows = ["rp_id,x,y,z,ap_id,rss_dbm,scan_index"]
        for i in range(8):
            t = 2 * math.pi * i / 8
            rows.append(f"rp{i},{10 + 5 * math.cos(t)},{10 + 5 * math.sin(t)},"
                        f"1.2,a,-60.0,0")
        (tmp_path / "meas.csv").write_text("\n".join(rows) + "\n")
        code = main(["fit", "--measurements", str(tmp_path / "meas.csv"),
                     "--floorplan", str(tmp_path / "plan.json"),
                     "--aps", str(tmp_path / "aps.json"),
                     "--out", str(tmp_path / "fit.json")])
        assert code == 3

    def test_single_ap_per_ap_equals_environment(self, tmp_path, world_dir):
        # Restrict the survey to one AP: pooled and per-AP systems coincide.
        meas = load_measurements(world_dir / "measurements.csv")
        only = [r for r in meas.records if r.ap_id == "ap01"]
        from radioloc.fitting import save_measurements

        single = tmp_path / "single.csv"
        save_measurements(measurement_set(only), single)
        aps_doc = json.loads((world_dir / "aps.json").read_text())
        (tmp_path / "aps1.json").write_text(json.dumps(
            [a for a in aps_doc if a["id"] == "ap01"]))
        outputs = {}
        for strategy in ("environment", "per-ap"):
            out = tmp_path / f"{strategy}.json"
            code = main(["fit", "--measurements", str(single),
                         "--floorplan", str(world_dir / "floorplan.json"),
                         "--aps", str(tmp_path / "aps1.json"),
                         "--strategy", strategy, "--out", str(out)])
            assert code == 0
            outputs[strategy] = load_fit_result(out)
        assert (outputs["environment"].params_for("ap01")
                == outputs["per-ap"].params_for("ap01"))


class TestBuildRadiomapAndLocate:
    def test_radiomap_round_trip(self, world_dir, fit_file, tmp_path):
        out = tmp_path / "map.json"
        code = main(["build-radiomap",
                     "--measurements", str(world_dir / "measurements.csv"),
                     "--floorplan", str(world_dir / "floorplan.json"),
                     "--aps", str(world_dir / "aps.json"),
                     "--fit", str(fit_file),
                     "--rho", "0.5", "--dv", "0.1", "--out", str(out)])
        assert code == 0
        rmap = load_radiomap(out)
        assert rmap.n_real == 21  # ceil(0.5 * 41)
        assert rmap.n_virtual == 45  # ceil(0.1 * 450)

    def test_locate_outputs_json(self, world_dir, fit_file, tmp_path, capsys):
        map_path = tmp_path / "map.json"
        main(["build-radiomap",
              "--measurements", str(world_dir / "measurements.csv"),
              "--floorplan", str(world_dir / "floorplan.json"),
              "--aps", str(world_dir / "aps.json"),
              "--fit", str(fit_file), "--rho", "1", "--dv", "1",
              "--out", str(map_path)])
        capsys.readouterr()
        target = tmp_path / "target.csv"
        target.write_text("ap_id,rss_dbm\nap01,-55.0\nap02,-70.0\nap03,ND\n")
        code = main(["locate", "--radiomap", str(map_path),
                     "--target", str(target), "--k", "4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"x", "y", "z", "neighbors"}
        assert len(doc["neighbors"]) == 4

    def test_locate_alpha_mode(self, world_dir, fit_file, tmp_path, capsys):
        map_path = tmp_path / "map.json"
        main(["build-radiomap",
              "--measurements", str(world_dir / "measurements.csv"),
              "--floorplan", str(world_dir / "floorplan.json"),
              "--aps", str(world_dir / "aps.json"),
              "--fit", str(fit_file), "--rho", "1", "--dv", "1",
              "--out", str(map_path)])
        capsys.readouterr()
        target = tmp_path / "target.csv"
        target.write_text("ap_id,rss_dbm\nap01,-55.0\n")
        code = main(["locate", "--radiomap", str(map_path),
                     "--target", str(target), "--alpha", "0.05"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # N = 41 real + 450 virtual; ceil(0.05 * 491) = 25
        assert len(doc["neighbors"]) == 25

    def test_locate_prints_the_same_bytes_without_the_lanes_file(
            self, world_dir, fit_file, tmp_path, capsys, monkeypatch):
        map_path = tmp_path / "map.json"
        assert main(["build-radiomap",
                     "--measurements", str(world_dir / "measurements.csv"),
                     "--floorplan", str(world_dir / "floorplan.json"),
                     "--aps", str(world_dir / "aps.json"),
                     "--fit", str(fit_file), "--rho", "1", "--dv", "1",
                     "--out", str(map_path)]) == 0
        target = tmp_path / "target.csv"
        target.write_text("ap_id,rss_dbm\nap01,-55.0\nap02,-70.0\nap03,ND\n")
        parses = []
        monkeypatch.setattr(radiomap, "radiomap_from_dict",
                            lambda doc: parses.append(None) or radiomap_from_dict(doc))
        printed = []
        for _ in range(2):
            capsys.readouterr()
            assert main(["locate", "--radiomap", str(map_path), "--target", str(target),
                         "--alpha", "0.05"]) == 0
            printed.append(capsys.readouterr().out)
            sidecar_path(map_path).unlink(missing_ok=True)
        assert parses == [None]  # the second call parsed the JSON
        assert printed[0] == printed[1] and len(json.loads(printed[0])["neighbors"]) == 25

    def test_failed_write_replaces_neither_file(self, world_dir, fit_file, tmp_path, capsys,
                                                monkeypatch):
        out_dir = tmp_path / "maps"
        out_dir.mkdir()
        argv = ["build-radiomap", "--measurements", str(world_dir / "measurements.csv"),
                "--floorplan", str(world_dir / "floorplan.json"),
                "--aps", str(world_dir / "aps.json"), "--fit", str(fit_file)]
        assert main(argv + ["--dv", "0.1", "--out", str(out_dir / "map.json")]) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert sorted(before) == ["map.json", "map.json.lanes"]

        class FullDisk:
            """A temp file whose first write lands and whose next one finds the disk full."""

            def __init__(self, fh):
                self.fh, self.written = fh, False

            def write(self, chunk):
                if self.written:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.written = True
                return self.fh.write(chunk)

        atomic_files = ioutil.atomic_files

        @contextlib.contextmanager
        def lanes_file_fills_the_disk(*paths, binary=False):
            with atomic_files(*paths, binary=binary) as (lanes, *rest):
                yield [FullDisk(lanes), *rest]

        monkeypatch.setattr(ioutil, "atomic_files", lanes_file_fills_the_disk)
        capsys.readouterr()
        assert main(argv + ["--dv", "1", "--out", str(out_dir / "map.json")]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
        assert main(argv + ["--dv", "1", "--out", str(out_dir / "new.json")]) == 2
        assert sorted(p.name for p in out_dir.iterdir()) == ["map.json", "map.json.lanes"]

    def test_unwritable_lanes_path_replaces_neither_file(self, world_dir, fit_file, tmp_path,
                                                         capsys):
        argv = ["build-radiomap", "--measurements", str(world_dir / "measurements.csv"),
                "--floorplan", str(world_dir / "floorplan.json"),
                "--aps", str(world_dir / "aps.json"), "--fit", str(fit_file),
                "--out", str(tmp_path / "map.json")]
        assert main(argv + ["--dv", "0.1"]) == 0
        before = (tmp_path / "map.json").read_bytes()
        sidecar_path(tmp_path / "map.json").unlink()
        sidecar_path(tmp_path / "map.json").mkdir()  # the rename onto it fails
        capsys.readouterr()
        assert main(argv + ["--dv", "1"]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert (tmp_path / "map.json").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["map.json", "map.json.lanes"]

    def test_locate_tiny_alpha_takes_one_neighbor(self, map_file, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text("ap_id,rss_dbm\nap01,-55.0\n")
        code = main(["locate", "--radiomap", str(map_file), "--target", str(target),
                     "--alpha", "1e-300"])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["neighbors"]) == 1

    def test_unknown_ap_in_target_exits_2(self, world_dir, fit_file, tmp_path,
                                          capsys):
        map_path = tmp_path / "map.json"
        main(["build-radiomap",
              "--measurements", str(world_dir / "measurements.csv"),
              "--floorplan", str(world_dir / "floorplan.json"),
              "--aps", str(world_dir / "aps.json"),
              "--fit", str(fit_file), "--out", str(map_path)])
        capsys.readouterr()
        target = tmp_path / "target.csv"
        target.write_text("ap_id,rss_dbm\nbogus,-55.0\n")
        assert main(["locate", "--radiomap", str(map_path),
                     "--target", str(target), "--k", "1"]) == 2


    @pytest.mark.parametrize("flags, n_real, n_virtual", [
        (["--rho", "1e-12", "--dv", "0"], 1, 0),
        (["--rho", "1", "--dv", "1e-13"], 41, 1),
    ], ids=["tiny-rho", "tiny-dv"])
    def test_tiny_fraction_or_density_keeps_one_point(self, world_dir, fit_file, tmp_path,
                                                      capsys, flags, n_real, n_virtual):
        # The ceiling of any positive product is at least one point, though
        # rounding to 9 decimals takes such a product to 0.
        map_path = tmp_path / "map.json"
        assert main(["build-radiomap",
                     "--measurements", str(world_dir / "measurements.csv"),
                     "--floorplan", str(world_dir / "floorplan.json"),
                     "--aps", str(world_dir / "aps.json"),
                     "--fit", str(fit_file), *flags, "--out", str(map_path)]) == 0
        rmap = load_radiomap(map_path)
        assert (rmap.n_real, rmap.n_virtual) == (n_real, n_virtual)
        target = tmp_path / "target.csv"
        target.write_text("ap_id,rss_dbm\nap01,-55.0\n")
        capsys.readouterr()
        assert main(["locate", "--radiomap", str(map_path), "--target", str(target),
                     "--k", "1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["neighbors"]) == 1


class TestInputErrorsExit2:
    """Malformed inputs and flags end with exit 2 and an error line, not a traceback."""

    @pytest.mark.parametrize("row", ["ap01,nan", "ap01,-130.0", "ap01", "ap01,-50.0,junk",
                                     "ap01,-50.0\nap01,ND", "ap01,-50.0\nap02,-60.0\nap01,-50.0"])
    def test_locate_bad_target_row(self, map_file, tmp_path, capsys, row):
        target = tmp_path / "target.csv"
        target.write_text(f"ap_id,rss_dbm\n{row}\n")
        code = exit_code(["locate", "--radiomap", str(map_file),
                          "--target", str(target), "--k", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("ap_id,rss_dbm\nap01,-50.0\nap01,ND\n", "more than one row for AP 'ap01'"),
        ("ap_id,rss_dbm\nap01,-50.0,junk\n", "malformed row ['ap01', '-50.0', 'junk']"),
        ("ap_id,rss_dbm,note\nap01,-50.0,x\n", "expected header ap_id,rss_dbm"),
    ], ids=["duplicate-ap", "extra-field", "extra-header-field"])
    def test_locate_target_error_names_the_row(self, map_file, tmp_path, capsys, text,
                                               message):
        target = tmp_path / "target.csv"
        target.write_text(text)
        code = exit_code(["locate", "--radiomap", str(map_file),
                          "--target", str(target), "--k", "1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: malformed target file {target}: {message}\n"

    def test_locate_k_above_map_size(self, map_file, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text("ap_id,rss_dbm\nap01,-55.0\n")
        n = len(load_radiomap(map_file))
        code = exit_code(["locate", "--radiomap", str(map_file),
                          "--target", str(target), "--k", str(n + 1)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {map_file}: k={n + 1} exceeds the number of reference points ({n})\n")

    def test_locate_empty_map_names_the_map(self, map_file, tmp_path, capsys):
        empty = tmp_path / "map.json"
        empty.write_text(json.dumps({**json.loads(map_file.read_text()), "rps": []}))
        target = tmp_path / "target.csv"
        target.write_text("ap_id,rss_dbm\nap01,-55.0\n")
        code = exit_code(["locate", "--radiomap", str(empty), "--target", str(target)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {empty}: radiomap has no reference points\n"

    def test_locate_order_overflowing_every_distance(self, map_file, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text("ap_id,rss_dbm\nap01,-55.0\n")
        code = exit_code(["locate", "--radiomap", str(map_file), "--target", str(target),
                          "--k", "3", "--order", "1e308"])
        assert code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == ["radioloc locate: error: argument --order: Minkowski order must "
                          "lie in [1, 34], got '1e308'"]

    @pytest.mark.parametrize("area", [math.nan, math.inf])
    def test_locate_non_finite_area(self, map_file, tmp_path, capsys, area):
        doc = json.loads(map_file.read_text())
        doc["area_m2"] = area  # json writes NaN or Infinity
        bad = tmp_path / "map.json"
        bad.write_text(json.dumps(doc))
        target = tmp_path / "target.csv"
        target.write_text("ap_id,rss_dbm\nap01,-55.0\n")
        code = exit_code(["locate", "--radiomap", str(bad), "--target", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "area must be positive and finite" in err
        assert len(err.splitlines()) == 1

    def test_locate_radiomap_sentinel_out_of_range_names_the_map(self, tmp_path, capsys):
        bad = tmp_path / "map.json"
        bad.write_text(json.dumps({"aps": [{"id": "ap01", "x": 1, "y": 1, "z": 2.8}],
                                   "sentinel_dbm": 50.0, "rps": []}))
        target = tmp_path / "t.csv"
        target.write_text("ap_id,rss_dbm\n")
        code = exit_code(["locate", "--radiomap", str(bad), "--target", str(target),
                          "--k", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: malformed radiomap file {bad}: "
            "sentinel must lie within [-120, 0] dBm, got 50.0\n")

    # The densities ask for far more than MAX_VIRTUAL_RPS positions; they are
    # refused by counting, before anything is placed.
    def test_build_radiomap_dv_over_the_cap(self, world_dir, fit_file, tmp_path, capsys):
        out = tmp_path / "map.json"
        code = exit_code(["build-radiomap",
                          "--measurements", str(world_dir / "measurements.csv"),
                          "--floorplan", str(world_dir / "floorplan.json"),
                          "--aps", str(world_dir / "aps.json"), "--fit", str(fit_file),
                          "--dv", "1e300", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --dv: 1e+300 RPs/m^2 over ")
        assert err.endswith(" is more than 1,000,000 virtual RPs\n")
        assert list(tmp_path.iterdir()) == []

    def test_evaluate_dv_grid_over_the_cap(self, world_dir, tmp_path, capsys, monkeypatch):
        sweeps = []
        monkeypatch.setattr(cli, "run_prediction_analysis",
                            lambda *args, **kwargs: sweeps.append(None))
        code = exit_code(["evaluate", "--world-dir", str(world_dir), "--rho-grid", "1",
                          "--dv-grid", "0,1,1e300", "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --dv-grid: 1e+300 RPs/m^2 over ")
        assert "more than 1,000,000 virtual RPs" in err
        assert sweeps == [] and not (tmp_path / "out").exists()

    def test_fit_with_ap_file_missing_survey_aps(self, world_dir, tmp_path, capsys):
        aps_doc = json.loads((world_dir / "aps.json").read_text())
        (tmp_path / "aps.json").write_text(json.dumps(aps_doc[:1]))
        code = exit_code(["fit", "--measurements", str(world_dir / "measurements.csv"),
                          "--floorplan", str(world_dir / "floorplan.json"),
                          "--aps", str(tmp_path / "aps.json"),
                          "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_build_radiomap_with_ap_file_missing_survey_aps(self, world_dir, fit_file,
                                                            tmp_path, capsys):
        aps_doc = json.loads((world_dir / "aps.json").read_text())
        (tmp_path / "aps.json").write_text(json.dumps(aps_doc[:1]))
        code = exit_code(["build-radiomap",
                          "--measurements", str(world_dir / "measurements.csv"),
                          "--floorplan", str(world_dir / "floorplan.json"),
                          "--aps", str(tmp_path / "aps.json"), "--fit", str(fit_file),
                          "--out", str(tmp_path / "map.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "missing from the AP file" in err
        assert not (tmp_path / "map.json").exists()

    def test_fit_obstacle_of_a_second_type(self, world_dir, tmp_path, capsys):
        # Each obstacle family carries one loss, so only type 1 is accepted.
        plan = json.loads((world_dir / "floorplan.json").read_text())
        plan["obstacles"][0]["type_index"] = 2
        (tmp_path / "floorplan.json").write_text(json.dumps(plan))
        code = exit_code(["fit", "--measurements", str(world_dir / "measurements.csv"),
                          "--floorplan", str(tmp_path / "floorplan.json"),
                          "--aps", str(world_dir / "aps.json"),
                          "--out", str(tmp_path / "fit.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "type_index 2" in err
        assert not (tmp_path / "fit.json").exists()

    def test_simulate_custom_noise_device_bias(self, tmp_path, capsys):
        # Device bias belongs to the --preset; a world's noise does not take it.
        world = tmp_path / "world.json"
        world.write_text(json.dumps({**CUSTOM_WORLD, "noise": {"device_bias_sigma_db": 2.0}}))
        out = tmp_path / "out"
        assert exit_code(["simulate", "--template", "custom", "--custom-file", str(world),
                          "--dr", "0.2", "--tp-count", "5", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "device_bias_sigma_db" in err
        assert not out.exists()

    def test_simulate_custom_takes_noise_from_its_file(self, tmp_path, capsys):
        # With every noise magnitude zero, the controlled survey is the
        # noiseless truth, so the seed cannot change it.
        silent = {"shadowing_sigma_db": 0, "slow_fading_sigma_db": 0, "mismatch_sigma_db": 0,
                  "drift_sigma_db": 0, "wall_loss_spread_db": 0}
        world = tmp_path / "world.json"
        world.write_text(json.dumps({**CUSTOM_WORLD, "noise": silent}))
        args = ["simulate", "--template", "custom", "--custom-file", str(world),
                "--preset", "controlled", "--dr", "0.2", "--tp-count", "5"]
        for seed in ("4", "5"):
            assert main(args + ["--seed", seed, "--out-dir", str(tmp_path / seed)]) == 0
        assert ((tmp_path / "4" / "measurements.csv").read_bytes()
                == (tmp_path / "5" / "measurements.csv").read_bytes())
        for flag, value in (("--shadowing-sigma", "0"), ("--mismatch-sigma", "1"),
                            ("--mismatch-corr", "6"), ("--drift-sigma", "0")):
            out = tmp_path / f"out{flag}"
            assert exit_code(args + [flag, value, "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and flag in err and '"noise" block' in err
            assert not out.exists()

    def test_evaluate_rho_grid_zero(self, world_dir, tmp_path, capsys):
        code = exit_code(["evaluate", "--world-dir", str(world_dir),
                          "--out-dir", str(tmp_path / "out"), "--rho-grid", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def world_with_point_at_ap01(world_dir, tmp_path):
        """A copy of the world whose survey has one more point, at ap01's position."""
        out = tmp_path / "world"
        out.mkdir()
        for name in ("floorplan.json", "aps.json", "testpoints.csv"):
            (out / name).write_bytes((world_dir / name).read_bytes())
        ap = next(a for a in json.loads((world_dir / "aps.json").read_text())
                  if a["id"] == "ap01")
        (out / "measurements.csv").write_text(
            (world_dir / "measurements.csv").read_text()
            + f"rpX,{ap['x']!r},{ap['y']!r},{ap['z']!r},ap01,-30.0,0\n")
        return out

    def test_fit_survey_point_at_ap(self, world_dir, tmp_path, capsys):
        world = self.world_with_point_at_ap01(world_dir, tmp_path)
        code = exit_code(["fit", "--measurements", str(world / "measurements.csv"),
                          "--floorplan", str(world / "floorplan.json"),
                          "--aps", str(world / "aps.json"),
                          "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert "error: point 'rpX' coincides with AP 'ap01'" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_evaluate_survey_point_at_ap(self, world_dir, tmp_path, capsys):
        world = self.world_with_point_at_ap01(world_dir, tmp_path)
        code = exit_code(["evaluate", "--world-dir", str(world),
                          "--out-dir", str(tmp_path / "out"),
                          "--rho-grid", "1.0", "--dv-grid", "0.1"])
        assert code == 2
        assert "error: point 'rpX' coincides with AP 'ap01'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_build_radiomap_virtual_rp_at_ap(self, world_dir, fit_file, tmp_path, capsys):
        plan = load_floorplan(world_dir / "floorplan.json")
        x, y, z = place_virtual_rps(plan, 1.0, "grid")[0].tolist()
        aps_doc = json.loads((world_dir / "aps.json").read_text())
        for ap in aps_doc:
            if ap["id"] == "ap01":
                ap.update(x=x, y=y, z=z)
        (tmp_path / "aps.json").write_text(json.dumps(aps_doc))
        out = tmp_path / "map.json"
        code = exit_code(["build-radiomap",
                          "--measurements", str(world_dir / "measurements.csv"),
                          "--floorplan", str(world_dir / "floorplan.json"),
                          "--aps", str(tmp_path / "aps.json"), "--fit", str(fit_file),
                          "--dv", "1", "--out", str(out)])
        assert code == 2
        assert "coincides with AP 'ap01'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shared", [True, False], ids=["no-ap-ids", "no-params-by-ap"])
    def test_build_radiomap_fit_missing_aps(self, world_dir, fit_file, tmp_path, capsys,
                                            shared):
        doc = json.loads(fit_file.read_text())
        if shared:
            doc["ap_ids"] = []
        else:
            del doc["params"], doc["ap_ids"]
            doc["params_by_ap"] = {}
        (tmp_path / "fit.json").write_text(json.dumps(doc))
        out = tmp_path / "map.json"
        code = exit_code(["build-radiomap",
                          "--measurements", str(world_dir / "measurements.csv"),
                          "--floorplan", str(world_dir / "floorplan.json"),
                          "--aps", str(world_dir / "aps.json"),
                          "--fit", str(tmp_path / "fit.json"), "--dv", "0.1",
                          "--out", str(out)])
        assert code == 2
        assert ("has no fitted parameters for APs ['ap01', 'ap02', 'ap03', 'ap04']"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("name, edit", [
        ("aps.json", lambda doc: doc[0].update(x=True)),
        ("floorplan.json", lambda doc: doc["bounds"].update(min_x=False)),
        # float() would parse it; a number in quotes is still a string.
        ("floorplan.json", lambda doc: doc["bounds"].update(max_x="10.5")),
    ], ids=["ap-x-true", "bounds-false", "bounds-string"])
    def test_fit_boolean_number(self, world_dir, tmp_path, capsys, name, edit):
        world = tmp_path / "world"
        world.mkdir()
        for other in ("aps.json", "floorplan.json"):
            doc = json.loads((world_dir / other).read_text())
            if other == name:
                edit(doc)
            (world / other).write_text(json.dumps(doc))
        out = tmp_path / "fit.json"
        code = exit_code(["fit", "--measurements", str(world_dir / "measurements.csv"),
                          "--floorplan", str(world / "floorplan.json"),
                          "--aps", str(world / "aps.json"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed ") and str(world / name) in err
        assert "expected a number, got " in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["params"].update(gamma=True), "expected a number, got true"),
        (lambda doc: doc.update(m_used=True), "expected a number, got true"),
        (lambda doc: doc.update(m_used=2.7), "expected an integer, got 2.7"),
    ], ids=["gamma-true", "m-used-true", "m-used-2.7"])
    def test_build_radiomap_fit_not_a_number(self, world_dir, fit_file, tmp_path, capsys,
                                             edit, message):
        doc = json.loads(fit_file.read_text())
        edit(doc)
        bad = tmp_path / "fit.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "map.json"
        code = exit_code(["build-radiomap",
                          "--measurements", str(world_dir / "measurements.csv"),
                          "--floorplan", str(world_dir / "floorplan.json"),
                          "--aps", str(world_dir / "aps.json"),
                          "--fit", str(bad), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: malformed fit result file {bad}: {message}\n"
        assert not out.exists()

    def test_locate_radiomap_of_string_rss(self, map_file, tmp_path, capsys):
        doc = json.loads(map_file.read_text())
        doc["rps"][0]["rss"][0] = "-50.5"  # float() would parse it
        bad = tmp_path / "map.json"
        bad.write_text(json.dumps(doc))
        assert not sidecar_path(bad).exists()  # the JSON is parsed
        target = tmp_path / "target.csv"
        target.write_text("ap_id,rss_dbm\nap01,-1.0\n")
        code = exit_code(["locate", "--radiomap", str(bad), "--target", str(target),
                          "--k", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f'error: malformed radiomap file {bad}: expected a number, got "-50.5"\n')

    def test_locate_radiomap_of_false_rss(self, map_file, tmp_path, capsys):
        doc = json.loads(map_file.read_text())
        doc["rps"][0]["rss"] = [False] * len(doc["aps"])
        bad = tmp_path / "map.json"
        bad.write_text(json.dumps(doc))
        target = tmp_path / "target.csv"
        target.write_text("ap_id,rss_dbm\nap01,-1.0\n")
        code = exit_code(["locate", "--radiomap", str(bad), "--target", str(target),
                          "--k", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: malformed radiomap file {bad}: expected a number, got false\n")

    def test_simulate_over_the_scan_cap(self, tmp_path, capsys, monkeypatch):
        # A campaign of the default twist_like grid draws 41 * 4 * 50 + 80 * 4 * 50
        # scans; under a lower cap it is refused before anything is drawn.
        monkeypatch.setattr(simulator, "MAX_CAMPAIGN_SCANS", 24_199)
        monkeypatch.setattr(cli, "simulate_campaign", None)
        out = tmp_path / "out"
        assert exit_code(["simulate", "--template", "twist_like", "--dr", "0.09111111111111111",
                          "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --dr 0.09111111111111111 with --tp-count 80: the campaign would draw "
            "24,200 scans, more than 24,199\n")
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["--dr", "--tp-count"])
    def test_custom_template_needs_dr_and_tp_count(self, tmp_path, capsys, missing):
        world = tmp_path / "world.json"
        world.write_text(json.dumps(CUSTOM_WORLD))
        given = {"--dr": "0.2", "--tp-count": "5"}
        del given[missing]
        out = tmp_path / "out"
        assert exit_code(["simulate", "--template", "custom", "--custom-file", str(world),
                          *given.popitem(), "--out-dir", str(out)]) == 2
        assert f"error: --template custom requires {missing}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--dr", "0"],
        ["simulate", "--dr", "1e-9"],
        ["simulate", "--tp-count", "0"],
        ["simulate", "--shadowing-sigma", "-1"],
        ["simulate", "--template", "custom"],
        ["simulate", "--seed", "-1"],
        ["build-radiomap", "--seed", "-1", "--measurements", "m", "--floorplan", "f",
         "--aps", "a", "--fit", "x"],
        ["build-radiomap", "--rho", "0", "--measurements", "m", "--floorplan", "f",
         "--aps", "a", "--fit", "x"],
        ["build-radiomap", "--sentinel", "-130", "--measurements", "m", "--floorplan", "f",
         "--aps", "a", "--fit", "x"],
        ["build-radiomap", "--detection-floor", "nan", "--measurements", "m",
         "--floorplan", "f", "--aps", "a", "--fit", "x"],
        ["build-radiomap", "--detection-floor", "inf", "--measurements", "m",
         "--floorplan", "f", "--aps", "a", "--fit", "x"],
        ["locate", "--k", "0", "--radiomap", "m", "--target", "t"],
        ["locate", "--alpha", "nan", "--radiomap", "m", "--target", "t"],
        ["locate", "--order", "0.5", "--radiomap", "m", "--target", "t"],
        ["locate", "--order", "inf", "--radiomap", "m", "--target", "t"],
        ["locate", "--order", "34.000001", "--radiomap", "m", "--target", "t"],
        ["locate", "--alpha", "1.5", "--radiomap", "m", "--target", "t"],
        ["locate", "--alpha", "1e308", "--radiomap", "m", "--target", "t"],
        ["evaluate", "--seed", "-1", "--world-dir", "w"],
        ["evaluate", "--alpha-step", "0", "--world-dir", "w"],
        # Grids that would never end or repeat alphas, refused before any sweep.
        ["evaluate", "--alpha-step", "1e-300", "--world-dir", "w"],
        ["evaluate", "--alpha-step", "1e-11", "--alpha-range", "0.5:0.50000001",
         "--world-dir", "w"],
        ["evaluate", "--dv-grid", "0", "--world-dir", "w"],
        ["evaluate", "--alpha-range", "0.3:0.1", "--world-dir", "w"],
        ["evaluate", "--alpha-range", "0.1:1.5", "--world-dir", "w"],
        # 1e308 + step == 1e308, so this grid would never pass its top.
        ["evaluate", "--alpha-range", "1e308:1e308", "--world-dir", "w"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_out_of_range_flags(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        flag = "--out" if argv[0] in ("build-radiomap",) else "--out-dir"
        extra = [] if argv[0] == "locate" else [flag, str(out)]
        assert exit_code(argv + extra) == 2
        err = capsys.readouterr().err
        assert "error:" in err and argv[1] in err  # rejected for that flag, not a missing file
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "locate"])
    def test_seed_on_a_command_that_draws_nothing(self, world_dir, map_file, tmp_path,
                                                  capsys, command):
        out = tmp_path / "fit.json"
        argv = {"fit": ["fit", "--measurements", str(world_dir / "measurements.csv"),
                        "--floorplan", str(world_dir / "floorplan.json"),
                        "--aps", str(world_dir / "aps.json"), "--out", str(out)],
                "locate": ["locate", "--radiomap", str(map_file),
                           "--target", str(world_dir / "measurements.csv")]}[command]
        assert exit_code(argv + ["--seed", "1"]) == 2
        error = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(error) == 1 and "--seed" in error[0]
        assert not out.exists()


class TestEvaluate:
    def test_reports_written_and_headlines_printed(self, world_dir, tmp_path,
                                                   capsys):
        out = tmp_path / "reports"
        code = main(["evaluate", "--world-dir", str(world_dir),
                     "--out-dir", str(out),
                     "--rho-grid", "0.2,1.0", "--dv-grid", "0.1,1"])
        assert code == 0
        for name in ("prediction", "positioning", "gain", "kest"):
            assert (out / f"{name}.csv").exists()
            assert (out / f"{name}.json").exists()
        text = capsys.readouterr().out
        assert "prediction:" in text
        assert "positioning:" in text
        assert "gain:" in text
        assert "k rule:" in text

    def test_byte_identical_rerun(self, world_dir, tmp_path):
        args = ["evaluate", "--world-dir", str(world_dir),
                "--rho-grid", "0.5,1.0", "--dv-grid", "0.5", "--seed", "7"]
        main(args + ["--out-dir", str(tmp_path / "r1")])
        main(args + ["--out-dir", str(tmp_path / "r2")])
        for name in ("prediction", "positioning", "gain", "kest"):
            for ext in ("csv", "json"):
                a = (tmp_path / "r1" / f"{name}.{ext}").read_bytes()
                b = (tmp_path / "r2" / f"{name}.{ext}").read_bytes()
                assert a == b, f"{name}.{ext} differs between reruns"

    def test_outputs_honour_the_umask(self, world_dir, tmp_path):
        fit_args = ["fit", "--measurements", str(world_dir / "measurements.csv"),
                    "--floorplan", str(world_dir / "floorplan.json"),
                    "--aps", str(world_dir / "aps.json")]
        eval_args = ["evaluate", "--world-dir", str(world_dir),
                     "--rho-grid", "1.0", "--dv-grid", "0.5"]
        previous = os.umask(0o022)
        try:
            assert main(fit_args + ["--out", str(tmp_path / "fit.json")]) == 0
            assert main(eval_args + ["--out-dir", str(tmp_path / "reports")]) == 0
        finally:
            os.umask(previous)
        outputs = [tmp_path / "fit.json", *sorted((tmp_path / "reports").iterdir())]
        assert len(outputs) == 9
        for path in outputs:
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name
        # The mode is the only difference: the bytes are those of a run under 0o077.
        previous = os.umask(0o077)
        try:
            assert main(fit_args + ["--out", str(tmp_path / "private.json")]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "private.json").stat().st_mode) == 0o600
        assert (tmp_path / "private.json").read_bytes() == (tmp_path / "fit.json").read_bytes()

    @pytest.mark.parametrize("rho_grid, printed, skipped", [
        ("0.02,1", "positioning:", "gain:"),  # the smallest fraction has no gain cell
        ("1,0.02", "gain:", "positioning:"),  # the last fraction's baseline failed
    ])
    def test_headline_of_a_failed_cell_is_skipped(self, world_dir, tmp_path, capsys,
                                                  rho_grid, printed, skipped):
        # A per-AP fit of one survey point fails; the other fraction's fits do not.
        code = main(["evaluate", "--world-dir", str(world_dir), "--strategy", "per-ap",
                     "--rho-grid", rho_grid, "--dv-grid", "0.1",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.count("cell failed:") == 3  # one prediction, two positioning
        assert "rho=0.02" in captured.err and "Traceback" not in captured.err
        assert printed in captured.out and skipped not in captured.out
        assert "prediction:" in captured.out and "k rule:" in captured.out
        assert len(list((tmp_path / "out").iterdir())) == 8

    def test_sweeps_share_link_tables_and_each_prefix_fit(self, world_dir, tmp_path,
                                                          monkeypatch):
        tables, fits, orders = Counter(), Counter(), []
        table_init, fit, order = LinkTable.__init__, evaluation.fit, evaluation.decimation_order

        def counting_init(self, plan, ap, positions):
            table_init(self, plan, ap, positions)
            tables[ap.id, self.positions.tobytes()] += 1

        def counting_fit(strategy, model, plan, aps, meas, **kwargs):
            fits[strategy.kind, len(meas.rp_ids())] += 1
            return fit(strategy, model, plan, aps, meas, **kwargs)

        monkeypatch.setattr(LinkTable, "__init__", counting_init)
        monkeypatch.setattr(evaluation, "fit", counting_fit)
        monkeypatch.setattr(evaluation, "decimation_order",
                            lambda positions: orders.append(1) or order(positions))
        calls = count_crossing_calls(monkeypatch)
        assert main(["evaluate", "--world-dir", str(world_dir), "--rho-grid", "0.2,0.5,1",
                     "--dv-grid", "0.1,1", "--out-dir", str(tmp_path / "out")]) == 0
        n = 41  # survey points
        survey = load_measurements(world_dir / "measurements.csv").xyz.tobytes()
        aps = json.loads((world_dir / "aps.json").read_text())
        assert [tables[ap["id"], survey] for ap in aps] == [1] * 4
        assert [calls[Point3(ap["x"], ap["y"], ap["z"]), survey] for ap in aps] == [1] * 4
        assert fits == {(StrategyKind.ENVIRONMENT, math.ceil(rho * n)): 1
                        for rho in (0.2, 0.5, 1)}
        assert orders == [1]

    def test_repeated_fraction_reads_its_own_row(self, tmp_path):
        # Random placement draws each row's virtual RPs from the row's own
        # seed, so the two rows of one fraction have different d_virtual = 1
        # cells; each gain and k-rule row must read its own.
        world, out = tmp_path / "world", tmp_path / "out"
        assert main(["simulate", "--template", "spinv_like", "--preset", "controlled",
                     "--seed", "2", "--out-dir", str(world)]) == 0
        assert main(["evaluate", "--world-dir", str(world), "--rho-grid", "0.5,0.5",
                     "--dv-grid", "1", "--placement", "random", "--out-dir", str(out)]) == 0

        def cells(name):
            return json.loads((out / f"{name}.json").read_text())["cells"]

        positioning = cells("positioning")
        assert [c["d_virtual"] for c in positioning] == [0.0, 1.0, 0.0, 1.0]
        assert len({c["d_real"] for c in positioning}) == 1
        rows = [positioning[:2], positioning[2:]]
        assert rows[0][1]["k_opt"] != rows[1][1]["k_opt"]
        gains = cells("gain")
        assert len(gains) == 2
        for gain, (baseline, cell) in zip(gains, rows):
            assert (gain["k_baseline"], gain["k_cell"]) == (baseline["k_opt"], cell["k_opt"])
            assert gain["gain"] == (baseline["mean_error_by_k"][baseline["k_opt"] - 1]
                                    / cell["mean_error_by_k"][cell["k_opt"] - 1])
        kest = cells("kest")
        assert len(kest) % 2 == 0
        half = len(kest) // 2
        for kest_row, (_, cell) in zip((kest[:half], kest[half:]), rows):
            assert {c["k_opt"] for c in kest_row} == {cell["k_opt"]}
            assert {c["mean_error_kopt_m"] for c in kest_row} == {
                cell["mean_error_by_k"][cell["k_opt"] - 1]}

    def test_every_cell_failed_exits_3(self, tmp_path, capsys):
        # Two survey points: every fit of the sweep is underdetermined or degenerate.
        world = tmp_path / "world"
        assert main(["simulate", "--template", "twist_like", "--seed", "2", "--dr", "0.005",
                     "--out-dir", str(world)]) == 0
        code = main(["evaluate", "--world-dir", str(world), "--rho-grid", "0.5,1",
                     "--dv-grid", "0.1", "--out-dir", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "cell failed" in err and err.count("error:") == 1

    def test_targets_on_survey_points_exit_0(self, world_dir, tmp_path, capsys):
        # Each target is a survey point, with the point's own fingerprint: no
        # noise between survey and request, so every target is located
        # exactly at k = 1, and the gain there divides 0 by 0.
        world = tmp_path / "world"
        world.mkdir()
        for name in ("floorplan.json", "aps.json", "measurements.csv"):
            (world / name).write_bytes((world_dir / name).read_bytes())
        (world / "testpoints.csv").write_bytes((world_dir / "measurements.csv").read_bytes())
        out = tmp_path / "out"
        assert main(["evaluate", "--world-dir", str(world), "--rho-grid", "1",
                     "--dv-grid", "1", "--out-dir", str(out)]) == 0
        assert "gain: nan at" in capsys.readouterr().out
        rows = (out / "positioning.csv").read_text().splitlines()[1:]
        gains = {tuple(row.split(",")[1:3]): row.split(",")[-1] for row in rows}
        assert gains[("0.0", "1")] == "" and gains[("1.0", "1")] == "nan"
        text = (out / "gain.json").read_text()
        assert '"gain": NaN' in text
        assert [math.isnan(cell["gain"]) for cell in json.loads(text)["cells"]] == [True]

    def test_tiny_alpha_range_takes_one_neighbor(self, world_dir, tmp_path):
        out = tmp_path / "reports"
        assert main(["evaluate", "--world-dir", str(world_dir), "--rho-grid", "1",
                     "--dv-grid", "0.5", "--alpha-range", "1e-300:1e-300",
                     "--out-dir", str(out)]) == 0
        cells = json.loads((out / "kest.json").read_text())["cells"]
        assert [(c["alpha"], c["k_est"]) for c in cells] == [(1e-300, 1)]

    def test_tiny_fraction_fits_one_point(self, world_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["evaluate", "--world-dir", str(world_dir), "--rho-grid", "1e-12,1",
                     "--dv-grid", "0.1", "--out-dir", str(out)]) == 0

        def cells(name):
            return json.loads((out / f"{name}.json").read_text())["cells"]

        assert [c["n_rps_fit"] for c in cells("prediction")] == [1, 41]
        area = load_floorplan(world_dir / "floorplan.json").area
        assert [(c["d_real"], c["n_real"]) for c in cells("positioning")] == [
            (1 / area, 1), (1 / area, 1), (41 / area, 41), (41 / area, 41)]

    def test_missing_world_dir_exits_2(self, tmp_path):
        assert main(["evaluate", "--world-dir", str(tmp_path / "nope"),
                     "--out-dir", str(tmp_path / "out")]) == 2


def test_default_grids_match_published_tables():
    assert RHO_GRID == (0.1, 0.2, 0.5, 1.0)
    assert DV_GRID == (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)
    assert (ALPHA_RANGE, ALPHA_STEP) == ((0.01, 0.25), 0.01)
    args = build_parser().parse_args(["evaluate", "--world-dir", "w", "--out-dir", "o"])
    assert (args.rho_grid, args.dv_grid) == (list(RHO_GRID), list(DV_GRID))
    assert (args.alpha_range, args.alpha_step) == (ALPHA_RANGE, ALPHA_STEP)


def test_main_builds_its_parser_once(monkeypatch, tmp_path):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._cached_parser.cache_clear()
    argv = ["locate", "--radiomap", str(tmp_path / "missing.json"),
            "--target", str(tmp_path / "missing.csv")]
    assert [main(argv), main(argv)] == [2, 2]
    assert len(built) == 1
    assert build_parser() is not build_parser()
