"""Digests of every artifact of one fixed CLI chain, for comparing outputs across runs.

The chain runs in this process, in order:

- ``simulate`` a twist_like world with the crowdsourcing preset and a
  spinv_like world with the controlled preset;
- ``fit`` the spinv_like survey, then ``build-radiomap`` at rho in {0.1, 1}
  x dv in {1, 10};
- ``locate`` the first three spinv_like test points on every radiomap;
- ``evaluate`` the twist_like world with ``--rho-grid 0.2,1 --dv-grid 0,1,10``.

It then prints one ``sha256  path`` line per file under OUT_DIR (paths
relative to it, sorted), followed by each command's exit code and printed
stdout. Listings of one seed must be identical between runs under different
``PYTHONHASHSEED`` values, and between versions that claim unchanged outputs.
The exit code is 1 when any command in the chain exits nonzero.

Usage: PYTHONPATH=src python tools/output_digests.py OUT_DIR --seed N
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import sys
from pathlib import Path

from radioloc import cli

N_TARGETS = 3
GRID = [(rho, dv) for rho in ("0.1", "1") for dv in ("1", "10")]


def _target_csvs(testpoints: Path, out: Path) -> list[Path]:
    """One ``ap_id,rss_dbm`` file for each of the first N_TARGETS test points."""
    rows: dict[str, list[str]] = {}
    with open(testpoints, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["rp_id"], []).append(f"{row['ap_id']},{row['rss_dbm']}\n")
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for tp_id in list(rows)[:N_TARGETS]:
        path = out / f"{tp_id}.csv"
        path.write_text("ap_id,rss_dbm\n" + "".join(rows[tp_id]))
        paths.append(path)
    return paths


def run_chain(out: Path, seed: int) -> list[tuple[str, int, str]]:
    """Run the chain into ``out``; returns (command name, exit code, stdout) per command."""
    printed = []

    def run(name: str, *argv) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main([str(a) for a in argv])
        printed.append((name, rc, buf.getvalue()))

    twist, spinv = out / "twist_like", out / "spinv_like"
    run("simulate twist_like", "simulate", "--template", "twist_like",
        "--preset", "crowdsourcing", "--seed", seed, "--out-dir", twist)
    run("simulate spinv_like", "simulate", "--template", "spinv_like",
        "--preset", "controlled", "--seed", seed, "--out-dir", spinv)
    common = ["--measurements", spinv / "measurements.csv",
              "--floorplan", spinv / "floorplan.json", "--aps", spinv / "aps.json"]
    run("fit", "fit", *common, "--out", spinv / "fit.json")
    targets = _target_csvs(spinv / "testpoints.csv", out / "targets")
    for rho, dv in GRID:
        rmap = out / f"radiomap_rho{rho}_dv{dv}.json"
        run(f"build-radiomap rho={rho} dv={dv}", "build-radiomap", *common,
            "--fit", spinv / "fit.json", "--rho", rho, "--dv", dv, "--seed", seed,
            "--out", rmap)
        for target in targets:
            run(f"locate {rmap.name} {target.name}", "locate", "--radiomap", rmap,
                "--target", target)
    run("evaluate twist_like", "evaluate", "--world-dir", twist, "--seed", seed,
        "--rho-grid", "0.2,1", "--dv-grid", "0,1,10", "--out-dir", out / "reports")
    return printed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.out_dir.exists() and any(args.out_dir.iterdir()):
        parser.error(f"{args.out_dir} must be empty or absent")
    printed = run_chain(args.out_dir, args.seed)
    for path in sorted(p for p in args.out_dir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(args.out_dir).as_posix()}")
    for name, rc, text in printed:
        print(f"# {name}: exit {rc}")
        sys.stdout.write(text)
    return 1 if any(rc != 0 for _, rc, _ in printed) else 0


if __name__ == "__main__":
    sys.exit(main())
