#!/usr/bin/env python3
"""Builds the perf ledger from source and runs it.

    python3 bench/perf/run.py --workload train-io --seed 1 --seconds 5 --trace 0

Every argument is passed to perf_ledger (see perf_ledger.cpp for the CLI).
The ledger is configured on first use into build-perf/ at the repository
root and rebuilt incrementally on each run; build output goes to stderr so
the ledger's last stdout line stays its JSON result. Before running, the
ledger's catalog (`perf_ledger --list`) is checked against BENCHMARK.json
and README.md. A failed build or check exits non-zero without printing a
result.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-perf"
LEDGER = BUILD / "perf_ledger"


def build() -> bool:
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def catalog_errors() -> list:
    """Where `perf_ledger --list`, BENCHMARK.json and README.md disagree on
    the workloads and metrics (names, order and units)."""
    listing = subprocess.run([str(LEDGER), "--list"], capture_output=True,
                             text=True, check=True).stdout
    sections = {}
    for line in listing.splitlines():
        if not line.startswith(" "):
            sections[line.split()[0]] = current = []
        else:
            current.append(line.split()[:2])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    readme = (HERE / "README.md").read_text()
    errors = []
    pairs = (("workloads:", [[w["name"]] for w in bench["workloads"]], 1),
             ("end-to-end", [[m["name"], m["unit"]] for m in bench["end_to_end"]], 2),
             ("per-layer", [[m["name"], m["unit"]] for m in bench["per_layer"]], 2))
    for section, expected, fields in pairs:
        listed = [entry[:fields] for entry in sections.get(section, [])]
        if listed != expected:
            errors.append(f"{section} catalog of perf_ledger --list differs "
                          f"from BENCHMARK.json: {listed} vs {expected}")
        errors += [f"README.md does not mention `{e[0]}`"
                   for e in expected if f"`{e[0]}`" not in readme]
    return errors


def main() -> int:
    if not build():
        print("perf ledger build failed", file=sys.stderr)
        return 2
    errors = catalog_errors()
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execv(str(LEDGER), [str(LEDGER)] + sys.argv[1:])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
