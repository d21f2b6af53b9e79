#!/usr/bin/env python3
"""Compares two sets of perf-ledger runs against BENCHMARK.json's bounds.

    python3 bench/perf/compare.py BASE... --vs NEW... [--per-layer]

BASE and NEW are files or directories of files holding ledger records: the
--out file of one run (an object) or of an all-workloads run (a list), or a
captured stdout, whose `record {...}` lines are read. For every (workload,
end-to-end metric) the table shows each set's median and quartiles and a
verdict. A metric may worsen by its bound times BASE's median, or by its
absolute floor (FLOORS below) when that is larger:

  regressed   NEW's median is worse than BASE's by more than that allowance
  unresolved  a set's quartile spread exceeds the allowance, unless every
              NEW run reads better than every BASE run
  improved    with at least ten runs a side, NEW wins >= 90% of the pairs
              and the medians differ by more than BASE's quartile spread
  unchanged   otherwise
  missing     a set has no valid run with the metric

Runs of the two sets with the same (workload, seed) are paired and the
pair win-rate is shown; otherwise every cross pair counts. A record of a run
that failed a correctness gate is listed and left out. Exits 1 when any
metric regressed or is missing, or any record was invalid. Standard library
only.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_RUNS_FOR_GAIN = 10
# Absolute allowances, in the metric's unit. A sub-second set-up moves by
# more than its relative bound with the load other tenants put on the host.
FLOORS = {"setup_s": 0.15}


def read_records(paths):
    """Returns ((workload, seed) -> metric -> value, invalid runs)."""
    files = []
    for p in map(Path, paths):
        files += sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p]
    runs, invalid = {}, []
    for f in files:
        text = f.read_text()
        try:
            doc = json.loads(text)
            records = doc if isinstance(doc, list) else [doc]
        except json.JSONDecodeError:
            records = [json.loads(line[len("record "):])
                       for line in text.splitlines() if line.startswith("record ")]
        for r in records:
            if not isinstance(r, dict) or "workload" not in r:
                continue
            if r["failures"] or not r["result"]["correct"]:
                invalid.append(f"{f}: {r['workload']} seed {r['seed']} trace "
                               f"{r['trace']}: {'; '.join(r['failures'])}")
                continue
            metrics = {k: v["value"] for k, v in r["result"]["metrics"].items()}
            runs.setdefault((r["workload"], r["seed"]), {}).update(metrics)
    return runs, invalid


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, allowed, lower_is_better, paired):
    """Returns (verdict, win_rate) for one (workload, metric); `allowed` is
    the worsening permitted, in the metric's unit."""
    sign = 1.0 if lower_is_better else -1.0
    (b1, bm, b3), (n1, nm, n3) = quartiles(base), quartiles(new)
    pairs = paired or [(b, n) for b in base for n in new]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) > 0)
    win_rate = wins / len(pairs)
    all_better = losses == 0 and wins == len(pairs)
    worse_by = sign * (nm - bm)
    if worse_by > allowed:
        return "regressed", win_rate
    if max(b3 - b1, n3 - n1) > allowed and not all_better:
        return "unresolved", win_rate
    enough = min(len(base), len(new)) >= MIN_RUNS_FOR_GAIN
    if enough and win_rate >= 0.9 and -worse_by > b3 - b1:
        return "improved", win_rate
    return "unchanged", win_rate


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="+", help="BASE files or directories")
    ap.add_argument("--vs", nargs="+", required=True, dest="new",
                    help="NEW files or directories")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    ap.add_argument("--per-layer", action="store_true",
                    help="also print per-layer medians (no verdict)")
    args = ap.parse_args()

    bench = json.loads(Path(args.benchmark).read_text())
    (base_runs, base_bad), (new_runs, new_bad) = (read_records(args.base),
                                                  read_records(args.new))
    for side, bad in (("base", base_bad), ("new", new_bad)):
        for line in bad:
            print(f"invalid {side} run, left out: {line}")
    workloads = [w["name"] for w in bench["workloads"]]
    fmt = "{:<17} {:<22} {:>26} {:>26} {:>7} {:>6} {:>6}  {}"
    print(fmt.format("workload", "metric", "base q1/median/q3",
                     "new q1/median/q3", "delta", "bound", "wins", "verdict"))
    failed = bool(base_bad or new_bad)
    for w in workloads:
        base_seeds = {s: m for (wl, s), m in base_runs.items() if wl == w}
        new_seeds = {s: m for (wl, s), m in new_runs.items() if wl == w}
        rows = [(m, True) for m in bench["end_to_end"]]
        if args.per_layer:
            rows += [(m, False) for m in bench["per_layer"]]
        for metric, gated in rows:
            name = metric["name"]
            base = [m[name] for m in base_seeds.values() if name in m]
            new = [m[name] for m in new_seeds.values() if name in m]
            if not base or not new:
                if gated:
                    failed = True
                    print(fmt.format(w, name, f"{len(base)} runs",
                                     f"{len(new)} runs", "-", "-", "-",
                                     "missing"))
                continue
            common = sorted(set(base_seeds) & set(new_seeds))
            paired = [(base_seeds[s][name], new_seeds[s][name]) for s in common
                      if name in base_seeds[s] and name in new_seeds[s]]
            (b1, bm, b3), (n1, nm, n3) = quartiles(base), quartiles(new)
            delta = (nm - bm) / abs(bm) if bm else 0.0
            if gated:
                allowed = max(metric["bound"] * abs(bm), FLOORS.get(name, 0.0))
                v, win_rate = verdict(base, new, allowed,
                                      metric["better"] == "lower", paired)
                failed |= v == "regressed"
                bound, wins = (f"{allowed / abs(bm):.0%}" if bm else "-",
                               f"{win_rate:.0%}" + ("p" if paired else ""))
            else:
                v, bound, wins = "-", "-", "-"
            print(fmt.format(
                w, name, f"{b1:.4g}/{bm:.4g}/{b3:.4g}",
                f"{n1:.4g}/{nm:.4g}/{n3:.4g}", f"{delta:+.1%}", bound, wins, v))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
