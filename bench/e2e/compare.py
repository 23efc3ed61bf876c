#!/usr/bin/env python3
"""Compares two sets of bench/e2e results: a parent commit and a change.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON files run.py writes (--out DIR); traced and
smoke runs are ignored. Both sides must hold the same number of runs of
each workload at the same seeds and with the same measuring window; run
i of a seed on one side is paired with run i of that seed on the other,
so alternate the two sides run by run when collecting them. For every
end-to-end metric of BENCHMARK.json, one row per workload gives each
side's median and quartiles and one verdict:

  gain        the change wins at least 9 of every 10 pairs (ties count
              for neither), over at least 10 pairs, and the medians differ
              by more than the parent's interquartile range;
  regression  the change's median is worse than the parent's by more
              than the metric's bound; for an output that a fixed seed
              repeats bit for bit, the median of the paired differences
              is worse than its same-seed tolerance (see below);
  unresolved  either side's spread (interquartile range over median) is
              wider than the bound, unless every change run is better
              than every parent run;
  same        none of the above.

A change run that failed its checks, or that failed more operations than
its parent run, is a regression of the workload whatever its metrics.
The exit code is 1 when anything regressed, 2 when the two sides cannot
be compared.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9

# Outputs a fixed seed repeats bit for bit, and how far each may worsen
# from the parent run to the change run of the same seed: (share of the
# parent's value, absolute).
SAME_SEED_TOLERANCE = {
    "remote_bytes_per_triple": (0.0, 0.0),
    "sim_epoch_s": (0.0, 0.0),
    "final_loss": (0.01, 0.0),
    "test_mean_rank": (0.02, 0.0),
}


def die(message):
    print(f"compare.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_runs(directory):
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") or record.get("smoke"):
            continue
        runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: (r["seed"], r["date"]))
    return runs


def pair(workload, parent, change):
    """Parent and change runs of one workload, paired by seed."""
    if [r["seed"] for r in parent] != [r["seed"] for r in change]:
        die(f"{workload}: the two sides ran different seeds or numbers of runs")
    windows = {r["seconds"] for r in parent + change}
    if len(windows) != 1:
        die(f"{workload}: the runs measured for different times {sorted(windows)}")
    return list(zip(parent, change))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, tolerance):
    """(verdict, detail) for one metric of one workload; `parent` and
    `change` are paired run by run."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    worse = sign * (pm - cm) / abs(pm) if pm else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    detail = f"wins {wins}/{len(parent)}, worse by {worse:+.2%}, spread {spread:.2%}"
    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and sign * (cm - pm) > p3 - p1):
        return "gain", detail
    if tolerance is not None:
        share, absolute = tolerance
        excess = statistics.median(sign * (p - c) - share * abs(p) - absolute
                                   for p, c in zip(parent, change))
        return ("regression" if excess > 0 else "same"), detail
    if spread > bound and not all_better:
        return "unresolved", detail
    if worse > bound:
        return "regression", detail
    return "same", detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    pairs = {}
    for w in bench["workloads"]:
        name = w["name"]
        if parent.get(name) or change.get(name):
            pairs[name] = pair(name, parent.get(name, []), change.get(name, []))
    if not pairs:
        die("no runs to compare")

    regressed = False
    print("checks")
    for workload, runs in pairs.items():
        broken = [c for p, c in runs if not c["correct"] or c["failed"] > p["failed"]]
        unchecked = sum(1 for p, _ in runs if not p["correct"])
        result = "regression" if broken else "same"
        regressed = regressed or bool(broken)
        print(f"  {workload:22s} {result:10s} {len(broken)} of {len(runs)} change runs "
              f"failed their checks or more operations; {unchecked} parent runs failed")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        tolerance = SAME_SEED_TOLERANCE.get(name)
        limit = (f"same-seed tolerance {tolerance[0]:.0%} + {tolerance[1]:g}" if tolerance
                 else f"bound {metric['bound']:.0%}")
        print(f"{name} ({metric['unit']}, {metric['better']} is better, {limit})")
        for workload, runs in pairs.items():
            p = [r["end_to_end"][name] for r, _ in runs]
            c = [r["end_to_end"][name] for _, r in runs]
            result, detail = verdict(p, c, metric["better"], metric["bound"], tolerance)
            regressed = regressed or result == "regression"
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            print(f"  {workload:22s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}] n={len(p)}  "
                  f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] n={len(c)}  {result:10s} {detail}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
