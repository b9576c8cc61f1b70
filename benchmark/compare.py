#!/usr/bin/env python3
"""Compares two sets of benchmark results under BENCHMARK.json's bounds.

  compare.py BASE CHANGE [--spec BENCHMARK.json]

BASE and CHANGE are each one results file written by `benchmark/run.sh
--out`, or several joined by commas: a set of runs. Each run contributes its
median. One row is printed per (workload, end-to-end metric):

  unresolved  a side's IQR across runs is wider than the bound (as a share
              of its median) and not every CHANGE run beats every BASE run
  better      every CHANGE run beats every BASE run despite that spread, or
              the median improved by more than the bound
  worse       the median got worse by more than the bound
  unchanged   otherwise

Simulated metrics must be exactly equal: sim_cycles and every per-layer
metric except host time, host shares and overheads. Any that differ are
listed; compare runs made with the same seeds. Exits 1 if a metric got
worse or a simulated metric differs.
"""

import argparse
import json
import os
import statistics
import sys

# Per-layer metrics that measure the host rather than the simulated SoC.
HOST_PREFIXES = ("host_share.", "span.", "sim.ops_per_s", "profile.",
                 "trace.overhead_frac", "observers.overhead_frac")


def load(arg):
    """{(workload, metric): [median of each run]} over comma-separated files."""
    runs = {}
    for path in arg.split(","):
        with open(path) as f:
            for detail in json.load(f)["results"]:
                for name, m in detail["metrics"].items():
                    runs.setdefault((detail["workload"], name), []).append(
                        m["median"])
    return runs


def spread(xs):
    med = statistics.median(xs)
    if len(xs) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / abs(med)


def verdict(base, change, better, bound):
    mb, mc = statistics.median(base), statistics.median(change)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (mc - mb) / abs(mb) if mb else 0.0
    if max(spread(base), spread(change)) > bound:
        all_better = all(sign * (c - b) < 0 for c in change for b in base)
        return ("better" if all_better else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > bound:
        return "better", worse_by
    return "unchanged", worse_by


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--spec", default=os.path.join(here, "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    base, change = load(args.base), load(args.change)

    bad = False
    print(f"{'workload':<16} {'metric':<16} {'base':>14} {'change':>14} "
          f"{'worse by':>9}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in base or key not in change:
                print(f"{key[0]:<16} {key[1]:<16} {'missing':>14}")
                bad = True
                continue
            v, worse_by = verdict(base[key], change[key], m["better"], m["bound"])
            bad = bad or v == "worse"
            print(f"{key[0]:<16} {key[1]:<16} "
                  f"{statistics.median(base[key]):>14.6g} "
                  f"{statistics.median(change[key]):>14.6g} "
                  f"{100 * worse_by:>8.2f}%  {v}")

    simulated = [m for m in spec["end_to_end"] if m["name"] == "sim_cycles"]
    simulated += [m for m in spec["per_layer"]
                  if not m["name"].startswith(HOST_PREFIXES)]
    differs = []
    for w in spec["workloads"]:
        for m in simulated:
            key = (w["name"], m["name"])
            if set(base.get(key, [])) != set(change.get(key, [])):
                differs.append(f"{key[0]} {key[1]}: {base.get(key)} -> "
                               f"{change.get(key)}")
    print("simulated metrics: " +
          ("identical" if not differs else "DIFFER"))
    for d in differs:
        print("  " + d)
    return 1 if bad or differs else 0


if __name__ == "__main__":
    sys.exit(main())
