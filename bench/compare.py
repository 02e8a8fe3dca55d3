"""Compare two sets of benchmark result files, or summarise one set.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/compare.py RESULTS_DIR

A set is a directory of result files written by ``run.py --out``.  Runs of
the same workload and seed in the two sets form a pair.  For each workload
and end-to-end metric the comparison prints each side's median and
quartiles, the pairs the change won and a verdict:

  improved                the change wins at least 9 of 10 pairs (ties count
                          for neither) and the medians differ by more than the
                          parent's quartile distance;
  no-worse-within-bound   the change's median is worse than the parent's by
                          at most the metric's bound in BENCHMARK.json;
  worse                   worse by more than the bound;
  unresolved              the parent's own quartile distance is wider than the
                          bound, and not every change run beats every parent run.

It also compares failed operations per workload and, for traced results,
prints per-layer medians and whether the computed counts of same-seed runs
are identical.  One set alone prints each metric's median, quartiles and
spread (quartile distance over median) against its bound.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import COUNT_METRICS  # noqa: E402


def load_set(directory):
    """{(workload, trace): {seed: result}}"""
    runs = defaultdict(dict)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            result = json.load(f)
        env = result["environment"]
        runs[(env["workload"], env["trace"])][env["seed"]] = result
    if not runs:
        raise SystemExit(f"compare: no result files in {directory}")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, pairs, better, bound):
    """The verdict for one metric on one workload, and the pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "improved", wins
    if (p_q3 - p_q1) > bound * abs(p_med):
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "no-worse-within-bound", wins
        return "unresolved", wins
    if -gain <= bound * abs(p_med):
        return "no-worse-within-bound", wins
    return "worse", wins


def values_of(results, name):
    return [r["metrics"][name]["value"] for r in results.values() if name in r["metrics"]]


def failures(results):
    return sum(r["failed"] for r in results.values()), sum(r["attempted"] for r in results.values())


def summarise(runs, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for (workload, trace), results in sorted(runs.items()):
        failed, attempted = failures(results)
        print(f"\n{workload} (trace {trace}): {len(results)} runs, "
              f"failed {failed}/{attempted}")
        names = bounds if trace == 0 else next(iter(results.values()))["metrics"]
        for name in names:
            vals = values_of(results, name)
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            line = f"  {name:44s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}"
            if name in bounds:
                line += f"  bound {bounds[name]['bound']}"
            print(line)


def compare(parent_runs, change_runs, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for key in sorted(set(parent_runs) | set(change_runs)):
        workload, trace = key
        parent, change = parent_runs.get(key, {}), change_runs.get(key, {})
        if not parent or not change:
            print(f"\n{workload} (trace {trace}): only in one set, skipped")
            continue
        seeds = sorted(set(parent) & set(change))
        pf, pa = failures(parent)
        cf, ca = failures(change)
        print(f"\n{workload} (trace {trace}): {len(parent)} parent runs, {len(change)} change "
              f"runs, {len(seeds)} pairs; failed {pf}/{pa} -> {cf}/{ca}"
              + ("  MORE FAILURES" if cf / ca > pf / pa else ""))
        if trace == 0:
            print(f"  {'metric':22s} {'parent median [q1, q3]':36s} "
                  f"{'change median [q1, q3]':36s} won   verdict")
            for name, m in metrics.items():
                pv, cv = values_of(parent, name), values_of(change, name)
                if not pv or not cv:
                    continue
                pairs = [(parent[s]["metrics"][name]["value"], change[s]["metrics"][name]["value"])
                         for s in seeds]
                v, wins = verdict(pv, cv, pairs, m["better"], m["bound"])
                (p1, pm, p3), (c1, cm, c3) = quartiles(pv), quartiles(cv)
                print(f"  {name:22s} {f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':36s} "
                      f"{f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':36s} "
                      f"{f'{wins}/{len(pairs)}':5s} {v}")
            continue
        for name in next(iter(parent.values()))["metrics"]:
            pv, cv = values_of(parent, name), values_of(change, name)
            if pv and cv:
                print(f"  {name:44s} {statistics.median(pv):12.6g} -> "
                      f"{statistics.median(cv):12.6g}")
        differing = [s for s in seeds for c in COUNT_METRICS
                     if parent[s]["metrics"][c]["value"] != change[s]["metrics"][c]["value"]]
        print("  computed counts: " + ("identical for every pair" if not differing else
                                       f"DIFFER for seeds {sorted(set(differing))}"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", metavar="DIR", help="one or two result directories")
    parser.add_argument("--spec", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two result directories")
    with open(args.spec) as f:
        spec = json.load(f)
    if len(args.sets) == 1:
        summarise(load_set(args.sets[0]), spec)
    else:
        compare(load_set(args.sets[0]), load_set(args.sets[1]), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
