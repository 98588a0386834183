#!/usr/bin/env python3
"""Compare two sets of benchmark runs from the same host.

    python3 perfbench/run.py --workload fig9-cold --seed 1 --record parent.jsonl
    ...  (at least ten seeds per side, alternating parent and change)
    python3 perfbench/compare.py parent.jsonl change.jsonl

Each input holds the JSON lines `run.py --record` appends. Runs are
grouped by workload and trace mode; the i-th parent run of a group is
paired with its i-th change run. For every metric the tool prints both
sides' medians and quartiles, the share of pairs the change won (ties
count for neither side) and a verdict:

  better      the change won at least 90% of the pairs and the medians
              differ by more than the parent's own quartile distance
  worse       the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json
  no worse    neither of the above, with both spreads inside the bound
  unresolved  a side's quartile distance, as a share of its median,
              is wider than the bound (unless every change run beats,
              or loses to, every parent run)

Per-layer metrics carry no bound; they get the better/worse/-- call
from the pair rule alone. Records from different hosts, builds or
benchmark settings are refused.
"""

import argparse
import json
import os
import statistics
import sys

# Fingerprint keys that must match for numbers to be comparable.
HOST_KEYS = ["cpu", "nproc", "thp", "compiler", "build_type", "cxx_flags",
             "ubik_native", "sweep_env", "serve_env", "sweep_workers",
             "daemon_jobs", "serve_rate", "connections", "seconds"]


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """The verdict for one metric; see the module docstring."""
    sign = -1.0 if better == "lower" else 1.0  # > 0 means "change is better"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    mp, mc = statistics.median(parent), statistics.median(change)
    q1p, q3p = quartiles(parent)
    q1c, q3c = quartiles(change)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if share >= 0.9 and sign * (mc - mp) > (q3p - q1p):
        v = "better"
    elif bound is None:
        v = "worse" if all_worse else "--"
    elif mp == 0:
        v = "no worse" if sign * (mc - mp) >= 0 else "worse"
    elif max((q3p - q1p) / abs(mp), (q3c - q1c) / abs(mc or mp)) > bound:
        v = "better" if all_better else "worse" if all_worse else "unresolved"
    elif -sign * (mc - mp) / abs(mp) > bound:
        v = "worse"
    else:
        v = "no worse"
    return v, share, (mp, q1p, q3p), (mc, q1c, q3c)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            declared[m["name"]] = (m["better"], m.get("bound"), m["unit"])

    sides = {"parent": load(args.parent), "change": load(args.change)}
    hosts = {json.dumps({k: r["host"].get(k) for k in HOST_KEYS}, sort_keys=True)
             for runs in sides.values() for r in runs}
    if len(hosts) > 1:
        print("compare: runs come from different hosts, builds or settings:",
              file=sys.stderr)
        for h in sorted(hosts):
            print("  " + h, file=sys.stderr)
        return 2

    groups = {}
    for side, runs in sides.items():
        for r in runs:
            key = (r["host"]["workload"], r["host"]["trace"])
            groups.setdefault(key, {"parent": [], "change": []})[side].append(r["result"])

    rank = {"worse": 4, "unresolved": 3, "no worse": 2, "--": 1, "better": 0}
    fmt = "  %-38s %-8s %12s [%10s %10s] %12s [%10s %10s] %7s %5s  %s"
    for (workload, trace), g in sorted(groups.items()):
        if not g["parent"] or not g["change"]:
            print("%s (trace %d): runs on one side only" % (workload, trace))
            continue
        rows, worst = [], "better"
        for name in g["parent"][0]["metrics"]:
            if name not in declared:
                continue
            better, bound, unit = declared[name]
            p = [r["metrics"][name]["value"] for r in g["parent"] if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in g["change"] if name in r["metrics"]]
            if not p or not c:
                continue
            v, share, ps, cs = verdict(p, c, better, bound)
            delta = (cs[0] - ps[0]) / ps[0] * 100 if ps[0] else 0.0
            rows.append(fmt % (name, unit, "%.6g" % ps[0], "%.6g" % ps[1], "%.6g" % ps[2],
                               "%.6g" % cs[0], "%.6g" % cs[1], "%.6g" % cs[2],
                               "%+.1f%%" % delta, "%.0f%%" % (share * 100), v))
            if rank[v] > rank[worst]:
                worst = v
        bad = sum(not r["correct"] for side in g.values() for r in side)
        print("%-12s trace=%d  parent %d runs, change %d runs  verdict: %s%s"
              % (workload, trace, len(g["parent"]), len(g["change"]), worst,
                 "  (%d INCORRECT runs)" % bad if bad else ""))
        print(fmt % ("metric", "unit", "parent p50", "q1", "q3", "change p50", "q1", "q3",
                     "delta", "wins", "verdict"))
        for row in rows:
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
