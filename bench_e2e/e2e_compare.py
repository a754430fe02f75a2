#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, workload by workload.

    python3 bench_e2e/e2e_compare.py PARENT_DIR CHANGE_DIR [--json OUT]

Each directory holds the --json files of untraced bench_e2e runs (as
run_e2e.sh writes them); runs of the two sets are paired by workload and
seed. For every workload and end-to-end metric of BENCHMARK.json the script
prints both sides' median and quartiles and a verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  same        within the bound, and the parent's spread is within it too
              (or every run of the change reads better than every run of
              the parent)
  unresolved  within the bound, but the parent's spread is wider than the
              bound, so the runs cannot tell

Exits 1 when any pairing is worse. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_runs(directory):
    """({workload: {seed: {metric: value}}}, {nproc, commit}) of the
    untraced runs in a directory."""
    runs, stamp = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                doc = json.load(f)
            except ValueError:
                continue
        if doc.get("bench") != "e2e" or doc.get("trace"):
            continue
        metrics = {k: v["value"] for k, v in doc["metrics"].items()}
        runs.setdefault(doc["workload"], {})[doc["seed"]] = metrics
        stamp = {k: doc.get(k) for k in ("nproc", "commit")}
    return runs, stamp


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, parent, change, pairs):
    lower = metric["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = (cm - pm) if lower else (pm - cm)
    if pm and worse_by / abs(pm) > metric["bound"]:
        return "worse"
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > (p3 - p1):
        return "improved"
    spread = (p3 - p1) / abs(pm) if pm else 0
    every_run_better = (max(change) < min(parent) if lower
                        else min(change) > max(parent))
    if spread <= metric["bound"] or every_run_better:
        return "same"
    return "unresolved"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    (parent, parent_stamp), (change, change_stamp) = (
        load_runs(args.parent), load_runs(args.change))
    stamps = {"parent": parent_stamp, "change": change_stamp}

    summary, regressions = [], 0
    for w in (w["name"] for w in bench["workloads"]):
        p_runs, c_runs = parent.get(w, {}), change.get(w, {})
        if not p_runs or not c_runs:
            print("%s: no runs on %s side" % (w, "parent" if not p_runs else "change"))
            regressions += 1
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pv = [r[name] for r in p_runs.values() if name in r]
            cv = [r[name] for r in c_runs.values() if name in r]
            pairs = [(p_runs[s][name], c_runs[s][name])
                     for s in sorted(set(p_runs) & set(c_runs))
                     if name in p_runs[s] and name in c_runs[s]]
            if not pv or not cv:
                continue
            v = verdict(metric, pv, cv, pairs)
            regressions += v == "worse"
            pq, cq = quartiles(pv), quartiles(cv)
            summary.append({
                "workload": w, "metric": name, "unit": metric["unit"],
                "better": metric["better"], "bound": metric["bound"],
                "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2], "runs": len(pv)},
                "change": {"q1": cq[0], "median": cq[1], "q3": cq[2], "runs": len(cv)},
                "parent_iqr_pct": 100 * (pq[2] - pq[0]) / pq[1] if pq[1] else 0,
                "change_iqr_pct": 100 * (cq[2] - cq[0]) / cq[1] if cq[1] else 0,
                "delta_pct": 100 * (cq[1] - pq[1]) / pq[1] if pq[1] else 0,
                "verdict": v})

    print("%-14s %-16s %-5s %27s %27s %7s  %s" % (
        "workload", "metric", "unit", "parent q1 / median / q3",
        "change q1 / median / q3", "delta", "verdict"))
    for s in summary:
        p, c = s["parent"], s["change"]
        print("%-14s %-16s %-5s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g %+6.1f%%  %s (n=%d/%d)"
              % (s["workload"], s["metric"], s["unit"], p["q1"], p["median"],
                 p["q3"], c["q1"], c["median"], c["q3"], s["delta_pct"],
                 s["verdict"], p["runs"], c["runs"]))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"bench": "e2e", "stamps": stamps, "comparison": summary},
                      f, indent=1)
            f.write("\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
