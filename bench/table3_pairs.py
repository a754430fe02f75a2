#!/usr/bin/env python3
"""Table III compile cost of two builds, measured in alternating runs.

Runs `build/bench_table3_prep_cost --json` of a parent and a change checkout
in turn (parent first in odd pairs, change first in even ones) and writes
every run's output together with a summary: per query and column, the median
and quartiles of the per-run medians, in ms.

  python3 bench/table3_pairs.py --parent DIR --change DIR \\
      [--pairs 8] [--repeat 5] [--sf 0.01] --out BENCH_table3.json

Each DIR holds a build of the bench; it runs with DIR as its working
directory, so each run's `commit` stamp is DIR's checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

COLUMNS = ["compile_o0_ms", "compile_o2_ms", "full_query_ms", "exec_only_ms"]


def run(checkout, sf, repeat):
    binary = os.path.join(checkout, "build", "bench_table3_prep_cost")
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        subprocess.run([binary, f"--sf={sf}", f"--repeat={repeat}",
                        f"--json={out.name}"],
                       cwd=checkout, check=True, stdout=subprocess.DEVNULL)
        with open(out.name) as f:
            return json.load(f)


def summary(runs):
    result = {}
    for q in runs[0]["queries"]:
        name = q["name"]
        result[name] = {}
        for col in COLUMNS:
            medians = [next(x for x in r["queries"] if x["name"] == name)
                       [col]["median"] for r in runs]
            q1, med, q3 = statistics.quantiles(medians, n=4,
                                               method="inclusive")
            result[name][col] = {"median": med, "q1": q1, "q3": q3}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--sf", type=float, default=0.01)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        sys.exit("--pairs must be at least 2")

    runs = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for side in order:
            runs[side].append(run(getattr(args, side), args.sf, args.repeat))
            print(f"pair {pair} {side} done", file=sys.stderr)

    doc = {
        "bench": "table3_prep_cost",
        "method": (f"bench/table3_pairs.py: {args.pairs} alternating pairs "
                   f"of bench_table3_prep_cost --sf={args.sf} "
                   f"--repeat={args.repeat}; 'summary' is the median and "
                   "quartiles of the per-run medians, in ms"),
        "parent": {"summary": summary(runs["parent"]), "runs": runs["parent"]},
        "change": {"summary": summary(runs["change"]), "runs": runs["change"]},
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
