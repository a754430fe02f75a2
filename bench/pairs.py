#!/usr/bin/env python3
"""One paper bench of two builds, measured in alternating runs.

Runs the bench's `--json` output of a parent and a change checkout in turn
(parent first in odd pairs, change first in even ones) and writes every
run's output together with a summary: per query (or kernel) and column, the
median and quartiles of the per-run values.

  python3 bench/pairs.py --bench table3 --parent DIR --change DIR \\
      [--pairs 8] [--repeat 5] [--sf 0.01] --out BENCH_table3.json
  python3 bench/pairs.py --bench fig8 --parent DIR --change DIR \\
      [--pairs 8] [--repeat 5] [--sf 0.1] [--threads 4] --out BENCH_fig8.json

Each DIR holds a build of the bench; it runs with DIR as its working
directory, so each run's `commit` stamp is DIR's checkout. A column the
parent's bench does not write yet is summarized for the change only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

# Per bench: its binary, default scale factor, the run-object lists holding
# per-query entries, and the columns to summarize (a column's value is a
# number, or an object whose "median" is taken: table3's layout).
BENCHES = {
    "table3": {
        "binary": "bench_table3_prep_cost",
        "name": "table3_prep_cost",
        "sf": 0.01,
        "lists": ["queries"],
        "columns": ["compile_o0_ms", "compile_o2_ms", "full_query_ms",
                    "exec_only_ms"],
        "unit": "ms",
    },
    "fig8": {
        "binary": "bench_fig8_tpch",
        "name": "fig8_tpch",
        "sf": 0.1,
        "lists": ["queries", "kernel_micro"],
        "columns": ["column_s", "hique_simd_s", "hique_simd_minflt",
                    "hique_comp_s", "hique_comp_minflt", "hique_mt_s",
                    "hique_mt_minflt"],
        "unit": "s; *_minflt in minor faults per run",
    },
}


def run(bench, checkout, args):
    binary = os.path.join(checkout, "build", bench["binary"])
    cmd = [binary, f"--sf={args.sf}", f"--repeat={args.repeat}"]
    if args.threads is not None:
        cmd.append(f"--threads={args.threads}")
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        subprocess.run(cmd + [f"--json={out.name}"], cwd=checkout, check=True,
                       stdout=subprocess.DEVNULL)
        with open(out.name) as f:
            return json.load(f)


def value(entry, col):
    v = entry.get(col)
    return v["median"] if isinstance(v, dict) else v


def summary(bench, runs):
    result = {}
    for lst in bench["lists"]:
        for q in runs[0].get(lst, []):
            name = q["name"]
            result[name] = {}
            for col in bench["columns"]:
                values = [value(next(x for x in r[lst] if x["name"] == name),
                                col) for r in runs]
                if any(v is None for v in values):
                    continue
                q1, med, q3 = statistics.quantiles(values, n=4,
                                                   method="inclusive")
                result[name][col] = {"median": med, "q1": q1, "q3": q3}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True, choices=sorted(BENCHES))
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--sf", type=float, default=None)
    ap.add_argument("--threads", type=int, default=None,
                    help="fig8 only: its parallel column's thread count")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bench = BENCHES[args.bench]
    if args.pairs < 2:
        sys.exit("--pairs must be at least 2")
    if args.threads is not None and args.bench != "fig8":
        sys.exit("--threads applies to fig8 only")
    if args.sf is None:
        args.sf = bench["sf"]

    runs = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for side in order:
            runs[side].append(run(bench, getattr(args, side), args))
            print(f"pair {pair} {side} done", file=sys.stderr)

    flags = f"--sf={args.sf} --repeat={args.repeat}"
    if args.threads is not None:
        flags += f" --threads={args.threads}"
    doc = {
        "bench": bench["name"],
        "method": (f"bench/pairs.py: {args.pairs} alternating pairs of "
                   f"{bench['binary']} {flags}; 'summary' is the median and "
                   f"quartiles of the per-run values, in {bench['unit']}"),
        "parent": {"summary": summary(bench, runs["parent"]),
                   "runs": runs["parent"]},
        "change": {"summary": summary(bench, runs["change"]),
                   "runs": runs["change"]},
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
