#!/usr/bin/env python3
"""Builds bench_e2e from the checkout's sources and runs one workload.

    python3 bench_e2e/run.py --workload tpch_warm --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The engine library and the benchmark are
built into .bench_build/ (first run only; later runs reuse the build), and
every file the run writes stays under .bench_build/, except the span file of
a traced run, bench_e2e/results/trace_<workload>.json. Build output goes to
stderr; the benchmark's stdout passes through, so its last line is the
result object. Exits non-zero, without a result, when the build fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"


def build():
    """Configures and builds bench_e2e; returns the binary path or None."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", "bench_e2e", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "bench_e2e", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(BUILD_DIR, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("bench_e2e: build failed", file=sys.stderr)
        return 2
    work = os.path.abspath(os.path.join(BUILD_DIR, "work"))
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # the runtime compiler's scratch files
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--duration-s=%g" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + work,
           "--json=" + os.path.join(BUILD_DIR, "result_%s_%d_%d.json" % (
               args.workload, args.seed, args.trace))]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
