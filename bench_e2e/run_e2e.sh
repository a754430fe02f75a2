#!/usr/bin/env bash
# Runs every bench_e2e workload N times untraced, then N times traced, and
# keeps each run's --json file for e2e_compare.py.
#
#   bench_e2e/run_e2e.sh [-n RUNS] [-s SECONDS] [-o OUTDIR] CHANGE_BUILD [PARENT_BUILD]
#
# A BUILD is a directory holding a bench_e2e binary (cmake -S bench_e2e -B
# BUILD). With two builds, every run index executes on both sides with the
# same seed, alternating which side goes first; results land in
# OUTDIR/change and OUTDIR/parent. Then:
#
#   python3 bench_e2e/e2e_compare.py OUTDIR/parent OUTDIR/change
set -euo pipefail

runs=10
seconds=16
out=bench_e2e_runs
while getopts "n:s:o:" opt; do
  case "$opt" in
    n) runs=$OPTARG ;;
    s) seconds=$OPTARG ;;
    o) out=$OPTARG ;;
    *) sed -n '2,12p' "$0"; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [[ $# -lt 1 || $# -gt 2 ]]; then
  sed -n '2,12p' "$0"
  exit 2
fi

declare -A build=([change]=$1)
sides=(change)
if [[ $# -eq 2 ]]; then
  build[parent]=$2
  sides=(parent change)
fi
workloads=(tpch_warm adhoc_cold stream_wide refresh_mixed)
work=$(mkdir -p "$out/work" && cd "$out/work" && pwd)

run_one() {  # side workload seed trace
  local dir="$out/$1"
  mkdir -p "$dir"
  TMPDIR="$work" "${build[$1]}/bench_e2e" --workload="$2" --seed="$3" \
    --duration-s="$seconds" --trace="$4" --work-dir="$work" \
    --json="$dir/$2_$3_$4.json" --trace-out="$dir/trace_$2_$3.json" \
    > "$dir/$2_$3_$4.log" 2>&1 || echo "FAILED: $1 $2 seed=$3 trace=$4 (see $dir/$2_$3_$4.log)"
}

for trace in 0 1; do
  for ((i = 0; i < runs; i++)); do
    seed=$((1000 + i))
    order=("${sides[@]}")
    if (( i % 2 == 1 && ${#sides[@]} == 2 )); then order=(change parent); fi
    for w in "${workloads[@]}"; do
      for side in "${order[@]}"; do
        echo "run $((i + 1))/$runs trace=$trace $w $side"
        run_one "$side" "$w" "$seed" "$trace"
      done
    done
  done
done
