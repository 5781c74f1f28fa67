#!/usr/bin/env bash
# Build the benchmark and run the whole suite: every workload untraced, then
# every workload traced (which includes the layer probes), each in a fresh
# process. `--repeat N` produces N result sets of the same commit and seed
# and compares each with the first — the repeatability check.
#
#   benchmark/run.sh [--repeat N] [--seed S] [--seconds T]
#
# Results land in benchmark/out/results-<i>.json, traces in
# benchmark/out/trace-<workload>.jsonl.
set -euo pipefail
cd "$(dirname "$0")"

repeat=1
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --repeat) repeat="$2"; shift 2 ;;
    --seed|--seconds) pass+=("$1" "$2"); shift 2 ;;
    *) echo "usage: run.sh [--repeat N] [--seed S] [--seconds T]" >&2; exit 2 ;;
  esac
done

cargo build --release --offline
bin="${CARGO_TARGET_DIR:-../target}/release/cloudburst-benchmark"
mkdir -p out

status=0
for i in $(seq 1 "$repeat"); do
  "$bin" all ${pass[@]+"${pass[@]}"} --out "out/results-$i.json" || status=1
done
for i in $(seq 2 "$repeat"); do
  echo
  echo "== compare results-1.json results-$i.json =="
  "$bin" compare out/results-1.json "out/results-$i.json" || status=1
done
exit "$status"
