#!/usr/bin/env bash
# Alternating base/head pairs of the yardstick (benchmark/, BENCHMARK.json).
#
# One base-then-head measurement confounds the change with whatever the box
# was doing second. This runs N pairs, flipping which side goes first each
# pair, prints `compare` for every pair, and ends with one row per
# (workload, metric): each side's median and quartiles over the pairs, and
# in how many pairs the head read better (ties count for neither).
#
#   scripts/yardstick_pairs.sh <base-bin> <head-bin> [N] [--workload W] [--seed S] [--out DIR]
#
# <base-bin> / <head-bin> are `cloudburst-benchmark` executables built from
# the two commits. Without --workload each side of a pair is one `all` run
# (every workload, untraced and traced); with it, one untraced run of W.
# Result sets land in DIR (default: a fresh temp dir) as base-<i>.json /
# head-<i>.json. Exit status: 1 if any pair's compare printed REGRESSED or
# could not be read, else 0 — UNRESOLVED rows are reported, not failed on.
set -euo pipefail

usage() {
  echo "usage: yardstick_pairs.sh <base-bin> <head-bin> [N] [--workload W] [--seed S] [--out DIR]" >&2
  exit 2
}

[ $# -ge 2 ] || usage
base="$1"; head="$2"; shift 2
pairs=10
workload=""
seed=()
out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:?}"; shift 2 ;;
    --seed) seed=(--seed "${2:?}"); shift 2 ;;
    --out) out="${2:?}"; shift 2 ;;
    ''|*[!0-9]*) usage ;;
    *) pairs="$1"; shift ;;
  esac
done
[ -x "$base" ] && [ -x "$head" ] || { echo "both binaries must be executable" >&2; exit 2; }
[ -n "$out" ] || out="$(mktemp -d)"
mkdir -p "$out"
manifest="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

# One side of one pair -> a result set `compare` can read.
measure() {
  local bin="$1" file="$2"
  if [ -z "$workload" ]; then
    "$bin" all ${seed[@]+"${seed[@]}"} --out "$file" >"$file.log" 2>&1 || true
  else
    "$bin" --workload "$workload" --trace 0 ${seed[@]+"${seed[@]}"} --out "$file.run" >"$file.log" 2>&1 || true
    printf '{"runs": [%s]}\n' "$(cat "$file.run")" >"$file"
    rm -f "$file.run"
  fi
}

status=0
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
  for side in $order; do
    if [ "$side" = base ]; then measure "$base" "$out/base-$i.json"; else measure "$head" "$out/head-$i.json"; fi
  done
  echo "== pair $i/$pairs ($order) =="
  set +e
  "$head" compare "$out/base-$i.json" "$out/head-$i.json" | tee "$out/compare-$i.txt"
  rc=${PIPESTATUS[0]}
  set -e
  if [ "$rc" -ge 2 ] || grep -q REGRESSED "$out/compare-$i.txt"; then status=1; fi
  echo
done

python3 - "$manifest" "$out" "$pairs" <<'PYEOF'
import json
import statistics
import sys

manifest_path, out, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
better = {m["name"]: m["better"] for m in json.load(open(manifest_path))["end_to_end"]}


def untraced(path):
    runs = json.load(open(path))["runs"]
    return {r["workload"]: r["metrics"] for r in runs if not r.get("trace")}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


rows = {}
for i in range(1, pairs + 1):
    a, b = untraced(f"{out}/base-{i}.json"), untraced(f"{out}/head-{i}.json")
    for workload in a:
        for name in better:
            try:
                va, vb = a[workload][name]["value"], b[workload][name]["value"]
            except KeyError:
                continue
            rows.setdefault((workload, name), []).append((va, vb))

print(f"== summary over {pairs} alternating pairs (results in {out}) ==")
print(f"{'workload':<14} {'metric':<14} {'base median [q1, q3]':>36} "
      f"{'head median [q1, q3]':>36} {'change':>8}  head wins")
for (workload, name), values in rows.items():
    base, head = [v[0] for v in values], [v[1] for v in values]
    lower = better[name] == "lower"
    wins = sum(1 for va, vb in values if (vb < va if lower else vb > va))
    mb, mh = statistics.median(base), statistics.median(head)
    change = f"{(mh - mb) / mb * 100:+.1f}%" if mb else "n/a"
    cells = []
    for med, side in ((mb, base), (mh, head)):
        q1, q3 = quartiles(side)
        cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
    print(f"{workload:<14} {name:<14} {cells[0]:>36} {cells[1]:>36} {change:>8}  "
          f"{wins}/{len(values)}")
PYEOF
exit "$status"
