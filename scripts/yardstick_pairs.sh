#!/usr/bin/env bash
# Alternating base/head pairs of the yardstick (benchmark/, BENCHMARK.json).
#
# One base-then-head measurement confounds the change with whatever the box
# was doing second. This runs N pairs, flipping which side goes first each
# pair, prints `compare` for every pair, and ends with one row per
# (workload, metric): each side's median and quartiles over the pairs, in
# how many pairs the head read better (ties count for neither), and a
# verdict on the medians by the metric's BENCHMARK.json bound:
#
#   REGRESSED   the head's median is worse than the base's by more than the bound
#   UNRESOLVED  either side's quartile distance exceeds the bound (relative to
#               the base median), so the pairs cannot tell
#   improved    better by more than the bound;  ok  otherwise
#
#   scripts/yardstick_pairs.sh <base-bin> <head-bin> [N] [--workload W] [--seed S]
#                              [--out DIR] [--claim WORKLOAD/METRIC]
#                              [--layer NAME[,NAME...]] [--aa]
#
# --claim names the metric a change claims to improve. Its row is judged by
# the acceptance rule instead: the head wins at least 9 of every 10 pairs,
# and its median beats the base's by more than the base's quartile distance.
# The verdict line reads CLAIM HOLDS or CLAIM FAILS.
#
# --layer names per-layer metrics (BENCHMARK.json `per_layer`) that explain
# a claim. With --workload, each side of each pair then also makes one
# `--trace 1` run of W (an `all` run has its traced runs already), and the
# summary ends with one row per (workload, layer metric): base median ->
# head median over the pairs' traced runs. These rows are report-only; no
# verdict and no exit status depend on them.
#
# --aa also runs, in every pair, a copy of the base binary as a third side
# (untraced only), and prints beside each summary row how far the copy's
# median read from the base's (A/A gap) and the copy's quartile distance,
# both relative to the base median: how much the same program moves on
# this box in this session, against which to read the base/head change.
# Report-only: no verdict and no exit status depend on it. The copy runs
# last in odd pairs and first in even ones.
#
# <base-bin> / <head-bin> are `cloudburst-benchmark` executables built from
# the two commits. Build both with scripts/build_yardstick.sh <rev> <out>:
# it builds each side at one fixed path with that path remapped, so the
# build directory cannot move µs metrics between the two sides. Without
# --workload each side of a pair is one `all` run (every workload, untraced
# and traced); with it, one untraced run of W.
# Result sets land in DIR (default: a fresh temp dir) as base-<i>.json /
# head-<i>.json. Exit status: 1 if any pair's compare printed REGRESSED or
# could not be read, if a summary row is REGRESSED, or if the claim fails;
# else 0 — UNRESOLVED rows are reported, not failed on.
set -euo pipefail

usage() {
  echo "usage: yardstick_pairs.sh <base-bin> <head-bin> [N] [--workload W] [--seed S] [--out DIR] [--claim WORKLOAD/METRIC] [--layer NAME[,NAME...]] [--aa]" >&2
  exit 2
}

[ $# -ge 2 ] || usage
base="$1"; head="$2"; shift 2
pairs=10
workload=""
seed=()
out=""
claim=""
layers=""
aa=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:?}"; shift 2 ;;
    --seed) seed=(--seed "${2:?}"); shift 2 ;;
    --out) out="${2:?}"; shift 2 ;;
    --claim) claim="${2:?}"; shift 2 ;;
    --layer) layers="${2:?}"; shift 2 ;;
    --aa) aa=1; shift ;;
    ''|*[!0-9]*) usage ;;
    *) pairs="$1"; shift ;;
  esac
done
[ -x "$base" ] && [ -x "$head" ] || { echo "both binaries must be executable" >&2; exit 2; }
[ -n "$out" ] || out="$(mktemp -d)"
mkdir -p "$out"
manifest="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"
if [ "$aa" -eq 1 ]; then
  copy="$out/base-copy"
  cp "$base" "$copy"
fi

# One side of one pair -> a result set `compare` can read. A third
# argument `untraced` skips the --layer traced run.
measure() {
  local bin="$1" file="$2" traced="${3:-}"
  if [ -z "$workload" ]; then
    "$bin" all ${seed[@]+"${seed[@]}"} --out "$file" >"$file.log" 2>&1 || true
  else
    "$bin" --workload "$workload" --trace 0 ${seed[@]+"${seed[@]}"} --out "$file.run" >"$file.log" 2>&1 || true
    local runs
    runs="$(cat "$file.run")"
    if [ -n "$layers" ] && [ "$traced" != untraced ]; then
      "$bin" --workload "$workload" --trace 1 ${seed[@]+"${seed[@]}"} --out "$file.traced" >>"$file.log" 2>&1 || true
      runs="$runs, $(cat "$file.traced")"
      rm -f "$file.traced"
    fi
    printf '{"runs": [%s]}\n' "$runs" >"$file"
    rm -f "$file.run"
  fi
}

status=0
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
  if [ "$aa" -eq 1 ]; then
    if [ $((i % 2)) -eq 1 ]; then order="$order copy"; else order="copy $order"; fi
  fi
  for side in $order; do
    case "$side" in
      base) measure "$base" "$out/base-$i.json" ;;
      head) measure "$head" "$out/head-$i.json" ;;
      copy) measure "$copy" "$out/aa-$i.json" untraced ;;
    esac
  done
  echo "== pair $i/$pairs ($order) =="
  set +e
  "$head" compare "$out/base-$i.json" "$out/head-$i.json" | tee "$out/compare-$i.txt"
  rc=${PIPESTATUS[0]}
  set -e
  if [ "$rc" -ge 2 ] || grep -q REGRESSED "$out/compare-$i.txt"; then status=1; fi
  echo
done

set +e
python3 - "$manifest" "$out" "$pairs" "$claim" "$layers" "$aa" <<'PYEOF'
import json
import statistics
import sys

manifest_path, out, pairs, claim = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
layers = [name for name in sys.argv[5].split(",") if name]
aa = sys.argv[6] == "1"
manifest = json.load(open(manifest_path))
defs = {m["name"]: m for m in manifest["end_to_end"]}
layer_defs = {m["name"]: m for m in manifest["per_layer"]}
unknown = [name for name in layers if name not in layer_defs]
if unknown:
    sys.exit(f"--layer: not a per-layer metric in BENCHMARK.json: {', '.join(unknown)}")


def runs_of(path, traced):
    runs = json.load(open(path))["runs"]
    return {r["workload"]: r["metrics"] for r in runs if bool(r.get("trace")) == traced}


def untraced(path):
    return runs_of(path, False)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


rows = {}
for i in range(1, pairs + 1):
    a, b = untraced(f"{out}/base-{i}.json"), untraced(f"{out}/head-{i}.json")
    for workload in a:
        for name in defs:
            try:
                va, vb = a[workload][name]["value"], b[workload][name]["value"]
            except KeyError:
                continue
            rows.setdefault((workload, name), []).append((va, vb))

# A/A: the base against a copy of itself, from the same pairs.
aa_rows = {}
for i in range(1, pairs + 1) if aa else ():
    a, c = untraced(f"{out}/base-{i}.json"), untraced(f"{out}/aa-{i}.json")
    for workload in a:
        for name in defs:
            try:
                va, vc = a[workload][name]["value"], c[workload][name]["value"]
            except KeyError:
                continue
            aa_rows.setdefault((workload, name), []).append((va, vc))

claimed = tuple(claim.split("/", 1)) if claim else None
if claimed is not None and len(claimed) != 2:
    sys.exit(f"--claim wants WORKLOAD/METRIC, got {claim!r}")

print(f"== summary over {pairs} alternating pairs (results in {out}) ==")
print(f"{'workload':<14} {'metric':<14} {'base median [q1, q3]':>36} "
      f"{'head median [q1, q3]':>36} {'change':>8}  head wins  "
      + (f"{'A/A gap':>8} {'A/A q-dist':>10}  " if aa else "") + "verdict")
failed = False
claim_line = None
for (workload, name), values in rows.items():
    base, head = [v[0] for v in values], [v[1] for v in values]
    lower = defs[name]["better"] == "lower"
    wins = sum(1 for va, vb in values if (vb < va if lower else vb > va))
    mb, mh = statistics.median(base), statistics.median(head)
    change = f"{(mh - mb) / mb * 100:+.1f}%" if mb else "n/a"
    cells, iqrs = [], []
    for med, side in ((mb, base), (mh, head)):
        q1, q3 = quartiles(side)
        cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        iqrs.append(q3 - q1)
    gap = mb - mh if lower else mh - mb  # how much better the head reads
    if claimed == (workload, name):
        holds = wins * 10 >= 9 * len(values) and gap > iqrs[0]
        verdict = "CLAIM HOLDS" if holds else "CLAIM FAILS"
        claim_line = (f"{verdict}: {workload}/{name} head won {wins}/{len(values)} pairs "
                      f"(needs >= 9/10); median gap {gap:.4g} vs base quartile distance "
                      f"{iqrs[0]:.4g}")
        failed |= not holds
    else:
        bound = defs[name]["bound"]
        # Relative to the base median, as `compare` judges one pair.
        worse = -gap / mb if mb else 0.0
        spread = max(iqrs) / mb if mb else 0.0
        if spread > bound:
            verdict = "UNRESOLVED"
        elif worse > bound:
            verdict = "REGRESSED"
            failed = True
        elif worse < -bound:
            verdict = "improved"
        else:
            verdict = "ok"
    aa_cells = ""
    if aa:
        copies = [v[1] for v in aa_rows.get((workload, name), [])]
        if copies and mb:
            q1, q3 = quartiles(copies)
            aa_cells = (f"{(statistics.median(copies) - mb) / mb * 100:>+7.1f}% "
                        f"{(q3 - q1) / mb * 100:>9.1f}%  ")
        else:
            aa_cells = f"{'n/a':>8} {'n/a':>10}  "
    print(f"{workload:<14} {name:<14} {cells[0]:>36} {cells[1]:>36} {change:>8}  "
          f"{wins:>2}/{len(values):<6}  {aa_cells}{verdict}")
if claimed is not None:
    print(claim_line or f"CLAIM FAILS: no {claim} rows in the result sets")
    failed |= claim_line is None

if layers:
    # Report-only: the layer metrics that explain a verdict, from the same pairs.
    traced = {}
    for i in range(1, pairs + 1):
        a, b = runs_of(f"{out}/base-{i}.json", True), runs_of(f"{out}/head-{i}.json", True)
        for workload in a:
            for name in layers:
                try:
                    va, vb = a[workload][name]["value"], b[workload][name]["value"]
                except KeyError:
                    continue
                traced.setdefault((workload, name), []).append((va, vb))
    print("== per-layer (traced runs, report-only) ==")
    print(f"{'workload':<14} {'metric':<28} {'base median':>12} -> {'head median':<12} {'change':>8}  runs")
    for name in layers:
        found = [(w, v) for (w, n), v in traced.items() if n == name]
        if not found:
            print(f"{'-':<14} {name:<28} no traced values (run with --workload or without)")
        for workload, values in found:
            mb = statistics.median(v[0] for v in values)
            mh = statistics.median(v[1] for v in values)
            change = f"{(mh - mb) / mb * 100:+.1f}%" if mb else "n/a"
            print(f"{workload:<14} {name:<28} {mb:>12.4g} -> {mh:<12.4g} {change:>8}  {len(values)}")
sys.exit(1 if failed else 0)
PYEOF
[ $? -eq 0 ] || status=1
exit "$status"
