#!/usr/bin/env bash
# Perf-regression gate for the ratio suites (skew, parallel, geo, recovery).
#
# Compares a fresh `cargo run --release --bin <suite> -- --quick` run against
# the suite's committed BENCH_<suite>.json:
#   1. every bench in REQUIRED_BENCHES must appear in BOTH files — a bench
#      silently dropped from the suite (or never committed) fails the gate;
#   2. every committed bench must appear in the fresh run, and every fresh
#      bench must be registered in the committed file (no unregistered
#      benches riding along un-gated);
#   3. each bench's fresh speedup ratio must not fall below
#      (1 - BENCH_TOLERANCE) x the committed ratio (default tolerance 30%);
#   4. a committed "min_speedup" is an *absolute* floor the fresh ratio must
#      clear regardless of tolerance (acceptance-criterion wins, e.g.
#      parallel_aggregate >= 1.5x).
# Speedup *ratios* are compared, never absolute ops/sec, so the gate is
# meaningful across machines of different raw speed. Absolute numbers are
# the job of benchmark/ (`cloudburst-benchmark compare`).
#
# Usage: scripts/check_bench.sh <committed.json> <fresh.json>
set -euo pipefail

committed="${1:?usage: check_bench.sh <committed.json> <fresh.json>}"
fresh="${2:?usage: check_bench.sh <committed.json> <fresh.json>}"
tolerance="${BENCH_TOLERANCE:-0.30}"

# The registry: benches the gate insists on, selected by the committed
# file's suite (override with REQUIRED_BENCHES). Adding a bench to a suite
# means adding it here (and committing its JSON entry), or the gate fails.
case "$(basename "$committed")" in
  *skew*) default_required="skew" ;;
  *geo*) default_required="geo_local_reads geo_wan_p99 geo_throughput" ;;
  *parallel*) default_required="parallel_fetch parallel_replicated_put parallel_dag parallel_aggregate" ;;
  *recovery*) default_required="recovery_replay cold_read_bloom" ;;
  *)
    echo "FAIL: no bench registry for $(basename "$committed") (known suites: skew geo parallel recovery)" >&2
    exit 1
    ;;
esac
required="${REQUIRED_BENCHES:-$default_required}"

python3 - "$committed" "$fresh" "$tolerance" "$required" <<'PYEOF'
import json
import sys

committed_path, fresh_path, tolerance, required = (
    sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4].split())
committed = {b["name"]: b for b in json.load(open(committed_path))["benches"]}
fresh = {b["name"]: b for b in json.load(open(fresh_path))["benches"]}

unregistered = sorted(set(required) - set(committed))
if unregistered:
    sys.exit(f"FAIL: required benches missing from the committed JSON "
             f"(regenerate and commit it): {unregistered}")
dropped = sorted((set(committed) | set(required)) - set(fresh))
if dropped:
    sys.exit(f"FAIL: benches missing from the fresh run: {dropped}")
rogue = sorted(set(fresh) - set(committed))
if rogue:
    sys.exit(f"FAIL: fresh benches not registered in the committed JSON "
             f"(commit their entries so they are gated): {rogue}")

failures = []
print(f"{'bench':<22} {'committed':>9} {'fresh':>9} {'floor':>9}  status")
for name, ref in sorted(committed.items()):
    got = fresh[name]["speedup"]
    floor = ref["speedup"] * (1.0 - tolerance)
    if "min_speedup" in ref:
        floor = max(floor, ref["min_speedup"])
    ok = got >= floor
    print(f"{name:<22} {ref['speedup']:>8.2f}x {got:>8.2f}x {floor:>8.2f}x  "
          f"{'ok' if ok else 'REGRESSION'}")
    if not ok:
        failures.append(name)

if failures:
    sys.exit(f"FAIL: speedup regressions beyond {tolerance:.0%} tolerance "
             f"(or below an absolute min_speedup floor): {failures}")
print(f"bench gate passed ({len(committed)} benches within {tolerance:.0%} tolerance)")
PYEOF
