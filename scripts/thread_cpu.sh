#!/usr/bin/env bash
# Per-thread-class CPU and context switches of one untraced benchmark run.
#
#   scripts/thread_cpu.sh <cloudburst-benchmark> <workload> [seed]
#
# Runs `<bin> --workload W --trace 0 [--seed S]` and, while it runs, samples
# /proc/<pid>/task/*/{comm,stat,status} of that one process every 10 ms.
# Each thread is classed by name:
#
#   cb-worker        runtime pool workers (cb-worker-<i>)
#   cb-worker-spare  spares spawned to cover blocking regions
#   net-delay        fabric delivery dispatchers (net-delay-<i>), present only
#                    in builds from before deliveries moved onto the pool
#   clients          everything else: the closed-loop client threads and
#                    the main thread (unnamed, so they carry the process name)
#
# and the table gives, per class, the threads seen, their CPU seconds and
# their voluntary context switches per attempted op (the run's own
# `attempted` count). A thread counts with its last sample, so a thread
# that lives and dies between two samples is missed, and one that exits
# loses its last < 10 ms: the rows are lower bounds. The `process` row is
# the kernel's whole-process CPU, exited threads included. Report-only:
# the exit status is the benchmark's.
set -euo pipefail

[ $# -ge 2 ] && [ $# -le 3 ] || {
  echo "usage: thread_cpu.sh <cloudburst-benchmark> <workload> [seed]" >&2
  exit 2
}
bin="$1"; workload="$2"
seed=()
[ $# -eq 3 ] && seed=(--seed "$3")
[ -x "$bin" ] || { echo "not executable: $bin" >&2; exit 2; }

exec python3 - "$bin" "$workload" ${seed[@]+"${seed[@]}"} <<'PYEOF'
import json
import os
import subprocess
import sys
import tempfile
import time

bin_path, workload, *seed = sys.argv[1:]
cmd = [bin_path, "--workload", workload, "--trace", "0", *seed]
TICK = os.sysconf("SC_CLK_TCK")
INTERVAL_S = 0.01


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def cpu_ticks(stat):
    # Fields after the parenthesised comm; utime and stime are the 14th and
    # 15th of the whole line.
    fields = stat[stat.rindex(")") + 2:].split()
    return int(fields[11]) + int(fields[12])


def voluntary_switches(status):
    for line in status.splitlines():
        if line.startswith("voluntary_ctxt_switches:"):
            return int(line.split()[1])
    return 0


def classify(name):
    if name == "cb-worker-spare":
        return "cb-worker-spare"
    if name.startswith("cb-worker-"):
        return "cb-worker"
    if name.startswith("net-delay-"):
        return "net-delay"
    return "clients"


stdout = tempfile.TemporaryFile(mode="w+")
proc = subprocess.Popen(cmd, stdout=stdout, text=True)
last = {}  # tid -> (class, cpu ticks, voluntary switches)
process_ticks = 0
task_dir = f"/proc/{proc.pid}/task"
while proc.poll() is None:
    stat = read(f"/proc/{proc.pid}/stat")
    if stat is not None:
        process_ticks = cpu_ticks(stat)
    try:
        tids = os.listdir(task_dir)
    except OSError:
        tids = []
    for tid in tids:
        base = f"{task_dir}/{tid}"
        comm, stat, status = read(f"{base}/comm"), read(f"{base}/stat"), read(f"{base}/status")
        if comm is None or stat is None or status is None:
            continue  # exited mid-sample
        last[tid] = (classify(comm.strip()), cpu_ticks(stat), voluntary_switches(status))
    time.sleep(INTERVAL_S)
stdout.seek(0)
out = stdout.read()

attempted = 0
for line in reversed(out.splitlines()):
    if line.startswith("{"):
        attempted = int(json.loads(line).get("attempted", 0))
        break
per_op = max(attempted, 1)

rows = {}
for cls, ticks, vcsw in last.values():
    seen, cpu, switches = rows.get(cls, (0, 0, 0))
    rows[cls] = (seen + 1, cpu + ticks, switches + vcsw)

print(f"{workload}: {attempted} attempted ops, threads sampled every {INTERVAL_S * 1000:.0f} ms")
print(f"{'class':<16} {'threads':>8} {'cpu_s':>8} {'vcsw/op':>9}")
for cls in ("cb-worker", "cb-worker-spare", "net-delay", "clients"):
    seen, ticks, vcsw = rows.get(cls, (0, 0, 0))
    print(f"{cls:<16} {seen:>8} {ticks / TICK:>8.2f} {vcsw / per_op:>9.2f}")
print(f"{'process':<16} {'':>8} {process_ticks / TICK:>8.2f} {'':>9}")
sys.exit(proc.returncode)
PYEOF
