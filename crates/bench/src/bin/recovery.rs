//! Run the recovery benchmark suite (crash-recovery time vs data volume,
//! cold-read throughput with vs without bloom filters) and record the
//! result in `BENCH_recovery.json` (override with `CB_BENCH_OUT`). Pass
//! `--quick` for the bounded CI profile used by the `recovery-gate` job.

use cloudburst_bench::harness;
use cloudburst_bench::recovery::{self, RecoveryProfile};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let profile = if quick {
        RecoveryProfile::quick()
    } else {
        RecoveryProfile::default()
    };
    println!(
        "recovery suite{} — {} keys x {} B across ~{} runs, {} cold reads ({:.0}% misses)",
        if quick { " (quick)" } else { "" },
        profile.keys,
        profile.payload,
        profile.runs,
        profile.reads,
        profile.miss_fraction * 100.0,
    );
    let rows = recovery::run(&profile);
    harness::print_rows(&rows);
    harness::write_gate_json("BENCH_recovery.json", &recovery::gate_meta(&profile), &rows);
}
