//! `cloudburst-benchmark`: the repo's yardstick (see `benchmark/README.md`).
//!
//! ```text
//! cloudburst-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
//! cloudburst-benchmark all     [--seed <n>] [--seconds <s>] [--out FILE]
//! cloudburst-benchmark probes  [--seconds <s>]
//! cloudburst-benchmark compare A.json B.json
//! cloudburst-benchmark manifest            # the text of BENCHMARK.json
//! ```
//!
//! The first form is one run of one workload in a fresh process: `--trace 0`
//! measures the end-to-end metrics, `--trace 1` the per-layer metrics
//! (traced pass, counter deltas and layer probes). Every metric is printed
//! by name with its unit; the last line of standard output is one JSON
//! object `{correct, attempted, failed, metrics}`. The exit code is non-zero
//! when any result was wrong.

mod compare;
mod configs;
mod gen;
mod json;
mod load;
mod names;
mod probes;
mod procstat;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("all") => suite::main(&args[1..]),
        Some("probes") => report::probes_main(&args[1..]),
        Some("manifest") => {
            print!("{}", names::manifest());
            Ok(true)
        }
        _ => report::run_main(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("cloudburst-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
