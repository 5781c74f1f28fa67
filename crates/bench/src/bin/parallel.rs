//! Run the parallel-scaling benchmark (pooled runtime with N client
//! threads vs the deterministic single-worker runtime with 1) and record
//! the results in `BENCH_parallel.json` (override the path with
//! `CB_BENCH_OUT`). Pass `--quick` for the reduced-window profile used by
//! the CI bench gate (`scripts/check_bench.sh`).

use cloudburst_bench::harness;
use cloudburst_bench::parallel::{self, ParallelProfile};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let profile = if quick {
        ParallelProfile::quick()
    } else {
        ParallelProfile::default()
    };
    println!(
        "parallel-scaling benchmark{} — {} nodes, {:.2} ms one-way RPC, {} runtime workers / {} client threads vs deterministic / 1, {} ms/side",
        if quick { " (quick)" } else { "" },
        profile.nodes,
        profile.rpc_ms,
        profile.workers,
        profile.client_threads,
        profile.measure.as_millis()
    );
    let rows = parallel::run(&profile);
    harness::print_rows(&rows);
    harness::write_gate_json("BENCH_parallel.json", &parallel::gate_meta(&profile), &rows);
}
