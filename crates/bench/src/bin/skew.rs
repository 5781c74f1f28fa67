//! Run the Zipf-skew elasticity benchmark (closed-loop selective
//! replication vs static replication) and record the results in
//! `BENCH_skew.json` (override the path with `CB_BENCH_OUT`). Pass
//! `--quick` for the reduced-window profile used by the CI bench gate
//! (`scripts/check_bench.sh`).

use cloudburst_bench::harness;
use cloudburst_bench::skew::{self, SkewProfile};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let profile = if quick {
        SkewProfile::quick()
    } else {
        SkewProfile::default()
    };
    println!(
        "zipf-skew elasticity benchmark{} — {} nodes (replication {}), {} keys, theta {}, {} clients, {} ms/side",
        if quick { " (quick)" } else { "" },
        profile.nodes,
        profile.replication,
        profile.keys,
        profile.theta,
        profile.clients,
        profile.measure.as_millis()
    );
    let result = skew::run(&profile);
    skew::print(&result);
    let rows = skew::gate_rows(&profile, &result);
    harness::print_rows(&rows);
    harness::write_gate_json("BENCH_skew.json", &skew::gate_meta(&profile), &rows);
}
