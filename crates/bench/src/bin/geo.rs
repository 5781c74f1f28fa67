//! Run the cross-region placement benchmark (region-aware vs
//! placement-blind on a simulated 3-region WAN topology) and record the
//! results in `BENCH_geo.json` (override the path with `CB_BENCH_OUT`).
//! Pass `--quick` for the reduced-window profile used by the CI geo gate
//! (`scripts/check_bench.sh`). Exits non-zero if either acceptance floor —
//! local-read fraction >= 0.70 or WAN-p99 ratio >= 1.5x — is missed, so
//! the gate fails even before the JSON comparison runs.

use cloudburst_bench::geo::{self, GeoProfile, GeoResult};
use cloudburst_bench::harness;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let profile = if quick {
        GeoProfile::quick()
    } else {
        GeoProfile::default()
    };
    println!(
        "cross-region placement benchmark{} — {} regions x {} nodes (replication {}), {} users/region, affinity {:.0}%, {} ms/side",
        if quick { " (quick)" } else { "" },
        profile.regions,
        profile.nodes_per_region,
        profile.replication,
        profile.users_per_region,
        profile.local_affinity * 100.0,
        profile.measure.as_millis()
    );
    let result = geo::run(&profile);
    geo::print(&result);
    let rows = geo::gate_rows(&result);
    harness::print_rows(&rows);
    harness::write_gate_json("BENCH_geo.json", &geo::gate_meta(&profile), &rows);
    if result.aware.local_fraction() < GeoResult::MIN_LOCAL_FRACTION
        || result.wan_p99_ratio() < GeoResult::MIN_WAN_P99_RATIO
    {
        eprintln!("FAIL: geo acceptance floors missed");
        std::process::exit(1);
    }
}
