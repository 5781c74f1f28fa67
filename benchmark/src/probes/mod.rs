//! Layer probes: each times one layer's public functions in isolation, so a
//! per-layer number exists that no other layer's noise reaches. Single
//! thread unless a probe says otherwise. They are workload-independent and
//! ride along with every traced run, sharing its time budget.

mod anna;
mod cache;
mod lattice;
mod net;
mod runtime;

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe results by metric name.
pub type Values = HashMap<&'static str, f64>;

/// The budget is split into this many units; each probe states how many it
/// takes (set-up inside a probe is on top, and small).
const UNITS: f64 = 50.0;

/// Mean nanoseconds per call of `f`, run in batches of `batch` until
/// `budget` has elapsed (at least two batches, so one slow first call never
/// stands alone).
pub(crate) fn ns_per_iter<R>(budget: Duration, batch: usize, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut iters = 0u64;
    let mut batches = 0u32;
    while batches < 2 || start.elapsed() < budget {
        for _ in 0..batch {
            // Whatever the probed call returns is kept from being optimised away.
            black_box(f());
        }
        iters += batch as u64;
        batches += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Run every probe within about `budget_s` seconds.
pub fn run_all(budget_s: f64) -> Values {
    let unit = Duration::from_secs_f64(budget_s / UNITS);
    let mut values = Values::new();
    lattice::run(unit, &mut values);
    anna::run_store(unit, &mut values);
    anna::run_lsm(unit, &mut values);
    net::run(unit, &mut values);
    runtime::run(unit, &mut values);
    cache::run(unit, &mut values);
    anna::run_client(unit, &mut values);
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::PER_LAYER;

    #[test]
    fn ns_per_iter_grows_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = x.wrapping_add(black_box(i));
                }
                black_box(x);
            }
        };
        let small = ns_per_iter(Duration::from_millis(20), 100, spin(100));
        let large = ns_per_iter(Duration::from_millis(20), 100, spin(10_000));
        assert!(large > small * 10.0, "small {small} large {large}");
    }

    #[test]
    fn every_probe_value_is_a_listed_finite_metric() {
        let values = run_all(1.0);
        for (name, value) in &values {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not a listed per-layer metric"
            );
            assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
        }
        // The probe-sourced rows of the per-layer table.
        for name in [
            "core.cache.hit_ns",
            "net.delivery_lag_p95_us",
            "runtime.wake_p50_us",
            "runtime.timer_lag_p50_us",
            "lattice.encode_ns_per_kib",
            "lru.touch_ns",
            "anna.client.get_disk_us",
            "anna.store.merge_ns",
            "anna.lsm.write_amp",
            "anna.lsm.syncs_per_kput",
            "anna.lsm.compact_ms",
        ] {
            assert!(values.contains_key(name), "{name} was not probed");
        }
    }
}
