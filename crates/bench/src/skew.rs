//! Zipf-skew benchmark: closed-loop selective replication vs static
//! replication.
//!
//! The scenario the elasticity loop exists for (paper §2.2): a Zipf-skewed
//! read/write workload concentrates most traffic on a handful of keys, and
//! under a static replication factor those keys' primaries saturate while
//! the rest of the cluster idles. Storage nodes model finite serial service
//! capacity (`NodeConfig::service_latency`), so the hot partition genuinely
//! bottlenecks — exactly the situation where promoting hot keys to more
//! replicas and spreading reads across them buys real throughput.
//!
//! Both sides run the *same* cluster shape and workload. The static side
//! never touches replication; the elastic side spawns
//! [`cloudburst_anna::elastic::ElasticHandle`] and lets the loop observe
//! heat, promote, and spread — with **zero** manual `set_key_replication`
//! calls. The CI gate (`scripts/check_bench.sh`) holds the measured
//! speedup above an absolute 1.5× floor.
//!
//! `cargo run --release --bin skew` prints the table and writes
//! `BENCH_skew.json`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cloudburst_anna::elastic::{ElasticConfig, ScaleTimeline};
use cloudburst_anna::node::NodeConfig;
use cloudburst_anna::{AnnaCluster, AnnaConfig};
use cloudburst_apps::workloads::ZipfSampler;
use cloudburst_lattice::Key;
use cloudburst_net::{LatencyModel, NetConfig, Network};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::GateRow;

/// Benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct SkewProfile {
    /// Storage nodes.
    pub nodes: usize,
    /// Default (static) replication factor.
    pub replication: usize,
    /// Distinct keys.
    pub keys: usize,
    /// Zipf exponent (1.5 ⇒ the top key draws ≈40 % of accesses at 128
    /// keys).
    pub theta: f64,
    /// Concurrent client threads.
    pub clients: usize,
    /// Fraction of operations that are writes.
    pub write_fraction: f64,
    /// Payload bytes per value.
    pub payload: usize,
    /// Per-request node service occupancy, in paper milliseconds (the
    /// serial-capacity bottleneck selective replication relieves).
    pub service_ms: f64,
    /// Unrecorded run-in per side (the elastic side converges here).
    pub warmup: Duration,
    /// Recorded measurement window per side.
    pub measure: Duration,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for SkewProfile {
    fn default() -> Self {
        Self {
            nodes: 4,
            replication: 1,
            keys: 128,
            theta: 1.5,
            clients: 12,
            write_fraction: 0.05,
            payload: 256,
            service_ms: 0.1,
            warmup: Duration::from_millis(1500),
            measure: Duration::from_millis(1500),
            seed: 0x5EED_5AE4,
        }
    }
}

impl SkewProfile {
    /// The reduced profile behind `--quick`, for the CI gate: shorter
    /// windows, same cluster shape and skew so the speedup ratio stays
    /// comparable to the committed full-profile run.
    pub fn quick() -> Self {
        Self {
            warmup: Duration::from_millis(700),
            measure: Duration::from_millis(500),
            ..Self::default()
        }
    }

    /// The elasticity-loop settings the elastic side runs with (also the
    /// settings documented in EXPERIMENTS.md).
    pub fn elastic_config(&self) -> ElasticConfig {
        ElasticConfig {
            tick_ms: 20.0,
            promote_heat: 400.0,
            demote_heat: 150.0,
            cool_ticks: 5,
            hot_replication: 0, // every node
            scaling: None,
        }
    }
}

/// One side's measurements.
#[derive(Debug, Clone, Copy)]
pub struct SkewSide {
    /// Completed operations per second over the measurement window.
    pub ops_per_sec: f64,
    /// Median per-operation latency, ms (wall clock).
    pub p50_ms: f64,
    /// 99th-percentile per-operation latency, ms (wall clock).
    pub p99_ms: f64,
    /// Replication overrides in force at the end of the window.
    pub promoted: usize,
}

/// The before/after pair.
#[derive(Debug, Clone, Copy)]
pub struct SkewResult {
    /// Static replication (the loop disabled).
    pub static_side: SkewSide,
    /// Closed-loop selective replication.
    pub elastic_side: SkewSide,
}

impl SkewResult {
    /// The absolute floor the CI gate enforces (acceptance criterion).
    pub const MIN_SPEEDUP: f64 = 1.5;
}

fn key_of(rank: usize) -> Key {
    Key::new(format!("skew:{rank}"))
}

/// Run one side: identical cluster + workload, with or without the loop.
fn run_side(profile: &SkewProfile, elastic: bool) -> SkewSide {
    let net = Network::new(NetConfig::instant());
    let cluster = Arc::new(AnnaCluster::launch(
        &net,
        AnnaConfig {
            nodes: profile.nodes,
            replication: profile.replication,
            durability: cloudburst_anna::Durability::Off,
            node: NodeConfig {
                service_latency: LatencyModel::Constant {
                    ms: profile.service_ms,
                },
                heat_half_life_ms: 500.0,
                ..NodeConfig::default()
            },
            ..AnnaConfig::default()
        },
    ));
    let loader = cluster.client();
    let value = Bytes::from(vec![7u8; profile.payload]);
    for rank in 0..profile.keys {
        loader
            .put_lww(&key_of(rank), value.clone())
            .expect("preload");
    }
    let _handle = elastic
        .then(|| cluster.spawn_elastic(profile.elastic_config(), Arc::new(ScaleTimeline::new())));

    let zipf = Arc::new(ZipfSampler::new(profile.keys, profile.theta));
    let recording = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let measured: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..profile.clients {
            let client = cluster.client();
            let zipf = Arc::clone(&zipf);
            let value = value.clone();
            let (recording, stop, measured) = (&recording, &stop, &measured);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(profile.seed ^ (t as u64) << 17);
                let mut latencies: Vec<f64> = Vec::with_capacity(1 << 16);
                while !stop.load(Ordering::Relaxed) {
                    let key = key_of(zipf.sample(&mut rng));
                    let begin = Instant::now();
                    if rng.random::<f64>() < profile.write_fraction {
                        let _ = client.put_lww(&key, value.clone());
                    } else {
                        let _ = client.get(&key);
                    }
                    if recording.load(Ordering::Relaxed) {
                        latencies.push(begin.elapsed().as_secs_f64() * 1000.0);
                    }
                }
                measured.lock().push(latencies);
            });
        }
        std::thread::sleep(profile.warmup);
        recording.store(true, Ordering::Relaxed);
        std::thread::sleep(profile.measure);
        stop.store(true, Ordering::Relaxed);
    });
    let mut latencies: Vec<f64> = measured.into_inner().into_iter().flatten().collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let percentile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx]
    };
    SkewSide {
        ops_per_sec: latencies.len() as f64 / profile.measure.as_secs_f64(),
        p50_ms: percentile(0.50),
        p99_ms: percentile(0.99),
        promoted: cluster.directory().override_count(),
    }
}

/// Run both sides.
pub fn run(profile: &SkewProfile) -> SkewResult {
    let static_side = run_side(profile, false);
    let elastic_side = run_side(profile, true);
    SkewResult {
        static_side,
        elastic_side,
    }
}

/// Print both sides as an aligned table.
pub fn print(result: &SkewResult) {
    println!(
        "{:<22} {:>12} {:>9} {:>9} {:>9}",
        "side", "ops/s", "p50 ms", "p99 ms", "promoted"
    );
    for (name, side) in [
        ("static replication", &result.static_side),
        ("closed-loop elastic", &result.elastic_side),
    ] {
        println!(
            "{:<22} {:>12.0} {:>9.3} {:>9.3} {:>9}",
            name, side.ops_per_sec, side.p50_ms, side.p99_ms, side.promoted
        );
    }
}

/// The `meta` object of the suite's gate JSON.
pub fn gate_meta(profile: &SkewProfile) -> Vec<(&'static str, String)> {
    vec![
        ("nodes", profile.nodes.to_string()),
        ("replication", profile.replication.to_string()),
        ("keys", profile.keys.to_string()),
        ("theta", profile.theta.to_string()),
        ("clients", profile.clients.to_string()),
        ("write_fraction", profile.write_fraction.to_string()),
        ("service_ms", profile.service_ms.to_string()),
        ("measure_ms", profile.measure.as_millis().to_string()),
    ]
}

/// The suite's one gated row: elastic / static throughput, floored at
/// [`SkewResult::MIN_SPEEDUP`].
pub fn gate_rows(profile: &SkewProfile, result: &SkewResult) -> Vec<GateRow> {
    vec![GateRow::throughput(
        "skew",
        format!(
            "zipf({}) read/write load: static replication vs closed-loop promotion \
             (promoted {} keys; p99 {:.2} ms -> {:.2} ms)",
            profile.theta,
            result.elastic_side.promoted,
            result.static_side.p99_ms,
            result.elastic_side.p99_ms,
        ),
        result.static_side.ops_per_sec,
        result.elastic_side.ops_per_sec,
        Some(SkewResult::MIN_SPEEDUP),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_and_promotes() {
        // A tiny profile exercises both sides end-to-end. Debug-build
        // timing is too noisy to assert the 1.5x floor here (the release
        // gate does); assert the loop's *behaviour* instead.
        let profile = SkewProfile {
            clients: 4,
            warmup: Duration::from_millis(400),
            measure: Duration::from_millis(200),
            ..SkewProfile::default()
        };
        let result = run(&profile);
        assert!(result.static_side.ops_per_sec > 0.0);
        assert!(result.elastic_side.ops_per_sec > 0.0);
        // The static side must never promote; the elastic side must.
        assert_eq!(result.static_side.promoted, 0);
        assert!(
            result.elastic_side.promoted > 0,
            "elastic loop promoted nothing"
        );
        let rows = gate_rows(&profile, &result);
        assert_eq!(rows[0].name, "skew");
        assert_eq!(rows[0].min_speedup, Some(SkewResult::MIN_SPEEDUP));
    }
}
