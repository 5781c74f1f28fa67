//! Cross-region benchmark: region-aware placement vs a placement-blind
//! baseline on a simulated 3-region WAN topology.
//!
//! The paper's locality argument one level up (§2.2 applied to geography):
//! at "millions of users" scale a deployment spanning continents lives or
//! dies on how many requests stay in-region, because a WAN hop costs two
//! orders of magnitude more than an intra-AZ one. Both sides of this bench
//! run the *same* cluster shape — nodes spread across three regions, every
//! hop paying the tiered intra-AZ / inter-AZ / WAN latencies
//! ([`cloudburst_net::TieredLatency`]) — and the same Retwis-style workload
//! with regional key skew (each region's clients mostly read their own
//! region's timelines). The only difference is the directory:
//!
//! * **region-aware** (`AnnaConfig::region_aware = true`): replica
//!   placement spreads copies across regions and read plans walk
//!   nearest-region-first, so with `replication >= regions` every read has
//!   a local copy to hit.
//! * **placement-blind** (`region_aware = false`): nodes still *live* at
//!   their WAN-separated sites and pay the same tiered latencies, but the
//!   directory ignores regions — ring-order placement, ring-order reads —
//!   so roughly two reads in three cross an ocean.
//!
//! The CI gate (`scripts/check_bench.sh`, `*geo*` suite) holds the aware
//! side's local-read fraction above an absolute **0.70** floor and the
//! WAN-crossing read-p99 improvement above an absolute **1.5×** floor
//! (acceptance criteria), plus the usual relative tolerance on throughput.
//!
//! `cargo run --release --bin geo` prints the table and writes
//! `BENCH_geo.json`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cloudburst_anna::{AnnaCluster, AnnaConfig, Durability};
use cloudburst_lattice::{Capsule, Key};
use cloudburst_net::{NetConfig, Network, TieredLatency};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::GateRow;

/// Benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct GeoProfile {
    /// Simulated regions (the paper-scale story wants 3 continents).
    pub regions: usize,
    /// Storage nodes per region.
    pub nodes_per_region: usize,
    /// Replication factor. At `>= regions` the region-aware diversity pass
    /// guarantees every region a local copy of every key — the placement
    /// the locality win rests on.
    pub replication: usize,
    /// Retwis users per region (each owns a timeline of posts).
    pub users_per_region: usize,
    /// Preloaded posts per user (also the timeline read length).
    pub posts_per_user: usize,
    /// Client threads per region.
    pub clients_per_region: usize,
    /// Probability a client's op targets its *own* region's users (the
    /// regional key skew; the remainder picks a random remote region).
    pub local_affinity: f64,
    /// Fraction of operations that post (overwrite a timeline slot).
    pub write_fraction: f64,
    /// Payload bytes per post.
    pub payload: usize,
    /// Unrecorded run-in per side.
    pub warmup: Duration,
    /// Recorded measurement window per side.
    pub measure: Duration,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for GeoProfile {
    fn default() -> Self {
        Self {
            regions: 3,
            nodes_per_region: 2,
            replication: 3,
            users_per_region: 16,
            posts_per_user: 4,
            clients_per_region: 4,
            local_affinity: 0.9,
            write_fraction: 0.15,
            payload: 192,
            warmup: Duration::from_millis(500),
            measure: Duration::from_millis(1500),
            seed: 0x6E0_5EED,
        }
    }
}

impl GeoProfile {
    /// The reduced profile behind `--quick`, for the CI gate: shorter
    /// windows, same topology and skew so the gated ratios stay comparable
    /// to the committed full-profile run.
    pub fn quick() -> Self {
        Self {
            warmup: Duration::from_millis(300),
            measure: Duration::from_millis(700),
            ..Self::default()
        }
    }

    fn total_nodes(&self) -> usize {
        self.regions * self.nodes_per_region
    }
}

/// One side's measurements. Latencies are reported in **paper
/// milliseconds** (wall-clock divided back out by the fabric's
/// [`cloudburst_net::TimeScale`]), so the WAN numbers read like the real
/// deployment they simulate.
#[derive(Debug, Clone, Copy)]
pub struct GeoSide {
    /// Completed operations per second over the measurement window.
    pub ops_per_sec: f64,
    /// Median read latency, paper ms.
    pub p50_ms: f64,
    /// 99th-percentile *read* latency, paper ms — the WAN-crossing tail the
    /// gate watches. Writes are excluded: a post goes primary-first on both
    /// sides (the primary is wherever the ring hashed it), so write tails
    /// pay one WAN hop regardless of routing policy and would drown the
    /// read-locality signal the bench isolates.
    pub p99_ms: f64,
    /// 99th-percentile write latency, paper ms (reported, not gated — see
    /// `p99_ms`).
    pub write_p99_ms: f64,
    /// Reads served by a replica in the calling client's region.
    pub reads_local: u64,
    /// Reads that crossed a region boundary.
    pub reads_remote: u64,
}

impl GeoSide {
    /// Fraction of reads served in-region.
    pub fn local_fraction(&self) -> f64 {
        let total = self.reads_local + self.reads_remote;
        if total == 0 {
            return 0.0;
        }
        self.reads_local as f64 / total as f64
    }
}

/// The before/after pair.
#[derive(Debug, Clone, Copy)]
pub struct GeoResult {
    /// Region-aware placement and routing.
    pub aware: GeoSide,
    /// The placement-blind baseline (same sites, same latencies).
    pub blind: GeoSide,
}

impl GeoResult {
    /// blind p99 / aware p99 — how much shorter the WAN-crossing tail got.
    pub fn wan_p99_ratio(&self) -> f64 {
        if self.aware.p99_ms <= 0.0 {
            return 0.0;
        }
        self.blind.p99_ms / self.aware.p99_ms
    }

    /// Absolute floor on the aware side's local-read fraction (acceptance
    /// criterion, enforced by the CI gate).
    pub const MIN_LOCAL_FRACTION: f64 = 0.70;

    /// Absolute floor on the WAN-p99 improvement ratio (acceptance
    /// criterion, enforced by the CI gate).
    pub const MIN_WAN_P99_RATIO: f64 = 1.5;
}

fn post_key(region: usize, user: usize, slot: usize) -> Key {
    Key::new(format!("geo/post/{region}/{user}/{slot}"))
}

/// Run one side: identical multi-region topology and workload; only the
/// directory's region awareness differs.
fn run_side(profile: &GeoProfile, region_aware: bool) -> GeoSide {
    let net = Network::new(NetConfig {
        tiers: Some(TieredLatency::default()),
        ..NetConfig::default()
    });
    let time_scale = net.time_scale();
    let cluster = Arc::new(AnnaCluster::launch(
        &net,
        AnnaConfig {
            nodes: profile.total_nodes(),
            replication: profile.replication,
            regions: profile.regions,
            region_aware,
            durability: Durability::Off,
            ..AnnaConfig::default()
        },
    ));

    // Preload every timeline slot, batched per region so the fan-out pays
    // one pipelined round per responsible node instead of one WAN round
    // trip per key.
    let value = Bytes::from(vec![0x67u8; profile.payload]);
    for region in 0..profile.regions {
        let loader = cluster.client_in(region as u16);
        let entries: Vec<(Key, Capsule)> = (0..profile.users_per_region)
            .flat_map(|user| {
                let value = value.clone();
                let ts = loader.next_timestamp();
                (0..profile.posts_per_user).map(move |slot| {
                    (
                        post_key(region, user, slot),
                        Capsule::wrap_lww(ts, value.clone()),
                    )
                })
            })
            .collect();
        loader.multi_put(entries).expect("preload");
    }

    let recording = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    // Per-thread (read latencies, write latencies, reads_local, reads_remote).
    type ThreadSample = (Vec<f64>, Vec<f64>, u64, u64);
    let measured: Mutex<Vec<ThreadSample>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for region in 0..profile.regions {
            for t in 0..profile.clients_per_region {
                let client = cluster.client_in(region as u16);
                let value = value.clone();
                let (recording, stop, measured) = (&recording, &stop, &measured);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        profile.seed ^ ((region as u64) << 32) ^ ((t as u64) << 17),
                    );
                    let mut read_lat: Vec<f64> = Vec::with_capacity(1 << 14);
                    let mut write_lat: Vec<f64> = Vec::with_capacity(1 << 12);
                    while !stop.load(Ordering::Relaxed) {
                        // Regional skew: mostly this region's users.
                        let target = if profile.regions == 1
                            || rng.random::<f64>() < profile.local_affinity
                        {
                            region
                        } else {
                            let mut other = rng.random_range(0..profile.regions - 1);
                            if other >= region {
                                other += 1;
                            }
                            other
                        };
                        let user = rng.random_range(0..profile.users_per_region);
                        let begin = Instant::now();
                        let is_write = rng.random::<f64>() < profile.write_fraction;
                        if is_write {
                            // Post: overwrite a timeline slot (bounded
                            // keyspace, no cross-thread sequencing).
                            let slot = rng.random_range(0..profile.posts_per_user);
                            let _ = client.put_lww(&post_key(target, user, slot), value.clone());
                        } else if rng.random_bool(0.5) {
                            // Single-post read.
                            let slot = rng.random_range(0..profile.posts_per_user);
                            let _ = client.get(&post_key(target, user, slot));
                        } else {
                            // Timeline read: the user's whole slot ring in
                            // one batched multi_get.
                            let keys: Vec<Key> = (0..profile.posts_per_user)
                                .map(|slot| post_key(target, user, slot))
                                .collect();
                            let _ = client.multi_get(&keys);
                        }
                        if recording.load(Ordering::Relaxed) {
                            let ms = time_scale.to_paper_ms(begin.elapsed());
                            if is_write {
                                write_lat.push(ms);
                            } else {
                                read_lat.push(ms);
                            }
                        }
                    }
                    let (local, remote) = client.read_locality();
                    measured.lock().push((read_lat, write_lat, local, remote));
                });
            }
        }
        std::thread::sleep(profile.warmup);
        recording.store(true, Ordering::Relaxed);
        std::thread::sleep(profile.measure);
        stop.store(true, Ordering::Relaxed);
    });

    let sides = measured.into_inner();
    let reads_local: u64 = sides.iter().map(|(_, _, l, _)| l).sum();
    let reads_remote: u64 = sides.iter().map(|(_, _, _, r)| r).sum();
    let mut read_lat: Vec<f64> = Vec::new();
    let mut write_lat: Vec<f64> = Vec::new();
    for (r, w, _, _) in sides {
        read_lat.extend(r);
        write_lat.extend(w);
    }
    read_lat.sort_by(|a, b| a.total_cmp(b));
    write_lat.sort_by(|a, b| a.total_cmp(b));
    let percentile = |sorted: &[f64], q: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    };
    GeoSide {
        ops_per_sec: (read_lat.len() + write_lat.len()) as f64 / profile.measure.as_secs_f64(),
        p50_ms: percentile(&read_lat, 0.50),
        p99_ms: percentile(&read_lat, 0.99),
        write_p99_ms: percentile(&write_lat, 0.99),
        reads_local,
        reads_remote,
    }
}

/// Run both sides.
pub fn run(profile: &GeoProfile) -> GeoResult {
    let blind = run_side(profile, false);
    let aware = run_side(profile, true);
    GeoResult { aware, blind }
}

/// Print both sides as an aligned table.
pub fn print(result: &GeoResult) {
    println!(
        "{:<18} {:>10} {:>11} {:>11} {:>11} {:>8}",
        "side", "ops/s", "rd p50 ms", "rd p99 ms", "wr p99 ms", "local%"
    );
    for (name, side) in [
        ("placement-blind", &result.blind),
        ("region-aware", &result.aware),
    ] {
        println!(
            "{:<18} {:>10.0} {:>11.2} {:>11.2} {:>11.2} {:>7.1}%",
            name,
            side.ops_per_sec,
            side.p50_ms,
            side.p99_ms,
            side.write_p99_ms,
            side.local_fraction() * 100.0
        );
    }
}

/// The `meta` object of the suite's gate JSON.
pub fn gate_meta(profile: &GeoProfile) -> Vec<(&'static str, String)> {
    vec![
        ("regions", profile.regions.to_string()),
        ("nodes_per_region", profile.nodes_per_region.to_string()),
        ("replication", profile.replication.to_string()),
        ("users_per_region", profile.users_per_region.to_string()),
        ("clients_per_region", profile.clients_per_region.to_string()),
        ("local_affinity", profile.local_affinity.to_string()),
        ("write_fraction", profile.write_fraction.to_string()),
        ("measure_ms", profile.measure.as_millis().to_string()),
    ]
}

/// The suite's three gated rows (the `*geo*` registry requires all of
/// them). `geo_local_reads` gates the aware side's absolute local-read
/// fraction and `geo_wan_p99` the blind/aware tail ratio, so both set
/// `speedup` explicitly.
pub fn gate_rows(result: &GeoResult) -> Vec<GateRow> {
    vec![
        GateRow {
            name: "geo_local_reads",
            detail: format!(
                "fraction of reads served in-region under region-aware placement (blind baseline {:.2})",
                result.blind.local_fraction()
            ),
            baseline: result.blind.local_fraction(),
            optimized: result.aware.local_fraction(),
            speedup: result.aware.local_fraction(),
            min_speedup: Some(GeoResult::MIN_LOCAL_FRACTION),
        },
        GateRow {
            name: "geo_wan_p99",
            detail: format!(
                "read p99 paper-ms, blind {:.2} -> aware {:.2}: WAN-crossing tail shortened by this ratio",
                result.blind.p99_ms, result.aware.p99_ms
            ),
            baseline: result.blind.p99_ms,
            optimized: result.aware.p99_ms,
            speedup: result.wan_p99_ratio(),
            min_speedup: Some(GeoResult::MIN_WAN_P99_RATIO),
        },
        GateRow::throughput(
            "geo_throughput",
            "closed-loop Retwis ops/s, region-aware vs placement-blind on identical WAN topology"
                .to_string(),
            result.blind.ops_per_sec,
            result.aware.ops_per_sec,
            None,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_localizes_reads_and_shortens_the_tail() {
        // A tiny profile exercises both sides end-to-end. Debug-build
        // timing is too noisy to assert the release gate's exact floors,
        // but the *structural* claims — aware reads stay local, blind
        // reads mostly don't — hold at any speed.
        let profile = GeoProfile {
            users_per_region: 8,
            clients_per_region: 2,
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(400),
            ..GeoProfile::default()
        };
        let result = run(&profile);
        assert!(result.aware.ops_per_sec > 0.0);
        assert!(result.blind.ops_per_sec > 0.0);
        assert!(
            result.aware.local_fraction() >= GeoResult::MIN_LOCAL_FRACTION,
            "aware side read locally only {:.0}% of the time",
            result.aware.local_fraction() * 100.0
        );
        assert!(
            result.blind.local_fraction() < result.aware.local_fraction(),
            "blind baseline must not out-localize the aware side ({:.2} vs {:.2})",
            result.blind.local_fraction(),
            result.aware.local_fraction()
        );
        assert!(
            result.wan_p99_ratio() >= GeoResult::MIN_WAN_P99_RATIO,
            "WAN p99 ratio {:.2} under the {:.1}x floor (blind {:.2} ms, aware {:.2} ms)",
            result.wan_p99_ratio(),
            GeoResult::MIN_WAN_P99_RATIO,
            result.blind.p99_ms,
            result.aware.p99_ms
        );
        let names: Vec<_> = gate_rows(&result).iter().map(|r| r.name).collect();
        assert_eq!(names, ["geo_local_reads", "geo_wan_p99", "geo_throughput"]);
    }
}
