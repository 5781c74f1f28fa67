//! Recovery benchmark: what durability costs at startup and on cold reads.
//!
//! Two properties of the `anna::lsm` engine, measured head-to-head so the
//! CI gate (`scripts/check_bench.sh`) can hold them:
//!
//! 1. **`recovery_replay`** — crash-recovery time vs data volume. The
//!    baseline recovers a node whose entire dataset still sits in the WAL
//!    (nothing ever flushed): every record is decoded and re-applied to the
//!    memtable. The optimized side recovers the *same* dataset from SSTables
//!    plus a near-empty WAL: recovery reads the manifest and each table's
//!    footer (sparse index + bloom) without touching the entries. This is
//!    the reason the engine flushes at all — restart time must scale with
//!    table count, not record count. The detail string records absolute
//!    recovery times at full and half volume so regressions in the *scaling*
//!    are visible, not just the ratio.
//! 2. **`cold_read_bloom`** — cold-read throughput with bloom filters
//!    (`bloom_bits_per_key` = 10, the Monkey-style default) vs without
//!    (`0` = disabled), on a freshly recovered engine with many sorted runs
//!    and a read mix that is half misses. Without blooms every miss probes
//!    every run's sparse index and reads a block; with them a miss
//!    short-circuits after a few hash probes per run.
//!
//! Both benches run on the deterministic in-memory [`FaultDisk`] so results
//! measure the engine, not the host's page cache.
//!
//! `cargo run --release --bin recovery` prints the table and writes
//! `BENCH_recovery.json`; `--quick` is the bounded CI profile.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use cloudburst_anna::{DiskEnv, FaultDisk, LsmEngine, LsmOptions};
use cloudburst_lattice::{Capsule, Key, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::GateRow;

/// Benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryProfile {
    /// Distinct keys written before the simulated crash.
    pub keys: usize,
    /// Payload bytes per value.
    pub payload: usize,
    /// Approximate SSTable runs to spread the dataset across (sets the
    /// memtable flush threshold; compaction is disabled so runs accumulate).
    pub runs: usize,
    /// Cold reads measured per side of the bloom bench.
    pub reads: usize,
    /// Fraction of cold reads probing keys that were never written.
    pub miss_fraction: f64,
    /// Bloom bits per key on the optimized side (baseline always runs 0).
    pub bloom_bits_per_key: usize,
    /// Read-mix RNG seed.
    pub seed: u64,
}

impl Default for RecoveryProfile {
    fn default() -> Self {
        Self {
            keys: 20_000,
            payload: 128,
            runs: 16,
            reads: 40_000,
            miss_fraction: 0.5,
            bloom_bits_per_key: 10,
            seed: 0x4EC0_4E4D,
        }
    }
}

impl RecoveryProfile {
    /// The reduced profile behind `--quick`, for the CI gate: smaller
    /// volume, same run count and read mix so the ratios stay comparable.
    pub fn quick() -> Self {
        Self {
            keys: 6_000,
            reads: 12_000,
            ..Self::default()
        }
    }

    /// Flush threshold that spreads `keys` across roughly `runs` tables.
    fn flush_bytes(&self) -> usize {
        let per_entry = self.payload + 64; // key + lattice + framing overhead
        (self.keys * per_entry / self.runs.max(1)).max(1)
    }
}

fn key_of(i: usize) -> Key {
    Key::new(format!("recovery:{i}"))
}

fn miss_key(i: usize) -> Key {
    Key::new(format!("recovery:miss:{i}"))
}

fn value_of(i: usize, payload: usize) -> Bytes {
    let mut v = vec![b'r'; payload];
    let tag = i.to_le_bytes();
    v[..tag.len().min(payload)].copy_from_slice(&tag[..tag.len().min(payload)]);
    Bytes::from(v)
}

/// Write `keys` LWW values into a fresh engine on `env` and make them
/// durable. With `flush_bytes` large the data stays in the WAL; small, it
/// lands in SSTable runs (compaction disabled either way).
fn load(env: &Arc<dyn DiskEnv>, profile: &RecoveryProfile, keys: usize, flush_bytes: usize) {
    let opts = LsmOptions {
        memtable_flush_bytes: flush_bytes,
        bloom_bits_per_key: profile.bloom_bits_per_key,
        compact_min_runs: usize::MAX,
        ..LsmOptions::default()
    };
    let mut engine = LsmEngine::open(Arc::clone(env), opts);
    for i in 0..keys {
        let capsule = Capsule::wrap_lww(
            Timestamp::new(i as u64 + 1, 0),
            value_of(i, profile.payload),
        );
        engine.put(key_of(i), capsule);
    }
    engine.sync().expect("sync load");
}

/// Time a cold [`LsmEngine::open`] on `env`, returning (seconds, engine).
fn timed_open(env: &Arc<dyn DiskEnv>, opts: LsmOptions) -> (f64, LsmEngine) {
    let start = Instant::now();
    let engine = LsmEngine::open(Arc::clone(env), opts);
    (start.elapsed().as_secs_f64(), engine)
}

/// Bench 1: WAL-replay recovery vs SSTable/manifest recovery, at full and
/// half volume.
fn bench_replay(profile: &RecoveryProfile) -> GateRow {
    let opts = LsmOptions {
        compact_min_runs: usize::MAX,
        ..LsmOptions::default()
    };
    let mut times = [[0.0f64; 2]; 2]; // [side][volume] seconds
    for (v, &keys) in [profile.keys, profile.keys / 2].iter().enumerate() {
        // Baseline: nothing ever flushed — recovery replays every record.
        let wal_env: Arc<dyn DiskEnv> = FaultDisk::new();
        load(&wal_env, profile, keys, usize::MAX);
        let (secs, engine) = timed_open(&wal_env, opts);
        assert_eq!(engine.memtable_len(), keys, "replay must restore all keys");
        times[0][v] = secs;

        // Optimized: flushed to runs — recovery opens manifests + footers.
        let sst_env: Arc<dyn DiskEnv> = FaultDisk::new();
        load(&sst_env, profile, keys, profile.flush_bytes());
        let (secs, engine) = timed_open(&sst_env, opts);
        assert!(engine.table_count() > 1, "dataset must span multiple runs");
        times[1][v] = secs;
    }
    GateRow::throughput(
        "recovery_replay",
        format!(
            "recover {} keys x {} B: full-WAL replay {:.1} ms ({:.1} ms at half volume) vs \
             SSTable manifest + footers {:.1} ms ({:.1} ms at half volume)",
            profile.keys,
            profile.payload,
            times[0][0] * 1e3,
            times[0][1] * 1e3,
            times[1][0] * 1e3,
            times[1][1] * 1e3,
        ),
        profile.keys as f64 / times[0][0],
        profile.keys as f64 / times[1][0],
        Some(2.0),
    )
}

/// Run one side of the bloom bench: load with `bits` bloom bits per key,
/// reopen cold, measure the mixed hit/miss read rate. Returns (ops/sec,
/// p99 ms).
fn bloom_side(profile: &RecoveryProfile, bits: usize) -> (f64, f64) {
    let env: Arc<dyn DiskEnv> = FaultDisk::new();
    let side = RecoveryProfile {
        bloom_bits_per_key: bits,
        ..*profile
    };
    load(&env, &side, profile.keys, profile.flush_bytes());
    let opts = LsmOptions {
        bloom_bits_per_key: bits,
        compact_min_runs: usize::MAX,
        ..LsmOptions::default()
    };
    let engine = LsmEngine::open(Arc::clone(&env), opts);
    assert!(engine.table_count() > 1, "dataset must span multiple runs");

    let mut rng = StdRng::seed_from_u64(profile.seed);
    let mut latencies = Vec::with_capacity(profile.reads);
    let begin = Instant::now();
    for _ in 0..profile.reads {
        let probe = Instant::now();
        if rng.random_bool(profile.miss_fraction) {
            let got = engine.get(&miss_key(rng.random_range(0..profile.keys)));
            assert!(got.is_none(), "phantom read");
        } else {
            let i = rng.random_range(0..profile.keys);
            let got = engine.get(&key_of(i)).expect("stored key unreadable");
            assert_eq!(got.read_value(), value_of(i, profile.payload));
        }
        latencies.push(probe.elapsed().as_secs_f64() * 1e3);
    }
    let total = begin.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let p99 = latencies[((latencies.len() - 1) as f64 * 0.99).round() as usize];
    (profile.reads as f64 / total, p99)
}

/// Bench 2: cold reads (half misses) with vs without bloom filters.
fn bench_bloom(profile: &RecoveryProfile) -> GateRow {
    let (base_ops, base_p99) = bloom_side(profile, 0);
    let (opt_ops, opt_p99) = bloom_side(profile, profile.bloom_bits_per_key);
    GateRow::throughput(
        "cold_read_bloom",
        format!(
            "{} cold reads ({:.0}% misses) over {} keys in multiple runs: no bloom p99 \
             {:.4} ms vs {} bits/key p99 {:.4} ms",
            profile.reads,
            profile.miss_fraction * 100.0,
            profile.keys,
            base_p99,
            profile.bloom_bits_per_key,
            opt_p99,
        ),
        base_ops,
        opt_ops,
        Some(1.2),
    )
}

/// Run the full recovery suite: both gated rows, in print order.
pub fn run(profile: &RecoveryProfile) -> Vec<GateRow> {
    vec![bench_replay(profile), bench_bloom(profile)]
}

/// The `meta` object of the suite's gate JSON.
pub fn gate_meta(profile: &RecoveryProfile) -> Vec<(&'static str, String)> {
    vec![
        ("keys", profile.keys.to_string()),
        ("payload", profile.payload.to_string()),
        ("runs", profile.runs.to_string()),
        ("reads", profile.reads.to_string()),
        ("miss_fraction", profile.miss_fraction.to_string()),
        ("bloom_bits_per_key", profile.bloom_bits_per_key.to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_reports_both_benches() {
        // Debug-build timing is too noisy to assert the release-gate floors
        // here; assert the suite's *shape* and internal consistency checks
        // (they run as assertions inside the benches).
        let profile = RecoveryProfile {
            keys: 1_200,
            reads: 2_000,
            ..RecoveryProfile::quick()
        };
        let rows = run(&profile);
        let names: Vec<_> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["recovery_replay", "cold_read_bloom"]);
        assert!(rows.iter().all(|r| r.baseline > 0.0));
        assert!(rows.iter().all(|r| r.min_speedup.is_some()));
    }
}
