//! Parallel-scaling benchmark: a pooled actor runtime vs the deterministic
//! single-worker mode, on RPC-bound workloads.
//!
//! Each bench runs the *same* workload twice. The **baseline** side runs
//! the cluster and its fabric on `RuntimeConfig::deterministic()` (one
//! worker, one latency stripe — the byte-for-byte replayable configuration
//! chaos `--seed` rests on) driven by a **single** client thread, so every
//! injected RPC latency is paid sequentially. The **optimized** side runs
//! them on a pooled runtime (`workers >= 4`) driven by N client threads
//! issuing the same operations, so blocked round trips overlap.
//!
//! This is deliberately an *overlap* benchmark, not a CPU-parallelism
//! benchmark: injected latencies put client threads to sleep, so N clients
//! overlap their waits even on a single-core CI box. That is exactly the
//! scaling the runtime exists to provide — one blocked caller must not
//! serialize the fabric — and it is what the paper's multi-worker nodes
//! rely on. See EXPERIMENTS.md for the core-count caveats.
//!
//! `cargo run --release --bin parallel` prints the table and writes
//! `BENCH_parallel.json` (override with `CB_BENCH_OUT`); the CI gate
//! (`scripts/check_bench.sh`) holds the aggregate speedup above an
//! absolute 1.5x floor.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use cloudburst::cluster::{CloudburstCluster, CloudburstConfig};
use cloudburst::codec;
use cloudburst::dag::DagSpec;
use cloudburst::types::{Arg, ConsistencyLevel};
use cloudburst_anna::node::NodeConfig;
use cloudburst_anna::{AnnaCluster, AnnaConfig};
use cloudburst_lattice::{Capsule, Key};
use cloudburst_net::{LatencyModel, NetConfig, TimeScale};
use cloudburst_runtime::RuntimeConfig;

use crate::harness::{geomean_speedup, GateRow};

/// Benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParallelProfile {
    /// Anna storage nodes.
    pub nodes: usize,
    /// Replication factor (and the quorum size `parallel_replicated_put`
    /// waits for).
    pub replication: usize,
    /// Distinct keys touched by the storage benches.
    pub keys: usize,
    /// Payload bytes per value.
    pub payload: usize,
    /// Client threads on the optimized side (the baseline always uses 1).
    pub client_threads: usize,
    /// Runtime workers on the optimized side (the acceptance criterion
    /// requires >= 4; the baseline's deterministic mode always uses 1).
    pub workers: usize,
    /// Injected one-way RPC latency, real milliseconds. Non-zero so round
    /// trips genuinely block — the thing the runtime overlaps.
    pub rpc_ms: f64,
    /// Unrecorded run-in per side.
    pub warmup: Duration,
    /// Recorded measurement window per side.
    pub measure: Duration,
    /// Fabric RNG seed.
    pub seed: u64,
}

impl Default for ParallelProfile {
    fn default() -> Self {
        Self {
            nodes: 4,
            replication: 2,
            keys: 64,
            payload: 256,
            client_threads: 8,
            workers: 4,
            rpc_ms: 0.4,
            warmup: Duration::from_millis(300),
            measure: Duration::from_millis(1200),
            seed: 0x9A11_E1E5,
        }
    }
}

impl ParallelProfile {
    /// The reduced profile behind `--quick`, for the CI gate: shorter
    /// windows, same cluster shape and thread counts so the speedup ratio
    /// stays comparable to the committed full-profile run.
    pub fn quick() -> Self {
        Self {
            warmup: Duration::from_millis(150),
            measure: Duration::from_millis(500),
            ..Self::default()
        }
    }

    /// The fabric both sides run: a constant `rpc_ms` hop in real time.
    pub fn net(&self) -> NetConfig {
        NetConfig {
            time_scale: TimeScale::REAL_TIME,
            default_latency: LatencyModel::Constant { ms: self.rpc_ms },
            seed: self.seed,
            ..NetConfig::default()
        }
    }

    /// The pooled runtime the optimized side runs on.
    pub fn pooled_runtime(&self) -> RuntimeConfig {
        RuntimeConfig {
            workers: self.workers,
            ..RuntimeConfig::default()
        }
    }
}

/// The absolute aggregate floor the CI gate enforces (acceptance
/// criterion: >= 1.5x with >= 4 runtime workers vs deterministic mode).
pub const MIN_AGGREGATE_SPEEDUP: f64 = 1.5;

/// Drive `op(thread_index, op_index)` from `threads` closed-loop client
/// threads and return aggregate completed ops/sec over the measurement
/// window.
fn measure_clients(
    threads: usize,
    warmup: Duration,
    measure: Duration,
    op: impl Fn(usize, u64) + Sync,
) -> f64 {
    let stop = AtomicBool::new(false);
    let recording = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (stop, recording, completed, op) = (&stop, &recording, &completed, &op);
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    op(t, i);
                    i += 1;
                    if recording.load(Ordering::Relaxed) {
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        std::thread::sleep(warmup);
        recording.store(true, Ordering::Relaxed);
        std::thread::sleep(measure);
        stop.store(true, Ordering::Relaxed);
    });
    completed.load(Ordering::Relaxed) as f64 / measure.as_secs_f64()
}

fn key_of(rank: usize) -> Key {
    Key::new(format!("par:{rank}"))
}

fn anna_cluster(profile: &ParallelProfile, runtime: RuntimeConfig) -> AnnaCluster {
    let (_net, cluster) = AnnaCluster::launch_standalone(AnnaConfig {
        nodes: profile.nodes,
        replication: profile.replication,
        durability: cloudburst_anna::Durability::Off,
        node: NodeConfig::default(),
        net: profile.net(),
        runtime,
        ..AnnaConfig::default()
    });
    cluster
}

/// One side of a storage bench: launch a cluster and its fabric on
/// `runtime`, preload the keyspace, then run the closed-loop clients.
fn run_storage_side(
    profile: &ParallelProfile,
    runtime: RuntimeConfig,
    threads: usize,
    op: impl Fn(&cloudburst_anna::AnnaClient, &ParallelProfile, usize, u64) + Sync,
) -> f64 {
    let cluster = anna_cluster(profile, runtime);
    let loader = cluster.client();
    let value = Bytes::from(vec![7u8; profile.payload]);
    for rank in 0..profile.keys {
        loader
            .put_lww(&key_of(rank), value.clone())
            .expect("preload");
    }
    // One endpoint per client thread, registered up front so endpoint
    // registration cost stays out of the measured window.
    let clients: Vec<_> = (0..threads).map(|_| cluster.client()).collect();
    measure_clients(threads, profile.warmup, profile.measure, |t, i| {
        op(&clients[t], profile, t, i)
    })
}

/// `get` round trips: request + reply, two injected latencies per op.
pub fn bench_fetch(profile: &ParallelProfile) -> GateRow {
    let op = |client: &cloudburst_anna::AnnaClient, p: &ParallelProfile, t: usize, i: u64| {
        let key = key_of(((t as u64 + i) % p.keys as u64) as usize);
        client.get(&key).expect("get").expect("preloaded");
    };
    let baseline = run_storage_side(profile, RuntimeConfig::deterministic(), 1, op);
    let optimized = run_storage_side(
        profile,
        profile.pooled_runtime(),
        profile.client_threads,
        op,
    );
    GateRow::throughput(
        "parallel_fetch",
        format!(
            "closed-loop get round trips ({} nodes, {:.2} ms one-way): deterministic/1 client vs {} workers/{} clients",
            profile.nodes, profile.rpc_ms, profile.workers, profile.client_threads
        ),
        baseline,
        optimized,
        None,
    )
}

/// Quorum writes: `put_replicated` blocks for `replication` distinct acks,
/// so each op pays several round trips and the win is pure overlap.
pub fn bench_replicated_put(profile: &ParallelProfile) -> GateRow {
    let op = |client: &cloudburst_anna::AnnaClient, p: &ParallelProfile, t: usize, i: u64| {
        let key = key_of(((t as u64 + i) % p.keys as u64) as usize);
        let capsule = Capsule::wrap_lww(
            client.next_timestamp(),
            Bytes::from(vec![(i % 251) as u8; p.payload]),
        );
        client
            .put_replicated(&key, capsule, p.replication)
            .expect("quorum put");
    };
    let baseline = run_storage_side(profile, RuntimeConfig::deterministic(), 1, op);
    let optimized = run_storage_side(
        profile,
        profile.pooled_runtime(),
        profile.client_threads,
        op,
    );
    GateRow::throughput(
        "parallel_replicated_put",
        format!(
            "blocking quorum puts (min_acks {}): deterministic/1 client vs {} workers/{} clients",
            profile.replication, profile.workers, profile.client_threads
        ),
        baseline,
        optimized,
        None,
    )
}

fn run_dag_side(profile: &ParallelProfile, runtime: RuntimeConfig, threads: usize) -> f64 {
    let cluster = CloudburstCluster::launch(CloudburstConfig {
        net: profile.net(),
        runtime,
        anna: AnnaConfig {
            nodes: profile.nodes,
            replication: 1,
            durability: cloudburst_anna::Durability::Off,
            ..AnnaConfig::default()
        },
        // Enough executors that the optimized side's concurrent DAGs are
        // queued by the fabric, not by executor scarcity.
        vms: 4,
        executors_per_vm: 3,
        schedulers: 1,
        level: ConsistencyLevel::Lww,
        ..CloudburstConfig::default()
    });
    let client = cluster.client();
    client
        .register_function("inc", |_rt, args| {
            let x = codec::decode_i64(&args[0]).ok_or("bad")?;
            Ok(codec::encode_i64(x + 1))
        })
        .expect("register inc");
    client
        .register_function("sq", |_rt, args| {
            let x = codec::decode_i64(&args[0]).ok_or("bad")?;
            Ok(codec::encode_i64(x * x))
        })
        .expect("register sq");
    client
        .register_dag(DagSpec::linear("par-dag", &["inc", "sq"]))
        .expect("register dag");
    // Warm the function-fetch and plan-cache paths before measuring.
    for _ in 0..5 {
        client.call_dag("par-dag", dag_args(4)).unwrap().unwrap();
    }
    let clients: Vec<_> = (0..threads).map(|_| cluster.client()).collect();
    measure_clients(threads, profile.warmup, profile.measure, |t, _i| {
        let out = clients[t].call_dag("par-dag", dag_args(4)).expect("dag");
        assert_eq!(codec::decode_i64(&out.unwrap()), Some(25));
    })
}

fn dag_args(x: i64) -> HashMap<usize, Vec<Arg>> {
    HashMap::from([(0, vec![Arg::value(codec::encode_i64(x))])])
}

/// End-to-end `call_dag` on a two-function chain: client -> scheduler ->
/// executor -> executor -> client, every hop an injected latency.
pub fn bench_dag(profile: &ParallelProfile) -> GateRow {
    let baseline = run_dag_side(profile, RuntimeConfig::deterministic(), 1);
    let optimized = run_dag_side(profile, profile.pooled_runtime(), profile.client_threads);
    GateRow::throughput(
        "parallel_dag",
        format!(
            "call_dag on a 2-function chain: deterministic/1 client vs {} workers/{} clients",
            profile.workers, profile.client_threads
        ),
        baseline,
        optimized,
        None,
    )
}

/// Run the whole suite and append the gated aggregate row (geometric mean
/// of the per-bench speedups, floored at [`MIN_AGGREGATE_SPEEDUP`]).
pub fn run(profile: &ParallelProfile) -> Vec<GateRow> {
    let mut rows = vec![
        bench_fetch(profile),
        bench_replicated_put(profile),
        bench_dag(profile),
    ];
    rows.push(aggregate_row(profile, &rows));
    rows
}

fn aggregate_row(profile: &ParallelProfile, rows: &[GateRow]) -> GateRow {
    GateRow::throughput(
        "parallel_aggregate",
        format!(
            "geometric mean of {} RPC-bound scaling ratios ({} runtime workers, {} client threads vs deterministic mode)",
            rows.len(),
            profile.workers,
            profile.client_threads
        ),
        1.0,
        geomean_speedup(rows),
        Some(MIN_AGGREGATE_SPEEDUP),
    )
}

/// The `meta` object of the suite's gate JSON.
pub fn gate_meta(profile: &ParallelProfile) -> Vec<(&'static str, String)> {
    vec![
        ("nodes", profile.nodes.to_string()),
        ("replication", profile.replication.to_string()),
        ("keys", profile.keys.to_string()),
        ("payload_bytes", profile.payload.to_string()),
        ("client_threads", profile.client_threads.to_string()),
        ("workers", profile.workers.to_string()),
        ("rpc_ms", profile.rpc_ms.to_string()),
        ("measure_ms", profile.measure.as_millis().to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_and_reports() {
        // A tiny profile exercises both sides of one storage bench
        // end-to-end. Debug-build timing is far too noisy to assert the
        // 1.5x floor here (the release gate does); assert shape instead.
        let profile = ParallelProfile {
            keys: 8,
            client_threads: 4,
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(150),
            rpc_ms: 0.2,
            ..ParallelProfile::default()
        };
        let row = bench_fetch(&profile);
        assert_eq!(row.name, "parallel_fetch");
        assert!(row.baseline > 0.0);
        assert!(row.optimized > 0.0);
        assert!(gate_meta(&profile).contains(&("workers", "4".to_string())));
    }

    #[test]
    fn aggregate_row_carries_the_gate_floor() {
        let rows = vec![
            GateRow::throughput("parallel_fetch", String::new(), 100.0, 400.0, None),
            GateRow::throughput("parallel_dag", String::new(), 100.0, 100.0, None),
        ];
        // Geomean of [4.0, 1.0] = 2.0; only the aggregate row is floored.
        let aggregate = aggregate_row(&ParallelProfile::default(), &rows);
        assert!((aggregate.speedup - 2.0).abs() < 1e-9);
        assert_eq!(aggregate.min_speedup, Some(MIN_AGGREGATE_SPEEDUP));
        assert!(rows.iter().all(|r| r.min_speedup.is_none()));
    }
}
