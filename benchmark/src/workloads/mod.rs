//! The four workloads. Each module builds its deployment from one of the
//! two configurations in [`crate::configs`], seeds it, warms it, drives it
//! with [`crate::load::CLIENTS`] closed-loop clients and checks every result.

pub mod chain;
pub mod kvs;
pub mod retwis;

use std::time::Duration;

use cloudburst_anna::{AnnaClient, NodeStats};
use cloudburst_runtime::RuntimeStats;

use cloudburst::CloudburstCluster;

use crate::load::{drive, Boundary, ClientLoop, EndToEnd, Slice};

/// What one pass — a number of rounds, each a fresh set-up plus one measured
/// slice — produced.
pub struct Pass {
    /// Duration of every set-up performed (launch, register, seed, warm).
    pub setup_s: Vec<f64>,
    pub e2e: EndToEnd,
    /// Latency the configuration's injected models impose on the primary op.
    pub model_floor_us: f64,
    /// Post-run checks (read-backs) attempted / failed.
    pub checks: u64,
    pub checks_failed: u64,
    pub input_digest: u64,
    pub counters: Counters,
}

/// Deltas of the product's public counters across the measured slices
/// (summed over the rounds), and gauges of the last round's deployment. A
/// field a workload has no source for stays 0.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub polls: u64,
    pub steals: u64,
    pub timer_fires: u64,
    pub spares_spawned: u64,
    pub max_mailbox_depth: u64,
    pub anna_gets: u64,
    pub anna_puts: u64,
    /// Mean of the executors' published utilization at the slice ends.
    pub executor_utilization: f64,
    pub disk_key_share: f64,
    /// Fewest SSTables on any node at the end.
    pub sstables_end: f64,
    pub space_amp: f64,
    pub recovery_ms: f64,
    /// Longest single read served by a storage node, where the workload's
    /// clients read Anna directly.
    pub get_max_ms: f64,
    /// Timelines that saw an unreadable tweet or parent (recorded, not
    /// asserted: the consistency oracle owns that verdict).
    pub anomalies: u64,
}

/// The counters read at a slice boundary.
struct Snapshot {
    runtime: RuntimeStats,
    nodes: Vec<NodeStats>,
}

impl Snapshot {
    fn take(runtime: RuntimeStats, anna: &AnnaClient) -> Self {
        Self {
            runtime,
            nodes: anna.cluster_stats_lenient(),
        }
    }

    fn gets(&self) -> u64 {
        self.nodes.iter().map(|n| n.gets_served).sum()
    }

    fn puts(&self) -> u64 {
        self.nodes.iter().map(|n| n.puts_served).sum()
    }

    /// Add the deltas from `self` (slice start) to `end` onto `counters`.
    fn add_delta_to(&self, end: &Snapshot, counters: &mut Counters) {
        counters.polls += end.runtime.polls - self.runtime.polls;
        counters.steals += end.runtime.total_steals() - self.runtime.total_steals();
        counters.timer_fires += end.runtime.timer_fires - self.runtime.timer_fires;
        counters.spares_spawned += end.runtime.spares_spawned - self.runtime.spares_spawned;
        counters.max_mailbox_depth = counters
            .max_mailbox_depth
            .max(end.runtime.max_mailbox_depth as u64);
        counters.anna_gets += end.gets() - self.gets();
        counters.anna_puts += end.puts() - self.puts();
    }
}

/// [`drive`] one slice and add the deltas of the product's counters across
/// it onto `counters`. `at_end` runs at the slice's end boundary, while the
/// clients are still running.
pub fn drive_counted<C: ClientLoop>(
    clients: Vec<C>,
    slice: Duration,
    runtime_stats: impl Fn() -> RuntimeStats,
    anna: &AnnaClient,
    counters: &mut Counters,
    mut at_end: impl FnMut(),
) -> (Vec<C>, Slice) {
    let (mut start, mut end) = (None, None);
    let driven = drive(clients, slice, |boundary| {
        let snapshot = Some(Snapshot::take(runtime_stats(), anna));
        match boundary {
            Boundary::Start => start = snapshot,
            Boundary::End => {
                end = snapshot;
                at_end();
            }
        }
    });
    start
        .expect("start boundary")
        .add_delta_to(&end.expect("end boundary"), counters);
    driven
}

/// [`drive_counted`] on a compute-tier deployment, also sampling the
/// executors' utilization (each round contributes its share of the mean).
pub fn drive_dag<C: ClientLoop>(
    clients: Vec<C>,
    slice: Duration,
    cluster: &CloudburstCluster,
    rounds: usize,
    counters: &mut Counters,
) -> (Vec<C>, Slice) {
    let control = cluster.client();
    let mut utilization = 0.0;
    let driven = drive_counted(
        clients,
        slice,
        || cluster.runtime_stats(),
        control.anna(),
        counters,
        // Read while the clients still run: the executors publish the
        // utilization of their last 100 ms window.
        || utilization = executor_utilization(cluster, control.anna()),
    );
    counters.executor_utilization += utilization / rounds as f64;
    driven
}

/// Client-side timeout for every blocking call a workload makes: far above
/// any latency a healthy run shows, far below the harness's run limit.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Trace ids are unique per call: client index and round above a call
/// counter (the top bit stays clear; non-root span ids have it set).
pub fn trace_id(client: usize, round: usize, seq: u64) -> u64 {
    ((client as u64 + 1) << 56) | ((round as u64 & 0xFF) << 48) | (seq & ((1 << 48) - 1))
}

/// Mean of the utilization every executor last published to Anna.
fn executor_utilization(cluster: &CloudburstCluster, anna: &AnnaClient) -> f64 {
    use cloudburst_anna::metrics;
    let executors = cluster.topology().executors();
    let mut sum = 0.0;
    let mut n = 0usize;
    for (id, _) in executors {
        let Ok(Some(capsule)) = anna.get(&metrics::executor_metrics_key(id)) else {
            continue;
        };
        let pairs = metrics::decode_metrics(&capsule.read_value());
        if let Some((_, u)) = pairs.iter().find(|(name, _)| name == "utilization") {
            sum += u;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
