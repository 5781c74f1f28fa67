//! Chaos harness: crash tolerance under churn (paper §4.4–§4.5).
//!
//! Drives a Retwis-style read/write workload — durable "posts" plus per-user
//! timeline reads — against a full Cloudburst deployment while crashing and
//! re-adding storage nodes and VMs on a deterministic schedule, then audits
//! three properties:
//!
//! 1. **Zero lost acknowledged writes.** Posts are written with
//!    [`cloudburst_anna::AnnaClient::put_replicated`] (`min_acks = 2`), so a
//!    single node crash can never hold the only copy. After the storm and an
//!    anti-entropy repair, every acknowledged post must read back intact.
//! 2. **Availability through failover.** Mid-storm reads are served by
//!    replica failover; the harness counts any that fail.
//! 3. **Restored replication factor.** The final
//!    [`cloudburst_anna::AnnaCluster::repair_until_replicated`] audit must
//!    report no under-replicated keys.
//!
//! DAG invocations ride along through the schedulers so VM crashes exercise
//! the whole-DAG re-execution path at the same time as storage churn. Nodes
//! run durably (the WAL → SSTable engine on the fault-injecting disk), and
//! the storm schedule includes node *restarts*, so WAL replay + manifest
//! recovery happens under load inside the same assertions.
//!
//! A second scenario, [`run_power_loss`], drops replication to **1** and
//! cuts power to the whole cluster mid-workload: every un-fsynced byte on
//! every node vanishes, and the WAL-before-ack contract alone must account
//! for every acknowledged write ([`PowerLossReport`]).
//!
//! `cargo run --release --bin chaos` prints the report and writes
//! `BENCH_chaos.json`; `--quick` is the bounded CI profile; `--seed N`
//! replays a specific storm; `--power-loss` runs the power-loss scenario.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cloudburst::cluster::{CloudburstCluster, CloudburstConfig};
use cloudburst::codec;
use cloudburst::dag::DagSpec;
use cloudburst::types::Arg;
use cloudburst_anna::{AnnaCluster, AnnaConfig, Durability, ReplicationAudit};
use cloudburst_lattice::{Capsule, Key};
use cloudburst_net::NetConfig;
use cloudburst_runtime::{RuntimeConfig, RuntimeStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Durable-write acknowledgement quorum: with `min_acks = 2` an acknowledged
/// post survives any single node crash regardless of gossip timing.
pub const WRITE_ACKS: usize = 2;

/// Chaos run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChaosProfile {
    /// Initial storage nodes (must stay above `replication` through crashes).
    pub storage_nodes: usize,
    /// Anna replication factor (≥ 2 for the zero-loss guarantee).
    pub replication: usize,
    /// Simulated regions the topology is partitioned across (`--regions N`).
    /// With more than one, replica placement spreads across regions, reads
    /// walk nearest-region-first, and the report breaks node telemetry down
    /// per region. The fabric stays instant — the storm stresses *placement*
    /// under churn on a WAN-partitioned topology, not WAN latency itself —
    /// and the deterministic replay contract holds for any value.
    pub regions: usize,
    /// Initial function-execution VMs.
    pub vms: usize,
    /// Executor threads per VM.
    pub executors_per_vm: usize,
    /// Simulated users posting and reading timelines.
    pub users: usize,
    /// Total client operations.
    pub ops: usize,
    /// One chaos event fires every this many operations.
    pub ops_per_event: usize,
    /// Fraction of non-DAG operations that are writes.
    pub write_fraction: f64,
    /// Every Nth operation is a DAG invocation through a scheduler.
    pub dag_every: usize,
    /// RNG seed (victim selection and op mix are deterministic given it).
    /// Override from the CLI with `--seed N` to replay a failing storm.
    pub seed: u64,
    /// Storage durability mode. The default (`InMemory`, the fault-injecting
    /// disk) makes every node run the WAL → SSTable engine, so the storm's
    /// `RestartNode` events exercise real WAL replay + manifest recovery
    /// inside the same zero-loss assertions.
    pub durability: Durability,
    /// Pass/fail bound on mid-storm read tail latency, wall-clock ms.
    pub read_p99_limit_ms: f64,
    /// Minimum fraction of DAG invocations that must succeed.
    pub dag_success_floor: f64,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        Self {
            storage_nodes: 4,
            replication: 2,
            regions: 1,
            vms: 2,
            executors_per_vm: 2,
            users: 32,
            ops: 2_400,
            ops_per_event: 150,
            write_fraction: 0.4,
            dag_every: 10,
            seed: 0xC7A0_5EED,
            durability: Durability::InMemory,
            read_p99_limit_ms: 250.0,
            dag_success_floor: 0.9,
        }
    }
}

impl ChaosProfile {
    /// The bounded profile behind `--quick`: same topology and event mix,
    /// fewer operations, for the CI chaos gate (deterministic seed, runs in
    /// a few seconds).
    pub fn quick() -> Self {
        Self {
            ops: 600,
            ops_per_event: 60,
            ..Self::default()
        }
    }
}

/// The chaos events, fired round-robin every `ops_per_event` operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    CrashNode,
    AddNode,
    RestartNode,
    CrashVm,
    AddVm,
    RemoveNode,
}

/// Each destructive storage event is followed by an `AddNode`, so the next
/// crash/remove always sees a full-strength cluster instead of being guarded
/// out by the minimum-topology check. `RestartNode` is not destructive — the
/// node rejoins with its data recovered from WAL + SSTables — so it needs no
/// paired add.
const EVENTS: [Event; 7] = [
    Event::CrashNode,
    Event::AddNode,
    Event::RestartNode,
    Event::RemoveNode,
    Event::AddNode,
    Event::CrashVm,
    Event::AddVm,
];

/// Actor-runtime counters captured just before the cluster comes down,
/// so a chaos report also says *how* the actors ran: which runtime mode,
/// how much work stealing happened, how deep mailboxes got under the
/// storm. `Copy` (mode is a static label) so [`PowerLossReport`] stays
/// `Copy`.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeSummary {
    /// Runtime mode label: `pooled` / `deterministic`.
    pub mode: &'static str,
    /// Pool workers.
    pub workers: usize,
    /// Actors ever spawned on the shared runtime.
    pub actors: u64,
    /// Total `poll` invocations across all actors.
    pub polls: u64,
    /// Successful steals summed across workers.
    pub steals: u64,
    /// Timer-heap expirations dispatched.
    pub timer_fires: u64,
    /// Largest mailbox depth any actor observed at the start of a poll.
    pub max_mailbox_depth: usize,
    /// Spare workers spawned to cover blocking regions.
    pub spares_spawned: u64,
}

impl Default for RuntimeSummary {
    fn default() -> Self {
        Self {
            mode: "unknown",
            workers: 0,
            actors: 0,
            polls: 0,
            steals: 0,
            timer_fires: 0,
            max_mailbox_depth: 0,
            spares_spawned: 0,
        }
    }
}

impl From<RuntimeStats> for RuntimeSummary {
    fn from(stats: RuntimeStats) -> Self {
        Self {
            mode: match stats.mode.as_str() {
                "pooled" => "pooled",
                "deterministic" => "deterministic",
                _ => "unknown",
            },
            workers: stats.workers,
            actors: stats.actors_spawned,
            polls: stats.polls,
            steals: stats.total_steals(),
            timer_fires: stats.timer_fires,
            max_mailbox_depth: stats.max_mailbox_depth,
            spares_spawned: stats.spares_spawned,
        }
    }
}

impl RuntimeSummary {
    fn print_line(&self) {
        println!(
            "runtime: {}({} workers) — {} actors, {} polls, {} steals, {} timer fires, max mailbox {}, {} spares",
            self.mode,
            self.workers,
            self.actors,
            self.polls,
            self.steals,
            self.timer_fires,
            self.max_mailbox_depth,
            self.spares_spawned,
        );
    }

    fn to_json(self) -> String {
        format!(
            "{{\"mode\": \"{}\", \"workers\": {}, \"actors\": {}, \"polls\": {}, \"steals\": {}, \"timer_fires\": {}, \"max_mailbox_depth\": {}, \"spares_spawned\": {}}}",
            self.mode,
            self.workers,
            self.actors,
            self.polls,
            self.steals,
            self.timer_fires,
            self.max_mailbox_depth,
            self.spares_spawned,
        )
    }
}

/// End-of-storm node telemetry rolled up by region, so a multi-region storm
/// report says where the keys, bytes, and load ended up — the debugging
/// handle for placement bugs that only show under churn.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionSummary {
    /// The region this row aggregates.
    pub region: u16,
    /// Storage nodes alive in the region at the end of the storm.
    pub nodes: usize,
    /// Keys stored across the region's nodes (replicas counted per copy).
    pub keys: usize,
    /// User payload bytes stored across the region's nodes.
    pub payload_bytes: usize,
    /// Summed decayed request load across the region's nodes.
    pub load: f64,
}

/// Roll per-node stats up into one deterministic-order row per region.
fn region_summaries(stats: &[cloudburst_anna::msg::NodeStats]) -> Vec<RegionSummary> {
    let mut by_region: std::collections::BTreeMap<u16, RegionSummary> =
        std::collections::BTreeMap::new();
    for s in stats {
        let row = by_region.entry(s.region).or_insert(RegionSummary {
            region: s.region,
            ..RegionSummary::default()
        });
        row.nodes += 1;
        row.keys += s.key_count;
        row.payload_bytes += s.payload_bytes;
        row.load += s.load;
    }
    by_region.into_values().collect()
}

fn regions_to_json(regions: &[RegionSummary]) -> String {
    let rows: Vec<String> = regions
        .iter()
        .map(|r| {
            format!(
                "{{\"region\": {}, \"nodes\": {}, \"keys\": {}, \"payload_bytes\": {}, \"load\": {:.2}}}",
                r.region, r.nodes, r.keys, r.payload_bytes, r.load
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn print_regions(regions: &[RegionSummary]) {
    if regions.len() <= 1 {
        return;
    }
    let rows: Vec<String> = regions
        .iter()
        .map(|r| {
            format!(
                "r{}: {} nodes, {} keys, {} KiB, load {:.1}",
                r.region,
                r.nodes,
                r.keys,
                r.payload_bytes / 1024,
                r.load
            )
        })
        .collect();
    println!("regions: {}", rows.join("  |  "));
}

/// Everything a chaos run measured.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Writes acknowledged by `WRITE_ACKS` replicas (the durability ledger).
    pub acked_writes: usize,
    /// Writes that errored (allowed — they were never acknowledged).
    pub write_failures: usize,
    /// Acknowledged writes unreadable or corrupt after the final repair.
    /// The headline number: must be zero.
    pub lost_writes: usize,
    /// Mid-storm single-key reads issued / failed (failover misses).
    pub reads: usize,
    /// Mid-storm reads that errored, returned nothing, or mismatched.
    pub read_failures: usize,
    /// Mid-storm timeline (`multi_get`) reads issued / failed.
    pub timeline_reads: usize,
    /// Timeline reads with a missing or corrupt acknowledged post.
    pub timeline_failures: usize,
    /// DAG invocations issued / completed successfully.
    pub dag_calls: usize,
    /// DAG invocations that returned the right echo.
    pub dag_ok: usize,
    /// Chaos events executed, by kind.
    pub node_crashes: usize,
    /// Storage nodes added mid-run.
    pub node_adds: usize,
    /// Graceful node removals (drain path) attempted mid-run.
    pub node_removes: usize,
    /// Nodes restarted mid-run (WAL replay + manifest recovery under load).
    pub node_restarts: usize,
    /// VMs crashed mid-run.
    pub vm_crashes: usize,
    /// VMs added mid-run.
    pub vm_adds: usize,
    /// Mid-storm read latency percentiles, wall-clock ms.
    pub read_p50_ms: f64,
    /// 99th-percentile read latency, wall-clock ms.
    pub read_p99_ms: f64,
    /// Write latency percentiles, wall-clock ms.
    pub write_p50_ms: f64,
    /// 99th-percentile write latency, wall-clock ms.
    pub write_p99_ms: f64,
    /// DAG latency 99th percentile, wall-clock ms.
    pub dag_p99_ms: f64,
    /// The final replication audit after anti-entropy repair.
    pub final_audit: ReplicationAudit,
    /// Anti-entropy passes run before the audit came back clean (0 = the
    /// crash-time repairs had already restored the replication factor).
    pub repair_rounds: usize,
    /// Actor-runtime counters at the end of the storm.
    pub runtime: RuntimeSummary,
    /// End-of-storm node telemetry rolled up by region (one row even on a
    /// single-region run, so the JSON shape is stable).
    pub region_summary: Vec<RegionSummary>,
}

impl ChaosReport {
    /// Whether the run satisfied the chaos invariants.
    pub fn passed(&self, profile: &ChaosProfile) -> bool {
        self.failures(profile).is_empty()
    }

    /// Human-readable list of violated invariants (empty = pass).
    pub fn failures(&self, profile: &ChaosProfile) -> Vec<String> {
        let mut out = Vec::new();
        if self.lost_writes > 0 {
            out.push(format!(
                "{} of {} acknowledged writes lost",
                self.lost_writes, self.acked_writes
            ));
        }
        if !self.final_audit.is_fully_replicated() {
            out.push(format!(
                "{} keys under-replicated after repair",
                self.final_audit.under_replicated
            ));
        }
        if self.read_failures > 0 || self.timeline_failures > 0 {
            out.push(format!(
                "{} single reads and {} timeline reads failed mid-storm",
                self.read_failures, self.timeline_failures
            ));
        }
        if self.read_p99_ms > profile.read_p99_limit_ms {
            out.push(format!(
                "read p99 {:.1} ms exceeds the {:.1} ms bound",
                self.read_p99_ms, profile.read_p99_limit_ms
            ));
        }
        let dag_floor = (self.dag_calls as f64 * profile.dag_success_floor).floor() as usize;
        if self.dag_ok < dag_floor {
            out.push(format!(
                "only {}/{} DAG calls succeeded (floor {})",
                self.dag_ok, self.dag_calls, dag_floor
            ));
        }
        if self.node_crashes == 0
            || self.vm_crashes == 0
            || self.node_adds == 0
            || self.node_restarts == 0
        {
            out.push("chaos schedule never fired a crash/add/restart event".to_string());
        }
        out
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn post_key(user: usize, seq: usize) -> Key {
    Key::new(format!("chaos/post/{user}/{seq}"))
}

fn post_value(user: usize, seq: usize) -> Bytes {
    Bytes::from(format!("post:{user}:{seq}:{}", "x".repeat(64)))
}

/// Run the chaos scenario.
pub fn run(profile: &ChaosProfile) -> ChaosReport {
    let config = CloudburstConfig {
        // Zero latency: every delivery runs inline on its sender.
        net: NetConfig::instant(),
        anna: AnnaConfig {
            nodes: profile.storage_nodes,
            replication: profile.replication,
            regions: profile.regions.max(1),
            durability: profile.durability,
            ..AnnaConfig::default()
        },
        // Deterministic runtime, which the fabric delivers on too:
        // single-worker FIFO dispatch and one latency RNG stripe make actor
        // interleaving a pure function of enqueue order, so `--seed N`
        // replays the whole storm — op mix, victim schedule, *and* ack
        // outcomes — byte-for-byte.
        runtime: RuntimeConfig::deterministic(),
        vms: profile.vms,
        executors_per_vm: profile.executors_per_vm,
        scheduler: cloudburst::scheduler::SchedulerConfig {
            // Fast whole-DAG re-execution so VM crashes resolve within the
            // run instead of waiting out the 10 s default (§4.5).
            dag_timeout_ms: 250.0,
            max_retries: 5,
            ..cloudburst::scheduler::SchedulerConfig::default()
        },
        ..CloudburstConfig::default()
    };
    let cluster = CloudburstCluster::launch(config);
    let cloud = cluster.client();
    cloud
        .register_function("chaos_echo", |_rt, args| Ok(args[0].clone()))
        .expect("register chaos_echo");
    cloud
        .register_dag(DagSpec::linear("chaos-dag", &["chaos_echo"]))
        .expect("register chaos-dag");
    let kvs = cluster.anna().client().with_timeout(Duration::from_secs(5));

    let mut rng = StdRng::seed_from_u64(profile.seed);
    // The durability ledger: every acknowledged post, by user.
    let mut posts: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut acked: Vec<(usize, usize)> = Vec::new(); // (user, seq)
    let mut next_seq = 0usize;

    let mut report = ChaosReport {
        acked_writes: 0,
        write_failures: 0,
        lost_writes: 0,
        reads: 0,
        read_failures: 0,
        timeline_reads: 0,
        timeline_failures: 0,
        dag_calls: 0,
        dag_ok: 0,
        node_crashes: 0,
        node_adds: 0,
        node_removes: 0,
        node_restarts: 0,
        vm_crashes: 0,
        vm_adds: 0,
        read_p50_ms: 0.0,
        read_p99_ms: 0.0,
        write_p50_ms: 0.0,
        write_p99_ms: 0.0,
        dag_p99_ms: 0.0,
        final_audit: ReplicationAudit::default(),
        repair_rounds: 0,
        runtime: RuntimeSummary::default(),
        region_summary: Vec::new(),
    };
    let mut read_lat: Vec<f64> = Vec::new();
    let mut write_lat: Vec<f64> = Vec::new();
    let mut dag_lat: Vec<f64> = Vec::new();
    let mut event_cursor = 0usize;

    for op in 0..profile.ops {
        // Chaos schedule: one event every `ops_per_event` ops, offset so the
        // first event lands mid-warmup rather than on op 0.
        if op % profile.ops_per_event == profile.ops_per_event / 2 {
            let event = EVENTS[event_cursor % EVENTS.len()];
            event_cursor += 1;
            apply_event(event, &cluster, &mut rng, profile, &mut report);
        }

        if profile.dag_every > 0 && op % profile.dag_every == 0 {
            // A DAG invocation through the scheduler: echoes a tagged value.
            report.dag_calls += 1;
            let tag = codec::encode_i64(op as i64);
            let start = Instant::now();
            let outcome = cloud.call_dag(
                "chaos-dag",
                HashMap::from([(0, vec![Arg::value(tag.clone())])]),
            );
            dag_lat.push(start.elapsed().as_secs_f64() * 1e3);
            if matches!(outcome, Ok(cloudburst::types::InvocationResult::Ok(v)) if v == tag) {
                report.dag_ok += 1;
            }
            continue;
        }

        let user = rng.random_range(0..profile.users);
        if acked.is_empty() || rng.random_bool(profile.write_fraction) {
            // Post: a durable replicated write, acknowledged by WRITE_ACKS
            // distinct replicas before it enters the ledger.
            let seq = next_seq;
            next_seq += 1;
            let key = post_key(user, seq);
            let capsule = Capsule::wrap_lww(kvs.next_timestamp(), post_value(user, seq));
            let start = Instant::now();
            let outcome = kvs.put_replicated(&key, capsule, WRITE_ACKS);
            write_lat.push(start.elapsed().as_secs_f64() * 1e3);
            match outcome {
                Ok(()) => {
                    report.acked_writes += 1;
                    posts.entry(user).or_default().push(seq);
                    acked.push((user, seq));
                }
                Err(_) => report.write_failures += 1,
            }
        } else if rng.random_bool(0.5) {
            // Single-post read of an acknowledged write: must succeed via
            // replica failover no matter which node just died.
            let &(user, seq) = &acked[rng.random_range(0..acked.len())];
            report.reads += 1;
            let start = Instant::now();
            let got = kvs.get(&post_key(user, seq));
            read_lat.push(start.elapsed().as_secs_f64() * 1e3);
            let ok = matches!(got, Ok(Some(c)) if c.read_value() == post_value(user, seq));
            if !ok {
                report.read_failures += 1;
            }
        } else {
            // Timeline read: the user's most recent posts in one batched
            // multi_get (exercises grouped failover).
            let user_posts = posts.get(&user).filter(|p| !p.is_empty());
            let Some(user_posts) = user_posts else {
                continue;
            };
            let recent: Vec<usize> = user_posts.iter().rev().take(8).copied().collect();
            let keys: Vec<Key> = recent.iter().map(|&seq| post_key(user, seq)).collect();
            report.timeline_reads += 1;
            let start = Instant::now();
            let got = kvs.multi_get(&keys);
            read_lat.push(start.elapsed().as_secs_f64() * 1e3);
            let ok = match got {
                Ok(capsules) => capsules.iter().zip(&recent).all(|(c, &seq)| {
                    c.as_ref()
                        .is_some_and(|c| c.read_value() == post_value(user, seq))
                }),
                Err(_) => false,
            };
            if !ok {
                report.timeline_failures += 1;
            }
        }
    }

    // Let write-behind flushes and gossip windows settle, then repair until
    // the directory's replica assignment is fully materialized. The round
    // count is the diagnostic: 0 means the crash-time repairs had already
    // converged before the final audit.
    std::thread::sleep(Duration::from_millis(50));
    let (final_audit, repair_rounds) = cluster.anna().repair_until_replicated(12);
    report.final_audit = final_audit;
    report.repair_rounds = repair_rounds;

    // The durability audit: every acknowledged post must read back intact.
    for &(user, seq) in &acked {
        let ok = matches!(
            kvs.get(&post_key(user, seq)),
            Ok(Some(c)) if c.read_value() == post_value(user, seq)
        );
        if !ok {
            report.lost_writes += 1;
        }
    }

    read_lat.sort_by(|a, b| a.total_cmp(b));
    write_lat.sort_by(|a, b| a.total_cmp(b));
    dag_lat.sort_by(|a, b| a.total_cmp(b));
    report.read_p50_ms = percentile(&read_lat, 0.50);
    report.read_p99_ms = percentile(&read_lat, 0.99);
    report.write_p50_ms = percentile(&write_lat, 0.50);
    report.write_p99_ms = percentile(&write_lat, 0.99);
    report.dag_p99_ms = percentile(&dag_lat, 0.99);
    report.runtime = cluster.runtime_stats().into();
    report.region_summary = region_summaries(&kvs.cluster_stats_lenient());
    report
}

/// What the power-loss storm measured.
///
/// Unlike [`ChaosReport`], there is no replication to hide behind: the
/// cluster runs at **replication factor 1**, so the only thing standing
/// between an acknowledged write and oblivion is the WAL-before-ack
/// contract and crash recovery.
#[derive(Debug, Clone)]
pub struct PowerLossReport {
    /// Writes acknowledged before some blackout (the durability ledger).
    pub acked_writes: usize,
    /// Deletes acknowledged before some blackout.
    pub acked_deletes: usize,
    /// Full-cluster power cuts executed mid-run.
    pub blackouts: usize,
    /// Mid-run reads of acknowledged keys that failed (recovery must serve
    /// them as soon as the cluster is back).
    pub read_failures: usize,
    /// Acknowledged writes unreadable or corrupt after the final blackout.
    /// The headline number: must be zero.
    pub lost_writes: usize,
    /// Acknowledged deletes whose key came back from the dead (tombstone
    /// lost in recovery). Must be zero.
    pub resurrected_deletes: usize,
    /// Actor-runtime counters at the end of the storm.
    pub runtime: RuntimeSummary,
    /// Post-recovery node telemetry rolled up by region.
    pub region_summary: Vec<RegionSummary>,
}

impl PowerLossReport {
    /// Whether the storm satisfied the power-loss invariants.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// Human-readable list of violated invariants (empty = pass).
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.lost_writes > 0 {
            out.push(format!(
                "{} of {} acknowledged writes lost to power cuts",
                self.lost_writes, self.acked_writes
            ));
        }
        if self.resurrected_deletes > 0 {
            out.push(format!(
                "{} of {} acknowledged deletes resurrected by recovery",
                self.resurrected_deletes, self.acked_deletes
            ));
        }
        if self.read_failures > 0 {
            out.push(format!(
                "{} reads of acknowledged keys failed between blackouts",
                self.read_failures
            ));
        }
        if self.blackouts < 2 || self.acked_writes == 0 {
            out.push("storm never exercised a write/blackout cycle".to_string());
        }
        out
    }
}

fn ploss_key(i: usize) -> Key {
    Key::new(format!("ploss/{i}"))
}

fn ploss_value(i: usize) -> Bytes {
    Bytes::from(format!("ploss:{i}:{}", "d".repeat(48)))
}

/// Run the power-loss storm: a write/delete workload against a **replication
/// factor 1** durable cluster, cut to black every `ops_per_event` operations
/// ([`cloudburst_anna::AnnaCluster::power_loss`] drops every un-fsynced byte
/// on every node), asserting zero acknowledged-write loss.
///
/// Nodes run the default group-commit window
/// (`NodeConfig::wal_sync_interval_ms`), so acks genuinely wait on the fsync
/// tick — the storm would catch an engine that acknowledged before the WAL
/// reached its durability point. `Durability::Off` in the profile is
/// promoted to `InMemory`: the scenario is meaningless without a disk.
pub fn run_power_loss(profile: &ChaosProfile) -> PowerLossReport {
    let durability = match profile.durability {
        Durability::Off => Durability::InMemory,
        d => d,
    };
    let (_net, cluster) = AnnaCluster::launch_standalone(AnnaConfig {
        nodes: profile.storage_nodes,
        replication: 1,
        regions: profile.regions.max(1),
        durability,
        net: NetConfig::instant(),
        // Same replay contract as `run`: one deterministic runtime for the
        // storage nodes and the fabric.
        runtime: RuntimeConfig::deterministic(),
        ..AnnaConfig::default()
    });
    let client = cluster.client().with_timeout(Duration::from_secs(5));

    let mut rng = StdRng::seed_from_u64(profile.seed ^ 0x9077_E210);
    let mut report = PowerLossReport {
        acked_writes: 0,
        acked_deletes: 0,
        blackouts: 0,
        read_failures: 0,
        lost_writes: 0,
        resurrected_deletes: 0,
        runtime: RuntimeSummary::default(),
        region_summary: Vec::new(),
    };
    let mut acked: Vec<usize> = Vec::new();
    let mut deleted: Vec<usize> = Vec::new();
    let mut next = 0usize;

    for op in 0..profile.ops {
        if op % profile.ops_per_event == profile.ops_per_event / 2 {
            cluster.power_loss();
            report.blackouts += 1;
        }
        if acked.is_empty() || rng.random_bool(0.6) {
            // Write: acknowledged only once the WAL record is fsynced.
            let i = next;
            next += 1;
            if client.put_lww(&ploss_key(i), ploss_value(i)).is_ok() {
                report.acked_writes += 1;
                acked.push(i);
            }
        } else if rng.random_bool(0.15) {
            // Delete an acknowledged key: the tombstone must be as durable
            // as the write it shadows.
            let i = acked.swap_remove(rng.random_range(0..acked.len()));
            if client.delete(&ploss_key(i)).is_ok() {
                report.acked_deletes += 1;
                deleted.push(i);
            } else {
                acked.push(i);
            }
        } else {
            // Read-back of an acknowledged key: recovery must already be
            // serving it, however recent the last blackout was.
            let &i = &acked[rng.random_range(0..acked.len())];
            let ok = matches!(
                client.get(&ploss_key(i)),
                Ok(Some(c)) if c.read_value() == ploss_value(i)
            );
            if !ok {
                report.read_failures += 1;
            }
        }
    }

    // One final cut, then audit the full ledger against recovered state.
    cluster.power_loss();
    report.blackouts += 1;
    for &i in &acked {
        let ok = matches!(
            client.get(&ploss_key(i)),
            Ok(Some(c)) if c.read_value() == ploss_value(i)
        );
        if !ok {
            report.lost_writes += 1;
        }
    }
    for &i in &deleted {
        if !matches!(client.get(&ploss_key(i)), Ok(None)) {
            report.resurrected_deletes += 1;
        }
    }
    report.runtime = cluster.runtime_stats().into();
    report.region_summary = region_summaries(&client.cluster_stats_lenient());
    cluster.shutdown();
    report
}

/// Render a power-loss report as flat JSON.
pub fn power_loss_to_json(profile: &ChaosProfile, report: &PowerLossReport) -> String {
    format!(
        "{{\n  \"meta\": {{\"storage_nodes\": {}, \"replication\": 1, \"regions\": {}, \"ops\": {}, \"ops_per_event\": {}, \"seed\": {}}},\n  \"power_loss\": {{\"acked_writes\": {}, \"acked_deletes\": {}, \"blackouts\": {}, \"read_failures\": {}, \"lost_writes\": {}, \"resurrected_deletes\": {}}},\n  \"regions\": {},\n  \"runtime\": {},\n  \"passed\": {}\n}}\n",
        profile.storage_nodes,
        profile.regions.max(1),
        profile.ops,
        profile.ops_per_event,
        profile.seed,
        report.acked_writes,
        report.acked_deletes,
        report.blackouts,
        report.read_failures,
        report.lost_writes,
        report.resurrected_deletes,
        regions_to_json(&report.region_summary),
        report.runtime.to_json(),
        report.passed(),
    )
}

/// Print a power-loss report as an aligned summary.
pub fn print_power_loss(report: &PowerLossReport) {
    println!(
        "power-loss: {} blackouts over {} acked writes + {} acked deletes (replication 1)",
        report.blackouts, report.acked_writes, report.acked_deletes
    );
    println!(
        "audit     : {} LOST writes, {} resurrected deletes, {} mid-run read failures",
        report.lost_writes, report.resurrected_deletes, report.read_failures
    );
    print_regions(&report.region_summary);
    report.runtime.print_line();
    let failures = report.failures();
    if failures.is_empty() {
        println!("PASS: zero acknowledged writes lost to full-cluster power cuts");
    } else {
        for f in &failures {
            println!("FAIL: {f}");
        }
    }
}

/// Execute one chaos event, guarded so the cluster never drops below the
/// minimum viable topology (`replication + 1` storage nodes keep durable
/// writes acknowledgeable through the *next* crash; one VM keeps DAGs
/// runnable).
fn apply_event(
    event: Event,
    cluster: &CloudburstCluster,
    rng: &mut StdRng,
    profile: &ChaosProfile,
    report: &mut ChaosReport,
) {
    let anna = cluster.anna();
    match event {
        Event::CrashNode => {
            let nodes = anna.directory().nodes();
            if nodes.len() > profile.replication + 1 {
                let (victim, _) = nodes[rng.random_range(0..nodes.len())];
                if anna.crash_node(victim) {
                    report.node_crashes += 1;
                }
            }
        }
        Event::AddNode => {
            anna.add_node();
            report.node_adds += 1;
        }
        Event::RemoveNode => {
            let nodes = anna.directory().nodes();
            if nodes.len() > profile.replication + 1 {
                let (victim, _) = nodes[rng.random_range(0..nodes.len())];
                if anna.remove_node(victim) {
                    report.node_removes += 1;
                }
            }
        }
        Event::RestartNode => {
            // No topology guard: the node comes straight back, recovering
            // its store from the WAL + SSTable manifest (with durability
            // off this degenerates to a crash + empty re-add, and the
            // replicas still have to carry the reads).
            let nodes = anna.directory().nodes();
            if !nodes.is_empty() {
                let (victim, _) = nodes[rng.random_range(0..nodes.len())];
                if anna.restart_node(victim) {
                    report.node_restarts += 1;
                }
            }
        }
        Event::CrashVm => {
            let vms = cluster.vm_ids();
            if vms.len() > 1 {
                let victim = vms[rng.random_range(0..vms.len())];
                if cluster.crash_vm(victim) {
                    report.vm_crashes += 1;
                }
            }
        }
        Event::AddVm => {
            cluster.add_vm();
            report.vm_adds += 1;
        }
    }
}

/// Render a report as flat JSON (no serde in this environment).
pub fn to_json(profile: &ChaosProfile, report: &ChaosReport) -> String {
    let failures = report.failures(profile);
    format!(
        "{{\n  \"meta\": {{\"storage_nodes\": {}, \"replication\": {}, \"regions\": {}, \"vms\": {}, \"ops\": {}, \"ops_per_event\": {}, \"seed\": {}, \"durability\": \"{:?}\"}},\n  \"writes\": {{\"acked\": {}, \"failed\": {}, \"lost\": {}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}}},\n  \"reads\": {{\"singles\": {}, \"single_failures\": {}, \"timelines\": {}, \"timeline_failures\": {}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}}},\n  \"dags\": {{\"calls\": {}, \"ok\": {}, \"p99_ms\": {:.2}}},\n  \"events\": {{\"node_crashes\": {}, \"node_adds\": {}, \"node_removes\": {}, \"node_restarts\": {}, \"vm_crashes\": {}, \"vm_adds\": {}}},\n  \"audit\": {{\"keys\": {}, \"under_replicated\": {}, \"strays\": {}, \"repair_rounds\": {}}},\n  \"regions\": {},\n  \"runtime\": {},\n  \"passed\": {}\n}}\n",
        profile.storage_nodes,
        profile.replication,
        profile.regions.max(1),
        profile.vms,
        profile.ops,
        profile.ops_per_event,
        profile.seed,
        profile.durability,
        report.acked_writes,
        report.write_failures,
        report.lost_writes,
        report.write_p50_ms,
        report.write_p99_ms,
        report.reads,
        report.read_failures,
        report.timeline_reads,
        report.timeline_failures,
        report.read_p50_ms,
        report.read_p99_ms,
        report.dag_calls,
        report.dag_ok,
        report.dag_p99_ms,
        report.node_crashes,
        report.node_adds,
        report.node_removes,
        report.node_restarts,
        report.vm_crashes,
        report.vm_adds,
        report.final_audit.keys,
        report.final_audit.under_replicated,
        report.final_audit.strays,
        report.repair_rounds,
        regions_to_json(&report.region_summary),
        report.runtime.to_json(),
        failures.is_empty(),
    )
}

/// Print the report as an aligned summary.
pub fn print(profile: &ChaosProfile, report: &ChaosReport) {
    println!(
        "chaos: {} ops, event every {} ops ({} node crashes, {} adds, {} removes, {} restarts; {} VM crashes, {} adds)",
        profile.ops,
        profile.ops_per_event,
        report.node_crashes,
        report.node_adds,
        report.node_removes,
        report.node_restarts,
        report.vm_crashes,
        report.vm_adds,
    );
    println!(
        "writes : {} acked, {} failed, {} LOST   p50 {:.2} ms  p99 {:.2} ms",
        report.acked_writes,
        report.write_failures,
        report.lost_writes,
        report.write_p50_ms,
        report.write_p99_ms
    );
    println!(
        "reads  : {} singles ({} failed), {} timelines ({} failed)   p50 {:.2} ms  p99 {:.2} ms",
        report.reads,
        report.read_failures,
        report.timeline_reads,
        report.timeline_failures,
        report.read_p50_ms,
        report.read_p99_ms
    );
    println!(
        "dags   : {}/{} ok   p99 {:.2} ms",
        report.dag_ok, report.dag_calls, report.dag_p99_ms
    );
    println!(
        "audit  : {} keys, {} under-replicated, {} strays after {} repair round(s)",
        report.final_audit.keys,
        report.final_audit.under_replicated,
        report.final_audit.strays,
        report.repair_rounds
    );
    print_regions(&report.region_summary);
    report.runtime.print_line();
    let failures = report.failures(profile);
    if failures.is_empty() {
        println!("PASS: zero lost acknowledged writes, replication restored");
    } else {
        for f in &failures {
            println!("FAIL: {f}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_chaos_run_holds_the_invariants() {
        let profile = ChaosProfile {
            ops: 240,
            ops_per_event: 40,
            ..ChaosProfile::quick()
        };
        let report = run(&profile);
        assert!(
            report.passed(&profile),
            "chaos invariants violated: {:?}\n{}",
            report.failures(&profile),
            to_json(&profile, &report)
        );
        assert!(report.acked_writes > 0, "workload must acknowledge writes");
        assert!(report.node_crashes >= 1 && report.vm_crashes >= 1);
        assert!(report.node_restarts >= 1, "storm must restart a node");
    }

    #[test]
    fn same_seed_replays_an_identical_ledger() {
        // The replay contract: deterministic fabric + deterministic actor
        // runtime means two storms from the same seed produce the same
        // ledger — same acks, same failures, same event schedule, same
        // final audit. (Wall-clock latencies are excluded: they measure
        // the host, not the storm.)
        let profile = ChaosProfile {
            ops: 150,
            ops_per_event: 30,
            ..ChaosProfile::quick()
        };
        let a = run(&profile);
        let b = run(&profile);
        let ledger = |r: &ChaosReport| {
            (
                (r.acked_writes, r.write_failures, r.lost_writes),
                (
                    r.reads,
                    r.read_failures,
                    r.timeline_reads,
                    r.timeline_failures,
                ),
                (r.dag_calls, r.dag_ok),
                (r.node_crashes, r.node_adds, r.node_removes, r.node_restarts),
                (r.vm_crashes, r.vm_adds),
                (
                    r.final_audit.keys,
                    r.final_audit.under_replicated,
                    r.final_audit.strays,
                ),
            )
        };
        assert_eq!(
            ledger(&a),
            ledger(&b),
            "same seed must replay the same storm"
        );
        assert_eq!(a.runtime.mode, "deterministic");
        assert_eq!(a.runtime.workers, 1);
    }

    #[test]
    fn multi_region_storm_replays_and_holds_the_invariants() {
        // `--regions 3` in deterministic mode: the WAN-partitioned topology
        // must keep every chaos invariant *and* the byte-for-byte replay
        // contract (acceptance criterion for the region-aware stack).
        let profile = ChaosProfile {
            storage_nodes: 6,
            regions: 3,
            ops: 240,
            ops_per_event: 40,
            ..ChaosProfile::quick()
        };
        let a = run(&profile);
        assert!(
            a.passed(&profile),
            "multi-region chaos invariants violated: {:?}\n{}",
            a.failures(&profile),
            to_json(&profile, &a)
        );
        assert!(
            a.region_summary.len() >= 2,
            "storm report must break telemetry down by region: {:?}",
            a.region_summary
        );
        let b = run(&profile);
        assert_eq!(
            (a.acked_writes, a.reads, a.dag_calls, a.dag_ok),
            (b.acked_writes, b.reads, b.dag_calls, b.dag_ok),
            "same seed must replay the same multi-region storm"
        );
    }

    #[test]
    fn power_loss_storm_loses_no_acked_writes() {
        let profile = ChaosProfile {
            storage_nodes: 3,
            ops: 200,
            ops_per_event: 50,
            ..ChaosProfile::quick()
        };
        let report = run_power_loss(&profile);
        assert!(
            report.passed(),
            "power-loss invariants violated: {:?}\n{}",
            report.failures(),
            power_loss_to_json(&profile, &report)
        );
        assert!(report.blackouts >= 4);
        assert!(report.acked_deletes > 0, "storm must exercise tombstones");
    }
}
