//! `kvs_durable`: Anna alone (`AnnaCluster::launch_standalone`, no compute
//! tier) on the durable LSM tier.
//!
//! 3 nodes, replication 2, `Durability::InMemory` (the LSM over `FaultDisk`,
//! so no host-disk variance), 32 768 keys x 1 KiB against an 8 MiB memory
//! tier per node with a 1 MiB memtable, default WAL group commit (2 ms) and
//! compaction trigger, zero-model. Mix: 50 % `get` / 50 % `multi_put` of 16
//! keys, all keys Zipf-0.99. Every `get` must return the 1 KiB payload whose
//! embedded tag names the key; the run ends with a cluster-wide power loss
//! and a read-back of every key acknowledged in the final slice.
//!
//! The key set is part of the workload's definition; `--seed` drives which
//! keys the clients read and write.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cloudburst_anna::{AnnaClient, AnnaCluster, AnnaConfig, Durability};
use cloudburst_apps::ZipfSampler;
use cloudburst_lattice::{Capsule, Key, Timestamp};
use cloudburst_net::{NetConfig, Network};

use super::{drive_counted, trace_id, Counters, Pass, OP_TIMEOUT};
use crate::configs;
use crate::gen::{client_seed, input_digest, KvsGen, KvsOp, KvsRole, OpGen};
use crate::load::{summarize_slices, ClientLoop, OpClass, Outcome, Slice, CLIENTS};
use crate::procstat::now_ns;
use crate::trace::{self, Span, ROOT_CALL, ROOT_WRITE};

pub const KEYS: usize = 32_768;
pub const VALUE_BYTES: usize = 1024;
const ZIPF: f64 = 0.99;
/// Seeding goes through `multi_put` in chunks: a blocking `put` per key
/// would wait out one 2 ms WAL window each (over a minute for the set).
const SEED_CHUNK: usize = 256;
const WARM_GETS: usize = 500;
const WARM_PUTS: usize = 20;
/// One closed-loop client per operation class.
const ROLES: [KvsRole; CLIENTS] = [KvsRole::Reader, KvsRole::Writer];
/// The warm-up's own request stream (the same on every set-up).
const WARM_SEED: u64 = 0x57A9;

pub fn config(seed: u64) -> AnnaConfig {
    let mut config = AnnaConfig {
        nodes: 3,
        replication: 2,
        durability: Durability::InMemory,
        net: NetConfig {
            seed,
            ..NetConfig::instant()
        },
        ..AnnaConfig::default()
    };
    configs::zero_model_anna(&mut config);
    config.node.memory_capacity_bytes = 8 << 20;
    config.node.memtable_flush_bytes = 1 << 20;
    config
}

/// The stored value: the key's index, a write sequence number, then filler.
fn payload(index: u32, seq: u64) -> Bytes {
    let mut buf = vec![0u8; VALUE_BYTES];
    buf[..8].copy_from_slice(&u64::from(index).to_le_bytes());
    buf[8..16].copy_from_slice(&seq.to_le_bytes());
    for (i, b) in buf[16..].iter_mut().enumerate() {
        *b = (i as u32).wrapping_mul(31).wrapping_add(index) as u8;
    }
    Bytes::from(buf)
}

fn payload_names(value: &Bytes, index: u32) -> bool {
    value.len() == VALUE_BYTES && value[..8] == u64::from(index).to_le_bytes()
}

/// One acknowledged write of one key.
struct Ack {
    index: u32,
    timestamp: Timestamp,
    end_ns: u64,
}

struct Client {
    index: usize,
    round: usize,
    anna: AnnaClient,
    keys: Arc<Vec<Key>>,
    gen: KvsGen,
    traced: bool,
    ops: u64,
    acks: Vec<Ack>,
}

impl Client {
    fn run(&mut self, op: KvsOp) -> Outcome {
        self.ops += 1;
        let start_ns = now_ns();
        let (class, ok) = match op {
            KvsOp::Get(index) => {
                let ok = matches!(self.anna.get(&self.keys[index as usize]),
                    Ok(Some(capsule)) if payload_names(&capsule.read_value(), index));
                (OpClass::Call, ok)
            }
            KvsOp::MultiPut(batch) => {
                let stamped: Vec<(u32, Timestamp)> = batch
                    .iter()
                    .map(|&index| (index, self.anna.next_timestamp()))
                    .collect();
                let entries = stamped
                    .iter()
                    .map(|&(index, ts)| {
                        let capsule = Capsule::wrap_lww(ts, payload(index, self.ops));
                        (self.keys[index as usize].clone(), capsule)
                    })
                    .collect();
                let ok = self.anna.multi_put(entries).is_ok();
                if ok {
                    let end_ns = now_ns();
                    self.acks
                        .extend(stamped.into_iter().map(|(index, timestamp)| Ack {
                            index,
                            timestamp,
                            end_ns,
                        }));
                }
                (OpClass::Write, ok)
            }
        };
        if self.traced {
            let id = trace_id(self.index, self.round, self.ops);
            trace::record(Span {
                trace_id: id,
                span_id: id,
                parent_id: 0,
                name: if class == OpClass::Call {
                    ROOT_CALL
                } else {
                    ROOT_WRITE
                },
                start_ns,
                end_ns: now_ns(),
            });
        }
        Outcome { class, ok }
    }
}

impl ClientLoop for Client {
    fn step(&mut self) -> Outcome {
        let op = self.gen.next_op();
        self.run(op)
    }
}

struct Deployment {
    /// The fabric the cluster was launched on, kept alive beside it.
    _net: Network,
    cluster: AnnaCluster,
    keys: Arc<Vec<Key>>,
}

impl Deployment {
    fn client(&self, index: usize, round: usize, gen: KvsGen, traced: bool) -> Client {
        Client {
            index,
            round,
            anna: self.cluster.client().with_timeout(OP_TIMEOUT),
            keys: Arc::clone(&self.keys),
            gen,
            traced,
            ops: 0,
            acks: Vec::new(),
        }
    }
}

/// Launch, load every key, and touch the read and write paths.
fn setup(seed: u64, zipf: &Arc<ZipfSampler>) -> Deployment {
    let (net, cluster) = AnnaCluster::launch_standalone(config(seed));
    let keys: Arc<Vec<Key>> = Arc::new((0..KEYS).map(|i| Key::new(format!("kv/{i:05}"))).collect());
    let loader = cluster.client().with_timeout(OP_TIMEOUT);
    for (c, chunk) in keys.chunks(SEED_CHUNK).enumerate() {
        let entries = chunk
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let index = (c * SEED_CHUNK + i) as u32;
                let capsule = Capsule::wrap_lww(loader.next_timestamp(), payload(index, 0));
                (key.clone(), capsule)
            })
            .collect();
        loader.multi_put(entries).expect("seed chunk");
    }
    let deployment = Deployment {
        _net: net,
        cluster,
        keys,
    };
    for (role, ops) in [(KvsRole::Reader, WARM_GETS), (KvsRole::Writer, WARM_PUTS)] {
        let warm_gen = KvsGen::new(WARM_SEED, Arc::clone(zipf), role);
        let mut warm = deployment.client(CLIENTS, 0, warm_gen, false);
        for _ in 0..ops {
            let op = warm.gen.next_op();
            assert!(warm.run(op).ok, "warm-up operation failed");
        }
    }
    deployment
}

/// Bytes every node's disk env holds, summed over the cluster.
fn env_bytes(cluster: &AnnaCluster, nodes: u64) -> u64 {
    (0..nodes)
        .filter_map(|id| cluster.disk_env(id))
        .map(|env| {
            env.list()
                .iter()
                .filter_map(|file| env.size_of(file))
                .sum::<u64>()
        })
        .sum()
}

pub fn run(seed: u64, slice: Duration, rounds: usize, traced: bool) -> Pass {
    let zipf = Arc::new(ZipfSampler::new(KEYS, ZIPF));
    let mut gens: Vec<KvsGen> = ROLES
        .iter()
        .enumerate()
        .map(|(i, &role)| KvsGen::new(client_seed(seed, i), Arc::clone(&zipf), role))
        .collect();
    let digest = input_digest(&gens);

    let mut setup_s = Vec::with_capacity(rounds);
    let mut slices = Vec::with_capacity(rounds);
    let mut counters = Counters::default();
    let (mut checks, mut checks_failed) = (0u64, 0u64);
    for round in 0..rounds {
        let start = Instant::now();
        let deployment = setup(seed, &zipf);
        setup_s.push(start.elapsed().as_secs_f64());
        let cluster = &deployment.cluster;

        let clients: Vec<Client> = gens
            .drain(..)
            .enumerate()
            .map(|(i, gen)| deployment.client(i, round, gen, traced))
            .collect();
        let control = cluster.client().with_timeout(OP_TIMEOUT);
        let (clients, record) = drive_counted(
            clients,
            slice,
            || cluster.runtime_stats(),
            &control,
            &mut counters,
            || {},
        );

        if round + 1 == rounds {
            let (n, failed) =
                power_loss_check(&deployment, &control, &clients, &record, &mut counters);
            checks += n;
            checks_failed += failed;
        }
        gens = clients.into_iter().map(|c| c.gen).collect();
        slices.push(record);
    }

    let e2e = summarize_slices(&slices);
    counters.get_max_ms = e2e.call_max_us / 1000.0;
    Pass {
        setup_s,
        e2e,
        // Two hops and a disk tier, all at zero injected latency.
        model_floor_us: model_floor_us(&config(seed)),
        checks,
        checks_failed,
        input_digest: digest,
        counters,
    }
}

/// client -> node -> client, with the disk tier's model on top.
fn model_floor_us(config: &AnnaConfig) -> f64 {
    let scale = config.net.time_scale.factor();
    (2.0 * config.net.default_latency.median_ms() + config.node.disk_latency.median_ms())
        * scale
        * 1000.0
}

/// The end of the run: read the tier and LSM gauges, pull the plug on the
/// whole cluster, and require every key acknowledged during the slice to
/// read back at a timestamp no older than the acknowledged one. Returns
/// (keys checked, keys lost).
fn power_loss_check(
    deployment: &Deployment,
    control: &AnnaClient,
    clients: &[Client],
    slice: &Slice,
    counters: &mut Counters,
) -> (u64, u64) {
    let cluster = &deployment.cluster;
    let stats = control.cluster_stats().expect("cluster stats");
    let keys: usize = stats.iter().map(|n| n.key_count).sum();
    let disk_keys: usize = stats.iter().map(|n| n.disk_keys).sum();
    let user_bytes: usize = stats.iter().map(|n| n.payload_bytes).sum();
    counters.disk_key_share = disk_keys as f64 / keys.max(1) as f64;
    counters.sstables_end = stats.iter().map(|n| n.sstables).min().unwrap_or(0) as f64;
    counters.space_amp = env_bytes(cluster, stats.len() as u64) as f64 / user_bytes.max(1) as f64;

    let cut = Instant::now();
    cluster.power_loss();
    while control.cluster_stats().is_err() {
        assert!(
            cut.elapsed() < Duration::from_secs(60),
            "nodes did not recover"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    counters.recovery_ms = cut.elapsed().as_secs_f64() * 1000.0;

    let mut newest: HashMap<u32, Timestamp> = HashMap::new();
    for ack in clients.iter().flat_map(|c| c.acks.iter()) {
        if ack.end_ns >= slice.start_ns {
            let slot = newest.entry(ack.index).or_insert(ack.timestamp);
            *slot = (*slot).max(ack.timestamp);
        }
    }
    let mut lost = 0u64;
    for (&index, &acked) in &newest {
        let survived = matches!(control.get(&deployment.keys[index as usize]),
            Ok(Some(capsule)) if capsule.lww_timestamp().is_some_and(|ts| ts >= acked)
                && payload_names(&capsule.read_value(), index));
        if !survived {
            lost += 1;
        }
    }
    (newest.len() as u64, lost)
}
