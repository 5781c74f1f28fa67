//! `anna::store`, `anna::lsm` and `anna::client` in isolation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cloudburst_anna::{
    AnnaCluster, AnnaConfig, DiskEnv, DiskError, Durability, FaultDisk, LsmEngine, LsmOptions,
    TieredStore,
};
use cloudburst_lattice::{Capsule, Key, Timestamp};
use cloudburst_net::NetConfig;

use super::{ns_per_iter, Values};
use crate::configs;
use crate::stats::median;

const VALUE_BYTES: usize = 1024;

fn probe_keys(prefix: &str, n: usize) -> Vec<Key> {
    (0..n)
        .map(|i| Key::new(format!("probe/{prefix}/{i}")))
        .collect()
}

fn kib(clock: u64) -> Capsule {
    Capsule::wrap_lww(
        Timestamp::new(clock, 1),
        Bytes::from(vec![0x5Au8; VALUE_BYTES]),
    )
}

// ---------------------------------------------------------------- store ---

/// `TieredStore` direct, everything in the memory tier.
pub fn run_store(unit: Duration, out: &mut Values) {
    let keys = probe_keys("store", 4096);
    let mut store = TieredStore::new(64 << 20);
    for key in &keys {
        store.merge(key.clone(), kib(1)).expect("same kind");
    }
    let mut tick = 1u64;
    out.insert(
        "anna.store.merge_ns",
        ns_per_iter(unit, 1024, || {
            tick += 1;
            let key = keys[(tick as usize * 1531) % keys.len()].clone();
            store.merge(key, kib(tick)).is_ok()
        }),
    );
    out.insert(
        "anna.store.get_ns",
        ns_per_iter(unit, 4096, || {
            tick += 1;
            store.get(&keys[(tick as usize * 1531) % keys.len()])
        }),
    );
}

// ------------------------------------------------------------------ lsm ---

/// A `DiskEnv` that counts what the engine writes through it, for exact
/// write-amplification and sync counts.
#[derive(Debug)]
struct CountingDisk {
    inner: Arc<FaultDisk>,
    bytes_written: AtomicU64,
    syncs: AtomicU64,
}

impl DiskEnv for CountingDisk {
    fn append(&self, file: &str, data: &[u8]) {
        self.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(file, data);
    }
    fn sync(&self, file: &str) -> Result<(), DiskError> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync(file)
    }
    fn write_atomic(&self, file: &str, data: &[u8]) -> Result<(), DiskError> {
        // Durable on return: one write and one sync.
        self.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.write_atomic(file, data)
    }
    fn read(&self, file: &str) -> Option<Vec<u8>> {
        self.inner.read(file)
    }
    fn read_range(&self, file: &str, offset: u64, len: usize) -> Option<Vec<u8>> {
        self.inner.read_range(file, offset, len)
    }
    fn size_of(&self, file: &str) -> Option<u64> {
        self.inner.size_of(file)
    }
    fn remove(&self, file: &str) {
        self.inner.remove(file);
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn power_loss(&self) {
        self.inner.power_loss();
    }
}

/// Options that never flush or compact on their own, so a probe decides.
fn manual() -> LsmOptions {
    LsmOptions {
        memtable_flush_bytes: usize::MAX,
        compact_min_runs: usize::MAX,
        ..LsmOptions::default()
    }
}

/// Time `timed` over fresh state from `fresh` until `budget` is spent;
/// returns mean nanoseconds per timed call.
fn timed_over_fresh<S>(
    budget: Duration,
    mut fresh: impl FnMut() -> S,
    mut timed: impl FnMut(&mut S),
) -> f64 {
    let start = Instant::now();
    let mut spent = Duration::ZERO;
    let mut rounds = 0u32;
    while rounds < 2 || start.elapsed() < budget {
        let mut state = fresh();
        let t = Instant::now();
        timed(&mut state);
        spent += t.elapsed();
        rounds += 1;
    }
    spent.as_nanos() as f64 / f64::from(rounds)
}

/// `LsmEngine` direct over `FaultDisk`, 1 KiB values.
pub fn run_lsm(unit: Duration, out: &mut Values) {
    let keys = probe_keys("lsm", 1024);
    let open = || LsmEngine::open(FaultDisk::new(), manual());

    // WAL append + memtable apply, 1024 puts per fresh engine (the WAL of a
    // never-flushing engine grows without bound).
    let per_round = timed_over_fresh(unit, open, |engine| {
        for (i, key) in keys.iter().enumerate() {
            engine.put(key.clone(), kib(i as u64 + 1));
        }
    });
    out.insert("anna.lsm.put_ns", per_round / keys.len() as f64);

    // One group commit covering 32 records.
    let per_sync = timed_over_fresh(
        unit,
        || {
            let mut engine = open();
            for (i, key) in keys.iter().take(32).enumerate() {
                engine.put(key.clone(), kib(i as u64 + 1));
            }
            engine
        },
        |engine| engine.sync().expect("fault-free sync"),
    );
    out.insert("anna.lsm.sync_us", per_sync / 1000.0);

    // Reads from the memtable, then from one bloom-filtered SSTable.
    let mut engine = open();
    for (i, key) in keys.iter().enumerate() {
        engine.put(key.clone(), kib(i as u64 + 1));
    }
    let mut cursor = 0usize;
    out.insert(
        "anna.lsm.get_mem_ns",
        ns_per_iter(unit, 1024, || {
            cursor = (cursor + 389) % keys.len();
            engine.get(&keys[cursor])
        }),
    );
    engine.flush().expect("fault-free flush");
    out.insert(
        "anna.lsm.get_sst_us",
        ns_per_iter(unit, 256, || {
            cursor = (cursor + 389) % keys.len();
            engine.get(&keys[cursor])
        }) / 1000.0,
    );

    // Flush of a 1 MiB memtable; compaction of four 1 MiB runs over the
    // same keys (fixed work, median of three).
    let mut flush_ms = Vec::new();
    let mut compact_ms = Vec::new();
    for _ in 0..3 {
        let mut engine = open();
        for run in 0..4u64 {
            for (i, key) in keys.iter().enumerate() {
                engine.put(key.clone(), kib(run * 10_000 + i as u64 + 1));
            }
            let t = Instant::now();
            engine.flush().expect("fault-free flush");
            flush_ms.push(t.elapsed().as_secs_f64() * 1000.0);
        }
        assert_eq!(engine.table_count(), 4);
        let t = Instant::now();
        engine.compact().expect("fault-free compaction");
        compact_ms.push(t.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(engine.table_count(), 1);
    }
    out.insert("anna.lsm.flush_ms", median(&flush_ms));
    out.insert("anna.lsm.compact_ms", median(&compact_ms));

    // Exact write amplification and sync counts: 8192 puts of 1 KiB over
    // 2048 keys in a fixed order, a group commit every 32 records, with the
    // `kvs_durable` engine settings (1 MiB memtable, compact at 4 runs).
    let disk = Arc::new(CountingDisk {
        inner: FaultDisk::new(),
        bytes_written: AtomicU64::new(0),
        syncs: AtomicU64::new(0),
    });
    let mut engine = LsmEngine::open(
        Arc::clone(&disk) as Arc<dyn DiskEnv>,
        LsmOptions {
            memtable_flush_bytes: 1 << 20,
            compact_min_runs: 4,
            ..LsmOptions::default()
        },
    );
    let amp_keys = probe_keys("amp", 2048);
    const PUTS: u64 = 8192;
    for i in 0..PUTS {
        let key = amp_keys[(i as usize * 1531) % amp_keys.len()].clone();
        engine.put(key, kib(i + 1));
        if i % 32 == 31 {
            engine.sync().expect("fault-free sync");
        }
    }
    let user_bytes = PUTS * VALUE_BYTES as u64;
    out.insert(
        "anna.lsm.write_amp",
        disk.bytes_written.load(Ordering::Relaxed) as f64 / user_bytes as f64,
    );
    out.insert(
        "anna.lsm.syncs_per_kput",
        disk.syncs.load(Ordering::Relaxed) as f64 * 1000.0 / PUTS as f64,
    );
}

// --------------------------------------------------------------- client ---

/// A 3-node, replication-2, zero-model storage tier.
pub(super) fn cluster_config(durability: Durability) -> AnnaConfig {
    let mut config = AnnaConfig {
        nodes: 3,
        replication: 2,
        durability,
        net: NetConfig::instant(),
        ..AnnaConfig::default()
    };
    configs::zero_model_anna(&mut config);
    config
}

/// `AnnaClient` against a standalone zero-model cluster: blocking round
/// trips through the fabric, a node actor and its store.
pub fn run_client(unit: Duration, out: &mut Values) {
    let keys = probe_keys("client", 1024);
    let (_net, cluster) = AnnaCluster::launch_standalone(cluster_config(Durability::Off));
    let client = cluster.client();
    for chunk in keys.chunks(256) {
        let entries = chunk.iter().map(|k| (k.clone(), kib(1))).collect();
        client.multi_put(entries).expect("seed");
    }
    let mut cursor = 0usize;
    out.insert(
        "anna.client.get_us",
        ns_per_iter(unit * 2, 64, || {
            cursor = (cursor + 389) % keys.len();
            client.get(&keys[cursor]).expect("get")
        }) / 1000.0,
    );
    let value = Bytes::from(vec![0x5Au8; VALUE_BYTES]);
    out.insert(
        "anna.client.put_us",
        ns_per_iter(unit * 2, 64, || {
            cursor = (cursor + 389) % keys.len();
            client.put_lww(&keys[cursor], value.clone()).expect("put");
        }) / 1000.0,
    );
    let batch = &keys[..32];
    out.insert(
        "anna.client.multi_get_us_per_key",
        ns_per_iter(unit * 2, 16, || client.multi_get(batch).expect("multi_get"))
            / 1000.0
            / batch.len() as f64,
    );
    drop(client);
    drop(cluster);

    // Disk-tier reads: a durable cluster whose memory tier holds a sixteenth
    // of the keys, read round-robin so every key is cold again when its turn
    // comes back.
    let cold = probe_keys("cold", 4096);
    let mut config = cluster_config(Durability::InMemory);
    config.node.memory_capacity_bytes = 256 << 10;
    let (_net, cluster) = AnnaCluster::launch_standalone(config);
    let client = cluster.client();
    for chunk in cold.chunks(256) {
        let entries = chunk.iter().map(|k| (k.clone(), kib(1))).collect();
        client.multi_put(entries).expect("seed");
    }
    let mut cursor = 0usize;
    out.insert(
        "anna.client.get_disk_us",
        ns_per_iter(unit * 2, 64, || {
            cursor = (cursor + 1) % cold.len();
            client.get(&cold[cursor]).expect("get")
        }) / 1000.0,
    );
}
