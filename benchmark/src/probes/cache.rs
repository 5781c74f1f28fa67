//! `core::cache` standalone: a `VmCache` spawned outside any cluster's
//! compute tier, over its own zero-model Anna.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cloudburst::cache::{CacheConfig, VmCache};
use cloudburst::consistency::SessionMeta;
use cloudburst::topology::Topology;
use cloudburst::types::ConsistencyLevel;
use cloudburst_anna::{AnnaCluster, Durability};
use cloudburst_lattice::{Key, VectorClock};
use cloudburst_net::{NetConfig, Network};
use cloudburst_runtime::{Runtime, RuntimeConfig};

use super::anna::cluster_config;
use super::{ns_per_iter, Values};

const KEYS: usize = 64;

struct Rig {
    net: Network,
    runtime: Runtime,
    anna: AnnaCluster,
}

impl Rig {
    fn new() -> Self {
        let net = Network::new(NetConfig::instant());
        let runtime = Runtime::new(RuntimeConfig::default());
        let anna = AnnaCluster::launch_on(&net, &runtime, cluster_config(Durability::Off));
        Self { net, runtime, anna }
    }

    fn cache(&self, vm: u64, level: ConsistencyLevel, config: CacheConfig) -> VmCache {
        VmCache::spawn(
            &self.runtime,
            vm,
            &self.net,
            self.anna.client(),
            Arc::new(Topology::new()),
            level,
            config,
        )
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.anna.shutdown();
        self.runtime.shutdown();
    }
}

pub fn run(unit: Duration, out: &mut Values) {
    let rig = Rig::new();
    let value = Bytes::from(vec![3u8; 128]);
    let client = rig.anna.client();

    // LWW: hits, miss + fill, session writes.
    let keys: Vec<Key> = (0..KEYS)
        .map(|i| Key::new(format!("probe/cache/{i}")))
        .collect();
    for key in &keys {
        client.put_lww(key, value.clone()).expect("seed");
    }
    let mut lww_cache = rig.cache(0, ConsistencyLevel::Lww, CacheConfig::default());
    let cache = lww_cache.inner();
    let mut session = SessionMeta::new(1, ConsistencyLevel::Lww);
    for key in &keys {
        assert!(
            cache.get_session(key, &mut session).is_some(),
            "seeded key readable"
        );
    }
    let mut cursor = 0usize;
    out.insert(
        "core.cache.hit_ns",
        ns_per_iter(unit, 4096, || {
            cursor = (cursor + 1) % KEYS;
            cache.get_session(&keys[cursor], &mut session)
        }),
    );
    out.insert(
        "core.cache.miss_fill_us",
        ns_per_iter(unit * 2, 64, || {
            cursor = (cursor + 1) % KEYS;
            cache.evict(&keys[cursor]);
            cache.get_or_fetch(&keys[cursor])
        }) / 1000.0,
    );
    out.insert(
        "core.cache.put_session_ns",
        ns_per_iter(unit, 1024, || {
            cursor = (cursor + 1) % KEYS;
            cache.put_session(&keys[cursor], value.clone(), &mut session, 1, &[])
        }),
    );
    lww_cache.shutdown();

    // The flush alone: a cache whose server never flushes on its own, 256
    // dirty keys per explicit flush (fire-and-forget batched puts).
    let mut manual = rig.cache(
        1,
        ConsistencyLevel::Lww,
        CacheConfig {
            write_flush_interval_ms: 1e9,
            ..CacheConfig::default()
        },
    );
    let cache = manual.inner();
    let dirty: Vec<Key> = (0..256)
        .map(|i| Key::new(format!("probe/flush/{i}")))
        .collect();
    let start = Instant::now();
    let (mut spent, mut flushed) = (Duration::ZERO, 0usize);
    while flushed == 0 || start.elapsed() < unit {
        for key in &dirty {
            cache.put_session(key, value.clone(), &mut session, 1, &[]);
        }
        let t = Instant::now();
        cache.flush_writes();
        spent += t.elapsed();
        flushed += dirty.len();
    }
    out.insert(
        "core.cache.flush_us_per_key",
        spent.as_nanos() as f64 / 1000.0 / flushed as f64,
    );
    manual.shutdown();

    // Causal hits: a fresh session every 32 reads, as a timeline makes.
    let causal_keys: Vec<Key> = (0..KEYS)
        .map(|i| Key::new(format!("probe/causal/{i}")))
        .collect();
    for (i, key) in causal_keys.iter().enumerate() {
        client
            .put_causal(
                key,
                VectorClock::singleton(9, i as u64 + 1),
                [],
                value.clone(),
            )
            .expect("seed");
    }
    let level = ConsistencyLevel::DistributedSessionCausal;
    let mut causal_cache = rig.cache(2, level, CacheConfig::default());
    let cache = causal_cache.inner();
    let mut session = SessionMeta::new(1, level);
    for key in &causal_keys {
        assert!(
            cache.get_session(key, &mut session).is_some(),
            "seeded key readable"
        );
    }
    let mut reads = 0u64;
    out.insert(
        "core.cache.hit_causal_ns",
        ns_per_iter(unit, 1024, || {
            reads += 1;
            if reads.is_multiple_of(32) {
                session = SessionMeta::new(reads, level);
            }
            cache.get_session(&causal_keys[reads as usize % KEYS], &mut session)
        }),
    );
    causal_cache.shutdown();
}
