//! [`SimStorage`]: simulated cloud storage services (S3, DynamoDB, Redis).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use cloudburst_net::{LatencyModel, Network};
use parking_lot::{Mutex, RwLock};

use crate::calibration;

/// A functional in-memory storage service with injected service latency, an
/// optional bandwidth term, and an optional single-master write bottleneck
/// (Redis: "single-mastered and forces serialized writes, creating a queuing
/// delay for writes", §6.1.3).
pub struct SimStorage {
    name: &'static str,
    net: Network,
    // lock-rank: 31 bl-storage-map
    map: RwLock<HashMap<String, Bytes>>,
    op_latency: LatencyModel,
    bandwidth_mbps: Option<f64>,
    // lock-rank: 30 bl-write-master
    write_master: Option<Mutex<()>>,
    charged_ns: AtomicU64,
}

impl SimStorage {
    /// Simulated AWS S3.
    pub fn s3(net: &Network) -> Arc<Self> {
        Arc::new(Self {
            name: "s3",
            net: net.clone(),
            map: RwLock::ranked(31, "bl-storage-map", HashMap::new()),
            op_latency: calibration::S3_OP,
            bandwidth_mbps: Some(calibration::S3_BANDWIDTH_MBPS),
            write_master: None,
            charged_ns: AtomicU64::new(0),
        })
    }

    /// Simulated AWS DynamoDB (small items; no bandwidth term).
    pub fn dynamodb(net: &Network) -> Arc<Self> {
        Arc::new(Self {
            name: "dynamodb",
            net: net.clone(),
            map: RwLock::ranked(31, "bl-storage-map", HashMap::new()),
            op_latency: calibration::DYNAMO_OP,
            bandwidth_mbps: None,
            write_master: None,
            charged_ns: AtomicU64::new(0),
        })
    }

    /// Simulated AWS ElastiCache (Redis): fast ops, but single-master
    /// serialized writes.
    pub fn redis(net: &Network) -> Arc<Self> {
        Arc::new(Self {
            name: "redis",
            net: net.clone(),
            map: RwLock::ranked(31, "bl-storage-map", HashMap::new()),
            op_latency: calibration::REDIS_OP,
            bandwidth_mbps: Some(calibration::REDIS_BANDWIDTH_MBPS),
            write_master: Some(Mutex::ranked(30, "bl-write-master", ())),
            charged_ns: AtomicU64::new(0),
        })
    }

    /// The service's name (reporting).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Read an object, paying the service latency plus a bandwidth term.
    pub fn get(&self, key: &str) -> Option<Bytes> {
        let value = self.map.read().get(key).cloned();
        let size = value.as_ref().map_or(0, Bytes::len);
        self.pay(size);
        value
    }

    /// Write an object. On single-master services the service time is spent
    /// *while holding the master lock*, which is what creates write queuing
    /// under concurrency.
    pub fn put(&self, key: impl Into<String>, value: Bytes) {
        let size = value.len();
        match &self.write_master {
            Some(master) => {
                let _guard = master.lock();
                self.pay(size);
                self.map.write().insert(key.into(), value);
            }
            None => {
                self.pay(size);
                self.map.write().insert(key.into(), value);
            }
        }
    }

    /// Delete an object.
    pub fn delete(&self, key: &str) {
        self.pay(0);
        self.map.write().remove(key);
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Total service time charged so far (operation latency plus the
    /// bandwidth term), as sampled: the sleeps that pay it may overshoot,
    /// this sum does not.
    pub fn latency_charged(&self) -> Duration {
        Duration::from_nanos(self.charged_ns.load(Ordering::Relaxed))
    }

    fn pay(&self, size_bytes: usize) {
        let mut wait = self.net.sample(self.op_latency);
        if let Some(bw) = self.bandwidth_mbps {
            let transfer_ms = size_bytes as f64 / (bw * 1000.0); // MB/s → bytes/ms
            wait += self.net.time_scale().ms(transfer_ms);
        }
        if !wait.is_zero() {
            self.charged_ns
                .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
            std::thread::sleep(wait);
        }
    }
}

impl std::fmt::Debug for SimStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimStorage")
            .field("name", &self.name)
            .field("objects", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_net::{NetConfig, TimeScale};
    use std::time::Instant;

    fn fast_net() -> Network {
        // Tiny scale so calibrated latencies shrink to microseconds.
        Network::new(NetConfig {
            time_scale: TimeScale::new(0.001),
            default_latency: LatencyModel::Zero,
            seed: 11,
            ..NetConfig::default()
        })
    }

    #[test]
    fn put_get_roundtrip() {
        let net = fast_net();
        for store in [
            SimStorage::s3(&net),
            SimStorage::dynamodb(&net),
            SimStorage::redis(&net),
        ] {
            store.put("k", Bytes::from_static(b"v"));
            assert_eq!(store.get("k").unwrap().as_ref(), b"v");
            assert_eq!(store.get("missing"), None);
            store.delete("k");
            assert!(store.get("k").is_none());
            assert!(store.is_empty());
        }
    }

    #[test]
    fn s3_pays_bandwidth_for_large_objects() {
        let net = Network::new(NetConfig {
            time_scale: TimeScale::new(0.01),
            default_latency: LatencyModel::Zero,
            seed: 3,
            ..NetConfig::default()
        });
        let s3 = SimStorage::s3(&net);
        s3.put("small", Bytes::from(vec![0u8; 1024]));
        s3.put("big", Bytes::from(vec![0u8; 8 << 20]));
        let before = s3.latency_charged();
        s3.get("small");
        let small = s3.latency_charged() - before;
        let before = s3.latency_charged();
        s3.get("big");
        let big = s3.latency_charged() - before;
        assert!(
            big > small,
            "8 MB ({big:?}) must cost more than 1 KB ({small:?})"
        );
    }

    #[test]
    fn redis_serializes_concurrent_writes() {
        // With a 1:1 time scale and ~0.6 ms writes, 8 concurrent writers on
        // a single master take ≈ 8 × longer than one writer.
        let net = Network::new(NetConfig {
            time_scale: TimeScale::REAL_TIME,
            default_latency: LatencyModel::Zero,
            seed: 5,
            ..NetConfig::default()
        });
        let redis = SimStorage::redis(&net);
        let t = Instant::now();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let r = Arc::clone(&redis);
                std::thread::spawn(move || r.put(format!("k{i}"), Bytes::from_static(b"v")))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let concurrent = t.elapsed();
        // Sequential floor: 8 writes of ≥ ~0.3 ms each must not have
        // overlapped (the master lock forbids it).
        assert!(
            concurrent.as_secs_f64() > 0.0015,
            "writes overlapped on a single master: {concurrent:?}"
        );
        assert_eq!(redis.len(), 8);
    }
}
