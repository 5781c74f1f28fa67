//! The two deployment configurations every workload is defined against, and
//! the latency floor a configuration's injected models impose.
//!
//! Both run at `TimeScale::REAL_TIME` (1 paper-ms = 1 ms): at the compressed
//! default the protocol cadences (gossip, keyset publish, metrics, WAL) fire
//! 20x too often against uncompressed CPU work and throughput swings by tens
//! of percent between identical runs.

use cloudburst::cluster::CloudburstConfig;
use cloudburst::types::ConsistencyLevel;
use cloudburst_anna::AnnaConfig;
use cloudburst_net::{LatencyModel, NetConfig, TimeScale};

/// **zero-model**: every injected hardware sleep off, every protocol cadence
/// at its product default. Measures what the program itself costs.
///
/// Diff from `CloudburstConfig::default()`: `net = NetConfig::instant()`
/// (real time, zero hop latency), `executor.invocation_overhead_ms = 0`,
/// `anna.node.disk_latency = Zero`, `anna.node.service_latency = Zero`.
pub fn zero_model(level: ConsistencyLevel, seed: u64) -> CloudburstConfig {
    let mut config = CloudburstConfig {
        net: NetConfig {
            seed,
            ..NetConfig::instant()
        },
        level,
        ..CloudburstConfig::default()
    };
    config.executor.invocation_overhead_ms = 0.0;
    zero_model_anna(&mut config.anna);
    config
}

/// The storage-tier half of the zero-model configuration.
pub fn zero_model_anna(anna: &mut AnnaConfig) {
    anna.node.disk_latency = LatencyModel::Zero;
    anna.node.service_latency = LatencyModel::Zero;
}

/// **modeled**: the product defaults with only the time base set to real
/// time and the hop latency made constant at the paper's intra-AZ median
/// (the default log-normal's sampled tail made throughput swing ±12 %).
///
/// Diff from `CloudburstConfig::default()`: `net.time_scale = REAL_TIME`,
/// `net.default_latency = Constant { 0.2 }`.
pub fn modeled(seed: u64) -> CloudburstConfig {
    CloudburstConfig {
        net: NetConfig {
            time_scale: TimeScale::REAL_TIME,
            default_latency: LatencyModel::Constant { ms: 0.2 },
            seed,
            ..NetConfig::default()
        },
        ..CloudburstConfig::default()
    }
}

/// The latency the configuration's injected models alone impose on an
/// operation that crosses `hops` blocking network hops and runs
/// `invocations` function bodies — computed from the config, so a changed
/// model moves the floor with it. Zero under the zero-model configuration.
pub fn model_floor_us(config: &CloudburstConfig, hops: u32, invocations: u32) -> f64 {
    let scale = config.net.time_scale.factor();
    let hop_ms = config.net.default_latency.median_ms();
    let invoke_ms = config.executor.invocation_overhead_ms;
    (f64::from(hops) * hop_ms + f64::from(invocations) * invoke_ms) * scale * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_floor_follows_the_config() {
        // client -> scheduler -> executor -> executor -> client, two bodies.
        assert_eq!(model_floor_us(&modeled(1), 4, 2), 1600.0);
        assert_eq!(
            model_floor_us(&zero_model(ConsistencyLevel::Lww, 1), 4, 2),
            0.0
        );
        let mut slower = modeled(1);
        slower.executor.invocation_overhead_ms = 1.0;
        slower.net.default_latency = LatencyModel::Constant { ms: 0.5 };
        assert_eq!(model_floor_us(&slower, 4, 2), 4000.0);
        // At the compressed default scale a paper-ms is 50 us.
        slower.net.time_scale = TimeScale::DEFAULT;
        assert_eq!(model_floor_us(&slower, 4, 2), 200.0);
    }

    #[test]
    fn zero_model_keeps_protocol_cadences_at_product_defaults() {
        let z = zero_model(ConsistencyLevel::DistributedSessionCausal, 7);
        let d = CloudburstConfig::default();
        assert_eq!(
            z.anna.node.gossip_interval_ms,
            d.anna.node.gossip_interval_ms
        );
        assert_eq!(
            z.anna.node.wal_sync_interval_ms,
            d.anna.node.wal_sync_interval_ms
        );
        assert_eq!(
            z.cache.keyset_publish_interval_ms,
            d.cache.keyset_publish_interval_ms
        );
        assert_eq!(
            z.executor.metrics_interval_ms,
            d.executor.metrics_interval_ms
        );
        assert_eq!(z.net.time_scale, TimeScale::REAL_TIME);
        assert_eq!(z.net.seed, 7);
    }
}
