//! [`NodeTelemetry`]: the unified per-node access-telemetry engine.
//!
//! Anna's selective replication needs to *observe* load before it can react
//! to it (paper §2.2, §4.4). Each storage node tracks, alongside its total
//! request counters, an exponentially-decayed per-key access counter — the
//! key's **heat** — and an equally-decayed whole-node counter — the node's
//! **load**. Both decay with a configurable half-life, so a key that stops
//! being accessed cools toward zero instead of staying "hot" forever.
//!
//! Heat rides the existing batched fabric: decay is folded into the node's
//! periodic gossip-flush cadence (no extra timer) and the snapshot is
//! reported inside the existing [`crate::msg::NodeStats`] reply — the
//! elasticity engine ([`crate::elastic`]) polls the stats it already polled,
//! and no new RPC is added to the protocol.
//!
//! Tracking is admission-bounded: at most `max_tracked` keys are counted at
//! once (a sampled view of the keyspace). Hot keys re-enter immediately
//! after a decay prune, so the bound only sheds the cold tail that the
//! policy engine would ignore anyway.

use std::time::{Duration, Instant};

use cloudburst_lattice::{Key, KeyMap};

/// Heat entries below this value are dropped at decay time (noise floor).
const PRUNE_BELOW: f64 = 0.25;

/// Telemetry knobs (usually set through [`crate::node::NodeConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Half-life of the heat/load decay, in *wall-clock* time (callers scale
    /// paper milliseconds through the network's time scale first).
    pub half_life: Duration,
    /// Maximum number of keys tracked at once; further keys are not admitted
    /// until decay prunes the cold tail.
    pub max_tracked: usize,
    /// How many of the hottest keys a snapshot reports.
    pub top_k: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            half_life: Duration::from_secs(1),
            max_tracked: 4096,
            top_k: 16,
        }
    }
}

/// One node's access-telemetry state: decayed heat per key, decayed total
/// load, and the lifetime request counters that used to live as ad-hoc
/// fields on the node worker.
#[derive(Debug)]
pub struct NodeTelemetry {
    config: TelemetryConfig,
    heat: KeyMap<f64>,
    load: f64,
    last_decay: Instant,
    gets_served: u64,
    puts_served: u64,
}

impl NodeTelemetry {
    /// Create a telemetry engine.
    pub fn new(config: TelemetryConfig) -> Self {
        Self {
            config,
            heat: KeyMap::default(),
            load: 0.0,
            #[expect(
                clippy::disallowed_methods,
                reason = "heat decay is defined in wall-clock half-lives (TelemetryConfig::half_life)"
            )]
            last_decay: Instant::now(),
            gets_served: 0,
            puts_served: 0,
        }
    }

    /// Record a served read of `key`.
    pub fn record_get(&mut self, key: &Key) {
        self.gets_served += 1;
        self.bump(key);
    }

    /// Record a served write of `key`.
    pub fn record_put(&mut self, key: &Key) {
        self.puts_served += 1;
        self.bump(key);
    }

    /// Lifetime reads served.
    pub fn gets_served(&self) -> u64 {
        self.gets_served
    }

    /// Lifetime writes served.
    pub fn puts_served(&self) -> u64 {
        self.puts_served
    }

    fn bump(&mut self, key: &Key) {
        self.load += 1.0;
        if let Some(h) = self.heat.get_mut(key) {
            *h += 1.0;
        } else if self.heat.len() < self.config.max_tracked {
            self.heat.insert(key.clone(), 1.0);
        }
        // At capacity the new key is simply not admitted this window: the
        // next decay prunes the cold tail and readmits it if it stays hot.
    }

    /// Apply the exponential decay accrued since the last decay, pruning
    /// entries that fell below the noise floor. Called on the node's gossip
    /// cadence and lazily before every snapshot; cheap no-op when less than
    /// 1/32 of a half-life has elapsed (so a sub-millisecond gossip tick
    /// does not pay a full map sweep per tick).
    pub fn decay(&mut self) {
        let dt = self.last_decay.elapsed();
        if dt < self.config.half_life / 32 {
            return;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "decay-epoch reset for the half-life clock above"
        )]
        let now = Instant::now();
        self.last_decay = now;
        let factor = 0.5f64.powf(dt.as_secs_f64() / self.config.half_life.as_secs_f64());
        self.load *= factor;
        self.heat.retain(|_, h| {
            *h *= factor;
            *h >= PRUNE_BELOW
        });
    }

    /// The node's decayed total load, in heat units (a steady request rate
    /// `r` settles at `r * half_life / ln 2`).
    pub fn load(&mut self) -> f64 {
        self.decay();
        self.load
    }

    /// The current heat of one key (0 if untracked).
    pub fn heat_of(&mut self, key: &Key) -> f64 {
        self.decay();
        self.heat.get(key).copied().unwrap_or(0.0)
    }

    /// The `top_k` hottest keys, hottest first, plus the node load —
    /// the per-node half of the cluster heat map the elasticity engine
    /// aggregates.
    pub fn snapshot(&mut self) -> (Vec<(Key, f64)>, f64) {
        self.decay();
        let mut hot: Vec<(Key, f64)> = self.heat.iter().map(|(k, &h)| (k.clone(), h)).collect();
        hot.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        hot.truncate(self.config.top_k);
        (hot, self.load)
    }

    /// Number of keys currently tracked (diagnostics / tests).
    pub fn tracked(&self) -> usize {
        self.heat.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(half_life_ms: u64) -> TelemetryConfig {
        TelemetryConfig {
            half_life: Duration::from_millis(half_life_ms),
            max_tracked: 8,
            top_k: 4,
        }
    }

    #[test]
    fn heat_accumulates_and_ranks() {
        let mut t = NodeTelemetry::new(config(10_000));
        let hot = Key::new("hot");
        let warm = Key::new("warm");
        for _ in 0..100 {
            t.record_get(&hot);
        }
        for _ in 0..10 {
            t.record_put(&warm);
        }
        let (top, load) = t.snapshot();
        assert_eq!(top[0].0, hot);
        assert!(top[0].1 > top[1].1);
        assert!((load - 110.0).abs() < 1.0, "load {load}");
        assert_eq!(t.gets_served(), 100);
        assert_eq!(t.puts_served(), 10);
    }

    #[test]
    fn heat_decays_toward_zero() {
        let mut t = NodeTelemetry::new(config(20));
        let k = Key::new("k");
        for _ in 0..64 {
            t.record_get(&k);
        }
        assert!(t.heat_of(&k) > 16.0);
        // After many half-lives the entry decays below the prune floor and
        // is dropped entirely.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(t.heat_of(&k), 0.0);
        assert_eq!(t.tracked(), 0);
        assert!(t.load() < 1.0);
    }

    #[test]
    fn tracking_is_admission_bounded() {
        let mut t = NodeTelemetry::new(config(10_000));
        for i in 0..32 {
            t.record_get(&Key::new(format!("k{i}")));
        }
        assert!(t.tracked() <= 8);
        // Lifetime counters still see every request.
        assert_eq!(t.gets_served(), 32);
    }

    #[test]
    fn snapshot_reports_top_k_only() {
        let mut t = NodeTelemetry::new(config(10_000));
        for i in 0..8 {
            for _ in 0..=i {
                t.record_get(&Key::new(format!("k{i}")));
            }
        }
        let (top, _) = t.snapshot();
        assert_eq!(top.len(), 4);
        assert_eq!(top[0].0, Key::new("k7"));
    }
}
