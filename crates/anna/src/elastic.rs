//! Closed-loop elasticity: the policy engine that turns key-heat telemetry
//! into automatic selective replication and storage autoscaling.
//!
//! The paper's performance story under skew rests on two reactions the
//! infrastructure takes *by itself* (paper §2.2, §4.4): Anna raises the
//! replication factor of hot keys so reads spread across more nodes, and
//! both tiers add or remove machines as load shifts. This module closes
//! that loop for the storage tier:
//!
//! * [`ElasticHandle`] runs the policy actor. Each tick it polls the node
//!   statistics the cluster already publishes (per-key heat and node load
//!   ride the existing stats reply — see [`crate::telemetry`]), **promotes**
//!   keys whose aggregate heat crosses a threshold by raising their
//!   replication override and pushing current values through the existing
//!   `Replicate` path, and **demotes** keys that stayed cool for a
//!   configurable number of consecutive ticks (hysteresis), trimming the
//!   stray copies a demotion leaves behind.
//! * [`ScalingLoop`] is the generalized add/remove decision engine. The
//!   compute monitor (`cloudburst::monitor`) and the storage scaler here
//!   are two instances of this one loop, and both record their decisions
//!   into a shared [`ScaleTimeline`] of [`ScaleSample`]s.
//! * [`StorageScaler`] abstracts "add/remove one storage node with
//!   rebalance"; [`crate::AnnaCluster`] implements it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudburst_lattice::{Key, KeyMap};
use cloudburst_net::Address;
use cloudburst_runtime::{Actor, ActorCtx, ActorHandle, Cadence, Poll, Runtime};
use parking_lot::Mutex;

use crate::client::AnnaClient;
use crate::directory::Directory;
use crate::metrics::is_system_key;
use crate::ring::NodeId;

// ---------------------------------------------------------------------------
// The generalized scaling loop (shared by the compute and storage tiers)
// ---------------------------------------------------------------------------

/// Thresholds and bounds for one [`ScalingLoop`] instance.
#[derive(Debug, Clone, Copy)]
pub struct ScalingConfig {
    /// Scale up when the load signal exceeds this.
    pub high: f64,
    /// Scale down when the load signal falls below this.
    pub low: f64,
    /// Never shrink below this many units.
    pub min_units: usize,
    /// Never grow beyond this many units.
    pub max_units: usize,
    /// Units added per scale-up decision.
    pub units_per_scaleup: usize,
    /// Consecutive over-threshold ticks required before scaling up.
    pub up_ticks: usize,
    /// Consecutive under-threshold ticks required before scaling down
    /// (hysteresis: one quiet sample must not shed capacity).
    pub down_ticks: usize,
}

/// What one [`ScalingLoop::observe`] call decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Load is inside the band (or hysteresis not yet satisfied).
    Hold,
    /// Add this many units.
    Up(usize),
    /// Remove one unit (the caller picks the least-loaded victim).
    Down,
}

/// The tier-agnostic scaling decision engine: compare a load signal against
/// a high/low band, require the signal to stay out-of-band for a configured
/// number of consecutive ticks, and respect min/max bounds including
/// capacity still being provisioned (`pending`). The compute monitor's VM
/// sizing policy and the storage tier's node sizing policy are both
/// instances of this loop.
#[derive(Debug)]
pub struct ScalingLoop {
    config: ScalingConfig,
    above: usize,
    below: usize,
}

impl ScalingLoop {
    /// Create a loop with the given thresholds.
    pub fn new(config: ScalingConfig) -> Self {
        Self {
            config,
            above: 0,
            below: 0,
        }
    }

    /// The loop's configuration.
    pub fn config(&self) -> &ScalingConfig {
        &self.config
    }

    /// Feed one load sample; `units` is the current capacity and `pending`
    /// the capacity already being provisioned (counted toward the max bound
    /// so a slow boot cannot trigger runaway scale-up).
    pub fn observe(&mut self, load: f64, units: usize, pending: usize) -> ScaleDecision {
        let total = units + pending;
        if load > self.config.high && total < self.config.max_units {
            self.below = 0;
            self.above += 1;
            if self.above >= self.config.up_ticks.max(1) {
                self.above = 0;
                let step = self
                    .config
                    .units_per_scaleup
                    .max(1)
                    .min(self.config.max_units - total);
                return ScaleDecision::Up(step);
            }
        } else if load < self.config.low && units > self.config.min_units {
            self.above = 0;
            self.below += 1;
            if self.below >= self.config.down_ticks.max(1) {
                self.below = 0;
                return ScaleDecision::Down;
            }
        } else {
            self.above = 0;
            self.below = 0;
        }
        ScaleDecision::Hold
    }
}

// ---------------------------------------------------------------------------
// The shared scale timeline
// ---------------------------------------------------------------------------

/// Which tier a [`ScaleSample`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleTier {
    /// Function-execution VMs (the compute monitor's loop).
    Compute,
    /// Anna storage nodes (the elasticity engine's loop).
    Storage,
}

/// One sample of the autoscaling timeline (Figure 7's series, generalized
/// across tiers).
#[derive(Debug, Clone, Copy)]
pub struct ScaleSample {
    /// The tier this sample describes.
    pub tier: ScaleTier,
    /// Seconds since timeline start (wall clock, scaled time).
    pub at_secs: f64,
    /// Completed work per second since the tier's last sample (invocations
    /// for compute, storage requests for storage).
    pub throughput: f64,
    /// The control signal fed to the scaling loop (average executor
    /// utilization for compute, average per-node heat load for storage).
    pub load: f64,
    /// Units currently allocated (VMs / storage nodes).
    pub units: usize,
    /// Tier detail: executor threads (compute) or replication overrides in
    /// force (storage).
    pub sub_units: usize,
}

/// The shared, append-only timeline both tiers' scaling loops record into.
/// One deployment keeps a single timeline, so compute and storage events
/// interleave in causal order — the combined Figure 7-style series.
#[derive(Debug)]
pub struct ScaleTimeline {
    start: Instant,
    // lock-rank: 60 scale-timeline
    samples: Mutex<Vec<ScaleSample>>,
}

impl Default for ScaleTimeline {
    fn default() -> Self {
        Self {
            // lint: allow(L003): timeline epoch; samples are offsets from it, never compared across runs
            start: Instant::now(),
            samples: Mutex::ranked(60, "scale-timeline", Vec::new()),
        }
    }
}

impl ScaleTimeline {
    /// A fresh timeline starting now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seconds since the timeline started.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Append a sample.
    pub fn record(&self, sample: ScaleSample) {
        self.samples.lock().push(sample);
    }

    /// Every sample recorded so far (both tiers, in record order).
    pub fn samples(&self) -> Vec<ScaleSample> {
        self.samples.lock().clone()
    }

    /// The samples of one tier only.
    pub fn tier_samples(&self, tier: ScaleTier) -> Vec<ScaleSample> {
        self.samples
            .lock()
            .iter()
            .filter(|s| s.tier == tier)
            .copied()
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Storage scaling interface
// ---------------------------------------------------------------------------

/// The storage-tier scaling interface the elasticity engine drives — the
/// storage counterpart of `cloudburst::monitor::ComputeScaler`. Implemented
/// by [`crate::AnnaCluster`], whose add/remove include the key rebalance.
pub trait StorageScaler: Send + Sync + 'static {
    /// Add one storage node (with rebalance onto it); returns its ID.
    fn add_storage_node(&self) -> NodeId;
    /// Gracefully remove a storage node (draining its keys first);
    /// `false` if it no longer exists or refused to drain.
    fn remove_storage_node(&self, node: NodeId) -> bool;
}

// ---------------------------------------------------------------------------
// The elasticity engine
// ---------------------------------------------------------------------------

/// Policy knobs for the closed elasticity loop.
#[derive(Debug, Clone, Copy)]
pub struct ElasticConfig {
    /// Policy evaluation interval, in paper milliseconds.
    pub tick_ms: f64,
    /// Promote a key once its aggregate heat (decayed access counter,
    /// summed across nodes — a steady rate `r` settles at
    /// `r × half_life / ln 2`) crosses this.
    pub promote_heat: f64,
    /// A promoted key whose heat falls below this starts cooling.
    pub demote_heat: f64,
    /// Consecutive cool ticks before a promoted key is demoted (hysteresis:
    /// a single quiet sample must not churn the replica set).
    pub cool_ticks: usize,
    /// Replication factor promoted keys are raised to; `0` means "every
    /// current node" (clamped to the live node count either way).
    pub hot_replication: usize,
    /// Storage-node autoscaling thresholds (the load signal is average
    /// per-node heat load); `None` disables storage scaling and runs the
    /// replication loop only.
    pub scaling: Option<ScalingConfig>,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        Self {
            tick_ms: 250.0,
            promote_heat: 500.0,
            demote_heat: 100.0,
            cool_ticks: 3,
            hot_replication: 0,
            scaling: None,
        }
    }
}

/// Maximum number of concurrent overrides (a runaway-promotion bound).
const MAX_OVERRIDES: usize = 64;

/// Counters describing what the loop has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElasticStats {
    /// Policy ticks evaluated.
    pub ticks: u64,
    /// Keys promoted (override raised).
    pub promotions: u64,
    /// Keys demoted (override cleared after cooling).
    pub demotions: u64,
    /// Storage nodes added by the scaler.
    pub nodes_added: u64,
    /// Storage nodes removed by the scaler.
    pub nodes_removed: u64,
}

#[derive(Debug, Default)]
struct Counters {
    ticks: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
    nodes_added: AtomicU64,
    nodes_removed: AtomicU64,
}

/// Handle to the running elasticity engine (storage tier's closed loop).
pub struct ElasticHandle {
    counters: Arc<Counters>,
    timeline: Arc<ScaleTimeline>,
    handle: ActorHandle,
}

impl ElasticHandle {
    /// Spawn the policy actor on `runtime`. `client` must be a dedicated
    /// client handle (the engine owns its endpoint); `scaler` enables
    /// storage autoscaling when `config.scaling` is set; samples are
    /// appended to `timeline` (pass the compute monitor's timeline to
    /// interleave both tiers).
    pub fn spawn(
        runtime: &Runtime,
        client: AnnaClient,
        scaler: Option<Arc<dyn StorageScaler>>,
        timeline: Arc<ScaleTimeline>,
        config: ElasticConfig,
    ) -> Self {
        let counters = Arc::new(Counters::default());
        let directory = Arc::clone(client.directory());
        let scaling = config.scaling.map(ScalingLoop::new);
        let tick = client
            .network()
            .time_scale()
            .ms(config.tick_ms)
            .max(Duration::from_millis(1));
        let worker = Worker {
            client,
            directory,
            scaler,
            config,
            scaling,
            tick: Cadence::new(tick),
            timeline: Arc::clone(&timeline),
            counters: Arc::clone(&counters),
            cool: KeyMap::default(),
            pending_trims: Vec::new(),
            last_ops: 0.0,
            last_sample: None,
        };
        let handle = runtime.spawn("anna-elastic", worker);
        Self {
            counters,
            timeline,
            handle,
        }
    }

    /// What the loop has done so far.
    pub fn stats(&self) -> ElasticStats {
        ElasticStats {
            ticks: self.counters.ticks.load(Ordering::Relaxed),
            promotions: self.counters.promotions.load(Ordering::Relaxed),
            demotions: self.counters.demotions.load(Ordering::Relaxed),
            nodes_added: self.counters.nodes_added.load(Ordering::Relaxed),
            nodes_removed: self.counters.nodes_removed.load(Ordering::Relaxed),
        }
    }

    /// The timeline this engine records into.
    pub fn timeline(&self) -> Arc<ScaleTimeline> {
        Arc::clone(&self.timeline)
    }

    /// Stop the policy actor.
    pub fn shutdown(&mut self) {
        self.handle.stop();
    }
}

impl Drop for ElasticHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ElasticHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticHandle")
            .field("stats", &self.stats())
            .finish()
    }
}

struct Worker {
    client: AnnaClient,
    directory: Arc<Directory>,
    scaler: Option<Arc<dyn StorageScaler>>,
    config: ElasticConfig,
    scaling: Option<ScalingLoop>,
    /// The policy tick.
    tick: Cadence,
    timeline: Arc<ScaleTimeline>,
    counters: Arc<Counters>,
    /// Consecutive cool ticks per promoted key (the demotion hysteresis).
    cool: KeyMap<usize>,
    /// Stray copies queued for deletion one tick after their demotion, so
    /// the pre-delete `Replicate` flush has a full tick to land first.
    pending_trims: Vec<(Key, Vec<Address>)>,
    last_ops: f64,
    /// When the last rate sample was taken (the first poll, initially).
    last_sample: Option<Instant>,
}

impl Actor for Worker {
    fn poll(&mut self, ctx: &mut ActorCtx<'_>) -> Poll {
        let now = ctx.now();
        self.last_sample.get_or_insert(now);
        if self.tick.due(now) {
            self.evaluate(now);
            // Re-armed after the work, so evaluations stay a full tick apart.
            self.tick.rearm(ctx.now());
        }
        Poll::Idle(Some(self.tick.deadline()))
    }
}

impl Worker {
    fn evaluate(&mut self, now: Instant) {
        self.counters.ticks.fetch_add(1, Ordering::Relaxed);

        // Last tick's demotions flushed their strays; delete them now.
        for (key, strays) in std::mem::take(&mut self.pending_trims) {
            self.client.trim_key_copies(&key, &strays);
        }

        let stats = self.client.cluster_stats_lenient();
        if stats.is_empty() {
            return;
        }
        let nodes = self.directory.node_count();
        if nodes == 0 {
            return;
        }

        // Aggregate the per-node heat reports into one cluster heat map,
        // and — because every report is region-tagged — a per-key,
        // per-region breakdown. Heat lands on the node that served the
        // traffic, and nearest-first reads keep traffic in the reader's
        // region, so the breakdown locates *where* a key is hot.
        let mut heat: KeyMap<f64> = KeyMap::default();
        let mut region_heat: KeyMap<BTreeMap<u16, f64>> = KeyMap::default();
        let mut total_load = 0.0;
        let mut total_ops = 0.0;
        for s in &stats {
            total_load += s.load;
            total_ops += (s.gets_served + s.puts_served) as f64;
            for (key, h) in &s.hot_keys {
                *heat.entry(key.clone()).or_insert(0.0) += h;
                *region_heat
                    .entry(key.clone())
                    .or_default()
                    .entry(s.region)
                    .or_insert(0.0) += h;
            }
        }

        self.promote(&heat, &region_heat, nodes);
        self.demote(&heat);
        self.scale_storage(total_load, &stats);

        // Timeline sample.
        let last = self.last_sample.replace(now).unwrap_or(now);
        let dt = now.duration_since(last).as_secs_f64().max(1e-9);
        let throughput = (total_ops - self.last_ops).max(0.0) / dt;
        self.last_ops = total_ops;
        self.timeline.record(ScaleSample {
            tier: ScaleTier::Storage,
            at_secs: self.timeline.elapsed_secs(),
            throughput,
            load: total_load / nodes as f64,
            units: nodes,
            sub_units: self.directory.override_count(),
        });
    }

    /// Raise the replication of every key hot enough, pushing current
    /// values to the new replicas through the every-holder `Replicate`
    /// path ([`AnnaClient::set_key_replication_in`]). On a multi-region
    /// cluster the override is targeted at the key's hottest region, so
    /// the new copies absorb the load where it is generated instead of
    /// wherever the ring walk happens to land.
    fn promote(
        &mut self,
        heat: &KeyMap<f64>,
        region_heat: &KeyMap<BTreeMap<u16, f64>>,
        nodes: usize,
    ) {
        let target = if self.config.hot_replication == 0 {
            nodes
        } else {
            self.config.hot_replication.min(nodes)
        };
        if target <= self.directory.default_replication() {
            return;
        }
        for (key, &h) in heat {
            if h < self.config.promote_heat {
                continue;
            }
            // `__sys/*` keys are never promoted: metric and inbox keys are
            // written every tick by design and would always look hot.
            if is_system_key(key) {
                continue;
            }
            let already = self.directory.is_overridden(key);
            if !already && self.directory.override_count() >= MAX_OVERRIDES {
                continue;
            }
            if self.directory.effective_replication(key) >= target {
                self.cool.remove(key);
                continue;
            }
            // Target the region generating the most heat (deterministic
            // tie-break: the BTreeMap keeps regions ordered, and a strict
            // `>` keeps the lowest of equally hot regions). Single-region
            // clusters skip the bias — it would be meaningless.
            let hot_region = if self.directory.region_count() > 1 {
                region_heat.get(key).and_then(|by_region| {
                    let mut best: Option<(u16, f64)> = None;
                    for (&region, &h) in by_region {
                        if best.map(|(_, bh)| h > bh).unwrap_or(true) {
                            best = Some((region, h));
                        }
                    }
                    best.map(|(region, _)| region)
                })
            } else {
                None
            };
            // Counters are published before the directory change they
            // count, so an observer that sees the override (or its removal)
            // also sees the stat.
            if !already {
                self.counters.promotions.fetch_add(1, Ordering::Relaxed);
            }
            self.client.set_key_replication_in(key, target, hot_region);
            self.cool.remove(key);
        }
    }

    /// Demote promoted keys that stayed cool for `cool_ticks` consecutive
    /// ticks; the cleared key's strays are flushed now and deleted next
    /// tick ([`AnnaClient::clear_key_replication`]).
    fn demote(&mut self, heat: &KeyMap<f64>) {
        let overridden = self.directory.overrides();
        // Forget cool-down state for keys no longer overridden (demoted by
        // someone else, or cleared manually).
        self.cool
            .retain(|key, _| overridden.iter().any(|(k, _)| k == key));
        for (key, _) in overridden {
            let h = heat.get(&key).copied().unwrap_or(0.0);
            if h >= self.config.demote_heat {
                self.cool.insert(key, 0);
                continue;
            }
            let ticks = self.cool.entry(key.clone()).or_insert(0);
            *ticks += 1;
            if *ticks < self.config.cool_ticks.max(1) {
                continue;
            }
            self.cool.remove(&key);
            self.counters.demotions.fetch_add(1, Ordering::Relaxed);
            let strays = self.client.clear_key_replication(&key);
            if !strays.is_empty() {
                self.pending_trims.push((key, strays));
            }
        }
    }

    /// Drive the storage-node [`ScalingLoop`] on average per-node load;
    /// scale-down removes the least-loaded node (graceful drain).
    fn scale_storage(&mut self, total_load: f64, stats: &[crate::msg::NodeStats]) {
        let (Some(scaling), Some(scaler)) = (self.scaling.as_mut(), self.scaler.as_ref()) else {
            return;
        };
        let nodes = self.directory.node_count();
        let avg_load = total_load / nodes.max(1) as f64;
        match scaling.observe(avg_load, nodes, 0) {
            ScaleDecision::Hold => {}
            ScaleDecision::Up(n) => {
                for _ in 0..n {
                    self.counters.nodes_added.fetch_add(1, Ordering::Relaxed);
                    scaler.add_storage_node();
                }
            }
            ScaleDecision::Down => {
                // Least-loaded reporting node; ties prefer the newest
                // (highest ID) so long-lived nodes keep their warm state.
                let victim = stats
                    .iter()
                    .filter(|s| self.directory.address_of(s.node).is_some())
                    .min_by(|a, b| {
                        a.load
                            .partial_cmp(&b.load)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(b.node.cmp(&a.node))
                    })
                    .map(|s| s.node);
                if let Some(victim) = victim {
                    if scaler.remove_storage_node(victim) {
                        self.counters.nodes_removed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ScalingConfig {
        ScalingConfig {
            high: 0.7,
            low: 0.2,
            min_units: 1,
            max_units: 8,
            units_per_scaleup: 2,
            up_ticks: 1,
            down_ticks: 2,
        }
    }

    #[test]
    fn holds_inside_band() {
        let mut l = ScalingLoop::new(config());
        for _ in 0..10 {
            assert_eq!(l.observe(0.5, 4, 0), ScaleDecision::Hold);
        }
    }

    #[test]
    fn scales_up_by_step_and_respects_max() {
        let mut l = ScalingLoop::new(config());
        assert_eq!(l.observe(0.9, 4, 0), ScaleDecision::Up(2));
        // Near the cap the step shrinks; at the cap it holds.
        assert_eq!(l.observe(0.9, 7, 0), ScaleDecision::Up(1));
        assert_eq!(l.observe(0.9, 8, 0), ScaleDecision::Hold);
    }

    #[test]
    fn pending_counts_toward_the_cap() {
        let mut l = ScalingLoop::new(config());
        assert_eq!(l.observe(0.9, 4, 4), ScaleDecision::Hold);
        assert_eq!(l.observe(0.9, 4, 3), ScaleDecision::Up(1));
    }

    #[test]
    fn scale_down_needs_consecutive_quiet_ticks() {
        let mut l = ScalingLoop::new(config());
        assert_eq!(l.observe(0.1, 4, 0), ScaleDecision::Hold);
        // A busy tick resets the hysteresis.
        assert_eq!(l.observe(0.5, 4, 0), ScaleDecision::Hold);
        assert_eq!(l.observe(0.1, 4, 0), ScaleDecision::Hold);
        assert_eq!(l.observe(0.1, 4, 0), ScaleDecision::Down);
    }

    #[test]
    fn never_shrinks_below_min() {
        let mut l = ScalingLoop::new(config());
        for _ in 0..10 {
            assert_eq!(l.observe(0.0, 1, 0), ScaleDecision::Hold);
        }
    }

    #[test]
    fn up_ticks_hysteresis_defers_scale_up() {
        let mut l = ScalingLoop::new(ScalingConfig {
            up_ticks: 3,
            ..config()
        });
        assert_eq!(l.observe(0.9, 2, 0), ScaleDecision::Hold);
        assert_eq!(l.observe(0.9, 2, 0), ScaleDecision::Hold);
        assert_eq!(l.observe(0.9, 2, 0), ScaleDecision::Up(2));
        // And the streak resets after firing.
        assert_eq!(l.observe(0.9, 4, 0), ScaleDecision::Hold);
    }

    #[test]
    fn timeline_filters_by_tier() {
        let t = ScaleTimeline::new();
        t.record(ScaleSample {
            tier: ScaleTier::Compute,
            at_secs: 0.0,
            throughput: 1.0,
            load: 0.5,
            units: 2,
            sub_units: 6,
        });
        t.record(ScaleSample {
            tier: ScaleTier::Storage,
            at_secs: 0.1,
            throughput: 2.0,
            load: 10.0,
            units: 3,
            sub_units: 1,
        });
        assert_eq!(t.samples().len(), 2);
        assert_eq!(t.tier_samples(ScaleTier::Compute).len(), 1);
        assert_eq!(t.tier_samples(ScaleTier::Storage)[0].units, 3);
    }
}
