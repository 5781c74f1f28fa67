//! The monitoring and resource-management engine (paper §4.4).
//!
//! Each executor publishes metrics to Anna; the monitor "asynchronously
//! aggregates these metrics from storage and uses them for its policy
//! engine": pin functions onto more executors when request rates outpace
//! completions, add VMs when CPU utilization exceeds 70 %, and deallocate
//! below 20 %. New VM allocation pays a simulated EC2 spin-up delay, which is
//! what produces the throughput plateaus of Figure 7.
//!
//! The sizing policy itself is one instance of the tier-agnostic
//! [`ScalingLoop`] from `cloudburst_anna::elastic` — the storage tier's
//! autoscaler is the other — and both record into a shared
//! [`ScaleTimeline`], so one deployment has a single interleaved
//! [`ScaleSample`] series across tiers. Scale-down picks the
//! *least-utilized* VM from the latest metrics refresh, never an arbitrary
//! one (killing a loaded VM would re-execute its in-flight DAGs for
//! nothing).
//!
//! The monitor is an actor on the cluster's runtime: its policy tick is a
//! [`Cadence`], and each pending VM boot is a deadline it holds until the
//! boot completes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudburst_anna::elastic::{ScaleDecision, ScalingConfig, ScalingLoop};
pub use cloudburst_anna::elastic::{ScaleSample, ScaleTier, ScaleTimeline};
use cloudburst_anna::metrics as mkeys;
use cloudburst_anna::AnnaClient;
use cloudburst_net::Network;
use cloudburst_runtime::{Actor, ActorCtx, ActorHandle, Cadence, Poll, Runtime};

use crate::scheduler::SchedulerRequest;
use crate::topology::Topology;
use crate::types::VmId;

/// The compute-tier scaling interface the monitor drives. Implemented by
/// `CloudburstCluster` (which actually spawns/retires VM threads). The
/// storage-tier counterpart is `cloudburst_anna::elastic::StorageScaler`;
/// both are driven by the same [`ScalingLoop`].
pub trait ComputeScaler: Send + Sync + 'static {
    /// Allocate one VM (executors + cache) and return its ID.
    fn add_vm(&self) -> VmId;
    /// Deallocate a VM; returns `false` if it no longer exists.
    fn remove_vm(&self, vm: VmId) -> bool;
    /// IDs of currently running VMs.
    fn vm_ids(&self) -> Vec<VmId>;
}

/// Monitor policy configuration (thresholds from §4.4).
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Policy evaluation interval, in paper milliseconds.
    pub tick_ms: f64,
    /// Add nodes above this average utilization (0.7 in the paper).
    pub high_utilization: f64,
    /// Remove nodes below this average utilization (0.2 in the paper).
    pub low_utilization: f64,
    /// Simulated EC2 instance spin-up delay, in paper milliseconds
    /// (≈2.5 min in the paper).
    pub vm_spinup_ms: f64,
    /// VMs added per scale-up decision (the paper adds batches of 20).
    pub vms_per_scaleup: usize,
    /// Lower bound on cluster size.
    pub min_vms: usize,
    /// Upper bound on cluster size.
    pub max_vms: usize,
    /// Pin a lagging DAG's functions onto more executors when the incoming
    /// rate exceeds completions by this factor.
    pub backlog_factor: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            tick_ms: 250.0,
            high_utilization: 0.7,
            low_utilization: 0.2,
            vm_spinup_ms: 150_000.0,
            vms_per_scaleup: 4,
            min_vms: 1,
            max_vms: 64,
            backlog_factor: 1.2,
        }
    }
}

impl MonitorConfig {
    /// This policy as a [`ScalingLoop`] configuration (the generalized
    /// loop shared with the storage tier). The paper's compute policy
    /// reacts on a single out-of-band sample, so both hysteresis widths
    /// are one tick.
    fn scaling(&self) -> ScalingConfig {
        ScalingConfig {
            high: self.high_utilization,
            low: self.low_utilization,
            min_units: self.min_vms,
            max_units: self.max_vms,
            units_per_scaleup: self.vms_per_scaleup,
            up_ticks: 1,
            down_ticks: 1,
        }
    }
}

/// Handle to the running monitor.
pub struct MonitorHandle {
    timeline: Arc<ScaleTimeline>,
    pending_vms: Arc<AtomicU64>,
    handle: ActorHandle,
}

impl MonitorHandle {
    /// Spawn the monitoring engine as an actor on `runtime`, recording its
    /// samples into `timeline` (share one timeline with the storage
    /// elasticity engine to get the combined cross-tier series).
    pub fn spawn(
        runtime: &Runtime,
        net: Network,
        anna: AnnaClient,
        topology: Arc<Topology>,
        scaler: Arc<dyn ComputeScaler>,
        timeline: Arc<ScaleTimeline>,
        config: MonitorConfig,
    ) -> Self {
        let pending_vms = Arc::new(AtomicU64::new(0));
        let tick = net
            .time_scale()
            .ms(config.tick_ms)
            .max(Duration::from_millis(1));
        let worker = Worker {
            net,
            anna,
            topology,
            scaler,
            config,
            scaling: ScalingLoop::new(config.scaling()),
            tick: Cadence::new(tick),
            boots: Vec::new(),
            timeline: Arc::clone(&timeline),
            pending_vms: Arc::clone(&pending_vms),
            last_completed: 0.0,
            last_incoming: 0.0,
            last_sample: None,
        };
        let handle = runtime.spawn("cb-monitor", worker);
        Self {
            timeline,
            pending_vms,
            handle,
        }
    }

    /// The autoscaling timeline collected so far (every tier recording
    /// into the shared timeline; filter on [`ScaleSample::tier`] for one
    /// tier's series).
    pub fn history(&self) -> Vec<ScaleSample> {
        self.timeline.samples()
    }

    /// The shared timeline handle.
    pub fn timeline(&self) -> Arc<ScaleTimeline> {
        Arc::clone(&self.timeline)
    }

    /// VMs currently being spun up (allocated but not yet serving).
    pub fn pending_vms(&self) -> u64 {
        self.pending_vms.load(Ordering::Relaxed)
    }

    /// Stop the monitor. VMs still booting are abandoned with it.
    pub fn shutdown(&mut self) {
        self.handle.stop();
    }
}

impl Drop for MonitorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct Worker {
    net: Network,
    anna: AnnaClient,
    topology: Arc<Topology>,
    scaler: Arc<dyn ComputeScaler>,
    config: MonitorConfig,
    scaling: ScalingLoop,
    /// The policy tick.
    tick: Cadence,
    /// Boot-completion deadlines of the VMs being spun up.
    boots: Vec<Instant>,
    timeline: Arc<ScaleTimeline>,
    /// Mirror of `boots.len()` for [`MonitorHandle::pending_vms`].
    pending_vms: Arc<AtomicU64>,
    last_completed: f64,
    last_incoming: f64,
    /// When the last rate sample was taken (the first poll, initially).
    last_sample: Option<Instant>,
}

impl Actor for Worker {
    fn poll(&mut self, ctx: &mut ActorCtx<'_>) -> Poll {
        let now = ctx.now();
        self.last_sample.get_or_insert(now);
        // VMs whose simulated boot finished join the cluster.
        let booting = self.boots.len();
        self.boots.retain(|&ready| ready > now);
        for _ in self.boots.len()..booting {
            self.scaler.add_vm();
        }
        if self.tick.due(now) {
            self.evaluate(now);
            // Re-armed after the work, so evaluations stay a full tick apart.
            self.tick.rearm(ctx.now());
        }
        self.pending_vms
            .store(self.boots.len() as u64, Ordering::Relaxed);
        let next_boot = self.boots.iter().min().copied();
        let deadline = self.tick.deadline();
        Poll::Idle(Some(next_boot.map_or(deadline, |boot| boot.min(deadline))))
    }
}

impl Worker {
    fn evaluate(&mut self, now: Instant) {
        let executors = self.topology.executors();
        // Aggregate executor metrics from Anna (§4.4), keeping the per-VM
        // breakdown the scale-down victim choice needs.
        let mut total_util = 0.0;
        let mut util_count = 0usize;
        let mut completed_total = 0.0;
        let mut vm_util: HashMap<VmId, (f64, usize)> = HashMap::new();
        for (id, info) in &executors {
            if let Ok(Some(capsule)) = self.anna.get(&mkeys::executor_metrics_key(*id)) {
                for (name, value) in mkeys::decode_metrics(&capsule.read_value()) {
                    match name.as_str() {
                        "utilization" => {
                            total_util += value;
                            util_count += 1;
                            let slot = vm_util.entry(info.vm).or_insert((0.0, 0));
                            slot.0 += value;
                            slot.1 += 1;
                        }
                        "completed" => completed_total += value,
                        _ => {}
                    }
                }
            }
        }
        let avg_util = if util_count == 0 {
            0.0
        } else {
            total_util / util_count as f64
        };

        // Scheduler-side incoming counts.
        let mut incoming_total = 0.0;
        let mut lagging_dags: Vec<String> = Vec::new();
        for sid in 0..self.topology.schedulers().len() as u64 {
            if let Ok(Some(capsule)) = self.anna.get(&mkeys::scheduler_stats_key(sid)) {
                for (name, value) in mkeys::decode_metrics(&capsule.read_value()) {
                    if name == "incoming_total" {
                        incoming_total += value;
                    } else if let Some(dag) = name.strip_prefix("calls:") {
                        lagging_dags.push(dag.to_string());
                    }
                }
            }
        }

        // Timeline sample.
        let last = self.last_sample.replace(now).unwrap_or(now);
        let dt = now.duration_since(last).as_secs_f64().max(1e-9);
        let throughput = (completed_total - self.last_completed).max(0.0) / dt;
        let incoming_rate = (incoming_total - self.last_incoming).max(0.0) / dt;
        self.last_completed = completed_total;
        self.last_incoming = incoming_total;
        self.timeline.record(ScaleSample {
            tier: ScaleTier::Compute,
            at_secs: self.timeline.elapsed_secs(),
            throughput,
            load: avg_util,
            units: self.scaler.vm_ids().len(),
            sub_units: executors.len(),
        });

        // Policy 1: function backlog → pin onto more executors (§4.4).
        if incoming_rate > throughput * self.config.backlog_factor && incoming_rate > 0.0 {
            if let Some(&scheduler) = self.topology.schedulers().first() {
                for dag in lagging_dags {
                    let _ = self.net.send(
                        scheduler,
                        scheduler,
                        SchedulerRequest::PinFunction { function: dag },
                    );
                }
            }
        }

        // Policy 2: cluster sizing on average utilization (§4.4), decided
        // by the generalized scaling loop.
        let vms_now = self.scaler.vm_ids().len();
        match self.scaling.observe(avg_util, vms_now, self.boots.len()) {
            ScaleDecision::Hold => {}
            ScaleDecision::Up(n) => {
                // Allocate after the simulated EC2 boot delay — "we are
                // mostly limited by the high cost of spinning up new EC2
                // instances" (§6.1.4).
                let ready = now + self.net.time_scale().ms(self.config.vm_spinup_ms);
                self.boots.extend(std::iter::repeat_n(ready, n));
            }
            ScaleDecision::Down => {
                let ids = self.scaler.vm_ids();
                if let Some(victim) = least_utilized_vm(&ids, &vm_util) {
                    self.scaler.remove_vm(victim);
                }
            }
        }
    }
}

/// The scale-down victim: the VM with the lowest average executor
/// utilization among those the latest metrics refresh actually *observed*;
/// ties prefer the highest ID (the newest VM, whose caches are coldest).
/// A VM with no metrics this tick is never assumed idle — it may be
/// mid-boot or its metrics read may have transiently failed, and either
/// way killing the one VM we cannot see risks killing the busiest one.
/// Only when no VM reported at all does the choice fall back to the
/// newest. (The seed removed `ids.last()` unconditionally, which could
/// kill a fully loaded VM while an idle one kept running.)
fn least_utilized_vm(ids: &[VmId], vm_util: &HashMap<VmId, (f64, usize)>) -> Option<VmId> {
    let avg = |vm: VmId| -> Option<f64> {
        vm_util
            .get(&vm)
            .filter(|(_, n)| *n > 0)
            .map(|(sum, n)| sum / *n as f64)
    };
    ids.iter()
        .copied()
        .filter(|&vm| avg(vm).is_some())
        .min_by(|&a, &b| {
            avg(a)
                .partial_cmp(&avg(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.cmp(&a))
        })
        .or_else(|| ids.iter().copied().max())
}

impl std::fmt::Debug for MonitorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorHandle")
            .field("samples", &self.timeline.samples().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_anna::Directory;
    use cloudburst_net::NetConfig;
    use cloudburst_runtime::RuntimeConfig;

    /// Counts `add_vm` calls; never owns a VM.
    struct CountingScaler {
        added: Arc<AtomicU64>,
    }

    impl ComputeScaler for CountingScaler {
        fn add_vm(&self) -> VmId {
            self.added.fetch_add(1, Ordering::SeqCst)
        }
        fn remove_vm(&self, _vm: VmId) -> bool {
            false
        }
        fn vm_ids(&self) -> Vec<VmId> {
            Vec::new()
        }
    }

    #[test]
    fn shutdown_abandons_pending_boots_and_releases_the_scaler() {
        // A boot still pending at shutdown must neither complete nor keep
        // the scaler alive: for a cluster the scaler is its whole inner
        // state (network, runtime handle, registry, VMs).
        let net = Network::new(NetConfig::instant());
        let runtime = Runtime::new(RuntimeConfig::default());
        let added = Arc::new(AtomicU64::new(0));
        let scaler = Arc::new(CountingScaler {
            added: Arc::clone(&added),
        });
        let weak = Arc::downgrade(&scaler);
        let mut monitor = MonitorHandle::spawn(
            &runtime,
            net.clone(),
            AnnaClient::new(&net, Arc::new(Directory::new(1))),
            Arc::new(Topology::new()),
            scaler,
            Arc::new(ScaleTimeline::new()),
            MonitorConfig {
                tick_ms: 1.0,
                // Any load is "high": the first tick scales up.
                high_utilization: -1.0,
                vm_spinup_ms: 600_000.0,
                ..MonitorConfig::default()
            },
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while monitor.pending_vms() == 0 {
            assert!(Instant::now() < deadline, "the monitor never scaled up");
            std::thread::sleep(Duration::from_millis(1));
        }
        monitor.shutdown();
        assert!(
            weak.upgrade().is_none(),
            "a pending boot outlived shutdown holding the scaler"
        );
        assert_eq!(added.load(Ordering::SeqCst), 0, "a boot completed");
        runtime.shutdown();
    }

    #[test]
    fn victim_is_least_utilized_not_last() {
        let mut util = HashMap::new();
        util.insert(0, (1.8, 2)); // avg 0.9 — loaded
        util.insert(1, (0.1, 2)); // avg 0.05 — idle
        util.insert(2, (0.8, 2)); // avg 0.4
        assert_eq!(least_utilized_vm(&[0, 1, 2], &util), Some(1));
    }

    #[test]
    fn unobserved_vm_is_never_assumed_idle() {
        let mut util = HashMap::new();
        util.insert(1, (0.1, 2)); // observed idle
                                  // VM 7's metrics read failed this tick — it may be the busiest VM;
                                  // the observed-idle VM is the safe victim.
        assert_eq!(least_utilized_vm(&[1, 7], &util), Some(1));
    }

    #[test]
    fn with_no_metrics_at_all_the_newest_vm_goes() {
        let util = HashMap::new();
        assert_eq!(least_utilized_vm(&[3, 5, 4], &util), Some(5));
    }

    #[test]
    fn observed_ties_prefer_the_newest_vm() {
        let mut util = HashMap::new();
        util.insert(3, (0.2, 2));
        util.insert(5, (0.2, 2));
        assert_eq!(least_utilized_vm(&[3, 5], &util), Some(5));
    }

    #[test]
    fn empty_ids_have_no_victim() {
        assert_eq!(least_utilized_vm(&[], &HashMap::new()), None);
    }
}
