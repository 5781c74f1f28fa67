//! [`CloudburstCluster`]: assembling the full system in-process.
//!
//! One cluster = an Anna storage tier + `vms` function-execution VMs (each a
//! co-located cache plus `executors_per_vm` executor threads) + schedulers +
//! the optional monitoring/autoscaling engine, all attached to one simulated
//! network (paper Figure 3).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cloudburst_anna::elastic::ScaleTimeline;
use cloudburst_anna::metrics as mkeys;
use cloudburst_anna::{AnnaClient, AnnaCluster, AnnaConfig};
use cloudburst_net::{NetConfig, Network, Site};
use cloudburst_runtime::{Runtime as ActorRuntime, RuntimeConfig, RuntimeStats};
use parking_lot::Mutex;

use crate::cache::{CacheConfig, VmCache};
use crate::client::CloudburstClient;
use crate::consistency::anomaly::TraceSink;
use crate::executor::{ExecutorConfig, ExecutorHandle, ExecutorRequest};
use crate::function::FunctionRegistry;
use crate::monitor::{ComputeScaler, MonitorConfig, MonitorHandle};
use crate::scheduler::{SchedulerConfig, SchedulerHandle, SchedulerRequest};
use crate::topology::Topology;
use crate::types::{ConsistencyLevel, VmId};

/// Full-cluster configuration.
#[derive(Debug, Clone)]
pub struct CloudburstConfig {
    /// Simulated-network parameters, including the delivery-runtime knobs:
    /// `net.deterministic` pins the whole cluster's fabric to the
    /// single-threaded replayable mode, `net.delivery_threads` sizes the
    /// sharded dispatcher pool otherwise.
    pub net: NetConfig,
    /// Anna storage-tier parameters. `anna.net` is ignored here — the
    /// cluster's single fabric is built from `net` above. `anna.runtime` is
    /// likewise ignored: both tiers' actors share the one pool sized by
    /// `runtime` below.
    pub anna: AnnaConfig,
    /// Actor-runtime parameters for the shared worker pool that runs every
    /// storage node, executor, cache server, and scheduler.
    /// `CB_DETERMINISTIC=1` forces the deterministic mode at launch.
    pub runtime: RuntimeConfig,
    /// Initial number of function-execution VMs.
    pub vms: usize,
    /// Executor threads per VM ("3 cores for Python execution and 1 for the
    /// cache", §6).
    pub executors_per_vm: usize,
    /// Number of schedulers.
    pub schedulers: usize,
    /// Deployment consistency level (§5).
    pub level: ConsistencyLevel,
    /// Cache parameters.
    pub cache: CacheConfig,
    /// Executor parameters.
    // lint: allow(L008): the benchmark reads `executor.metrics_interval_ms` through it to pin that cadence at the default
    pub executor: ExecutorConfig,
    /// Scheduler parameters.
    pub scheduler: SchedulerConfig,
    /// Monitor/autoscaler parameters; `None` disables autoscaling.
    pub monitor: Option<MonitorConfig>,
    /// Anomaly trace sink (Table 2 experiments).
    pub trace: Option<TraceSink>,
}

impl Default for CloudburstConfig {
    fn default() -> Self {
        Self {
            net: NetConfig::default(),
            anna: AnnaConfig::default(),
            runtime: RuntimeConfig::default(),
            vms: 2,
            executors_per_vm: 3,
            schedulers: 1,
            level: ConsistencyLevel::Lww,
            cache: CacheConfig::default(),
            executor: ExecutorConfig::default(),
            scheduler: SchedulerConfig::default(),
            monitor: None,
            trace: None,
        }
    }
}

impl CloudburstConfig {
    /// A minimal, latency-free configuration for logic tests.
    pub fn instant() -> Self {
        Self {
            net: NetConfig::instant(),
            anna: AnnaConfig {
                nodes: 2,
                replication: 1,
                durability: cloudburst_anna::Durability::Off,
                ..AnnaConfig::default()
            },
            ..Self::default()
        }
    }
}

struct VmHandle {
    cache: VmCache,
    executors: Vec<ExecutorHandle>,
    /// Addresses of the KVS client endpoints the cache and executors write
    /// through. A VM crash must kill these too, or the "dead" VM would keep
    /// publishing metrics and flushing writes into Anna.
    kvs_addrs: Vec<cloudburst_net::Address>,
}

struct ClusterInner {
    net: Network,
    /// The shared actor runtime both tiers' event-loop actors run on.
    runtime: ActorRuntime,
    anna_directory: Arc<cloudburst_anna::Directory>,
    topology: Arc<Topology>,
    registry: FunctionRegistry,
    level: ConsistencyLevel,
    cache_config: CacheConfig,
    executor_config: ExecutorConfig,
    trace: Option<TraceSink>,
    // lock-rank: 10 cb-vms
    vms: Mutex<HashMap<VmId, VmHandle>>,
    next_vm: AtomicU64,
    next_executor: AtomicU64,
    executors_per_vm: usize,
    /// Regions the compute tier spans (mirrors `AnnaConfig::regions` — one
    /// deployment, one region set). VMs are placed round-robin by VM id, so
    /// a VM keeps its region across monitor-driven churn.
    regions: usize,
}

impl ClusterInner {
    fn anna_client(&self) -> AnnaClient {
        AnnaClient::new(&self.net, Arc::clone(&self.anna_directory))
    }

    fn anna_client_in(&self, region: u16) -> AnnaClient {
        AnnaClient::new_in(&self.net, Arc::clone(&self.anna_directory), region)
    }

    /// The region a VM is deployed in: round-robin by id, like storage
    /// nodes, so compute capacity spreads evenly across the region set.
    fn vm_region(&self, vm: VmId) -> u16 {
        (vm % self.regions.max(1) as u64) as u16
    }

    fn spawn_vm(&self) -> VmId {
        let vm = self.next_vm.fetch_add(1, Ordering::Relaxed);
        let region = self.vm_region(vm);
        let mut kvs_addrs = Vec::with_capacity(self.executors_per_vm + 1);
        // The VM's cache reads/writes Anna through a region-tagged client,
        // so cache fills walk same-region storage replicas first.
        let cache_anna = self.anna_client_in(region);
        kvs_addrs.push(cache_anna.addr());
        let cache = VmCache::spawn(
            &self.runtime,
            vm,
            &self.net,
            cache_anna,
            Arc::clone(&self.topology),
            self.level,
            self.cache_config,
        );
        self.topology.add_cache(vm, cache.addr());
        let cache_inner = cache.inner();
        let mut executors = Vec::with_capacity(self.executors_per_vm);
        for _ in 0..self.executors_per_vm {
            let id = self.next_executor.fetch_add(1, Ordering::Relaxed);
            let endpoint = self.net.register_at(Site::region(region));
            let addr = endpoint.addr();
            let exec_anna = self.anna_client_in(region);
            kvs_addrs.push(exec_anna.addr());
            let handle = ExecutorHandle::spawn(
                &self.runtime,
                id,
                vm,
                endpoint,
                Arc::clone(&cache_inner),
                self.registry.clone(),
                Arc::clone(&self.topology),
                exec_anna,
                self.executor_config,
                self.trace.clone(),
            );
            self.topology.add_executor(id, addr, vm, region);
            executors.push(handle);
        }
        self.vms.lock().insert(
            vm,
            VmHandle {
                cache,
                executors,
                kvs_addrs,
            },
        );
        vm
    }

    fn retire_vm(&self, vm: VmId) -> bool {
        let Some(mut handle) = self.vms.lock().remove(&vm) else {
            return false;
        };
        for exec in &handle.executors {
            self.topology.remove_executor(exec.id);
            let _ = self
                .net
                .send(exec.addr, exec.addr, ExecutorRequest::Shutdown);
        }
        self.topology.remove_cache(vm);
        let cache_addr = handle.cache.addr();
        let _ = self.anna_client().unregister_cache(cache_addr);
        let exec_ids: Vec<u64> = handle.executors.iter().map(|e| e.id).collect();
        for exec in handle.executors.drain(..) {
            exec.join();
        }
        handle.cache.shutdown();
        // After the join: the threads can no longer re-publish behind the
        // prune's back.
        self.prune_executor_metrics(&exec_ids);
        true
    }

    /// Drop a removed executor's metric keys from the KVS so schedulers and
    /// the monitor cannot keep acting on a dead executor's last published
    /// load after a topology change. (Schedulers additionally prune their
    /// in-memory view against the topology every refresh tick, which covers
    /// any stale write that still lands after this.)
    fn prune_executor_metrics(&self, executors: &[u64]) {
        let client = self.anna_client();
        for &id in executors {
            for key in [
                mkeys::executor_metrics_key(id),
                mkeys::executor_functions_key(id),
                mkeys::executor_address_key(id),
            ] {
                let _ = client.delete(&key);
            }
        }
    }
}

impl ComputeScaler for ClusterInner {
    fn add_vm(&self) -> VmId {
        self.spawn_vm()
    }

    fn remove_vm(&self, vm: VmId) -> bool {
        self.retire_vm(vm)
    }

    fn vm_ids(&self) -> Vec<VmId> {
        let mut ids: Vec<VmId> = self.vms.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// A running Cloudburst deployment.
pub struct CloudburstCluster {
    net: Network,
    anna: Arc<AnnaCluster>,
    inner: Arc<ClusterInner>,
    schedulers: Vec<SchedulerHandle>,
    monitor: Option<MonitorHandle>,
    level: ConsistencyLevel,
}

impl CloudburstCluster {
    /// Launch a cluster.
    pub fn launch(config: CloudburstConfig) -> Self {
        let net = Network::new(config.net);
        // One pool for both tiers: storage nodes, executors, cache servers,
        // and schedulers all share these workers, so total thread count is
        // bounded by the pool size, not by actor count.
        let runtime = ActorRuntime::new(config.runtime);
        let anna = Arc::new(AnnaCluster::launch_on(&net, &runtime, config.anna));
        let topology = Arc::new(Topology::new());
        let registry = FunctionRegistry::new();
        let inner = Arc::new(ClusterInner {
            net: net.clone(),
            runtime: runtime.clone(),
            anna_directory: anna.directory(),
            topology: Arc::clone(&topology),
            registry: registry.clone(),
            level: config.level,
            cache_config: config.cache,
            executor_config: config.executor,
            trace: config.trace.clone(),
            vms: Mutex::ranked(10, "cb-vms", HashMap::new()),
            next_vm: AtomicU64::new(0),
            next_executor: AtomicU64::new(0),
            executors_per_vm: config.executors_per_vm.max(1),
            regions: config.anna.regions.max(1),
        });
        let mut schedulers = Vec::with_capacity(config.schedulers.max(1));
        for sid in 0..config.schedulers.max(1) as u64 {
            // Schedulers spread round-robin across the region set too, so
            // every region has a nearby entry point when there are enough.
            let endpoint = net.register_at(Site::region((sid % inner.regions as u64) as u16));
            schedulers.push(SchedulerHandle::spawn(
                &runtime,
                sid,
                endpoint,
                Arc::clone(&topology),
                inner.anna_client(),
                config.level,
                config.scheduler,
                config.trace.is_some(),
            ));
        }
        for _ in 0..config.vms.max(1) {
            inner.spawn_vm();
        }
        let monitor = config.monitor.map(|mcfg| {
            MonitorHandle::spawn(
                &runtime,
                net.clone(),
                inner.anna_client(),
                Arc::clone(&topology),
                Arc::clone(&inner) as Arc<dyn ComputeScaler>,
                Arc::new(ScaleTimeline::new()),
                mcfg,
            )
        });
        Self {
            net,
            anna,
            inner,
            schedulers,
            monitor,
            level: config.level,
        }
    }

    /// The simulated network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The storage tier.
    pub fn anna(&self) -> &AnnaCluster {
        &self.anna
    }

    /// The compute-tier topology.
    pub fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.inner.topology)
    }

    /// The function registry (bodies live here; metadata in Anna).
    pub fn registry(&self) -> FunctionRegistry {
        self.inner.registry.clone()
    }

    /// The deployment consistency level.
    pub fn level(&self) -> ConsistencyLevel {
        self.level
    }

    /// Create a client handle (region 0).
    pub fn client(&self) -> CloudburstClient {
        self.client_in(0)
    }

    /// Create a client handle homed in `region`: its KVS reads walk local
    /// replicas first and its DAG calls prefer executors in that region.
    pub fn client_in(&self, region: u16) -> CloudburstClient {
        CloudburstClient::new(
            &self.net,
            self.inner.anna_client_in(region),
            self.inner.registry.clone(),
            Arc::clone(&self.inner.topology),
            self.level,
        )
    }

    /// The monitor handle (if autoscaling is enabled).
    pub fn monitor(&self) -> Option<&MonitorHandle> {
        self.monitor.as_ref()
    }

    /// The shared actor runtime both tiers run on.
    pub fn runtime(&self) -> &ActorRuntime {
        &self.inner.runtime
    }

    /// Snapshot of the shared runtime's scheduler statistics.
    pub fn runtime_stats(&self) -> RuntimeStats {
        self.inner.runtime.stats()
    }

    /// Current VM count.
    pub fn vm_count(&self) -> usize {
        self.inner.vms.lock().len()
    }

    /// Current executor-thread count.
    pub fn executor_count(&self) -> usize {
        self.inner.topology.executor_count()
    }

    /// Manually add a VM (the monitor does this automatically when enabled).
    pub fn add_vm(&self) -> VmId {
        self.inner.spawn_vm()
    }

    /// Manually remove a VM.
    pub fn remove_vm(&self, vm: VmId) -> bool {
        self.inner.retire_vm(vm)
    }

    /// Kill a VM abruptly (failure injection): executors and cache drop off
    /// the network without draining — DAGs running there must be re-executed
    /// by the scheduler timeout (§4.5).
    pub fn crash_vm(&self, vm: VmId) -> bool {
        let Some(handle) = self.inner.vms.lock().remove(&vm) else {
            return false;
        };
        for exec in &handle.executors {
            self.net.kill(exec.addr);
            self.inner.topology.remove_executor(exec.id);
        }
        self.net.kill(handle.cache.addr());
        for &kvs_addr in &handle.kvs_addrs {
            self.net.kill(kvs_addr);
        }
        self.inner.topology.remove_cache(vm);
        // The kill blocks the dead executors' sends, so their last published
        // load cannot resurface after this prune — without it, metric
        // consumers that miss a topology refresh could keep routing work at
        // executors that no longer exist.
        let exec_ids: Vec<u64> = handle.executors.iter().map(|e| e.id).collect();
        self.inner.prune_executor_metrics(&exec_ids);
        // Crash-stop the actors: their state is dropped without draining
        // mailboxes or flushing write-behind buffers (the seed leaked the
        // VM's threads until cluster shutdown instead — with a shared pool
        // the actors must be reaped, not abandoned).
        for exec in &handle.executors {
            exec.stop();
        }
        handle.cache.stop();
        true
    }

    /// IDs of the currently running VMs (chaos/failure injection picks its
    /// victims from this list).
    pub fn vm_ids(&self) -> Vec<VmId> {
        let mut ids: Vec<VmId> = self.inner.vms.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Shut everything down in dependency order.
    pub fn shutdown(&mut self) {
        if let Some(mut monitor) = self.monitor.take() {
            monitor.shutdown();
        }
        for scheduler in self.schedulers.drain(..) {
            let _ = self
                .net
                .send(scheduler.addr, scheduler.addr, SchedulerRequest::Shutdown);
            scheduler.join();
        }
        let vm_ids: Vec<VmId> = self.inner.vms.lock().keys().copied().collect();
        for vm in vm_ids {
            self.inner.retire_vm(vm);
        }
        self.anna.shutdown();
        // Every actor is dead; stop the shared pool's workers last.
        self.inner.runtime.shutdown();
    }
}

impl Drop for CloudburstCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for CloudburstCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudburstCluster")
            .field("vms", &self.vm_count())
            .field("executors", &self.executor_count())
            .field("level", &self.level)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagSpec;
    use bytes::Bytes;
    use cloudburst_lattice::Key;

    /// 1 000 two-node DAG calls whose functions write through `rt.put`.
    fn run_writing_dags(level: ConsistencyLevel) -> CloudburstCluster {
        let cluster = CloudburstCluster::launch(CloudburstConfig {
            level,
            ..CloudburstConfig::instant()
        });
        let client = cluster.client();
        client
            .register_function("write", |rt, _args| {
                rt.put(&Key::new("completion-path"), Bytes::from_static(b"v"));
                Ok(Bytes::new())
            })
            .unwrap();
        client
            .register_dag(DagSpec::linear("writes", &["write", "write"]))
            .unwrap();
        for _ in 0..1000 {
            let result = client.call_dag("writes", HashMap::new()).unwrap();
            assert!(result.is_ok(), "{result:?}");
        }
        cluster
    }

    fn caches(cluster: &CloudburstCluster) -> Vec<Arc<crate::cache::CacheInner>> {
        let vms = cluster.inner.vms.lock();
        vms.values().map(|vm| vm.cache.inner()).collect()
    }

    #[test]
    fn lww_completion_sends_no_session_complete_and_keeps_no_snapshots() {
        // Snapshots are read only at the levels that ship session metadata;
        // at LWW a write must not leave one behind, and the completion path
        // must not pay a message per involved cache to evict nothing.
        let cluster = run_writing_dags(ConsistencyLevel::Lww);
        for cache in caches(&cluster) {
            assert_eq!(cache.snapshot_sessions(), 0);
            assert_eq!(cache.stats.session_completes.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn single_calls_keep_no_snapshots() {
        // A single call is a session with no successor and no completion
        // notice, so it must never take a version snapshot: reads and
        // writes alike stay in its read log.
        let cluster = CloudburstCluster::launch(CloudburstConfig {
            level: ConsistencyLevel::DistributedSessionCausal,
            ..CloudburstConfig::instant()
        });
        let client = cluster.client();
        client.put("single/a", Bytes::from_static(b"a")).unwrap();
        client
            .register_function("read_write", |rt, _args| {
                let a = rt.get(&Key::new("single/a")).unwrap_or_default();
                rt.put(&Key::new("single/b"), a);
                Ok(rt.get(&Key::new("single/b")).unwrap_or_default())
            })
            .unwrap();
        for _ in 0..200 {
            let result = client.call_function("read_write", Vec::new()).unwrap();
            assert_eq!(result.unwrap().as_ref(), b"a");
        }
        for cache in caches(&cluster) {
            assert_eq!(cache.snapshot_sessions(), 0);
        }
    }

    #[test]
    fn repeatable_read_completion_still_evicts_snapshots() {
        let cluster = run_writing_dags(ConsistencyLevel::RepeatableRead);
        let caches = caches(&cluster);
        let completes = || -> u64 {
            caches
                .iter()
                .map(|c| c.stats.session_completes.load(Ordering::Relaxed))
                .sum()
        };
        // One notice per involved cache per call, delivered asynchronously.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while completes() < 1000 || caches.iter().any(|c| c.snapshot_sessions() > 0) {
            assert!(
                std::time::Instant::now() < deadline,
                "{} notices handled, snapshots not drained",
                completes()
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
}
