//! [`Topology`]: the deterministic ID→address mapping of the compute tier.
//!
//! The paper's executors "use a deterministic mapping to convert from the
//! thread's unique ID to an IP-port pair" (§3) and advertise IDs through
//! well-known KVS keys. This shared view plays that role for executors,
//! caches, and schedulers; it is kept by the cluster manager and read by all
//! components (the authoritative copies also live in Anna under
//! `__sys/executor/*/addr` keys).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use cloudburst_net::Address;
use parking_lot::RwLock;

use crate::types::{ExecutorId, VmId};

/// Where one executor thread lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorInfo {
    /// The executor's message address.
    pub addr: Address,
    /// The VM hosting it (shared cache).
    pub vm: VmId,
    /// The region the hosting VM is deployed in (matches the network site
    /// its endpoints are registered at). Schedulers use this to keep DAG
    /// placement in the caller's region when data locality does not decide.
    pub region: u16,
}

#[derive(Debug, Default)]
struct Inner {
    executors: HashMap<ExecutorId, ExecutorInfo>,
    caches: HashMap<VmId, Address>,
    schedulers: Vec<Address>,
}

/// Shared compute-tier membership.
#[derive(Debug)]
pub struct Topology {
    // lock-rank: 20 cb-topology
    inner: RwLock<Inner>,
    /// Membership epoch, bumped on every add/remove. Cached scheduling
    /// decisions (the scheduler's plan cache) are validated against this so
    /// a crash or scale event immediately invalidates every plan that might
    /// reference a departed executor or cache.
    epoch: AtomicU64,
}

impl Default for Topology {
    fn default() -> Self {
        Self {
            inner: RwLock::ranked(20, "cb-topology", Inner::default()),
            epoch: AtomicU64::new(0),
        }
    }
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current membership epoch. Any executor/cache/scheduler change
    /// bumps it; equal epochs guarantee the member set is unchanged.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Register an executor thread.
    pub fn add_executor(&self, id: ExecutorId, addr: Address, vm: VmId, region: u16) {
        self.inner
            .write()
            .executors
            .insert(id, ExecutorInfo { addr, vm, region });
        self.bump_epoch();
    }

    /// Deregister an executor thread.
    pub fn remove_executor(&self, id: ExecutorId) {
        self.inner.write().executors.remove(&id);
        self.bump_epoch();
    }

    /// Resolve an executor's location.
    pub fn executor(&self, id: ExecutorId) -> Option<ExecutorInfo> {
        self.inner.read().executors.get(&id).copied()
    }

    /// All executors, sorted by ID.
    pub fn executors(&self) -> Vec<(ExecutorId, ExecutorInfo)> {
        let mut v: Vec<_> = self
            .inner
            .read()
            .executors
            .iter()
            .map(|(&id, &info)| (id, info))
            .collect();
        v.sort_unstable_by_key(|&(id, _)| id);
        v
    }

    /// Number of registered executors.
    pub fn executor_count(&self) -> usize {
        self.inner.read().executors.len()
    }

    /// Register a VM's cache server.
    pub fn add_cache(&self, vm: VmId, addr: Address) {
        self.inner.write().caches.insert(vm, addr);
        self.bump_epoch();
    }

    /// Deregister a VM's cache server.
    pub fn remove_cache(&self, vm: VmId) {
        self.inner.write().caches.remove(&vm);
        self.bump_epoch();
    }

    /// The cache server address of a VM.
    pub fn cache_of(&self, vm: VmId) -> Option<Address> {
        self.inner.read().caches.get(&vm).copied()
    }

    /// All cache servers.
    pub fn caches(&self) -> Vec<(VmId, Address)> {
        let mut v: Vec<_> = self
            .inner
            .read()
            .caches
            .iter()
            .map(|(&vm, &a)| (vm, a))
            .collect();
        v.sort_unstable_by_key(|&(vm, _)| vm);
        v
    }

    /// Register a scheduler.
    pub fn add_scheduler(&self, addr: Address) {
        self.inner.write().schedulers.push(addr);
        self.bump_epoch();
    }

    /// All schedulers (requests are spread across them by the client, which
    /// stands in for the stateless cloud load balancer of §4).
    pub fn schedulers(&self) -> Vec<Address> {
        self.inner.read().schedulers.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_net::{NetConfig, Network};

    fn addr(net: &Network) -> Address {
        let ep = net.register();
        let a = ep.addr();
        std::mem::forget(ep);
        a
    }

    #[test]
    fn executor_lifecycle() {
        let net = Network::new(NetConfig::instant());
        let topo = Topology::new();
        let a = addr(&net);
        topo.add_executor(5, a, 2, 1);
        assert_eq!(
            topo.executor(5),
            Some(ExecutorInfo {
                addr: a,
                vm: 2,
                region: 1
            })
        );
        assert_eq!(topo.executor_count(), 1);
        topo.remove_executor(5);
        assert!(topo.executor(5).is_none());
    }

    #[test]
    fn caches_and_schedulers() {
        let net = Network::new(NetConfig::instant());
        let topo = Topology::new();
        let (c1, s1) = (addr(&net), addr(&net));
        topo.add_cache(1, c1);
        topo.add_scheduler(s1);
        assert_eq!(topo.cache_of(1), Some(c1));
        assert_eq!(topo.caches(), vec![(1, c1)]);
        assert_eq!(topo.schedulers(), vec![s1]);
        topo.remove_cache(1);
        assert!(topo.cache_of(1).is_none());
    }

    #[test]
    fn epoch_bumps_on_every_membership_change() {
        let net = Network::new(NetConfig::instant());
        let topo = Topology::new();
        let e0 = topo.epoch();
        topo.add_executor(1, addr(&net), 0, 0);
        let e1 = topo.epoch();
        assert!(e1 > e0);
        topo.add_cache(0, addr(&net));
        let e2 = topo.epoch();
        assert!(e2 > e1);
        topo.remove_executor(1);
        let e3 = topo.epoch();
        assert!(e3 > e2);
        topo.remove_cache(0);
        assert!(topo.epoch() > e3);
    }

    #[test]
    fn executors_sorted() {
        let net = Network::new(NetConfig::instant());
        let topo = Topology::new();
        for id in [3u64, 1, 2] {
            topo.add_executor(id, addr(&net), 0, 0);
        }
        let ids: Vec<u64> = topo.executors().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }
}
