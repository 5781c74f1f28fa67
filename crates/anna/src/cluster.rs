//! [`AnnaCluster`]: launching, scaling, crashing, and tearing down a storage
//! cluster, plus the anti-entropy machinery that restores the replication
//! factor after abrupt node loss (paper §4.4–§4.5).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cloudburst_lattice::{Key, KeyMap};
use cloudburst_net::{reply_channel, Endpoint, NetConfig, Network, Site};
use cloudburst_runtime::{Runtime, RuntimeConfig, RuntimeStats};
use parking_lot::Mutex;

use crate::client::AnnaClient;
use crate::directory::Directory;
use crate::lsm::{DiskEnv, FaultDisk, RealDisk};
use crate::msg::StorageRequest;
use crate::node::{NodeConfig, StorageNode};
use crate::ring::NodeId;

/// Whether (and how) storage nodes persist data to a disk tier that
/// survives node restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No durable engine: every key stays in memory (the node's
    /// `memory_capacity_bytes` and `disk_latency` do not apply, nothing
    /// spills and no read is served from disk), and a node restart loses
    /// everything it held. The default.
    #[default]
    Off,
    /// Durable engine over an in-memory fault-injecting env
    /// ([`FaultDisk`]): full WAL/SSTable semantics, scriptable power loss
    /// and torn writes, no real file I/O. What the chaos harness and the
    /// durability tests use.
    InMemory,
    /// Durable engine over real files ([`RealDisk`]) in a temp directory
    /// per node, removed when the cluster's disk registry drops.
    OnDisk,
}

/// Cluster-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct AnnaConfig {
    /// Initial number of storage nodes.
    pub nodes: usize,
    /// Replication factor (`k`-fault tolerance, paper §4.5).
    pub replication: usize,
    /// Number of regions the nodes are spread across (round-robin by node
    /// ID: node `i` lives in region `i % regions`, its endpoint registered
    /// at that [`cloudburst_net::Site`]). With a tiered network config
    /// ([`cloudburst_net::NetConfig::tiers`]) cross-region hops then pay
    /// WAN latency. Default 1 — the historical single-region cluster.
    pub regions: usize,
    /// Whether the directory learns each node's region (default `true`).
    /// When `true` on a multi-region cluster, replica placement spreads
    /// across regions and read plans are nearest-region-first. When
    /// `false`, nodes still *live* at their sites (and pay the tiered
    /// latencies) but every placement decision is region-blind — the
    /// baseline the geo bench compares against.
    pub region_aware: bool,
    /// Disk-tier durability mode (default [`Durability::Off`]).
    pub durability: Durability,
    /// Per-node configuration.
    pub node: NodeConfig,
    /// Fabric configuration (latency models, time scale, seed). Consulted
    /// only by [`AnnaCluster::launch_standalone`], which builds its own
    /// [`Network`] on the cluster's runtime; [`AnnaCluster::launch`] joins
    /// an existing network and ignores this field (the network's own
    /// config governs).
    pub net: NetConfig,
    /// Actor-runtime configuration — worker-pool size (one worker is the
    /// deterministic pool) and steal seed
    /// ([`cloudburst_runtime::RuntimeConfig`]). Consulted by
    /// [`AnnaCluster::launch`] and [`AnnaCluster::launch_standalone`], which
    /// build a runtime the cluster then owns; [`AnnaCluster::launch_on`]
    /// joins an existing runtime and ignores this field.
    pub runtime: RuntimeConfig,
}

impl Default for AnnaConfig {
    fn default() -> Self {
        Self {
            nodes: 3,
            replication: 2,
            regions: 1,
            region_aware: true,
            durability: Durability::Off,
            node: NodeConfig::default(),
            net: NetConfig::default(),
            runtime: RuntimeConfig::default(),
        }
    }
}

fn new_disk(mode: Durability) -> Option<Arc<dyn DiskEnv>> {
    match mode {
        Durability::Off => None,
        Durability::InMemory => Some(FaultDisk::new()),
        Durability::OnDisk => Some(RealDisk::new_temp()),
    }
}

/// The region node `id` lives in: round-robin over `config.regions`.
/// Deterministic in the ID alone, so restarts and power-loss recovery
/// re-register every node at the site it crashed in.
fn node_region(config: &AnnaConfig, id: NodeId) -> u16 {
    (id % config.regions.max(1) as u64) as u16
}

/// Register node `id`'s endpoint at its region's site and enter it into
/// the directory — region-tagged when the cluster is region-aware, tagged
/// region 0 (placement-blind) otherwise. The endpoint *always* registers
/// at the true site: a blind cluster still pays the WAN latencies its
/// placement ignores, which is exactly what the geo baseline measures.
fn register_node(
    net: &Network,
    directory: &Directory,
    config: &AnnaConfig,
    id: NodeId,
) -> Endpoint {
    let region = node_region(config, id);
    let endpoint = net.register_at(Site::region(region));
    let tag = if config.region_aware { region } else { 0 };
    directory.add_node_in(id, endpoint.addr(), tag);
    endpoint
}

/// Why [`AnnaCluster::try_remove_node`] refused to remove a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoveNodeError {
    /// The node is not in the directory.
    UnknownNode,
    /// The victim never acknowledged the drain handoff (dead, wedged, or
    /// timed out). The node was re-inserted into the directory, so every
    /// key still lives on the victim or its handoff targets — nothing is
    /// dropped. For a *reachable* victim a bounded repair pass also ran
    /// (its pushes queue behind the pending drain and restore anything the
    /// partial handoff dropped once the victim catches up; follow up with
    /// [`AnnaCluster::repair_until_replicated`] after it does). For an
    /// *unreachable* victim no repair is attempted — repair cannot push
    /// toward a dead node; call [`AnnaCluster::crash_node`] instead, which
    /// removes it before repairing.
    DrainFailed,
}

impl fmt::Display for RemoveNodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownNode => f.write_str("node is not in the directory"),
            Self::DrainFailed => f.write_str("drain handoff failed; node re-inserted"),
        }
    }
}

impl std::error::Error for RemoveNodeError {}

/// Outcome of a replication audit ([`AnnaCluster::audit_replication`]).
///
/// The audit checks the replication factor of every key *some* node still
/// holds; a key whose every replica died leaves no trace to audit and is
/// invisible here. Detecting total loss needs an external ledger of expected
/// keys — the chaos harness re-reads every acknowledged write for exactly
/// that reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationAudit {
    /// Distinct keys observed across all responding nodes.
    pub keys: usize,
    /// Keys missing from at least one replica the directory assigns them to
    /// (the condition anti-entropy repairs).
    pub under_replicated: usize,
    /// Key copies held by nodes the directory no longer assigns them to
    /// (harmless: they drain on the next rebalance).
    pub strays: usize,
}

impl ReplicationAudit {
    /// Whether every key is present on every replica the directory assigns.
    pub fn is_fully_replicated(&self) -> bool {
        self.under_replicated == 0
    }
}

/// A running Anna cluster: storage-node actors plus the shared directory.
pub struct AnnaCluster {
    net: Network,
    /// The actor runtime the storage nodes poll on.
    runtime: Runtime,
    /// Whether this cluster created `runtime` (and must shut it down);
    /// `false` when launched onto a shared runtime via
    /// [`AnnaCluster::launch_on`].
    owns_runtime: bool,
    directory: Arc<Directory>,
    config: AnnaConfig,
    // lock-rank: 12 anna-nodes
    nodes: Mutex<Vec<StorageNode>>,
    /// Each node's durable disk env, keyed by node ID. The env outlives the
    /// node actor — that is the whole point: [`AnnaCluster::restart_node`]
    /// hands the same env to the replacement node, which recovers from it.
    // lock-rank: 14 anna-disks
    disks: Mutex<HashMap<NodeId, Arc<dyn DiskEnv>>>,
    next_id: AtomicU64,
    control: AnnaClient,
}

impl AnnaCluster {
    /// Build a runtime from `config.runtime` and a [`Network`] from
    /// `config.net` that delivers on it, and launch a cluster on both: one
    /// pool runs the storage nodes and the fabric. Use it for standalone
    /// storage benchmarks and harnesses that do not already own a network.
    /// The cluster owns the runtime, so the returned network stops
    /// delivering once the cluster shuts down.
    pub fn launch_standalone(config: AnnaConfig) -> (Network, Self) {
        let runtime = Runtime::new(config.runtime);
        let net = Network::on(&runtime, config.net);
        let mut cluster = Self::launch_on(&net, &runtime, config);
        cluster.owns_runtime = true;
        (net, cluster)
    }

    /// Launch a cluster onto an existing network, building an actor runtime
    /// from `config.runtime` that the cluster owns. `config.net` is
    /// ignored — the network was already built from its own [`NetConfig`].
    pub fn launch(net: &Network, config: AnnaConfig) -> Self {
        let runtime = Runtime::new(config.runtime);
        let mut cluster = Self::launch_on(net, &runtime, config);
        cluster.owns_runtime = true;
        cluster
    }

    /// Launch a cluster onto an existing network *and* an existing actor
    /// runtime (`config.runtime` is ignored; the runtime's own config
    /// governs). The caller keeps responsibility for shutting the runtime
    /// down — after this cluster's [`AnnaCluster::shutdown`].
    pub fn launch_on(net: &Network, runtime: &Runtime, config: AnnaConfig) -> Self {
        assert!(config.nodes >= 1, "need at least one storage node");
        assert!(
            config.replication >= 1 && config.replication <= config.nodes,
            "replication must be in 1..=nodes"
        );
        let directory = Arc::new(Directory::new(config.replication));
        let mut nodes = Vec::with_capacity(config.nodes);
        let mut disks: HashMap<NodeId, Arc<dyn DiskEnv>> = HashMap::new();
        for id in 0..config.nodes as u64 {
            let endpoint = register_node(net, &directory, &config, id);
            let disk = new_disk(config.durability);
            if let Some(env) = &disk {
                disks.insert(id, Arc::clone(env));
            }
            nodes.push(StorageNode::spawn(
                runtime,
                id,
                endpoint,
                Arc::clone(&directory),
                config.node,
                disk,
            ));
        }
        let control = AnnaClient::new(net, Arc::clone(&directory));
        Self {
            net: net.clone(),
            runtime: runtime.clone(),
            owns_runtime: false,
            directory,
            config,
            nodes: Mutex::ranked(12, "anna-nodes", nodes),
            disks: Mutex::ranked(14, "anna-disks", disks),
            next_id: AtomicU64::new(config.nodes as u64),
            control,
        }
    }

    /// The actor runtime the storage nodes run on.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Snapshot of the actor runtime's activity counters (steals, polls,
    /// injector depth, …) — surfaced through harness summaries.
    pub fn runtime_stats(&self) -> RuntimeStats {
        self.runtime.stats()
    }

    /// The durable disk env behind node `id`, if the cluster runs with
    /// durability on: what the node's storage holds, for inspection
    /// (files and their sizes).
    pub fn disk_env(&self, id: NodeId) -> Option<Arc<dyn DiskEnv>> {
        self.disks.lock().get(&id).cloned()
    }

    /// Get-or-create the durable env for `id` per the configured mode.
    fn disk_for(&self, id: NodeId) -> Option<Arc<dyn DiskEnv>> {
        if self.config.durability == Durability::Off {
            return None;
        }
        let mut disks = self.disks.lock();
        if let Some(env) = disks.get(&id) {
            return Some(Arc::clone(env));
        }
        let env = new_disk(self.config.durability)?;
        disks.insert(id, Arc::clone(&env));
        Some(env)
    }

    /// The shared routing directory.
    pub fn directory(&self) -> Arc<Directory> {
        Arc::clone(&self.directory)
    }

    /// Create a new client handle (region 0).
    pub fn client(&self) -> AnnaClient {
        AnnaClient::new(&self.net, Arc::clone(&self.directory))
    }

    /// Create a client that lives in `region`: its endpoint registers at
    /// that site (tiered latencies apply) and, on a region-aware cluster,
    /// its reads walk same-region replicas first.
    pub fn client_in(&self, region: u16) -> AnnaClient {
        AnnaClient::new_in(&self.net, Arc::clone(&self.directory), region)
    }

    /// Current number of storage nodes.
    pub fn node_count(&self) -> usize {
        self.directory.node_count()
    }

    /// Add a storage node, rebalancing keys onto it. Returns its ID.
    ///
    /// "When a new node is allocated, it reads the relevant data and
    /// metadata from the KVS" (paper §4.4) — here the existing primaries
    /// push the data, which exercises the same redistribution path.
    pub fn add_node(&self) -> NodeId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let endpoint = register_node(&self.net, &self.directory, &self.config, id);
        let disk = self.disk_for(id);
        let node = StorageNode::spawn(
            &self.runtime,
            id,
            endpoint,
            Arc::clone(&self.directory),
            self.config.node,
            disk,
        );
        self.nodes.lock().push(node);
        self.rebalance_all(Some(id));
        id
    }

    /// Restart a storage node: the running worker is cut off the network
    /// abruptly (no drain, no final sync — a crash), and a replacement with
    /// the same ID is spawned over the same durable disk env. The
    /// replacement runs recovery (manifest load + WAL replay) before
    /// serving; with durability off it simply comes back empty. Re-adding
    /// the same ID restores the identical ring layout, so no rebalance is
    /// needed — the node rejoins owning exactly the ranges it owned before.
    pub fn restart_node(&self, id: NodeId) -> bool {
        let Some(old_addr) = self.directory.address_of(id) else {
            return false;
        };
        self.net.kill(old_addr);
        let old = {
            let mut nodes = self.nodes.lock();
            nodes
                .iter()
                .position(|n| n.id == id)
                .map(|pos| nodes.remove(pos))
        };
        if let Some(node) = old {
            // Crash semantics: drop the actor without a final flush or sync,
            // releasing its durable engine *before* the replacement reopens
            // the same env.
            node.stop();
        }
        self.directory.remove_node(id);
        let endpoint = register_node(&self.net, &self.directory, &self.config, id);
        let disk = self.disk_for(id);
        let node = StorageNode::spawn(
            &self.runtime,
            id,
            endpoint,
            Arc::clone(&self.directory),
            self.config.node,
            disk,
        );
        self.nodes.lock().push(node);
        true
    }

    /// Simulate a full-cluster power failure: every node is cut off the
    /// network *simultaneously*, every durable env drops its un-fsynced
    /// state ([`DiskEnv::power_loss`]), and every node restarts from what
    /// its disk actually holds. With durability on, every acknowledged
    /// write survives (the WAL-before-ack contract); with durability off
    /// this is total amnesia.
    pub fn power_loss(&self) {
        let nodes: Vec<StorageNode> = std::mem::take(&mut *self.nodes.lock());
        // Kill first, power-cut second: no in-flight write may reach a
        // durable env after its unsynced state is dropped.
        for node in &nodes {
            self.net.kill(node.addr);
        }
        let ids: Vec<NodeId> = nodes.iter().map(|n| n.id).collect();
        // Stop every actor before cutting power: a poll scheduled after the
        // cut must not sync stale WAL state into the env the replacement is
        // about to recover from.
        for node in &nodes {
            node.stop();
        }
        drop(nodes);
        for env in self.disks.lock().values() {
            env.power_loss();
        }
        for id in ids {
            self.directory.remove_node(id);
            let endpoint = register_node(&self.net, &self.directory, &self.config, id);
            let disk = self.disk_for(id);
            let node = StorageNode::spawn(
                &self.runtime,
                id,
                endpoint,
                Arc::clone(&self.directory),
                self.config.node,
                disk,
            );
            self.nodes.lock().push(node);
        }
    }

    /// Remove a storage node, draining its keys to their new owners first.
    /// Returns `false` (leaving the node in service) if it is unknown or the
    /// drain failed — see [`AnnaCluster::try_remove_node`] for the
    /// distinction.
    pub fn remove_node(&self, id: NodeId) -> bool {
        self.try_remove_node(id).is_ok()
    }

    /// Remove a storage node gracefully. The victim leaves the directory,
    /// drains its keys to their new owners, and shuts down.
    ///
    /// If the victim never acknowledges the drain (dead, wedged, or past the
    /// 30 s timeout), it is re-inserted into the directory and an
    /// anti-entropy pass repairs whatever the partial handoff disturbed —
    /// silently proceeding here would drop every key whose only surviving
    /// copy sat on the victim.
    pub fn try_remove_node(&self, id: NodeId) -> Result<(), RemoveNodeError> {
        let addr = self
            .directory
            .address_of(id)
            .ok_or(RemoveNodeError::UnknownNode)?;
        // New ring without the victim; victim drains against it.
        self.directory.remove_node(id);
        let (ring, replication) = self.directory.ring_snapshot();
        let (reply, waiter) = reply_channel::<()>(&self.net);
        let sent = self.control_send(
            addr,
            StorageRequest::Rebalance {
                ring,
                replication,
                reply: Some(reply),
            },
        );
        let drained = sent && waiter.wait_timeout(Duration::from_secs(30)).is_ok();
        if !drained {
            self.directory.add_node(id, addr);
            if sent {
                // Reachable-but-slow victim: its partial handoff may have
                // dropped local copies — repair pushes (queued behind the
                // still-pending drain) restore them once it catches up.
                let _ = self.repair_until_replicated(4);
            }
            // An unreachable victim can't be repaired *toward*; it needs
            // `crash_node`, which removes it before repairing.
            return Err(RemoveNodeError::DrainFailed);
        }
        let _ = self.control_send(addr, StorageRequest::Shutdown);
        let mut nodes = self.nodes.lock();
        if let Some(pos) = nodes.iter().position(|n| n.id == id) {
            let node = nodes.remove(pos);
            drop(nodes);
            node.join();
        }
        // Surviving primaries re-gossip so replicas stay at full strength.
        self.rebalance_all(None);
        Ok(())
    }

    /// Kill a storage node abruptly (failure injection): its endpoint drops
    /// off the network with no drain — in-flight requests and any state that
    /// never gossiped die with it. The directory forgets the node and the
    /// survivors immediately run an anti-entropy pass to re-replicate its
    /// ranges, which is what keeps a replication-`k` cluster readable
    /// through `k - 1` crashes (paper §4.5).
    pub fn crash_node(&self, id: NodeId) -> bool {
        let Some(addr) = self.directory.address_of(id) else {
            return false;
        };
        self.net.kill(addr);
        self.directory.remove_node(id);
        let victim = {
            let mut nodes = self.nodes.lock();
            nodes
                .iter()
                .position(|n| n.id == id)
                .map(|pos| nodes.remove(pos))
        };
        if let Some(node) = victim {
            // Abrupt drop: no drain, no final sync — whatever never
            // gossiped dies with the actor.
            node.stop();
        }
        self.anti_entropy();
        true
    }

    /// One directory-driven anti-entropy pass: every registered node
    /// recomputes ownership under the current ring and pushes copies of the
    /// keys it owns to their other replicas (the same `Rebalance` →
    /// `GossipBatch` machinery node join/leave uses). Surviving replicas of
    /// a crashed node's ranges thereby seed the ranges' new members until
    /// the replication factor is restored. Handoff deliveries are
    /// asynchronous; [`AnnaCluster::repair_until_replicated`] audits and
    /// repeats until the directory's assignment is fully materialized.
    pub fn anti_entropy(&self) {
        self.rebalance_all(None);
    }

    /// Audit replication: collect every node's stored-key list and check
    /// each key is present on every replica the directory assigns it.
    pub fn audit_replication(&self) -> ReplicationAudit {
        self.audit_with_repair_plan().0
    }

    /// The audit plus, for each under-replicated key, one node that still
    /// holds it — the input to a targeted repair push.
    fn audit_with_repair_plan(&self) -> (ReplicationAudit, Vec<(Key, NodeId)>) {
        let dumps = self.control.key_dump();
        let mut holders: KeyMap<HashSet<NodeId>> = KeyMap::default();
        for (node, keys) in dumps {
            for key in keys {
                holders.entry(key).or_default().insert(node);
            }
        }
        let mut audit = ReplicationAudit {
            keys: holders.len(),
            ..ReplicationAudit::default()
        };
        let mut plan = Vec::new();
        for (key, held_by) in holders {
            let expected: HashSet<NodeId> = self
                .directory
                .replicas(&key)
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            if expected.difference(&held_by).next().is_some() {
                audit.under_replicated += 1;
                // Prefer a holder that is itself an assigned replica.
                if let Some(&holder) = held_by
                    .intersection(&expected)
                    .next()
                    .or_else(|| held_by.iter().next())
                {
                    plan.push((key.clone(), holder));
                }
            }
            audit.strays += held_by.difference(&expected).count();
        }
        (audit, plan)
    }

    /// Repair until an audit reports the replication factor fully restored,
    /// up to `max_rounds`, returning the final audit (callers assert
    /// `is_fully_replicated`) and the number of repair rounds that ran
    /// (`0` = the first audit was already clean). Each round pushes *only*
    /// the under-replicated keys: the audit already knows who still holds
    /// each one, so that holder is asked to [`StorageRequest::Replicate`] it
    /// to its assigned replicas — repeated rounds never re-ship the whole
    /// keyspace the way a full [`AnnaCluster::anti_entropy`] pass does.
    /// Rounds pause briefly so the previous round's asynchronous deliveries
    /// can merge before the next audit races them.
    pub fn repair_until_replicated(&self, max_rounds: usize) -> (ReplicationAudit, usize) {
        for round in 0..max_rounds {
            let (audit, plan) = self.audit_with_repair_plan();
            if audit.is_fully_replicated() {
                return (audit, round);
            }
            for (key, holder) in plan {
                if let Some(addr) = self.directory.address_of(holder) {
                    let _ = self.control_send(addr, StorageRequest::Replicate { key });
                }
            }
            // On a pool worker (the elastic actor's failed-drain fallback)
            // the pause must not hold back the deliveries it waits for.
            cloudburst_runtime::blocking(|| std::thread::sleep(Duration::from_millis(2)));
        }
        (self.audit_replication(), max_rounds)
    }

    /// Raise the replication factor of a hot key and propagate its current
    /// value to the new replicas (selective replication, paper §2.2).
    /// *Every* pre-raise holder is asked to push, not just the primary —
    /// a dead primary must not leave the new replicas empty until
    /// anti-entropy (see [`AnnaClient::set_key_replication`]).
    pub fn set_key_replication(&self, key: &Key, replication: usize) {
        self.control.set_key_replication(key, replication);
    }

    /// Spawn the closed-loop elasticity engine against this cluster: heat
    /// telemetry drives automatic selective replication, and (when
    /// `config.scaling` is set) this cluster is the
    /// [`StorageScaler`](crate::elastic::StorageScaler) whose nodes the
    /// loop adds and removes.
    pub fn spawn_elastic(
        self: &Arc<Self>,
        config: crate::elastic::ElasticConfig,
        timeline: Arc<crate::elastic::ScaleTimeline>,
    ) -> crate::elastic::ElasticHandle {
        let scaler: Arc<dyn crate::elastic::StorageScaler> = Arc::clone(self) as _;
        crate::elastic::ElasticHandle::spawn(
            &self.runtime,
            self.client(),
            Some(scaler),
            timeline,
            config,
        )
    }

    /// Ask every node to recompute ownership (and wait for completion).
    fn rebalance_all(&self, exclude: Option<NodeId>) {
        let (ring, replication) = self.directory.ring_snapshot();
        let mut waiters = Vec::new();
        for (node, addr) in self.directory.nodes() {
            if Some(node) == exclude {
                continue;
            }
            let (reply, waiter) = reply_channel::<()>(&self.net);
            if self.control_send(
                addr,
                StorageRequest::Rebalance {
                    ring: ring.clone(),
                    replication,
                    reply: Some(reply),
                },
            ) {
                waiters.push(waiter);
            }
        }
        for w in waiters {
            let _ = w.wait_timeout(Duration::from_secs(30));
        }
    }

    fn control_send(&self, addr: cloudburst_net::Address, msg: StorageRequest) -> bool {
        self.net.send(self.control.addr(), addr, msg).is_ok()
    }

    /// Shut down all storage nodes (graceful: final gossip flush + WAL
    /// sync), then — if this cluster built its own runtime — stop the
    /// runtime's workers too.
    pub fn shutdown(&self) {
        let nodes: Vec<StorageNode> = std::mem::take(&mut *self.nodes.lock());
        for node in &nodes {
            // Heal before delivering: an endpoint killed directly on the
            // network (failure injection that bypassed `crash_node`) must
            // not leave its actor waiting forever for a `Shutdown` it can
            // never receive.
            self.net.heal(node.addr);
            let _ = self.control_send(node.addr, StorageRequest::Shutdown);
        }
        for node in nodes {
            node.join();
        }
        if self.owns_runtime {
            self.runtime.shutdown();
        }
    }
}

impl crate::elastic::StorageScaler for AnnaCluster {
    fn add_storage_node(&self) -> NodeId {
        self.add_node()
    }

    fn remove_storage_node(&self, node: NodeId) -> bool {
        self.try_remove_node(node).is_ok()
    }
}

impl Drop for AnnaCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for AnnaCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnnaCluster")
            .field("nodes", &self.node_count())
            .field("replication", &self.config.replication)
            .finish()
    }
}
