//! [`Directory`]: the shared cluster membership and routing view.
//!
//! Real Anna runs a routing tier that proxies key lookups to the right
//! storage nodes. In this in-process reproduction the routing tier is
//! collapsed into a shared `Directory` that clients and nodes consult
//! directly — same information, one fewer simulated hop (noted in
//! DESIGN.md §2). It also tracks per-key replication overrides used for
//! hot-key selective replication (paper §2.2).

use std::collections::HashMap;

use cloudburst_lattice::{Key, KeyMap};
use cloudburst_net::Address;
use parking_lot::RwLock;

use crate::ring::{HashRing, NodeId};

/// A hot-key replication override: the raised factor plus (optionally) the
/// region whose traffic earned it, which biases where the extra copies land.
#[derive(Debug, Clone, Copy)]
struct Override {
    replication: usize,
    region: Option<u16>,
}

#[derive(Debug)]
struct Inner {
    ring: HashRing,
    addrs: HashMap<NodeId, Address>,
    default_replication: usize,
    overrides: KeyMap<Override>,
}

impl Inner {
    /// The placement for `key`: its replica list in **placement order**
    /// (primary first, region-diverse walk, override bias applied) plus
    /// whether an override is in force. The single source of truth — the
    /// read plan reorders this same set, never a different one.
    fn placement(&self, key: &Key) -> (Vec<(NodeId, Address)>, bool) {
        let over = self.overrides.get(key).copied();
        let replication = over
            .map(|o| o.replication)
            .unwrap_or(self.default_replication)
            .max(self.default_replication);
        let prefer = over.and_then(|o| o.region);
        let replicas = self
            .ring
            .replicas_at(key.hash(), replication, prefer)
            .into_iter()
            .filter_map(|n| self.addrs.get(&n).map(|&a| (n, a)))
            .collect();
        (replicas, over.is_some())
    }
}

/// The ordered plan for reading one key from a given region: the same
/// replica set the directory assigns for writes, reordered nearest-first.
#[derive(Debug, Clone)]
pub struct ReadPlan {
    /// Replicas with the viewer's in-region nodes first (placement order
    /// preserved within each group).
    pub replicas: Vec<(NodeId, Address)>,
    /// How many leading entries are in the viewer's region. When the
    /// viewer's region holds no replica (or the ring is single-region)
    /// this equals `replicas.len()` — every choice is equally (non-)local,
    /// so spread rotation uses the whole list exactly as it always has.
    pub local: usize,
    /// Whether a hot-key override was in force (decides read spreading).
    pub overridden: bool,
}

/// Shared membership/routing state for one Anna cluster.
#[derive(Debug)]
pub struct Directory {
    // lock-rank: 24 anna-directory
    inner: RwLock<Inner>,
}

impl Directory {
    /// Create a directory with the given default replication factor.
    pub fn new(default_replication: usize) -> Self {
        assert!(default_replication >= 1, "replication factor must be ≥ 1");
        Self {
            inner: RwLock::ranked(
                24,
                "anna-directory",
                Inner {
                    ring: HashRing::new(),
                    addrs: HashMap::new(),
                    default_replication,
                    overrides: KeyMap::default(),
                },
            ),
        }
    }

    /// Register a storage node in region 0.
    pub fn add_node(&self, node: NodeId, addr: Address) {
        self.add_node_in(node, addr, 0);
    }

    /// Register a storage node in a region. On a multi-region directory the
    /// ring walk spreads each key's replicas across regions and read plans
    /// order the viewer's region first (see [`Directory::read_plan`]).
    pub fn add_node_in(&self, node: NodeId, addr: Address, region: u16) {
        let mut inner = self.inner.write();
        inner.ring.add_node_in(node, region);
        inner.addrs.insert(node, addr);
    }

    /// The region a node registered in (0 if unknown or untagged).
    pub fn region_of(&self, node: NodeId) -> u16 {
        self.inner.read().ring.region_of(node)
    }

    /// Number of distinct regions with registered nodes.
    pub fn region_count(&self) -> usize {
        self.inner.read().ring.region_count()
    }

    /// Deregister a storage node.
    pub fn remove_node(&self, node: NodeId) {
        let mut inner = self.inner.write();
        inner.ring.remove_node(node);
        inner.addrs.remove(&node);
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.inner.read().ring.len()
    }

    /// All `(node, address)` pairs, sorted by node ID.
    pub fn nodes(&self) -> Vec<(NodeId, Address)> {
        let inner = self.inner.read();
        let mut nodes: Vec<(NodeId, Address)> = inner
            .ring
            .nodes()
            .into_iter()
            .filter_map(|n| inner.addrs.get(&n).map(|&a| (n, a)))
            .collect();
        nodes.sort_unstable_by_key(|&(n, _)| n);
        nodes
    }

    /// The default replication factor.
    pub fn default_replication(&self) -> usize {
        self.inner.read().default_replication
    }

    /// The effective replication factor for `key` (default, unless raised by
    /// a hot-key override).
    pub fn effective_replication(&self, key: &Key) -> usize {
        let inner = self.inner.read();
        inner
            .overrides
            .get(key)
            .map(|o| o.replication)
            .unwrap_or(inner.default_replication)
            .max(inner.default_replication)
    }

    /// Raise (or lower back to default) the replication of a hot key.
    pub fn set_replication_override(&self, key: Key, replication: usize) {
        self.set_replication_override_in(key, replication, None);
    }

    /// [`Directory::set_replication_override`] with an optional hot region:
    /// the extra copies beyond the region-diverse durability spread are
    /// placed in `region` first, so promotion raises replicas where the
    /// heat is generated.
    pub fn set_replication_override_in(&self, key: Key, replication: usize, region: Option<u16>) {
        let mut inner = self.inner.write();
        if replication <= inner.default_replication {
            inner.overrides.remove(&key);
        } else {
            inner.overrides.insert(
                key,
                Override {
                    replication,
                    region,
                },
            );
        }
    }

    /// Whether `key` currently has a raised replication override (the
    /// client's read-spreading check — cheap enough for every `get`).
    pub fn is_overridden(&self, key: &Key) -> bool {
        self.inner.read().overrides.contains_key(key)
    }

    /// Every `(key, replication)` override currently in force (the
    /// elasticity engine's demotion sweep reads this).
    pub fn overrides(&self) -> Vec<(Key, usize)> {
        let inner = self.inner.read();
        inner
            .overrides
            .iter()
            .map(|(k, o)| (k.clone(), o.replication))
            .collect()
    }

    /// Number of overrides currently in force.
    pub fn override_count(&self) -> usize {
        self.inner.read().overrides.len()
    }

    /// The ordered replica list (with addresses) for `key` under its
    /// effective replication factor.
    pub fn replicas(&self, key: &Key) -> Vec<(NodeId, Address)> {
        self.replicas_with_override(key).0
    }

    /// [`Directory::replicas`] plus whether a hot-key override applied —
    /// in one lock acquisition, because the client consults both on every
    /// read (the override decides whether the read spreads).
    pub fn replicas_with_override(&self, key: &Key) -> (Vec<(NodeId, Address)>, bool) {
        let inner = self.inner.read();
        inner.placement(key)
    }

    /// The read plan for `key` as seen from `viewer_region`: the same
    /// replica set writes target, reordered so the viewer's in-region
    /// replicas come first (placement order preserved within the local and
    /// remote groups — the failover walk stays deterministic). One lock
    /// acquisition, because the client builds a plan on every read.
    pub fn read_plan(&self, key: &Key, viewer_region: u16) -> ReadPlan {
        let inner = self.inner.read();
        let (replicas, overridden) = inner.placement(key);
        if inner.ring.region_count() > 1 {
            let local_count = replicas
                .iter()
                .filter(|&&(n, _)| inner.ring.region_of(n) == viewer_region)
                .count();
            if local_count > 0 && local_count < replicas.len() {
                let mut ordered = Vec::with_capacity(replicas.len());
                ordered.extend(
                    replicas
                        .iter()
                        .copied()
                        .filter(|&(n, _)| inner.ring.region_of(n) == viewer_region),
                );
                ordered.extend(
                    replicas
                        .iter()
                        .copied()
                        .filter(|&(n, _)| inner.ring.region_of(n) != viewer_region),
                );
                return ReadPlan {
                    replicas: ordered,
                    local: local_count,
                    overridden,
                };
            }
        }
        let local = replicas.len();
        ReadPlan {
            replicas,
            local,
            overridden,
        }
    }

    /// The primary owner of `key`.
    pub fn primary(&self, key: &Key) -> Option<(NodeId, Address)> {
        let inner = self.inner.read();
        let node = inner.ring.primary_at(key.hash())?;
        inner.addrs.get(&node).map(|&a| (node, a))
    }

    /// A snapshot of the ring and default replication, for rebalance
    /// messages.
    pub fn ring_snapshot(&self) -> (HashRing, usize) {
        let inner = self.inner.read();
        (inner.ring.clone(), inner.default_replication)
    }

    /// The address of a specific node.
    pub fn address_of(&self, node: NodeId) -> Option<Address> {
        self.inner.read().addrs.get(&node).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_net::{NetConfig, Network};

    fn addr(net: &Network) -> Address {
        // Register and leak the endpoint so the address stays routable.
        let ep = net.register();
        let a = ep.addr();
        std::mem::forget(ep);
        a
    }

    #[test]
    fn membership_roundtrip() {
        let net = Network::new(NetConfig::instant());
        let dir = Directory::new(2);
        let (a1, a2) = (addr(&net), addr(&net));
        dir.add_node(1, a1);
        dir.add_node(2, a2);
        assert_eq!(dir.node_count(), 2);
        assert_eq!(dir.nodes(), vec![(1, a1), (2, a2)]);
        assert_eq!(dir.address_of(2), Some(a2));
        dir.remove_node(1);
        assert_eq!(dir.node_count(), 1);
        assert_eq!(dir.address_of(1), None);
    }

    #[test]
    fn replicas_respect_effective_replication() {
        let net = Network::new(NetConfig::instant());
        let dir = Directory::new(1);
        for n in 0..4 {
            dir.add_node(n, addr(&net));
        }
        let key = Key::new("hot");
        assert_eq!(dir.replicas(&key).len(), 1);
        dir.set_replication_override(key.clone(), 3);
        assert_eq!(dir.effective_replication(&key), 3);
        assert_eq!(dir.replicas(&key).len(), 3);
        // Lowering to ≤ default clears the override.
        dir.set_replication_override(key.clone(), 1);
        assert_eq!(dir.replicas(&key).len(), 1);
    }

    #[test]
    fn override_never_lowers_below_default() {
        let net = Network::new(NetConfig::instant());
        let dir = Directory::new(2);
        for n in 0..4 {
            dir.add_node(n, addr(&net));
        }
        let key = Key::new("k");
        dir.set_replication_override(key.clone(), 1);
        assert_eq!(dir.effective_replication(&key), 2);
    }

    #[test]
    fn read_plan_on_flat_directory_is_placement_order() {
        let net = Network::new(NetConfig::instant());
        let dir = Directory::new(2);
        for n in 0..4 {
            dir.add_node(n, addr(&net));
        }
        for i in 0..50 {
            let key = Key::new(format!("k{i}"));
            let plan = dir.read_plan(&key, 0);
            assert_eq!(plan.replicas, dir.replicas(&key));
            assert_eq!(plan.local, plan.replicas.len(), "flat ⇒ whole list local");
            assert!(!plan.overridden);
        }
    }

    #[test]
    fn read_plan_orders_viewer_region_first() {
        let net = Network::new(NetConfig::instant());
        let dir = Directory::new(3);
        // Two nodes in each of three regions.
        for n in 0..6u64 {
            dir.add_node_in(n, addr(&net), (n / 2) as u16);
        }
        for i in 0..100 {
            let key = Key::new(format!("k{i}"));
            let placement = dir.replicas(&key);
            for viewer in 0..3u16 {
                let plan = dir.read_plan(&key, viewer);
                // Same set, reordered.
                let mut a: Vec<_> = plan.replicas.clone();
                let mut b: Vec<_> = placement.clone();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "read plan must never change the replica set");
                // Replication 3 over 3 regions ⇒ exactly one local replica.
                assert_eq!(plan.local, 1);
                assert_eq!(dir.region_of(plan.replicas[0].0), viewer);
                // Remote tail keeps placement order.
                let tail: Vec<_> = plan.replicas[1..].to_vec();
                let expect: Vec<_> = placement
                    .iter()
                    .copied()
                    .filter(|&(n, _)| dir.region_of(n) != viewer)
                    .collect();
                assert_eq!(tail, expect);
            }
        }
    }

    #[test]
    fn read_plan_with_no_local_replica_degrades_to_full_list() {
        let net = Network::new(NetConfig::instant());
        let dir = Directory::new(1);
        dir.add_node_in(0, addr(&net), 0);
        dir.add_node_in(1, addr(&net), 1);
        for i in 0..50 {
            let key = Key::new(format!("k{i}"));
            // Viewer region 7 holds no nodes at all.
            let plan = dir.read_plan(&key, 7);
            assert_eq!(plan.replicas, dir.replicas(&key));
            assert_eq!(plan.local, plan.replicas.len());
        }
    }

    #[test]
    fn region_override_biases_extra_copies() {
        let net = Network::new(NetConfig::instant());
        let dir = Directory::new(3);
        for n in 0..9u64 {
            dir.add_node_in(n, addr(&net), (n / 3) as u16);
        }
        let key = Key::new("hot");
        dir.set_replication_override_in(key.clone(), 5, Some(2));
        let replicas = dir.replicas(&key);
        assert_eq!(replicas.len(), 5);
        let in_hot = replicas
            .iter()
            .filter(|&&(n, _)| dir.region_of(n) == 2)
            .count();
        assert_eq!(in_hot, 3, "extra copies must land in the hot region");
        // Clearing restores the unbiased base placement.
        dir.set_replication_override_in(key.clone(), 3, None);
        assert!(!dir.is_overridden(&key));
        assert_eq!(dir.replicas(&key).len(), 3);
    }

    #[test]
    fn primary_matches_first_replica() {
        let net = Network::new(NetConfig::instant());
        let dir = Directory::new(2);
        for n in 0..4 {
            dir.add_node(n, addr(&net));
        }
        for i in 0..50 {
            let key = Key::new(format!("k{i}"));
            assert_eq!(dir.primary(&key).unwrap(), dir.replicas(&key)[0]);
        }
    }
}
