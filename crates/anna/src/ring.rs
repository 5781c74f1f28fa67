//! [`HashRing`]: consistent hashing with virtual nodes.
//!
//! Anna partitions the key space over storage nodes with consistent hashing
//! so that adding or removing a node moves only `≈ 1/n` of the keys — the
//! property its storage autoscaler depends on (paper §2.2). Virtual nodes
//! smooth the load distribution.

use std::collections::BTreeMap;

use cloudburst_lattice::key::{key_hash, mix64};

/// Identifier of a storage node.
pub type NodeId = u64;

/// Number of virtual nodes per physical node.
const DEFAULT_VNODES: u32 = 64;

/// A consistent-hash ring mapping keys to ordered replica lists.
///
/// Nodes may be tagged with a **region** ([`HashRing::add_node_in`]); on a
/// multi-region ring the replica walk becomes region-diverse — replicas
/// spread across regions for durability — while a single-region ring keeps
/// the historical plain clockwise walk byte-for-byte.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: BTreeMap<u64, NodeId>,
    /// Region tag per node. `BTreeMap` (not `HashMap`) so clones and
    /// iteration stay deterministic for `--seed` replays.
    regions: BTreeMap<NodeId, u16>,
    /// Nodes per region, maintained incrementally so the replica hot path
    /// can detect the single-region case without scanning.
    region_counts: BTreeMap<u16, usize>,
    node_count: usize,
    vnodes_per_node: u32,
}

impl HashRing {
    /// An empty ring with the default virtual-node count.
    pub fn new() -> Self {
        Self::with_vnodes(DEFAULT_VNODES)
    }

    /// An empty ring with `vnodes_per_node` virtual nodes per physical node.
    pub fn with_vnodes(vnodes_per_node: u32) -> Self {
        assert!(vnodes_per_node > 0, "need at least one vnode per node");
        Self {
            vnodes: BTreeMap::new(),
            regions: BTreeMap::new(),
            region_counts: BTreeMap::new(),
            node_count: 0,
            vnodes_per_node,
        }
    }

    /// Number of physical nodes on the ring.
    pub fn len(&self) -> usize {
        self.node_count
    }

    /// Whether the ring has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_count == 0
    }

    /// Add a node in region 0. Returns `false` if it was already present.
    pub fn add_node(&mut self, node: NodeId) -> bool {
        self.add_node_in(node, 0)
    }

    /// Add a node tagged with a region. Returns `false` if it was already
    /// present (the existing region tag is kept). The node's vnode points
    /// depend only on its ID, so tagging never moves keys — it only
    /// changes which walk candidates the region-diverse selection prefers.
    pub fn add_node_in(&mut self, node: NodeId, region: u16) -> bool {
        if self.contains(node) {
            return false;
        }
        for v in 0..self.vnodes_per_node {
            let point = mix64(node.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (u64::from(v) << 1 | 1));
            self.vnodes.insert(point, node);
        }
        self.regions.insert(node, region);
        *self.region_counts.entry(region).or_insert(0) += 1;
        self.node_count += 1;
        true
    }

    /// Remove a node. Returns `false` if it was not present.
    pub fn remove_node(&mut self, node: NodeId) -> bool {
        let before = self.vnodes.len();
        self.vnodes.retain(|_, n| *n != node);
        let removed = self.vnodes.len() != before;
        if removed {
            self.node_count -= 1;
            if let Some(region) = self.regions.remove(&node) {
                if let Some(count) = self.region_counts.get_mut(&region) {
                    *count -= 1;
                    if *count == 0 {
                        self.region_counts.remove(&region);
                    }
                }
            }
        }
        removed
    }

    /// The region a node was added in (0 for untagged nodes).
    pub fn region_of(&self, node: NodeId) -> u16 {
        self.regions.get(&node).copied().unwrap_or(0)
    }

    /// Number of distinct regions with at least one node.
    pub fn region_count(&self) -> usize {
        self.region_counts.len()
    }

    /// Whether `node` is on the ring.
    pub fn contains(&self, node: NodeId) -> bool {
        self.vnodes.values().any(|&n| n == node)
    }

    /// All node IDs on the ring, sorted.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.vnodes.values().copied().collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The ordered replica list for `key`: up to `replication` *distinct*
    /// nodes found walking clockwise from the key's hash point. The first
    /// entry is the key's primary owner (which also owns the key's slice of
    /// the key→cache index, paper §4.2).
    ///
    /// On a multi-region ring the walk is **region-diverse**: after the
    /// primary, candidates in not-yet-covered regions are taken first (in
    /// walk order), then remaining slots fill in plain walk order. The
    /// selection is prefix-monotone — `replicas(key, k)` is a prefix of
    /// `replicas(key, k + 1)` — which selective replication relies on when
    /// it raises and lowers a key's factor. A single-region ring takes the
    /// historical plain walk, byte-for-byte.
    pub fn replicas(&self, key: &str, replication: usize) -> Vec<NodeId> {
        self.replicas_biased(key, replication, None)
    }

    /// [`HashRing::replicas`] with an optional **fill bias**: once region
    /// diversity is satisfied, remaining slots prefer nodes in `prefer`
    /// (in walk order) before the rest of the walk. This is how selective
    /// replication raises a hot key's extra copies *in the region
    /// generating the heat* — the diversity prefix (and therefore the
    /// durability spread and the primary) is never affected by the bias.
    pub fn replicas_biased(
        &self,
        key: &str,
        replication: usize,
        prefer: Option<u16>,
    ) -> Vec<NodeId> {
        self.replicas_at(key_hash(key), replication, prefer)
    }

    /// [`HashRing::replicas_biased`] from a precomputed ring point: a key's
    /// [`key_hash`], which a [`cloudburst_lattice::Key`] carries as
    /// [`Key::hash`](cloudburst_lattice::Key::hash), so placing a `Key`
    /// never rehashes its text.
    pub fn replicas_at(&self, point: u64, replication: usize, prefer: Option<u16>) -> Vec<NodeId> {
        if self.vnodes.is_empty() || replication == 0 {
            return Vec::new();
        }
        let want = replication.min(self.node_count);
        let walk = self.vnodes.range(point..).chain(self.vnodes.range(..point));
        if self.region_counts.len() <= 1 {
            // Single-region fast path: the historical clockwise walk with
            // its early exit (bias is meaningless with one region).
            let mut out = Vec::with_capacity(want);
            for (_, &node) in walk {
                if !out.contains(&node) {
                    out.push(node);
                    if out.len() == want {
                        break;
                    }
                }
            }
            return out;
        }
        // Multi-region: materialize the full distinct walk (node counts are
        // small — tens, not thousands), then select in three passes.
        let mut distinct = Vec::with_capacity(self.node_count);
        for (_, &node) in walk {
            if !distinct.contains(&node) {
                distinct.push(node);
                if distinct.len() == self.node_count {
                    break;
                }
            }
        }
        let mut out = Vec::with_capacity(want);
        out.push(distinct[0]);
        let mut covered: Vec<u16> = vec![self.region_of(distinct[0])];
        // Pass 1: cover regions in walk order (durability spread).
        for &node in &distinct[1..] {
            if out.len() == want {
                return out;
            }
            let region = self.region_of(node);
            if !covered.contains(&region) {
                covered.push(region);
                out.push(node);
            }
        }
        // Pass 2: fill from the preferred region in walk order.
        if let Some(prefer) = prefer {
            for &node in &distinct[1..] {
                if out.len() == want {
                    return out;
                }
                if self.region_of(node) == prefer && !out.contains(&node) {
                    out.push(node);
                }
            }
        }
        // Pass 3: fill remaining slots in plain walk order.
        for &node in &distinct[1..] {
            if out.len() == want {
                break;
            }
            if !out.contains(&node) {
                out.push(node);
            }
        }
        out
    }

    /// The primary owner of `key`, if the ring is non-empty.
    pub fn primary(&self, key: &str) -> Option<NodeId> {
        self.primary_at(key_hash(key))
    }

    /// The primary owner of the key at ring point `point` (its
    /// [`key_hash`]), if the ring is non-empty.
    pub fn primary_at(&self, point: u64) -> Option<NodeId> {
        self.replicas_at(point, 1, None).first().copied()
    }
}

impl Default for HashRing {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("key-{i}")).collect()
    }

    #[test]
    fn empty_ring_has_no_replicas() {
        let ring = HashRing::new();
        assert!(ring.replicas("k", 3).is_empty());
        assert!(ring.primary("k").is_none());
        assert!(ring.is_empty());
    }

    #[test]
    fn replicas_are_distinct_and_capped() {
        let mut ring = HashRing::new();
        for n in 0..5 {
            ring.add_node(n);
        }
        for k in keys(100) {
            let r = ring.replicas(&k, 3);
            assert_eq!(r.len(), 3);
            let mut sorted = r.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct");
        }
        // Requesting more replicas than nodes returns all nodes.
        assert_eq!(ring.replicas("k", 10).len(), 5);
    }

    #[test]
    fn placement_is_deterministic() {
        let mut a = HashRing::new();
        let mut b = HashRing::new();
        for n in [3, 1, 2] {
            a.add_node(n);
        }
        for n in [1, 2, 3] {
            b.add_node(n);
        }
        for k in keys(50) {
            assert_eq!(a.replicas(&k, 2), b.replicas(&k, 2));
        }
    }

    #[test]
    fn duplicate_add_and_missing_remove_are_noops() {
        let mut ring = HashRing::new();
        assert!(ring.add_node(1));
        assert!(!ring.add_node(1));
        assert_eq!(ring.len(), 1);
        assert!(!ring.remove_node(9));
        assert!(ring.remove_node(1));
        assert!(ring.is_empty());
    }

    #[test]
    fn load_is_roughly_balanced() {
        let mut ring = HashRing::new();
        let nodes = 8u64;
        for n in 0..nodes {
            ring.add_node(n);
        }
        let mut counts = vec![0usize; nodes as usize];
        let total = 20_000;
        for k in keys(total) {
            counts[ring.primary(&k).unwrap() as usize] += 1;
        }
        let ideal = total / nodes as usize;
        for (n, &c) in counts.iter().enumerate() {
            assert!(
                c > ideal / 3 && c < ideal * 3,
                "node {n} owns {c} keys (ideal {ideal}); distribution too skewed"
            );
        }
    }

    #[test]
    fn adding_a_node_moves_few_keys() {
        let mut ring = HashRing::new();
        for n in 0..10 {
            ring.add_node(n);
        }
        let ks = keys(10_000);
        let before: Vec<_> = ks.iter().map(|k| ring.primary(k).unwrap()).collect();
        ring.add_node(10);
        let moved = ks
            .iter()
            .zip(&before)
            .filter(|(k, &old)| ring.primary(k).unwrap() != old)
            .count();
        // Ideally 1/11 ≈ 9% of keys move; allow generous slack.
        let frac = moved as f64 / ks.len() as f64;
        assert!(frac < 0.25, "{moved} keys moved ({frac:.2})");
        assert!(moved > 0, "some keys must move to the new node");
    }

    #[test]
    fn removed_node_receives_nothing() {
        let mut ring = HashRing::new();
        for n in 0..4 {
            ring.add_node(n);
        }
        ring.remove_node(2);
        for k in keys(1000) {
            assert!(!ring.replicas(&k, 3).contains(&2));
        }
    }

    #[test]
    fn nodes_lists_sorted_unique() {
        let mut ring = HashRing::new();
        for n in [5, 1, 3] {
            ring.add_node(n);
        }
        assert_eq!(ring.nodes(), vec![1, 3, 5]);
    }

    /// A ring of tagged nodes that all share one region must place exactly
    /// like an untagged ring: the region machinery may not disturb the
    /// historical walk.
    #[test]
    fn single_region_tagging_is_transparent() {
        let mut plain = HashRing::new();
        let mut tagged = HashRing::new();
        for n in 0..6 {
            plain.add_node(n);
            tagged.add_node_in(n, 3);
        }
        for k in keys(200) {
            assert_eq!(plain.replicas(&k, 3), tagged.replicas(&k, 3));
        }
        assert_eq!(tagged.region_count(), 1);
        assert_eq!(tagged.region_of(2), 3);
        assert_eq!(plain.region_of(2), 0);
    }

    /// With nodes spread over 3 regions and replication 3, every key's
    /// replica set must cover all 3 regions (durability spread).
    #[test]
    fn multi_region_replicas_cover_regions() {
        let mut ring = HashRing::new();
        for n in 0..9u64 {
            ring.add_node_in(n, (n % 3) as u16);
        }
        assert_eq!(ring.region_count(), 3);
        for k in keys(300) {
            let r = ring.replicas(&k, 3);
            assert_eq!(r.len(), 3);
            let mut regions: Vec<u16> = r.iter().map(|&n| ring.region_of(n)).collect();
            regions.sort_unstable();
            assert_eq!(regions, vec![0, 1, 2], "key {k} replicas {r:?}");
        }
    }

    /// The multi-region primary is the same node the plain walk would pick:
    /// region diversity reorders the tail, never the head.
    #[test]
    fn region_diversity_preserves_primary() {
        let mut plain = HashRing::new();
        let mut multi = HashRing::new();
        for n in 0..9u64 {
            plain.add_node(n);
            multi.add_node_in(n, (n % 3) as u16);
        }
        for k in keys(300) {
            assert_eq!(plain.primary(&k), multi.primary(&k));
        }
    }

    /// `replicas(key, k)` must be a prefix of `replicas(key, k + 1)` on a
    /// multi-region ring — selective replication's raise/lower paths assume
    /// the base placement never migrates when the factor grows.
    #[test]
    fn multi_region_selection_is_prefix_monotone() {
        let mut ring = HashRing::new();
        for n in 0..8u64 {
            ring.add_node_in(n, (n % 3) as u16);
        }
        for k in keys(120) {
            for want in 1..8 {
                let small = ring.replicas(&k, want);
                let big = ring.replicas(&k, want + 1);
                assert_eq!(&big[..small.len()], &small[..], "key {k} want {want}");
            }
        }
    }

    /// Biased fill: once diversity is satisfied, extra slots land in the
    /// preferred region first.
    #[test]
    fn biased_fill_prefers_the_hot_region() {
        let mut ring = HashRing::new();
        // Three regions, three nodes each.
        for n in 0..9u64 {
            ring.add_node_in(n, (n / 3) as u16);
        }
        for k in keys(100) {
            let biased = ring.replicas_biased(&k, 5, Some(1));
            assert_eq!(biased.len(), 5);
            // 3 diversity picks + 2 biased fills → region 1 holds 3 copies.
            let in_hot = biased.iter().filter(|&&n| ring.region_of(n) == 1).count();
            assert_eq!(in_hot, 3, "key {k} biased {biased:?}");
            // The diversity prefix (and the primary) is bias-independent.
            let base = ring.replicas(&k, 3);
            assert_eq!(&biased[..3], &base[..]);
        }
    }

    #[test]
    fn removing_a_region_last_node_drops_the_region() {
        let mut ring = HashRing::new();
        ring.add_node_in(1, 0);
        ring.add_node_in(2, 1);
        assert_eq!(ring.region_count(), 2);
        ring.remove_node(2);
        assert_eq!(ring.region_count(), 1);
        ring.add_node_in(2, 1);
        assert_eq!(ring.region_count(), 2);
    }

    #[test]
    fn key_hash_is_the_ring_point() {
        let mut ring = HashRing::new();
        for n in 0..4 {
            ring.add_node_in(n, (n % 2) as u16);
        }
        for k in keys(200) {
            let point = key_hash(&k);
            assert_eq!(cloudburst_lattice::Key::new(&k).hash(), point);
            // The primary owns the first vnode clockwise from the point.
            let owner = ring
                .vnodes
                .range(point..)
                .chain(ring.vnodes.range(..point))
                .map(|(_, &n)| n)
                .next();
            assert_eq!(ring.primary(&k), owner);
            assert_eq!(ring.primary_at(point), owner);
            assert_eq!(
                ring.replicas_at(point, 3, Some(1)),
                ring.replicas_biased(&k, 3, Some(1))
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn replicas_always_distinct(
            nodes in proptest::collection::btree_set(0u64..32, 1..8),
            key in "[a-z]{1,12}",
            replication in 1usize..6,
        ) {
            let mut ring = HashRing::new();
            for &n in &nodes {
                ring.add_node(n);
            }
            let r = ring.replicas(&key, replication);
            prop_assert_eq!(r.len(), replication.min(nodes.len()));
            let mut sorted = r.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), r.len());
            for n in &r {
                prop_assert!(nodes.contains(n));
            }
        }

        #[test]
        fn multi_region_replicas_distinct_and_diverse(
            nodes in proptest::collection::btree_set(0u64..32, 1..10),
            key in "[a-z]{1,12}",
            replication in 1usize..6,
            region_span in 1u16..4,
        ) {
            let mut ring = HashRing::new();
            for &n in &nodes {
                ring.add_node_in(n, (n % u64::from(region_span)) as u16);
            }
            let r = ring.replicas(&key, replication);
            prop_assert_eq!(r.len(), replication.min(nodes.len()));
            let mut sorted = r.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), r.len(), "replicas must be distinct");
            // Distinct regions among replicas == min(want, regions on ring).
            let mut covered: Vec<u16> = r.iter().map(|&n| ring.region_of(n)).collect();
            covered.sort_unstable();
            covered.dedup();
            prop_assert_eq!(covered.len(), r.len().min(ring.region_count()));
        }

        #[test]
        fn remove_then_add_is_identity(
            nodes in proptest::collection::btree_set(0u64..32, 2..8),
            key in "[a-z]{1,12}",
        ) {
            let mut ring = HashRing::new();
            for &n in &nodes {
                ring.add_node(n);
            }
            let before = ring.replicas(&key, 2);
            let victim = *nodes.iter().next().unwrap();
            ring.remove_node(victim);
            ring.add_node(victim);
            prop_assert_eq!(before, ring.replicas(&key, 2));
        }
    }
}
