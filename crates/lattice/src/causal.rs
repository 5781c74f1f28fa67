//! [`CausalLattice`]: the multi-value causal lattice used in causal modes.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use crate::key::Key;
use crate::traits::{BottomLattice, Lattice};
use crate::vector_clock::{CausalOrder, VectorClock};

/// One causally-tagged version of a key: "the composition of an Anna-provided
/// vector clock that identifies `k`'s version, a dependency set that tracks
/// key versions that `k` depends on, and the value" (paper §5.2).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CausalVersion {
    /// Version identity.
    pub vector_clock: VectorClock,
    /// Key versions this version causally depends on.
    pub dependencies: BTreeMap<Key, VectorClock>,
    /// The opaque user value.
    pub value: Bytes,
}

/// The causal lattice of paper §5.2, implemented as a *multi-version
/// antichain*: the set of versions none of which causally dominates another.
///
/// The paper describes the two-version merge: if one vector clock dominates,
/// keep that lattice; if they are concurrent, keep both (pair-wise max clock,
/// set-union of dependency sets and values). We implement the standard
/// antichain completion of that rule — union the version sets and prune
/// strictly-dominated versions — which is provably associative, commutative,
/// and idempotent, and collapses to exactly the paper's behaviour for the
/// two-version case. The *effective* clock observed by the consistency
/// protocol ([`CausalLattice::vector_clock`]) is the join of all retained
/// versions' clocks, matching the paper's merged clock.
///
/// De-encapsulation presents the user with one version chosen by an arbitrary
/// but deterministic tie-break ([`CausalLattice::read_value`]); the cache
/// layer retains the concurrent versions for the consistency protocol, and
/// applications can retrieve them all to resolve conflicts manually.
///
/// The version vector lives behind an [`Arc`], so cloning a `CausalLattice`
/// (and therefore a causal-kind `Capsule`) is one refcount bump regardless
/// of how many versions or dependencies it holds; a `join` copies the vector
/// only when this lattice is actually shared (copy-on-divergence via
/// [`Arc::make_mut`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CausalLattice {
    /// Retained versions, sorted, mutually concurrent (an antichain).
    versions: Arc<Vec<CausalVersion>>,
}

impl CausalLattice {
    /// A single-version causal value.
    pub fn new(
        vector_clock: VectorClock,
        dependencies: impl IntoIterator<Item = (Key, VectorClock)>,
        value: Bytes,
    ) -> Self {
        Self {
            versions: Arc::new(vec![CausalVersion {
                vector_clock,
                dependencies: dependencies.into_iter().collect(),
                value,
            }]),
        }
    }

    /// The effective version clock: the join of all retained versions'
    /// clocks. This is what Algorithm 2's `valid` predicate compares.
    pub fn vector_clock(&self) -> VectorClock {
        let mut vc = VectorClock::new();
        for v in self.versions.iter() {
            vc.join_ref(&v.vector_clock);
        }
        vc
    }

    /// The union of the dependency sets of all retained versions; per-key
    /// clocks are joined.
    pub fn dependencies(&self) -> BTreeMap<Key, VectorClock> {
        let mut deps: BTreeMap<Key, VectorClock> = BTreeMap::new();
        for v in self.versions.iter() {
            for (k, vc) in &v.dependencies {
                deps.entry(k.clone()).or_default().join_ref(vc);
            }
        }
        deps
    }

    /// [`CausalLattice::vector_clock`] without the copy when one version is
    /// retained (the common case): its clock is the effective clock.
    pub fn vector_clock_ref(&self) -> Cow<'_, VectorClock> {
        match self.versions.as_slice() {
            [only] => Cow::Borrowed(&only.vector_clock),
            _ => Cow::Owned(self.vector_clock()),
        }
    }

    /// [`CausalLattice::dependencies`] without the copy when one version is
    /// retained.
    pub fn dependencies_ref(&self) -> Cow<'_, BTreeMap<Key, VectorClock>> {
        match self.versions.as_slice() {
            [only] => Cow::Borrowed(&only.dependencies),
            _ => Cow::Owned(self.dependencies()),
        }
    }

    /// De-encapsulate: present the user program with one version chosen via
    /// an arbitrary but deterministic tie-breaking scheme (paper §5.2). We
    /// pick the version with the smallest `(clock, deps, value)` tuple.
    pub fn read_value(&self) -> Option<&Bytes> {
        self.versions.first().map(|v| &v.value)
    }

    /// All retained concurrent versions, for applications that resolve
    /// conflicts manually.
    pub fn versions(&self) -> &[CausalVersion] {
        &self.versions
    }

    /// All concurrent values.
    pub fn concurrent_values(&self) -> impl Iterator<Item = &Bytes> {
        self.versions.iter().map(|v| &v.value)
    }

    /// Whether this lattice currently holds more than one concurrent version.
    pub fn has_conflicts(&self) -> bool {
        self.versions.len() > 1
    }

    /// Approximate causal metadata size in bytes (vector clocks plus
    /// dependency sets), matching the §6.2.1 overhead measurements.
    pub fn metadata_bytes(&self) -> usize {
        self.versions
            .iter()
            .map(|v| {
                v.vector_clock.metadata_bytes()
                    + v.dependencies
                        .iter()
                        .map(|(k, vc)| k.as_str().len() + vc.metadata_bytes())
                        .sum::<usize>()
            })
            .sum()
    }

    /// Total payload size across all held versions.
    pub fn payload_len(&self) -> usize {
        self.versions.iter().map(|v| v.value.len()).sum()
    }

    /// Restore the antichain invariant: drop versions whose clock is strictly
    /// dominated by another retained version's clock, dedupe, and sort.
    fn normalize(versions: &mut Vec<CausalVersion>) {
        versions.sort_unstable();
        versions.dedup();
        let clocks: Vec<VectorClock> = versions.iter().map(|v| v.vector_clock.clone()).collect();
        let mut keep = vec![true; versions.len()];
        for (i, vi) in clocks.iter().enumerate() {
            for (j, vj) in clocks.iter().enumerate() {
                if i != j && vj.compare(vi) == CausalOrder::Dominates {
                    keep[i] = false;
                    break;
                }
            }
        }
        let mut it = keep.iter();
        versions.retain(|_| *it.next().expect("keep mask matches versions"));
    }
}

impl Lattice for CausalLattice {
    fn join(&mut self, other: Self) {
        // Re-merging an identical shared lattice (redelivery, snapshot
        // handle) or a bottom element is idempotent — skip it without
        // copying the shared version vector.
        if Arc::ptr_eq(&self.versions, &other.versions) || other.versions.is_empty() {
            return;
        }
        if self.versions.is_empty() {
            self.versions = other.versions;
            return;
        }
        // One version a side (every pushed update and session write against
        // a settled key): one clock comparison decides it. A strictly newer
        // incoming version replaces ours by handle; a strictly older one
        // changes nothing. Equal and concurrent clocks take the general
        // path — the same antichain `normalize` would leave.
        if let ([mine], [theirs]) = (self.versions.as_slice(), other.versions.as_slice()) {
            match theirs.vector_clock.compare(&mine.vector_clock) {
                CausalOrder::Dominates => {
                    self.versions = other.versions;
                    return;
                }
                CausalOrder::DominatedBy => return,
                CausalOrder::Equal | CausalOrder::Concurrent => {}
            }
        }
        let versions = Arc::make_mut(&mut self.versions);
        match Arc::try_unwrap(other.versions) {
            Ok(owned) => versions.extend(owned),
            Err(shared) => versions.extend(shared.iter().cloned()),
        }
        Self::normalize(versions);
    }
}

impl BottomLattice for CausalLattice {}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(entries: &[(u64, u64)]) -> VectorClock {
        entries.iter().copied().collect()
    }

    fn causal(clock: &[(u64, u64)], value: &'static [u8]) -> CausalLattice {
        CausalLattice::new(vc(clock), [], Bytes::from_static(value))
    }

    #[test]
    fn dominant_version_wins() {
        let mut a = causal(&[(1, 1)], b"old");
        a.join(causal(&[(1, 2)], b"new"));
        assert_eq!(a.read_value().unwrap().as_ref(), b"new");
        assert!(!a.has_conflicts());
    }

    #[test]
    fn dominated_version_is_ignored() {
        let mut a = causal(&[(1, 2)], b"current");
        a.join(causal(&[(1, 1)], b"stale"));
        assert_eq!(a.read_value().unwrap().as_ref(), b"current");
        assert!(!a.has_conflicts());
    }

    #[test]
    fn concurrent_versions_are_both_kept() {
        let mut a = causal(&[(1, 1)], b"from-node-1");
        a.join(causal(&[(2, 1)], b"from-node-2"));
        assert!(a.has_conflicts());
        assert_eq!(a.vector_clock(), vc(&[(1, 1), (2, 1)]));
        assert_eq!(a.concurrent_values().count(), 2);
    }

    #[test]
    fn later_write_prunes_all_concurrent_predecessors() {
        let mut a = causal(&[(1, 1)], b"a");
        a.join(causal(&[(2, 1)], b"b"));
        // A writer that read the merged state writes with the joined+bumped clock.
        a.join(causal(&[(1, 2), (2, 1)], b"resolved"));
        assert!(!a.has_conflicts());
        assert_eq!(a.read_value().unwrap().as_ref(), b"resolved");
    }

    #[test]
    fn concurrent_merge_unions_dependencies() {
        let mut a = CausalLattice::new(
            vc(&[(1, 1)]),
            [(Key::new("x"), vc(&[(9, 1)]))],
            Bytes::from_static(b"a"),
        );
        let b = CausalLattice::new(
            vc(&[(2, 1)]),
            [(Key::new("y"), vc(&[(8, 2)]))],
            Bytes::from_static(b"b"),
        );
        a.join(b);
        let deps = a.dependencies();
        assert_eq!(deps.len(), 2);
        assert_eq!(deps.get(&Key::new("x")).unwrap(), &vc(&[(9, 1)]));
        assert_eq!(deps.get(&Key::new("y")).unwrap(), &vc(&[(8, 2)]));
    }

    #[test]
    fn borrowed_accessors_match_owned_ones() {
        let single = CausalLattice::new(
            vc(&[(1, 1)]),
            [(Key::new("x"), vc(&[(9, 1)]))],
            Bytes::from_static(b"a"),
        );
        assert!(matches!(single.vector_clock_ref(), Cow::Borrowed(_)));
        assert!(matches!(single.dependencies_ref(), Cow::Borrowed(_)));
        let mut multi = single.clone();
        multi.join(causal(&[(2, 1)], b"b"));
        for lattice in [&single, &multi] {
            assert_eq!(*lattice.vector_clock_ref(), lattice.vector_clock());
            assert_eq!(*lattice.dependencies_ref(), lattice.dependencies());
        }
        assert_eq!(
            *CausalLattice::default().vector_clock_ref(),
            VectorClock::new()
        );
    }

    #[test]
    fn tie_break_is_deterministic() {
        let mut one = causal(&[(1, 1)], b"zzz");
        one.join(causal(&[(2, 1)], b"aaa"));
        let mut two = causal(&[(2, 1)], b"aaa");
        two.join(causal(&[(1, 1)], b"zzz"));
        assert_eq!(one.read_value(), two.read_value());
        assert_eq!(one, two);
    }

    #[test]
    fn clone_shares_versions_and_diverges_on_join() {
        let a = causal(&[(1, 1)], b"x");
        let mut b = a.clone();
        assert!(
            Arc::ptr_eq(&a.versions, &b.versions),
            "clone must be a refcount bump"
        );
        // Re-joining the shared handle is a no-op that preserves sharing.
        b.join(a.clone());
        assert!(Arc::ptr_eq(&a.versions, &b.versions));
        // Joining new state diverges without disturbing the original.
        b.join(causal(&[(2, 1)], b"y"));
        assert!(!Arc::ptr_eq(&a.versions, &b.versions));
        assert_eq!(a.versions().len(), 1);
        assert_eq!(b.versions().len(), 2);
    }

    #[test]
    fn a_dominating_version_is_adopted_by_handle() {
        let mut a = causal(&[(1, 1)], b"old");
        let newer = causal(&[(1, 2)], b"new");
        a.join(newer.clone());
        assert!(Arc::ptr_eq(&a.versions, &newer.versions));
        // A dominated one leaves the lattice, and its handle, untouched.
        let kept = Arc::clone(&a.versions);
        a.join(causal(&[(1, 1)], b"old"));
        assert!(Arc::ptr_eq(&a.versions, &kept));
    }

    #[test]
    fn redelivery_is_idempotent() {
        let mut a = causal(&[(1, 1)], b"v");
        let copy = a.clone();
        a.join(copy.clone());
        a.join(copy);
        assert_eq!(a, causal(&[(1, 1)], b"v"));
    }

    #[test]
    fn stale_value_does_not_resurface_regardless_of_order() {
        // Regression for the classic non-associativity bug of collapsed
        // multi-value merges: a=(1:1,"x"), b=(2:1,"y"), c=(1:2,"z").
        let a = causal(&[(1, 1)], b"x");
        let b = causal(&[(2, 1)], b"y");
        let c = causal(&[(1, 2)], b"z");
        let left = a.clone().joined(b.clone()).joined(c.clone());
        let right = a.joined(b.joined(c));
        assert_eq!(left, right);
        // "x" is dominated by "z" and must be pruned in both orders.
        assert!(left.concurrent_values().all(|v| v.as_ref() != b"x"));
        assert_eq!(left.concurrent_values().count(), 2);
    }

    #[test]
    fn metadata_bytes_counts_deps() {
        let c = CausalLattice::new(
            vc(&[(1, 1)]),
            [(Key::new("xy"), vc(&[(2, 1), (3, 1)]))],
            Bytes::new(),
        );
        // 16 (own vc) + 2 (key "xy") + 32 (dep vc with 2 entries)
        assert_eq!(c.metadata_bytes(), 50);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::btree_map;
    use proptest::prelude::*;

    fn causal_strategy() -> impl Strategy<Value = CausalLattice> {
        (
            btree_map(0u64..4, 1u64..4, 1..4),
            proptest::collection::vec(any::<u8>(), 1..4),
            btree_map(0u64..3, 1u64..3, 0..3),
        )
            .prop_map(|(clock, value, dep_clock)| {
                let deps: Vec<(Key, VectorClock)> = if dep_clock.is_empty() {
                    vec![]
                } else {
                    vec![(Key::new("dep"), dep_clock.into_iter().collect())]
                };
                CausalLattice::new(clock.into_iter().collect(), deps, value.into())
            })
    }

    proptest! {
        #[test]
        fn associative(a in causal_strategy(), b in causal_strategy(), c in causal_strategy()) {
            prop_assert_eq!(
                a.clone().joined(b.clone()).joined(c.clone()),
                a.clone().joined(b.clone().joined(c))
            );
        }

        #[test]
        fn commutative(a in causal_strategy(), b in causal_strategy()) {
            prop_assert_eq!(a.clone().joined(b.clone()), b.joined(a));
        }

        #[test]
        fn idempotent(a in causal_strategy()) {
            prop_assert_eq!(a.clone().joined(a.clone()), a);
        }

        #[test]
        fn retained_versions_form_an_antichain(a in causal_strategy(), b in causal_strategy()) {
            let j = a.joined(b);
            for (i, x) in j.versions().iter().enumerate() {
                for (k, y) in j.versions().iter().enumerate() {
                    if i != k {
                        prop_assert!(
                            !x.vector_clock.dominates(&y.vector_clock),
                            "antichain violated"
                        );
                    }
                }
            }
        }

        #[test]
        fn effective_clock_dominates_inputs(a in causal_strategy(), b in causal_strategy()) {
            let j = a.clone().joined(b.clone());
            prop_assert!(j.vector_clock().at_least(&a.vector_clock()));
            prop_assert!(j.vector_clock().at_least(&b.vector_clock()));
        }
    }
}
