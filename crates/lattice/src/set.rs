//! [`SetLattice`]: grow-only sets under union.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::traits::{BottomLattice, Lattice};

/// A grow-only set lattice where `join` is set union and bottom is `∅`.
///
/// Anna uses set lattices for, among other things, the set of registered
/// functions, cached-keyset reports from Cloudburst caches, and the value
/// component of the multi-value causal lattice.
///
/// The element set lives behind an [`Arc`], so cloning a `SetLattice` (and
/// therefore a set-kind `Capsule`) is one refcount bump regardless of size;
/// mutation copies the set only when it is actually shared
/// (copy-on-divergence via [`Arc::make_mut`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetLattice<T: Ord>(Arc<BTreeSet<T>>);

impl<T: Ord> Default for SetLattice<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord> SetLattice<T> {
    /// An empty set.
    pub fn new() -> Self {
        Self(Arc::new(BTreeSet::new()))
    }

    /// A singleton set.
    pub fn singleton(value: T) -> Self {
        let mut s = BTreeSet::new();
        s.insert(value);
        Self(Arc::new(s))
    }

    /// Whether the set contains `value`.
    pub fn contains(&self, value: &T) -> bool {
        self.0.contains(value)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate over elements in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter()
    }

    /// The smallest element, if any. Used for deterministic tie-breaking when
    /// de-encapsulating multi-valued causal capsules (paper §5.2).
    pub fn first(&self) -> Option<&T> {
        self.0.first()
    }
}

impl<T: Ord + Clone> SetLattice<T> {
    /// Insert an element (a join with the singleton set).
    pub fn insert(&mut self, value: T) -> bool {
        Arc::make_mut(&mut self.0).insert(value)
    }

    /// Consume into the underlying sorted set (copies only if shared).
    pub fn into_set(self) -> BTreeSet<T> {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| (*shared).clone())
    }
}

impl<T: Ord + Clone> Lattice for SetLattice<T> {
    fn join(&mut self, other: Self) {
        // Re-merging the same shared set (redelivery, snapshot handle) is
        // idempotent — skip it without breaking the sharing.
        if Arc::ptr_eq(&self.0, &other.0) || other.0.is_empty() {
            return;
        }
        if self.0.is_empty() {
            self.0 = other.0;
            return;
        }
        match Arc::try_unwrap(other.0) {
            Ok(mut owned) => {
                // Move only the genuinely new elements; a subset merge must
                // not deep-copy a shared set just to add nothing.
                owned.retain(|v| !self.0.contains(v));
                if !owned.is_empty() {
                    Arc::make_mut(&mut self.0).extend(owned);
                }
            }
            Err(shared) => self.join_ref(&Self(shared)),
        }
    }

    fn join_ref(&mut self, other: &Self) {
        if Arc::ptr_eq(&self.0, &other.0) || other.0.is_empty() {
            return;
        }
        if self.0.is_empty() {
            self.0 = Arc::clone(&other.0);
            return;
        }
        let missing: Vec<&T> = other.0.iter().filter(|v| !self.0.contains(*v)).collect();
        if !missing.is_empty() {
            Arc::make_mut(&mut self.0).extend(missing.into_iter().cloned());
        }
    }
}

impl<T: Ord + Clone> BottomLattice for SetLattice<T> {}

impl<T: Ord> FromIterator<T> for SetLattice<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self(Arc::new(iter.into_iter().collect()))
    }
}

impl<T: Ord + Clone> IntoIterator for SetLattice<T> {
    type Item = T;
    type IntoIter = std::collections::btree_set::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_set().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_semantics() {
        let mut a: SetLattice<u32> = [1, 2].into_iter().collect();
        let b: SetLattice<u32> = [2, 3].into_iter().collect();
        a.join(b);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn bottom_is_empty() {
        assert!(SetLattice::<u32>::bottom().is_empty());
    }

    #[test]
    fn first_is_deterministic_tiebreak() {
        let s: SetLattice<&str> = ["zebra", "apple"].into_iter().collect();
        assert_eq!(s.first(), Some(&"apple"));
    }

    #[test]
    fn join_ref_matches_join() {
        let a: SetLattice<u32> = [1, 5].into_iter().collect();
        let b: SetLattice<u32> = [5, 9].into_iter().collect();
        let mut via_ref = a.clone();
        via_ref.join_ref(&b);
        assert_eq!(via_ref, a.joined(b));
    }

    #[test]
    fn clone_shares_storage_and_diverges_on_write() {
        let a: SetLattice<u32> = [1, 2, 3].into_iter().collect();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0), "clone must be a refcount bump");
        b.insert(4);
        assert!(!Arc::ptr_eq(&a.0, &b.0), "mutation must copy-on-divergence");
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn join_ref_of_subset_does_not_copy() {
        let mut a: SetLattice<u32> = [1, 2, 3].into_iter().collect();
        let snapshot = a.clone();
        let subset: SetLattice<u32> = [2, 3].into_iter().collect();
        a.join_ref(&subset);
        assert!(
            Arc::ptr_eq(&a.0, &snapshot.0),
            "joining a subset must not break sharing"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::btree_set;
    use proptest::prelude::*;

    fn set_lat() -> impl Strategy<Value = SetLattice<u8>> {
        btree_set(any::<u8>(), 0..8).prop_map(|s| s.into_iter().collect())
    }

    proptest! {
        #[test]
        fn aci(a in set_lat(), b in set_lat(), c in set_lat()) {
            prop_assert_eq!(
                a.clone().joined(b.clone()).joined(c.clone()),
                a.clone().joined(b.clone().joined(c))
            );
            prop_assert_eq!(a.clone().joined(b.clone()), b.joined(a.clone()));
            prop_assert_eq!(a.clone().joined(a.clone()), a);
        }

        #[test]
        fn join_is_upper_bound(a in set_lat(), b in set_lat()) {
            let j = a.clone().joined(b.clone());
            for v in a.iter().chain(b.iter()) {
                prop_assert!(j.contains(v));
            }
        }
    }
}
