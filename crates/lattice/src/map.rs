//! [`MapLattice`]: maps whose values are themselves lattices, merged
//! point-wise.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::traits::{BottomLattice, Lattice};

/// A map lattice: keys are merged by union, values point-wise via the value
/// lattice's own `join`.
///
/// This is Anna's workhorse composition ("Anna uses lattice composition to
/// implement consistency", paper §2.2): e.g. the key→cache index is a
/// `MapLattice<Key, SetLattice<CacheAddress>>`, and executor metric tables
/// are `MapLattice<ExecutorId, MaxLattice<…>>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapLattice<K: Ord, V: Lattice>(BTreeMap<K, V>);

impl<K: Ord, V: Lattice> Default for MapLattice<K, V> {
    fn default() -> Self {
        Self(BTreeMap::new())
    }
}

impl<K: Ord, V: Lattice> MapLattice<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self(BTreeMap::new())
    }

    /// Merge `value` into the entry for `key` (inserting it if absent).
    pub fn insert_join(&mut self, key: K, value: V) {
        match self.0.entry(key) {
            Entry::Vacant(e) => {
                e.insert(value);
            }
            Entry::Occupied(mut e) => e.get_mut().join(value),
        }
    }

    /// Look up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0.get(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate over entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.0.iter()
    }
}

impl<K: Ord + Clone, V: Lattice> Lattice for MapLattice<K, V> {
    fn join(&mut self, other: Self) {
        for (k, v) in other.0 {
            self.insert_join(k, v);
        }
    }

    fn join_ref(&mut self, other: &Self) {
        for (k, v) in &other.0 {
            match self.0.entry(k.clone()) {
                Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
                Entry::Occupied(mut e) => e.get_mut().join_ref(v),
            }
        }
    }
}

impl<K: Ord + Clone, V: Lattice> BottomLattice for MapLattice<K, V> {}

impl<K: Ord, V: Lattice> FromIterator<(K, V)> for MapLattice<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        // insert_join (not plain insert) so duplicate keys in the input merge
        // instead of last-one-wins.
        let mut m = Self::new();
        for (k, v) in iter {
            m.insert_join(k, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max::MaxLattice;
    use crate::set::SetLattice;

    #[test]
    fn pointwise_merge() {
        let mut a: MapLattice<&str, MaxLattice<u32>> =
            [("x", 1.into()), ("y", 5.into())].into_iter().collect();
        let b: MapLattice<&str, MaxLattice<u32>> =
            [("x", 3.into()), ("z", 2.into())].into_iter().collect();
        a.join(b);
        assert_eq!(a.get(&"x").unwrap().get(), &3);
        assert_eq!(a.get(&"y").unwrap().get(), &5);
        assert_eq!(a.get(&"z").unwrap().get(), &2);
    }

    #[test]
    fn from_iter_merges_duplicates() {
        let m: MapLattice<&str, MaxLattice<u32>> =
            [("x", 1.into()), ("x", 9.into()), ("x", 4.into())]
                .into_iter()
                .collect();
        assert_eq!(m.get(&"x").unwrap().get(), &9);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn nested_composition() {
        // A key→cache-set index, as used by Anna's update propagation.
        let mut idx: MapLattice<&str, SetLattice<u16>> = MapLattice::new();
        idx.insert_join("k1", SetLattice::singleton(1));
        idx.insert_join("k1", SetLattice::singleton(2));
        idx.insert_join("k2", SetLattice::singleton(1));
        assert_eq!(idx.get(&"k1").unwrap().len(), 2);
        assert_eq!(idx.get(&"k2").unwrap().len(), 1);
    }

    #[test]
    fn join_ref_matches_join() {
        let a: MapLattice<u8, MaxLattice<u8>> =
            [(1, 2.into()), (2, 3.into())].into_iter().collect();
        let b: MapLattice<u8, MaxLattice<u8>> =
            [(1, 9.into()), (3, 1.into())].into_iter().collect();
        let mut via_ref = a.clone();
        via_ref.join_ref(&b);
        assert_eq!(via_ref, a.joined(b));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::max::MaxLattice;
    use proptest::collection::btree_map;
    use proptest::prelude::*;

    fn map_lat() -> impl Strategy<Value = MapLattice<u8, MaxLattice<u8>>> {
        btree_map(any::<u8>(), any::<u8>(), 0..8).prop_map(|m| {
            m.into_iter()
                .map(|(k, v)| (k, MaxLattice::new(v)))
                .collect()
        })
    }

    proptest! {
        #[test]
        fn aci(a in map_lat(), b in map_lat(), c in map_lat()) {
            prop_assert_eq!(
                a.clone().joined(b.clone()).joined(c.clone()),
                a.clone().joined(b.clone().joined(c))
            );
            prop_assert_eq!(a.clone().joined(b.clone()), b.joined(a.clone()));
            prop_assert_eq!(a.clone().joined(a.clone()), a);
        }

        #[test]
        fn join_dominates_pointwise(a in map_lat(), b in map_lat()) {
            let j = a.clone().joined(b.clone());
            for (k, v) in a.iter().chain(b.iter()) {
                prop_assert!(j.get(k).unwrap().get() >= v.get());
            }
        }
    }
}
