//! [`SlotLru`]: an O(1) slab-indexed doubly-linked LRU list, shared by the
//! Anna tiered store (`cloudburst_anna::TieredStore`) and the VM caches
//! (`cloudburst::cache::VmCache`).
//!
//! Both components previously kept recency as a `BTreeSet<(u64, Key)>` plus a
//! `HashMap<Key, u64>` of back-pointers: every touch cost `O(log n)` and two
//! key clones, and every eviction another `O(log n)`. This crate replaces
//! that with an intrusive doubly-linked list whose nodes live in a slab
//! (`Vec` + free-list). Callers keep the returned slot id next to their own
//! map entry, so the hot *touch* path is a pointer splice with **no hashing
//! at all** — the owner's single map lookup finds both the value and the
//! recency slot.
//!
//! Touch, insert, remove, and evict are all `O(1)` with no per-operation
//! allocation in the steady state (slab growth amortizes away; keys are
//! cheap-clone `Arc<str>` handles, moved — not copied — on insert).

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "test code may read the wall clock: it times its own waits"
    )
)]

use cloudburst_lattice::Key;

const NIL: u32 = u32::MAX;

/// Shared placeholder left in freed slab slots so a removed entry's real key
/// text is released immediately rather than pinned until the slot is
/// reused. Cloning it is a refcount bump.
fn tombstone() -> Key {
    static TOMBSTONE: std::sync::OnceLock<Key> = std::sync::OnceLock::new();
    TOMBSTONE.get_or_init(|| Key::new("")).clone()
}

#[derive(Debug, Clone)]
struct Node {
    key: Key,
    prev: u32,
    next: u32,
}

/// The slab-backed recency list. Slots are stable `u32` ids handed out by
/// [`SlotLru::insert`]; the list is ordered coldest-first.
#[derive(Debug)]
pub struct SlotLru {
    slab: Vec<Node>,
    free: Vec<u32>,
    len: usize,
    /// Coldest (least recently used) node.
    head: u32,
    /// Hottest (most recently used) node.
    tail: u32,
}

impl Default for SlotLru {
    /// Equivalent to [`SlotLru::new`] (a derived default would zero
    /// `head`/`tail`, which are NIL-sentinel indices, not counts).
    fn default() -> Self {
        Self::new()
    }
}

impl SlotLru {
    /// An empty list.
    pub fn new() -> Self {
        Self {
            slab: Vec::new(),
            free: Vec::new(),
            len: 0,
            head: NIL,
            tail: NIL,
        }
    }

    /// An empty list with room for `capacity` keys before reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add `key` at the hot end, returning its slot. The caller must not
    /// insert a key it already tracks (keep the slot instead and
    /// [`SlotLru::touch`] it).
    pub fn insert(&mut self, key: Key) -> u32 {
        let idx = self.alloc(key);
        self.push_tail(idx);
        self.len += 1;
        idx
    }

    /// Move `slot` to the hot end. O(1), no hashing.
    pub fn touch(&mut self, slot: u32) {
        if self.tail == slot {
            return;
        }
        self.unlink(slot);
        self.push_tail(slot);
    }

    /// Remove `slot`, returning its key. The slot id must have come from
    /// [`SlotLru::insert`] and not been removed since.
    pub fn remove(&mut self, slot: u32) -> Key {
        self.unlink(slot);
        self.free.push(slot);
        self.len -= 1;
        std::mem::replace(&mut self.slab[slot as usize].key, tombstone())
    }

    /// The least-recently-used key, if any.
    pub fn coldest(&self) -> Option<&Key> {
        (self.head != NIL).then(|| &self.slab[self.head as usize].key)
    }

    /// Remove and return the least-recently-used entry.
    pub fn pop_coldest(&mut self) -> Option<Key> {
        let idx = self.head;
        if idx == NIL {
            return None;
        }
        Some(self.remove(idx))
    }

    /// Keys from coldest to hottest (diagnostics and tests).
    pub fn iter_coldest_first(&self) -> impl Iterator<Item = &Key> {
        let mut cursor = self.head;
        std::iter::from_fn(move || {
            if cursor == NIL {
                return None;
            }
            let node = &self.slab[cursor as usize];
            cursor = node.next;
            Some(&node.key)
        })
    }

    /// Drop all entries, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.free.clear();
        self.len = 0;
        self.head = NIL;
        self.tail = NIL;
    }

    fn alloc(&mut self, key: Key) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.slab[idx as usize] = Node {
                key,
                prev: NIL,
                next: NIL,
            };
            return idx;
        }
        let idx = u32::try_from(self.slab.len()).expect("LRU slab exceeds u32::MAX entries");
        self.slab.push(Node {
            key,
            prev: NIL,
            next: NIL,
        });
        idx
    }

    fn push_tail(&mut self, idx: u32) {
        let old_tail = self.tail;
        {
            let node = &mut self.slab[idx as usize];
            node.prev = old_tail;
            node.next = NIL;
        }
        if old_tail != NIL {
            self.slab[old_tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let node = &self.slab[idx as usize];
            (node.prev, node.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        let node = &mut self.slab[idx as usize];
        node.prev = NIL;
        node.next = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Test double for how TieredStore / CacheShard use SlotLru: the owner
    /// keeps the slot next to its own entry.
    #[derive(Default)]
    struct Owner {
        slots: HashMap<String, u32>,
        lru: SlotLru,
    }

    impl Owner {
        fn touch(&mut self, name: &str) -> bool {
            if let Some(&slot) = self.slots.get(name) {
                self.lru.touch(slot);
                return false;
            }
            let slot = self.lru.insert(k(name));
            self.slots.insert(name.to_string(), slot);
            true
        }

        fn remove(&mut self, name: &str) -> bool {
            let Some(slot) = self.slots.remove(name) else {
                return false;
            };
            self.lru.remove(slot);
            true
        }

        fn pop_coldest(&mut self) -> Option<String> {
            let key = self.lru.pop_coldest()?;
            self.slots.remove(key.as_str());
            Some(key.as_str().to_string())
        }
    }

    fn k(name: &str) -> Key {
        Key::new(name)
    }

    fn order(l: &SlotLru) -> Vec<String> {
        l.iter_coldest_first()
            .map(|k| k.as_str().to_string())
            .collect()
    }

    #[test]
    fn default_is_a_valid_empty_list() {
        // Regression: a derived Default zeroed the head/tail sentinels,
        // corrupting the list from the first touch.
        let mut l = SlotLru::default();
        assert!(l.is_empty());
        assert!(l.coldest().is_none());
        assert!(l.pop_coldest().is_none());
        let a = l.insert(k("a"));
        l.insert(k("b"));
        assert_eq!(order(&l), ["a", "b"]);
        l.touch(a);
        assert_eq!(l.pop_coldest().unwrap().as_str(), "b");
    }

    #[test]
    fn insert_orders_coldest_first() {
        let mut l = SlotLru::new();
        for name in ["k0", "k1", "k2"] {
            l.insert(k(name));
        }
        assert_eq!(order(&l), ["k0", "k1", "k2"]);
        assert_eq!(l.len(), 3);
        assert_eq!(l.coldest().unwrap().as_str(), "k0");
    }

    #[test]
    fn touch_promotes_to_hot_end() {
        let mut l = SlotLru::new();
        let s0 = l.insert(k("k0"));
        l.insert(k("k1"));
        l.insert(k("k2"));
        l.touch(s0);
        assert_eq!(order(&l), ["k1", "k2", "k0"]);
        // Touching the hottest slot is a no-op.
        l.touch(s0);
        assert_eq!(order(&l), ["k1", "k2", "k0"]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn evict_order_is_lru() {
        let mut o = Owner::default();
        for name in ["k0", "k1", "k2", "k3"] {
            assert!(o.touch(name));
        }
        assert!(!o.touch("k1"));
        assert_eq!(o.pop_coldest().unwrap(), "k0");
        assert_eq!(o.pop_coldest().unwrap(), "k2");
        assert_eq!(o.pop_coldest().unwrap(), "k3");
        assert_eq!(o.pop_coldest().unwrap(), "k1");
        assert!(o.pop_coldest().is_none());
        assert!(o.lru.is_empty());
        assert!(o.slots.is_empty());
    }

    #[test]
    fn remove_unlinks_from_any_position_and_reuses_slots() {
        let mut o = Owner::default();
        for name in ["k0", "k1", "k2", "k3", "k4"] {
            o.touch(name);
        }
        assert!(o.remove("k0")); // head
        assert!(o.remove("k2")); // middle
        assert!(o.remove("k4")); // tail
        assert!(!o.remove("k4"));
        assert_eq!(order(&o.lru), ["k1", "k3"]);
        o.touch("k7");
        o.touch("k8");
        o.touch("k9");
        assert_eq!(order(&o.lru), ["k1", "k3", "k7", "k8", "k9"]);
        assert_eq!(o.lru.slab.len(), 5, "slab must reuse freed slots");
    }

    #[test]
    fn removed_slots_release_their_key() {
        let mut l = SlotLru::new();
        let slot = l.insert(k("lru:transient"));
        let removed = l.remove(slot);
        assert_eq!(removed.as_str(), "lru:transient");
        // The freed slab node must not pin the real key alive.
        assert_eq!(l.slab[slot as usize].key.as_str(), "");
    }

    #[test]
    fn clear_resets_but_list_remains_usable() {
        let mut l = SlotLru::new();
        for name in ["k0", "k1", "k2"] {
            l.insert(k(name));
        }
        l.clear();
        assert!(l.is_empty());
        assert!(l.coldest().is_none());
        l.insert(k("k9"));
        assert_eq!(order(&l), ["k9"]);
    }

    #[test]
    fn interleaved_churn_keeps_owner_and_list_consistent() {
        let mut o = Owner::default();
        for round in 0..100usize {
            let name = format!("k{}", round % 17);
            if round % 5 == 0 {
                o.remove(&name);
            } else {
                o.touch(&name);
            }
            // Owner map and list agree at every step.
            assert_eq!(o.lru.iter_coldest_first().count(), o.lru.len());
            assert_eq!(o.slots.len(), o.lru.len());
            for key in o.lru.iter_coldest_first() {
                assert!(o.slots.contains_key(key.as_str()));
            }
        }
    }
}
