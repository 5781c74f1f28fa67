//! [`TieredStore`]: per-node key storage with memory and disk tiers.
//!
//! Anna moves data "between storage tiers (memory and disk) for cost savings"
//! (paper §2.2). The store is a bounded LRU memory tier over an optional
//! log-structured engine ([`crate::lsm::LsmEngine`]) behind a
//! [`crate::lsm::DiskEnv`]:
//!
//! * **With an engine** (a durable node): the engine holds every key. Each
//!   accepted `merge`/`delete` is written through to its WAL *before* the
//!   node acknowledges it, so the memory tier is a pure cache. Past the
//!   memory budget the least-recently-used keys are dropped from memory; a
//!   later read fetches them from the engine (`Tier::Disk`, which the node
//!   charges its disk latency) and promotes them again. A node restart
//!   rebuilds the store from the manifest + WAL ([`TieredStore::durable`]).
//! * **Without one** (a `Durability::Off` node): every key lives in memory,
//!   nothing spills, and no access reports `Tier::Disk`.
//!
//! Membership of spilled keys is the engine's to answer (its blooms and
//! sparse index); the store keeps only aggregate counters — live keys,
//! memory-tier bytes and disk-resident bytes — so `len()` and
//! `payload_bytes()` stay O(1) on the per-gossip-tick stats path.
//!
//! Hot-path notes: recency is tracked by the shared O(1)
//! [`cloudburst_lru::SlotLru`], with each memory-tier entry carrying its
//! recency slot, and `get`/`merge` return capsule *handles* —
//! `Capsule::clone` is a refcount bump, so serving a read copies no payload
//! bytes.

use std::collections::HashMap;

use cloudburst_lattice::{Capsule, CapsuleError, Key};
use cloudburst_lru::SlotLru;

use crate::lsm::{DiskError, LsmEngine};

/// Which tier served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// In-memory tier.
    Memory,
    /// Disk tier: the engine, read on a memory miss (the node adds its disk
    /// latency).
    Disk,
}

/// A memory-tier entry: the capsule handle plus its recency slot, so a hit
/// resolves value *and* LRU position with a single hash lookup.
#[derive(Debug)]
struct MemEntry {
    capsule: Capsule,
    slot: u32,
}

/// A two-tier lattice store for one storage node.
#[derive(Debug)]
pub struct TieredStore {
    mem: HashMap<Key, MemEntry>,
    /// O(1) recency list over memory-tier keys (coldest first).
    lru: SlotLru,
    /// The disk tier; `None` keeps every key in memory.
    engine: Option<Box<LsmEngine>>,
    /// Live keys across both tiers.
    keys: usize,
    mem_bytes: usize,
    /// Payload bytes of keys resident only on the engine.
    disk_bytes: usize,
    capacity_bytes: usize,
}

impl TieredStore {
    /// A memory-only store: every key stays in memory and nothing spills.
    /// `_capacity_bytes` is unused (a memory tier with nothing beneath it
    /// has nowhere to spill to); the parameter remains for source
    /// compatibility with existing callers.
    pub fn new(_capacity_bytes: usize) -> Self {
        Self::with_engine(usize::MAX, None)
    }

    /// A store whose memory tier caches at most `capacity_bytes` of payload
    /// over a durable LSM engine. The engine has already run recovery; the
    /// store rebuilds its key/byte counters from a full scan. The memory
    /// tier starts cold (a restarted node re-warms from traffic, as a real
    /// one would).
    pub fn durable(capacity_bytes: usize, engine: LsmEngine) -> Self {
        let mut store = Self::with_engine(capacity_bytes, Some(Box::new(engine)));
        for (_, capsule) in store.entries() {
            store.keys += 1;
            store.disk_bytes += capsule.payload_len();
        }
        store
    }

    fn with_engine(capacity_bytes: usize, engine: Option<Box<LsmEngine>>) -> Self {
        Self {
            mem: HashMap::new(),
            lru: SlotLru::new(),
            engine,
            keys: 0,
            mem_bytes: 0,
            disk_bytes: 0,
            capacity_bytes,
        }
    }

    /// Whether this store writes through to a durable engine.
    pub fn is_durable(&self) -> bool {
        self.engine.is_some()
    }

    /// Make every accepted write durable (the WAL group-commit point).
    /// No-op without an engine. Node acks are released only after this
    /// returns `Ok`.
    pub fn sync_wal(&mut self) -> Result<(), DiskError> {
        self.engine.as_mut().map_or(Ok(()), |e| e.sync())
    }

    /// Whether the durable WAL has appended-but-unsynced records (i.e.
    /// acks are pending a [`TieredStore::sync_wal`]).
    pub fn wal_dirty(&self) -> bool {
        self.engine.as_ref().is_some_and(|e| e.wal_dirty())
    }

    /// Number of SSTable runs in the durable engine (0 without one).
    pub fn sstable_count(&self) -> usize {
        self.engine.as_ref().map_or(0, |e| e.table_count())
    }

    /// Read a key, promoting disk hits back into memory. Returns a cheap
    /// handle to the capsule (no payload copy) and the tier that served it.
    pub fn get(&mut self, key: &Key) -> Option<(Capsule, Tier)> {
        if let Some(entry) = self.mem.get(key) {
            self.lru.touch(entry.slot);
            return Some((entry.capsule.clone(), Tier::Memory));
        }
        let promoted = self.engine.as_ref()?.get(key)?;
        // Promote: recently accessed data belongs in memory.
        self.disk_bytes -= promoted.payload_len();
        self.insert_mem(key.clone(), promoted.clone());
        self.spill_if_needed();
        Some((promoted, Tier::Disk))
    }

    /// Peek without promotion or LRU updates (used by gossip flushes and
    /// replication repair). Returns a cheap handle (refcount bump).
    pub fn peek(&self, key: &Key) -> Option<Capsule> {
        match self.mem.get(key) {
            Some(entry) => Some(entry.capsule.clone()),
            None => self.engine.as_ref()?.get(key),
        }
    }

    /// Merge `capsule` into `key` (inserting if absent). Returns a cheap
    /// handle to the merged capsule and the tier the key resided on before
    /// the write.
    ///
    /// A memory hit joins in place; only a miss reads the engine. With an
    /// engine the accepted delta reaches the WAL before this returns, but
    /// is only durable after [`TieredStore::sync_wal`] — the node defers the
    /// client ack until then. A kind-mismatched write is rejected *before*
    /// touching the WAL, so the log only ever holds accepted deltas.
    pub fn merge(&mut self, key: Key, capsule: Capsule) -> Result<(Capsule, Tier), CapsuleError> {
        let delta = self.engine.is_some().then(|| capsule.clone());
        let (merged, tier) = if let Some(entry) = self.mem.get_mut(&key) {
            let old_len = entry.capsule.payload_len();
            entry.capsule.try_join(capsule)?;
            self.lru.touch(entry.slot);
            self.mem_bytes = self.mem_bytes + entry.capsule.payload_len() - old_len;
            (entry.capsule.clone(), Tier::Memory)
        } else {
            let (merged, tier) = match self.engine.as_ref().and_then(|e| e.get(&key)) {
                Some(mut existing) => {
                    let old_len = existing.payload_len();
                    existing.try_join(capsule)?;
                    self.disk_bytes -= old_len;
                    (existing, Tier::Disk)
                }
                None => {
                    self.keys += 1;
                    (capsule, Tier::Memory)
                }
            };
            self.insert_mem(key.clone(), merged.clone());
            (merged, tier)
        };
        if let (Some(engine), Some(delta)) = (self.engine.as_mut(), delta) {
            engine.put(key, delta);
        }
        self.spill_if_needed();
        Ok((merged, tier))
    }

    /// Remove a key from both tiers. Returns whether it existed. With an
    /// engine this writes a WAL tombstone (durable after the next sync).
    pub fn delete(&mut self, key: &Key) -> bool {
        let existed = if let Some(entry) = self.mem.remove(key) {
            self.mem_bytes -= entry.capsule.payload_len();
            self.lru.remove(entry.slot);
            true
        } else if let Some(capsule) = self.engine.as_ref().and_then(|e| e.get(key)) {
            self.disk_bytes -= capsule.payload_len();
            true
        } else {
            false
        };
        if existed {
            self.keys -= 1;
            if let Some(engine) = self.engine.as_mut() {
                engine.delete(key);
            }
        }
        existed
    }

    /// Every live `(key, merged capsule)` pair, for rebalancing and key
    /// dumps. With an engine this is a full engine scan — the engine holds
    /// every key, and every merge was written through, so its values agree
    /// with the memory tier's. O(keyspace), like its callers.
    pub fn entries(&self) -> Vec<(Key, Capsule)> {
        match &self.engine {
            Some(engine) => engine.scan(),
            None => self
                .mem
                .iter()
                .map(|(k, e)| (k.clone(), e.capsule.clone()))
                .collect(),
        }
    }

    /// Total keys stored.
    pub fn len(&self) -> usize {
        self.keys
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// Keys resident in memory.
    pub fn memory_keys(&self) -> usize {
        self.mem.len()
    }

    /// Keys resident only on the disk tier.
    pub fn disk_keys(&self) -> usize {
        self.keys - self.mem.len()
    }

    /// Total payload bytes across both tiers. O(1): both tier counters are
    /// maintained incrementally.
    pub fn payload_bytes(&self) -> usize {
        self.mem_bytes + self.disk_bytes
    }

    fn insert_mem(&mut self, key: Key, capsule: Capsule) {
        self.mem_bytes += capsule.payload_len();
        let slot = self.lru.insert(key.clone());
        self.mem.insert(key, MemEntry { capsule, slot });
    }

    /// Drop the coldest memory-tier handles until the tier fits its budget
    /// (always keeping one key). The engine already holds their data.
    fn spill_if_needed(&mut self) {
        while self.mem_bytes > self.capacity_bytes && self.mem.len() > 1 {
            let Some(key) = self.lru.pop_coldest() else {
                break;
            };
            if let Some(entry) = self.mem.remove(&key) {
                let len = entry.capsule.payload_len();
                self.mem_bytes -= len;
                self.disk_bytes += len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::{DiskEnv, FaultDisk, LsmOptions};
    use bytes::Bytes;
    use cloudburst_lattice::Timestamp;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn lww(clock: u64, payload: &[u8]) -> Capsule {
        Capsule::wrap_lww(Timestamp::new(clock, 0), Bytes::copy_from_slice(payload))
    }

    fn key(i: usize) -> Key {
        Key::new(format!("k{i}"))
    }

    fn open(env: Arc<FaultDisk>, capacity: usize, opts: LsmOptions) -> TieredStore {
        TieredStore::durable(capacity, LsmEngine::open(env, opts))
    }

    fn durable_store(env: Arc<FaultDisk>, capacity: usize) -> TieredStore {
        open(env, capacity, LsmOptions::default())
    }

    /// A durable store over a fresh [`FaultDisk`] whose memory tier holds
    /// `capacity` payload bytes.
    fn spilling(capacity: usize) -> TieredStore {
        durable_store(FaultDisk::new(), capacity)
    }

    #[test]
    fn basic_merge_and_get() {
        let mut s = TieredStore::new(1024);
        s.merge(key(1), lww(1, b"v1")).unwrap();
        s.merge(key(1), lww(2, b"v2")).unwrap();
        let (c, tier) = s.get(&key(1)).unwrap();
        assert_eq!(c.read_value().as_ref(), b"v2");
        assert_eq!(tier, Tier::Memory);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merge_respects_lattice_semantics() {
        let mut s = TieredStore::new(1024);
        s.merge(key(1), lww(5, b"newer")).unwrap();
        // A stale write arriving later must not clobber.
        s.merge(key(1), lww(2, b"stale")).unwrap();
        assert_eq!(s.get(&key(1)).unwrap().0.read_value().as_ref(), b"newer");
    }

    #[test]
    fn cold_keys_spill_to_disk_and_promote_on_access() {
        // Capacity of 8 bytes; each value is 4 bytes → at most 2 keys in memory.
        let mut s = spilling(8);
        for i in 0..4 {
            s.merge(key(i), lww(1, b"xxxx")).unwrap();
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.memory_keys(), 2);
        assert_eq!(s.disk_keys(), 2);
        // Key 0 was least recently used → on disk; access promotes it.
        let (_, tier) = s.get(&key(0)).unwrap();
        assert_eq!(tier, Tier::Disk);
        let (_, tier) = s.get(&key(0)).unwrap();
        assert_eq!(tier, Tier::Memory);
        // Memory stayed within budget.
        assert!(s.memory_keys() <= 2);
    }

    #[test]
    fn recently_used_keys_stay_in_memory() {
        let mut s = spilling(8);
        s.merge(key(0), lww(1, b"xxxx")).unwrap();
        s.merge(key(1), lww(1, b"xxxx")).unwrap();
        // Touch key 0 so key 1 is the LRU.
        s.get(&key(0)).unwrap();
        s.merge(key(2), lww(1, b"xxxx")).unwrap();
        let (_, tier0) = s.get(&key(0)).unwrap();
        assert_eq!(tier0, Tier::Memory);
        let (_, tier1) = s.get(&key(1)).unwrap();
        assert_eq!(tier1, Tier::Disk);
    }

    #[test]
    fn delete_works_across_tiers() {
        let mut s = spilling(8);
        for i in 0..4 {
            s.merge(key(i), lww(1, b"xxxx")).unwrap();
        }
        assert!(s.delete(&key(0))); // on disk
        assert!(s.delete(&key(3))); // in memory
        assert!(!s.delete(&key(0)));
        assert_eq!(s.len(), 2);
        assert!(s.peek(&key(0)).is_none());
        assert!(s.get(&key(3)).is_none());
    }

    #[test]
    fn merge_on_disk_key_promotes() {
        let mut s = spilling(8);
        for i in 0..4 {
            s.merge(key(i), lww(1, b"xxxx")).unwrap();
        }
        let (_, tier) = s.merge(key(0), lww(2, b"yyyy")).unwrap();
        assert_eq!(tier, Tier::Disk);
        let (c, tier) = s.get(&key(0)).unwrap();
        assert_eq!(c.read_value().as_ref(), b"yyyy");
        assert_eq!(tier, Tier::Memory, "the merge promoted the key");
    }

    #[test]
    fn byte_accounting_tracks_growth() {
        let mut s = TieredStore::new(1024);
        s.merge(key(1), lww(1, b"ab")).unwrap();
        assert_eq!(s.payload_bytes(), 2);
        s.merge(key(1), lww(2, b"abcd")).unwrap();
        assert_eq!(s.payload_bytes(), 4);
        s.delete(&key(1));
        assert_eq!(s.payload_bytes(), 0);
    }

    #[test]
    fn byte_accounting_is_exact_across_tiers() {
        // Spills, promotions, disk-tier merges, and deletes must keep the
        // O(1) counters in lock-step with a full re-sum of both tiers.
        let mut s = spilling(8);
        let expected =
            |s: &TieredStore| -> usize { s.entries().iter().map(|(_, c)| c.payload_len()).sum() };
        for i in 0..6 {
            s.merge(key(i), lww(1, b"xxxx")).unwrap();
            assert_eq!(s.payload_bytes(), expected(&s));
        }
        s.get(&key(0)).unwrap(); // promote from disk
        assert_eq!(s.payload_bytes(), expected(&s));
        s.merge(key(1), lww(2, b"yy")).unwrap(); // merge a disk-resident key
        assert_eq!(s.payload_bytes(), expected(&s));
        s.delete(&key(2)); // delete from disk
        s.delete(&key(0)); // delete from memory
        assert_eq!(s.payload_bytes(), expected(&s));
    }

    #[test]
    fn kind_mismatch_preserves_both_tiers() {
        use cloudburst_lattice::{ConsistencyKind, VectorClock};
        let causal = |v: &'static [u8]| {
            Capsule::wrap_causal(VectorClock::singleton(1, 1), [], Bytes::from_static(v))
        };
        // Memory tier: failed merge leaves the entry intact.
        let mut s = TieredStore::new(1024);
        s.merge(key(1), causal(b"mem-val")).unwrap();
        s.merge(key(1), lww(9, b"wrong-kind")).unwrap_err();
        assert_eq!(s.get(&key(1)).unwrap().0.read_value().as_ref(), b"mem-val");
        // Disk tier: spill a causal key, then hit it with an LWW write.
        let mut s = spilling(8);
        s.merge(key(1), causal(b"old-val!")).unwrap();
        s.merge(key(2), lww(1, b"filler-xx")).unwrap();
        assert_eq!(s.disk_keys(), 1, "key 1 must have spilled");
        let bytes = s.payload_bytes();
        s.merge(key(1), lww(9, b"wrong-kind")).unwrap_err();
        assert_eq!(s.payload_bytes(), bytes);
        let (recovered, tier) = s.get(&key(1)).expect("value must survive failed merge");
        assert_eq!(tier, Tier::Disk);
        assert_eq!(recovered.kind(), ConsistencyKind::Causal);
        assert_eq!(recovered.read_value().as_ref(), b"old-val!");
    }

    #[test]
    fn at_least_one_key_stays_in_memory() {
        // A single oversized value must not spill (there is nothing to gain).
        let mut s = spilling(2);
        s.merge(key(1), lww(1, b"oversized-value")).unwrap();
        assert_eq!(s.memory_keys(), 1);
        assert_eq!(s.disk_keys(), 0);
    }

    #[test]
    fn durable_store_survives_reopen() {
        let env = FaultDisk::new();
        let mut s = durable_store(env.clone(), 1024);
        assert!(s.is_durable());
        s.merge(key(1), lww(1, b"v1")).unwrap();
        s.merge(key(2), lww(1, b"v2")).unwrap();
        s.delete(&key(2));
        assert!(s.wal_dirty());
        s.sync_wal().unwrap();
        assert!(!s.wal_dirty());
        drop(s);
        let mut s2 = durable_store(env, 1024);
        assert_eq!(s2.len(), 1);
        let (c, tier) = s2.get(&key(1)).unwrap();
        assert_eq!(c.read_value().as_ref(), b"v1");
        assert_eq!(tier, Tier::Disk, "restart starts with a cold cache");
        assert_eq!(s2.get(&key(1)).unwrap().1, Tier::Memory);
        assert!(s2.peek(&key(2)).is_none());
    }

    #[test]
    fn durable_unsynced_writes_vanish_on_power_loss() {
        let env = FaultDisk::new();
        let mut s = durable_store(env.clone(), 1024);
        s.merge(key(1), lww(1, b"acked")).unwrap();
        s.sync_wal().unwrap();
        s.merge(key(2), lww(1, b"unacked")).unwrap();
        env.power_loss();
        drop(s);
        let s2 = durable_store(env, 1024);
        assert!(s2.peek(&key(1)).is_some());
        assert!(s2.peek(&key(2)).is_none());
    }

    #[test]
    fn durable_eviction_keeps_data_readable() {
        let env = FaultDisk::new();
        let mut s = durable_store(env, 8);
        for i in 0..6 {
            s.merge(key(i), lww(1, b"xxxx")).unwrap();
        }
        assert_eq!(s.len(), 6);
        assert!(s.memory_keys() <= 2);
        assert_eq!(s.disk_keys(), 6 - s.memory_keys());
        for i in 0..6 {
            assert_eq!(s.get(&key(i)).unwrap().0.read_value().as_ref(), b"xxxx");
        }
    }

    #[test]
    fn durable_kind_mismatch_never_reaches_wal() {
        use cloudburst_lattice::VectorClock;
        let env = FaultDisk::new();
        let mut s = durable_store(env.clone(), 1024);
        s.merge(
            key(1),
            Capsule::wrap_causal(VectorClock::singleton(1, 1), [], Bytes::from_static(b"c")),
        )
        .unwrap();
        s.merge(key(1), lww(9, b"wrong-kind")).unwrap_err();
        s.sync_wal().unwrap();
        drop(s);
        // After restart the causal value is intact — the rejected write was
        // never logged, so replay cannot resurrect it.
        let s2 = durable_store(env, 1024);
        let c = s2.peek(&key(1)).unwrap();
        assert_eq!(c.kind(), cloudburst_lattice::ConsistencyKind::Causal);
        assert_eq!(c.read_value().as_ref(), b"c");
    }

    #[test]
    fn durable_byte_accounting_is_exact() {
        let env = FaultDisk::new();
        let mut s = durable_store(env.clone(), 8);
        for i in 0..5 {
            s.merge(key(i), lww(1, b"xxxx")).unwrap();
        }
        assert_eq!(s.payload_bytes(), 20);
        s.merge(key(0), lww(2, b"yyyyyyyy")).unwrap();
        assert_eq!(s.payload_bytes(), 24);
        s.delete(&key(1));
        assert_eq!(s.payload_bytes(), 20);
        s.sync_wal().unwrap();
        drop(s);
        let s2 = durable_store(env, 8);
        assert_eq!(s2.payload_bytes(), 20, "accounting rebuilt from scan");
        assert_eq!(s2.len(), 4);
    }

    /// Past the memory tier's budget most keys live only in the engine, whose
    /// per-run filters answer membership approximately; reads, membership
    /// and counts must still agree with what was written.
    #[test]
    fn disk_index_degrades_past_the_cap_and_stays_correct() {
        // Tiny memory budget so almost everything spills.
        let mut s = spilling(8);
        for i in 0..8 {
            s.merge(key(i), lww(1, b"xxxx")).unwrap();
        }
        assert!(s.disk_keys() >= 6, "crossing the budget spills to the engine");
        assert_eq!(s.len(), 8);
        for i in 0..8 {
            assert!(s.peek(&key(i)).is_some());
            assert_eq!(s.get(&key(i)).unwrap().0.read_value().as_ref(), b"xxxx");
        }
        assert!(s.peek(&key(99)).is_none());
        assert!(s.get(&key(99)).is_none());
        assert_eq!(s.entries().len(), 8);
        for i in 0..6 {
            assert!(s.delete(&key(i)));
        }
        assert!(!s.delete(&key(0)), "double delete reports absence");
        assert_eq!(s.len(), 2);
        assert_eq!(s.entries().len(), 2);
    }

    /// Byte counts of engine-resident keys come from the engine, not from a
    /// per-key index; they must stay exact through overwrites, deletes and a
    /// reopen whose keyspace already lies mostly on disk.
    #[test]
    fn approximate_index_keeps_byte_accounting_exact() {
        let env = FaultDisk::new();
        let mut s = durable_store(env.clone(), 8);
        for i in 0..5 {
            s.merge(key(i), lww(1, b"xxxx")).unwrap();
        }
        assert!(s.disk_keys() >= 3);
        assert_eq!(s.payload_bytes(), 20);
        // Overwrite grows one value by 4 bytes.
        s.merge(key(0), lww(2, b"yyyyyyyy")).unwrap();
        assert_eq!(s.payload_bytes(), 24);
        s.delete(&key(1));
        assert_eq!(s.payload_bytes(), 20);
        assert_eq!(s.len(), 4);
        s.sync_wal().unwrap();
        drop(s);
        let s2 = durable_store(env, 8);
        assert_eq!(s2.memory_keys(), 0, "reopen starts cold");
        assert_eq!(s2.payload_bytes(), 20);
        assert_eq!(s2.len(), 4);
    }

    /// The store keeps only counters; membership, values and enumeration
    /// come from the engine. Across merges, deletes, flushes and a reopen
    /// they must agree with a plain map of what was written.
    #[test]
    fn engine_index_agrees_with_ground_truth_across_merge_delete_reopen() {
        // A tiny memtable so most reads cross flushed runs and compactions.
        let opts = LsmOptions {
            memtable_flush_bytes: 16,
            ..LsmOptions::default()
        };
        let check = |s: &TieredStore, truth: &BTreeMap<Key, Vec<u8>>| {
            assert_eq!(s.len(), truth.len());
            assert_eq!(s.disk_keys(), truth.len() - s.memory_keys());
            let bytes: usize = truth.values().map(Vec::len).sum();
            assert_eq!(s.payload_bytes(), bytes);
            let entries: BTreeMap<Key, Vec<u8>> = s
                .entries()
                .into_iter()
                .map(|(k, c)| (k, c.read_value().to_vec()))
                .collect();
            assert_eq!(&entries, truth);
            for i in 0..12 {
                let peeked = s.peek(&key(i)).map(|c| c.read_value().to_vec());
                assert_eq!(peeked.as_ref(), truth.get(&key(i)), "key {i}");
            }
        };
        let env = FaultDisk::new();
        let mut s = open(env.clone(), 8, opts);
        let mut truth = BTreeMap::new();
        for i in 0..10 {
            s.merge(key(i), lww(1, b"xxxx")).unwrap();
            truth.insert(key(i), b"xxxx".to_vec());
        }
        check(&s, &truth);
        // Overwrites that grow and shrink, on both tiers.
        s.merge(key(0), lww(2, b"yyyyyyyy")).unwrap();
        s.merge(key(9), lww(2, b"z")).unwrap();
        truth.insert(key(0), b"yyyyyyyy".to_vec());
        truth.insert(key(9), b"z".to_vec());
        check(&s, &truth);
        for i in 1..6 {
            assert!(s.delete(&key(i)));
            truth.remove(&key(i));
        }
        assert!(!s.delete(&key(1)), "double delete reports absence");
        assert!(!s.delete(&key(99)), "absent key reports absence");
        assert!(s.get(&key(99)).is_none());
        check(&s, &truth);
        s.sync_wal().unwrap();
        drop(s);
        let s = open(env, 8, opts);
        assert_eq!(s.memory_keys(), 0, "reopen starts cold");
        check(&s, &truth);
    }
}
