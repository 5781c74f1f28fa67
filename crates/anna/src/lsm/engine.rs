//! [`LsmEngine`]: WAL + memtable + SSTables with manifest-driven recovery.
//!
//! Write path: every mutation is framed into the active WAL segment
//! ([`super::wal`]) and applied to the memtable. The record is durable once
//! [`LsmEngine::sync`] returns — the storage node releases client acks only
//! then (WAL-before-ack). When the memtable's payload crosses the flush
//! threshold it is written as one immutable SSTable, the manifest is updated
//! atomically, and a fresh WAL segment begins; once enough runs accumulate,
//! a full-merge compaction folds them into one run **via lattice `merge`** —
//! concurrent CRDT states survive compaction because runs are joined, never
//! last-writer-wins'd. Compaction streams: a k-way merge over per-run
//! cursors that copies a key held by one run verbatim and decodes only the
//! keys it has to join, into one `TableWriter` whose buffer is handed to
//! the env by value.
//!
//! Read path: memtable → per-table bloom filter → sparse index → one ranged
//! read. Tombstones and fragments are ordered by engine sequence number:
//! a key's value is the join of every fragment newer than its newest
//! tombstone. Sequence numbers are issued by the single engine owner (the
//! node thread), so cross-run ordering is exact.
//!
//! Recovery ([`LsmEngine::open`]): load the manifest, open the listed
//! tables, replay the active WAL segment past `flushed_seq`, and delete
//! orphans (tables or temp files that lost their race with a crash). Every
//! step tolerates the crash points the fault-injecting env can script:
//! torn WAL tails, a flush that died before the manifest landed, a
//! compaction that died between table write and manifest update.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloudburst_lattice::codec::{crc32, put_str, put_u32, put_u64, ByteReader};
use cloudburst_lattice::{Capsule, Key};

use super::env::{DiskEnv, DiskError};
use super::sstable::{RunCursor, SsTable, TableEntry, TableWriter};
use super::wal::{encode_record, replay, WalRecord};

/// Engine tuning knobs (all per-node).
#[derive(Debug, Clone, Copy)]
pub struct LsmOptions {
    /// Flush the memtable to an SSTable once its payload reaches this size.
    pub memtable_flush_bytes: usize,
    /// Bloom bits per key for new tables (`0` disables bloom filters).
    pub bloom_bits_per_key: usize,
    /// Compact all runs into one once this many have accumulated.
    pub compact_min_runs: usize,
    /// Sparse-index stride: one index entry every N table entries.
    pub index_every: usize,
}

impl Default for LsmOptions {
    fn default() -> Self {
        Self {
            memtable_flush_bytes: 4 << 20,
            bloom_bits_per_key: 10,
            compact_min_runs: 4,
            index_every: 16,
        }
    }
}

/// One key's state in the memtable.
#[derive(Debug, Default)]
struct MemRecord {
    /// Join of every delta since the last tombstone (or segment start).
    frag: Option<Capsule>,
    /// Highest sequence folded into `frag`.
    frag_seq: u64,
    /// Highest delete sequence observed (0 = none).
    tomb_seq: u64,
}

/// A key's fragments as `(sequence, fragment)` pairs, for [`LsmEngine::resolve`].
type Fragments = Vec<(u64, Capsule)>;

/// What a tombstone adds to the flush trigger beyond its key: the table
/// entry it becomes (key length prefix, two sequence numbers, flag byte).
const TOMBSTONE_BYTES: usize = 21;

/// The active WAL segment also rolls (through a flush) once it holds this
/// many times `memtable_flush_bytes`, however small the memtable: a hot key
/// overwritten forever never grows `mem_bytes`. At 4 a workload writing
/// under ~4 WAL records per distinct memtable key (Zipf-0.99 puts over a
/// large key space write ≈ 2) flushes on `mem_bytes` first, as before.
const WAL_ROLL_FACTOR: usize = 4;

const MANIFEST: &str = "MANIFEST";
const MANIFEST_MAGIC: u32 = 0x414E_4D31; // "ANM1"

#[derive(Debug)]
struct Manifest {
    flushed_seq: u64,
    next_table_id: u64,
    active_wal_id: u64,
    tables: Vec<String>,
}

impl Default for Manifest {
    fn default() -> Self {
        Self {
            flushed_seq: 0,
            next_table_id: 1,
            active_wal_id: 1,
            tables: Vec::new(),
        }
    }
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, MANIFEST_MAGIC);
        put_u64(&mut buf, self.flushed_seq);
        put_u64(&mut buf, self.next_table_id);
        put_u64(&mut buf, self.active_wal_id);
        put_u32(&mut buf, self.tables.len() as u32);
        for t in &self.tables {
            put_str(&mut buf, t);
        }
        let crc = crc32(&buf);
        put_u32(&mut buf, crc);
        buf
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < 4 {
            return None;
        }
        let (body, crc_bytes) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().ok()?);
        if crc32(body) != stored {
            return None;
        }
        let mut r = ByteReader::new(body);
        if r.u32().ok()? != MANIFEST_MAGIC {
            return None;
        }
        let flushed_seq = r.u64().ok()?;
        let next_table_id = r.u64().ok()?;
        let active_wal_id = r.u64().ok()?;
        let n = r.u32().ok()? as usize;
        let mut tables = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            tables.push(r.str().ok()?.to_string());
        }
        Some(Self {
            flushed_seq,
            next_table_id,
            active_wal_id,
            tables,
        })
    }
}

/// Counters describing one recovery pass, surfaced in node stats and the
/// recovery benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// SSTables reopened from the manifest.
    pub tables_opened: usize,
    /// Listed tables that failed to open (corruption) and were skipped.
    pub tables_lost: usize,
    /// WAL records replayed into the memtable.
    pub wal_records_replayed: usize,
    /// Orphan files (temps, stale segments, unlisted tables) deleted.
    pub orphans_removed: usize,
}

/// A log-structured lattice store over one [`DiskEnv`].
#[derive(Debug)]
pub struct LsmEngine {
    env: Arc<dyn DiskEnv>,
    opts: LsmOptions,
    memtable: BTreeMap<Key, MemRecord>,
    /// Approximate bytes the next flush writes: fragment payloads plus one
    /// [`TOMBSTONE_BYTES`] record per delete (the flush trigger).
    mem_bytes: usize,
    /// Bytes in the active WAL segment. Overwrites of one memtable key grow
    /// it without growing `mem_bytes`, so it is a flush trigger of its own.
    wal_bytes: usize,
    /// Open runs, oldest first.
    tables: Vec<SsTable>,
    manifest: Manifest,
    next_seq: u64,
    /// Whether the active WAL segment has appended-but-unsynced records.
    wal_dirty: bool,
    recovery: RecoveryInfo,
}

fn wal_name(id: u64) -> String {
    format!("wal-{id:06}.log")
}

fn table_name(id: u64) -> String {
    format!("sst-{id:06}.sst")
}

impl LsmEngine {
    /// Open (or create) an engine over `env`, running full recovery:
    /// manifest load → table opens → WAL replay → orphan cleanup.
    pub fn open(env: Arc<dyn DiskEnv>, opts: LsmOptions) -> Self {
        let mut recovery = RecoveryInfo::default();
        let manifest = env
            .read(MANIFEST)
            .and_then(|buf| Manifest::decode(&buf))
            .unwrap_or_default();
        let mut tables = Vec::with_capacity(manifest.tables.len());
        for name in &manifest.tables {
            match SsTable::open(Arc::clone(&env), name.clone()) {
                Ok(t) => {
                    tables.push(t);
                    recovery.tables_opened += 1;
                }
                Err(_) => recovery.tables_lost += 1,
            }
        }
        let mut engine = Self {
            env,
            opts,
            memtable: BTreeMap::new(),
            mem_bytes: 0,
            wal_bytes: 0,
            tables,
            manifest,
            next_seq: 0,
            wal_dirty: false,
            recovery,
        };
        // Replay the active segment: only records past the manifest's
        // flushed horizon matter (a crash-mid-flush leaves the old segment
        // active, so already-flushed prefixes are filtered by seq).
        let mut max_seq = engine.manifest.flushed_seq;
        if let Some(buf) = engine.env.read(&wal_name(engine.manifest.active_wal_id)) {
            engine.wal_bytes = buf.len();
            let (records, _) = replay(&buf);
            for record in records {
                let seq = record.seq();
                max_seq = max_seq.max(seq);
                if seq <= engine.manifest.flushed_seq {
                    continue;
                }
                engine.recovery.wal_records_replayed += 1;
                match record {
                    WalRecord::Put { seq, key, capsule } => engine.apply_put(key, capsule, seq),
                    WalRecord::Delete { seq, key } => engine.apply_delete(&key, seq),
                }
            }
        }
        engine.next_seq = max_seq + 1;
        engine.remove_orphans();
        engine
    }

    /// Files a crash can strand: temp files from failed atomic writes,
    /// tables that lost their manifest race, stale WAL segments.
    fn remove_orphans(&mut self) {
        let active_wal = wal_name(self.manifest.active_wal_id);
        for file in self.env.list() {
            let keep =
                file == MANIFEST || file == active_wal || self.manifest.tables.contains(&file);
            if !keep {
                self.env.remove(&file);
                self.recovery.orphans_removed += 1;
            }
        }
    }

    /// What recovery found when this engine was opened.
    pub fn recovery_info(&self) -> RecoveryInfo {
        self.recovery
    }

    /// Number of open SSTable runs.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Keys currently resident in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    /// Highest sequence number covered by SSTables.
    pub fn flushed_seq(&self) -> u64 {
        self.manifest.flushed_seq
    }

    /// Whether the active WAL segment has unsynced records (acks must wait).
    pub fn wal_dirty(&self) -> bool {
        self.wal_dirty
    }

    fn active_wal(&self) -> String {
        wal_name(self.manifest.active_wal_id)
    }

    /// Append a put record to the WAL and apply it to the memtable. The
    /// write is **not durable** until [`LsmEngine::sync`]; callers must not
    /// acknowledge it before then.
    pub fn put(&mut self, key: Key, delta: Capsule) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut frame = Vec::with_capacity(64 + delta.payload_len());
        encode_record(
            &WalRecord::Put {
                seq,
                key: key.clone(),
                capsule: delta.clone(),
            },
            &mut frame,
        );
        self.append_wal(&frame);
        self.apply_put(key, delta, seq);
        self.maybe_flush();
    }

    /// Append a delete record (tombstone) and apply it to the memtable.
    pub fn delete(&mut self, key: &Key) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut frame = Vec::with_capacity(32);
        encode_record(
            &WalRecord::Delete {
                seq,
                key: key.clone(),
            },
            &mut frame,
        );
        self.append_wal(&frame);
        self.apply_delete(key, seq);
        self.maybe_flush();
    }

    fn append_wal(&mut self, frame: &[u8]) {
        self.env.append(&self.active_wal(), frame);
        self.wal_bytes += frame.len();
        self.wal_dirty = true;
    }

    fn apply_put(&mut self, key: Key, delta: Capsule, seq: u64) {
        let entry = self.memtable.entry(key).or_default();
        let old = entry.frag.as_ref().map_or(0, Capsule::payload_len);
        match &mut entry.frag {
            Some(existing) => {
                // The store validates kinds before the WAL append, so a
                // mismatch can only mean replayed history disagrees with
                // itself; keep the newer write in that case.
                if existing.try_join(delta.clone()).is_err() {
                    *existing = delta;
                }
            }
            None => entry.frag = Some(delta),
        }
        entry.frag_seq = entry.frag_seq.max(seq);
        let new = entry.frag.as_ref().map_or(0, Capsule::payload_len);
        self.mem_bytes = self.mem_bytes.saturating_sub(old).saturating_add(new);
    }

    fn apply_delete(&mut self, key: &Key, seq: u64) {
        let entry = self.memtable.entry(key.clone()).or_default();
        if let Some(frag) = entry.frag.take() {
            self.mem_bytes = self.mem_bytes.saturating_sub(frag.payload_len());
        }
        entry.frag_seq = 0;
        entry.tomb_seq = entry.tomb_seq.max(seq);
        // Every tombstone counts, so delete-only traffic still flushes and
        // rolls the WAL segment.
        self.mem_bytes += key.as_str().len() + TOMBSTONE_BYTES;
    }

    /// Make every accepted record durable (group-commit point). Idempotent
    /// and cheap when nothing is pending.
    pub fn sync(&mut self) -> Result<(), DiskError> {
        if !self.wal_dirty {
            return Ok(());
        }
        self.env.sync(&self.active_wal())?;
        self.wal_dirty = false;
        Ok(())
    }

    /// Read one key: join every fragment newer than its newest tombstone,
    /// across the memtable and every run.
    pub fn get(&self, key: &Key) -> Option<Capsule> {
        let mut tomb = 0u64;
        let mut frags = Fragments::new();
        if let Some(m) = self.memtable.get(key) {
            tomb = tomb.max(m.tomb_seq);
            if let Some(frag) = &m.frag {
                frags.push((m.frag_seq, frag.clone()));
            }
        }
        for table in &self.tables {
            if let Some(e) = table.get(key) {
                tomb = tomb.max(e.tomb_seq);
                if let Some(frag) = e.frag {
                    frags.push((e.frag_seq, frag));
                }
            }
        }
        Self::resolve(tomb, frags)
    }

    fn resolve(tomb: u64, mut frags: Fragments) -> Option<Capsule> {
        frags.retain(|(seq, _)| *seq > tomb);
        frags.sort_by_key(|(seq, _)| *seq);
        let mut it = frags.into_iter();
        let (_, mut acc) = it.next()?;
        for (_, frag) in it {
            if acc.try_join(frag.clone()).is_err() {
                acc = frag; // newer write wins a kind disagreement
            }
        }
        Some(acc)
    }

    /// Every live `(key, merged capsule)` pair. Used to rebuild the store's
    /// key accounting after recovery and to walk a node's keys for
    /// rebalance handoffs and key dumps; O(total data), not for the hot
    /// path.
    pub fn scan(&self) -> Vec<(Key, Capsule)> {
        let mut out = Vec::new();
        let mut emit = |key: &Key, tomb: u64, frags| {
            if let Some(c) = Self::resolve(tomb, frags) {
                out.push((key.clone(), c));
            }
        };
        let mut mem = self.memtable.iter().peekable();
        let mut cursors: Vec<RunCursor<'_>> = self.tables.iter().map(SsTable::cursor).collect();
        merge_runs(&mut cursors, |cursors, group| {
            let Some((key, mut tomb, mut frags)) = fold(cursors, group) else {
                return;
            };
            while let Some((k, m)) = mem.next_if(|(k, _)| **k < key) {
                emit(k, m.tomb_seq, m.frags());
            }
            if let Some((_, m)) = mem.next_if(|(k, _)| **k == key) {
                tomb = tomb.max(m.tomb_seq);
                frags.extend(m.frags());
            }
            emit(&key, tomb, frags);
        });
        for (k, m) in mem {
            emit(k, m.tomb_seq, m.frags());
        }
        out
    }

    fn maybe_flush(&mut self) {
        let flush_bytes = self.opts.memtable_flush_bytes;
        if self.mem_bytes >= flush_bytes
            || self.wal_bytes >= flush_bytes.saturating_mul(WAL_ROLL_FACTOR)
        {
            // Best-effort: a failed flush (injected crash) leaves the
            // memtable and WAL intact — nothing is lost, the flush retries
            // on a later write.
            let _ = self.flush();
        }
    }

    /// Flush the memtable into a new SSTable, update the manifest, and roll
    /// the WAL segment. On error the engine state is unchanged (modulo an
    /// orphan file recovery will clean).
    pub fn flush(&mut self) -> Result<(), DiskError> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let mut writer = TableWriter::new(
            self.opts.bloom_bits_per_key,
            self.opts.index_every,
            self.mem_bytes + 64 * self.memtable.len(),
        );
        for (key, m) in &self.memtable {
            writer.push(&TableEntry {
                key: key.clone(),
                frag_seq: m.frag_seq,
                tomb_seq: m.tomb_seq,
                frag: m.frag.clone(),
            });
        }
        let table_id = self.manifest.next_table_id;
        let file = table_name(table_id);
        let table = writer.finish(Arc::clone(&self.env), file.clone())?;
        let old_wal = self.active_wal();
        let mut next = Manifest {
            flushed_seq: self.next_seq - 1,
            next_table_id: table_id + 1,
            active_wal_id: self.manifest.active_wal_id + 1,
            tables: self.manifest.tables.clone(),
        };
        next.tables.push(file);
        self.env.write_atomic_owned(MANIFEST, next.encode())?;
        // Manifest landed: the flush is committed. Finish the transition.
        self.manifest = next;
        self.tables.push(table);
        self.memtable.clear();
        self.mem_bytes = 0;
        self.wal_bytes = 0;
        self.wal_dirty = false;
        self.env.remove(&old_wal);
        self.maybe_compact();
        Ok(())
    }

    fn maybe_compact(&mut self) {
        if self.tables.len() >= self.opts.compact_min_runs.max(2) {
            let _ = self.compact();
        }
    }

    /// Merge every run into one via lattice `join` — CRDT semantics survive
    /// compaction by construction. Tombstones are dropped: after a full
    /// merge no older run can hide behind them, and every memtable record
    /// outranks flushed sequence numbers.
    ///
    /// The merge streams over the runs in key order. A key only one run
    /// holds, with a fragment and no tombstone, is copied as raw bytes —
    /// exactly what decoding, resolving and re-encoding it would write.
    /// Every other key is decoded and joined.
    pub fn compact(&mut self) -> Result<(), DiskError> {
        if self.tables.len() < 2 {
            return Ok(());
        }
        let size_hint: u64 = self
            .tables
            .iter()
            .filter_map(|t| self.env.size_of(&t.file))
            .sum();
        let mut writer = TableWriter::new(
            self.opts.bloom_bits_per_key,
            self.opts.index_every,
            size_hint as usize,
        );
        let mut cursors: Vec<RunCursor<'_>> = self.tables.iter().map(SsTable::cursor).collect();
        merge_runs(&mut cursors, |cursors, group| {
            if let [only] = group {
                if cursors[*only].is_plain() {
                    writer.push_raw(&cursors[*only]);
                    return;
                }
            }
            let Some((key, tomb, frags)) = fold(cursors, group) else {
                return;
            };
            let frag_seq = frags.iter().map(|(s, _)| *s).max().unwrap_or(0).max(tomb);
            if let Some(frag) = Self::resolve(tomb, frags) {
                writer.push(&TableEntry {
                    key,
                    frag_seq,
                    tomb_seq: 0,
                    frag: Some(frag),
                });
            }
        });
        drop(cursors);
        let table_id = self.manifest.next_table_id;
        let file = table_name(table_id);
        let table = writer.finish(Arc::clone(&self.env), file.clone())?;
        let next = Manifest {
            flushed_seq: self.manifest.flushed_seq,
            next_table_id: table_id + 1,
            active_wal_id: self.manifest.active_wal_id,
            tables: vec![file],
        };
        self.env.write_atomic_owned(MANIFEST, next.encode())?;
        for old in &self.tables {
            self.env.remove(&old.file);
        }
        self.manifest = next;
        self.tables = vec![table];
        Ok(())
    }
}

impl MemRecord {
    fn frags(&self) -> Fragments {
        self.frag
            .iter()
            .map(|f| (self.frag_seq, f.clone()))
            .collect()
    }
}

/// Walk every cursor in key order, calling `visit` once per distinct key
/// with the indices of the cursors positioned on it (in run order, oldest
/// first), then step those cursors past it.
fn merge_runs(cursors: &mut [RunCursor<'_>], mut visit: impl FnMut(&[RunCursor<'_>], &[usize])) {
    let mut group = Vec::with_capacity(cursors.len());
    loop {
        group.clear();
        let mut min: Option<&[u8]> = None;
        for (i, cursor) in cursors.iter().enumerate() {
            let Some(key) = cursor.key() else { continue };
            match min.map(|m| key.cmp(m)) {
                None | Some(std::cmp::Ordering::Less) => {
                    min = Some(key);
                    group.clear();
                    group.push(i);
                }
                Some(std::cmp::Ordering::Equal) => group.push(i),
                Some(std::cmp::Ordering::Greater) => {}
            }
        }
        if group.is_empty() {
            return;
        }
        visit(cursors, &group);
        for &i in &group {
            cursors[i].advance();
        }
    }
}

/// Decode the entries the cursors in `group` sit on into the key, its
/// newest tombstone, and its fragments in run order.
fn fold(cursors: &[RunCursor<'_>], group: &[usize]) -> Option<(Key, u64, Fragments)> {
    let mut key = None;
    let mut tomb = 0u64;
    let mut frags = Vec::with_capacity(group.len());
    for e in group.iter().filter_map(|&i| cursors[i].decode()) {
        tomb = tomb.max(e.tomb_seq);
        if let Some(frag) = e.frag {
            frags.push((e.frag_seq, frag));
        }
        key = Some(e.key);
    }
    Some((key?, tomb, frags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::env::FaultDisk;
    use bytes::Bytes;
    use cloudburst_lattice::{Timestamp, VectorClock};

    fn opts_small() -> LsmOptions {
        LsmOptions {
            memtable_flush_bytes: 1 << 30, // manual flushes only
            bloom_bits_per_key: 10,
            compact_min_runs: 1 << 30,
            index_every: 4,
        }
    }

    fn lww(clock: u64, v: &[u8]) -> Capsule {
        Capsule::wrap_lww(Timestamp::new(clock, 0), Bytes::copy_from_slice(v))
    }

    fn key(i: usize) -> Key {
        Key::new(format!("k{i:03}"))
    }

    #[test]
    fn put_get_across_flush_and_reopen() {
        let env = FaultDisk::new();
        let mut e = LsmEngine::open(env.clone(), opts_small());
        for i in 0..20 {
            e.put(key(i), lww(1, b"first"));
        }
        e.flush().unwrap();
        for i in 0..20 {
            e.put(key(i), lww(2, b"second"));
        }
        e.sync().unwrap();
        for i in 0..20 {
            assert_eq!(e.get(&key(i)).unwrap().read_value().as_ref(), b"second");
        }
        drop(e);
        let e2 = LsmEngine::open(env, opts_small());
        assert_eq!(e2.recovery_info().tables_opened, 1);
        assert_eq!(e2.recovery_info().wal_records_replayed, 20);
        for i in 0..20 {
            assert_eq!(e2.get(&key(i)).unwrap().read_value().as_ref(), b"second");
        }
    }

    #[test]
    fn power_loss_keeps_synced_drops_unsynced() {
        let env = FaultDisk::new();
        let mut e = LsmEngine::open(env.clone(), opts_small());
        e.put(key(1), lww(1, b"acked"));
        e.sync().unwrap();
        e.put(key(2), lww(1, b"never-acked"));
        // No sync for key 2 — the node would not have acked it.
        env.power_loss();
        let e2 = LsmEngine::open(env, opts_small());
        assert_eq!(e2.get(&key(1)).unwrap().read_value().as_ref(), b"acked");
        assert!(e2.get(&key(2)).is_none(), "unsynced write must vanish");
    }

    #[test]
    fn failed_sync_keeps_the_wal_dirty_until_a_sync_succeeds() {
        // What holding acks on a failed sync relies on: while syncs fail
        // the record is not durable, and the engine keeps saying so.
        let env = FaultDisk::new();
        let mut e = LsmEngine::open(env.clone(), opts_small());
        e.put(key(1), lww(1, b"held"));
        env.set_fail_syncs(true);
        assert!(e.sync().is_err());
        assert!(e.wal_dirty(), "a failed sync must leave the WAL dirty");
        env.power_loss();
        let e2 = LsmEngine::open(env, opts_small());
        assert!(e2.get(&key(1)).is_none(), "an unsynced record survived");

        // Once syncs recover, the next sync makes the record durable.
        let env = FaultDisk::new();
        let mut e = LsmEngine::open(env.clone(), opts_small());
        e.put(key(1), lww(1, b"held"));
        env.set_fail_syncs(true);
        assert!(e.sync().is_err());
        assert!(e.wal_dirty());
        env.set_fail_syncs(false);
        e.sync().unwrap();
        assert!(!e.wal_dirty());
        env.power_loss();
        let e2 = LsmEngine::open(env, opts_small());
        assert_eq!(e2.get(&key(1)).unwrap().read_value().as_ref(), b"held");
    }

    #[test]
    fn torn_wal_tail_recovers_prefix() {
        let env = FaultDisk::new();
        let mut e = LsmEngine::open(env.clone(), opts_small());
        e.put(key(1), lww(1, b"one"));
        e.sync().unwrap();
        e.put(key(2), lww(1, b"two"));
        // Power loss tears the unsynced frame mid-record.
        env.set_torn_tail(Some(7));
        env.power_loss();
        let e2 = LsmEngine::open(env, opts_small());
        assert_eq!(e2.get(&key(1)).unwrap().read_value().as_ref(), b"one");
        assert!(e2.get(&key(2)).is_none(), "torn record must not resurface");
    }

    #[test]
    fn crash_mid_flush_recovers_from_wal() {
        let env = FaultDisk::new();
        let mut e = LsmEngine::open(env.clone(), opts_small());
        for i in 0..10 {
            e.put(key(i), lww(1, b"v"));
        }
        e.sync().unwrap();
        env.fail_atomic_writes_after(Some(0));
        assert!(e.flush().is_err(), "injected flush crash");
        // In-process state is still fully readable.
        for i in 0..10 {
            assert!(e.get(&key(i)).is_some());
        }
        drop(e);
        env.fail_atomic_writes_after(None);
        env.power_loss();
        let e2 = LsmEngine::open(env.clone(), opts_small());
        for i in 0..10 {
            assert_eq!(e2.get(&key(i)).unwrap().read_value().as_ref(), b"v");
        }
        // The stranded table temp was cleaned up.
        assert!(e2.recovery_info().orphans_removed >= 1);
        assert!(env.list().iter().all(|f| !f.ends_with(".tmp")));
    }

    #[test]
    fn crash_between_table_and_manifest_recovers_from_wal() {
        let env = FaultDisk::new();
        let mut e = LsmEngine::open(env.clone(), opts_small());
        for i in 0..10 {
            e.put(key(i), lww(1, b"v"));
        }
        e.sync().unwrap();
        // Table write succeeds, manifest write fails.
        env.fail_atomic_writes_after(Some(1));
        assert!(e.flush().is_err());
        drop(e);
        env.fail_atomic_writes_after(None);
        env.power_loss();
        let e2 = LsmEngine::open(env, opts_small());
        assert_eq!(e2.recovery_info().tables_opened, 0);
        assert!(
            e2.recovery_info().orphans_removed >= 1,
            "orphan table removed"
        );
        for i in 0..10 {
            assert_eq!(e2.get(&key(i)).unwrap().read_value().as_ref(), b"v");
        }
    }

    #[test]
    fn crash_mid_compaction_keeps_old_runs() {
        let env = FaultDisk::new();
        let mut e = LsmEngine::open(env.clone(), opts_small());
        for run in 0..3u64 {
            for i in 0..5 {
                e.put(key(i), lww(run + 1, format!("run{run}").as_bytes()));
            }
            e.flush().unwrap();
        }
        assert_eq!(e.table_count(), 3);
        // New merged table lands, manifest update dies.
        env.fail_atomic_writes_after(Some(1));
        assert!(e.compact().is_err());
        drop(e);
        env.fail_atomic_writes_after(None);
        env.power_loss();
        let e2 = LsmEngine::open(env, opts_small());
        assert_eq!(e2.recovery_info().tables_opened, 3, "old runs intact");
        for i in 0..5 {
            assert_eq!(e2.get(&key(i)).unwrap().read_value().as_ref(), b"run2");
        }
    }

    #[test]
    fn compaction_merges_lattices_not_lww() {
        let env = FaultDisk::new();
        let mut e = LsmEngine::open(env.clone(), opts_small());
        // Two causally-concurrent writes to one key, in different runs.
        e.put(
            Key::new("shared"),
            Capsule::wrap_causal(VectorClock::singleton(1, 1), [], Bytes::from_static(b"a")),
        );
        e.flush().unwrap();
        e.put(
            Key::new("shared"),
            Capsule::wrap_causal(VectorClock::singleton(2, 1), [], Bytes::from_static(b"b")),
        );
        e.flush().unwrap();
        assert_eq!(e.table_count(), 2);
        e.compact().unwrap();
        assert_eq!(e.table_count(), 1);
        // Both concurrent versions must survive the merge...
        let c = e.get(&Key::new("shared")).unwrap();
        let Capsule::Causal(lat) = &c else {
            panic!("kind")
        };
        assert!(
            lat.has_conflicts(),
            "compaction must not drop a concurrent version"
        );
        // ...and the restart after it.
        drop(e);
        let e2 = LsmEngine::open(env, opts_small());
        let c = e2.get(&Key::new("shared")).unwrap();
        let Capsule::Causal(lat) = &c else {
            panic!("kind")
        };
        assert!(lat.has_conflicts());
        assert_eq!(lat.versions().len(), 2);
    }

    #[test]
    fn tombstones_shadow_older_runs_and_compact_away() {
        let env = FaultDisk::new();
        let mut e = LsmEngine::open(env.clone(), opts_small());
        e.put(key(1), lww(1, b"old"));
        e.put(key(2), lww(1, b"keep"));
        e.flush().unwrap();
        e.delete(&key(1));
        e.flush().unwrap();
        assert!(e.get(&key(1)).is_none(), "tombstone hides the older run");
        assert!(e.get(&key(2)).is_some());
        e.compact().unwrap();
        assert!(e.get(&key(1)).is_none());
        let survivors = e.scan();
        assert_eq!(survivors.len(), 1, "tombstone dropped at compaction");
        // Re-put after the delete works and survives reopen.
        e.put(key(1), lww(9, b"reborn"));
        e.sync().unwrap();
        drop(e);
        let e2 = LsmEngine::open(env, opts_small());
        assert_eq!(e2.get(&key(1)).unwrap().read_value().as_ref(), b"reborn");
    }

    #[test]
    fn delete_then_put_in_same_segment() {
        let env = FaultDisk::new();
        let mut e = LsmEngine::open(env.clone(), opts_small());
        e.put(key(1), lww(1, b"v1"));
        e.delete(&key(1));
        e.put(key(1), lww(2, b"v2"));
        e.sync().unwrap();
        assert_eq!(e.get(&key(1)).unwrap().read_value().as_ref(), b"v2");
        drop(e);
        let e2 = LsmEngine::open(env, opts_small());
        assert_eq!(e2.get(&key(1)).unwrap().read_value().as_ref(), b"v2");
    }

    #[test]
    fn automatic_flush_and_compaction_by_thresholds() {
        let env = FaultDisk::new();
        let opts = LsmOptions {
            memtable_flush_bytes: 256,
            bloom_bits_per_key: 10,
            compact_min_runs: 3,
            index_every: 4,
        };
        let mut e = LsmEngine::open(env, opts);
        for i in 0..200 {
            e.put(key(i % 40), lww(i as u64 + 1, &[b'x'; 32]));
        }
        e.sync().unwrap();
        assert!(e.flushed_seq() > 0, "threshold flushes must have run");
        assert!(
            e.table_count() < 3,
            "compaction must keep run count bounded"
        );
        for i in 0..40 {
            assert!(e.get(&key(i)).is_some());
        }
    }

    #[test]
    fn deletes_alone_trigger_flushes() {
        let env = FaultDisk::new();
        let opts = LsmOptions {
            memtable_flush_bytes: 4 << 10,
            compact_min_runs: 4,
            ..opts_small()
        };
        let mut e = LsmEngine::open(env.clone(), opts);
        for i in 0..20_000 {
            e.delete(&Key::new(format!("gone-{i:05}")));
        }
        e.sync().unwrap();
        assert!(
            e.flushed_seq() > 0,
            "tombstones must reach the flush trigger"
        );
        assert!(e.memtable_len() < 1_000, "memtable must stay bounded");
        let wal = env.read(&e.active_wal()).map_or(0, |w| w.len());
        assert!(wal < 64 << 10, "WAL segment must roll, holds {wal} bytes");
    }

    #[test]
    fn overwrites_alone_roll_the_wal() {
        let env = FaultDisk::new();
        let opts = LsmOptions {
            memtable_flush_bytes: 4 << 10,
            compact_min_runs: 4,
            ..opts_small()
        };
        let mut e = LsmEngine::open(env.clone(), opts);
        let hot = Key::new("hot");
        for i in 0..20_000u64 {
            e.put(hot.clone(), lww(i + 1, b"v"));
        }
        e.sync().unwrap();
        assert!(e.flushed_seq() > 0, "overwrites must reach a flush trigger");
        let wal = env.read(&e.active_wal()).map_or(0, |w| w.len());
        assert!(wal < 64 << 10, "WAL segment must roll, holds {wal} bytes");
        assert_eq!(e.get(&hot).unwrap(), lww(20_000, b"v"));
    }

    #[test]
    fn scan_matches_gets() {
        let env = FaultDisk::new();
        let mut e = LsmEngine::open(env, opts_small());
        for i in 0..30 {
            e.put(key(i), lww(1, format!("v{i}").as_bytes()));
        }
        e.flush().unwrap();
        for i in 0..10 {
            e.put(key(i), lww(2, b"updated"));
        }
        e.delete(&key(15));
        let scan = e.scan();
        assert_eq!(scan.len(), 29);
        for (k, c) in scan {
            assert_eq!(e.get(&k).unwrap(), c);
        }
    }
}

/// The streaming merge against the decode-everything merge it replaced.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::lsm::env::FaultDisk;
    use bytes::Bytes;
    use cloudburst_lattice::codec::decode_capsule;
    use cloudburst_lattice::{Timestamp, VectorClock};
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    /// Every entry of a table, decoded from one read of its whole entry
    /// block.
    fn decode_all(env: &FaultDisk, file: &str) -> Vec<TableEntry> {
        let content = env.durable_content(file).expect("table present");
        let n = content.len();
        let meta_offset = u64::from_le_bytes(content[n - 12..n - 4].try_into().unwrap()) as usize;
        let mut r = ByteReader::new(&content[4..meta_offset]);
        let mut out = Vec::new();
        while r.remaining() > 0 {
            let key = Key::new(r.str().unwrap());
            let frag_seq = r.u64().unwrap();
            let tomb_seq = r.u64().unwrap();
            let frag = match r.u8().unwrap() {
                0 => None,
                _ => Some(decode_capsule(&mut r).unwrap()),
            };
            out.push(TableEntry {
                key,
                frag_seq,
                tomb_seq,
                frag,
            });
        }
        out
    }

    type Sources = BTreeMap<Key, (u64, Vec<(u64, Capsule)>)>;

    fn gather(runs: &[Vec<TableEntry>]) -> Sources {
        let mut sources = Sources::new();
        for e in runs.iter().flatten() {
            let slot = sources.entry(e.key.clone()).or_default();
            slot.0 = slot.0.max(e.tomb_seq);
            if let Some(frag) = &e.frag {
                slot.1.push((e.frag_seq, frag.clone()));
            }
        }
        sources
    }

    fn reference_compaction(runs: &[Vec<TableEntry>]) -> Vec<TableEntry> {
        gather(runs)
            .into_iter()
            .filter_map(|(key, (tomb, frags))| {
                let frag_seq = frags.iter().map(|(s, _)| *s).max().unwrap_or(0).max(tomb);
                LsmEngine::resolve(tomb, frags).map(|frag| TableEntry {
                    key,
                    frag_seq,
                    tomb_seq: 0,
                    frag: Some(frag),
                })
            })
            .collect()
    }

    fn reference_scan(runs: &[Vec<TableEntry>], e: &LsmEngine) -> Vec<(Key, Capsule)> {
        let mut sources = gather(runs);
        for (key, m) in &e.memtable {
            let slot = sources.entry(key.clone()).or_default();
            slot.0 = slot.0.max(m.tomb_seq);
            slot.1.extend(m.frags());
        }
        sources
            .into_iter()
            .filter_map(|(key, (tomb, frags))| LsmEngine::resolve(tomb, frags).map(|c| (key, c)))
            .collect()
    }

    /// Flushes and compactions only when the test asks.
    fn manual() -> LsmOptions {
        LsmOptions {
            memtable_flush_bytes: usize::MAX,
            bloom_bits_per_key: 10,
            compact_min_runs: usize::MAX,
            index_every: 3,
        }
    }

    /// Bigger than a cursor window on its own.
    const OUTSIZED: usize = 70 << 10;

    /// A write of `arg` to key `k`: the key's index picks the lattice kind
    /// (LWW, causal or set) so one key never changes kind.
    fn write(k: usize, arg: u32, outsized: bool) -> Capsule {
        let v = Bytes::from(format!("v{arg}"));
        match k % 3 {
            0 if outsized => Capsule::wrap_lww(
                Timestamp::new(u64::from(arg), 0),
                Bytes::from(vec![arg as u8; OUTSIZED]),
            ),
            0 => Capsule::wrap_lww(Timestamp::new(u64::from(arg), 0), v),
            1 => Capsule::wrap_causal(
                VectorClock::singleton(u64::from(arg % 3), u64::from(arg)),
                [(
                    Key::new(format!("dep{}", arg % 5)),
                    VectorClock::singleton(1, 1),
                )],
                v,
            ),
            _ => Capsule::wrap_set_element(v),
        }
    }

    fn check_scan(env: &FaultDisk, e: &LsmEngine) {
        let runs: Vec<_> = e.tables.iter().map(|t| decode_all(env, &t.file)).collect();
        assert_eq!(e.scan(), reference_scan(&runs, e));
    }

    fn check_compaction(env: &Arc<FaultDisk>, e: &mut LsmEngine) {
        let runs: Vec<_> = e.tables.iter().map(|t| decode_all(env, &t.file)).collect();
        e.compact().unwrap();
        if runs.len() < 2 {
            return;
        }
        let expected = FaultDisk::new();
        SsTable::build(
            expected.clone(),
            "expected".into(),
            &reference_compaction(&runs),
            e.opts.bloom_bits_per_key,
            e.opts.index_every,
        )
        .unwrap();
        assert_eq!(
            env.durable_content(&e.tables[0].file),
            expected.durable_content("expected"),
            "compacted table differs from the reference merge"
        );
    }

    proptest! {
        #[test]
        fn streaming_merge_matches_decode_all(
            ops in pvec((0u8..10, 0usize..24, any::<u32>()), 1..160),
        ) {
            let env = FaultDisk::new();
            let mut e = LsmEngine::open(env.clone(), manual());
            for (op, k, arg) in ops {
                let key = Key::new(format!("key-{k:02}"));
                match op {
                    0..=4 => e.put(key, write(k, arg, op == 4 && arg % 4 == 0)),
                    5 | 6 => e.delete(&key),
                    7 | 8 => e.flush().unwrap(),
                    _ => {
                        check_scan(&env, &e);
                        check_compaction(&env, &mut e);
                    }
                }
            }
            check_scan(&env, &e);
            e.flush().unwrap();
            check_compaction(&env, &mut e);
            check_scan(&env, &e);
        }
    }

    #[test]
    fn keys_held_by_one_to_five_runs() {
        let env = FaultDisk::new();
        let mut e = LsmEngine::open(env.clone(), manual());
        // Key `k` is written in runs 0..=k%5, so groups of every size from
        // one to five meet in the merge; every fourth key is deleted in the
        // last run it appears in, and a few are deleted without a value.
        for run in 0..5 {
            for k in 0..200usize {
                if run <= k % 5 {
                    let key = Key::new(format!("key-{k:03}"));
                    if k % 4 == 0 && run == k % 5 {
                        e.delete(&key);
                    } else {
                        e.put(key, write(k, run as u32 * 1000 + k as u32, k == 7));
                    }
                }
            }
            e.delete(&Key::new(format!("never-{run}")));
            e.flush().unwrap();
        }
        assert_eq!(e.table_count(), 5);
        check_scan(&env, &e);
        check_compaction(&env, &mut e);
        assert_eq!(e.table_count(), 1);
        check_scan(&env, &e);
    }
}
