//! Immutable sorted-run files: sparse-indexed, bloom-filtered SSTables.
//!
//! A table is one atomically-written file:
//!
//! ```text
//! [u32 MAGIC]
//! entry block:   [str key][u64 frag_seq][u64 tomb_seq][u8 has_frag][capsule?]*
//!                (entries sorted by key)
//! meta block:    [u32 n_entries]
//!                [u32 n_index]([str key][u64 file_offset])*   (every Nth entry)
//!                [bloom]
//!                [u32 crc32(meta block so far)]
//! footer:        [u64 meta_offset][u32 MAGIC]
//! ```
//!
//! A reader keeps only the meta block (sparse index + bloom) in memory; a
//! point lookup probes the bloom filter, binary-searches the sparse index
//! for the covering entry range, reads just that byte range from disk, and
//! decodes only the entry it was looking for. The meta block is
//! CRC-guarded; the entry block needs no CRC of its own because tables are
//! written with [`DiskEnv::write_atomic_owned`] — after a crash the file is
//! either fully present or absent, never torn.
//!
//! Whole-table walks (compaction, [`super::LsmEngine::scan`]) go through a
//! `RunCursor`, which reads the entry block in fixed 64 KiB ranges and
//! exposes each entry's key, sequence numbers and raw bytes without
//! decoding its capsule. Tables are produced by one incremental
//! `TableWriter`, shared by memtable flush and compaction.

use std::sync::Arc;

use cloudburst_lattice::codec::{
    crc32, decode_capsule, encode_capsule, put_str, put_u32, put_u64, put_u8, skip_capsule,
    ByteReader, CodecError,
};
use cloudburst_lattice::{Capsule, Key};

use super::bloom::{digest, Bloom};
use super::env::{DiskEnv, DiskError};

const MAGIC: u32 = 0x5353_5431; // "SST1"
const FOOTER_LEN: u64 = 12;

/// Bytes a [`RunCursor`] reads from the entry block at a time (more only
/// when a single entry is larger). Fixed: it bounds a walk's buffer, it is
/// not a tuning knob.
const WINDOW: usize = 64 << 10;

/// One key's record inside a table: the lattice fragment merged from every
/// write the run covers, plus the sequence bookkeeping that lets readers
/// order fragments against tombstones across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TableEntry {
    /// The key.
    pub key: Key,
    /// Highest engine sequence number folded into `frag` (0 if none).
    pub frag_seq: u64,
    /// Highest delete sequence number covering this key in this run
    /// (0 = never deleted here).
    pub tomb_seq: u64,
    /// The merged lattice fragment, absent for pure tombstones.
    pub frag: Option<Capsule>,
}

/// An open, immutable sorted run: sparse index and bloom resident in
/// memory, entries read from the env on demand.
#[derive(Debug)]
pub struct SsTable {
    env: Arc<dyn DiskEnv>,
    /// File name inside the env.
    pub file: String,
    /// Sparse index: every Nth entry's key and file offset, ascending.
    index: Vec<(Key, u64)>,
    bloom: Bloom,
    /// Offset of the meta block == end of the entry block.
    meta_offset: u64,
    n_entries: u32,
}

fn encode_entry(out: &mut Vec<u8>, e: &TableEntry) {
    put_str(out, e.key.as_str());
    put_u64(out, e.frag_seq);
    put_u64(out, e.tomb_seq);
    match &e.frag {
        Some(c) => {
            put_u8(out, 1);
            encode_capsule(c, out);
        }
        None => put_u8(out, 0),
    }
}

fn decode_entry(r: &mut ByteReader<'_>) -> Result<TableEntry, CodecError> {
    let key = Key::new(r.str()?);
    let frag_seq = r.u64()?;
    let tomb_seq = r.u64()?;
    let frag = match r.u8()? {
        0 => None,
        _ => Some(decode_capsule(r)?),
    };
    Ok(TableEntry {
        key,
        frag_seq,
        tomb_seq,
        frag,
    })
}

/// Where one encoded entry's parts sit in the buffer it was parsed from.
#[derive(Debug, Clone, Copy)]
struct EntrySpan {
    start: usize,
    key_start: usize,
    key_end: usize,
    frag_seq: u64,
    tomb_seq: u64,
    has_frag: bool,
    end: usize,
}

impl EntrySpan {
    /// Parse the entry starting at `buf[start..]`: its key and sequence
    /// numbers are read, its capsule only skipped.
    fn parse(buf: &[u8], start: usize) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(&buf[start..]);
        let key_len = r.str()?.len();
        let key_end = start + r.pos();
        let frag_seq = r.u64()?;
        let tomb_seq = r.u64()?;
        let has_frag = r.u8()? != 0;
        if has_frag {
            skip_capsule(&mut r)?;
        }
        Ok(Self {
            start,
            key_start: key_end - key_len,
            key_end,
            frag_seq,
            tomb_seq,
            has_frag,
            end: start + r.pos(),
        })
    }

    fn key<'b>(&self, buf: &'b [u8]) -> &'b [u8] {
        &buf[self.key_start..self.key_end]
    }

    fn decode(&self, buf: &[u8]) -> Option<TableEntry> {
        decode_entry(&mut ByteReader::new(&buf[self.start..self.end])).ok()
    }
}

/// Builds one table entry by entry, in key order: the entry block grows in
/// one buffer while the sparse index and the bloom digests are collected
/// alongside; [`TableWriter::finish`] appends the meta block and footer and
/// hands the buffer to the env.
#[derive(Debug)]
pub(crate) struct TableWriter {
    buf: Vec<u8>,
    index: Vec<(Key, u64)>,
    digests: Vec<u64>,
    bits_per_key: usize,
    index_every: usize,
}

impl TableWriter {
    /// A writer for a table of about `size_hint` bytes.
    pub(crate) fn new(bits_per_key: usize, index_every: usize, size_hint: usize) -> Self {
        let mut buf = Vec::with_capacity(size_hint);
        put_u32(&mut buf, MAGIC);
        Self {
            buf,
            index: Vec::new(),
            digests: Vec::new(),
            bits_per_key,
            index_every: index_every.max(1),
        }
    }

    fn start_entry(&mut self, key: impl FnOnce() -> Key, key_bytes: &[u8]) {
        if self.digests.len().is_multiple_of(self.index_every) {
            self.index.push((key(), self.buf.len() as u64));
        }
        self.digests.push(digest(key_bytes));
    }

    /// Append an entry (keys must arrive in ascending order, once each).
    pub(crate) fn push(&mut self, e: &TableEntry) {
        self.start_entry(|| e.key.clone(), e.key.as_str().as_bytes());
        encode_entry(&mut self.buf, e);
    }

    /// Append the entry under the cursor's current position, verbatim.
    pub(crate) fn push_raw(&mut self, cursor: &RunCursor<'_>) {
        let span = cursor.span.expect("cursor positioned on an entry");
        let key = span.key(&cursor.buf);
        self.start_entry(
            || Key::new(std::str::from_utf8(key).expect("validated when parsed")),
            key,
        );
        self.buf
            .extend_from_slice(&cursor.buf[span.start..span.end]);
    }

    /// Append the meta block and footer, persist the table atomically as
    /// `file`, and return the opened handle.
    pub(crate) fn finish(self, env: Arc<dyn DiskEnv>, file: String) -> Result<SsTable, DiskError> {
        let Self {
            mut buf,
            index,
            digests,
            bits_per_key,
            ..
        } = self;
        let meta_offset = buf.len();
        put_u32(&mut buf, digests.len() as u32);
        put_u32(&mut buf, index.len() as u32);
        for (key, offset) in &index {
            put_str(&mut buf, key.as_str());
            put_u64(&mut buf, *offset);
        }
        let bloom = Bloom::from_digests(&digests, bits_per_key);
        bloom.encode(&mut buf);
        let meta_crc = crc32(&buf[meta_offset..]);
        put_u32(&mut buf, meta_crc);
        put_u64(&mut buf, meta_offset as u64);
        put_u32(&mut buf, MAGIC);
        // The env may keep the buffer as the file: give back the slack.
        buf.shrink_to_fit();
        env.write_atomic_owned(&file, buf)?;
        Ok(SsTable {
            env,
            file,
            index,
            bloom,
            meta_offset: meta_offset as u64,
            n_entries: digests.len() as u32,
        })
    }
}

/// A forward walk over one table's entries in key order, reading the entry
/// block [`WINDOW`] bytes at a time. The current entry's key and sequence
/// numbers are parsed; its capsule is decoded only on request. A read
/// failure or a malformed entry ends the walk, as if the block ended there.
#[derive(Debug)]
pub(crate) struct RunCursor<'t> {
    table: &'t SsTable,
    /// Entry-block bytes read but not yet walked past.
    buf: Vec<u8>,
    /// File offset of the first byte not yet read into `buf`.
    next_read: u64,
    /// The current entry, `None` once the walk is over.
    span: Option<EntrySpan>,
}

impl<'t> RunCursor<'t> {
    fn new(table: &'t SsTable) -> Self {
        let mut cursor = Self {
            table,
            buf: Vec::new(),
            next_read: 4, // the entry block starts after MAGIC

            span: None,
        };
        cursor.load(0);
        cursor
    }

    /// Parse the entry at `buf[at..]`, reading further windows while it
    /// runs past the buffered bytes.
    fn load(&mut self, mut at: usize) {
        self.span = loop {
            match EntrySpan::parse(&self.buf, at) {
                Ok(span) => break Some(span),
                Err(CodecError::Truncated) if self.next_read < self.table.meta_offset => {
                    if !self.read_window(at) {
                        break None;
                    }
                    at = 0;
                }
                Err(_) => break None,
            }
        };
    }

    /// Drop the walked-past prefix `buf[..keep_from]` and append the next
    /// window — at least as many bytes as are still buffered, so an entry
    /// larger than a window takes a logarithmic number of reads.
    fn read_window(&mut self, keep_from: usize) -> bool {
        let left = (self.table.meta_offset - self.next_read) as usize;
        self.buf.drain(..keep_from);
        let want = WINDOW.max(self.buf.len()).min(left);
        let Some(chunk) = self
            .table
            .env
            .read_range(&self.table.file, self.next_read, want)
        else {
            return false;
        };
        if chunk.is_empty() {
            return false;
        }
        self.next_read += chunk.len() as u64;
        if self.buf.is_empty() {
            self.buf = chunk;
        } else {
            self.buf.extend_from_slice(&chunk);
        }
        true
    }

    /// Step to the next entry.
    pub(crate) fn advance(&mut self) {
        if let Some(span) = self.span {
            self.load(span.end);
        }
    }

    /// The current entry's key bytes, `None` once the walk is over.
    pub(crate) fn key(&self) -> Option<&[u8]> {
        self.span.map(|s| s.key(&self.buf))
    }

    /// Whether the current entry can be copied into a full merge verbatim
    /// when no other run holds its key: no tombstone, and a fragment the
    /// merge would keep.
    pub(crate) fn is_plain(&self) -> bool {
        self.span
            .is_some_and(|s| s.has_frag && s.tomb_seq == 0 && s.frag_seq > 0)
    }

    /// Decode the current entry.
    pub(crate) fn decode(&self) -> Option<TableEntry> {
        self.span.and_then(|s| s.decode(&self.buf))
    }
}

impl SsTable {
    /// Build and atomically persist a table from `entries` (must be sorted
    /// by key, one entry per key), then return the opened handle: one
    /// [`TableWriter`] pass, for tests that start from entries.
    #[cfg(test)]
    pub(crate) fn build(
        env: Arc<dyn DiskEnv>,
        file: String,
        entries: &[TableEntry],
        bits_per_key: usize,
        index_every: usize,
    ) -> Result<Self, DiskError> {
        debug_assert!(entries.windows(2).all(|w| w[0].key < w[1].key));
        let mut writer = TableWriter::new(bits_per_key, index_every, 0);
        for e in entries {
            writer.push(e);
        }
        writer.finish(env, file)
    }

    /// Open a previously-built table: read footer + meta block, verify the
    /// CRC, and keep the sparse index and bloom in memory.
    pub fn open(env: Arc<dyn DiskEnv>, file: String) -> Result<Self, DiskError> {
        let size = env
            .size_of(&file)
            .ok_or_else(|| DiskError::new(format!("table {file} missing")))?;
        if size < FOOTER_LEN + 4 {
            return Err(DiskError::new(format!("table {file} too small")));
        }
        let footer = env
            .read_range(&file, size - FOOTER_LEN, FOOTER_LEN as usize)
            .ok_or_else(|| DiskError::new(format!("table {file}: footer read failed")))?;
        let mut f = ByteReader::new(&footer);
        let meta_offset = f
            .u64()
            .map_err(|_| DiskError::new(format!("table {file}: footer truncated")))?;
        let magic = f
            .u32()
            .map_err(|_| DiskError::new(format!("table {file}: footer truncated")))?;
        if magic != MAGIC || meta_offset + FOOTER_LEN + 4 > size {
            return Err(DiskError::new(format!("table {file}: bad footer")));
        }
        let meta_len = (size - FOOTER_LEN - meta_offset) as usize;
        let meta = env
            .read_range(&file, meta_offset, meta_len)
            .ok_or_else(|| DiskError::new(format!("table {file}: meta read failed")))?;
        if meta.len() < 4 {
            return Err(DiskError::new(format!("table {file}: meta truncated")));
        }
        let (body, crc_bytes) = meta.split_at(meta.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(body) != stored_crc {
            return Err(DiskError::new(format!("table {file}: meta CRC mismatch")));
        }
        let mut r = ByteReader::new(body);
        let mut parse = || -> Result<_, cloudburst_lattice::CodecError> {
            let n_entries = r.u32()?;
            let n_index = r.u32()? as usize;
            let mut index = Vec::with_capacity(n_index.min(1 << 20));
            for _ in 0..n_index {
                let key = Key::new(r.str()?);
                let offset = r.u64()?;
                index.push((key, offset));
            }
            let bloom = Bloom::decode(&mut r)?;
            Ok((n_entries, index, bloom))
        };
        let (n_entries, index, bloom) =
            { parse() }.map_err(|e| DiskError::new(format!("table {file}: meta decode: {e:?}")))?;
        Ok(Self {
            env,
            file,
            index,
            bloom,
            meta_offset,
            n_entries,
        })
    }

    /// Number of entries in the table.
    pub fn len(&self) -> usize {
        self.n_entries as usize
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.n_entries == 0
    }

    /// Whether the bloom filter admits `key` (always `true` with filters
    /// disabled). Exposed so the engine can count filter skips.
    pub fn may_contain(&self, key: &Key) -> bool {
        self.bloom.may_contain(key.as_str().as_bytes())
    }

    /// A cursor over every entry, in key order.
    pub(crate) fn cursor(&self) -> RunCursor<'_> {
        RunCursor::new(self)
    }

    /// Point lookup: bloom probe → sparse-index binary search → one ranged
    /// read of the covering entry span → a walk over it that compares keys
    /// in place and decodes only the match.
    pub fn get(&self, key: &Key) -> Option<TableEntry> {
        if !self.may_contain(key) {
            return None;
        }
        // Greatest index entry with index_key <= key covers the span.
        let slot = match self.index.binary_search_by(|(k, _)| k.cmp(key)) {
            Ok(i) => i,
            Err(0) => return None, // smaller than the smallest key
            Err(i) => i - 1,
        };
        let start = self.index[slot].1;
        let end = self
            .index
            .get(slot + 1)
            .map_or(self.meta_offset, |(_, o)| *o);
        let span = self
            .env
            .read_range(&self.file, start, (end - start) as usize)?;
        let wanted = key.as_str().as_bytes();
        let mut at = 0;
        while at < span.len() {
            let entry = EntrySpan::parse(&span, at).ok()?;
            match entry.key(&span).cmp(wanted) {
                std::cmp::Ordering::Less => at = entry.end,
                std::cmp::Ordering::Equal => return entry.decode(&span),
                std::cmp::Ordering::Greater => return None, // sorted: ran past it
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::env::FaultDisk;
    use bytes::Bytes;
    use cloudburst_lattice::Timestamp;

    fn entry(i: usize, seq: u64) -> TableEntry {
        TableEntry {
            key: Key::new(format!("key-{i:04}")),
            frag_seq: seq,
            tomb_seq: 0,
            frag: Some(Capsule::wrap_lww(
                Timestamp::new(seq, 0),
                Bytes::from(format!("value-{i}")),
            )),
        }
    }

    /// Every entry, in the order a cursor walks them.
    fn walk(table: &SsTable) -> Vec<TableEntry> {
        let mut cursor = table.cursor();
        let mut out = Vec::new();
        while let Some(e) = cursor.decode() {
            out.push(e);
            cursor.advance();
        }
        out
    }

    fn build_sample(n: usize) -> (Arc<FaultDisk>, SsTable) {
        let env = FaultDisk::new();
        let entries: Vec<TableEntry> = (0..n).map(|i| entry(i, i as u64 + 1)).collect();
        let table = SsTable::build(env.clone(), "sst-1".into(), &entries, 10, 4).unwrap();
        (env, table)
    }

    #[test]
    fn build_then_get_every_key() {
        let (_env, table) = build_sample(100);
        assert_eq!(table.len(), 100);
        for i in 0..100 {
            let e = table
                .get(&Key::new(format!("key-{i:04}")))
                .expect("present");
            assert_eq!(
                e.frag.unwrap().read_value(),
                Bytes::from(format!("value-{i}"))
            );
        }
        assert!(table.get(&Key::new("absent")).is_none());
        assert!(table.get(&Key::new("key-0000x")).is_none());
        assert!(table.get(&Key::new("aaa")).is_none(), "below smallest key");
        assert!(table.get(&Key::new("zzz")).is_none(), "above largest key");
    }

    #[test]
    fn reopen_matches_built_state() {
        let (env, table) = build_sample(50);
        let reopened = SsTable::open(env, "sst-1".into()).unwrap();
        assert_eq!(reopened.len(), table.len());
        for i in 0..50 {
            let key = Key::new(format!("key-{i:04}"));
            assert_eq!(reopened.get(&key), table.get(&key));
        }
        assert_eq!(walk(&reopened), walk(&table));
    }

    #[test]
    fn cursor_is_sorted_and_complete() {
        let (_env, table) = build_sample(37);
        let all = walk(&table);
        assert_eq!(all.len(), 37);
        assert!(all.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn cursor_crosses_windows_and_outsized_entries() {
        let env = FaultDisk::new();
        // Entries straddle window boundaries, and one is several windows
        // long on its own.
        let entries: Vec<TableEntry> = (0..400)
            .map(|i| {
                let len = if i == 123 { 3 * WINDOW + 17 } else { 700 + i };
                TableEntry {
                    key: Key::new(format!("key-{i:04}")),
                    frag_seq: i as u64 + 1,
                    tomb_seq: 0,
                    frag: Some(Capsule::wrap_lww(
                        Timestamp::new(1, 0),
                        Bytes::from(vec![i as u8; len]),
                    )),
                }
            })
            .collect();
        let table = SsTable::build(env.clone(), "t".into(), &entries, 10, 16).unwrap();
        assert!(env.size_of("t").unwrap() > 8 * WINDOW as u64);
        assert_eq!(walk(&table), entries);
        for e in &entries {
            assert_eq!(table.get(&e.key).as_ref(), Some(e));
        }
    }

    /// The table format as it was first written: one buffer, every entry
    /// encoded in turn, then the meta block and footer.
    fn reference_bytes(entries: &[TableEntry], bits_per_key: usize, index_every: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, MAGIC);
        let mut index: Vec<(Key, u64)> = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            if i % index_every == 0 {
                index.push((e.key.clone(), buf.len() as u64));
            }
            encode_entry(&mut buf, e);
        }
        let meta_offset = buf.len() as u64;
        put_u32(&mut buf, entries.len() as u32);
        put_u32(&mut buf, index.len() as u32);
        for (key, offset) in &index {
            put_str(&mut buf, key.as_str());
            put_u64(&mut buf, *offset);
        }
        let digests: Vec<u64> = entries
            .iter()
            .map(|e| digest(e.key.as_str().as_bytes()))
            .collect();
        Bloom::from_digests(&digests, bits_per_key).encode(&mut buf);
        let meta_crc = crc32(&buf[meta_offset as usize..]);
        put_u32(&mut buf, meta_crc);
        put_u64(&mut buf, meta_offset);
        put_u32(&mut buf, MAGIC);
        buf
    }

    #[test]
    fn writer_output_matches_the_table_format() {
        let env = FaultDisk::new();
        let mut entries: Vec<TableEntry> = (0..50).map(|i| entry(i, i as u64 + 1)).collect();
        entries[7].frag = None;
        entries[7].tomb_seq = 99;
        for bits in [0, 10] {
            SsTable::build(env.clone(), "t".into(), &entries, bits, 4).unwrap();
            assert_eq!(
                env.durable_content("t").unwrap(),
                reference_bytes(&entries, bits, 4)
            );
        }
    }

    #[test]
    fn tombstone_entries_roundtrip() {
        let env = FaultDisk::new();
        let entries = vec![
            TableEntry {
                key: Key::new("dead"),
                frag_seq: 0,
                tomb_seq: 9,
                frag: None,
            },
            entry(1, 5),
        ];
        let mut sorted = entries.clone();
        sorted.sort_by(|a, b| a.key.cmp(&b.key));
        let table = SsTable::build(env, "t".into(), &sorted, 10, 2).unwrap();
        let dead = table.get(&Key::new("dead")).unwrap();
        assert_eq!(dead.tomb_seq, 9);
        assert!(dead.frag.is_none());
    }

    #[test]
    fn corrupted_meta_fails_open() {
        let env = FaultDisk::new();
        let entries: Vec<TableEntry> = (0..10).map(|i| entry(i, i as u64 + 1)).collect();
        SsTable::build(env.clone(), "t".into(), &entries, 10, 4).unwrap();
        let mut content = env.durable_content("t").unwrap();
        let n = content.len();
        content[n - 20] ^= 0xFF; // inside the meta block
        env.write_atomic("t", &content).unwrap();
        assert!(SsTable::open(env, "t".into()).is_err());
    }

    #[test]
    fn empty_table_roundtrips() {
        let env = FaultDisk::new();
        let table = SsTable::build(env.clone(), "t".into(), &[], 10, 4).unwrap();
        assert!(table.is_empty());
        assert!(table.get(&Key::new("x")).is_none());
        let reopened = SsTable::open(env, "t".into()).unwrap();
        assert!(reopened.is_empty());
    }
}
