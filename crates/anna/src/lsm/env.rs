//! [`DiskEnv`]: the file-system seam the LSM engine writes through.
//!
//! All engine I/O — WAL appends, SSTable writes, manifest updates — goes
//! through this trait so the recovery paths are deterministically testable.
//! Two implementations ship:
//!
//! * [`RealDisk`]: real files under a per-node temp directory. Appends are
//!   buffered in memory and hit the file (with an `fsync`) only on
//!   [`DiskEnv::sync`], so even the real-files impl honours the
//!   "un-fsynced suffix is lost" failure model under [`DiskEnv::power_loss`].
//! * [`FaultDisk`]: a fully in-memory impl with scriptable faults — torn
//!   tail writes, lost un-fsynced suffixes, failed atomic renames
//!   (crash-mid-flush / crash-mid-compaction).
//!
//! The durability contract the engine builds on:
//!
//! * [`DiskEnv::append`] buffers; the data is *not* durable until
//!   [`DiskEnv::sync`] returns `Ok`.
//! * [`DiskEnv::write_atomic`] is all-or-nothing *and* durable on return
//!   (temp file + fsync + rename): after a power loss the file holds either
//!   its old content or the new content, never a mix. The engine writes
//!   every table and manifest through [`DiskEnv::write_atomic_owned`], which
//!   hands the finished buffer over so an in-memory env need not copy it.
//! * [`DiskEnv::power_loss`] models pulling the plug: every un-synced
//!   suffix vanishes (modulo a scripted torn tail); synced and
//!   atomically-written data survives.

use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// An I/O failure surfaced by a [`DiskEnv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskError {
    /// Human-readable description of what failed.
    pub message: String,
}

impl DiskError {
    /// An error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "disk error: {}", self.message)
    }
}

impl std::error::Error for DiskError {}

/// The file-system interface the LSM engine is written against. File names
/// are flat (no directories); contents are opaque bytes.
pub trait DiskEnv: Send + Sync + fmt::Debug {
    /// Buffer `data` at the end of `file`. Not durable until [`DiskEnv::sync`].
    fn append(&self, file: &str, data: &[u8]);

    /// Make every buffered append to `file` durable. On `Ok`, the appended
    /// bytes survive [`DiskEnv::power_loss`].
    fn sync(&self, file: &str) -> Result<(), DiskError>;

    /// Replace `file` with `data`, atomically and durably (temp + rename).
    /// After a crash the file holds either its old or its new content.
    fn write_atomic(&self, file: &str, data: &[u8]) -> Result<(), DiskError>;

    /// [`DiskEnv::write_atomic`] for a buffer the caller hands over, with
    /// the same contract. An env that keeps file contents in memory stores
    /// `data` as is instead of copying it; the default borrows it.
    fn write_atomic_owned(&self, file: &str, data: Vec<u8>) -> Result<(), DiskError> {
        self.write_atomic(file, &data)
    }

    /// The full current content of `file` (durable + buffered), or `None`
    /// if it does not exist.
    fn read(&self, file: &str) -> Option<Vec<u8>>;

    /// Read `len` bytes at `offset` from the *durable* content of `file`
    /// (used on immutable, atomically-written files). Short reads at EOF
    /// return the available prefix.
    fn read_range(&self, file: &str, offset: u64, len: usize) -> Option<Vec<u8>>;

    /// The durable size of `file` in bytes (`None` if it does not exist).
    fn size_of(&self, file: &str) -> Option<u64>;

    /// Delete `file` (no-op if absent).
    fn remove(&self, file: &str);

    /// Every existing file name (durable or buffered).
    fn list(&self) -> Vec<String>;

    /// Simulate a power cut: drop all buffered (un-synced) data. Durable
    /// content — synced appends and atomic writes — survives.
    fn power_loss(&self);
}

static TEMP_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// [`DiskEnv`] over real files in a dedicated directory.
///
/// Appends are staged in memory and written+fsynced on [`DiskEnv::sync`], so
/// `power_loss` can faithfully drop the un-synced suffix without reaching
/// into the kernel page cache. Atomic writes go through `<file>.tmp` +
/// `fsync` + `rename`.
#[derive(Debug)]
pub struct RealDisk {
    root: PathBuf,
    // lock-rank: 62 lsm-disk-pending
    pending: Mutex<HashMap<String, Vec<u8>>>,
    /// Whether this env created `root` (and should delete it on drop).
    owns_root: bool,
}

impl RealDisk {
    /// An env over a fresh process-unique temp directory (removed on drop).
    pub fn new_temp() -> Arc<Self> {
        let n = TEMP_DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("anna-lsm-{}-{}", std::process::id(), n));
        std::fs::create_dir_all(&root).expect("create lsm temp dir");
        Arc::new(Self {
            root,
            pending: Mutex::ranked(62, "lsm-disk-pending", HashMap::new()),
            owns_root: true,
        })
    }

    /// An env over an existing directory (kept on drop).
    pub fn at(root: PathBuf) -> Arc<Self> {
        std::fs::create_dir_all(&root).expect("create lsm dir");
        Arc::new(Self {
            root,
            pending: Mutex::ranked(62, "lsm-disk-pending", HashMap::new()),
            owns_root: false,
        })
    }

    /// The directory backing this env.
    pub fn root(&self) -> &PathBuf {
        &self.root
    }

    fn path(&self, file: &str) -> PathBuf {
        self.root.join(file)
    }
}

impl Drop for RealDisk {
    fn drop(&mut self) {
        if self.owns_root {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

impl DiskEnv for RealDisk {
    fn append(&self, file: &str, data: &[u8]) {
        self.pending
            .lock()
            .entry(file.to_string())
            .or_default()
            .extend_from_slice(data);
    }

    fn sync(&self, file: &str) -> Result<(), DiskError> {
        let Some(buffered) = self.pending.lock().remove(file) else {
            return Ok(());
        };
        if buffered.is_empty() {
            return Ok(());
        }
        let path = self.path(file);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| DiskError::new(format!("open {file}: {e}")))?;
        f.write_all(&buffered)
            .map_err(|e| DiskError::new(format!("write {file}: {e}")))?;
        f.sync_data()
            .map_err(|e| DiskError::new(format!("fsync {file}: {e}")))?;
        Ok(())
    }

    fn write_atomic(&self, file: &str, data: &[u8]) -> Result<(), DiskError> {
        let tmp = self.path(&format!("{file}.tmp"));
        let mut f = std::fs::File::create(&tmp)
            .map_err(|e| DiskError::new(format!("create {file}.tmp: {e}")))?;
        f.write_all(data)
            .map_err(|e| DiskError::new(format!("write {file}.tmp: {e}")))?;
        f.sync_data()
            .map_err(|e| DiskError::new(format!("fsync {file}.tmp: {e}")))?;
        drop(f);
        std::fs::rename(&tmp, self.path(file))
            .map_err(|e| DiskError::new(format!("rename {file}: {e}")))?;
        Ok(())
    }

    fn read(&self, file: &str) -> Option<Vec<u8>> {
        let durable = std::fs::read(self.path(file)).ok();
        let pending = self.pending.lock().get(file).cloned();
        match (durable, pending) {
            (None, None) => None,
            (d, p) => {
                let mut out = d.unwrap_or_default();
                out.extend(p.unwrap_or_default());
                Some(out)
            }
        }
    }

    fn read_range(&self, file: &str, offset: u64, len: usize) -> Option<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = std::fs::File::open(self.path(file)).ok()?;
        f.seek(SeekFrom::Start(offset)).ok()?;
        let mut buf = vec![0u8; len];
        let mut read = 0;
        while read < len {
            match f.read(&mut buf[read..]) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(_) => return None,
            }
        }
        buf.truncate(read);
        Some(buf)
    }

    fn size_of(&self, file: &str) -> Option<u64> {
        std::fs::metadata(self.path(file)).ok().map(|m| m.len())
    }

    fn remove(&self, file: &str) {
        self.pending.lock().remove(file);
        let _ = std::fs::remove_file(self.path(file));
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default();
        for name in self.pending.lock().keys() {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
        names.sort();
        names
    }

    fn power_loss(&self) {
        self.pending.lock().clear();
    }
}

#[derive(Debug, Default)]
struct FaultState {
    /// Data that survives `power_loss`.
    durable: HashMap<String, Vec<u8>>,
    /// Appended-but-unsynced suffixes, per file.
    pending: HashMap<String, Vec<u8>>,
    /// On the next `power_loss`, keep this many bytes of each pending
    /// suffix — a *torn* write that stopped mid-record.
    torn_tail: Option<usize>,
    /// Remaining `write_atomic` calls allowed to succeed; `Some(0)` makes
    /// every atomic write fail after leaving its temp file behind
    /// (crash-mid-flush / crash-mid-compaction).
    atomic_writes_left: Option<u32>,
    /// Whether `sync` fails (without losing the buffered data).
    fail_syncs: bool,
}

/// Deterministic in-memory [`DiskEnv`] with scriptable fault injection.
#[derive(Debug)]
pub struct FaultDisk {
    // lock-rank: 63 lsm-fault-state
    state: Mutex<FaultState>,
}

impl Default for FaultDisk {
    fn default() -> Self {
        Self {
            state: Mutex::ranked(63, "lsm-fault-state", FaultState::default()),
        }
    }
}

impl FaultDisk {
    /// A fresh fault-free in-memory env.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// On the next [`DiskEnv::power_loss`], keep the first `bytes` of each
    /// un-synced suffix — a torn write that stopped mid-record. `None`
    /// restores the default (the whole suffix is lost).
    pub fn set_torn_tail(&self, bytes: Option<usize>) {
        self.state.lock().torn_tail = bytes;
    }

    /// Allow `n` more atomic writes ([`DiskEnv::write_atomic`] or
    /// [`DiskEnv::write_atomic_owned`]) to succeed; later ones
    /// write their temp file and then fail — the crash-mid-flush /
    /// crash-mid-compaction model. `None` disables the fault.
    pub fn fail_atomic_writes_after(&self, n: Option<u32>) {
        self.state.lock().atomic_writes_left = n;
    }

    /// Make [`DiskEnv::sync`] fail (buffered data is kept, not lost).
    pub fn set_fail_syncs(&self, fail: bool) {
        self.state.lock().fail_syncs = fail;
    }

    /// The durable content of `file` — what a post-crash reader would see.
    pub fn durable_content(&self, file: &str) -> Option<Vec<u8>> {
        self.state.lock().durable.get(file).cloned()
    }
}

impl DiskEnv for FaultDisk {
    fn append(&self, file: &str, data: &[u8]) {
        self.state
            .lock()
            .pending
            .entry(file.to_string())
            .or_default()
            .extend_from_slice(data);
    }

    fn sync(&self, file: &str) -> Result<(), DiskError> {
        let mut s = self.state.lock();
        if s.fail_syncs {
            return Err(DiskError::new(format!("injected sync failure on {file}")));
        }
        if let Some(buffered) = s.pending.remove(file) {
            s.durable
                .entry(file.to_string())
                .or_default()
                .extend(buffered);
        }
        Ok(())
    }

    fn write_atomic(&self, file: &str, data: &[u8]) -> Result<(), DiskError> {
        self.write_atomic_owned(file, data.to_vec())
    }

    fn write_atomic_owned(&self, file: &str, data: Vec<u8>) -> Result<(), DiskError> {
        let mut s = self.state.lock();
        let (target, result) = match s.atomic_writes_left {
            // The crash happened after the temp file was written but before
            // the rename: leave the orphan behind.
            Some(0) => (
                format!("{file}.tmp"),
                Err(DiskError::new(format!(
                    "injected atomic-write failure on {file}"
                ))),
            ),
            left => {
                s.atomic_writes_left = left.map(|n| n - 1);
                (file.to_string(), Ok(()))
            }
        };
        let replaced = s.durable.insert(target, data);
        drop(s);
        // Free the replaced content outside the lock.
        drop(replaced);
        result
    }

    fn read(&self, file: &str) -> Option<Vec<u8>> {
        let s = self.state.lock();
        let durable = s.durable.get(file);
        let pending = s.pending.get(file);
        match (durable, pending) {
            (None, None) => None,
            (d, p) => {
                let mut out = d.cloned().unwrap_or_default();
                out.extend(p.cloned().unwrap_or_default());
                Some(out)
            }
        }
    }

    fn read_range(&self, file: &str, offset: u64, len: usize) -> Option<Vec<u8>> {
        let s = self.state.lock();
        let content = s.durable.get(file)?;
        let start = (offset as usize).min(content.len());
        let end = (start + len).min(content.len());
        Some(content[start..end].to_vec())
    }

    fn size_of(&self, file: &str) -> Option<u64> {
        self.state.lock().durable.get(file).map(|c| c.len() as u64)
    }

    fn remove(&self, file: &str) {
        let mut s = self.state.lock();
        s.durable.remove(file);
        s.pending.remove(file);
    }

    fn list(&self) -> Vec<String> {
        let s = self.state.lock();
        let mut names: Vec<String> = s.durable.keys().cloned().collect();
        for name in s.pending.keys() {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
        names.sort();
        names
    }

    fn power_loss(&self) {
        let mut s = self.state.lock();
        let torn = s.torn_tail.take();
        let pending = std::mem::take(&mut s.pending);
        if let Some(keep) = torn {
            for (file, buffered) in pending {
                let kept = &buffered[..keep.min(buffered.len())];
                if !kept.is_empty() {
                    s.durable.entry(file).or_default().extend_from_slice(kept);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(env: &dyn DiskEnv) {
        env.append("wal", b"hello ");
        env.append("wal", b"world");
        assert_eq!(env.read("wal").unwrap(), b"hello world");
        env.sync("wal").unwrap();
        env.write_atomic("manifest", b"v1").unwrap();
        assert_eq!(env.read("manifest").unwrap(), b"v1");
        env.write_atomic("manifest", b"v2").unwrap();
        assert_eq!(env.read("manifest").unwrap(), b"v2");
        let names = env.list();
        assert!(names.contains(&"wal".to_string()));
        assert!(names.contains(&"manifest".to_string()));
        assert_eq!(env.read_range("manifest", 1, 10).unwrap(), b"2");
        env.remove("wal");
        assert!(env.read("wal").is_none());
    }

    #[test]
    fn fault_disk_roundtrip() {
        roundtrip(&*FaultDisk::new());
    }

    #[test]
    fn real_disk_roundtrip() {
        roundtrip(&*RealDisk::new_temp());
    }

    fn unsynced_suffix_lost(env: &dyn DiskEnv) {
        env.append("wal", b"durable|");
        env.sync("wal").unwrap();
        env.append("wal", b"lost");
        env.power_loss();
        assert_eq!(env.read("wal").unwrap(), b"durable|");
    }

    #[test]
    fn fault_disk_power_loss_drops_unsynced() {
        unsynced_suffix_lost(&*FaultDisk::new());
    }

    #[test]
    fn real_disk_power_loss_drops_unsynced() {
        unsynced_suffix_lost(&*RealDisk::new_temp());
    }

    #[test]
    fn torn_tail_keeps_prefix_of_unsynced() {
        let env = FaultDisk::new();
        env.append("wal", b"durable|");
        env.sync("wal").unwrap();
        env.append("wal", b"torn-record");
        env.set_torn_tail(Some(4));
        env.power_loss();
        assert_eq!(env.read("wal").unwrap(), b"durable|torn");
        // The torn-tail script is one-shot.
        env.append("wal", b"gone");
        env.power_loss();
        assert_eq!(env.read("wal").unwrap(), b"durable|torn");
    }

    #[test]
    fn failed_atomic_write_leaves_orphan_temp_and_old_content() {
        let env = FaultDisk::new();
        env.write_atomic("manifest", b"old").unwrap();
        env.fail_atomic_writes_after(Some(0));
        assert!(env.write_atomic("manifest", b"new").is_err());
        assert_eq!(env.read("manifest").unwrap(), b"old");
        assert!(env.list().contains(&"manifest.tmp".to_string()));
    }

    #[test]
    fn owned_atomic_write_honours_the_failure_script() {
        let env = FaultDisk::new();
        env.write_atomic_owned("table", b"old".to_vec()).unwrap();
        env.fail_atomic_writes_after(Some(1));
        env.write_atomic_owned("table", b"new".to_vec()).unwrap();
        assert_eq!(env.durable_content("table").unwrap(), b"new");
        let err = env.write_atomic_owned("table", b"newer".to_vec());
        assert!(err.is_err(), "the scripted crash must surface");
        assert_eq!(env.durable_content("table").unwrap(), b"new");
        assert_eq!(env.durable_content("table.tmp").unwrap(), b"newer");
        // The provided default (what `RealDisk` and wrapping envs inherit)
        // delegates to `write_atomic`.
        let real = RealDisk::new_temp();
        real.write_atomic_owned("f", b"x".to_vec()).unwrap();
        assert_eq!(real.read("f").unwrap(), b"x");
    }

    #[test]
    fn real_disk_temp_dir_is_removed_on_drop() {
        let env = RealDisk::new_temp();
        let root = env.root().clone();
        env.write_atomic("f", b"x").unwrap();
        assert!(root.exists());
        drop(env);
        assert!(!root.exists());
    }
}
