//! [`SessionMeta`]: the per-DAG-request consistency metadata shipped from
//! executor to executor.
//!
//! "When invoking a downstream function in the DAG, we propagate a list of
//! cache addresses and version timestamps for all snapshotted keys seen so
//! far" (Algorithm 1) and, in causal mode, "each executor ships the set of
//! causal dependencies (pairs of keys and their associated vector clocks) of
//! the read set to downstream executors" (Algorithm 2).
//!
//! Within one DAG node the session is a *read log*: each read records the
//! key and a handle on the version read, and nothing else is built until a
//! successor needs it. [`SessionMeta::seal_log`] turns the log into shipped
//! read-set entries once per hop.

use std::collections::hash_map::Entry;

use cloudburst_lattice::{Capsule, Key, KeyMap, Lattice, VectorClock};
use cloudburst_net::Address;

use crate::types::{ConsistencyLevel, RequestId, VersionId};

/// One entry of the session read set `R`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRecord {
    /// The exact version observed (timestamp for LWW/RR; vector clock for
    /// causal modes).
    pub version: VersionId,
    /// The cache that snapshotted this version (queried by downstream caches
    /// that need the exact version).
    pub cache: Address,
}

/// One entry of the shipped causal dependency set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepRecord {
    /// Minimum admissible version of the dependency key.
    pub clock: VectorClock,
    /// The upstream cache storing a snapshot of this dependency.
    pub cache: Address,
}

/// The consistency metadata of one DAG execution (the "session", §5).
#[derive(Debug, Clone, Default)]
pub struct SessionMeta {
    /// The DAG request this session belongs to.
    pub request_id: RequestId,
    /// The deployment's consistency level.
    pub level: ConsistencyLevel,
    /// Keys read so far, with their observed versions (`R` in Algorithms
    /// 1 and 2).
    pub read_set: KeyMap<ReadRecord>,
    /// Causal dependencies of the read set (`dependencies` in Algorithm 2).
    pub dependencies: KeyMap<DepRecord>,
    /// When anomaly tracing is enabled (Table 2 experiments), every read is
    /// also logged here — even at levels that ship no protocol metadata — so
    /// the detector can reconstruct shadow causality.
    pub traced: bool,
    /// `(key, observed LWW timestamp)` log for tracing; shipped with the
    /// session only when `traced` is set.
    pub shadow_reads: Vec<(Key, cloudburst_lattice::Timestamp)>,
    /// This hop's read log: one entry per key the running node read or
    /// wrote, holding the join of the versions it observed (a capsule
    /// handle, so logging is a refcount bump). Kept at every level but LWW;
    /// empty whenever the session is shipped.
    pub log: KeyMap<Capsule>,
}

impl SessionMeta {
    /// A fresh session for one DAG request.
    pub fn new(request_id: RequestId, level: ConsistencyLevel) -> Self {
        Self {
            request_id,
            level,
            read_set: KeyMap::default(),
            dependencies: KeyMap::default(),
            traced: false,
            shadow_reads: Vec::new(),
            log: KeyMap::default(),
        }
    }

    /// Log a read of `capsule` for `key` at `cache`. A re-read joins into
    /// the logged version, so the log holds everything the node observed.
    /// In distributed-session causal mode the version's own dependencies
    /// join `dependencies` now, since a later read in this hop may be
    /// constrained by them; a version without any costs nothing more.
    pub fn log_read(&mut self, key: &Key, capsule: &Capsule, cache: Address) {
        if self.level == ConsistencyLevel::Lww || matches!(capsule, Capsule::Set(_)) {
            return;
        }
        if self.level == ConsistencyLevel::DistributedSessionCausal {
            if let Capsule::Causal(c) = capsule {
                for (dep_key, clock) in c.dependencies_ref().iter() {
                    merge_dep(&mut self.dependencies, dep_key, clock, cache);
                }
            }
        }
        match self.log.entry(key.clone()) {
            Entry::Occupied(mut logged) => {
                let _ = logged.get_mut().try_join(capsule.clone());
            }
            Entry::Vacant(slot) => {
                slot.insert(capsule.clone());
            }
        }
    }

    /// Log an in-DAG write: it supersedes whatever this hop read of `key`,
    /// and downstream readers must see (at least) this version, satisfying
    /// "it sees the most recent update to k within the DAG" (§5.1).
    pub fn log_write(&mut self, key: &Key, capsule: Capsule) {
        if self.level == ConsistencyLevel::Lww {
            return;
        }
        self.log.insert(key.clone(), capsule);
    }

    /// End this hop: fold the log into the shipped read set, every entry
    /// snapshotted at `cache`, and hand the logged versions back for the
    /// caller to snapshot. Levels that ship no metadata just drop the log.
    pub fn seal_log(&mut self, cache: Address) -> KeyMap<Capsule> {
        let log = std::mem::take(&mut self.log);
        if !self.level.ships_session_metadata() {
            return KeyMap::default();
        }
        for (key, capsule) in &log {
            let version = match capsule {
                Capsule::Lww(l) => VersionId::Lww(l.timestamp),
                Capsule::Causal(c) => VersionId::Causal(c.vector_clock()),
                Capsule::Set(_) => continue,
            };
            self.read_set
                .insert(key.clone(), ReadRecord { version, cache });
        }
        log
    }

    /// Merge the session metadata arriving along two in-edges of a DAG join
    /// node. Reads of the same key by parallel branches may legitimately
    /// diverge (§5.1 permits this); the join keeps the causally newest
    /// observation (or the later timestamp for LWW/RR).
    pub fn merge(&mut self, other: SessionMeta) {
        debug_assert_eq!(self.request_id, other.request_id);
        for (key, record) in other.read_set {
            match self.read_set.get_mut(&key) {
                None => {
                    self.read_set.insert(key, record);
                }
                Some(existing) => merge_read(existing, record),
            }
        }
        debug_assert!(other.log.is_empty(), "a shipped session is sealed");
        for (key, dep) in other.dependencies {
            merge_dep(&mut self.dependencies, &key, &dep.clock, dep.cache);
        }
        self.traced |= other.traced;
        for entry in other.shadow_reads {
            if !self.shadow_reads.contains(&entry) {
                self.shadow_reads.push(entry);
            }
        }
    }

    /// Approximate shipped-metadata size in bytes, for overhead reporting
    /// (§6.2.1).
    pub fn metadata_bytes(&self) -> usize {
        let reads: usize = self
            .read_set
            .iter()
            .map(|(k, r)| {
                k.as_str().len()
                    + 8
                    + match &r.version {
                        VersionId::Lww(_) => 16,
                        VersionId::Causal(vc) => vc.metadata_bytes(),
                    }
            })
            .sum();
        let deps: usize = self
            .dependencies
            .iter()
            .map(|(k, d)| k.as_str().len() + 8 + d.clock.metadata_bytes())
            .sum();
        reads + deps
    }
}

fn merge_read(existing: &mut ReadRecord, incoming: ReadRecord) {
    match (&mut existing.version, incoming.version) {
        (VersionId::Lww(a), VersionId::Lww(b)) if b > *a => {
            *existing = ReadRecord {
                version: VersionId::Lww(b),
                cache: incoming.cache,
            };
        }
        (VersionId::Causal(a), VersionId::Causal(b)) => {
            // Join: downstream must see a version at least as new as what
            // either branch saw.
            a.join_ref(&b);
            let _ = b;
        }
        // LWW with an older incoming version keeps the existing record;
        // mixed version kinds cannot occur within one deployment mode.
        _ => {}
    }
}

fn merge_dep(deps: &mut KeyMap<DepRecord>, key: &Key, clock: &VectorClock, cache: Address) {
    match deps.get_mut(key) {
        None => {
            deps.insert(
                key.clone(),
                DepRecord {
                    clock: clock.clone(),
                    cache,
                },
            );
        }
        Some(existing) => existing.clock.join_ref(clock),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use cloudburst_lattice::Timestamp;
    use cloudburst_net::{NetConfig, Network};

    fn addr() -> Address {
        let net = Network::new(NetConfig::instant());
        let ep = net.register();
        let a = ep.addr();
        std::mem::forget(ep);
        std::mem::forget(net);
        a
    }

    fn vc(entries: &[(u64, u64)]) -> VectorClock {
        entries.iter().copied().collect()
    }

    fn lww(clock: u64) -> Capsule {
        Capsule::wrap_lww(Timestamp::new(clock, 1), Bytes::new())
    }

    fn causal(clock: &[(u64, u64)], deps: &[(&str, &[(u64, u64)])]) -> Capsule {
        Capsule::wrap_causal(
            vc(clock),
            deps.iter().map(|(k, c)| (Key::new(*k), vc(c))),
            Bytes::new(),
        )
    }

    /// A session that read `capsules` at one node and then shipped.
    fn shipped(level: ConsistencyLevel, a: Address, capsules: &[(&str, Capsule)]) -> SessionMeta {
        let mut s = SessionMeta::new(1, level);
        for (key, capsule) in capsules {
            s.log_read(&Key::new(*key), capsule, a);
        }
        s.seal_log(a);
        s
    }

    #[test]
    fn lww_mode_ships_nothing() {
        let s = shipped(ConsistencyLevel::Lww, addr(), &[("k", lww(1))]);
        assert!(s.read_set.is_empty());
        assert_eq!(s.metadata_bytes(), 0);
    }

    #[test]
    fn rr_records_reads_and_writes() {
        let a = addr();
        let mut s = shipped(ConsistencyLevel::RepeatableRead, a, &[("k", lww(1))]);
        assert_eq!(s.read_set.len(), 1);
        // In-DAG write supersedes the read version.
        s.log_read(&Key::new("k"), &lww(1), a);
        s.log_write(&Key::new("k"), lww(9));
        s.seal_log(a);
        assert_eq!(
            s.read_set[&Key::new("k")].version,
            VersionId::Lww(Timestamp::new(9, 1))
        );
        // RR ships no dependency metadata.
        assert!(s.dependencies.is_empty());
    }

    #[test]
    fn dsc_collects_dependencies() {
        let s = shipped(
            ConsistencyLevel::DistributedSessionCausal,
            addr(),
            &[("k", causal(&[(1, 1)], &[("l", &[(2, 3)])]))],
        );
        assert_eq!(s.read_set.len(), 1);
        assert_eq!(s.dependencies[&Key::new("l")].clock, vc(&[(2, 3)]));
        assert!(s.metadata_bytes() > 0);
    }

    #[test]
    fn merge_keeps_newest_lww_read() {
        let a = addr();
        let rr = ConsistencyLevel::RepeatableRead;
        let mut left = shipped(rr, a, &[("k", lww(1))]);
        let right = shipped(rr, a, &[("k", lww(5))]);
        left.merge(right);
        assert_eq!(
            left.read_set[&Key::new("k")].version,
            VersionId::Lww(Timestamp::new(5, 1))
        );
    }

    #[test]
    fn merge_joins_causal_clocks_and_deps() {
        let a = addr();
        let dsc = ConsistencyLevel::DistributedSessionCausal;
        let mut left = shipped(dsc, a, &[("k", causal(&[(1, 2)], &[("d", &[(7, 1)])]))]);
        let right = shipped(dsc, a, &[("k", causal(&[(2, 3)], &[("d", &[(8, 4)])]))]);
        left.merge(right);
        let VersionId::Causal(ref joined) = left.read_set[&Key::new("k")].version else {
            panic!("expected causal version");
        };
        assert_eq!(*joined, vc(&[(1, 2), (2, 3)]));
        assert_eq!(
            left.dependencies[&Key::new("d")].clock,
            vc(&[(7, 1), (8, 4)])
        );
    }

    #[test]
    fn merge_takes_disjoint_entries() {
        let a = addr();
        let rr = ConsistencyLevel::RepeatableRead;
        let mut left = shipped(rr, a, &[("x", lww(1))]);
        let right = shipped(rr, a, &[("y", lww(2))]);
        left.merge(right);
        assert_eq!(left.read_set.len(), 2);
    }
}
