//! Anomaly detection for Table 2 (§6.2.2).
//!
//! The paper runs 4000 DAG executions in LWW mode and counts, *post hoc*, the
//! anomalies that each stronger consistency level would have prevented:
//! single-key causal (SK), multi-key causal (MK), distributed session causal
//! (DSC), and distributed session repeatable read (DSRR).
//!
//! We reproduce this with a trace: executors record every read and write
//! (with its session context) into a [`TraceSink`]; [`count_anomalies`]
//! replays the trace and classifies violations. Causality between versions
//! is derived from the session structure: a written version depends on every
//! key version its session read before the write — the same definition the
//! causal capsules use at runtime.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use cloudburst_lattice::{Key, KeyMap, KeySet, Timestamp};
use parking_lot::Mutex;

use crate::types::{RequestId, VmId};

/// One traced storage access.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A read served to a function.
    Read {
        /// DAG request (session) ID.
        request: RequestId,
        /// Position of the function in the DAG's execution order.
        step: usize,
        /// The VM cache that served the read.
        cache: VmId,
        /// The key read.
        key: Key,
        /// The LWW timestamp of the version observed.
        version: Timestamp,
    },
    /// A write issued by a function.
    Write {
        /// DAG request (session) ID.
        request: RequestId,
        /// Position of the function in the DAG's execution order.
        step: usize,
        /// The VM cache that absorbed the write.
        cache: VmId,
        /// The key written.
        key: Key,
        /// The LWW timestamp assigned to the new version.
        version: Timestamp,
        /// Key versions the writing session had read before this write —
        /// the new version's causal dependency set.
        read_before: Vec<(Key, Timestamp)>,
    },
}

/// A shared, thread-safe trace collector (enabled only by the consistency
/// experiments; zero overhead when absent).
#[derive(Debug, Clone)]
pub struct TraceSink {
    // lock-rank: 52 cb-trace-events
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self {
            events: Arc::new(Mutex::ranked(52, "cb-trace-events", Vec::new())),
        }
    }
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn record(&self, event: TraceEvent) {
        self.events.lock().push(event);
    }

    /// Drain all recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.lock())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

/// Anomaly counts per consistency class. The causal classes are *specific*
/// counts; Table 2 presents them cumulatively (SK, SK+MK, SK+MK+DSC) because
/// the levels are increasingly strict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnomalyCounts {
    /// Reads that observed a version while a causally concurrent version of
    /// the same key existed (LWW silently dropped one of them).
    pub single_key: u64,
    /// Function invocations whose single-cache read set was not a causal
    /// cut.
    pub multi_key: u64,
    /// DAG requests whose cross-cache read set violated the causal-cut
    /// property (beyond single-invocation violations).
    pub distributed_causal: u64,
    /// DAG requests that read two different versions of the same key with no
    /// intervening in-DAG write.
    pub repeatable_read: u64,
}

impl AnomalyCounts {
    /// Cumulative causal columns as printed in Table 2: `(SK, MK, DSC)`.
    pub fn cumulative_causal(&self) -> (u64, u64, u64) {
        (
            self.single_key,
            self.single_key + self.multi_key,
            self.single_key + self.multi_key + self.distributed_causal,
        )
    }
}

/// Classify the anomalies in a trace. See module docs for definitions.
pub fn count_anomalies(events: &[TraceEvent]) -> AnomalyCounts {
    let deps = collect_version_deps(events);
    let order = same_key_order(&deps);
    let versions_by_key = versions_by_key(&deps, events);

    let mut counts = AnomalyCounts::default();
    count_single_key(events, &order, &versions_by_key, &mut counts);
    count_causal_cut_violations(events, &deps, &mut counts);
    count_repeatable_read(events, &mut counts);
    counts
}

type VersionDeps = HashMap<(Key, Timestamp), Vec<(Key, Timestamp)>>;

/// Dependency set of each written version.
fn collect_version_deps(events: &[TraceEvent]) -> VersionDeps {
    let mut deps: VersionDeps = HashMap::new();
    for e in events {
        if let TraceEvent::Write {
            key,
            version,
            read_before,
            ..
        } = e
        {
            deps.entry((key.clone(), *version))
                .or_default()
                .extend(read_before.iter().cloned());
        }
    }
    deps
}

/// All versions seen per key (written or read, so pre-loaded versions count).
fn versions_by_key(deps: &VersionDeps, events: &[TraceEvent]) -> KeyMap<Vec<Timestamp>> {
    let mut versions: KeyMap<HashSet<Timestamp>> = KeyMap::default();
    for (key, ts) in deps.keys() {
        versions.entry(key.clone()).or_default().insert(*ts);
    }
    for e in events {
        if let TraceEvent::Read { key, version, .. } = e {
            versions.entry(key.clone()).or_default().insert(*version);
        }
    }
    versions
        .into_iter()
        .map(|(k, set)| {
            let mut v: Vec<Timestamp> = set.into_iter().collect();
            v.sort_unstable();
            (k, v)
        })
        .collect()
}

/// The happens-before order between versions *of the same key*, from direct
/// dependency edges closed transitively along same-key chains. (Cross-key
/// chains that induce same-key order are rare in these workloads and their
/// omission only makes the detector conservative.)
fn same_key_order(deps: &VersionDeps) -> KeyMap<HashSet<(Timestamp, Timestamp)>> {
    // order[k] contains (a, b) iff version a happens-before version b.
    let mut order: KeyMap<HashSet<(Timestamp, Timestamp)>> = KeyMap::default();
    for ((key, ts), dep_list) in deps {
        for (dep_key, dep_ts) in dep_list {
            if dep_key == key && dep_ts != ts {
                order.entry(key.clone()).or_default().insert((*dep_ts, *ts));
            }
        }
    }
    // Transitive closure per key (version counts per key are small).
    for pairs in order.values_mut() {
        loop {
            let mut added = Vec::new();
            for &(a, b) in pairs.iter() {
                for &(c, d) in pairs.iter() {
                    if b == c && a != d && !pairs.contains(&(a, d)) {
                        added.push((a, d));
                    }
                }
            }
            if added.is_empty() {
                break;
            }
            pairs.extend(added);
        }
    }
    order
}

fn concurrent(
    order: &KeyMap<HashSet<(Timestamp, Timestamp)>>,
    key: &Key,
    a: Timestamp,
    b: Timestamp,
) -> bool {
    if a == b {
        return false;
    }
    match order.get(key) {
        None => true,
        Some(pairs) => !pairs.contains(&(a, b)) && !pairs.contains(&(b, a)),
    }
}

fn count_single_key(
    events: &[TraceEvent],
    order: &KeyMap<HashSet<(Timestamp, Timestamp)>>,
    versions: &KeyMap<Vec<Timestamp>>,
    counts: &mut AnomalyCounts,
) {
    for e in events {
        if let TraceEvent::Read { key, version, .. } = e {
            let Some(all) = versions.get(key) else {
                continue;
            };
            // A concurrent sibling existed → SK causality would have
            // preserved both; LWW dropped one.
            if all
                .iter()
                .any(|&other| other != *version && concurrent(order, key, other, *version))
            {
                counts.single_key += 1;
            }
        }
    }
}

/// MK: per-invocation causal-cut check. DSC: per-request cross-invocation
/// check (counted only when not already flagged within one invocation).
fn count_causal_cut_violations(
    events: &[TraceEvent],
    deps: &VersionDeps,
    counts: &mut AnomalyCounts,
) {
    // (request, step) → reads; request → reads.
    let mut by_invocation: HashMap<(RequestId, usize), Vec<(&Key, Timestamp)>> = HashMap::new();
    let mut by_request: HashMap<RequestId, Vec<(&Key, Timestamp)>> = HashMap::new();
    for e in events {
        if let TraceEvent::Read {
            request,
            step,
            key,
            version,
            ..
        } = e
        {
            by_invocation
                .entry((*request, *step))
                .or_default()
                .push((key, *version));
            by_request
                .entry(*request)
                .or_default()
                .push((key, *version));
        }
    }

    let violates = |reads: &[(&Key, Timestamp)]| -> bool {
        for (k, ts) in reads {
            let Some(dep_list) = deps.get(&((*k).clone(), *ts)) else {
                continue;
            };
            for (dep_key, required) in dep_list {
                // The read set observed a version of dep_key older than the
                // version (k, ts) depends on → not a causal cut.
                if reads
                    .iter()
                    .any(|(l, seen)| *l == dep_key && seen < required)
                {
                    return true;
                }
            }
        }
        false
    };

    let mut mk_requests: HashSet<RequestId> = HashSet::new();
    for ((request, _), reads) in &by_invocation {
        if violates(reads) {
            counts.multi_key += 1;
            mk_requests.insert(*request);
        }
    }
    for (request, reads) in &by_request {
        if !mk_requests.contains(request) && violates(reads) {
            counts.distributed_causal += 1;
        }
    }
}

fn count_repeatable_read(events: &[TraceEvent], counts: &mut AnomalyCounts) {
    // Group events per request in step order, then scan each key's
    // read/write sequence.
    let mut per_request: HashMap<RequestId, Vec<&TraceEvent>> = HashMap::new();
    for e in events {
        let request = match e {
            TraceEvent::Read { request, .. } | TraceEvent::Write { request, .. } => *request,
        };
        per_request.entry(request).or_default().push(e);
    }
    for (_, mut evs) in per_request {
        evs.sort_by_key(|e| match e {
            TraceEvent::Read { step, .. } | TraceEvent::Write { step, .. } => *step,
        });
        let mut last_seen: KeyMap<Timestamp> = KeyMap::default();
        let mut flagged = KeySet::default();
        for e in &evs {
            match e {
                TraceEvent::Read { key, version, .. } => {
                    if let Some(&prev) = last_seen.get(key) {
                        if prev != *version && !flagged.contains(key) {
                            counts.repeatable_read += 1;
                            flagged.insert(key.clone());
                        }
                    }
                    last_seen.entry(key.clone()).or_insert(*version);
                }
                TraceEvent::Write { key, version, .. } => {
                    // An in-DAG write legitimately changes the version
                    // downstream readers must see.
                    last_seen.insert(key.clone(), *version);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64, node: u64) -> Timestamp {
        Timestamp::new(t, node)
    }

    fn read(request: RequestId, step: usize, key: &str, version: Timestamp) -> TraceEvent {
        TraceEvent::Read {
            request,
            step,
            cache: 0,
            key: Key::new(key),
            version,
        }
    }

    fn write(
        request: RequestId,
        step: usize,
        key: &str,
        version: Timestamp,
        read_before: &[(&str, Timestamp)],
    ) -> TraceEvent {
        TraceEvent::Write {
            request,
            step,
            cache: 0,
            key: Key::new(key),
            version,
            read_before: read_before
                .iter()
                .map(|(k, t)| (Key::new(*k), *t))
                .collect(),
        }
    }

    #[test]
    fn clean_trace_has_no_anomalies() {
        // One session reads k then writes k (ordered versions).
        let events = vec![
            read(1, 0, "k", ts(1, 1)),
            write(1, 1, "k", ts(2, 1), &[("k", ts(1, 1))]),
            read(2, 0, "k", ts(2, 1)),
        ];
        assert_eq!(count_anomalies(&events), AnomalyCounts::default());
    }

    #[test]
    fn concurrent_writes_flag_single_key() {
        // Two sessions write k without having read each other's version →
        // concurrent; a later read observes one of them.
        let events = vec![
            write(1, 0, "k", ts(5, 1), &[]),
            write(2, 0, "k", ts(5, 2), &[]),
            read(3, 0, "k", ts(5, 2)),
        ];
        let counts = count_anomalies(&events);
        assert_eq!(counts.single_key, 1);
        assert_eq!(counts.multi_key, 0);
        assert_eq!(counts.repeatable_read, 0);
    }

    #[test]
    fn ordered_writes_do_not_flag_single_key() {
        // Session 2 read session 1's version before writing → ordered.
        let events = vec![
            write(1, 0, "k", ts(1, 1), &[]),
            read(2, 0, "k", ts(1, 1)),
            write(2, 1, "k", ts(2, 2), &[("k", ts(1, 1))]),
            read(3, 0, "k", ts(2, 2)),
        ];
        let counts = count_anomalies(&events);
        assert_eq!(counts.single_key, 0);
    }

    #[test]
    fn causal_cut_violation_within_invocation_is_mk() {
        // Session 1: reads l@1, writes k@2 (so k@2 depends on l@1).
        // But l@1 itself was written depending on... we need: invocation
        // reads k@2 and an *older* l than k@2's dependency.
        let events = vec![
            write(1, 0, "l", ts(1, 1), &[]),
            write(1, 1, "l", ts(9, 1), &[("l", ts(1, 1))]),
            read(2, 0, "l", ts(9, 1)),
            write(2, 1, "k", ts(3, 2), &[("l", ts(9, 1))]),
            // Invocation reads k@3 (dep: l ≥ 9) and stale l@1 together.
            read(3, 0, "k", ts(3, 2)),
            read(3, 0, "l", ts(1, 1)),
        ];
        let counts = count_anomalies(&events);
        assert_eq!(counts.multi_key, 1);
        assert_eq!(counts.distributed_causal, 0, "already flagged at MK level");
    }

    #[test]
    fn causal_cut_violation_across_invocations_is_dsc() {
        let events = vec![
            write(1, 0, "l", ts(1, 1), &[]),
            write(1, 1, "l", ts(9, 1), &[("l", ts(1, 1))]),
            read(2, 0, "l", ts(9, 1)),
            write(2, 1, "k", ts(3, 2), &[("l", ts(9, 1))]),
            // Different steps (→ different caches) of request 3.
            read(3, 0, "k", ts(3, 2)),
            read(3, 1, "l", ts(1, 1)),
        ];
        let counts = count_anomalies(&events);
        assert_eq!(counts.multi_key, 0);
        assert_eq!(counts.distributed_causal, 1);
    }

    #[test]
    fn repeatable_read_violation_detected() {
        let events = vec![
            read(1, 0, "k", ts(1, 1)),
            read(1, 1, "k", ts(2, 2)), // different version, no in-DAG write
        ];
        let counts = count_anomalies(&events);
        assert_eq!(counts.repeatable_read, 1);
    }

    #[test]
    fn in_dag_write_makes_new_version_legitimate() {
        let events = vec![
            read(1, 0, "k", ts(1, 1)),
            write(1, 1, "k", ts(2, 1), &[("k", ts(1, 1))]),
            read(1, 2, "k", ts(2, 1)),
        ];
        let counts = count_anomalies(&events);
        assert_eq!(counts.repeatable_read, 0);
    }

    #[test]
    fn rr_flags_once_per_key_per_request() {
        let events = vec![
            read(1, 0, "k", ts(1, 1)),
            read(1, 1, "k", ts(2, 2)),
            read(1, 2, "k", ts(3, 3)),
        ];
        assert_eq!(count_anomalies(&events).repeatable_read, 1);
    }

    #[test]
    fn cumulative_presentation_accrues() {
        let counts = AnomalyCounts {
            single_key: 900,
            multi_key: 35,
            distributed_causal: 104,
            repeatable_read: 46,
        };
        assert_eq!(counts.cumulative_causal(), (900, 935, 1039));
    }

    #[test]
    fn trace_sink_collects_and_drains() {
        let sink = TraceSink::new();
        assert!(sink.is_empty());
        sink.record(read(1, 0, "k", ts(1, 1)));
        sink.record(write(1, 1, "k", ts(2, 1), &[]));
        assert_eq!(sink.len(), 2);
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert!(sink.is_empty());
    }
}
