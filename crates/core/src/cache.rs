//! [`VmCache`]: the mutable cache co-located with every function-execution
//! VM — the "physical colocation" half of LDPC (paper §4.2) and the site of
//! the distributed session consistency protocols (§5.3).
//!
//! Executors on the VM call the cache through shared memory (the paper's
//! IPC); a cache *server thread* additionally receives pushed
//! [`cloudburst_anna::KeyUpdate`]s from Anna, serves version-snapshot fetches
//! from downstream caches, and periodically publishes its cached keyset to
//! Anna so the key→cache index stays fresh.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use cloudburst_anna::{AnnaClient, KeyUpdate};
use cloudburst_lattice::{Capsule, Key, Lattice, VectorClock};
use cloudburst_lru::SlotLru;
use cloudburst_net::{reply_channel, Address, Batch, Endpoint, Network, ReplyHandle, Site};
use cloudburst_runtime::{
    Actor, ActorCtx, ActorHandle, Cadence, Poll, Runtime as ActorRuntime, POLL_BUDGET,
};
use parking_lot::{Condvar, Mutex};

use crate::consistency::session::SessionMeta;
use crate::topology::Topology;
use crate::types::{ConsistencyLevel, ExecutorId, RequestId, VersionId, VmId};

/// Requests served by a cache's server thread (cache-to-cache protocol).
#[derive(Debug)]
pub enum CacheRequest {
    /// Fetch the version snapshot of `key` held for `request_id`
    /// (Algorithms 1 & 2: `fetch_from_upstream`). Falls back to the live
    /// cache and then to Anna if no snapshot is held.
    Fetch {
        /// The session whose snapshot is wanted.
        request_id: RequestId,
        /// The key to fetch.
        key: Key,
        /// Response channel.
        reply: ReplyHandle<Option<Capsule>>,
    },
    /// A DAG completed: version snapshots for `request_id` can be evicted
    /// ("the last executor in the DAG notifies all upstream caches of DAG
    /// completion, allowing version snapshots to be evicted", §5.3).
    SessionComplete {
        /// The completed session.
        request_id: RequestId,
    },
    /// Stop the server thread.
    Shutdown,
}

/// Cache configuration.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// How often the cache publishes its keyset snapshot to Anna, in paper
    /// milliseconds.
    // lint: allow(L008): the benchmark asserts its zero-model config keeps this protocol cadence at the product default
    pub keyset_publish_interval_ms: f64,
    /// Maximum number of cached entries (LRU beyond this).
    pub max_entries: usize,
    /// Number of lock stripes the live cache is split into. Executor threads
    /// on a VM touch the cache concurrently; striping by key hash removes the
    /// single global lock from the hot read/write path. Capacity and LRU
    /// eviction are enforced per shard (`max_entries / shards` each), so with
    /// more than one shard eviction order is approximate LRU. Set to 1 for
    /// the exact single-list behaviour.
    pub shards: usize,
    /// Write-behind window in paper milliseconds: session writes accumulate
    /// in a dirty buffer (repeated writes to a key merge in place) and flush
    /// to Anna as one batched `MultiPut` per responsible node per window
    /// (paper §4.2's asynchronous write-back, coalesced). The scaled window
    /// is floored at 100 µs of wall clock, so `0.0` means "as often as the
    /// floor allows".
    pub write_flush_interval_ms: f64,
}

/// How many recursive dependency-fetch rounds the bolt-on causal-cut
/// maintenance performs before accepting a best-effort cut.
const CAUSAL_CUT_FETCH_ROUNDS: usize = 3;

/// Flush the dirty buffer early once its payload bytes reach this cap, and
/// never put more than this many payload bytes in one `MultiPut`.
const MAX_BATCH_BYTES: usize = 1 << 20;

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            keyset_publish_interval_ms: 50.0,
            max_entries: 100_000,
            shards: 8,
            write_flush_interval_ms: 2.0,
        }
    }
}

/// Cache hit/miss statistics.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Reads served from the local cache.
    pub hits: AtomicU64,
    /// Reads that had to fetch from Anna.
    pub misses: AtomicU64,
    /// Keys warmed by batched prefetches ([`CacheInner::prefetch`]). A
    /// prefetched key's subsequent read-through counts as a hit, so this is
    /// the number to consult for the cache's remote-fetch traffic.
    pub prefetched_keys: AtomicU64,
    /// Batched write-behind flushes issued to Anna.
    pub write_flushes: AtomicU64,
    /// Misses that piggy-backed on another thread's in-flight fill instead
    /// of issuing their own KVS fetch (single-flight coalescing).
    pub coalesced_fills: AtomicU64,
    /// Version fetches served to downstream caches.
    pub upstream_fetches_served: AtomicU64,
    /// Version fetches this cache issued to upstream caches.
    pub upstream_fetches_issued: AtomicU64,
    /// `SessionComplete` notices handled by the server actor.
    pub session_completes: AtomicU64,
}

/// One cached entry: the capsule handle plus its recency slot, so a hit
/// resolves value *and* LRU position with a single hash lookup.
struct CacheEntry {
    capsule: Capsule,
    slot: u32,
}

/// Pending write-behind state (see [`CacheInner::put_session`]).
#[derive(Default)]
struct DirtyBuffer {
    entries: HashMap<Key, Capsule>,
    bytes: usize,
}

/// One in-flight cache fill. The leading thread publishes the fetch outcome
/// (`Some(result)`) and wakes every waiter; `None` means still pending.
struct FillSlot {
    // lock-rank: 48 cache-fill-slot
    state: Mutex<Option<Option<Capsule>>>,
    ready: Condvar,
}

impl Default for FillSlot {
    fn default() -> Self {
        Self {
            state: Mutex::ranked(48, "cache-fill-slot", None),
            ready: Condvar::new(),
        }
    }
}

/// One lock stripe of the live cache: a key→entry map plus an O(1) slab LRU
/// ([`cloudburst_lru::SlotLru`] replaces the old `BTreeSet<(u64, Key)>`
/// index, which cost `O(log n)` and two key clones per touch; the slot held
/// in each entry makes a touch a pointer splice with no second lookup).
#[derive(Default)]
struct CacheShard {
    map: HashMap<Key, CacheEntry>,
    lru: SlotLru,
}

impl CacheShard {
    fn remove(&mut self, key: &Key) {
        if let Some(entry) = self.map.remove(key) {
            self.lru.remove(entry.slot);
        }
    }

    fn evict_to(&mut self, max_entries: usize) {
        while self.map.len() > max_entries {
            let Some(key) = self.lru.pop_coldest() else {
                break;
            };
            self.map.remove(&key);
        }
    }
}

/// The shared state executors interact with (the paper's IPC interface).
pub struct CacheInner {
    vm: VmId,
    addr: Address,
    net: Network,
    anna: AnnaClient,
    topology: Arc<Topology>,
    level: ConsistencyLevel,
    /// The live cache, lock-striped by key hash. Executor reads and writes,
    /// Anna pushes, and keyset publication all go through these shards; with
    /// the old single `Mutex<CacheData>` every executor thread on the VM
    /// serialized here.
    // lock-rank: 40 cache-shard
    shards: Box<[Mutex<CacheShard>]>,
    /// Per-shard entry cap (`max_entries / shards`, at least 1).
    shard_max: usize,
    shard_hasher: RandomState,
    /// Per-session version snapshots (Algorithms 1 & 2). Values are cheap
    /// capsule handles: storing one is a refcount bump, and the snapshot
    /// stays valid when the live entry later merges new state, because a
    /// merge copies-on-divergence instead of mutating shared data.
    // lock-rank: 42 cache-snapshots
    snapshots: Mutex<HashMap<RequestId, HashMap<Key, Capsule>>>,
    /// Write-behind buffer: session writes land here and flush to Anna as
    /// batched `MultiPut`s on the flush window (server thread) or when the
    /// byte cap fills (writer thread). Repeated writes to one key merge in
    /// place, so a hot key costs one flushed entry per window.
    // lock-rank: 44 cache-dirty
    dirty: Mutex<DirtyBuffer>,
    /// In-flight fills, keyed by the missing key (single-flight coalescing;
    /// see [`CacheInner::get_or_fetch`]). Entries exist only while a fetch
    /// is outstanding — the leader always removes its entry before
    /// publishing the outcome, so a failed fill can never poison the slot.
    // lock-rank: 46 cache-inflight
    inflight: Mutex<HashMap<Key, Arc<FillSlot>>>,
    /// Stats, exported to executor metrics.
    pub stats: CacheStats,
    shutdown: AtomicBool,
}

/// A running VM cache: shared state plus its server actor.
pub struct VmCache {
    inner: Arc<CacheInner>,
    handle: ActorHandle,
}

impl VmCache {
    /// Spawn the cache for VM `vm` as an actor on the shared runtime.
    pub fn spawn(
        runtime: &ActorRuntime,
        vm: VmId,
        net: &Network,
        anna: AnnaClient,
        topology: Arc<Topology>,
        level: ConsistencyLevel,
        config: CacheConfig,
    ) -> Self {
        // The server endpoint lives at the same region site as the Anna
        // client the cache was handed — one VM, one region.
        let endpoint = net.register_at(Site::region(anna.region()));
        // More shards than capacity would let per-shard caps overshoot the
        // configured total.
        let shard_count = config.shards.max(1).min(config.max_entries.max(1));
        let shards: Box<[Mutex<CacheShard>]> = (0..shard_count)
            .map(|_| Mutex::ranked(40, "cache-shard", CacheShard::default()))
            .collect();
        let inner = Arc::new(CacheInner {
            vm,
            addr: endpoint.addr(),
            net: net.clone(),
            anna,
            topology,
            level,
            shards,
            shard_max: (config.max_entries / shard_count).max(1),
            shard_hasher: RandomState::new(),
            snapshots: Mutex::ranked(42, "cache-snapshots", HashMap::new()),
            dirty: Mutex::ranked(44, "cache-dirty", DirtyBuffer::default()),
            inflight: Mutex::ranked(46, "cache-inflight", HashMap::new()),
            stats: CacheStats::default(),
            shutdown: AtomicBool::new(false),
        });
        let handle = runtime.register(format!("cb-cache-{vm}"));
        {
            let waker = handle.clone();
            endpoint.set_notify(move || waker.notify());
        }
        let publish_interval = inner
            .net
            .time_scale()
            .ms(config.keyset_publish_interval_ms)
            .max(Duration::from_micros(200));
        let flush_interval = inner
            .net
            .time_scale()
            .ms(config.write_flush_interval_ms)
            .max(Duration::from_micros(100));
        let server = CacheServer {
            inner: Arc::clone(&inner),
            endpoint,
            flush: Cadence::new(flush_interval),
            publish: Cadence::new(publish_interval),
        };
        runtime.start(&handle, server);
        Self { inner, handle }
    }

    /// The executor-facing shared handle.
    pub fn inner(&self) -> Arc<CacheInner> {
        Arc::clone(&self.inner)
    }

    /// The cache server's network address.
    pub fn addr(&self) -> Address {
        self.inner.addr
    }

    /// Stop the server actor and wait for it. The flag + direct notify pair
    /// works even when the network path to the server is already dead.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.handle.notify();
        self.handle.join();
    }

    /// Crash-stop the server actor: drop it *without* the final
    /// write-behind flush (failure injection — a crashed VM's buffered
    /// writes die with it; the graceful path is [`VmCache::shutdown`]).
    /// The shutdown flag is deliberately *not* set first: a racing poll
    /// that saw it would flush, which a crash must never do.
    pub fn stop(&self) {
        self.handle.stop();
    }
}

impl Drop for VmCache {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl CacheInner {
    /// The VM this cache serves.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// The cache server's address.
    pub fn addr(&self) -> Address {
        self.addr
    }

    /// The deployment consistency level.
    pub fn level(&self) -> ConsistencyLevel {
        self.level
    }

    /// The Anna client used by this cache.
    pub fn anna(&self) -> &AnnaClient {
        &self.anna
    }

    /// Number of locally cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    /// Whether `key` is currently cached (no side effects).
    pub fn contains(&self, key: &Key) -> bool {
        self.shard(key).lock().map.contains_key(key)
    }

    /// The total number of entries the cache may hold (shard granularity).
    pub fn capacity(&self) -> usize {
        self.shard_max * self.shards.len()
    }

    /// The lock stripe owning `key`.
    fn shard(&self, key: &Key) -> &Mutex<CacheShard> {
        let h = self.shard_hasher.hash_one(key);
        &self.shards[(h as usize) % self.shards.len()]
    }

    // ------------------------------------------------------------------
    // Executor-facing reads and writes
    // ------------------------------------------------------------------

    /// Read `key` under the session's consistency protocol. This is the
    /// dispatch point for Algorithm 1 (repeatable read) and Algorithm 2
    /// (distributed session causal consistency).
    ///
    /// A read costs one log entry in the session (see
    /// [`SessionMeta::log_read`]); the metadata a successor needs and the
    /// version snapshots it may fetch are built once per hop, by
    /// [`CacheInner::ship_session`].
    pub fn get_session(&self, key: &Key, session: &mut SessionMeta) -> Option<Capsule> {
        let capsule = match self.level {
            ConsistencyLevel::Lww => return self.get_or_fetch(key),
            ConsistencyLevel::SingleKeyCausal | ConsistencyLevel::MultiKeyCausal => {
                self.get_or_fetch(key)?
            }
            ConsistencyLevel::RepeatableRead | ConsistencyLevel::DistributedSessionCausal => {
                if let Some(capsule) = self.reread(key, session) {
                    return Some(capsule);
                }
                if self.level == ConsistencyLevel::RepeatableRead {
                    self.get_repeatable_read(key, session)?
                } else {
                    self.get_causal_session(key, session)?
                }
            }
        };
        session.log_read(key, &capsule, self.addr);
        Some(capsule)
    }

    /// A re-read of a key this hop already observed. Repeatable read
    /// serves the logged version. Causal mode serves the local copy while
    /// it is still `valid` against the logged version (joining it into the
    /// log when its clock moved), and the logged version once it is not: an
    /// eviction or a lagging refill can never step a session back. `None`
    /// when the key is not logged, or was logged without a causal clock.
    fn reread(&self, key: &Key, session: &mut SessionMeta) -> Option<Capsule> {
        let logged = session.log.get(key)?;
        if self.level == ConsistencyLevel::RepeatableRead {
            return Some(logged.clone());
        }
        let local = self.peek(key);
        let (fresh, newer) = {
            let logged_clock = logged.causal_clock_ref()?;
            match local.as_ref().and_then(Capsule::causal_clock_ref) {
                Some(clock) => (valid(&clock, &logged_clock), *clock != *logged_clock),
                None => (false, false),
            }
        };
        match local {
            Some(local) if fresh => {
                if newer {
                    session.log_read(key, &local, self.addr);
                }
                Some(local)
            }
            _ => Some(logged.clone()),
        }
    }

    /// Algorithm 1 — Repeatable Read, first read of `key` in this hop.
    fn get_repeatable_read(&self, key: &Key, session: &SessionMeta) -> Option<Capsule> {
        let Some(record) = session.read_set.get(key) else {
            // First read of this key in the DAG: any available version,
            // which becomes the session's snapshot (line 9).
            return self.get_or_fetch(key);
        };
        let VersionId::Lww(required) = record.version else {
            return self.get_or_fetch(key);
        };
        // Own snapshot first (we may be the upstream cache ourselves).
        if let Some(snap) = self.snapshot_of(session.request_id, key) {
            if snap.lww_timestamp() == Some(required) {
                return Some(snap);
            }
        }
        // Exact version cached locally?
        if let Some(local) = self.peek(key) {
            if local.lww_timestamp() == Some(required) {
                return Some(local);
            }
        }
        // Version mismatch → query the upstream cache that snapshotted the
        // version (line 5 of Algorithm 1).
        self.fetch_from_upstream(record.cache, session.request_id, key)
    }

    /// Algorithm 2 — Distributed Session Causal Consistency, first read of
    /// `key` in this hop.
    fn get_causal_session(&self, key: &Key, session: &SessionMeta) -> Option<Capsule> {
        // `valid(local, required)` is true if local is concurrent with or
        // dominates the upstream version (k ≥ cache_version).
        let required = match session.read_set.get(key) {
            Some(record) => match &record.version {
                VersionId::Causal(vc) => Some((vc, record.cache)),
                VersionId::Lww(_) => None,
            },
            None => session
                .dependencies
                .get(key)
                .map(|dep| (&dep.clock, dep.cache)),
        };
        let Some((required_clock, upstream)) = required else {
            // Unconstrained read; serve from the local causal cut.
            return self.get_or_fetch(key);
        };
        if let Some(local) = self.peek(key) {
            if local
                .causal_clock_ref()
                .is_some_and(|local_clock| valid(&local_clock, required_clock))
            {
                return Some(local);
            }
        }
        // Local version is causally older → fetch the snapshot upstream.
        self.fetch_from_upstream(upstream, session.request_id, key)
    }

    /// End a DAG hop before its successors are triggered: fold the
    /// session's read log into the shipped read set and store, under one
    /// `snapshots` lock, the version snapshots downstream caches fetch from
    /// (Algorithms 1 & 2) — the versions read or written here and, in
    /// causal mode, the local versions of the dependencies this cache
    /// vouched for ("caches upstream store version snapshots of these
    /// causal dependencies", §5.3). Sinks and single calls never call this,
    /// so they leave no snapshot behind.
    pub fn ship_session(&self, session: &mut SessionMeta) {
        let log = session.seal_log(self.addr);
        if log.is_empty() {
            return;
        }
        // Peek before taking `snapshots`: the shard locks rank below it.
        let deps: Vec<(Key, Capsule)> = session
            .dependencies
            .iter()
            .filter(|(_, dep)| dep.cache == self.addr)
            .filter_map(|(key, _)| Some((key.clone(), self.peek(key)?)))
            .collect();
        let mut snapshots = self.snapshots.lock();
        let snapshot = snapshots.entry(session.request_id).or_default();
        for (key, capsule) in deps {
            snapshot.entry(key).or_insert(capsule);
        }
        snapshot.extend(log);
    }

    /// Write `value` to `key` under the session's protocol; returns the new
    /// version's identity. The cache applies the update locally,
    /// acknowledges immediately, and asynchronously merges into Anna (§4.2).
    ///
    /// In the multi-key causal modes the new version depends on everything
    /// the session has observed: the read set shipped from upstream hops,
    /// this hop's read log, and `extra_deps` (the executor passes none).
    pub fn put_session(
        &self,
        key: &Key,
        value: Bytes,
        session: &mut SessionMeta,
        writer: ExecutorId,
        extra_deps: &[(Key, VectorClock)],
    ) -> VersionId {
        let (capsule, version) = if self.level.is_causal() {
            let mut clock = self
                .peek(key)
                .and_then(|c| c.causal_clock())
                .unwrap_or_default();
            clock.increment(writer);
            // Single-key mode tracks no dependencies.
            let mut deps: BTreeMap<Key, VectorClock> = BTreeMap::new();
            if self.level != ConsistencyLevel::SingleKeyCausal {
                let mut depend = |k: &Key, vc: &VectorClock| {
                    if k != key {
                        deps.entry(k.clone()).or_default().join_ref(vc);
                    }
                };
                for (k, vc) in extra_deps {
                    depend(k, vc);
                }
                for (k, record) in &session.read_set {
                    if let VersionId::Causal(vc) = &record.version {
                        depend(k, vc);
                    }
                }
                for (k, capsule) in &session.log {
                    if let Some(vc) = capsule.causal_clock_ref() {
                        depend(k, &vc);
                    }
                }
            }
            let version = VersionId::Causal(clock.clone());
            (Capsule::wrap_causal(clock, deps, value), version)
        } else {
            let ts = self.anna.next_timestamp();
            (Capsule::wrap_lww(ts, value), VersionId::Lww(ts))
        };
        // Update locally, log the write for this hop's successors, then
        // write back to Anna asynchronously via the batched write-behind
        // buffer.
        self.merge_local(key, capsule.clone());
        session.log_write(key, capsule.clone());
        self.mark_dirty(key, capsule);
        version
    }

    /// Buffer a write for the next batched flush.
    fn mark_dirty(&self, key: &Key, capsule: Capsule) {
        let full = {
            let mut dirty = self.dirty.lock();
            match dirty.entries.get_mut(key) {
                Some(pending) => {
                    let before = pending.payload_len();
                    if pending.try_join(capsule.clone()).is_err() {
                        // Kind change (e.g. delete+recreate): latest wins.
                        *pending = capsule;
                    }
                    dirty.bytes += pending.payload_len().saturating_sub(before);
                }
                None => {
                    dirty.bytes += capsule.payload_len();
                    dirty.entries.insert(key.clone(), capsule);
                }
            }
            dirty.bytes >= MAX_BATCH_BYTES
        };
        if full {
            self.flush_writes();
        }
    }

    /// Flush the write-behind buffer to Anna as batched `MultiPut`s, chunked
    /// so no single request exceeds the 1 MiB byte cap.
    pub fn flush_writes(&self) {
        let drained: Vec<(Key, Capsule)> = {
            let mut dirty = self.dirty.lock();
            dirty.bytes = 0;
            dirty.entries.drain().collect()
        };
        if drained.is_empty() {
            return;
        }
        self.stats.write_flushes.fetch_add(1, Ordering::Relaxed);
        let mut chunk: Vec<(Key, Capsule)> = Vec::new();
        let mut chunk_bytes = 0usize;
        for (key, capsule) in drained {
            chunk_bytes += capsule.payload_len();
            chunk.push((key, capsule));
            if chunk_bytes >= MAX_BATCH_BYTES {
                let _ = self.anna.multi_put_async(std::mem::take(&mut chunk));
                chunk_bytes = 0;
            }
        }
        if !chunk.is_empty() {
            let _ = self.anna.multi_put_async(chunk);
        }
    }

    /// Delete `key` (local eviction + Anna delete). A buffered write-behind
    /// for the key is discarded so the flush cannot resurrect it.
    pub fn delete(&self, key: &Key) {
        self.shard(key).lock().remove(key);
        {
            let mut dirty = self.dirty.lock();
            if let Some(dropped) = dirty.entries.remove(key) {
                dirty.bytes = dirty.bytes.saturating_sub(dropped.payload_len());
            }
        }
        let _ = self.anna.delete(key);
    }

    /// Plain read: local hit, else synchronous fetch from Anna (maintaining
    /// the causal cut in causal modes). Concurrent misses on one key
    /// coalesce into a single KVS fetch (single-flight): the first missing
    /// thread leads the fill, every other thread blocks on the in-flight
    /// slot and receives the same `Arc`'d capsule handle — a thundering herd
    /// on a hot key costs one storage request instead of one per thread.
    pub fn get_or_fetch(&self, key: &Key) -> Option<Capsule> {
        if let Some(c) = self.peek(key) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Some(c);
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let (slot, leader) = {
            let mut inflight = self.inflight.lock();
            match inflight.get(key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(FillSlot::default());
                    inflight.insert(key.clone(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if leader {
            // Re-check the cache first: a fill that completed between our
            // miss and taking leadership already admitted the capsule, and
            // refetching it would break the M-misses→1-fetch guarantee.
            let result = self.peek(key).or_else(|| self.fill(key));
            // Unregister *before* publishing: a miss arriving after this
            // point leads a fresh fill rather than adopting a stale
            // outcome, and a failed fill never poisons the slot.
            self.inflight.lock().remove(key);
            *slot.state.lock() = Some(result.clone());
            slot.ready.notify_all();
            result
        } else {
            self.stats.coalesced_fills.fetch_add(1, Ordering::Relaxed);
            // The follower parks until the leader publishes; on a pooled
            // worker that must count as a blocking region so a spare keeps
            // the pool live (the leader's fill may itself be queued on it).
            cloudburst_runtime::blocking(|| {
                let mut state = slot.state.lock();
                while state.is_none() {
                    slot.ready.wait(&mut state);
                }
                state.clone().expect("published outcome")
            })
        }
    }

    /// The actual KVS fetch behind a miss. Spread across the key's replicas
    /// (deterministically by VM), which both exploits hot-key selective
    /// replication and exposes the replica-lag staleness that eventual
    /// consistency permits. Errors surface as `None` to the reader; the
    /// next miss retries.
    fn fill(&self, key: &Key) -> Option<Capsule> {
        let capsule = self.anna.get_spread(key, self.vm as usize).ok().flatten()?;
        self.admit(key, capsule.clone());
        Some(capsule)
    }

    /// Drop the locally cached copy of `key` without touching the KVS (the
    /// stored value stays intact — unlike [`CacheInner::delete`]). The next
    /// read misses and refetches.
    pub fn evict(&self, key: &Key) {
        self.shard(key).lock().remove(key);
    }

    /// Warm the cache for all of `keys` with one batched KVS request per
    /// responsible node instead of one sequential round trip per key — the
    /// coalesced fetch executors issue for a function's reference keys
    /// before resolving them. Already-cached keys cost nothing; with fewer
    /// than two missing keys the plain read-through path is used (no
    /// batching win). Returns how many keys were fetched and admitted.
    ///
    /// Prefetched keys are counted in [`CacheStats::prefetched_keys`]; the
    /// subsequent read-through then records a local hit.
    pub fn prefetch(&self, keys: &[Key]) -> usize {
        let mut missing: Vec<Key> = Vec::new();
        for key in keys {
            if !self.contains(key) && !missing.contains(key) {
                missing.push(key.clone());
            }
        }
        if missing.len() < 2 {
            return 0;
        }
        let Ok(results) = self.anna.multi_get_spread(&missing, self.vm as usize) else {
            return 0;
        };
        let mut fetched = 0;
        for (key, capsule) in missing.iter().zip(results) {
            if let Some(capsule) = capsule {
                self.admit(key, capsule);
                fetched += 1;
            }
        }
        self.stats
            .prefetched_keys
            .fetch_add(fetched as u64, Ordering::Relaxed);
        fetched as usize
    }

    /// Look at the locally cached value (records an LRU touch, no fetch).
    /// The returned capsule is a cheap handle — no payload copy; the whole
    /// hit is one hash lookup plus a list splice under the shard lock.
    pub fn peek(&self, key: &Key) -> Option<Capsule> {
        let shard = &mut *self.shard(key).lock();
        let entry = shard.map.get(key)?;
        shard.lru.touch(entry.slot);
        Some(entry.capsule.clone())
    }

    /// All cached keys (for keyset publication and scheduler indexes).
    pub fn cached_keys(&self) -> Vec<Key> {
        let mut keys = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            keys.extend(shard.lock().map.keys().cloned());
        }
        keys
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Admit a capsule fetched from Anna or pushed by it, maintaining the
    /// bolt-on causal cut in causal-cut modes: before a causal version
    /// becomes visible, its dependencies must be present at admissible
    /// versions (§5.3).
    fn admit(&self, key: &Key, capsule: Capsule) {
        if self.level.needs_causal_cut() {
            if let Capsule::Causal(c) = &capsule {
                self.satisfy_dependencies(&c.dependencies_ref());
            }
        }
        self.merge_local(key, capsule);
    }

    /// Fetch missing/stale dependencies from Anna, breadth-first, up to
    /// [`CAUSAL_CUT_FETCH_ROUNDS`] rounds; each round is one primary-first
    /// `multi_get` of the frontier still unsatisfied, so a version with n
    /// uncached dependencies costs one request per responsible node, not n
    /// sequential round trips. Bolt-on would buffer the update until the
    /// cut is restorable; bounding the rounds keeps the simulation live
    /// (ARCHITECTURE.md, `CacheConfig`). A round whose read fails ends the
    /// fill (best effort, like a bounded one).
    fn satisfy_dependencies(&self, deps: &BTreeMap<Key, VectorClock>) {
        let mut frontier: Vec<(Key, VectorClock)> = deps
            .iter()
            .map(|(key, clock)| (key.clone(), clock.clone()))
            .collect();
        for _ in 0..CAUSAL_CUT_FETCH_ROUNDS {
            let mut wanted: Vec<Key> = Vec::new();
            for (dep_key, required) in &frontier {
                let satisfied = self.peek(dep_key).is_some_and(|c| {
                    c.causal_clock_ref()
                        .is_some_and(|local| valid(&local, required))
                });
                if !satisfied && !wanted.contains(dep_key) {
                    wanted.push(dep_key.clone());
                }
            }
            if wanted.is_empty() {
                return;
            }
            let Ok(fetched) = self.anna.multi_get(&wanted) else {
                return;
            };
            frontier.clear();
            for (dep_key, capsule) in wanted.iter().zip(fetched) {
                let Some(capsule) = capsule else { continue };
                if let Capsule::Causal(c) = &capsule {
                    frontier.extend(
                        c.dependencies_ref()
                            .iter()
                            .map(|(key, clock)| (key.clone(), clock.clone())),
                    );
                }
                self.merge_local(dep_key, capsule);
            }
        }
    }

    fn merge_local(&self, key: &Key, capsule: Capsule) {
        let shard = &mut *self.shard(key).lock();
        match shard.map.get_mut(key) {
            Some(entry) => {
                // Merging into a handle that session snapshots share copies
                // the underlying state first (copy-on-divergence), so those
                // snapshots keep observing their exact version.
                let _ = entry.capsule.try_join(capsule);
                shard.lru.touch(entry.slot);
            }
            None => {
                let slot = shard.lru.insert(key.clone());
                shard.map.insert(key.clone(), CacheEntry { capsule, slot });
                shard.evict_to(self.shard_max);
            }
        }
    }

    fn snapshot_of(&self, request: RequestId, key: &Key) -> Option<Capsule> {
        self.snapshots.lock().get(&request)?.get(key).cloned()
    }

    fn fetch_from_upstream(
        &self,
        upstream: Address,
        request: RequestId,
        key: &Key,
    ) -> Option<Capsule> {
        self.stats
            .upstream_fetches_issued
            .fetch_add(1, Ordering::Relaxed);
        if upstream == self.addr {
            // We are the upstream cache; answer locally.
            return self
                .snapshot_of(request, key)
                .or_else(|| self.peek(key))
                .or_else(|| self.anna.get(key).ok().flatten());
        }
        let (reply, waiter) = reply_channel::<Option<Capsule>>(&self.net);
        self.net
            .send(
                self.addr,
                upstream,
                CacheRequest::Fetch {
                    request_id: request,
                    key: key.clone(),
                    reply,
                },
            )
            .ok()?;
        waiter.wait_timeout(Duration::from_secs(10)).ok().flatten()
    }

    /// Evict all version snapshots of a completed session.
    pub fn complete_session(&self, request: RequestId) {
        self.snapshots.lock().remove(&request);
    }

    /// Number of sessions currently holding version snapshots here.
    pub fn snapshot_sessions(&self) -> usize {
        self.snapshots.lock().len()
    }

    // ------------------------------------------------------------------
    // Server actor
    // ------------------------------------------------------------------

    /// Publish the cached keyset to Anna and every scheduler's own
    /// cached-key index (§4.3).
    fn publish_keyset(&self) {
        let keys = self.cached_keys();
        let _ = self.anna.register_cached_keys(self.addr, &keys);
        for scheduler in self.topology.schedulers() {
            let _ = self.net.send(
                self.addr,
                scheduler,
                crate::scheduler::SchedulerRequest::CacheKeyset {
                    vm: self.vm,
                    keys: keys.clone(),
                },
            );
        }
    }

    /// Dispatch one received envelope; returns `true` on shutdown. Anna's
    /// coalesced pushes arrive as [`Batch`] envelopes and are unwrapped
    /// element-wise; bare messages keep working (direct sends).
    fn on_envelope(&self, envelope: cloudburst_net::Envelope) -> bool {
        match envelope.downcast::<CacheRequest>() {
            Ok(request) => self.on_request(request),
            Err(envelope) => match envelope.downcast::<KeyUpdate>() {
                Ok(update) => {
                    self.on_update(update);
                    false
                }
                Err(envelope) => {
                    let Ok(batch) = envelope.downcast::<Batch>() else {
                        return false; // foreign message; ignore
                    };
                    let mut stop = false;
                    for item in batch {
                        match item.downcast::<KeyUpdate>() {
                            Ok(update) => self.on_update(*update),
                            Err(item) => {
                                if let Ok(request) = item.downcast::<CacheRequest>() {
                                    stop |= self.on_request(*request);
                                }
                            }
                        }
                    }
                    stop
                }
            },
        }
    }

    /// Handle one cache-protocol request; returns `true` on shutdown.
    fn on_request(&self, request: CacheRequest) -> bool {
        match request {
            CacheRequest::Fetch {
                request_id,
                key,
                reply,
            } => {
                self.stats
                    .upstream_fetches_served
                    .fetch_add(1, Ordering::Relaxed);
                let capsule = self
                    .snapshot_of(request_id, &key)
                    .or_else(|| self.peek(&key))
                    .or_else(|| self.anna.get(&key).ok().flatten());
                reply.reply(capsule);
                false
            }
            CacheRequest::SessionComplete { request_id } => {
                self.stats.session_completes.fetch_add(1, Ordering::Relaxed);
                self.complete_session(request_id);
                false
            }
            CacheRequest::Shutdown => true,
        }
    }

    /// Apply one pushed key update. Only keys we actually hold are
    /// refreshed; a push for an evicted key would re-grow the cache.
    fn on_update(&self, update: KeyUpdate) {
        if self.contains(&update.key) {
            self.admit(&update.key, update.capsule);
        }
    }
}

/// The cache's server actor: receives pushed [`KeyUpdate`]s and
/// cache-protocol requests, and carries the write-behind flush and keyset
/// publication cadences on the runtime's timer heap.
struct CacheServer {
    inner: Arc<CacheInner>,
    endpoint: Endpoint,
    /// Write-behind flush cadence.
    flush: Cadence,
    /// Keyset publication cadence.
    publish: Cadence,
}

impl Actor for CacheServer {
    fn poll(&mut self, ctx: &mut ActorCtx<'_>) -> Poll {
        if self.inner.shutdown.load(Ordering::Acquire) {
            self.inner.flush_writes();
            return Poll::Shutdown;
        }
        let mut budget = POLL_BUDGET;
        let mut drained = 0usize;
        while budget > 0 {
            let Some(envelope) = self.endpoint.try_recv() else {
                break;
            };
            drained += 1;
            budget -= 1;
            if self.inner.on_envelope(envelope) {
                self.inner.flush_writes();
                return Poll::Shutdown;
            }
        }
        ctx.note_mailbox_depth(drained);
        let now = ctx.now();
        if self.flush.due(now) {
            self.inner.flush_writes();
        }
        if self.publish.due(now) {
            self.inner.publish_keyset();
        }
        if budget == 0 {
            return Poll::Yield;
        }
        Poll::Idle(Some(self.flush.deadline().min(self.publish.deadline())))
    }
}

/// Algorithm 2's `valid` predicate: the local version is admissible if it is
/// concurrent with or dominates the required version — i.e. not causally
/// older.
fn valid(local: &VectorClock, required: &VectorClock) -> bool {
    !required.dominates(local)
}

impl std::fmt::Debug for CacheInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheInner")
            .field("vm", &self.vm)
            .field("addr", &self.addr)
            .field("entries", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_anna::{AnnaCluster, AnnaConfig};
    use cloudburst_net::NetConfig;
    use std::time::Instant;

    /// One pooled runtime shared by every test in this module; worker
    /// threads outlive individual tests, which is fine for a test process.
    fn test_runtime() -> &'static ActorRuntime {
        static RT: std::sync::OnceLock<ActorRuntime> = std::sync::OnceLock::new();
        RT.get_or_init(|| ActorRuntime::new(cloudburst_runtime::RuntimeConfig::default()))
    }

    fn setup(level: ConsistencyLevel) -> (Network, AnnaCluster, VmCache) {
        let net = Network::new(NetConfig::instant());
        let anna = AnnaCluster::launch(
            &net,
            AnnaConfig {
                nodes: 2,
                replication: 1,
                durability: cloudburst_anna::Durability::Off,
                ..AnnaConfig::default()
            },
        );
        let cache = VmCache::spawn(
            test_runtime(),
            1,
            &net,
            anna.client(),
            Arc::new(Topology::new()),
            level,
            CacheConfig::default(),
        );
        (net, anna, cache)
    }

    #[test]
    fn miss_then_hit() {
        let (_net, anna, cache) = setup(ConsistencyLevel::Lww);
        let client = anna.client();
        let key = Key::new("k");
        client.put_lww(&key, Bytes::from_static(b"v")).unwrap();
        let inner = cache.inner();
        assert!(!inner.contains(&key));
        let c = inner.get_or_fetch(&key).unwrap();
        assert_eq!(c.read_value().as_ref(), b"v");
        assert!(inner.contains(&key));
        assert_eq!(inner.stats.misses.load(Ordering::Relaxed), 1);
        inner.get_or_fetch(&key).unwrap();
        assert_eq!(inner.stats.hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn put_session_writes_back_to_anna() {
        let (_net, anna, cache) = setup(ConsistencyLevel::Lww);
        let inner = cache.inner();
        let key = Key::new("w");
        let mut session = SessionMeta::new(1, ConsistencyLevel::Lww);
        inner.put_session(&key, Bytes::from_static(b"out"), &mut session, 9, &[]);
        // Async write-back: poll Anna.
        let client = anna.client();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            if let Some(c) = client.get(&key).unwrap() {
                assert_eq!(c.read_value().as_ref(), b"out");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "write-back never arrived"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn zero_flush_window_still_batches_and_does_not_busy_tick() {
        // `write_flush_interval_ms = 0.0` is the 100 µs floor, not
        // write-through: repeated writes to one key merge in the dirty
        // buffer and reach Anna as one `MultiPut` entry per flush.
        let net = Network::new(NetConfig::instant());
        let anna = AnnaCluster::launch(
            &net,
            AnnaConfig {
                nodes: 1,
                replication: 1,
                durability: cloudburst_anna::Durability::Off,
                ..AnnaConfig::default()
            },
        );
        // A runtime of its own, so its timer count is this cache's alone.
        let runtime = ActorRuntime::new(cloudburst_runtime::RuntimeConfig::default());
        let mut cache = VmCache::spawn(
            &runtime,
            1,
            &net,
            anna.client(),
            Arc::new(Topology::new()),
            ConsistencyLevel::Lww,
            CacheConfig {
                write_flush_interval_ms: 0.0,
                ..CacheConfig::default()
            },
        );
        let inner = cache.inner();
        let client = anna.client();
        let puts_served = || client.cluster_stats().unwrap()[0].puts_served;
        let puts_before = puts_served();
        const WRITES: u64 = 400;
        let key = Key::new("hot");
        let mut session = SessionMeta::new(1, ConsistencyLevel::Lww);
        for i in 0..WRITES {
            inner.put_session(&key, Bytes::from(format!("w{i}")), &mut session, 9, &[]);
        }
        inner.flush_writes();
        let last = format!("w{}", WRITES - 1);
        let deadline = Instant::now() + Duration::from_secs(2);
        while client.get(&key).unwrap().map(|c| c.read_value()) != Some(Bytes::from(last.clone())) {
            assert!(Instant::now() < deadline, "write-back never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        // One entry per flush the loop happened to span — never one per write.
        let puts = puts_served() - puts_before;
        assert!(
            puts <= WRITES / 4,
            "{WRITES} writes to one key reached Anna as {puts} put entries"
        );

        // The idle server re-arms its flush a full floor-window ahead.
        let fires_before = runtime.stats().timer_fires;
        let idle = Instant::now();
        std::thread::sleep(Duration::from_millis(50));
        let windows = idle.elapsed().as_micros() as u64 / 100;
        let fires = runtime.stats().timer_fires - fires_before;
        assert!(
            fires <= windows + 64,
            "{fires} timer fires in {windows} floor windows: the cache busy-ticks"
        );
        cache.shutdown();
        runtime.shutdown();
    }

    #[test]
    fn repeatable_read_returns_snapshot_despite_new_writes() {
        let (_net, anna, cache) = setup(ConsistencyLevel::RepeatableRead);
        let client = anna.client();
        let inner = cache.inner();
        let key = Key::new("rr");
        client.put_lww(&key, Bytes::from_static(b"v1")).unwrap();

        let mut session = SessionMeta::new(7, ConsistencyLevel::RepeatableRead);
        let first = inner.get_session(&key, &mut session).unwrap();
        assert_eq!(first.read_value().as_ref(), b"v1");

        // A new version lands in Anna and even in the local cache.
        client.put_lww(&key, Bytes::from_static(b"v2")).unwrap();
        inner.merge_local(&key, client.get(&key).unwrap().unwrap());

        // The same session must still see v1 (the snapshot).
        let again = inner.get_session(&key, &mut session).unwrap();
        assert_eq!(again.read_value().as_ref(), b"v1");

        // A fresh session sees the new version.
        let mut fresh = SessionMeta::new(8, ConsistencyLevel::RepeatableRead);
        let now = inner.get_session(&key, &mut fresh).unwrap();
        assert_eq!(now.read_value().as_ref(), b"v2");
    }

    #[test]
    fn session_completion_evicts_snapshots() {
        let (_net, anna, cache) = setup(ConsistencyLevel::RepeatableRead);
        let client = anna.client();
        let inner = cache.inner();
        let key = Key::new("rr2");
        client.put_lww(&key, Bytes::from_static(b"v1")).unwrap();
        let mut session = SessionMeta::new(9, ConsistencyLevel::RepeatableRead);
        inner.get_session(&key, &mut session).unwrap();
        // The hop ends: the executor ships the session to a successor.
        inner.ship_session(&mut session);
        assert!(inner.snapshot_of(9, &key).is_some());
        inner.complete_session(9);
        assert!(inner.snapshot_of(9, &key).is_none());
    }

    #[test]
    fn cross_cache_rr_fetches_exact_version_from_upstream() {
        let net = Network::new(NetConfig::instant());
        let anna = AnnaCluster::launch(
            &net,
            AnnaConfig {
                nodes: 2,
                replication: 1,
                durability: cloudburst_anna::Durability::Off,
                ..AnnaConfig::default()
            },
        );
        let topo = Arc::new(Topology::new());
        let up = VmCache::spawn(
            test_runtime(),
            1,
            &net,
            anna.client(),
            Arc::clone(&topo),
            ConsistencyLevel::RepeatableRead,
            CacheConfig::default(),
        );
        let down = VmCache::spawn(
            test_runtime(),
            2,
            &net,
            anna.client(),
            topo,
            ConsistencyLevel::RepeatableRead,
            CacheConfig::default(),
        );
        let client = anna.client();
        let key = Key::new("shared");
        client.put_lww(&key, Bytes::from_static(b"v1")).unwrap();

        // Function 1 reads on the upstream VM.
        let mut session = SessionMeta::new(42, ConsistencyLevel::RepeatableRead);
        let v1 = up.inner().get_session(&key, &mut session).unwrap();
        assert_eq!(v1.read_value().as_ref(), b"v1");
        // The hop ends: the executor ships the session to a successor.
        up.inner().ship_session(&mut session);

        // A newer version lands; the downstream cache would naturally see v2.
        client.put_lww(&key, Bytes::from_static(b"v2")).unwrap();

        // Function 2, same session, different VM: must see v1 via upstream
        // snapshot fetch.
        let v_again = down.inner().get_session(&key, &mut session).unwrap();
        assert_eq!(v_again.read_value().as_ref(), b"v1");
        assert!(
            down.inner()
                .stats
                .upstream_fetches_issued
                .load(Ordering::Relaxed)
                >= 1
        );
    }

    #[test]
    fn causal_session_fetches_dependency_snapshots() {
        use cloudburst_lattice::VectorClock;
        let net = Network::new(NetConfig::instant());
        let anna = AnnaCluster::launch(
            &net,
            AnnaConfig {
                nodes: 2,
                replication: 1,
                durability: cloudburst_anna::Durability::Off,
                ..AnnaConfig::default()
            },
        );
        let level = ConsistencyLevel::DistributedSessionCausal;
        let topo = Arc::new(Topology::new());
        let up = VmCache::spawn(
            test_runtime(),
            1,
            &net,
            anna.client(),
            Arc::clone(&topo),
            level,
            CacheConfig::default(),
        );
        let down = VmCache::spawn(
            test_runtime(),
            2,
            &net,
            anna.client(),
            topo,
            level,
            CacheConfig::default(),
        );
        let client = anna.client();

        // l@(9,1); k depends on l@(9,1). Write them to Anna.
        let l = Key::new("l");
        let k = Key::new("k");
        client
            .put_causal(
                &l,
                VectorClock::singleton(9, 1),
                [],
                Bytes::from_static(b"l-new"),
            )
            .unwrap();
        client
            .put_causal(
                &k,
                VectorClock::singleton(5, 1),
                [(l.clone(), VectorClock::singleton(9, 1))],
                Bytes::from_static(b"k-val"),
            )
            .unwrap();

        // Downstream cache holds a *stale* l (vc (9,0) < (9,1))… actually
        // pre-seed with an older concurrent-free version: (9,0) is encoded
        // as clock singleton with smaller counter.
        down.inner().merge_local(
            &l,
            Capsule::wrap_causal(VectorClock::new(), [], Bytes::from_static(b"l-old")),
        );

        // Upstream reads k: session records k's deps (l ≥ (9,1)).
        let mut session = SessionMeta::new(77, level);
        let kv = up.inner().get_session(&k, &mut session).unwrap();
        assert_eq!(kv.read_value().as_ref(), b"k-val");
        assert!(session.dependencies.contains_key(&l));
        // The hop ends: the executor ships the session to a successor.
        up.inner().ship_session(&mut session);

        // Downstream reads l: its local copy is causally older than the
        // required version → must fetch the admissible version upstream.
        let lv = down.inner().get_session(&l, &mut session).unwrap();
        assert_eq!(lv.read_value().as_ref(), b"l-new");
    }

    #[test]
    fn reread_never_steps_back_below_the_logged_version() {
        // A long write-behind window keeps the write out of Anna, so after
        // an eviction Anna still serves the older version; the session's
        // read log must keep the re-read at the version it wrote.
        let net = Network::new(NetConfig::instant());
        let anna = AnnaCluster::launch(
            &net,
            AnnaConfig {
                nodes: 1,
                replication: 1,
                durability: cloudburst_anna::Durability::Off,
                ..AnnaConfig::default()
            },
        );
        let level = ConsistencyLevel::DistributedSessionCausal;
        let cache = VmCache::spawn(
            test_runtime(),
            1,
            &net,
            anna.client(),
            Arc::new(Topology::new()),
            level,
            CacheConfig {
                write_flush_interval_ms: 1e9,
                ..CacheConfig::default()
            },
        );
        let inner = cache.inner();
        let client = anna.client();
        let key = Key::new("floor");
        client
            .put_causal(
                &key,
                VectorClock::singleton(1, 1),
                [],
                Bytes::from_static(b"old"),
            )
            .unwrap();
        let mut session = SessionMeta::new(5, level);
        let read =
            |session: &mut SessionMeta| inner.get_session(&key, session).unwrap().read_value();
        assert_eq!(read(&mut session), Bytes::from_static(b"old"));
        inner.put_session(&key, Bytes::from_static(b"new"), &mut session, 9, &[]);
        assert_eq!(read(&mut session), Bytes::from_static(b"new"));
        inner.evict(&key);
        assert_eq!(
            client.get(&key).unwrap().unwrap().read_value(),
            Bytes::from_static(b"old"),
            "the write is still buffered"
        );
        assert_eq!(read(&mut session), Bytes::from_static(b"new"));
    }

    #[test]
    fn a_write_depends_on_every_key_the_hop_read() {
        for level in [
            ConsistencyLevel::MultiKeyCausal,
            ConsistencyLevel::DistributedSessionCausal,
        ] {
            let (_net, anna, cache) = setup(level);
            let client = anna.client();
            let inner = cache.inner();
            let (a, b, c) = (Key::new("dep-a"), Key::new("dep-b"), Key::new("dep-c"));
            let (clock_a, clock_b) = (VectorClock::singleton(1, 1), VectorClock::singleton(2, 3));
            client
                .put_causal(&a, clock_a.clone(), [], Bytes::from_static(b"a"))
                .unwrap();
            client
                .put_causal(&b, clock_b.clone(), [], Bytes::from_static(b"b"))
                .unwrap();
            let mut session = SessionMeta::new(3, level);
            inner.get_session(&a, &mut session).unwrap();
            inner.get_session(&b, &mut session).unwrap();
            inner.put_session(&c, Bytes::from_static(b"c"), &mut session, 9, &[]);
            let Some(Capsule::Causal(written)) = inner.peek(&c) else {
                panic!("{level:?} writes causal capsules");
            };
            assert_eq!(
                written.dependencies(),
                BTreeMap::from([(a, clock_a), (b, clock_b)]),
                "{level:?}"
            );
        }
    }

    #[test]
    fn cut_fill_reads_all_uncached_dependencies_in_one_request() {
        // One scripted storage node counts the requests it serves and
        // answers reads from a fixed table.
        let net = Network::new(NetConfig::instant());
        let directory = Arc::new(cloudburst_anna::Directory::new(1));
        let node = net.register();
        directory.add_node(0, node.addr());
        let deps: Vec<(Key, VectorClock)> = (0..3)
            .map(|i| {
                (
                    Key::new(format!("cut-dep-{i}")),
                    VectorClock::singleton(4, i + 1),
                )
            })
            .collect();
        let table: HashMap<Key, Capsule> = deps
            .iter()
            .map(|(k, vc)| {
                (
                    k.clone(),
                    Capsule::wrap_causal(vc.clone(), [], Bytes::from_static(b"d")),
                )
            })
            .collect();
        let requests = Arc::new(Mutex::new(Vec::<usize>::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let (requests, stop) = (Arc::clone(&requests), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let Ok(envelope) = node.recv_timeout(Duration::from_millis(5)) else {
                        continue;
                    };
                    if let Ok(cloudburst_anna::StorageRequest::MultiGet { keys, reply }) =
                        envelope.downcast::<cloudburst_anna::StorageRequest>()
                    {
                        requests.lock().push(keys.len());
                        reply.reply(cloudburst_anna::MultiGetResponse {
                            capsules: keys.iter().map(|k| table.get(k).cloned()).collect(),
                        });
                    }
                }
            })
        };
        let cache = VmCache::spawn(
            test_runtime(),
            1,
            &net,
            cloudburst_anna::AnnaClient::new(&net, directory),
            Arc::new(Topology::new()),
            ConsistencyLevel::DistributedSessionCausal,
            CacheConfig::default(),
        );
        let inner = cache.inner();
        let key = Key::new("cut-head");
        inner.admit(
            &key,
            Capsule::wrap_causal(
                VectorClock::singleton(5, 1),
                deps.clone(),
                Bytes::from_static(b"h"),
            ),
        );
        stop.store(true, Ordering::Release);
        server.join().unwrap();
        assert_eq!(
            *requests.lock(),
            vec![3],
            "one request carrying all three keys"
        );
        for (dep, _) in &deps {
            assert!(inner.contains(dep), "{dep} admitted with the version");
        }
    }

    #[test]
    fn key_update_push_refreshes_held_keys_only() {
        let (net, anna, cache) = setup(ConsistencyLevel::Lww);
        let client = anna.client();
        let inner = cache.inner();
        let held = Key::new("held");
        let not_held = Key::new("not-held");
        client.put_lww(&held, Bytes::from_static(b"v1")).unwrap();
        inner.get_or_fetch(&held).unwrap();

        // Simulate Anna pushes.
        let pusher = net.register();
        let ts = client.next_timestamp();
        pusher
            .send(
                inner.addr(),
                KeyUpdate {
                    key: held.clone(),
                    capsule: Capsule::wrap_lww(ts, Bytes::from_static(b"v2")),
                },
            )
            .unwrap();
        let ts2 = client.next_timestamp();
        pusher
            .send(
                inner.addr(),
                KeyUpdate {
                    key: not_held.clone(),
                    capsule: Capsule::wrap_lww(ts2, Bytes::from_static(b"x")),
                },
            )
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            if inner.peek(&held).map(|c| c.read_value()) == Some(Bytes::from_static(b"v2")) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "push never applied");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!inner.contains(&not_held), "must not admit unheld keys");
    }

    #[test]
    fn concurrent_misses_coalesce_into_one_storage_fetch() {
        // M threads missing the same cold key must produce exactly one
        // Anna fetch (counted at the storage nodes), with every waiter
        // observing the same capsule.
        let (_net, anna, cache) = setup(ConsistencyLevel::Lww);
        let client = anna.client();
        let inner = cache.inner();
        let key = Key::new("herd");
        client.put_lww(&key, Bytes::from_static(b"hot")).unwrap();
        let gets_before: u64 = client
            .cluster_stats()
            .unwrap()
            .iter()
            .map(|s| s.gets_served)
            .sum();
        const HERD: usize = 8;
        let barrier = std::sync::Barrier::new(HERD);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..HERD {
                let inner = Arc::clone(&inner);
                let barrier = &barrier;
                let key = key.clone();
                handles.push(scope.spawn(move || {
                    barrier.wait();
                    inner.get_or_fetch(&key).expect("stored value")
                }));
            }
            for h in handles {
                assert_eq!(h.join().unwrap().read_value().as_ref(), b"hot");
            }
        });
        let gets_after: u64 = client
            .cluster_stats()
            .unwrap()
            .iter()
            .map(|s| s.gets_served)
            .sum();
        assert_eq!(
            gets_after - gets_before,
            1,
            "thundering herd must collapse to a single storage fetch"
        );
    }

    #[test]
    fn failed_fill_propagates_to_all_waiters_without_poisoning() {
        // Every thread in a herd whose fill fails (storage down) gets the
        // failure; the slot is released, and once storage recovers the next
        // read succeeds — a failed fill never wedges the key.
        let net = Network::new(NetConfig::instant());
        let anna = AnnaCluster::launch(
            &net,
            AnnaConfig {
                nodes: 1,
                replication: 1,
                durability: cloudburst_anna::Durability::Off,
                ..AnnaConfig::default()
            },
        );
        let cache = VmCache::spawn(
            test_runtime(),
            1,
            &net,
            anna.client(),
            Arc::new(Topology::new()),
            ConsistencyLevel::Lww,
            CacheConfig::default(),
        );
        let inner = cache.inner();
        let key = Key::new("doomed");
        assert!(anna.crash_node(0), "crash the only storage node");
        const HERD: usize = 4;
        let barrier = std::sync::Barrier::new(HERD);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..HERD {
                let inner = Arc::clone(&inner);
                let barrier = &barrier;
                let key = key.clone();
                handles.push(scope.spawn(move || {
                    barrier.wait();
                    inner.get_or_fetch(&key)
                }));
            }
            for h in handles {
                assert!(
                    h.join().unwrap().is_none(),
                    "a failed fill must propagate to every waiter"
                );
            }
        });
        assert!(
            inner.inflight.lock().is_empty(),
            "failed fill must release the in-flight slot"
        );
        // Storage recovers (a fresh node takes over the ring); the same key
        // is immediately fetchable again.
        anna.add_node();
        let client = anna.client();
        client.put_lww(&key, Bytes::from_static(b"alive")).unwrap();
        let revived = inner.get_or_fetch(&key).expect("slot must not be poisoned");
        assert_eq!(revived.read_value().as_ref(), b"alive");
    }

    #[test]
    fn evict_drops_local_copy_but_not_stored_value() {
        let (_net, anna, cache) = setup(ConsistencyLevel::Lww);
        let client = anna.client();
        let inner = cache.inner();
        let key = Key::new("evictable");
        client.put_lww(&key, Bytes::from_static(b"v")).unwrap();
        inner.get_or_fetch(&key).unwrap();
        assert!(inner.contains(&key));
        inner.evict(&key);
        assert!(!inner.contains(&key));
        // Unlike delete(), the KVS copy survives and a re-read refills.
        assert_eq!(
            inner.get_or_fetch(&key).unwrap().read_value().as_ref(),
            b"v"
        );
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let net = Network::new(NetConfig::instant());
        let anna = AnnaCluster::launch(
            &net,
            AnnaConfig {
                nodes: 1,
                replication: 1,
                durability: cloudburst_anna::Durability::Off,
                ..AnnaConfig::default()
            },
        );
        let cache = VmCache::spawn(
            test_runtime(),
            1,
            &net,
            anna.client(),
            Arc::new(Topology::new()),
            ConsistencyLevel::Lww,
            CacheConfig {
                max_entries: 4,
                // Exact global LRU order is only defined with a single
                // stripe; multi-shard eviction is covered by the stress test.
                shards: 1,
                ..CacheConfig::default()
            },
        );
        let client = anna.client();
        let inner = cache.inner();
        for i in 0..10 {
            let key = Key::new(format!("k{i}"));
            client.put_lww(&key, Bytes::from_static(b"v")).unwrap();
            inner.get_or_fetch(&key).unwrap();
        }
        assert_eq!(inner.len(), 4);
        // The most recently used keys survive.
        assert!(inner.contains(&Key::new("k9")));
        assert!(!inner.contains(&Key::new("k0")));
    }

    #[test]
    fn sharded_cache_concurrent_churn_stays_consistent() {
        // Hammer the sharded cache from many threads over overlapping keys:
        // reads, writes, deletes, and evictions race across stripes. The
        // invariants checked: no lost stats (hits+misses == reads issued),
        // the entry count respects the configured capacity, and every
        // surviving entry is readable with an intact payload.
        let net = Network::new(NetConfig::instant());
        let anna = AnnaCluster::launch(
            &net,
            AnnaConfig {
                nodes: 2,
                replication: 1,
                durability: cloudburst_anna::Durability::Off,
                ..AnnaConfig::default()
            },
        );
        let cache = VmCache::spawn(
            test_runtime(),
            1,
            &net,
            anna.client(),
            Arc::new(Topology::new()),
            ConsistencyLevel::Lww,
            CacheConfig {
                max_entries: 64,
                shards: 8,
                ..CacheConfig::default()
            },
        );
        let client = anna.client();
        const KEYS: usize = 96; // > max_entries → eviction under contention
        for i in 0..KEYS {
            client
                .put_lww(&Key::new(format!("k{i}")), Bytes::from_static(b"seed"))
                .unwrap();
        }
        let inner = cache.inner();
        const THREADS: usize = 8;
        const OPS: usize = 400;
        let reads_issued = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let inner = Arc::clone(&inner);
                let reads_issued = Arc::clone(&reads_issued);
                scope.spawn(move || {
                    let mut session = SessionMeta::new(1000 + t as u64, ConsistencyLevel::Lww);
                    for op in 0..OPS {
                        let key = Key::new(format!("k{}", (op * (t + 3)) % KEYS));
                        match op % 5 {
                            0 | 1 => {
                                // A concurrent delete may have removed the key
                                // everywhere; both outcomes count as one read
                                // for the stats invariant.
                                if let Some(c) = inner.get_or_fetch(&key) {
                                    assert_eq!(c.read_value().len(), 4, "payload torn");
                                }
                                reads_issued.fetch_add(1, Ordering::Relaxed);
                            }
                            2 => {
                                inner.put_session(
                                    &key,
                                    Bytes::from_static(b"newv"),
                                    &mut session,
                                    t as u64,
                                    &[],
                                );
                            }
                            3 => {
                                inner.peek(&key);
                            }
                            _ => {
                                // Exercise slot freeing racing inserts and
                                // touches on the same stripe, then re-seed so
                                // later reads mostly still find the key.
                                inner.delete(&key);
                                inner.put_session(
                                    &key,
                                    Bytes::from_static(b"redo"),
                                    &mut session,
                                    t as u64,
                                    &[],
                                );
                            }
                        }
                    }
                });
            }
        });
        let hits = inner.stats.hits.load(Ordering::Relaxed);
        let misses = inner.stats.misses.load(Ordering::Relaxed);
        assert_eq!(
            hits + misses,
            reads_issued.load(Ordering::Relaxed),
            "stats lost under contention"
        );
        assert!(
            inner.len() <= 64,
            "capacity exceeded: {} entries",
            inner.len()
        );
        assert_eq!(inner.cached_keys().len(), inner.len());
        // LRU state stays coherent after the churn: every cached key is
        // still readable and evictions continue to work.
        for key in inner.cached_keys() {
            assert!(inner.peek(&key).is_some());
        }
    }
}
