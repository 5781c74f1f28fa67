//! [`StorageNode`]: one Anna storage-node actor.
//!
//! Each node owns a [`TieredStore`], serves batched reads and writes
//! (`MultiGet`/`MultiPut`; a single-key client call is a batch of one, and
//! writes are lattice merges) and deletes, gossips merged state to the
//! key's other replicas, and — for the keys it is primary for — maintains
//! the key→cache index and pushes merged updates to registered Cloudburst
//! caches (paper §4.2).
//!
//! The node is a mailbox-driven actor on the shared
//! [`cloudburst_runtime::Runtime`]: message delivery enqueues it, a pool
//! worker drains the mailbox in the node's `poll`, and the gossip-flush
//! and WAL group-commit cadences are deadlines on the runtime's timer heap
//! rather than `recv_timeout` ticks on an owned thread.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudburst_lattice::{Capsule, Key, KeyMap, KeySet};
use cloudburst_net::{Address, Batches, Endpoint, LatencyModel};
use cloudburst_runtime::{Actor, ActorCtx, ActorHandle, Cadence, Poll, Runtime, POLL_BUDGET};

use crate::directory::Directory;
use crate::lsm::{DiskEnv, LsmEngine, LsmOptions};
use crate::msg::{MultiGetResponse, MultiPutResponse, NodeStats, StorageRequest};
use crate::ring::NodeId;
use crate::store::{Tier, TieredStore};
use crate::telemetry::{NodeTelemetry, TelemetryConfig};
use crate::KeyUpdate;

/// Per-node configuration.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// Memory-tier capacity in payload bytes; colder keys spill to the
    /// durable engine. Applies to durable nodes only: a node without an
    /// engine ([`crate::Durability::Off`]) keeps every key in memory.
    pub memory_capacity_bytes: usize,
    /// Added access latency for keys served from the disk tier. Applies to
    /// durable nodes only (an `Off` node never serves from disk).
    pub disk_latency: LatencyModel,
    /// Gossip window in paper milliseconds: keys dirtied by writes are
    /// propagated to their replicas as one batched delta per peer per tick
    /// (Anna's periodic gossip), and pushed key updates to registered caches
    /// coalesce on the same cadence. The scaled window is floored at 100 µs
    /// of wall clock, so `0.0` means "as often as the floor allows".
    pub gossip_interval_ms: f64,
    /// Synchronous per-request service time for data requests (multi-get /
    /// multi-put, whatever their size): the node thread is *occupied* for
    /// this long per request, so a node has finite serial service capacity
    /// and a hot partition genuinely saturates. `Zero` (the default) keeps the
    /// pre-existing infinite-capacity behaviour; the skew benchmark sets it
    /// to model the single-node bottleneck selective replication relieves.
    pub service_latency: LatencyModel,
    /// WAL group-commit window in paper milliseconds, used when the node
    /// runs on a durable disk ([`crate::lsm::DiskEnv`]). Client acks for
    /// writes are deferred until the WAL covering them is fsynced; syncing
    /// on this cadence amortizes the fsync across every write in the window
    /// (the same trick as gossip batching). The scaled window is floored at
    /// 100 µs of wall clock, so `0.0` means "as often as the floor allows".
    /// Ignored for non-durable nodes.
    pub wal_sync_interval_ms: f64,
    /// Durable engine: flush the memtable to an SSTable at this payload
    /// size. Ignored for non-durable nodes. Bloom sizing and the compaction
    /// trigger are [`LsmOptions::default`]'s.
    pub memtable_flush_bytes: usize,
    /// Half-life of the per-key heat / node-load decay, in paper
    /// milliseconds ([`crate::telemetry`]).
    pub heat_half_life_ms: f64,
}

/// Node NIC bandwidth in MB/s (≈10 Gb/s EC2 NIC): responses and write
/// payloads pay a `size / bandwidth` transfer term on top of the per-message
/// latency, which is what makes large-object costs size-dependent (Figure 5).
const BANDWIDTH_MBPS: f64 = 1_100.0;

/// Flush a gossip delta early once the dirty set's payload bytes reach this
/// cap (bounds both delta size and replica staleness under bursts); also the
/// chunk size of cache-push batches and rebalance handoffs.
const GOSSIP_MAX_BATCH_BYTES: usize = 1 << 20;

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            memory_capacity_bytes: 64 << 20,
            // A modest SSD-ish penalty, in paper milliseconds.
            disk_latency: LatencyModel::Constant { ms: 8.0 },
            gossip_interval_ms: 2.0,
            service_latency: LatencyModel::Zero,
            // Matches the gossip cadence: one fsync per tick covers every
            // write accepted in the window.
            wal_sync_interval_ms: 2.0,
            memtable_flush_bytes: 4 << 20,
            heat_half_life_ms: 1_000.0,
        }
    }
}

/// Handle to a spawned storage-node actor.
#[derive(Debug)]
pub struct StorageNode {
    /// The node's ID on the ring.
    pub id: NodeId,
    /// The node's request address.
    pub addr: Address,
    handle: ActorHandle,
}

impl StorageNode {
    /// Spawn a storage node serving requests on `endpoint`, as an actor on
    /// `runtime`. When `disk` is provided the node's disk tier is a durable
    /// [`LsmEngine`] over that env — recovery (manifest + WAL replay) runs
    /// before the first request is served, and write acks follow the WAL
    /// group-commit contract.
    pub fn spawn(
        runtime: &Runtime,
        id: NodeId,
        endpoint: Endpoint,
        directory: Arc<Directory>,
        config: NodeConfig,
        disk: Option<Arc<dyn DiskEnv>>,
    ) -> Self {
        let addr = endpoint.addr();
        let gossip_tick = endpoint
            .network()
            .time_scale()
            .ms(config.gossip_interval_ms)
            .max(Duration::from_micros(100));
        let wal_tick = endpoint
            .network()
            .time_scale()
            .ms(config.wal_sync_interval_ms)
            .max(Duration::from_micros(100));
        let half_life = endpoint
            .network()
            .time_scale()
            .ms(config.heat_half_life_ms)
            .max(Duration::from_millis(1));
        let store = match disk {
            Some(env) => {
                let engine = LsmEngine::open(
                    env,
                    LsmOptions {
                        memtable_flush_bytes: config.memtable_flush_bytes.max(1),
                        ..LsmOptions::default()
                    },
                );
                TieredStore::durable(config.memory_capacity_bytes, engine)
            }
            None => TieredStore::new(config.memory_capacity_bytes),
        };
        // Two-phase spawn: the wakeup hook needs the actor handle, but the
        // actor owns the endpoint — register the cell first, wire the hook,
        // then attach the worker. Notifies that land in between are
        // remembered and replayed as the first poll.
        let handle = runtime.register(format!("anna-node-{id}"));
        {
            let waker = handle.clone();
            endpoint.set_notify(move || waker.notify());
        }
        let worker = Worker {
            id,
            endpoint,
            directory,
            store,
            disk_latency: config.disk_latency,
            service_latency: config.service_latency,
            gossip: Cadence::new(gossip_tick),
            dirty: KeyMap::default(),
            dirty_bytes: 0,
            push_dirty: KeySet::default(),
            index: KeyMap::default(),
            cache_keysets: HashMap::new(),
            telemetry: NodeTelemetry::new(TelemetryConfig {
                half_life,
                ..TelemetryConfig::default()
            }),
            wal: Cadence::new(wal_tick),
            pending_acks: Vec::new(),
            busy_until: None,
        };
        runtime.start(&handle, worker);
        Self { id, addr, handle }
    }

    /// Wait for the node actor to finish (after a `Shutdown` message).
    pub fn join(self) {
        self.handle.join();
    }

    /// Drop the node actor without further polling — the crash path. No
    /// final gossip flush or WAL sync runs; the actor (and with it any
    /// durable engine over the node's disk env) is torn down immediately,
    /// so a replacement can reopen the same env.
    pub fn stop(&self) {
        self.handle.stop();
    }
}

struct Worker {
    id: NodeId,
    endpoint: Endpoint,
    directory: Arc<Directory>,
    store: TieredStore,
    disk_latency: LatencyModel,
    /// Gossip flush (and cache push) cadence, scaled from
    /// `gossip_interval_ms`.
    gossip: Cadence,
    /// Keys written since the last gossip flush, mapped to the last observed
    /// merged payload size (so growth of an already-dirty key still advances
    /// `dirty_bytes` toward the early-flush cap). The flush reads each key's
    /// *current* merged state, so a hot key costs one delta entry per tick
    /// no matter how many writes landed on it.
    dirty: KeyMap<usize>,
    dirty_bytes: usize,
    /// Keys whose registered caches need a push at the next flush. A hot
    /// key's N writes per window collapse to one `KeyUpdate` per cache,
    /// carrying the merged state read at flush time.
    push_dirty: KeySet,
    /// key → caches that reported storing it (only meaningful for keys this
    /// node is primary for; the index is partitioned like the key space).
    index: KeyMap<HashSet<Address>>,
    /// cache → last reported keyset snapshot (to diff snapshots).
    cache_keysets: HashMap<Address, KeySet>,
    /// Unified access telemetry: lifetime counters plus decayed per-key heat
    /// and node load, decayed on the gossip cadence and reported in `Stats`.
    telemetry: NodeTelemetry,
    /// Synchronous service occupancy per data request (`Zero` = none).
    service_latency: LatencyModel,
    /// WAL group-commit cadence (durable nodes only).
    wal: Cadence,
    /// Write acks held back until the WAL records they cover are synced
    /// (WAL-before-ack). Released in arrival order at the next successful
    /// sync; held across a failed sync.
    pending_acks: Vec<Box<dyn FnOnce() + Send>>,
    /// Service-occupancy horizon: while set and in the future, the node is
    /// busy and drains no further requests (see [`Worker::serve_busy`]) —
    /// the pooled replacement for the thread model's synchronous sleep.
    busy_until: Option<Instant>,
}

impl Actor for Worker {
    fn poll(&mut self, ctx: &mut ActorCtx<'_>) -> Poll {
        let now = ctx.now();
        // Still inside a service-occupancy window: drain nothing (bounded
        // serial capacity — a hot partition must genuinely saturate) and
        // come back when it closes.
        if let Some(busy) = self.busy_until {
            if now < busy {
                return Poll::Idle(Some(self.next_deadline()));
            }
            self.busy_until = None;
        }
        let mut budget = POLL_BUDGET;
        let mut drained = 0usize;
        while budget > 0 {
            let Some(envelope) = self.endpoint.try_recv() else {
                break;
            };
            budget -= 1;
            drained += 1;
            if let Ok(request) = envelope.downcast::<StorageRequest>() {
                if self.handle(request) {
                    self.flush_deltas();
                    self.sync_and_release();
                    return Poll::Shutdown;
                }
                if self.busy_until.is_some() {
                    // The request consumed the node's serial capacity;
                    // stop draining until the occupancy window closes.
                    break;
                }
            }
            // Foreign messages are ignored.
        }
        ctx.note_mailbox_depth(drained);
        // Re-read after handling: requests may have taken real time.
        let now = ctx.now();
        if self.gossip.due(now) {
            self.flush_deltas();
        }
        if self.store.is_durable() && self.wal.due(now) {
            self.sync_and_release();
        }
        if budget == 0 && self.busy_until.is_none() {
            return Poll::Yield; // more queued; let other actors run first
        }
        Poll::Idle(Some(self.next_deadline()))
    }
}

impl Worker {
    /// The earliest of the armed cadences: service-occupancy expiry, gossip
    /// flush, WAL group commit.
    fn next_deadline(&self) -> Instant {
        let mut deadline = self.gossip.deadline();
        if let Some(busy) = self.busy_until {
            deadline = deadline.min(busy);
        }
        if self.store.is_durable() {
            deadline = deadline.min(self.wal.deadline());
        }
        deadline
    }

    /// Release `ack` only once the WAL records it depends on are durable
    /// (WAL-before-ack). Non-durable stores ack immediately; otherwise the
    /// ack joins the pending set released at the next group-commit tick. A
    /// failed sync always holds the ack — the client must never see an
    /// acknowledgment for a write that could still be lost.
    fn ack_durable(&mut self, ack: impl FnOnce() + Send + 'static) {
        if !self.store.is_durable() {
            ack();
        } else {
            self.pending_acks.push(Box::new(ack));
        }
    }

    /// Group-commit point: one fsync covers every write accepted since the
    /// last tick, then their acks go out in arrival order.
    fn sync_and_release(&mut self) {
        if self.store.wal_dirty() && self.store.sync_wal().is_err() {
            return; // acks stay held; retried next tick
        }
        for ack in self.pending_acks.drain(..) {
            ack();
        }
    }

    /// Process one request; returns `true` on shutdown.
    fn handle(&mut self, request: StorageRequest) -> bool {
        {
            match request {
                StorageRequest::MultiGet { keys, reply } => {
                    self.serve_busy();
                    for key in &keys {
                        self.telemetry.record_get(key);
                    }
                    let mut capsules = Vec::with_capacity(keys.len());
                    let mut extra = Duration::ZERO;
                    for key in keys {
                        match self.store.get(&key) {
                            Some((capsule, tier)) => {
                                extra += self.transfer_time(capsule.payload_len());
                                if tier == Tier::Disk {
                                    extra += self.endpoint.network().sample(self.disk_latency);
                                }
                                capsules.push(Some(capsule));
                            }
                            None => capsules.push(None),
                        }
                    }
                    reply.reply_with_extra(extra, MultiGetResponse { capsules });
                }
                StorageRequest::MultiPut { entries, reply } => {
                    self.serve_busy();
                    for (key, _) in &entries {
                        self.telemetry.record_put(key);
                    }
                    let mut merged_count = 0;
                    let mut extra = Duration::ZERO;
                    for (key, capsule) in entries {
                        if let Ok((merged, tier)) = self.store.merge(key.clone(), capsule) {
                            let payload = merged.payload_len();
                            self.push_to_caches(&key);
                            self.mark_dirty(&key, payload);
                            extra += self.transfer_time(payload);
                            if tier == Tier::Disk {
                                extra += self.endpoint.network().sample(self.disk_latency);
                            }
                            merged_count += 1;
                        }
                        // A capsule-kind mismatch is a caller bug: the entry
                        // is dropped but the batch still acknowledged, so
                        // callers don't hang (Anna ignores type-incompatible
                        // merges).
                    }
                    if let Some(reply) = reply {
                        let respond = move || {
                            reply.reply_with_extra(
                                extra,
                                MultiPutResponse {
                                    merged: merged_count,
                                },
                            );
                        };
                        if merged_count > 0 {
                            self.ack_durable(respond);
                        } else {
                            // Nothing reached the WAL; ack immediately.
                            respond();
                        }
                    }
                }
                StorageRequest::Delete { key, reply } => {
                    let existed = self.store.delete(&key);
                    for (node, addr) in self.directory.replicas(&key) {
                        if node != self.id {
                            let _ = self
                                .endpoint
                                .send(addr, StorageRequest::GossipDelete { key: key.clone() });
                        }
                    }
                    if let Some(reply) = reply {
                        let respond = move || reply.reply(());
                        if existed {
                            // The tombstone must be durable before the ack.
                            self.ack_durable(respond);
                        } else {
                            respond();
                        }
                    }
                }
                StorageRequest::GossipBatch { entries } => {
                    // Merge-on-receive, never re-propagated (no loops). If
                    // we happen to be the (new) primary, keep caches fresh.
                    for (key, capsule) in entries {
                        if self.store.merge(key.clone(), capsule).is_ok() {
                            self.push_to_caches(&key);
                        }
                    }
                }
                StorageRequest::GossipDelete { key } => {
                    self.store.delete(&key);
                }
                StorageRequest::RegisterCachedKeys { cache, keys } => {
                    self.apply_keyset_snapshot(cache, keys);
                }
                StorageRequest::UnregisterCache { cache } => {
                    if let Some(old) = self.cache_keysets.remove(&cache) {
                        for key in old {
                            if let Some(set) = self.index.get_mut(&key) {
                                set.remove(&cache);
                                if set.is_empty() {
                                    self.index.remove(&key);
                                }
                            }
                        }
                    }
                }
                StorageRequest::Replicate { key } => {
                    // Force-propagation must not wait for the next tick: the
                    // cluster manager expects new replicas to materialize.
                    if let Some(capsule) = self.store.peek(&key) {
                        self.gossip_now(&key, capsule);
                    }
                }
                StorageRequest::Rebalance {
                    ring,
                    replication,
                    reply,
                } => {
                    self.rebalance(&ring, replication);
                    if let Some(reply) = reply {
                        reply.reply(());
                    }
                }
                StorageRequest::Stats { reply } => {
                    let index_entry_bytes: Vec<usize> =
                        self.index.values().map(|caches| caches.len() * 8).collect();
                    let (hot_keys, load) = self.telemetry.snapshot();
                    let region = {
                        let net = self.endpoint.network();
                        net.site_of(self.endpoint.addr()).region
                    };
                    reply.reply(NodeStats {
                        node: self.id,
                        region,
                        key_count: self.store.len(),
                        memory_keys: self.store.memory_keys(),
                        disk_keys: self.store.disk_keys(),
                        payload_bytes: self.store.payload_bytes(),
                        sstables: self.store.sstable_count(),
                        index_entries: self.index.len(),
                        index_entry_bytes,
                        gets_served: self.telemetry.gets_served(),
                        puts_served: self.telemetry.puts_served(),
                        hot_keys,
                        load,
                    });
                }
                StorageRequest::KeyDump { reply } => {
                    let keys = self.store.entries().into_iter().map(|(k, _)| k).collect();
                    reply.reply(keys);
                }
                StorageRequest::Shutdown => return true,
            }
        }
        false
    }

    /// Pay the per-request service occupancy (no-op when the model is
    /// `Zero`): the node marks itself busy for the sampled duration and
    /// drains no further requests until the window closes — a timed
    /// re-enqueue instead of the thread model's synchronous sleep, so the
    /// node's serial capacity stays bounded (a hot partition genuinely
    /// saturates) without parking a pool worker.
    fn serve_busy(&mut self) {
        let d = self.endpoint.network().sample(self.service_latency);
        if !d.is_zero() {
            #[expect(
                clippy::disallowed_methods,
                reason = "service occupancy is a wall-clock window (scaled paper-ms), by design"
            )]
            let now = Instant::now();
            self.busy_until = Some(now + d);
        }
    }

    /// Transfer time for `size` payload bytes at the node's NIC bandwidth.
    fn transfer_time(&self, size: usize) -> Duration {
        if size == 0 {
            return Duration::ZERO;
        }
        let paper_ms = size as f64 / (BANDWIDTH_MBPS * 1000.0);
        self.endpoint.network().time_scale().ms(paper_ms)
    }

    fn is_primary(&self, key: &Key) -> bool {
        self.directory.primary(key).map(|(n, _)| n) == Some(self.id)
    }

    /// Record a write for the next gossip flush.
    fn mark_dirty(&mut self, key: &Key, payload: usize) {
        // Re-writes that grow an already-dirty key (set/causal merges) must
        // still advance the byte counter, or the early-flush cap would never
        // fire on a hot growing key.
        let previous = self.dirty.insert(key.clone(), payload).unwrap_or(0);
        self.dirty_bytes += payload.saturating_sub(previous);
        if self.dirty_bytes >= GOSSIP_MAX_BATCH_BYTES {
            self.flush_deltas();
        }
    }

    /// Flush both outbound delta streams: the dirty-key gossip batches and
    /// the per-key deduplicated cache pushes. The heat telemetry decays on
    /// the same cadence — one periodic sweep, no extra timer.
    fn flush_deltas(&mut self) {
        self.flush_gossip();
        self.flush_pushes();
        self.telemetry.decay();
    }

    /// Send one batched delta per replica peer covering every dirty key.
    /// Reading each key's *current* merged state at flush time is what makes
    /// this a delta: N writes to a hot key collapse into one entry, and
    /// merge-on-receive keeps the result identical to per-write gossip.
    fn flush_gossip(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let mut per_peer: HashMap<Address, Vec<(Key, Capsule)>> = HashMap::new();
        for (key, _) in self.dirty.drain() {
            // A key deleted since it was dirtied has nothing to propagate.
            let Some(capsule) = self.store.peek(&key) else {
                continue;
            };
            for (node, addr) in self.directory.replicas(&key) {
                if node != self.id {
                    per_peer
                        .entry(addr)
                        .or_default()
                        .push((key.clone(), capsule.clone()));
                }
            }
        }
        self.dirty_bytes = 0;
        for (addr, entries) in per_peer {
            let _ = self
                .endpoint
                .send(addr, StorageRequest::GossipBatch { entries });
        }
    }

    /// Send the pending cache pushes: one `KeyUpdate` per (cache, key) pair
    /// carrying the merged state read *now*, gathered into one `Batch`
    /// envelope per cache and sent early whenever a cache's batch reaches
    /// `GOSSIP_MAX_BATCH_BYTES`. N writes to a hot key within a window
    /// cost each registered cache one payload, not N.
    fn flush_pushes(&mut self) {
        if self.push_dirty.is_empty() {
            return;
        }
        let keys: Vec<Key> = self.push_dirty.drain().collect();
        let mut batches = Batches::new(GOSSIP_MAX_BATCH_BYTES);
        for key in keys {
            // Ownership or registration may have changed since the mark.
            if !self.is_primary(&key) {
                continue;
            }
            let Some(caches) = self.index.get(&key) else {
                continue;
            };
            let Some(capsule) = self.store.peek(&key) else {
                continue;
            };
            let payload = capsule.payload_len();
            for &cache in caches {
                let update = KeyUpdate {
                    key: key.clone(),
                    capsule: capsule.clone(),
                };
                if let Some(full) = batches.push(cache, update, payload) {
                    let _ = self.endpoint.send(cache, full);
                }
            }
        }
        for (cache, batch) in batches.drain_all() {
            let _ = self.endpoint.send(cache, batch);
        }
    }

    /// Note that `key`'s registered caches need a push; it rides the gossip
    /// cadence, deduplicated per key ([`Worker::flush_pushes`]).
    fn push_to_caches(&mut self, key: &Key) {
        // Local index first: most keys have no cache registered, and the
        // primary check costs a directory lookup.
        if self.index.contains_key(key) && self.is_primary(key) {
            self.push_dirty.insert(key.clone());
        }
    }

    /// Propagate merged state to the key's other replicas immediately,
    /// bypassing the gossip window (a one-entry delta).
    fn gossip_now(&self, key: &Key, merged: Capsule) {
        for (node, addr) in self.directory.replicas(key) {
            if node != self.id {
                let entries = vec![(key.clone(), merged.clone())];
                let _ = self
                    .endpoint
                    .send(addr, StorageRequest::GossipBatch { entries });
            }
        }
    }

    /// Replace a cache's keyset snapshot, diffing against the previous one
    /// ("we modified Anna to accept these cached keysets and incrementally
    /// construct an index", paper §4.2).
    fn apply_keyset_snapshot(&mut self, cache: Address, keys: Vec<Key>) {
        let new: KeySet = keys.into_iter().collect();
        let old = self.cache_keysets.remove(&cache).unwrap_or_default();
        for gone in old.difference(&new) {
            if let Some(set) = self.index.get_mut(gone) {
                set.remove(&cache);
                if set.is_empty() {
                    self.index.remove(gone);
                }
            }
        }
        for added in new.difference(&old) {
            self.index.entry(added.clone()).or_default().insert(cache);
        }
        self.cache_keysets.insert(cache, new);
    }

    /// Recompute ownership under `ring` and hand off keys we no longer own.
    /// Handoffs accumulate into one `GossipBatch` per destination (chunked
    /// by the gossip byte cap) instead of one message per key, which is what
    /// keeps node join/leave traffic proportional to peers, not keys.
    fn rebalance(&mut self, ring: &crate::ring::HashRing, replication: usize) {
        let mut outbound: HashMap<Address, Vec<(Key, Capsule)>> = HashMap::new();
        let mut outbound_bytes: HashMap<Address, usize> = HashMap::new();
        // Whether sends to a destination are going through. Send failures
        // (dead endpoint, partition) are stable for the duration of a pass,
        // so one flag per destination is enough to decide, after the fact,
        // whether a handed-off key actually left this node.
        let mut send_ok: HashMap<Address, bool> = HashMap::new();
        let mut send_entry = |worker: &Worker,
                              send_ok: &mut HashMap<Address, bool>,
                              to: Address,
                              key: Key,
                              capsule: Capsule| {
            let bytes = outbound_bytes.entry(to).or_insert(0);
            *bytes += capsule.payload_len();
            let entries = outbound.entry(to).or_default();
            entries.push((key, capsule));
            if *bytes >= GOSSIP_MAX_BATCH_BYTES {
                *bytes = 0;
                let entries = std::mem::take(entries);
                let ok = worker
                    .endpoint
                    .send(to, StorageRequest::GossipBatch { entries })
                    .is_ok();
                send_ok.insert(to, ok);
            }
        };
        // Keys this node no longer owns, with the members they were buffered
        // for: deleted only once at least one destination's sends are known
        // to have gone through.
        let mut handoffs: Vec<(Key, Vec<Address>)> = Vec::new();
        for (key, capsule) in self.store.entries() {
            let replicas = ring.replicas_at(key.hash(), replication, None);
            if replicas.contains(&self.id) {
                // Push a copy to every other member. *Every* holding member
                // pushes — not just the primary — because after a crash the
                // key's only surviving copies may sit on non-primary
                // replicas (e.g. a freshly joined node became primary
                // empty-handed); a primary-only push could then never
                // restore the replication factor. Merge-on-receive makes
                // the duplicate pushes idempotent.
                for node in &replicas {
                    if *node == self.id {
                        continue;
                    }
                    if let Some(addr) = self.directory.address_of(*node) {
                        send_entry(self, &mut send_ok, addr, key.clone(), capsule.clone());
                    }
                }
            } else {
                // Hand the key to every member — a single dead target must
                // not orphan the only copy.
                let mut dests = Vec::new();
                for node in &replicas {
                    if let Some(addr) = self.directory.address_of(*node) {
                        send_entry(self, &mut send_ok, addr, key.clone(), capsule.clone());
                        dests.push(addr);
                    }
                }
                handoffs.push((key, dests));
            }
        }
        for (addr, entries) in outbound {
            if !entries.is_empty() {
                let ok = self
                    .endpoint
                    .send(addr, StorageRequest::GossipBatch { entries })
                    .is_ok();
                send_ok.insert(addr, ok);
            }
        }
        // Drop a handed-off key only when some member's sends actually went
        // through — an addressable-but-dead destination must not cost the
        // only copy; a later pass retries the handoff instead.
        for (key, dests) in handoffs {
            let delivered = dests
                .iter()
                .any(|d| send_ok.get(d).copied().unwrap_or(false));
            if delivered {
                self.store.delete(&key);
            }
        }
    }
}
