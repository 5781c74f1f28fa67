//! [`AnnaClient`]: the client-side API of the Anna KVS.
//!
//! Every system component (Cloudburst caches, schedulers, the monitoring
//! engine, user clients) talks to Anna through this client. It routes
//! requests via the shared [`Directory`], wraps bare values in lattice
//! capsules, and stamps LWW writes with a per-client
//! [`TimestampGenerator`].
//!
//! There is one data path per direction. Every read — `get`, `get_spread`,
//! `get_primary`, the `multi_get` family — runs the read round loop with
//! [`StorageRequest::MultiGet`]; every write but the quorum
//! `put_replicated` — `put`, `put_async`, `delete`, `multi_put`,
//! `multi_put_async` — runs the write round loop with
//! [`StorageRequest::MultiPut`] (or `Delete`). A single key is a batch of
//! one.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use cloudburst_lattice::{Capsule, Key, Timestamp, TimestampGenerator, VectorClock};
use cloudburst_net::{
    reply_channel, Address, Endpoint, LatencyModel, Network, PipelinedWaiter, RecvError,
    ReplyHandle, SendError, Site,
};

use crate::directory::Directory;
use crate::msg::{MultiGetResponse, MultiPutResponse, NodeStats, StorageRequest};
use crate::ring::NodeId;

/// Errors surfaced by Anna client operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnaError {
    /// The cluster has no storage nodes.
    NoNodes,
    /// The request could not be sent.
    Send(SendError),
    /// The node did not answer within the client timeout.
    Timeout,
    /// The node accepted the request but went away before answering (its
    /// reply handle was dropped). Unlike [`AnnaError::Timeout`] this is a
    /// definitive peer failure — retrying the same node will not help.
    Disconnected,
}

impl fmt::Display for AnnaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoNodes => f.write_str("anna cluster has no storage nodes"),
            Self::Send(e) => write!(f, "anna request failed to send: {e}"),
            Self::Timeout => f.write_str("anna request timed out"),
            Self::Disconnected => f.write_str("anna node disconnected before replying"),
        }
    }
}

impl std::error::Error for AnnaError {}

impl From<SendError> for AnnaError {
    fn from(e: SendError) -> Self {
        Self::Send(e)
    }
}

/// A client handle onto an Anna cluster.
pub struct AnnaClient {
    endpoint: Endpoint,
    directory: Arc<Directory>,
    timestamps: TimestampGenerator,
    timeout: Duration,
    /// The region this client lives in: its endpoint registers at that
    /// site (so a tiered network charges WAN latency for cross-region
    /// hops) and its read plans order same-region replicas first.
    region: u16,
    /// Round-robin cursor for spreading reads of replication-overridden
    /// keys across their raised replica set — promotion only sheds load if
    /// readers stop all hitting the primary.
    spread: AtomicU64,
    /// Reads served by a replica in this client's region (by the network's
    /// site tags, so the counter stays meaningful even against a
    /// placement-blind directory).
    reads_local: AtomicU64,
    /// Reads served by a replica in another region.
    reads_remote: AtomicU64,
}

impl AnnaClient {
    /// Default request timeout, in wall-clock time (generous: requests in
    /// the simulation complete in microseconds to milliseconds).
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

    /// Create a client on `net` routed by `directory`, in region 0.
    pub fn new(net: &Network, directory: Arc<Directory>) -> Self {
        Self::new_in(net, directory, 0)
    }

    /// Create a client that lives in `region`: its endpoint registers at
    /// that site and every read walks same-region replicas first (see
    /// [`Directory::read_plan`]). On a flat single-region deployment this
    /// is identical to [`AnnaClient::new`].
    pub fn new_in(net: &Network, directory: Arc<Directory>, region: u16) -> Self {
        let endpoint = net.register_at(Site::region(region));
        let node_id = endpoint.addr().raw();
        Self {
            endpoint,
            directory,
            timestamps: TimestampGenerator::new(node_id),
            timeout: Self::DEFAULT_TIMEOUT,
            region,
            spread: AtomicU64::new(node_id),
            reads_local: AtomicU64::new(0),
            reads_remote: AtomicU64::new(0),
        }
    }

    /// Override the request timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The region this client lives in.
    pub fn region(&self) -> u16 {
        self.region
    }

    /// Locality counters: `(local, remote)` reads served so far, classified
    /// by the network's site tags (a read is local when the answering
    /// replica's endpoint lives in this client's region).
    pub fn read_locality(&self) -> (u64, u64) {
        (
            self.reads_local.load(Ordering::Relaxed),
            self.reads_remote.load(Ordering::Relaxed),
        )
    }

    /// Count one served read against the locality counters.
    fn note_read_from(&self, addr: Address) {
        let local = self.network().site_of(addr).region == self.region;
        if local {
            self.reads_local.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reads_remote.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The latency model for a reply leg coming back from `from`: the tier
    /// band on a tiered network (a WAN response pays WAN latency, not the
    /// flat default), the network default otherwise.
    fn reply_latency(&self, from: Address) -> LatencyModel {
        self.network().link_latency(from, self.endpoint.addr())
    }

    /// This client's network address (doubles as its unique node ID for
    /// timestamping).
    pub fn addr(&self) -> Address {
        self.endpoint.addr()
    }

    /// The routing directory.
    pub fn directory(&self) -> &Arc<Directory> {
        &self.directory
    }

    /// The network this client is attached to.
    pub fn network(&self) -> &Network {
        self.endpoint.network()
    }

    /// Issue a fresh LWW timestamp from this client's generator.
    pub fn next_timestamp(&self) -> Timestamp {
        self.timestamps.next()
    }

    /// Read the capsule stored for `key`, failing over across its replica
    /// list: the nearest replica is tried first, and a dead, slow, or
    /// lagging replica falls through to the next one instead of surfacing
    /// an error (paper §4.5 — replication is what makes a storage-node
    /// crash non-fatal). A read recovered from a later replica is repaired
    /// back to the lagging ones (lattice merges make that idempotent).
    ///
    /// For a key whose replication was raised by a hot-key override, the
    /// starting replica round-robins across the raised set instead of always
    /// being the primary, so selective replication actually spreads read
    /// load (paper §2.2); default-replication keys keep primary-first reads.
    /// This is a one-key [`AnnaClient::multi_get`].
    pub fn get(&self, key: &Key) -> Result<Option<Capsule>, AnnaError> {
        self.get_spread(key, 0)
    }

    /// Read `key` starting `index` replicas into its read plan, failing over
    /// to the remaining replicas like [`AnnaClient::get`]; a one-key
    /// [`AnnaClient::multi_get_spread`], so both start at the same replica.
    pub fn get_spread(&self, key: &Key, index: usize) -> Result<Option<Capsule>, AnnaError> {
        let mut slots = [self.read_slot(key, index)];
        self.read_rounds(std::slice::from_ref(key), &mut slots, false)?;
        Ok(slots[0].value.take())
    }

    /// Single-shot read from the primary replica only — no failover, no
    /// miss-probing. For tight polling loops (e.g. a `CloudburstFuture`
    /// waiting on a result key) where `Ok(None)` is the expected answer most
    /// iterations and walking the whole replica list per poll would multiply
    /// read traffic by the replication factor. Callers should fall back to
    /// [`AnnaClient::get`] when this errors (dead primary) or when a miss
    /// must be distinguished from a lagging replica.
    pub fn get_primary(&self, key: &Key) -> Result<Option<Capsule>, AnnaError> {
        let primary = self.directory.primary(key).into_iter().collect();
        let mut slots = [Slot::new(primary, 0, 1)];
        self.read_rounds(std::slice::from_ref(key), &mut slots, false)?;
        Ok(slots[0].value.take())
    }

    /// Read many keys with one request per responsible node (coalesced
    /// fan-out, pipelined round trips). Results align with `keys` by index.
    ///
    /// Keys are grouped by the replica each tries first, one
    /// [`StorageRequest::MultiGet`] goes to each such node, and every round
    /// trip overlaps through a [`cloudburst_net::PipelinedWaiter`].
    pub fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<Capsule>>, AnnaError> {
        self.multi_get_spread(keys, 0)
    }

    /// Like [`AnnaClient::multi_get`], but each key is read starting from
    /// the replica chosen by `index` into its read plan (the batched
    /// counterpart of [`AnnaClient::get_spread`]).
    pub fn multi_get_spread(
        &self,
        keys: &[Key],
        index: usize,
    ) -> Result<Vec<Option<Capsule>>, AnnaError> {
        let mut slots: Vec<Slot> = keys.iter().map(|key| self.read_slot(key, index)).collect();
        self.read_rounds(keys, &mut slots, false)?;
        Ok(values(slots))
    }

    /// Best-effort batched read: like [`AnnaClient::multi_get`], but a key
    /// whose every replica fails resolves to `None` instead of failing the
    /// whole call, and a live replica's `None` is accepted without probing
    /// the rest of the replica list (partial-but-fresh beats all-or-nothing
    /// for sweeps like the schedulers' metric refresh).
    pub fn multi_get_lenient(&self, keys: &[Key]) -> Vec<Option<Capsule>> {
        let mut slots: Vec<Slot> = keys.iter().map(|key| self.read_slot(key, 0)).collect();
        match self.read_rounds(keys, &mut slots, true) {
            Ok(()) => values(slots),
            Err(_) => vec![None; keys.len()],
        }
    }

    /// A read walk over `key`'s region-aware read plan
    /// ([`Directory::read_plan`]), starting `start` replicas into the local
    /// group. A key whose replication was raised also advances the spread
    /// cursor, so hot-key reads rotate across the raised replica set without
    /// leaving the region; failover then continues into the remote tail.
    fn read_slot(&self, key: &Key, start: usize) -> Slot {
        let plan = self.directory.read_plan(key, self.region);
        let mut start = start;
        if plan.overridden && plan.replicas.len() > 1 {
            start = start.wrapping_add(self.spread.fetch_add(1, Ordering::Relaxed) as usize);
        }
        Slot::new(plan.replicas, start, plan.local)
    }

    /// A write walk over `key`'s replicas in placement order (any replica
    /// is a valid write target).
    fn write_slot(&self, key: &Key) -> Slot {
        let replicas = self.directory.replicas(key);
        let local = replicas.len();
        Slot::new(replicas, 0, local)
    }

    /// The read round loop behind every read. Each round sends one
    /// [`StorageRequest::MultiGet`] per replica that some unresolved key
    /// tries next. Keys whose node failed — or, in strict mode, answered
    /// `None` while a later replica might be fresher — move to their next
    /// replica for the next round. A key recovered from a later replica is
    /// read-repaired back to the live replicas that answered `None` for it.
    /// In strict mode a key resolves to `None` only when *every* replica
    /// confirmed the miss; if any replica failed and none produced the
    /// value, the read is indeterminate and the call errors. All replicas
    /// healthy is exactly one round of one request per responsible node.
    /// Each key's result is left in its slot's `value`.
    fn read_rounds(
        &self,
        keys: &[Key],
        slots: &mut [Slot],
        lenient: bool,
    ) -> Result<(), AnnaError> {
        let mut last_err: Option<AnnaError> = None;
        loop {
            // A key out of replicas is a miss only when the miss was
            // unanimous; any replica failure leaves a strict read
            // indeterminate (the failed replica might hold the value).
            let targets = next_round(slots, |slot| {
                lenient || !(slot.errored || slot.replicas.is_empty())
            })
            .ok_or_else(|| last_err.take().unwrap_or(AnnaError::NoNodes))?;
            if targets.is_empty() {
                return Ok(());
            }
            let waiter = self.send_round(
                &targets,
                |g, reply| StorageRequest::MultiGet {
                    keys: members(slots, g).map(|i| keys[i].clone()).collect(),
                    reply,
                },
                &mut last_err,
            );
            self.collect_round(
                waiter,
                |g, response: MultiGetResponse| {
                    let from = targets[g];
                    let mut capsules = response.capsules.into_iter();
                    for (i, slot) in slots.iter_mut().enumerate() {
                        if !slot.in_group(g) {
                            continue;
                        }
                        slot.pending = false;
                        match capsules.next().flatten() {
                            Some(capsule) => {
                                self.note_read_from(from);
                                self.read_repair(&keys[i], &capsule, &slot.lagging);
                                slot.value = Some(capsule);
                                slot.done = true;
                            }
                            None if lenient => slot.done = true,
                            None => {
                                // Possibly a lagging replica: keep probing,
                                // repair it if so.
                                slot.lagging.push(from);
                                slot.attempt += 1;
                            }
                        }
                    }
                },
                &mut last_err,
            );
            fail_unanswered(slots);
        }
    }

    /// Push the freshest capsule seen for `key` back to replicas that missed
    /// it. Merge-on-receive (never re-propagated) makes this safe to
    /// fire-and-forget.
    fn read_repair(&self, key: &Key, capsule: &Capsule, lagging: &[Address]) {
        for &addr in lagging {
            let entries = vec![(key.clone(), capsule.clone())];
            let _ = self
                .endpoint
                .send(addr, StorageRequest::GossipBatch { entries });
        }
    }

    /// Merge many `(key, capsule)` pairs with one request per responsible
    /// node, waiting for every node's single acknowledgement. A node that
    /// fails mid-flight only costs its batch a retry against each key's next
    /// replica (merges gossip onward, so any replica is a valid write
    /// target); the call errors only when some key ran out of replicas.
    pub fn multi_put(&self, entries: Vec<(Key, Capsule)>) -> Result<(), AnnaError> {
        let mut slots: Vec<Slot> = entries
            .iter()
            .map(|(key, _)| self.write_slot(key))
            .collect();
        self.put_rounds(&entries, &mut slots, true)
    }

    /// Fire-and-forget batched merge — the write-behind flush path of
    /// Cloudburst caches (paper §4.2), batched. A group whose node rejects
    /// the send (dead endpoint) moves on to each key's next replica; the
    /// call errors when some entry found no replica that accepted it (the
    /// rest were still sent), as any unacknowledged write may be lost.
    pub fn multi_put_async(&self, entries: Vec<(Key, Capsule)>) -> Result<(), AnnaError> {
        let mut slots: Vec<Slot> = entries
            .iter()
            .map(|(key, _)| self.write_slot(key))
            .collect();
        self.put_rounds(&entries, &mut slots, false)
    }

    /// Merge a capsule into `key` and wait for one acknowledgement, failing
    /// over across the replica list: any replica is a valid write target
    /// (the receiving node gossips the merged state to the others), so a
    /// dead primary costs a retry, not an error. A one-entry
    /// [`AnnaClient::multi_put`].
    pub fn put(&self, key: &Key, capsule: Capsule) -> Result<(), AnnaError> {
        let mut slots = [self.write_slot(key)];
        self.put_rounds(&[(key.clone(), capsule)], &mut slots, true)
    }

    /// Merge a capsule into `key` on `min_acks` *distinct* replicas and wait
    /// for every acknowledgement — the durable write the chaos harness
    /// builds on: once `Ok`, the value survives any `min_acks - 1`
    /// simultaneous node crashes regardless of gossip timing. Fails (rather
    /// than silently degrading) when fewer than `min_acks` replicas exist,
    /// or when failed and silent replicas leave too few untried ones to
    /// reach `min_acks`.
    pub fn put_replicated(
        &self,
        key: &Key,
        capsule: Capsule,
        min_acks: usize,
    ) -> Result<(), AnnaError> {
        let replicas = self.directory.replicas(key);
        let want = min_acks.max(1);
        if replicas.len() < want {
            return Err(AnnaError::NoNodes);
        }
        let mut untried = replicas.iter().map(|&(_, addr)| addr);
        let mut acked = 0usize;
        let mut last_err: Option<AnnaError> = None;
        while acked < want {
            // Top up: every replica that failed or stayed silent last round
            // is replaced by the next untried one.
            let targets: Vec<Address> = untried.by_ref().take(want - acked).collect();
            if targets.len() < want - acked {
                return Err(last_err.unwrap_or(AnnaError::Timeout));
            }
            let waiter = self.send_round(
                &targets,
                |_, reply| StorageRequest::MultiPut {
                    entries: vec![(key.clone(), capsule.clone())],
                    reply: Some(reply),
                },
                &mut last_err,
            );
            self.collect_round(waiter, |_, _: MultiPutResponse| acked += 1, &mut last_err);
        }
        Ok(())
    }

    /// Fire-and-forget merge (no acknowledgement round trip). Used for
    /// asynchronous write-back from Cloudburst caches (paper §4.2). Falls
    /// over to the next replica when a send is rejected outright. A
    /// one-entry [`AnnaClient::multi_put_async`].
    pub fn put_async(&self, key: &Key, capsule: Capsule) -> Result<(), AnnaError> {
        let mut slots = [self.write_slot(key)];
        self.put_rounds(&[(key.clone(), capsule)], &mut slots, false)
    }

    /// [`AnnaClient::write_rounds`] carrying `entries` as
    /// [`StorageRequest::MultiPut`]s.
    fn put_rounds(
        &self,
        entries: &[(Key, Capsule)],
        slots: &mut [Slot],
        ack: bool,
    ) -> Result<(), AnnaError> {
        self.write_rounds(slots, ack, |slots, g, reply| StorageRequest::MultiPut {
            entries: members(slots, g).map(|i| entries[i].clone()).collect(),
            reply,
        })
    }

    /// The write round loop behind every write but the quorum one. Each
    /// round sends one request per replica that some unacknowledged key
    /// tries next (`request` builds it from the group's slots); keys whose
    /// node failed move to their next replica (in placement order — any
    /// replica is a valid write target) for the next round. With `ack` each
    /// round waits for the nodes' acknowledgements; without, a send the
    /// fabric accepts counts as delivered. A key that runs out of replicas
    /// is dropped while the rest carry on, and the call then errors.
    fn write_rounds<R: Send + 'static>(
        &self,
        slots: &mut [Slot],
        ack: bool,
        mut request: impl FnMut(&[Slot], usize, Option<ReplyHandle<R>>) -> StorageRequest,
    ) -> Result<(), AnnaError> {
        let mut last_err: Option<AnnaError> = None;
        let mut lost = false;
        loop {
            let targets = next_round(slots, |_| {
                lost = true;
                true
            })
            .unwrap_or_default();
            if targets.is_empty() {
                break;
            }
            if ack {
                let waiter = self.send_round(
                    &targets,
                    |g, reply| request(slots, g, Some(reply)),
                    &mut last_err,
                );
                self.collect_round(waiter, |g, _: R| settle(slots, g), &mut last_err);
            } else {
                for (g, &addr) in targets.iter().enumerate() {
                    match self.endpoint.send(addr, request(slots, g, None)) {
                        Ok(()) => settle(slots, g),
                        Err(e) => last_err = Some(e.into()),
                    }
                }
            }
            fail_unanswered(slots);
        }
        if lost {
            return Err(last_err.unwrap_or(AnnaError::NoNodes));
        }
        Ok(())
    }

    /// Send one request per target, built by `request` around reply handle
    /// `g` of a fresh pipelined waiter, so every round trip overlaps. A
    /// failed send drops its handle, which reports itself to the waiter as
    /// a prompt disconnect.
    fn send_round<R: Send + 'static>(
        &self,
        targets: &[Address],
        mut request: impl FnMut(usize, ReplyHandle<R>) -> StorageRequest,
        last_err: &mut Option<AnnaError>,
    ) -> PipelinedWaiter<R> {
        let mut waiter = PipelinedWaiter::new(self.endpoint.network());
        for (g, &addr) in targets.iter().enumerate() {
            let reply = waiter
                .handle(g as u64)
                .with_latency(self.reply_latency(addr));
            if let Err(e) = self.endpoint.send(addr, request(g, reply)) {
                *last_err = Some(e.into());
            }
        }
        waiter
    }

    /// Hand each reply of a [`AnnaClient::send_round`] to `on_reply` with
    /// its target's index, until all arrived or one timeout window passes
    /// with nothing arriving (everything still outstanding has then failed).
    fn collect_round<R: Send + 'static>(
        &self,
        mut waiter: PipelinedWaiter<R>,
        mut on_reply: impl FnMut(usize, R),
        last_err: &mut Option<AnnaError>,
    ) {
        while waiter.outstanding() > 0 {
            match waiter.wait_next(self.timeout) {
                Ok((g, response)) => on_reply(g as usize, response),
                Err(RecvError::Disconnected) => *last_err = Some(AnnaError::Disconnected),
                Err(RecvError::Timeout) => {
                    *last_err = Some(AnnaError::Timeout);
                    break;
                }
            }
        }
    }

    /// Write a bare value with LWW encapsulation (Cloudburst's default mode).
    pub fn put_lww(&self, key: &Key, value: Bytes) -> Result<(), AnnaError> {
        self.put(key, Capsule::wrap_lww(self.timestamps.next(), value))
    }

    /// Write a bare value with causal encapsulation.
    pub fn put_causal(
        &self,
        key: &Key,
        vector_clock: VectorClock,
        dependencies: impl IntoIterator<Item = (Key, VectorClock)>,
        value: Bytes,
    ) -> Result<(), AnnaError> {
        self.put(key, Capsule::wrap_causal(vector_clock, dependencies, value))
    }

    /// Append an element to a grow-only set key (e.g. an executor inbox).
    pub fn add_to_set(&self, key: &Key, element: Bytes) -> Result<(), AnnaError> {
        self.put(key, Capsule::wrap_set_element(element))
    }

    /// Delete `key`, failing over across its replica list like
    /// [`AnnaClient::put`] (the receiving replica propagates the delete).
    pub fn delete(&self, key: &Key) -> Result<(), AnnaError> {
        self.write_rounds(
            &mut [self.write_slot(key)],
            true,
            |_, _, reply: Option<ReplyHandle<()>>| StorageRequest::Delete {
                key: key.clone(),
                reply,
            },
        )
    }

    /// Raise (or change) the replication factor of a hot key and propagate
    /// its current value to the new replicas (selective replication, paper
    /// §2.2). The holder set is snapshotted *before* the override changes
    /// placement, and **every** holder is asked to push — not just the
    /// primary — mirroring the every-holder push rebalance uses: with a
    /// dead or lagging primary, a surviving replica still materializes the
    /// new copies instead of leaving them empty until anti-entropy.
    /// Merge-on-receive makes the duplicate pushes idempotent.
    pub fn set_key_replication(&self, key: &Key, replication: usize) {
        self.set_key_replication_in(key, replication, None);
    }

    /// [`AnnaClient::set_key_replication`] with an optional hot region: the
    /// copies beyond the region-diverse durability spread are placed in
    /// `region` first ([`Directory::set_replication_override_in`]), so the
    /// elasticity engine raises replicas *where the heat is generated*
    /// instead of wherever the walk happens to land.
    pub fn set_key_replication_in(&self, key: &Key, replication: usize, region: Option<u16>) {
        let holders = self.directory.replicas(key);
        self.directory
            .set_replication_override_in(key.clone(), replication, region);
        for (_, addr) in holders {
            let _ = self
                .endpoint
                .send(addr, StorageRequest::Replicate { key: key.clone() });
        }
    }

    /// Lower `key` back to the default replication factor. The replicas
    /// dropped from the assignment are each asked to flush their copy to
    /// the retained set first (`Replicate` — any writes still sitting in
    /// their gossip window survive the demotion); the returned addresses
    /// are the ex-replicas still holding a stray copy. Pass them to
    /// [`AnnaClient::trim_key_copies`] once the flush has had time to land
    /// (the elasticity engine waits one policy tick) to reclaim the space.
    pub fn clear_key_replication(&self, key: &Key) -> Vec<Address> {
        let before = self.directory.replicas(key);
        self.directory
            .set_replication_override(key.clone(), self.directory.default_replication());
        let kept: HashSet<Address> = self
            .directory
            .replicas(key)
            .into_iter()
            .map(|(_, a)| a)
            .collect();
        let strays: Vec<Address> = before
            .into_iter()
            .filter_map(|(_, a)| (!kept.contains(&a)).then_some(a))
            .collect();
        for &addr in &strays {
            let _ = self
                .endpoint
                .send(addr, StorageRequest::Replicate { key: key.clone() });
        }
        strays
    }

    /// Drop the stray copies a demotion left behind on `holders`
    /// ([`AnnaClient::clear_key_replication`]'s return value). Deletes are
    /// local to each addressed node — the retained replicas are untouched.
    pub fn trim_key_copies(&self, key: &Key, holders: &[Address]) {
        for &addr in holders {
            let _ = self
                .endpoint
                .send(addr, StorageRequest::GossipDelete { key: key.clone() });
        }
    }

    /// Report a cache's cached-keyset snapshot. Keys are grouped by their
    /// primary owner, since the key→cache index is partitioned like the key
    /// space (paper §4.2).
    pub fn register_cached_keys(&self, cache: Address, keys: &[Key]) -> Result<(), AnnaError> {
        let mut by_node: BTreeMap<Address, Vec<Key>> = BTreeMap::new();
        for key in keys {
            let (_, addr) = self.directory.primary(key).ok_or(AnnaError::NoNodes)?;
            by_node.entry(addr).or_default().push(key.clone());
        }
        // Every node must see a snapshot (possibly empty) so stale entries
        // for keys this cache evicted get dropped.
        for (_, addr) in self.directory.nodes() {
            let keys = by_node.remove(&addr).unwrap_or_default();
            self.endpoint
                .send(addr, StorageRequest::RegisterCachedKeys { cache, keys })?;
        }
        Ok(())
    }

    /// Remove a cache from all index partitions (cache shutdown).
    pub fn unregister_cache(&self, cache: Address) -> Result<(), AnnaError> {
        for (_, addr) in self.directory.nodes() {
            self.endpoint
                .send(addr, StorageRequest::UnregisterCache { cache })?;
        }
        Ok(())
    }

    /// Collect every node's stored-key list (best effort: nodes that fail to
    /// answer are skipped). This is the raw material of the anti-entropy
    /// audit in [`crate::AnnaCluster::audit_replication`].
    pub fn key_dump(&self) -> Vec<(crate::ring::NodeId, Vec<Key>)> {
        let nodes = self.directory.nodes();
        let mut waiters = Vec::with_capacity(nodes.len());
        for (node, addr) in nodes {
            let (reply, waiter) = reply_channel::<Vec<Key>>(self.endpoint.network());
            if self
                .endpoint
                .send(addr, StorageRequest::KeyDump { reply })
                .is_ok()
            {
                waiters.push((node, waiter));
            }
        }
        waiters
            .into_iter()
            .filter_map(|(node, w)| Some((node, w.wait_timeout(self.timeout).ok()?)))
            .collect()
    }

    /// Collect statistics from every storage node.
    pub fn cluster_stats(&self) -> Result<Vec<NodeStats>, AnnaError> {
        let nodes = self.directory.nodes();
        let mut waiters = Vec::with_capacity(nodes.len());
        for (_, addr) in nodes {
            let (reply, waiter) = reply_channel::<NodeStats>(self.endpoint.network());
            self.endpoint.send(addr, StorageRequest::Stats { reply })?;
            waiters.push(waiter);
        }
        waiters
            .into_iter()
            .map(|w| w.wait_timeout(self.timeout).map_err(map_recv))
            .collect()
    }

    /// Best-effort statistics sweep: nodes that are unreachable or fail to
    /// answer are skipped instead of failing the call. The elasticity
    /// engine polls through this so a mid-crash node cannot wedge the
    /// policy loop ([`crate::elastic`]).
    pub fn cluster_stats_lenient(&self) -> Vec<NodeStats> {
        let nodes = self.directory.nodes();
        let mut waiters = Vec::with_capacity(nodes.len());
        for (_, addr) in nodes {
            let (reply, waiter) = reply_channel::<NodeStats>(self.endpoint.network());
            if self
                .endpoint
                .send(addr, StorageRequest::Stats { reply })
                .is_ok()
            {
                waiters.push(waiter);
            }
        }
        waiters
            .into_iter()
            .filter_map(|w| w.wait_timeout(self.timeout).ok())
            .collect()
    }
}

impl fmt::Debug for AnnaClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnnaClient")
            .field("addr", &self.endpoint.addr())
            .finish_non_exhaustive()
    }
}

fn map_recv(e: RecvError) -> AnnaError {
    match e {
        RecvError::Timeout => AnnaError::Timeout,
        // Previously folded into `Timeout`, which made a dead node look like
        // a slow one and sent callers into pointless retries.
        RecvError::Disconnected => AnnaError::Disconnected,
    }
}

/// One key's walk along its replicas through a round loop.
struct Slot {
    /// The key's replicas: read-plan order for reads, placement order for
    /// writes.
    replicas: Vec<(NodeId, Address)>,
    /// The walk starts `start` replicas into the first `local` entries (the
    /// same-region group) and rotates within them before the remote tail.
    start: usize,
    local: usize,
    /// Replicas tried so far; the walk's next position.
    attempt: usize,
    /// This round's target index, while `pending`.
    group: usize,
    /// Sent this round and not yet answered.
    pending: bool,
    done: bool,
    /// Some replica failed for this key: a strict read that finds nothing
    /// is then indeterminate rather than a miss.
    errored: bool,
    /// Live replicas that answered a read with `None` (read-repair targets).
    lagging: Vec<Address>,
    /// A read's result.
    value: Option<Capsule>,
}

impl Slot {
    fn new(replicas: Vec<(NodeId, Address)>, start: usize, local: usize) -> Self {
        let local = local.min(replicas.len()).max(1);
        Self {
            replicas,
            start: start % local,
            local,
            attempt: 0,
            group: 0,
            pending: false,
            done: false,
            errored: false,
            lagging: Vec::new(),
            value: None,
        }
    }

    /// The replica the walk tries next, or `None` once every one was tried.
    fn target(&self) -> Option<Address> {
        let i = self.attempt;
        let pos = if i < self.local {
            (self.start + i) % self.local
        } else {
            i
        };
        self.replicas.get(pos).map(|&(_, addr)| addr)
    }

    fn in_group(&self, g: usize) -> bool {
        self.pending && self.group == g
    }
}

/// Group the unresolved slots by the replica each tries next, returning
/// the round's targets in first-appearance order — so send order is a
/// function of the input alone, which seeded chaos replays depend on. A
/// slot with no replica left is done if `exhausted` accepts it, and fails
/// the round (`None`) otherwise.
fn next_round(
    slots: &mut [Slot],
    mut exhausted: impl FnMut(&Slot) -> bool,
) -> Option<Vec<Address>> {
    let mut targets: Vec<Address> = Vec::new();
    for slot in slots.iter_mut().filter(|slot| !slot.done) {
        let Some(addr) = slot.target() else {
            if !exhausted(slot) {
                return None;
            }
            slot.done = true;
            continue;
        };
        slot.group = match targets.iter().position(|&t| t == addr) {
            Some(g) => g,
            None => {
                targets.push(addr);
                targets.len() - 1
            }
        };
        slot.pending = true;
    }
    Some(targets)
}

/// Indices of the slots sent to target `g` this round, in input order.
fn members(slots: &[Slot], g: usize) -> impl Iterator<Item = usize> + '_ {
    (0..slots.len()).filter(move |&i| slots[i].in_group(g))
}

/// Target `g` acknowledged a write: its slots are done.
fn settle(slots: &mut [Slot], g: usize) {
    for slot in slots.iter_mut().filter(|slot| slot.in_group(g)) {
        slot.pending = false;
        slot.done = true;
    }
}

/// Slots whose target never answered this round move to their next
/// replica.
fn fail_unanswered(slots: &mut [Slot]) {
    for slot in slots.iter_mut().filter(|slot| slot.pending) {
        slot.pending = false;
        slot.errored = true;
        slot.attempt += 1;
    }
}

/// The results of a batched read, in input order.
fn values(slots: Vec<Slot>) -> Vec<Option<Capsule>> {
    slots.into_iter().map(|slot| slot.value).collect()
}
