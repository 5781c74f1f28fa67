//! [`AnnaClient`]: the client-side API of the Anna KVS.
//!
//! Every system component (Cloudburst caches, schedulers, the monitoring
//! engine, user clients) talks to Anna through this client. It routes
//! requests via the shared [`Directory`], wraps bare values in lattice
//! capsules, and stamps LWW writes with a per-client
//! [`TimestampGenerator`].

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use cloudburst_lattice::{Capsule, Key, Timestamp, TimestampGenerator, VectorClock};
use cloudburst_net::{
    reply_channel, Address, Endpoint, LatencyModel, Network, PipelinedWaiter, RecvError, SendError,
    Site,
};

use crate::directory::Directory;
use crate::msg::{
    GetResponse, MultiGetResponse, MultiPutResponse, NodeStats, PutResponse, StorageRequest,
};

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
    /// list: the primary is tried first, and a dead, slow, or lagging
    /// replica falls through to the next one instead of surfacing an error
    /// (paper §4.5 — replication is what makes a storage-node crash
    /// non-fatal). A read recovered from a later replica is repaired back to
    /// the lagging ones (lattice merges make that idempotent).
    ///
    /// For a key whose replication was raised by a hot-key override, the
    /// starting replica round-robins across the raised set instead of always
    /// being the primary, so selective replication actually spreads read
    /// load (paper §2.2); default-replication keys keep primary-first reads.
    pub fn get(&self, key: &Key) -> Result<Option<Capsule>, AnnaError> {
        self.get_failover(key, None)
    }

    /// Read `key` starting from the replica chosen by `index` into the
    /// replica list (spreads hot-key load across the raised replication
    /// factor), failing over to the remaining replicas like
    /// [`AnnaClient::get`].
    pub fn get_spread(&self, key: &Key, index: usize) -> Result<Option<Capsule>, AnnaError> {
        self.get_failover(key, Some(index))
    }

    /// Single-shot read from the primary replica only — no failover, no
    /// miss-probing. For tight polling loops (e.g. a `CloudburstFuture`
    /// waiting on a result key) where `Ok(None)` is the expected answer most
    /// iterations and walking the whole replica list per poll would multiply
    /// read traffic by the replication factor. Callers should fall back to
    /// [`AnnaClient::get`] when this errors (dead primary) or when a miss
    /// must be distinguished from a lagging replica.
    pub fn get_primary(&self, key: &Key) -> Result<Option<Capsule>, AnnaError> {
        let (_, addr) = self.directory.primary(key).ok_or(AnnaError::NoNodes)?;
        self.get_from(addr, key)
    }

    /// Failover read: walk the read plan from `start` (`None` = the nearest
    /// replica, or the round-robin spread cursor when the key's replication
    /// is overridden). The plan orders same-region replicas first
    /// ([`Directory::read_plan`]); both the explicit `start` and the spread
    /// cursor rotate *within the local group* so hot-key load spreads
    /// without leaving the region, then failover continues into the remote
    /// tail. Replicas that error are skipped; replicas that answer `None`
    /// are remembered as possibly lagging and read-repaired if a later
    /// replica has the value. `Ok(None)` is a *definitive* miss — returned
    /// only when every replica confirmed it; if any replica failed and none
    /// produced the value, the read is indeterminate (the failed replica
    /// might hold it) and the error is surfaced instead.
    fn get_failover(&self, key: &Key, start: Option<usize>) -> Result<Option<Capsule>, AnnaError> {
        let plan = self.directory.read_plan(key, self.region);
        let replicas = &plan.replicas;
        if replicas.is_empty() {
            return Err(AnnaError::NoNodes);
        }
        let start = match start {
            Some(s) => s,
            None if plan.overridden => self.spread.fetch_add(1, Ordering::Relaxed) as usize,
            None => 0,
        };
        let n = replicas.len();
        // Rotation stays inside the local group (the first `plan.local`
        // entries); on a flat deployment `local == n` and this is the
        // historical whole-list rotation byte-for-byte.
        let domain = plan.local.min(n).max(1);
        let mut lagging: Vec<Address> = Vec::new();
        let mut last_err: Option<AnnaError> = None;
        for i in 0..n {
            let pos = if i < domain { (start + i) % domain } else { i };
            let (_, addr) = replicas[pos];
            match self.get_from(addr, key) {
                Ok(Some(capsule)) => {
                    self.note_read_from(addr);
                    self.read_repair(key, &capsule, &lagging);
                    return Ok(Some(capsule));
                }
                Ok(None) => lagging.push(addr),
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            Some(e) => Err(e),
            None => Ok(None),
        }
    }

    /// Walk `key`'s replica list, trying `op` against each address until one
    /// succeeds — the write-side failover loop shared by [`AnnaClient::put`],
    /// [`AnnaClient::put_async`], [`AnnaClient::delete`], and the
    /// `multi_put_async` fallback. Returns the last error once every replica
    /// failed.
    fn with_replica_failover<T>(
        &self,
        key: &Key,
        mut op: impl FnMut(Address) -> Result<T, AnnaError>,
    ) -> Result<T, AnnaError> {
        let replicas = self.directory.replicas(key);
        if replicas.is_empty() {
            return Err(AnnaError::NoNodes);
        }
        let mut last_err = AnnaError::NoNodes;
        for (_, addr) in replicas {
            match op(addr) {
                Ok(v) => return Ok(v),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
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

    fn get_from(&self, addr: Address, key: &Key) -> Result<Option<Capsule>, AnnaError> {
        let (reply, waiter) = reply_channel::<GetResponse>(self.endpoint.network());
        let reply = reply.with_latency(self.reply_latency(addr));
        self.endpoint.send(
            addr,
            StorageRequest::Get {
                key: key.clone(),
                reply,
            },
        )?;
        let response = waiter.wait_timeout(self.timeout).map_err(map_recv)?;
        Ok(response.capsule)
    }

    /// Read many keys with one request per responsible node (coalesced
    /// fan-out, pipelined round trips). Results align with `keys` by index.
    ///
    /// Where a `get` loop pays one sequential RPC per key, this groups keys
    /// by their primary replica, sends one [`StorageRequest::MultiGet`] per
    /// node, and overlaps every round trip through a
    /// [`cloudburst_net::PipelinedWaiter`].
    pub fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<Capsule>>, AnnaError> {
        self.multi_get_failover(keys, 0, false)
    }

    /// Like [`AnnaClient::multi_get`], but each key is read starting from
    /// the replica chosen by `index` into its replica list (the batched
    /// counterpart of [`AnnaClient::get_spread`]).
    pub fn multi_get_spread(
        &self,
        keys: &[Key],
        index: usize,
    ) -> Result<Vec<Option<Capsule>>, AnnaError> {
        self.multi_get_failover(keys, index, false)
    }

    /// Best-effort batched read: like [`AnnaClient::multi_get`], but a key
    /// whose every replica fails resolves to `None` instead of failing the
    /// whole call, and a live replica's `None` is accepted without probing
    /// the rest of the replica list (partial-but-fresh beats all-or-nothing
    /// for sweeps like the schedulers' metric refresh).
    pub fn multi_get_lenient(&self, keys: &[Key]) -> Vec<Option<Capsule>> {
        self.multi_get_failover(keys, 0, true)
            .unwrap_or_else(|_| vec![None; keys.len()])
    }

    /// Round-based batched read with replica failover. Each round groups the
    /// unresolved keys by their current-preference replica and sends one
    /// [`StorageRequest::MultiGet`] per node (pipelined round trips). Keys
    /// whose node failed — or, in strict mode, answered `None` while a later
    /// replica might be fresher — advance to their next replica for the next
    /// round. A key recovered from a later replica is read-repaired back to
    /// the live replicas that answered `None` for it. In strict mode a key
    /// resolves to `None` only when *every* replica confirmed the miss; if
    /// any replica failed and none produced the value, the read is
    /// indeterminate and the call errors. All replicas healthy is still
    /// exactly one round of one request per responsible node.
    fn multi_get_failover(
        &self,
        keys: &[Key],
        start: usize,
        lenient: bool,
    ) -> Result<Vec<Option<Capsule>>, AnnaError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // Per-key replica preference list from the region-aware read plan,
        // rotated by `start` within the local group (nearest-first failover
        // like single `get`s); keys with a raised replication override
        // additionally rotate through the client's round-robin cursor so
        // batched hot-key reads spread across the raised replica set.
        let prefs: Vec<Vec<Address>> = keys
            .iter()
            .map(|key| {
                let plan = self.directory.read_plan(key, self.region);
                let n = plan.replicas.len();
                let domain = plan.local.min(n).max(1);
                let mut s = start;
                if plan.overridden && n > 1 {
                    s = s.wrapping_add(self.spread.fetch_add(1, Ordering::Relaxed) as usize);
                }
                (0..n)
                    .map(|i| {
                        let pos = if i < domain { (s + i) % domain } else { i };
                        plan.replicas[pos].1
                    })
                    .collect()
            })
            .collect();
        let mut out: Vec<Option<Capsule>> = vec![None; keys.len()];
        let mut done = vec![false; keys.len()];
        let mut attempt = vec![0usize; keys.len()];
        let mut errored = vec![false; keys.len()];
        let mut lagging: Vec<Vec<Address>> = vec![Vec::new(); keys.len()];
        let mut last_err: Option<AnnaError> = None;
        loop {
            // Group unresolved key indices by their current-attempt replica.
            let mut groups: BTreeMap<Address, Vec<usize>> = BTreeMap::new();
            for i in 0..keys.len() {
                if done[i] {
                    continue;
                }
                match prefs[i].get(attempt[i]) {
                    Some(&addr) => groups.entry(addr).or_default().push(i),
                    None => {
                        // Every replica tried. Only a unanimous `None` is a
                        // definitive miss; any replica failure leaves the
                        // strict read indeterminate (the failed replica
                        // might hold the value).
                        if !lenient && (errored[i] || prefs[i].is_empty()) {
                            return Err(last_err.take().unwrap_or(AnnaError::NoNodes));
                        }
                        done[i] = true;
                    }
                }
            }
            if groups.is_empty() {
                return Ok(out);
            }
            let groups: Vec<(Address, Vec<usize>)> = groups.into_iter().collect();
            let mut waiter = PipelinedWaiter::<MultiGetResponse>::new(self.endpoint.network());
            for (g, (addr, indices)) in groups.iter().enumerate() {
                let reply = waiter
                    .handle(g as u64)
                    .with_latency(self.reply_latency(*addr));
                let sent = self.endpoint.send(
                    *addr,
                    StorageRequest::MultiGet {
                        keys: indices.iter().map(|&i| keys[i].clone()).collect(),
                        reply,
                    },
                );
                if let Err(e) = sent {
                    // The dropped reply handle reports itself to the waiter
                    // as a prompt disconnect; the group retries next round.
                    last_err = Some(e.into());
                }
            }
            let mut answered: HashSet<u64> = HashSet::new();
            while waiter.outstanding() > 0 {
                match waiter.wait_next(self.timeout) {
                    Ok((g, response)) => {
                        answered.insert(g);
                        let indices = &groups[g as usize].1;
                        let from = groups[g as usize].0;
                        for (&slot, capsule) in indices.iter().zip(response.capsules) {
                            match capsule {
                                Some(capsule) => {
                                    self.note_read_from(from);
                                    self.read_repair(&keys[slot], &capsule, &lagging[slot]);
                                    out[slot] = Some(capsule);
                                    done[slot] = true;
                                }
                                None if lenient => done[slot] = true,
                                None => {
                                    // Possibly a lagging replica: keep
                                    // probing, repair it if so.
                                    lagging[slot].push(from);
                                    attempt[slot] += 1;
                                }
                            }
                        }
                    }
                    Err(RecvError::Disconnected) => {
                        last_err = Some(AnnaError::Disconnected);
                    }
                    Err(RecvError::Timeout) => {
                        // Nothing arrived inside the window: everything still
                        // outstanding counts as failed this round.
                        last_err = Some(AnnaError::Timeout);
                        break;
                    }
                }
            }
            // Groups that never answered fail over to each key's next
            // replica.
            for (g, (_, indices)) in groups.iter().enumerate() {
                if answered.contains(&(g as u64)) {
                    continue;
                }
                for &i in indices {
                    if !done[i] {
                        errored[i] = true;
                        attempt[i] += 1;
                    }
                }
            }
        }
    }

    /// Merge many `(key, capsule)` pairs with one request per responsible
    /// node, waiting for every node's single acknowledgement. A node that
    /// fails mid-flight only costs its batch a retry against each key's next
    /// replica (merges gossip onward, so any replica is a valid write
    /// target); the call errors only when some key ran out of replicas.
    pub fn multi_put(&self, entries: Vec<(Key, Capsule)>) -> Result<(), AnnaError> {
        if entries.is_empty() {
            return Ok(());
        }
        let prefs: Vec<Vec<Address>> = entries
            .iter()
            .map(|(key, _)| {
                self.directory
                    .replicas(key)
                    .into_iter()
                    .map(|(_, a)| a)
                    .collect()
            })
            .collect();
        let mut done = vec![false; entries.len()];
        let mut attempt = vec![0usize; entries.len()];
        let mut last_err: Option<AnnaError> = None;
        loop {
            let mut groups: BTreeMap<Address, Vec<usize>> = BTreeMap::new();
            for i in 0..entries.len() {
                if done[i] {
                    continue;
                }
                match prefs[i].get(attempt[i]) {
                    Some(&addr) => groups.entry(addr).or_default().push(i),
                    None => return Err(last_err.take().unwrap_or(AnnaError::NoNodes)),
                }
            }
            if groups.is_empty() {
                return Ok(());
            }
            let groups: Vec<(Address, Vec<usize>)> = groups.into_iter().collect();
            let mut waiter = PipelinedWaiter::<MultiPutResponse>::new(self.endpoint.network());
            for (g, (addr, indices)) in groups.iter().enumerate() {
                let reply = waiter
                    .handle(g as u64)
                    .with_latency(self.reply_latency(*addr));
                let batch: Vec<(Key, Capsule)> =
                    indices.iter().map(|&i| entries[i].clone()).collect();
                if let Err(e) = self.endpoint.send(
                    *addr,
                    StorageRequest::MultiPut {
                        entries: batch,
                        reply: Some(reply),
                    },
                ) {
                    last_err = Some(e.into());
                }
            }
            let mut acked: HashSet<u64> = HashSet::new();
            while waiter.outstanding() > 0 {
                match waiter.wait_next(self.timeout) {
                    Ok((g, _)) => {
                        acked.insert(g);
                    }
                    Err(RecvError::Disconnected) => last_err = Some(AnnaError::Disconnected),
                    Err(RecvError::Timeout) => {
                        last_err = Some(AnnaError::Timeout);
                        break;
                    }
                }
            }
            for (g, (_, indices)) in groups.iter().enumerate() {
                for &i in indices {
                    if acked.contains(&(g as u64)) {
                        done[i] = true;
                    } else {
                        attempt[i] += 1;
                    }
                }
            }
        }
    }

    /// Fire-and-forget batched merge — the write-behind flush path of
    /// Cloudburst caches (paper §4.2), batched. A group whose node rejects
    /// the send (dead endpoint) degrades to per-entry sends that walk each
    /// key's replica list; entries with no reachable replica are dropped, as
    /// any unacknowledged write may be.
    pub fn multi_put_async(&self, entries: Vec<(Key, Capsule)>) -> Result<(), AnnaError> {
        if entries.is_empty() {
            return Ok(());
        }
        let mut groups: BTreeMap<Address, Vec<(Key, Capsule)>> = BTreeMap::new();
        for (key, capsule) in entries {
            let (_, addr) = self.directory.primary(&key).ok_or(AnnaError::NoNodes)?;
            groups.entry(addr).or_default().push((key, capsule));
        }
        for (addr, entries) in groups {
            let sent = self.endpoint.send(
                addr,
                StorageRequest::MultiPut {
                    entries: entries.clone(),
                    reply: None,
                },
            );
            if sent.is_err() {
                for (key, capsule) in entries {
                    let _ = self.with_replica_failover(&key, |a| {
                        if a == addr {
                            // The batch send to this address just failed;
                            // don't repeat the guaranteed-failed send.
                            return Err(AnnaError::Send(SendError::EndpointDown(a)));
                        }
                        self.endpoint
                            .send(
                                a,
                                StorageRequest::Put {
                                    key: key.clone(),
                                    capsule: capsule.clone(),
                                    reply: None,
                                },
                            )
                            .map_err(Into::into)
                    });
                }
            }
        }
        Ok(())
    }

    /// Merge a capsule into `key` and wait for one acknowledgement, failing
    /// over across the replica list: any replica is a valid write target
    /// (the receiving node gossips the merged state to the others), so a
    /// dead primary costs a retry, not an error.
    pub fn put(&self, key: &Key, capsule: Capsule) -> Result<(), AnnaError> {
        self.with_replica_failover(key, |addr| self.put_to(addr, key, capsule.clone()))
    }

    fn put_to(&self, addr: Address, key: &Key, capsule: Capsule) -> Result<(), AnnaError> {
        let (reply, waiter) = reply_channel::<PutResponse>(self.endpoint.network());
        let reply = reply.with_latency(self.reply_latency(addr));
        self.endpoint.send(
            addr,
            StorageRequest::Put {
                key: key.clone(),
                capsule,
                reply: Some(reply),
            },
        )?;
        waiter.wait_timeout(self.timeout).map_err(map_recv)?;
        Ok(())
    }

    /// Merge a capsule into `key` on `min_acks` *distinct* replicas and wait
    /// for every acknowledgement — the durable write the chaos harness
    /// builds on: once `Ok`, the value survives any `min_acks - 1`
    /// simultaneous node crashes regardless of gossip timing. Fails (rather
    /// than silently degrading) when fewer than `min_acks` replicas exist.
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
        let mut waiter = PipelinedWaiter::<PutResponse>::new(self.endpoint.network());
        let mut next = 0usize;
        let mut in_flight = 0usize;
        let mut acked = 0usize;
        let mut last_err: Option<AnnaError> = None;
        while acked < want {
            // Top up in-flight writes; a failed replica is replaced by the
            // next untried one, and running out of replicas fails the call.
            while acked + in_flight < want {
                let Some(&(_, addr)) = replicas.get(next) else {
                    return Err(last_err.take().unwrap_or(AnnaError::Timeout));
                };
                next += 1;
                let reply = waiter
                    .handle(next as u64)
                    .with_latency(self.reply_latency(addr));
                match self.endpoint.send(
                    addr,
                    StorageRequest::Put {
                        key: key.clone(),
                        capsule: capsule.clone(),
                        reply: Some(reply),
                    },
                ) {
                    // A failed send drops its reply handle, which reports a
                    // prompt disconnect below — count it in-flight so the
                    // bookkeeping stays aligned with the waiter's.
                    Ok(()) => in_flight += 1,
                    Err(e) => {
                        last_err = Some(e.into());
                        in_flight += 1;
                    }
                }
            }
            // Every issued handle produces exactly one Ok/Disconnected event,
            // so `in_flight` stays exact; a full window with *nothing*
            // arriving aborts the call (a merely slow replica means the
            // write was never acknowledged — the caller retries).
            match waiter.wait_next(self.timeout) {
                Ok(_) => {
                    acked += 1;
                    in_flight -= 1;
                }
                Err(RecvError::Disconnected) => {
                    last_err = Some(AnnaError::Disconnected);
                    in_flight -= 1;
                }
                Err(RecvError::Timeout) => return Err(AnnaError::Timeout),
            }
        }
        Ok(())
    }

    /// Fire-and-forget merge (no acknowledgement round trip). Used for
    /// asynchronous write-back from Cloudburst caches (paper §4.2). Falls
    /// over to the next replica when a send is rejected outright.
    pub fn put_async(&self, key: &Key, capsule: Capsule) -> Result<(), AnnaError> {
        self.with_replica_failover(key, |addr| {
            self.endpoint
                .send(
                    addr,
                    StorageRequest::Put {
                        key: key.clone(),
                        capsule: capsule.clone(),
                        reply: None,
                    },
                )
                .map_err(Into::into)
        })
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
        self.with_replica_failover(key, |addr| {
            let (reply, waiter) = reply_channel::<PutResponse>(self.endpoint.network());
            let reply = reply.with_latency(self.reply_latency(addr));
            self.endpoint.send(
                addr,
                StorageRequest::Delete {
                    key: key.clone(),
                    reply: Some(reply),
                },
            )?;
            waiter.wait_timeout(self.timeout).map_err(map_recv)?;
            Ok(())
        })
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
