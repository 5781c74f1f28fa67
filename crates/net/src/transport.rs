//! [`Network`] and [`Endpoint`]: the simulated message fabric.

use std::any::Any;
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cloudburst_runtime::{Runtime, RuntimeConfig};
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::latency::LatencyModel;
use crate::region::{LinkTier, Site, TieredLatency};
use crate::shardmap::ShardedReadMap;
use crate::time::TimeScale;

/// The address of a registered [`Endpoint`]. Comparable to an IP-port pair
/// in the paper: executor threads translate unique IDs into addresses for
/// direct messaging (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address(u64);

impl Address {
    /// The raw numeric address (used in deterministic ID→address maps).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "addr:{}", self.0)
    }
}

/// A delivered message: sender address plus an opaque payload that the
/// receiving protocol downcasts to its own message type.
pub struct Envelope {
    /// The sending endpoint.
    pub from: Address,
    /// The payload; each protocol family uses its own message enum.
    pub payload: Box<dyn Any + Send>,
}

impl Envelope {
    /// Downcast the payload to the protocol message type `M`.
    ///
    /// Returns `Err(self)` (unchanged) if the payload is a different type,
    /// letting multiplexed receivers try several protocols.
    pub fn downcast<M: Any>(self) -> Result<M, Self> {
        match self.payload.downcast::<M>() {
            Ok(m) => Ok(*m),
            Err(payload) => Err(Self {
                from: self.from,
                payload,
            }),
        }
    }
}

impl fmt::Debug for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Envelope")
            .field("from", &self.from)
            .finish_non_exhaustive()
    }
}

/// Errors from [`Network::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// No endpoint registered at the destination address.
    UnknownAddress(Address),
    /// The destination endpoint was killed (failure injection).
    EndpointDown(Address),
    /// The link between sender and destination is partitioned.
    Partitioned,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownAddress(a) => write!(f, "no endpoint at {a}"),
            Self::EndpointDown(a) => write!(f, "endpoint {a} is down"),
            Self::Partitioned => write!(f, "link partitioned"),
        }
    }
}

impl std::error::Error for SendError {}

/// Errors from [`Endpoint`] receive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived before the timeout.
    Timeout,
    /// The endpoint was deregistered / the network dropped.
    Disconnected,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Timeout => f.write_str("receive timed out"),
            Self::Disconnected => f.write_str("endpoint disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Configuration for a [`Network`]: latency models, their time base and
/// seed. How deliveries run is the runtime's business: a network on a
/// deterministic [`Runtime`] (`RuntimeConfig::deterministic()`, or any
/// runtime under `CB_DETERMINISTIC=1`) draws every latency from one RNG
/// stripe and delivers in one global order, replayable byte-for-byte for
/// a given seed.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Wall-clock compression applied to all injected latencies.
    pub time_scale: TimeScale,
    /// Latency applied to every message unless overridden per send.
    /// Default: an intra-AZ TCP hop (0.2 ms median, 1 ms p99).
    pub default_latency: LatencyModel,
    /// Seed for the network's latency-sampling RNG. Each RNG stripe (one
    /// per runtime worker) is seeded from this value plus its index.
    pub seed: u64,
    /// Multi-region latency tiers. `None` (the default) keeps the flat
    /// network: every hop draws from `default_latency` regardless of where
    /// the endpoints registered. `Some` classifies each send by the sender
    /// and receiver [`Site`]s (see [`Network::register_at`]) and draws from
    /// the matching intra-AZ / inter-AZ / WAN band instead. Tier selection
    /// never adds RNG draws, so deterministic replay is unaffected.
    pub tiers: Option<TieredLatency>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            time_scale: TimeScale::DEFAULT,
            default_latency: LatencyModel::LogNormal {
                median_ms: 0.2,
                p99_ms: 1.0,
            },
            seed: 0xC10D_B075,
            tiers: None,
        }
    }
}

impl NetConfig {
    /// A zero-latency, real-time network — useful for unit tests that only
    /// exercise logic, not timing. Zero-delay deliveries run inline on the
    /// sender, so the runtime's timer heap is idle in this configuration.
    pub fn instant() -> Self {
        Self {
            time_scale: TimeScale::REAL_TIME,
            default_latency: LatencyModel::Zero,
            seed: 0,
            ..Self::default()
        }
    }
}

/// The per-endpoint delivery route: the mailbox sender plus an optional
/// wakeup hook invoked after each successful delivery. The hook is how a
/// pooled actor (see `cloudburst-runtime`) learns a message arrived without
/// parking an OS thread in `recv()` — the delivery task calls it, which
/// enqueues the actor for a poll.
#[derive(Clone)]
struct Route {
    tx: Sender<Envelope>,
    notify: Option<Arc<dyn Fn() + Send + Sync>>,
}

struct Inner {
    config: NetConfig,
    /// Every delayed delivery and reply is a one-shot task on this
    /// runtime's timer heap ([`Runtime::run_after`]).
    runtime: Runtime,
    /// Whether `runtime` is private to this network ([`Network::new`]) and
    /// shuts down with it.
    owns_runtime: bool,
    /// Endpoint table, consulted on every send; lock-striped because it is
    /// read-mostly and a single `RwLock<HashMap>` serialized all senders.
    // lock-rank: 80 net-endpoints
    endpoints: ShardedReadMap<Route>,
    // lock-rank: 82 net-down
    down: RwLock<HashSet<u64>>,
    // lock-rank: 84 net-partitions
    partitions: RwLock<HashSet<(u64, u64)>>,
    /// Endpoint → [`Site`] table for the tiered-latency classifier. Only
    /// populated by [`Network::register_at`]; unlisted endpoints live at
    /// `Site::default()`, so a flat (untagged) network never consults it
    /// on the send path — `config.tiers` is `None` and the lookup is
    /// skipped entirely.
    // lock-rank: 85 net-sites
    sites: ShardedReadMap<Site>,
    /// Lock-free mirrors of `down.len()` / `partitions.len()`: the hot send
    /// path skips the RwLocks entirely while no fault is injected, which is
    /// the steady state for every bench and most tests.
    down_count: AtomicUsize,
    partition_count: AtomicUsize,
    next_addr: AtomicU64,
    /// Latency-sampling RNG stripes, one per runtime worker, each thread
    /// pinned to a stripe, so sampling never convoys senders on a single
    /// mutex. A deterministic runtime gives exactly one: the global sample
    /// order is the replayable sequence.
    // lock-rank: 86 net-rng
    rngs: Box<[Mutex<StdRng>]>,
}

impl Inner {
    fn rng_stripe(&self) -> &Mutex<StdRng> {
        let n = self.rngs.len();
        if n == 1 {
            return &self.rngs[0];
        }
        thread_local! {
            static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
        }
        static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);
        let idx = STRIPE.with(|s| {
            let mut v = s.get();
            if v == usize::MAX {
                v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed);
                s.set(v);
            }
            v
        });
        &self.rngs[idx % n]
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // The last handle can drop inside one of this network's own
        // deliveries; `shutdown` never joins the thread it runs on.
        if self.owns_runtime {
            self.runtime.shutdown();
        }
    }
}

/// The simulated cluster network. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Network {
    inner: Arc<Inner>,
}

impl Network {
    /// Create a network with the given configuration, delivering on a
    /// private runtime ([`RuntimeConfig::default`]) that shuts down when
    /// the last handle drops.
    pub fn new(config: NetConfig) -> Self {
        Self::build(Runtime::new(RuntimeConfig::default()), true, config)
    }

    /// Create a network that delivers on `runtime`, so a deployment runs
    /// its actors and its fabric on one pool. The caller shuts the runtime
    /// down; deliveries still pending then are dropped.
    pub fn on(runtime: &Runtime, config: NetConfig) -> Self {
        Self::build(runtime.clone(), false, config)
    }

    fn build(runtime: Runtime, owns_runtime: bool, config: NetConfig) -> Self {
        let rngs: Box<[Mutex<StdRng>]> = (0..runtime.stats().workers)
            .map(|i| {
                // Stripe 0 uses the raw seed, so a single-stripe network
                // reproduces the historical sample sequence exactly.
                let seed = config
                    .seed
                    .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Mutex::ranked(86, "net-rng", StdRng::seed_from_u64(seed))
            })
            .collect();
        Self {
            inner: Arc::new(Inner {
                config,
                runtime,
                owns_runtime,
                endpoints: ShardedReadMap::ranked(80, "net-endpoints"),
                down: RwLock::ranked(82, "net-down", HashSet::new()),
                partitions: RwLock::ranked(84, "net-partitions", HashSet::new()),
                sites: ShardedReadMap::ranked(85, "net-sites"),
                down_count: AtomicUsize::new(0),
                partition_count: AtomicUsize::new(0),
                next_addr: AtomicU64::new(1),
                rngs,
            }),
        }
    }

    /// The network's time scale.
    pub fn time_scale(&self) -> TimeScale {
        self.inner.config.time_scale
    }

    /// Register a new endpoint and return its receiving half. The endpoint
    /// lives at [`Site::default()`] — on a tiered network, use
    /// [`Network::register_at`] to place it somewhere specific.
    pub fn register(&self) -> Endpoint {
        self.register_at(Site::default())
    }

    /// Register a new endpoint at `site`. With [`NetConfig::tiers`]
    /// configured, sends to and from this endpoint draw from the latency
    /// band its site distance selects; on a flat network the site is
    /// recorded (and visible via [`Network::site_of`]) but has no latency
    /// effect.
    pub fn register_at(&self, site: Site) -> Endpoint {
        let addr = Address(self.inner.next_addr.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = channel::unbounded();
        if site != Site::default() {
            self.inner.sites.insert(addr.0, site);
        }
        self.inner.endpoints.insert(
            addr.0,
            Route {
                tx: tx.clone(),
                notify: None,
            },
        );
        Endpoint {
            addr,
            rx,
            tx,
            net: self.clone(),
        }
    }

    /// The site an endpoint registered at ([`Site::default()`] if it never
    /// declared one, or was deregistered).
    pub fn site_of(&self, addr: Address) -> Site {
        self.inner.sites.get(addr.0).unwrap_or_default()
    }

    /// Classify the link between two endpoints by their registered sites.
    pub fn link_tier(&self, from: Address, to: Address) -> LinkTier {
        self.site_of(from).tier_to(self.site_of(to))
    }

    /// The latency model a send from `from` to `to` draws from: the tier
    /// band on a tiered network, `default_latency` on a flat one.
    pub fn link_latency(&self, from: Address, to: Address) -> LatencyModel {
        match &self.inner.config.tiers {
            Some(tiers) => tiers.model_for(self.link_tier(from, to)),
            None => self.inner.config.default_latency,
        }
    }

    /// Send `payload` from `from` to `to` with the link's latency — the
    /// tier band the endpoints' sites select on a tiered network, the
    /// network default on a flat one.
    pub fn send(
        &self,
        from: Address,
        to: Address,
        payload: impl Any + Send,
    ) -> Result<(), SendError> {
        self.send_with_latency(from, to, payload, self.link_latency(from, to))
    }

    /// Send with an explicit latency model (e.g. a cross-service hop).
    pub fn send_with_latency(
        &self,
        from: Address,
        to: Address,
        payload: impl Any + Send,
        latency: LatencyModel,
    ) -> Result<(), SendError> {
        self.send_with_extra(from, to, payload, latency, Duration::ZERO)
    }

    /// Send with a latency drawn from `latency` *plus* `extra`
    /// (already-scaled) sender-side time: the send twin of
    /// [`ReplyHandle::reply_with_extra`].
    fn send_with_extra(
        &self,
        from: Address,
        to: Address,
        payload: impl Any + Send,
        latency: LatencyModel,
        extra: Duration,
    ) -> Result<(), SendError> {
        self.check_reachable(from, to)?;
        let delay = self.sample(latency) + extra;
        let inner = Arc::clone(&self.inner);
        let envelope = Envelope {
            from,
            payload: Box::new(payload),
        };
        // The runtime runs due tasks in (deadline, arm order), one at a
        // time, so a constant-latency stream to one receiver stays FIFO.
        self.inner.runtime.run_after(delay, move || {
            // Re-check liveness at delivery time: a message in flight to a
            // node that dies is lost, as on a real network.
            if inner.down_count.load(Ordering::Acquire) != 0 && inner.down.read().contains(&to.0) {
                return;
            }
            let route = inner.endpoints.get(to.0);
            if let Some(route) = route {
                if route.tx.send(envelope).is_ok() {
                    // Wake the receiving actor *after* the message is in
                    // its mailbox, so a poll triggered by this hook always
                    // observes it.
                    if let Some(notify) = &route.notify {
                        notify();
                    }
                }
            }
        });
        Ok(())
    }

    /// Sample and scale a latency from `model`.
    pub fn sample(&self, model: LatencyModel) -> Duration {
        if model == LatencyModel::Zero {
            return Duration::ZERO;
        }
        let ms = model.sample_ms(&mut *self.inner.rng_stripe().lock());
        self.inner.config.time_scale.ms(ms)
    }

    /// Sleep for `paper_ms` paper-milliseconds of simulated service time
    /// (used to model compute costs such as the 50 ms sleep function of
    /// §6.1.4 or model inference of §6.3.1).
    pub fn sleep_paper_ms(&self, paper_ms: f64) {
        let d = self.inner.config.time_scale.ms(paper_ms);
        if !d.is_zero() {
            // Simulated service time genuinely occupies the calling thread;
            // on a pooled worker that must not eat the pool's capacity.
            cloudburst_runtime::blocking(|| std::thread::sleep(d));
        }
    }

    /// Kill an endpoint: its pending and future messages are dropped, sends
    /// to it fail, and addressed sends *from* it fail too (a crashed node
    /// neither receives nor transmits). Requests its thread already dequeued
    /// may still be answered through their reply handles — equivalent to a
    /// response that left the NIC just before the crash.
    pub fn kill(&self, addr: Address) {
        let mut down = self.inner.down.write();
        if down.insert(addr.0) {
            self.inner.down_count.fetch_add(1, Ordering::Release);
        }
    }

    /// Revive a killed endpoint.
    pub fn heal(&self, addr: Address) {
        let mut down = self.inner.down.write();
        if down.remove(&addr.0) {
            self.inner.down_count.fetch_sub(1, Ordering::Release);
        }
    }

    /// Partition the link between `a` and `b` (both directions).
    pub fn partition(&self, a: Address, b: Address) {
        let mut partitions = self.inner.partitions.write();
        if partitions.insert(Self::link(a, b)) {
            self.inner.partition_count.fetch_add(1, Ordering::Release);
        }
    }

    /// Heal a partition.
    pub fn heal_partition(&self, a: Address, b: Address) {
        let mut partitions = self.inner.partitions.write();
        if partitions.remove(&Self::link(a, b)) {
            self.inner.partition_count.fetch_sub(1, Ordering::Release);
        }
    }

    /// Number of registered endpoints (diagnostics).
    pub fn endpoint_count(&self) -> usize {
        self.inner.endpoints.len()
    }

    fn link(a: Address, b: Address) -> (u64, u64) {
        (a.0.min(b.0), a.0.max(b.0))
    }

    fn check_reachable(&self, from: Address, to: Address) -> Result<(), SendError> {
        if !self.inner.endpoints.contains(to.0) {
            return Err(SendError::UnknownAddress(to));
        }
        // Fast path: with no fault injected (the steady state), a relaxed
        // counter load is all a send pays — no RwLock traffic at all.
        if self.inner.down_count.load(Ordering::Acquire) != 0 {
            let down = self.inner.down.read();
            if down.contains(&to.0) {
                return Err(SendError::EndpointDown(to));
            }
            // A crashed endpoint cannot transmit either: without this, a
            // "dead" storage node would keep gossiping into the cluster.
            if down.contains(&from.0) {
                return Err(SendError::EndpointDown(from));
            }
        }
        if self.inner.partition_count.load(Ordering::Acquire) != 0
            && self.inner.partitions.read().contains(&Self::link(from, to))
        {
            return Err(SendError::Partitioned);
        }
        Ok(())
    }

    fn deregister(&self, addr: Address) {
        self.inner.endpoints.remove(addr.0);
        self.inner.sites.remove(addr.0);
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("endpoints", &self.endpoint_count())
            .field("time_scale", &self.inner.config.time_scale)
            .finish()
    }
}

/// The receiving half of a registered network address.
pub struct Endpoint {
    addr: Address,
    rx: Receiver<Envelope>,
    /// Kept so [`Endpoint::set_notify`] can re-publish the delivery route
    /// without racing concurrent senders.
    tx: Sender<Envelope>,
    net: Network,
}

impl Endpoint {
    /// This endpoint's address.
    pub fn addr(&self) -> Address {
        self.addr
    }

    /// The network this endpoint belongs to.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Install a wakeup hook invoked after every message delivered to this
    /// endpoint (the message is already in the mailbox when the hook runs).
    /// This is how mailbox-driven actors get scheduled: the hook enqueues
    /// the actor on the runtime instead of an OS thread blocking in
    /// [`Endpoint::recv`]. Replaces any previously installed hook.
    pub fn set_notify(&self, notify: impl Fn() + Send + Sync + 'static) {
        self.net.inner.endpoints.insert(
            self.addr.0,
            Route {
                tx: self.tx.clone(),
                notify: Some(Arc::new(notify)),
            },
        );
    }

    /// Block until a message arrives.
    pub fn recv(&self) -> Result<Envelope, RecvError> {
        cloudburst_runtime::blocking(|| self.rx.recv().map_err(|_| RecvError::Disconnected))
    }

    /// Block until a message arrives or `timeout` elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        cloudburst_runtime::blocking(|| {
            self.rx.recv_timeout(timeout).map_err(|e| match e {
                channel::RecvTimeoutError::Timeout => RecvError::Timeout,
                channel::RecvTimeoutError::Disconnected => RecvError::Disconnected,
            })
        })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }

    /// Send from this endpoint.
    pub fn send(&self, to: Address, payload: impl Any + Send) -> Result<(), SendError> {
        self.net.send(self.addr, to, payload)
    }

    /// Send from this endpoint after the link's latency *plus* `extra`
    /// (already-scaled) time — a message that leaves once modeled work
    /// still owed by the sender is done, without the sender blocking on
    /// it. `send_after(Duration::ZERO, ..)` is [`Endpoint::send`].
    pub fn send_after(
        &self,
        extra: Duration,
        to: Address,
        payload: impl Any + Send,
    ) -> Result<(), SendError> {
        let latency = self.net.link_latency(self.addr, to);
        self.net
            .send_with_extra(self.addr, to, payload, latency, extra)
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("addr", &self.addr)
            .finish()
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.net.deregister(self.addr);
    }
}

/// Create a reply channel for request/response exchanges.
///
/// The requester embeds the [`ReplyHandle`] in its request message and blocks
/// on the [`ReplyWaiter`]; the responder calls [`ReplyHandle::reply`], which
/// routes the response through the same latency injection as a normal send.
pub fn reply_channel<R: Send + 'static>(net: &Network) -> (ReplyHandle<R>, ReplyWaiter<R>) {
    let (tx, rx) = channel::bounded(1);
    (
        ReplyHandle {
            net: net.clone(),
            latency: None,
            sink: ReplySink::Plain(tx),
        },
        ReplyWaiter { rx },
    )
}

/// Where a [`ReplyHandle`] routes its response: a dedicated one-shot channel
/// ([`reply_channel`]) or a [`PipelinedWaiter`]'s shared channel, tagged with
/// the request's correlation id.
enum ReplySink<R> {
    Plain(Sender<R>),
    Tagged(TaggedReply<R>),
}

/// A tagged route into a [`PipelinedWaiter`]'s shared channel. Because the
/// waiter holds its own sender clone, a dropped handle would never
/// disconnect that channel — so this guard actively reports the drop
/// (`None`) if it dies without replying, letting the waiter surface a dead
/// responder as [`RecvError::Disconnected`] instead of burning the caller's
/// full timeout.
struct TaggedReply<R> {
    id: u64,
    tx: Option<Sender<(u64, Option<R>)>>,
}

impl<R> TaggedReply<R> {
    fn send(mut self, response: R) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send((self.id, Some(response)));
        }
    }
}

impl<R> Drop for TaggedReply<R> {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send((self.id, None));
        }
    }
}

/// The responder's half of a reply channel.
pub struct ReplyHandle<R> {
    net: Network,
    latency: Option<LatencyModel>,
    sink: ReplySink<R>,
}

impl<R: Send + 'static> ReplyHandle<R> {
    /// Override the latency model used for the reply leg.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = Some(latency);
        self
    }

    /// Deliver the response after an injected reply-leg latency.
    pub fn reply(self, response: R) {
        self.reply_with_extra(Duration::ZERO, response);
    }

    /// Deliver the response after the reply-leg latency *plus* `extra`
    /// (already-scaled) service time — e.g. a disk-tier read penalty.
    pub fn reply_with_extra(self, extra: Duration, response: R) {
        let model = self
            .latency
            .unwrap_or(self.net.inner.config.default_latency);
        let delay = self.net.sample(model) + extra;
        let runtime = &self.net.inner.runtime;
        match self.sink {
            ReplySink::Plain(tx) => runtime.run_after(delay, move || {
                let _ = tx.send(response);
            }),
            // If the delivery never runs (the runtime shut down first), the
            // guard's Drop still reports the loss.
            ReplySink::Tagged(tagged) => runtime.run_after(delay, move || tagged.send(response)),
        }
    }
}

impl<R> fmt::Debug for ReplyHandle<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ReplyHandle")
    }
}

/// The requester's half of a reply channel.
pub struct ReplyWaiter<R> {
    rx: Receiver<R>,
}

impl<R> ReplyWaiter<R> {
    /// Wait for the response.
    pub fn wait(&self) -> Result<R, RecvError> {
        cloudburst_runtime::blocking(|| self.rx.recv().map_err(|_| RecvError::Disconnected))
    }

    /// Wait with a timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<R, RecvError> {
        cloudburst_runtime::blocking(|| {
            self.rx.recv_timeout(timeout).map_err(|e| match e {
                channel::RecvTimeoutError::Timeout => RecvError::Timeout,
                channel::RecvTimeoutError::Disconnected => RecvError::Disconnected,
            })
        })
    }
}

impl<R> fmt::Debug for ReplyWaiter<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ReplyWaiter")
    }
}

/// A pipelined reply collector: many outstanding requests share one
/// response channel, each tagged with a caller-chosen correlation id.
///
/// Where [`reply_channel`] models one blocking RPC, a `PipelinedWaiter`
/// keeps a whole window of requests in flight — issue a [`ReplyHandle`] per
/// request with [`PipelinedWaiter::handle`], send them all, then drain
/// responses in completion order with [`PipelinedWaiter::wait_next`]. This
/// is what lets a batched client fan one request out per responsible node
/// and overlap every round trip instead of paying them sequentially.
pub struct PipelinedWaiter<R> {
    net: Network,
    tx: Sender<(u64, Option<R>)>,
    rx: Receiver<(u64, Option<R>)>,
    outstanding: usize,
}

impl<R: Send + 'static> PipelinedWaiter<R> {
    /// Create a waiter with no requests in flight.
    pub fn new(net: &Network) -> Self {
        let (tx, rx) = channel::unbounded();
        Self {
            net: net.clone(),
            tx,
            rx,
            outstanding: 0,
        }
    }

    /// Issue a reply handle whose response will arrive tagged with
    /// `correlation` (caller-chosen; typically an index into the request
    /// fan-out). Each handle accounts for one outstanding response.
    pub fn handle(&mut self, correlation: u64) -> ReplyHandle<R> {
        self.outstanding += 1;
        ReplyHandle {
            net: self.net.clone(),
            latency: None,
            sink: ReplySink::Tagged(TaggedReply {
                id: correlation,
                tx: Some(self.tx.clone()),
            }),
        }
    }

    /// Responses still in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Wait for the next response, whichever request it answers.
    ///
    /// Returns [`RecvError::Disconnected`] immediately when nothing is
    /// outstanding (no response can ever arrive), and *promptly* when a
    /// responder dropped its handle without replying — a dead peer is a
    /// definitive failure, not a slow one, so the caller's timeout is not
    /// burned waiting for it.
    pub fn wait_next(&mut self, timeout: Duration) -> Result<(u64, R), RecvError> {
        if self.outstanding == 0 {
            return Err(RecvError::Disconnected);
        }
        match cloudburst_runtime::blocking(|| self.rx.recv_timeout(timeout)) {
            Ok((id, Some(response))) => {
                self.outstanding -= 1;
                Ok((id, response))
            }
            Ok((_, None)) => {
                // The handle for this correlation died without replying.
                self.outstanding -= 1;
                Err(RecvError::Disconnected)
            }
            Err(channel::RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(channel::RecvTimeoutError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    /// Drain every outstanding response under one overall deadline.
    pub fn wait_all(&mut self, timeout: Duration) -> Result<Vec<(u64, R)>, RecvError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "caller-supplied overall timeout; timeouts are wall-clock by contract"
        )]
        let deadline = std::time::Instant::now() + timeout;
        let mut out = Vec::with_capacity(self.outstanding);
        while self.outstanding > 0 {
            #[expect(
                clippy::disallowed_methods,
                reason = "remaining-time computation for the deadline above"
            )]
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            out.push(self.wait_next(remaining)?);
        }
        Ok(out)
    }
}

impl<R> fmt::Debug for PipelinedWaiter<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelinedWaiter")
            .field("outstanding", &self.outstanding)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn instant_net() -> Network {
        Network::new(NetConfig::instant())
    }

    #[test]
    fn send_and_receive() {
        let net = instant_net();
        let a = net.register();
        let b = net.register();
        a.send(b.addr(), "hello".to_string()).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.from, a.addr());
        assert_eq!(env.downcast::<String>().unwrap(), "hello");
    }

    #[test]
    fn downcast_failure_returns_envelope() {
        let net = instant_net();
        let a = net.register();
        let b = net.register();
        a.send(b.addr(), 42u32).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        let env = env.downcast::<String>().unwrap_err();
        assert_eq!(env.downcast::<u32>().unwrap(), 42);
    }

    #[test]
    fn unknown_address_errors() {
        let net = instant_net();
        let a = net.register();
        let ghost = Address(999);
        assert_eq!(
            a.send(ghost, ()).unwrap_err(),
            SendError::UnknownAddress(ghost)
        );
    }

    #[test]
    fn killed_endpoint_rejects_sends() {
        let net = instant_net();
        let a = net.register();
        let b = net.register();
        net.kill(b.addr());
        assert_eq!(
            a.send(b.addr(), ()).unwrap_err(),
            SendError::EndpointDown(b.addr())
        );
        net.heal(b.addr());
        a.send(b.addr(), ()).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn killed_endpoint_cannot_send() {
        let net = instant_net();
        let a = net.register();
        let b = net.register();
        net.kill(a.addr());
        assert_eq!(
            a.send(b.addr(), ()).unwrap_err(),
            SendError::EndpointDown(a.addr()),
            "a crashed node must not keep transmitting"
        );
        net.heal(a.addr());
        a.send(b.addr(), ()).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn in_flight_message_to_killed_endpoint_is_dropped() {
        let net = Network::new(NetConfig {
            time_scale: TimeScale::REAL_TIME,
            default_latency: LatencyModel::Constant { ms: 30.0 },
            seed: 1,
            ..NetConfig::default()
        });
        let a = net.register();
        let b = net.register();
        a.send(b.addr(), 1u8).unwrap();
        net.kill(b.addr()); // dies while the message is in flight
        assert_eq!(
            b.recv_timeout(Duration::from_millis(100)).unwrap_err(),
            RecvError::Timeout
        );
    }

    #[test]
    fn partition_blocks_both_directions() {
        let net = instant_net();
        let a = net.register();
        let b = net.register();
        net.partition(a.addr(), b.addr());
        assert_eq!(a.send(b.addr(), ()).unwrap_err(), SendError::Partitioned);
        assert_eq!(b.send(a.addr(), ()).unwrap_err(), SendError::Partitioned);
        net.heal_partition(a.addr(), b.addr());
        a.send(b.addr(), ()).unwrap();
    }

    #[test]
    fn latency_is_injected_and_scaled() {
        let net = Network::new(NetConfig {
            time_scale: TimeScale::new(0.5),
            default_latency: LatencyModel::Constant { ms: 40.0 }, // → 20 ms scaled
            seed: 1,
            ..NetConfig::default()
        });
        let a = net.register();
        let b = net.register();
        let start = Instant::now();
        a.send(b.addr(), ()).unwrap();
        b.recv_timeout(Duration::from_secs(2)).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(18),
            "too fast: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(200),
            "too slow: {elapsed:?}"
        );
    }

    #[test]
    fn send_after_adds_its_extra_to_the_link_latency() {
        let net = instant_net();
        let a = net.register();
        let b = net.register();
        // No extra on a zero-latency link is the plain inline send.
        a.send_after(Duration::ZERO, b.addr(), 1u8).unwrap();
        assert!(
            b.try_recv().is_some(),
            "delivered before send_after returned"
        );
        let start = Instant::now();
        a.send_after(Duration::from_millis(20), b.addr(), 2u8)
            .unwrap();
        assert!(b.try_recv().is_none(), "held for its extra time");
        let env = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(19));
        assert_eq!(env.downcast::<u8>().unwrap(), 2);
        net.kill(b.addr());
        assert_eq!(
            a.send_after(Duration::from_millis(1), b.addr(), 3u8)
                .unwrap_err(),
            SendError::EndpointDown(b.addr())
        );
    }

    #[test]
    fn constant_latency_preserves_order() {
        let net = Network::new(NetConfig {
            time_scale: TimeScale::REAL_TIME,
            default_latency: LatencyModel::Constant { ms: 5.0 },
            seed: 1,
            ..NetConfig::default()
        });
        let a = net.register();
        let b = net.register();
        for i in 0..50u32 {
            a.send(b.addr(), i).unwrap();
        }
        for i in 0..50u32 {
            let env = b.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(env.downcast::<u32>().unwrap(), i);
        }
    }

    #[test]
    fn reply_channel_roundtrip() {
        let net = instant_net();
        let server = net.register();
        let server_addr = server.addr();
        let handle = std::thread::spawn(move || {
            let env = server.recv().unwrap();
            let reply: ReplyHandle<u64> = env.downcast().unwrap();
            reply.reply(99);
        });
        let client = net.register();
        let (reply, waiter) = reply_channel::<u64>(&net);
        client.send(server_addr, reply).unwrap();
        assert_eq!(waiter.wait_timeout(Duration::from_secs(2)).unwrap(), 99);
        handle.join().unwrap();
    }

    #[test]
    fn pipelined_waiter_surfaces_dropped_handles_promptly() {
        // The waiter holds its own sender clone, so a dropped handle cannot
        // disconnect the shared channel — the drop guard must report it
        // instead, well before the caller's timeout.
        let net = instant_net();
        let mut waiter = PipelinedWaiter::<u64>::new(&net);
        let dead = waiter.handle(0);
        let alive = waiter.handle(1);
        drop(dead); // responder died without replying
        alive.reply(7);
        let start = Instant::now();
        let mut ok = None;
        let mut disconnects = 0;
        for _ in 0..2 {
            match waiter.wait_next(Duration::from_secs(30)) {
                Ok(pair) => ok = Some(pair),
                Err(RecvError::Disconnected) => disconnects += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "dead handle must surface promptly, not after the timeout"
        );
        assert_eq!(ok, Some((1, 7)));
        assert_eq!(disconnects, 1);
        assert_eq!(waiter.outstanding(), 0);
    }

    #[test]
    fn pipelined_waiter_collects_out_of_order_replies() {
        let net = Network::new(NetConfig {
            time_scale: TimeScale::REAL_TIME,
            default_latency: LatencyModel::Zero,
            seed: 1,
            ..NetConfig::default()
        });
        let server = net.register();
        let server_addr = server.addr();
        let handle = std::thread::spawn(move || {
            // Collect all three requests first, answer them backwards.
            let mut replies: Vec<(u64, ReplyHandle<u64>)> = (0..3)
                .map(|_| {
                    let env = server.recv().unwrap();
                    env.downcast::<(u64, ReplyHandle<u64>)>().unwrap()
                })
                .collect();
            replies.sort_by_key(|(id, _)| std::cmp::Reverse(*id));
            for (id, reply) in replies {
                reply.reply(id * 10);
            }
        });
        let client = net.register();
        let mut waiter = PipelinedWaiter::<u64>::new(&net);
        for id in 0..3u64 {
            let reply = waiter.handle(id);
            client.send(server_addr, (id, reply)).unwrap();
        }
        assert_eq!(waiter.outstanding(), 3);
        let mut all = waiter.wait_all(Duration::from_secs(2)).unwrap();
        all.sort_unstable();
        assert_eq!(all, vec![(0, 0), (1, 10), (2, 20)]);
        assert_eq!(waiter.outstanding(), 0);
        assert_eq!(
            waiter.wait_next(Duration::from_millis(10)).unwrap_err(),
            RecvError::Disconnected,
            "nothing outstanding can never be answered"
        );
        handle.join().unwrap();
    }

    #[test]
    fn dropped_reply_handle_disconnects_waiter() {
        let net = instant_net();
        let (reply, waiter) = reply_channel::<u64>(&net);
        drop(reply);
        assert_eq!(waiter.wait().unwrap_err(), RecvError::Disconnected);
    }

    #[test]
    fn endpoint_drop_deregisters() {
        let net = instant_net();
        let a = net.register();
        let b = net.register();
        let b_addr = b.addr();
        assert_eq!(net.endpoint_count(), 2);
        drop(b);
        assert_eq!(net.endpoint_count(), 1);
        assert_eq!(
            a.send(b_addr, ()).unwrap_err(),
            SendError::UnknownAddress(b_addr)
        );
    }

    /// A network on a deterministic runtime, seeded with `seed`.
    fn deterministic_net(seed: u64, tiers: Option<TieredLatency>) -> (Runtime, Network) {
        let runtime = Runtime::new(RuntimeConfig::deterministic());
        let net = Network::on(
            &runtime,
            NetConfig {
                seed,
                tiers,
                ..NetConfig::default()
            },
        );
        (runtime, net)
    }

    #[test]
    fn deterministic_mode_is_single_shard_and_replayable() {
        // A deterministic runtime gives the network one RNG stripe.
        let sample_run = |seed: u64| -> Vec<Duration> {
            let (runtime, net) = deterministic_net(seed, None);
            assert_eq!(net.inner.rngs.len(), 1);
            let samples = (0..64)
                .map(|_| {
                    net.sample(LatencyModel::LogNormal {
                        median_ms: 0.2,
                        p99_ms: 1.0,
                    })
                })
                .collect();
            runtime.shutdown();
            samples
        };
        assert_eq!(
            sample_run(7),
            sample_run(7),
            "same seed must replay the exact latency sequence"
        );
        assert_ne!(sample_run(7), sample_run(8));
    }

    #[test]
    fn parallel_mode_runs_multiple_shards() {
        // The RNG stripes follow the runtime's workers: four on a
        // four-worker pool, one once `CB_DETERMINISTIC=1` collapses it.
        let runtime = Runtime::new(RuntimeConfig {
            workers: 4,
            ..RuntimeConfig::default()
        });
        let net = Network::on(&runtime, NetConfig::default());
        let stripes = match runtime.stats().mode.as_str() {
            "deterministic" => 1,
            _ => 4,
        };
        assert_eq!(net.inner.rngs.len(), stripes);
        runtime.shutdown();
        let (det, net) = deterministic_net(0, None);
        assert_eq!(net.inner.rngs.len(), 1);
        det.shutdown();
    }

    #[test]
    fn network_dropped_right_after_construction_never_hangs() {
        // `Network::new` starts a private runtime and its drop shuts it
        // down. Each iteration reports over a channel, so a hang fails the
        // watchdog below instead of stalling the suite.
        const ITERATIONS: u32 = 500;
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            for i in 0..ITERATIONS {
                drop(Network::new(NetConfig::instant()));
                if tx.send(i).is_err() {
                    return;
                }
            }
        });
        for i in 0..ITERATIONS {
            let done = rx.recv_timeout(Duration::from_secs(30));
            assert_eq!(done, Ok(i), "dropping a network hung at iteration {i}");
        }
        worker.join().unwrap();
    }

    #[test]
    fn last_handle_dropped_inside_its_own_delivery_still_shuts_down() {
        let net = Network::new(NetConfig {
            time_scale: TimeScale::REAL_TIME,
            default_latency: LatencyModel::Constant { ms: 5.0 },
            seed: 1,
            ..NetConfig::default()
        });
        let runtime = net.inner.runtime.clone();
        let a = net.register();
        let b = net.register();
        a.send(b.addr(), 1u8).unwrap();
        // The in-flight delivery now holds the network's last handle; it
        // drops it on a pool thread of the network's own runtime.
        drop((a, b, net));
        // A shut-down runtime drops a new task at once, unrun.
        let start = Instant::now();
        loop {
            let probe = Arc::new(());
            let held = Arc::clone(&probe);
            runtime.run_after(Duration::from_secs(60), move || drop(held));
            if Arc::strong_count(&probe) == 1 {
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "the private runtime never shut down"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn sites_classify_links_and_pick_bands() {
        let tiers = TieredLatency {
            intra_zone: LatencyModel::Constant { ms: 1.0 },
            inter_zone: LatencyModel::Constant { ms: 5.0 },
            wan: LatencyModel::Constant { ms: 50.0 },
        };
        let net = Network::new(NetConfig {
            time_scale: TimeScale::REAL_TIME,
            tiers: Some(tiers),
            ..NetConfig::default()
        });
        let a = net.register_at(Site::new(0, 0));
        let b = net.register_at(Site::new(0, 1));
        let c = net.register_at(Site::new(1, 0));
        let plain = net.register();
        assert_eq!(net.site_of(plain.addr()), Site::default());
        assert_eq!(net.link_tier(a.addr(), a.addr()), LinkTier::IntraZone);
        assert_eq!(net.link_tier(a.addr(), b.addr()), LinkTier::InterZone);
        assert_eq!(net.link_tier(a.addr(), c.addr()), LinkTier::Wan);
        assert_eq!(net.link_tier(c.addr(), a.addr()), LinkTier::Wan);
        assert_eq!(net.link_tier(plain.addr(), a.addr()), LinkTier::IntraZone);
        assert_eq!(
            net.link_latency(a.addr(), c.addr()),
            LatencyModel::Constant { ms: 50.0 }
        );
        // A WAN send actually pays the WAN band.
        let start = Instant::now();
        a.send(c.addr(), ()).unwrap();
        c.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(45),
            "WAN hop too fast: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn flat_network_ignores_sites() {
        let net = instant_net();
        let a = net.register_at(Site::new(0, 0));
        let c = net.register_at(Site::new(3, 0));
        assert_eq!(net.link_tier(a.addr(), c.addr()), LinkTier::Wan);
        // tiers: None → default (Zero) latency even across regions.
        assert_eq!(
            net.link_latency(a.addr(), c.addr()),
            LatencyModel::Zero,
            "flat network must not consult tier bands"
        );
        let c_addr = c.addr();
        drop(c);
        assert_eq!(
            net.site_of(c_addr),
            Site::default(),
            "deregistration clears the site tag"
        );
    }

    #[test]
    fn tiered_deterministic_mode_is_replayable() {
        let run = |seed: u64| -> Vec<Duration> {
            let (runtime, net) = deterministic_net(seed, Some(TieredLatency::default()));
            let models = [
                TieredLatency::default().intra_zone,
                TieredLatency::default().wan,
                TieredLatency::default().inter_zone,
            ];
            let samples = (0..48).map(|i| net.sample(models[i % 3])).collect();
            runtime.shutdown();
            samples
        };
        assert_eq!(
            run(11),
            run(11),
            "same seed + tiers must replay the exact latency sequence"
        );
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn sleep_paper_ms_scales() {
        let net = Network::new(NetConfig {
            time_scale: TimeScale::new(0.1),
            default_latency: LatencyModel::Zero,
            seed: 1,
            ..NetConfig::default()
        });
        let start = Instant::now();
        net.sleep_paper_ms(100.0); // → 10 ms wall clock
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(9));
        assert!(elapsed < Duration::from_millis(300));
    }
}
