//! [`Batch`] and [`Coalescer`]: the request-coalescing half of the fabric.
//!
//! Per-message overhead (an allocation, a delay-queue entry, a channel push,
//! a receiver wakeup) dominates the simulated fabric once payload handling is
//! cheap, exactly as per-packet overhead dominates a real kernel network
//! stack at small message sizes. The paper's systems amortize it the same
//! way this module does: executors coalesce KVS traffic per scheduling epoch
//! and Anna exchanges state via periodic batched gossip rather than
//! per-write messages (paper §4; Anna's gossip protocol).
//!
//! A [`Coalescer`] buffers outbound payloads per destination and closes a
//! batch when a time window elapses or a size cap is hit; the closed batch
//! travels as one [`Batch`] envelope — one latency sample, one delivery —
//! and the receiver unwraps it back into individual protocol messages.

use std::any::Any;
#[cfg(debug_assertions)]
use std::cell::Cell;
use std::collections::HashMap;
#[cfg(debug_assertions)]
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use crate::transport::Address;

/// A batch of same-destination payloads delivered as a single envelope.
///
/// Receivers downcast the envelope payload to `Batch`, then downcast each
/// item to their protocol message type — the same multiplexing contract as
/// single messages, applied element-wise.
pub struct Batch {
    items: Vec<Box<dyn Any + Send>>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Self { items: Vec::new() }
    }

    /// Append a payload.
    pub fn push(&mut self, payload: impl Any + Send) {
        self.items.push(Box::new(payload));
    }

    /// Number of payloads in the batch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the batch holds no payloads.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Consume the batch, yielding its payloads in push order.
    pub fn into_items(self) -> Vec<Box<dyn Any + Send>> {
        self.items
    }
}

impl Default for Batch {
    fn default() -> Self {
        Self::new()
    }
}

impl IntoIterator for Batch {
    type Item = Box<dyn Any + Send>;
    type IntoIter = std::vec::IntoIter<Box<dyn Any + Send>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl std::fmt::Debug for Batch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batch").field("len", &self.len()).finish()
    }
}

/// Caps governing when a [`Coalescer`] closes a batch.
#[derive(Debug, Clone, Copy)]
pub struct CoalescerConfig {
    /// Maximum time a payload may wait in an open batch (already scaled to
    /// wall-clock time by the caller).
    pub window: Duration,
    /// Close a batch once its accumulated size hints reach this many bytes.
    pub max_batch_bytes: usize,
    /// Close a batch once it holds this many payloads.
    pub max_batch_items: usize,
}

impl Default for CoalescerConfig {
    fn default() -> Self {
        Self {
            window: Duration::from_millis(1),
            max_batch_bytes: 1 << 20,
            max_batch_items: 1024,
        }
    }
}

struct OpenBatch {
    batch: Batch,
    bytes: usize,
    opened: Instant,
}

/// Merges same-destination payloads into [`Batch`]es within a configurable
/// window.
///
/// The coalescer is passive and single-owner (each worker thread keeps its
/// own): `push` buffers a payload and returns a batch only when a size cap
/// closes it; the owning loop then drains on its own schedule — either all
/// at once on a periodic tick ([`Coalescer::drain_all`], how Anna nodes
/// flush cache pushes on the gossip cadence) or window-accurately between
/// ticks ([`Coalescer::drain_expired`] bounded by
/// [`Coalescer::next_deadline`]). Nothing is sent by the coalescer itself,
/// so callers keep full control of send errors and latency models.
///
/// # Single-caller cadence invariant
///
/// `drain_expired` and `next_deadline` assume **one thread owns the
/// push/drain cadence**: batch windows are measured against `Instant`s
/// recorded at push time, and the deadline returned by `next_deadline` is
/// only meaningful to the loop that will also perform the next drain. Two
/// threads interleaving pushes and drains on one coalescer would race the
/// window accounting (a batch could be drained by a thread whose cadence
/// never observed its open time) — that flush path must instead give each
/// worker its own coalescer, which is what every owner in this codebase
/// does (one per Anna node worker, one per VM cache flusher).
///
/// The invariant is *asserted in debug builds*: the first call to `push`,
/// `drain_expired`, `drain_all`, or `next_deadline` binds the coalescer to
/// the calling *logical owner*, and any later call from a different owner
/// panics. When the caller is a pooled actor (a `cloudburst-runtime` poll),
/// the owner is the **actor id** — stable while the runtime migrates the
/// actor between workers, which is routine under work stealing. Outside an
/// actor poll the owner falls back to the OS `ThreadId` (client threads
/// and plain test code). Constructing
/// on one thread and moving into a worker is fine — binding happens at
/// first use, not at construction. For the rare legitimate handoff (e.g.
/// draining a retired worker's leftovers on its parent), call
/// [`Coalescer::unbind_owner`] at the handoff point.
pub struct Coalescer {
    config: CoalescerConfig,
    pending: HashMap<Address, OpenBatch>,
    /// Debug-build owner binding for the cadence invariant. `Cell` keeps
    /// `next_deadline(&self)` able to bind; the type stays `Send` (moved
    /// into worker threads at spawn) and was never `Sync`.
    #[cfg(debug_assertions)]
    owner: Cell<Option<OwnerToken>>,
}

/// The logical owner of a [`Coalescer`] cadence: the polling actor if one
/// is on the stack (work stealing migrates it across threads), otherwise
/// the OS thread.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OwnerToken {
    Actor(u64),
    Thread(ThreadId),
}

#[cfg(debug_assertions)]
impl OwnerToken {
    fn current() -> Self {
        match cloudburst_runtime::current_actor() {
            Some(id) => Self::Actor(id),
            None => Self::Thread(std::thread::current().id()),
        }
    }
}

impl Coalescer {
    /// Create a coalescer with the given caps.
    pub fn new(config: CoalescerConfig) -> Self {
        Self {
            config,
            pending: HashMap::new(),
            #[cfg(debug_assertions)]
            owner: Cell::new(None),
        }
    }

    /// The configured caps.
    pub fn config(&self) -> CoalescerConfig {
        self.config
    }

    /// Release the debug-build owner binding so another thread may take
    /// over the push/drain cadence (see the type-level invariant docs).
    /// The caller is responsible for the handoff being a true handoff —
    /// the old owner must not touch the coalescer again.
    pub fn unbind_owner(&mut self) {
        #[cfg(debug_assertions)]
        self.owner.set(None);
    }

    /// Debug-build check of the single-caller cadence invariant: first use
    /// binds the calling owner (actor id inside a poll, thread id outside),
    /// later uses must come from the same owner.
    #[inline]
    fn check_owner(&self) {
        #[cfg(debug_assertions)]
        {
            let current = OwnerToken::current();
            match self.owner.get() {
                None => self.owner.set(Some(current)),
                Some(owner) => assert_eq!(
                    owner, current,
                    "Coalescer used from two owners: the push/drain cadence \
                     is single-owner (give each worker its own Coalescer, or \
                     unbind_owner() at a true handoff point)"
                ),
            }
        }
    }

    /// Buffer `payload` (≈`size_hint` bytes) for `to`. Returns the closed
    /// batch if this push filled it to a size cap; the caller sends it.
    #[must_use = "a returned batch is closed and must be sent"]
    pub fn push(
        &mut self,
        to: Address,
        payload: impl Any + Send,
        size_hint: usize,
    ) -> Option<Batch> {
        self.check_owner();
        let open = self.pending.entry(to).or_insert_with(|| OpenBatch {
            batch: Batch::new(),
            bytes: 0,
            // lint: allow(L003): batch-age clock; the coalescer window is wall-clock (scaled paper-ms) by design
            opened: Instant::now(),
        });
        open.batch.push(payload);
        open.bytes += size_hint;
        if open.bytes >= self.config.max_batch_bytes
            || open.batch.len() >= self.config.max_batch_items
        {
            return self.pending.remove(&to).map(|o| o.batch);
        }
        None
    }

    /// Close and return every batch whose window has expired as of `now`.
    pub fn drain_expired(&mut self, now: Instant) -> Vec<(Address, Batch)> {
        self.check_owner();
        let window = self.config.window;
        let expired: Vec<Address> = self
            .pending
            .iter()
            .filter_map(|(&to, open)| (now.duration_since(open.opened) >= window).then_some(to))
            .collect();
        expired
            .into_iter()
            .filter_map(|to| self.pending.remove(&to).map(|o| (to, o.batch)))
            .collect()
    }

    /// Close and return every pending batch regardless of age (shutdown or
    /// forced flush).
    pub fn drain_all(&mut self) -> Vec<(Address, Batch)> {
        self.check_owner();
        self.pending
            .drain()
            .map(|(to, open)| (to, open.batch))
            .collect()
    }

    /// The earliest instant at which a pending batch's window expires, if
    /// any — lets the owning loop bound its receive timeout.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.check_owner();
        self.pending
            .values()
            .map(|open| open.opened + self.config.window)
            .min()
    }

    /// Whether any batch is open.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Number of destinations with an open batch.
    pub fn pending_destinations(&self) -> usize {
        self.pending.len()
    }
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("pending_destinations", &self.pending.len())
            .field("window", &self.config.window)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{NetConfig, Network};

    fn config(window_ms: u64, max_bytes: usize, max_items: usize) -> CoalescerConfig {
        CoalescerConfig {
            window: Duration::from_millis(window_ms),
            max_batch_bytes: max_bytes,
            max_batch_items: max_items,
        }
    }

    #[test]
    fn batch_roundtrips_through_the_network() {
        let net = Network::new(NetConfig::instant());
        let a = net.register();
        let b = net.register();
        let mut batch = Batch::new();
        batch.push(1u32);
        batch.push(2u32);
        batch.push("three".to_string());
        a.send(b.addr(), batch).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        let batch = env.downcast::<Batch>().unwrap();
        assert_eq!(batch.len(), 3);
        let mut ints = Vec::new();
        let mut strings = Vec::new();
        for item in batch {
            match item.downcast::<u32>() {
                Ok(n) => ints.push(*n),
                Err(other) => strings.push(*other.downcast::<String>().unwrap()),
            }
        }
        assert_eq!(ints, vec![1, 2]);
        assert_eq!(strings, vec!["three".to_string()]);
    }

    #[test]
    fn size_cap_closes_a_batch() {
        let mut c = Coalescer::new(config(60_000, 100, 1024));
        let to = Address::test_only(7);
        assert!(c.push(to, 1u8, 60).is_none());
        let closed = c.push(to, 2u8, 60).expect("second push crosses 100 bytes");
        assert_eq!(closed.len(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn item_cap_closes_a_batch() {
        let mut c = Coalescer::new(config(60_000, usize::MAX, 3));
        let to = Address::test_only(7);
        assert!(c.push(to, 1u8, 0).is_none());
        assert!(c.push(to, 2u8, 0).is_none());
        let closed = c.push(to, 3u8, 0).expect("third item closes");
        assert_eq!(closed.len(), 3);
    }

    #[test]
    fn destinations_coalesce_independently() {
        let mut c = Coalescer::new(config(60_000, usize::MAX, 2));
        let (x, y) = (Address::test_only(1), Address::test_only(2));
        assert!(c.push(x, 1u8, 0).is_none());
        assert!(c.push(y, 2u8, 0).is_none());
        assert_eq!(c.pending_destinations(), 2);
        assert!(c.push(x, 3u8, 0).is_some(), "x reaches its item cap");
        assert_eq!(c.pending_destinations(), 1);
    }

    #[test]
    fn window_expiry_drains_batches() {
        let mut c = Coalescer::new(config(5, usize::MAX, usize::MAX));
        let to = Address::test_only(1);
        assert!(c.push(to, 1u8, 0).is_none());
        assert!(
            c.drain_expired(Instant::now()).is_empty(),
            "window still open"
        );
        let later = Instant::now() + Duration::from_millis(50);
        let drained = c.drain_expired(later);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, to);
        assert_eq!(drained[0].1.len(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn next_deadline_tracks_oldest_batch() {
        let mut c = Coalescer::new(config(10, usize::MAX, usize::MAX));
        assert!(c.next_deadline().is_none());
        let _ = c.push(Address::test_only(1), 1u8, 0);
        let deadline = c.next_deadline().expect("open batch has a deadline");
        assert!(deadline <= Instant::now() + Duration::from_millis(10));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn cross_thread_cadence_panics_in_debug() {
        let mut c = Coalescer::new(config(60_000, usize::MAX, usize::MAX));
        let _ = c.push(Address::test_only(1), 1u8, 0); // binds this thread
        let result = std::thread::spawn(move || {
            let _ = c.drain_expired(Instant::now());
        })
        .join();
        assert!(
            result.is_err(),
            "draining from a second thread must trip the owner assertion"
        );
    }

    #[test]
    fn actor_migration_across_threads_keeps_one_owner() {
        // Regression for the PR 7 ThreadId binding: a pooled actor's poll
        // migrates between workers under stealing, so a cadence bound to an
        // actor id must survive the thread change.
        let mut c = Coalescer::new(config(60_000, usize::MAX, usize::MAX));
        {
            let _scope = cloudburst_runtime::ActorScope::enter(42);
            let _ = c.push(Address::test_only(1), 1u8, 0); // binds actor 42
        }
        let drained = std::thread::spawn(move || {
            // Same actor, different OS thread — the migrated-poll shape.
            let _scope = cloudburst_runtime::ActorScope::enter(42);
            c.drain_all()
        })
        .join()
        .expect("migrated actor must still own the cadence");
        assert_eq!(drained.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn different_actor_still_trips_owner_assertion() {
        let mut c = Coalescer::new(config(60_000, usize::MAX, usize::MAX));
        {
            let _scope = cloudburst_runtime::ActorScope::enter(1);
            let _ = c.push(Address::test_only(1), 1u8, 0);
        }
        let result = std::thread::spawn(move || {
            let _scope = cloudburst_runtime::ActorScope::enter(2);
            let _ = c.drain_all();
        })
        .join();
        assert!(
            result.is_err(),
            "a different actor id is a different owner and must panic"
        );
    }

    #[test]
    fn unbind_owner_allows_true_handoff() {
        let mut c = Coalescer::new(config(60_000, usize::MAX, usize::MAX));
        let _ = c.push(Address::test_only(1), 1u8, 0);
        c.unbind_owner();
        let drained = std::thread::spawn(move || c.drain_all()).join().unwrap();
        assert_eq!(drained.len(), 1);
    }

    #[test]
    fn construction_does_not_bind_a_thread() {
        // Building on one thread and using on a worker is the normal spawn
        // pattern; only first *use* binds.
        let mut c = Coalescer::new(config(60_000, usize::MAX, usize::MAX));
        let closed = std::thread::spawn(move || {
            let _ = c.push(Address::test_only(1), 1u8, 0);
            c.drain_all()
        })
        .join()
        .unwrap();
        assert_eq!(closed.len(), 1);
    }

    #[test]
    fn drain_all_flushes_everything() {
        let mut c = Coalescer::new(config(60_000, usize::MAX, usize::MAX));
        let _ = c.push(Address::test_only(1), 1u8, 0);
        let _ = c.push(Address::test_only(2), 2u8, 0);
        assert_eq!(c.drain_all().len(), 2);
        assert!(c.is_empty());
    }
}
