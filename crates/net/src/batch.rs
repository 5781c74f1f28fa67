//! [`Batch`]: the envelope that carries many same-destination messages.
//!
//! Per-message overhead (an allocation, a delay-queue entry, a channel push,
//! a receiver wakeup) dominates the simulated fabric once payload handling is
//! cheap, exactly as per-packet overhead dominates a real kernel network
//! stack at small message sizes. The paper's systems amortize it the same
//! way: executors coalesce KVS traffic per scheduling epoch and Anna
//! exchanges state via periodic batched gossip rather than per-write
//! messages (paper §4; Anna's gossip protocol).
//!
//! A sender gathers payloads on its own cadence — [`Batches`] keeps one
//! open batch per destination and closes it at a byte cap — and ships each
//! as one [`Batch`]: one latency sample, one delivery. The receiver unwraps
//! it back into individual protocol messages.

use std::any::Any;
use std::collections::HashMap;

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

/// One open [`Batch`] per destination, closed when its summed size hints
/// reach a byte cap.
///
/// It keeps no clock and sends nothing: the owner pushes within one flush,
/// sends each batch `push` returns, and sends the rest from
/// [`Batches::drain_all`] at the end of the flush.
#[derive(Debug)]
pub struct Batches {
    max_bytes: usize,
    open: HashMap<Address, (Batch, usize)>,
}

impl Batches {
    /// Batches that close once they hold `max_bytes` of size hints.
    pub fn new(max_bytes: usize) -> Self {
        Self {
            max_bytes,
            open: HashMap::new(),
        }
    }

    /// Add `payload` (≈`size_hint` bytes) to `to`'s batch. Returns the
    /// batch if this push took it to the byte cap; the caller sends it.
    #[must_use = "a returned batch is closed and must be sent"]
    pub fn push(
        &mut self,
        to: Address,
        payload: impl Any + Send,
        size_hint: usize,
    ) -> Option<Batch> {
        let (batch, bytes) = self.open.entry(to).or_default();
        batch.push(payload);
        *bytes += size_hint;
        if *bytes >= self.max_bytes {
            return self.open.remove(&to).map(|(batch, _)| batch);
        }
        None
    }

    /// Close and return every open batch.
    pub fn drain_all(&mut self) -> Vec<(Address, Batch)> {
        self.open
            .drain()
            .map(|(to, (batch, _))| (to, batch))
            .collect()
    }

    /// Whether any batch is open.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    /// Number of destinations with an open batch.
    pub fn pending_destinations(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{NetConfig, Network};
    use std::time::Duration;

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

    /// Two distinct addresses on a throwaway network.
    fn two_addresses() -> (Address, Address) {
        let net = Network::new(NetConfig::instant());
        (net.register().addr(), net.register().addr())
    }

    #[test]
    fn size_cap_closes_a_batch() {
        let mut b = Batches::new(100);
        let (to, _) = two_addresses();
        assert!(b.push(to, 1u8, 60).is_none());
        let closed = b.push(to, 2u8, 60).expect("second push crosses 100 bytes");
        assert_eq!(closed.len(), 2);
        assert!(b.is_empty());
    }

    #[test]
    fn destinations_coalesce_independently() {
        let mut b = Batches::new(100);
        let (x, y) = two_addresses();
        assert!(b.push(x, 1u8, 50).is_none());
        assert!(b.push(y, 2u8, 50).is_none());
        assert_eq!(b.pending_destinations(), 2);
        assert!(b.push(x, 3u8, 50).is_some(), "x reaches its byte cap");
        assert_eq!(b.pending_destinations(), 1);
    }

    #[test]
    fn drain_all_flushes_everything() {
        let mut b = Batches::new(usize::MAX);
        let (x, y) = two_addresses();
        let _ = b.push(x, 1u8, 0);
        let _ = b.push(y, 2u8, 0);
        assert_eq!(b.drain_all().len(), 2);
        assert!(b.is_empty());
    }
}
