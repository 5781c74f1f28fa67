//! Coordination-free global [`Timestamp`]s for last-writer-wins resolution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// A globally unique, coordination-free timestamp.
///
/// Per the paper (§5.2): "The global timestamp is generated by each node in a
/// coordination-free fashion by concatenating the local system clock and the
/// node's unique ID." Ordering is lexicographic on `(clock_micros, node)`, so
/// two timestamps are equal only if produced by the same node at the same
/// local instant — which [`TimestampGenerator`] prevents by enforcing local
/// monotonicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp {
    /// Local wall-clock microseconds since the Unix epoch (monotonized).
    pub clock_micros: u64,
    /// Unique ID of the generating node / executor thread.
    pub node: u64,
}

impl Timestamp {
    /// The zero timestamp, smaller than any generated one.
    pub const ZERO: Self = Self {
        clock_micros: 0,
        node: 0,
    };

    /// Build a timestamp from raw parts (mostly for tests).
    pub const fn new(clock_micros: u64, node: u64) -> Self {
        Self { clock_micros, node }
    }
}

/// Per-node timestamp generator enforcing local monotonicity.
///
/// Reads the system clock and bumps it if it has not advanced past the last
/// issued value, so a node that writes twice in the same microsecond still
/// issues strictly increasing timestamps.
#[derive(Debug)]
pub struct TimestampGenerator {
    node: u64,
    last_micros: AtomicU64,
}

impl TimestampGenerator {
    /// Create a generator for the node with the given unique ID.
    pub fn new(node: u64) -> Self {
        Self {
            node,
            last_micros: AtomicU64::new(0),
        }
    }

    /// The node ID this generator stamps with.
    pub fn node(&self) -> u64 {
        self.node
    }

    /// Issue the next timestamp: `max(system_clock, last + 1)`.
    pub fn next(&self) -> Timestamp {
        #[expect(
            clippy::disallowed_methods,
            reason = "hybrid logical clock seeds from the system clock by definition; max(last+1) keeps it monotone"
        )]
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let mut prev = self.last_micros.load(Ordering::Relaxed);
        loop {
            let candidate = now.max(prev + 1);
            match self.last_micros.compare_exchange_weak(
                prev,
                candidate,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Timestamp {
                        clock_micros: candidate,
                        node: self.node,
                    }
                }
                Err(actual) => prev = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Timestamp::new(1, 9) < Timestamp::new(2, 0));
        assert!(Timestamp::new(2, 0) < Timestamp::new(2, 1));
        assert!(Timestamp::ZERO < Timestamp::new(0, 1));
    }

    #[test]
    fn generator_is_strictly_monotonic() {
        let g = TimestampGenerator::new(7);
        let mut last = Timestamp::ZERO;
        for _ in 0..10_000 {
            let t = g.next();
            assert!(t > last, "timestamps must strictly increase");
            assert_eq!(t.node, 7);
            last = t;
        }
    }

    #[test]
    fn generator_is_monotonic_across_threads() {
        let g = Arc::new(TimestampGenerator::new(1));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || (0..5_000).map(|_| g.next()).collect::<Vec<_>>())
            })
            .collect();
        let mut all: Vec<Timestamp> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no two threads may share a timestamp");
    }

    #[test]
    fn different_nodes_never_collide() {
        let a = TimestampGenerator::new(1).next();
        let b = TimestampGenerator::new(2).next();
        assert_ne!(a, b);
    }
}
