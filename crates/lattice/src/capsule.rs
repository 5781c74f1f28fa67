//! [`Capsule`]: lattice encapsulation of opaque program state.

use std::borrow::Cow;
use std::fmt;

use bytes::Bytes;

use crate::causal::CausalLattice;
use crate::key::Key;
use crate::lww::LwwLattice;
use crate::set::SetLattice;
use crate::timestamp::Timestamp;
use crate::traits::{BottomLattice, Lattice};
use crate::vector_clock::VectorClock;

/// Which lattice a value is encapsulated in — one per Cloudburst consistency
/// family (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsistencyKind {
    /// Default mode: last-writer-wins lattice (eventual consistency,
    /// timestamps feed the repeatable-read protocol).
    Lww,
    /// Causal modes: vector clock + dependency set + value.
    Causal,
    /// Grow-only set of opaque values (union on merge). Used for system
    /// state with append semantics, e.g. executor message inboxes (§3) and
    /// registered-function lists (§4.3).
    Set,
}

/// Errors from capsule operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CapsuleError {
    /// Attempted to merge or interpret a capsule under the wrong kind.
    KindMismatch {
        /// Kind of the existing capsule.
        existing: ConsistencyKind,
        /// Kind of the incoming capsule.
        incoming: ConsistencyKind,
    },
}

impl fmt::Display for CapsuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::KindMismatch { existing, incoming } => write!(
                f,
                "capsule kind mismatch: existing {existing:?}, incoming {incoming:?}"
            ),
        }
    }
}

impl std::error::Error for CapsuleError {}

/// A *lattice capsule*: opaque user program state transparently wrapped in a
/// lattice chosen to support Cloudburst's consistency protocols, so that
/// "users gain the benefits of Anna's conflict resolution and Cloudburst's
/// distributed session consistency without having to modify their programs"
/// (paper §2.2, §5.2).
///
/// `Capsule::clone` is **O(1)** for every kind: payload bytes live behind
/// [`Bytes`], and the causal/set variants keep their version and element
/// collections behind `Arc`s. A clone is therefore a *handle* to the same
/// state — stores and caches hand capsules across threads and into
/// per-session snapshot maps by cloning, and a later merge into one handle
/// copies the underlying data only at that point (copy-on-divergence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capsule {
    /// Default last-writer-wins encapsulation.
    Lww(LwwLattice),
    /// Causal-mode encapsulation.
    Causal(CausalLattice),
    /// Grow-only set encapsulation.
    Set(SetLattice<Bytes>),
}

impl Capsule {
    /// Encapsulate a bare value in an LWW lattice (default mode).
    pub fn wrap_lww(timestamp: Timestamp, value: Bytes) -> Self {
        Self::Lww(LwwLattice::new(timestamp, value))
    }

    /// Encapsulate a bare value in a causal lattice.
    pub fn wrap_causal(
        vector_clock: VectorClock,
        dependencies: impl IntoIterator<Item = (Key, VectorClock)>,
        value: Bytes,
    ) -> Self {
        Self::Causal(CausalLattice::new(vector_clock, dependencies, value))
    }

    /// Encapsulate a single element as a grow-only set.
    pub fn wrap_set_element(value: Bytes) -> Self {
        Self::Set(SetLattice::singleton(value))
    }

    /// The kind of lattice inside.
    pub fn kind(&self) -> ConsistencyKind {
        match self {
            Self::Lww(_) => ConsistencyKind::Lww,
            Self::Causal(_) => ConsistencyKind::Causal,
            Self::Set(_) => ConsistencyKind::Set,
        }
    }

    /// De-encapsulate: the value a user program observes. For multi-version
    /// causal capsules this applies the deterministic tie-break; for set
    /// capsules it is the smallest element.
    pub fn read_value(&self) -> Bytes {
        match self {
            Self::Lww(l) => l.value.clone(),
            Self::Causal(c) => c.read_value().cloned().unwrap_or_default(),
            Self::Set(s) => s.first().cloned().unwrap_or_default(),
        }
    }

    /// The elements of a set capsule (empty for other kinds).
    pub fn set_values(&self) -> Vec<Bytes> {
        match self {
            Self::Set(s) => s.iter().cloned().collect(),
            _ => Vec::new(),
        }
    }

    /// The LWW timestamp, if this is an LWW capsule. Used as the version
    /// identity in the repeatable-read protocol (Algorithm 1).
    pub fn lww_timestamp(&self) -> Option<Timestamp> {
        match self {
            Self::Lww(l) => Some(l.timestamp),
            _ => None,
        }
    }

    /// The effective vector clock, if this is a causal capsule. Used by
    /// Algorithm 2's `valid` predicate.
    pub fn causal_clock(&self) -> Option<VectorClock> {
        match self {
            Self::Causal(c) => Some(c.vector_clock()),
            _ => None,
        }
    }

    /// [`Capsule::causal_clock`] without the copy for a single-version
    /// causal capsule.
    pub fn causal_clock_ref(&self) -> Option<Cow<'_, VectorClock>> {
        match self {
            Self::Causal(c) => Some(c.vector_clock_ref()),
            _ => None,
        }
    }

    /// Total user payload bytes held (all versions for causal capsules).
    pub fn payload_len(&self) -> usize {
        match self {
            Self::Lww(l) => l.payload_len(),
            Self::Causal(c) => c.payload_len(),
            Self::Set(s) => s.iter().map(Bytes::len).sum(),
        }
    }

    /// Consistency metadata bytes (timestamp for LWW; vector clocks plus
    /// dependency sets for causal), per the §6.2.1 overhead measurements.
    pub fn metadata_bytes(&self) -> usize {
        match self {
            // "Last-writer wins … only stores the 8-byte timestamp" — we
            // count the full ⟨clock, node⟩ pair it is composed from.
            Self::Lww(_) => 8,
            Self::Causal(c) => c.metadata_bytes(),
            Self::Set(_) => 0,
        }
    }

    /// Merge another capsule of the *same kind* into this one.
    ///
    /// Anna never mixes kinds for one key (the mode is fixed per deployment),
    /// so a mismatch indicates a bug at the call site and is surfaced as an
    /// error rather than resolved silently.
    pub fn try_join(&mut self, other: Self) -> Result<(), CapsuleError> {
        match (self, other) {
            (Self::Lww(a), Self::Lww(b)) => {
                a.join(b);
                Ok(())
            }
            (Self::Causal(a), Self::Causal(b)) => {
                a.join(b);
                Ok(())
            }
            (Self::Set(a), Self::Set(b)) => {
                a.join(b);
                Ok(())
            }
            (existing, incoming) => Err(CapsuleError::KindMismatch {
                existing: existing.kind(),
                incoming: incoming.kind(),
            }),
        }
    }
}

impl Default for Capsule {
    fn default() -> Self {
        Self::Lww(LwwLattice::bottom())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lww(clock: u64, v: &'static [u8]) -> Capsule {
        Capsule::wrap_lww(Timestamp::new(clock, 0), Bytes::from_static(v))
    }

    fn causal(entries: &[(u64, u64)], v: &'static [u8]) -> Capsule {
        Capsule::wrap_causal(entries.iter().copied().collect(), [], Bytes::from_static(v))
    }

    #[test]
    fn lww_join_and_read() {
        let mut a = lww(1, b"old");
        a.try_join(lww(2, b"new")).unwrap();
        assert_eq!(a.read_value().as_ref(), b"new");
        assert_eq!(a.lww_timestamp(), Some(Timestamp::new(2, 0)));
        assert_eq!(a.kind(), ConsistencyKind::Lww);
    }

    #[test]
    fn causal_join_and_read() {
        let mut a = causal(&[(1, 1)], b"x");
        a.try_join(causal(&[(2, 1)], b"y")).unwrap();
        assert_eq!(a.causal_clock().unwrap().len(), 2);
        assert!(a.lww_timestamp().is_none());
        assert_eq!(a.kind(), ConsistencyKind::Causal);
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let mut a = lww(1, b"x");
        let err = a.try_join(causal(&[(1, 1)], b"y")).unwrap_err();
        assert_eq!(
            err,
            CapsuleError::KindMismatch {
                existing: ConsistencyKind::Lww,
                incoming: ConsistencyKind::Causal,
            }
        );
        // The error is also printable.
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn metadata_accounting() {
        assert_eq!(lww(1, b"abc").metadata_bytes(), 8);
        assert_eq!(lww(1, b"abc").payload_len(), 3);
        let c = causal(&[(1, 1)], b"abcd");
        assert_eq!(c.metadata_bytes(), 16);
        assert_eq!(c.payload_len(), 4);
    }

    #[test]
    fn clone_is_a_payload_handle_for_every_kind() {
        // The payload allocation must be shared by a clone, not copied:
        // compare the address of the bytes each clone reads.
        let capsules = [
            Capsule::wrap_lww(Timestamp::new(1, 0), Bytes::from(vec![7u8; 64])),
            Capsule::wrap_causal(
                VectorClock::singleton(1, 1),
                [(Key::new("dep"), VectorClock::singleton(1, 1))],
                Bytes::from(vec![8u8; 64]),
            ),
            Capsule::wrap_set_element(Bytes::from(vec![9u8; 64])),
        ];
        for capsule in capsules {
            let clone = capsule.clone();
            assert_eq!(
                capsule.read_value().as_ref().as_ptr(),
                clone.read_value().as_ref().as_ptr(),
                "{:?} clone deep-copied its payload",
                capsule.kind()
            );
        }
    }

    #[test]
    fn default_is_lww_bottom() {
        let d = Capsule::default();
        assert_eq!(d.kind(), ConsistencyKind::Lww);
        assert_eq!(d.lww_timestamp(), Some(Timestamp::ZERO));
        assert!(d.read_value().is_empty());
    }
}
