//! Lattice data types for the Cloudburst stateful-FaaS reproduction.
//!
//! Cloudburst (Sreekanti et al., VLDB 2020) stores *all* shared state in the
//! Anna key-value store, whose values are **join semilattices**: types with a
//! `join` (merge) operator that is *associative*, *commutative*, and
//! *idempotent* (ACI). Because merge is insensitive to the batching, ordering,
//! and repetition of requests, replicas can accept writes independently and
//! converge without coordination — the CvRDT approach of Shapiro et al.
//!
//! This crate provides:
//!
//! * The [`Lattice`] trait and primitive lattices:
//!   [`MaxLattice`], [`BoolOrLattice`], [`SetLattice`], [`MapLattice`],
//!   [`CounterLattice`].
//! * [`Timestamp`]s and the last-writer-wins lattice [`LwwLattice`] used for
//!   Cloudburst's default consistency mode (paper §5.2).
//! * [`VectorClock`]s and the multi-value causal lattice [`CausalLattice`]
//!   (vector clock + dependency set + value set) used for causal modes
//!   (paper §5.2–5.3).
//! * [`Capsule`]: the *lattice capsule* that transparently wraps opaque user
//!   program state (bytes) in one of the above lattices so Anna can merge
//!   concurrent updates without user involvement (paper contribution #3).
//!
//! All types in this crate are purely algorithmic (no I/O, no threads) and are
//! exercised by property tests asserting the ACI laws.

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "test code may read the wall clock: it times its own waits"
    )
)]

pub mod capsule;
pub mod causal;
pub mod codec;
pub mod counter;
pub mod key;
pub mod lww;
pub mod map;
pub mod max;
pub mod set;
pub mod timestamp;
pub mod traits;
pub mod vector_clock;

pub use capsule::{Capsule, CapsuleError, ConsistencyKind};
pub use causal::CausalLattice;
pub use codec::CodecError;
pub use counter::CounterLattice;
pub use key::{Key, KeyMap, KeySet};
pub use lww::LwwLattice;
pub use map::MapLattice;
pub use max::{BoolOrLattice, MaxLattice};
pub use set::SetLattice;
pub use timestamp::{Timestamp, TimestampGenerator};
pub use traits::{BottomLattice, Lattice};
pub use vector_clock::{CausalOrder, VectorClock};
