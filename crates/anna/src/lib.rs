//! An Anna-style autoscaling, lattice-based key-value store — the storage
//! substrate of the Cloudburst reproduction.
//!
//! The paper builds Cloudburst on **Anna** (Wu et al., 2019), "a low-latency
//! autoscaling key-value store designed to achieve a variety of
//! coordination-free consistency levels by using mergeable monotonic lattice
//! data structures". This crate re-implements the parts of Anna the paper
//! depends on:
//!
//! * **Lattice values** — every stored value is a
//!   [`cloudburst_lattice::Capsule`]; concurrent `put`s *merge* rather than
//!   overwrite ([`node`]).
//! * **Partitioning & replication** — keys are placed by a consistent-hash
//!   ring with virtual nodes ([`ring`]); each key lives on `k` replicas which
//!   synchronize by asynchronous gossip of merged lattice state.
//! * **Cached-keyset index** — Cloudburst caches report the keys they hold;
//!   each storage node incrementally maintains the key→cache index for the
//!   keys it owns and pushes merged updates to those caches (paper §4.2).
//!   The index is partitioned exactly like the key space.
//! * **Storage tiers** — a memory tier with bounded capacity spills cold keys
//!   to a simulated disk tier that adds access latency (paper §2.2).
//! * **Elasticity** — storage nodes can be added/removed at runtime with key
//!   redistribution, and per-key replication can be raised for hot keys
//!   ([`cluster`]).
//! * **Metrics substrate** — system components publish metrics *into* Anna
//!   under reserved keys ([`metrics`]), which is how Cloudburst's monitoring
//!   system observes the cluster (paper §4.4).
//!
//! The cluster is simulated in-process: every storage node is a thread
//! receiving requests over a [`cloudburst_net::Network`] (see DESIGN.md §2).

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "test code may read the wall clock: it times its own waits"
    )
)]

pub mod client;
pub mod cluster;
pub mod directory;
pub mod elastic;
pub mod lsm;
pub mod metrics;
pub mod msg;
pub mod node;
pub mod ring;
pub mod store;
pub mod telemetry;

pub use client::{AnnaClient, AnnaError};
pub use cluster::{AnnaCluster, AnnaConfig, Durability, RemoveNodeError, ReplicationAudit};
pub use directory::Directory;
pub use elastic::{
    ElasticConfig, ElasticHandle, ScaleDecision, ScaleSample, ScaleTier, ScaleTimeline,
    ScalingConfig, ScalingLoop, StorageScaler,
};
pub use lsm::{DiskEnv, DiskError, FaultDisk, LsmEngine, LsmOptions, RealDisk};
pub use msg::{KeyUpdate, MultiGetResponse, MultiPutResponse, NodeStats, StorageRequest};
pub use ring::HashRing;
pub use store::TieredStore;
