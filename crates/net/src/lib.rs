//! Simulated cluster network for the Cloudburst reproduction.
//!
//! The paper evaluates Cloudburst on an EC2 cluster: Anna storage nodes,
//! function-executor VMs, schedulers, and clients exchange messages over TCP
//! within one availability zone. This crate replaces that fabric with an
//! **in-process message-passing network**: every logical node registers an
//! [`Endpoint`] on a [`Network`], and every send is a one-shot task on an
//! actor runtime's timer heap (`cloudburst_runtime::Runtime::run_after`)
//! that delivers after a per-message latency drawn from configurable
//! [`LatencyModel`]s.
//!
//! Design points:
//!
//! * **One timer heap** — deliveries and replies ride the same runtime
//!   heap that drives every actor cadence. [`Network::on`] shares a
//!   deployment's runtime; [`Network::new`] builds a private one. Due
//!   tasks run in `(deadline, arm order)`, one at a time, so per-destination
//!   FIFO holds at constant latency on a multi-worker pool. On a
//!   deterministic runtime (`RuntimeConfig::deterministic()` or
//!   `CB_DETERMINISTIC=1`, read only by the runtime) the network draws from
//!   one latency RNG and delivers in one global order, for byte-for-byte
//!   `--seed` replay (chaos / power-loss harnesses).
//! * **Faithful asynchrony** — delivery is asynchronous and (for non-constant
//!   models) may reorder messages between different sender/receiver pairs,
//!   exactly like independent TCP connections.
//! * **Time scaling** — all injected latencies are multiplied by a
//!   [`TimeScale`] so that experiments whose wall-clock shape spans minutes
//!   in the paper run in seconds here while preserving every ratio
//!   (DESIGN.md §2).
//! * **Failure injection** — endpoints can be killed and links partitioned,
//!   which the fault-tolerance and consistency tests use.
//! * **Multi-region tiers** — endpoints may register *at a [`Site`]*
//!   (`region`, `zone`), and [`NetConfig::tiers`] layers intra-AZ /
//!   inter-AZ / WAN latency bands ([`TieredLatency`]) on top of the same
//!   distributions, so one `Network` simulates a geo-distributed
//!   deployment without a second code path.
//! * **RPC** — [`reply_channel`] gives request/response semantics with the
//!   return path subject to the same latency injection as the request, and
//!   [`PipelinedWaiter`] keeps many correlated requests in flight at once.
//! * **Batching** — a [`Batch`] envelope carries many same-destination
//!   messages as one delivery, which is how Anna's cache pushes amortize
//!   per-message fabric overhead (paper §4).

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "test code may read the wall clock: it times its own waits"
    )
)]

pub mod batch;
pub mod latency;
pub mod region;
pub mod shardmap;
pub mod time;
pub mod transport;

pub use batch::{Batch, Batches};
pub use latency::LatencyModel;
pub use region::{LinkTier, Site, TieredLatency};
pub use shardmap::ShardedReadMap;
pub use time::TimeScale;
pub use transport::{
    reply_channel, Address, Endpoint, Envelope, NetConfig, Network, PipelinedWaiter, RecvError,
    ReplyHandle, ReplyWaiter, SendError,
};
