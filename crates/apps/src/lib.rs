//! Applications and workload generators from the Cloudburst evaluation.
//!
//! * [`workloads`] — Zipf samplers and random DAG generation (§6.2's 250
//!   random DAGs over a Zipf-1.0 key space; Retwis' Zipf-1.5 social graph).
//! * [`gossip`] — the Kempe et al. gossip-based distributed aggregation
//!   protocol and the centralized "gather" workaround (§6.1.3, Figure 6).
//! * [`prediction`] — the three-stage MobileNet-style prediction-serving
//!   pipeline (§6.3.1, Figures 9 & 10).
//! * [`retwis`] — the Retwis Twitter clone with causal-anomaly detection
//!   (§6.3.2, Figures 11 & 12).

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "test code may read the wall clock: it times its own waits"
    )
)]

pub mod gossip;
pub mod prediction;
pub mod retwis;
pub mod workloads;

pub use gossip::{
    run_gather_cloudburst, run_gather_storage, run_gossip, GossipConfig, GossipResult,
};
pub use prediction::PredictionPipeline;
pub use retwis::{Retwis, RetwisConfig, TimelineResult};
pub use workloads::{random_linear_dags, ZipfSampler};
