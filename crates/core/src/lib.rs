//! **Cloudburst**: a stateful Functions-as-a-Service runtime — a Rust
//! reproduction of *"Cloudburst: Stateful Functions-as-a-Service"*
//! (Sreekanti et al., PVLDB 13(11), 2020).
//!
//! Cloudburst implements **logical disaggregation with physical colocation
//! (LDPC)**: compute (function executors) and storage (the Anna KVS)
//! autoscale independently, while a mutable cache co-located with the
//! executors on every VM gives functions low-latency access to shared state.
//! On top of this architecture it provides **distributed session
//! consistency** — repeatable read and causal consistency guarantees that
//! hold across the multiple machines a composition of functions runs on.
//!
//! # Quick start
//!
//! ```
//! use cloudburst::cluster::{CloudburstCluster, CloudburstConfig};
//! use cloudburst::codec;
//! use cloudburst::dag::DagSpec;
//! use cloudburst::types::Arg;
//! use std::collections::HashMap;
//!
//! let cluster = CloudburstCluster::launch(CloudburstConfig::instant());
//! let client = cluster.client();
//!
//! client
//!     .register_function("increment", |_rt, args| {
//!         let x = codec::decode_i64(&args[0]).ok_or("bad arg")?;
//!         Ok(codec::encode_i64(x + 1))
//!     })
//!     .unwrap();
//! client
//!     .register_function("square", |_rt, args| {
//!         let x = codec::decode_i64(&args[0]).ok_or("bad arg")?;
//!         Ok(codec::encode_i64(x * x))
//!     })
//!     .unwrap();
//!
//! // square(increment(4)) == 25, composed as a registered DAG.
//! client
//!     .register_dag(DagSpec::linear("pipeline", &["increment", "square"]))
//!     .unwrap();
//! let result = client
//!     .call_dag("pipeline", HashMap::from([(0, vec![Arg::value(codec::encode_i64(4))])]))
//!     .unwrap();
//! assert_eq!(codec::decode_i64(&result.unwrap()), Some(25));
//! ```
//!
//! # Crate map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`types`] | §3, §5 | IDs, args, consistency levels |
//! | [`function`] | §3 | function registry + the `Runtime` API (Table 1) |
//! | [`dag`] | §3 | DAG registration and validation |
//! | [`cache`] | §4.2, §5.3 | co-located caches, Algorithms 1 & 2 |
//! | [`executor`] | §4.1 | executor threads, DAG triggering, messaging |
//! | [`scheduler`] | §4.3 | locality/load scheduling, DAG re-execution |
//! | [`monitor`] | §4.4 | metrics aggregation + autoscaling policy |
//! | [`cluster`] | §4 | whole-system assembly |
//! | [`client`] | §3 | user-facing API incl. `CloudburstFuture` |
//! | [`consistency`] | §5, §6.2 | session metadata, anomaly detection |

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "test code may read the wall clock: it times its own waits"
    )
)]

pub mod cache;
pub mod client;
pub mod cluster;
pub mod codec;
pub mod consistency;
pub mod dag;
pub mod executor;
pub mod function;
pub mod monitor;
pub mod scheduler;
pub mod topology;
pub mod types;

pub use cache::{CacheConfig, VmCache};
pub use client::{ClientError, CloudburstClient, CloudburstFuture};
pub use cluster::{CloudburstCluster, CloudburstConfig};
pub use consistency::{AnomalyCounts, SessionMeta, TraceEvent, TraceSink};
pub use dag::{DagError, DagSpec};
pub use executor::ExecutorConfig;
pub use function::{FunctionRegistry, Runtime};
pub use monitor::{MonitorConfig, ScaleSample};
pub use scheduler::SchedulerConfig;
pub use types::{Arg, ConsistencyLevel, InvocationResult};
