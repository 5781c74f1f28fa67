//! Simulated commercial baselines for the Cloudburst evaluation (§6).
//!
//! The paper compares Cloudburst against AWS Lambda (direct, +S3,
//! +DynamoDB), AWS Step Functions, SAND, Dask, AWS ElastiCache (Redis), AWS
//! SageMaker, and native Python. None of those services can run here, so
//! each is re-implemented as a *functional* in-memory service whose wire
//! latencies are constants calibrated to the paper's own measurements
//! ([`calibration`]). The services execute real requests against real state;
//! only the network/service latency distributions are injected — so the
//! *structural* effects the paper measures (extra round trips, serialization
//! points, storage hops) arise from the same causes. See DESIGN.md §2.

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "test code may read the wall clock: it times its own waits"
    )
)]

pub mod calibration;
pub mod faas;
pub mod serverful;
pub mod storage;

pub use faas::{SimLambda, SimStepFunctions};
pub use serverful::{NativePython, SimDask, SimSageMaker, SimSand};
pub use storage::SimStorage;

use bytes::Bytes;
use std::sync::Arc;

/// A baseline "function": opaque bytes in, opaque bytes out. Closures model
/// their compute cost by sleeping scaled paper-milliseconds through a
/// captured [`cloudburst_net::Network`].
pub type BaselineFn = Arc<dyn Fn(&[Bytes]) -> Bytes + Send + Sync>;
