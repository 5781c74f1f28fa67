//! Serverful / specialized comparators: Dask, SAND, SageMaker, and native
//! Python.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use cloudburst_net::{LatencyModel, Network};
use parking_lot::RwLock;

use crate::calibration;
use crate::BaselineFn;

/// A generic low-overhead task runner parameterized by a per-task overhead
/// model. Shared implementation for the serverful baselines.
pub struct TaskRunner {
    net: Network,
    // lock-rank: 33 bl-serverful-functions
    functions: RwLock<HashMap<String, BaselineFn>>,
    overhead: LatencyModel,
    name: &'static str,
}

impl TaskRunner {
    fn new(net: &Network, overhead: LatencyModel, name: &'static str) -> Arc<Self> {
        Arc::new(Self {
            net: net.clone(),
            functions: RwLock::ranked(33, "bl-serverful-functions", HashMap::new()),
            overhead,
            name,
        })
    }

    /// Register a task.
    pub fn deploy(
        &self,
        name: impl Into<String>,
        body: impl Fn(&[Bytes]) -> Bytes + Send + Sync + 'static,
    ) {
        self.functions.write().insert(name.into(), Arc::new(body));
    }

    /// Run one task, paying the per-task overhead.
    pub fn invoke(&self, name: &str, args: &[Bytes]) -> Result<Bytes, String> {
        let body = self
            .functions
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| format!("{} task {name:?} not deployed", self.name))?;
        let overhead = self.net.sample(self.overhead);
        if !overhead.is_zero() {
            std::thread::sleep(overhead);
        }
        Ok(body(args))
    }

    /// Run a chain of tasks *inside* the system (no client round trips
    /// between stages — the serverful advantage).
    pub fn chain(&self, names: &[&str], input: Bytes) -> Result<Bytes, String> {
        let mut value = input;
        for name in names {
            value = self.invoke(name, &[value])?;
        }
        Ok(value)
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }
}

impl std::fmt::Debug for TaskRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskRunner")
            .field("name", &self.name)
            .finish()
    }
}

/// Dask: a "serverful" open-source distributed Python execution framework
/// whose composition overhead the paper found comparable to Cloudburst's
/// (§6.1.1).
pub struct SimDask;

#[allow(clippy::new_ret_no_self)]
impl SimDask {
    /// A Dask deployment.
    pub fn new(net: &Network) -> Arc<TaskRunner> {
        TaskRunner::new(net, calibration::DASK_INVOKE, "dask")
    }
}

/// SAND: a research FaaS that speeds up compositions with a hierarchical
/// message bus — still "about an order of magnitude slower than Cloudburst"
/// (§6.1.1).
pub struct SimSand;

#[allow(clippy::new_ret_no_self)]
impl SimSand {
    /// A SAND deployment.
    pub fn new(net: &Network) -> Arc<TaskRunner> {
        TaskRunner::new(net, calibration::SAND_INVOKE, "sand")
    }
}

/// AWS SageMaker: a purpose-built, fully managed prediction-serving endpoint
/// (§6.3.1) — one big per-request overhead covering the managed HTTPS
/// endpoint and the user-provided web server.
pub struct SimSageMaker;

#[allow(clippy::new_ret_no_self)]
impl SimSageMaker {
    /// A SageMaker endpoint.
    pub fn new(net: &Network) -> Arc<TaskRunner> {
        TaskRunner::new(net, calibration::SAGEMAKER_OVERHEAD, "sagemaker")
    }
}

/// Native Python: the same pipeline run inline in one process — zero
/// orchestration overhead; the floor every system is compared against.
pub struct NativePython;

#[allow(clippy::new_ret_no_self)]
impl NativePython {
    /// A native single-process runner.
    pub fn new(net: &Network) -> Arc<TaskRunner> {
        TaskRunner::new(net, LatencyModel::Zero, "python")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_net::{NetConfig, TimeScale};
    use std::time::Instant;

    fn net() -> Network {
        Network::new(NetConfig {
            time_scale: TimeScale::new(0.01),
            default_latency: LatencyModel::Zero,
            seed: 2,
            ..NetConfig::default()
        })
    }

    #[test]
    fn all_runners_execute_chains() {
        let net = net();
        for runner in [
            SimDask::new(&net),
            SimSand::new(&net),
            SimSageMaker::new(&net),
            NativePython::new(&net),
        ] {
            runner.deploy("echo", |args| args[0].clone());
            runner.deploy("upper", |args| Bytes::from(args[0].to_ascii_uppercase()));
            let out = runner
                .chain(&["echo", "upper"], Bytes::from_static(b"hi"))
                .unwrap();
            assert_eq!(out.as_ref(), b"HI");
            assert!(runner.invoke("ghost", &[]).is_err());
        }
    }

    #[test]
    fn relative_overheads_hold() {
        let net = net();
        let dask = SimDask::new(&net);
        let sand = SimSand::new(&net);
        let python = NativePython::new(&net);
        for r in [&dask, &sand, &python] {
            r.deploy("nop", |_| Bytes::new());
        }
        let time = |r: &Arc<TaskRunner>| {
            let t = Instant::now();
            for _ in 0..50 {
                r.invoke("nop", &[]).unwrap();
            }
            t.elapsed()
        };
        let (t_python, t_dask, t_sand) = (time(&python), time(&dask), time(&sand));
        assert!(t_python < t_dask, "python {t_python:?} !< dask {t_dask:?}");
        assert!(t_dask < t_sand, "dask {t_dask:?} !< sand {t_sand:?}");
    }
}
