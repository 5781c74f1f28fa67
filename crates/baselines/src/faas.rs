//! [`SimLambda`] and [`SimStepFunctions`]: simulated AWS FaaS offerings.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use cloudburst_net::{LatencyModel, Network};
use parking_lot::RwLock;

use crate::calibration;
use crate::BaselineFn;

/// Simulated AWS Lambda: functions behind an invocation API that charges the
/// paper-calibrated per-invocation overhead. Functions are isolated — no
/// inbound connections, so composition happens by the *client* chaining
/// calls (Lambda Direct) or through storage services.
pub struct SimLambda {
    net: Network,
    // lock-rank: 32 bl-faas-functions
    functions: RwLock<HashMap<String, BaselineFn>>,
    invoke_overhead: LatencyModel,
}

impl SimLambda {
    /// A Lambda deployment with the calibrated invocation overhead.
    pub fn new(net: &Network) -> Arc<Self> {
        Self::with_overhead(net, calibration::LAMBDA_INVOKE)
    }

    /// A Lambda deployment with an explicit overhead model (used by the
    /// Lambda-Mock configuration of §6.3.1 and by tests).
    pub fn with_overhead(net: &Network, invoke_overhead: LatencyModel) -> Arc<Self> {
        Arc::new(Self {
            net: net.clone(),
            functions: RwLock::ranked(32, "bl-faas-functions", HashMap::new()),
            invoke_overhead,
        })
    }

    /// Deploy a function.
    pub fn deploy(
        &self,
        name: impl Into<String>,
        body: impl Fn(&[Bytes]) -> Bytes + Send + Sync + 'static,
    ) {
        self.functions.write().insert(name.into(), Arc::new(body));
    }

    /// Invoke a function synchronously, paying the invocation overhead.
    pub fn invoke(&self, name: &str, args: &[Bytes]) -> Result<Bytes, String> {
        let body = self
            .functions
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| format!("lambda {name:?} not deployed"))?;
        let overhead = self.net.sample(self.invoke_overhead);
        if !overhead.is_zero() {
            std::thread::sleep(overhead);
        }
        Ok(body(args))
    }

    /// Client-side composition `fN(…f2(f1(x)))`: each stage is a separate
    /// invocation round trip — "argument- and result-passing is a form of
    /// cross-function communication and exhibits the high latency of current
    /// serverless offerings" (§1).
    pub fn chain(&self, names: &[&str], input: Bytes) -> Result<Bytes, String> {
        let mut value = input;
        for name in names {
            value = self.invoke(name, &[value])?;
        }
        Ok(value)
    }

    /// The underlying network (for compute-cost modelling in closures).
    pub fn network(&self) -> &Network {
        &self.net
    }
}

impl std::fmt::Debug for SimLambda {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimLambda")
            .field("functions", &self.functions.read().len())
            .finish()
    }
}

/// Simulated AWS Step Functions: chains Lambda invocations server-side but
/// pays a large per-state-transition orchestration overhead (§6.1.1 measures
/// it at 10× Lambda).
pub struct SimStepFunctions {
    lambda: Arc<SimLambda>,
    transition: LatencyModel,
}

impl SimStepFunctions {
    /// Wrap a Lambda deployment in a Step Functions state machine runner.
    pub fn new(lambda: Arc<SimLambda>) -> Self {
        Self {
            lambda,
            transition: calibration::STEP_FUNCTION_TRANSITION,
        }
    }

    /// Execute a linear state machine.
    pub fn execute(&self, states: &[&str], input: Bytes) -> Result<Bytes, String> {
        let mut value = input;
        for state in states {
            let pause = self.lambda.net.sample(self.transition);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            value = self.lambda.invoke(state, &[value])?;
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_net::{NetConfig, TimeScale};
    use std::time::Instant;

    fn net(scale: f64) -> Network {
        Network::new(NetConfig {
            time_scale: TimeScale::new(scale),
            default_latency: LatencyModel::Zero,
            seed: 1,
            ..NetConfig::default()
        })
    }

    fn deploy_arith(lambda: &SimLambda) {
        lambda.deploy("inc", |args| {
            let x = i64::from_le_bytes(args[0].as_ref().try_into().unwrap());
            Bytes::copy_from_slice(&(x + 1).to_le_bytes())
        });
        lambda.deploy("sq", |args| {
            let x = i64::from_le_bytes(args[0].as_ref().try_into().unwrap());
            Bytes::copy_from_slice(&(x * x).to_le_bytes())
        });
    }

    #[test]
    fn invoke_and_chain() {
        let net = net(0.001);
        let lambda = SimLambda::new(&net);
        deploy_arith(&lambda);
        let out = lambda
            .chain(&["inc", "sq"], Bytes::copy_from_slice(&4i64.to_le_bytes()))
            .unwrap();
        assert_eq!(i64::from_le_bytes(out.as_ref().try_into().unwrap()), 25);
    }

    #[test]
    fn missing_function_errors() {
        let net = net(0.001);
        let lambda = SimLambda::new(&net);
        assert!(lambda.invoke("ghost", &[]).is_err());
    }

    #[test]
    fn chaining_overhead_compounds() {
        let net = net(0.01);
        let lambda = SimLambda::new(&net);
        deploy_arith(&lambda);
        let input = Bytes::copy_from_slice(&1i64.to_le_bytes());
        let t = Instant::now();
        for _ in 0..20 {
            lambda.invoke("inc", std::slice::from_ref(&input)).unwrap();
        }
        let single = t.elapsed();
        let t = Instant::now();
        for _ in 0..20 {
            lambda.chain(&["inc", "sq"], input.clone()).unwrap();
        }
        let chained = t.elapsed();
        assert!(
            chained > single.mul_f64(1.4),
            "two invocations ({chained:?}) must compound over one ({single:?})"
        );
    }

    #[test]
    fn step_functions_slower_than_lambda() {
        let net = net(0.01);
        let lambda = SimLambda::new(&net);
        deploy_arith(&lambda);
        let sfn = SimStepFunctions::new(Arc::clone(&lambda));
        let input = Bytes::copy_from_slice(&2i64.to_le_bytes());
        let t = Instant::now();
        for _ in 0..10 {
            lambda.chain(&["inc", "sq"], input.clone()).unwrap();
        }
        let direct = t.elapsed();
        let t = Instant::now();
        for _ in 0..10 {
            let out = sfn.execute(&["inc", "sq"], input.clone()).unwrap();
            assert_eq!(i64::from_le_bytes(out.as_ref().try_into().unwrap()), 9);
        }
        let stepped = t.elapsed();
        assert!(
            stepped > direct.mul_f64(2.0),
            "Step Functions ({stepped:?}) must be far slower than direct ({direct:?})"
        );
    }
}
