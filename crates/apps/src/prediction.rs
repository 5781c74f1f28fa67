//! Prediction serving (§6.3.1, Figures 9 & 10): a three-stage pipeline —
//! resize the input image, execute a MobileNet-style model, combine features
//! into a prediction — deployed on Cloudburst and on the comparison systems.
//!
//! The TensorFlow model is substituted by a deterministic compute kernel
//! whose cost matches the paper's native-Python pipeline (≈210 ms median),
//! with the model weights stored as a large Anna object fetched by KVS
//! reference (which is exactly the data-movement path the experiment
//! measures). See DESIGN.md §2.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cloudburst::codec;
use cloudburst::dag::DagSpec;
use cloudburst::types::{Arg, InvocationResult};
use cloudburst_baselines::serverful::TaskRunner;
use cloudburst_baselines::{calibration, SimLambda, SimStorage};
use cloudburst_lattice::Key;
use cloudburst_net::Network;

/// Stage compute costs in paper milliseconds. Native total ≈ 210 ms, the
/// paper's measured Python median.
pub const RESIZE_MS: f64 = 25.0;
/// Model-execution stage cost.
pub const MODEL_MS: f64 = 175.0;
/// Feature-combination stage cost.
pub const COMBINE_MS: f64 = 10.0;

/// The three-stage pipeline.
#[derive(Debug, Clone)]
pub struct PredictionPipeline {
    /// Key the model weights are stored under.
    pub model_key: Key,
    /// Model weight blob size in bytes.
    pub model_bytes: usize,
}

impl PredictionPipeline {
    /// A pipeline whose weights live at `model_key`.
    pub fn new(model_key: impl Into<Key>, model_bytes: usize) -> Self {
        Self {
            model_key: model_key.into(),
            model_bytes,
        }
    }

    /// Store the (synthetic) model weights in the KVS.
    pub fn seed_model(
        &self,
        client: &cloudburst::CloudburstClient,
    ) -> Result<(), cloudburst::ClientError> {
        client.put(self.model_key.clone(), vec![7u8; self.model_bytes])
    }

    /// Register the three stages and the `prediction` DAG on Cloudburst.
    /// Porting effort mirrors the paper: the only addition over native
    /// Python is retrieving the model from Anna (4 LOC there, one `get`
    /// here).
    pub fn register(
        &self,
        client: &cloudburst::CloudburstClient,
    ) -> Result<(), cloudburst::ClientError> {
        let model_key = self.model_key.clone();
        client.register_function("resize", |rt, args| {
            rt.compute(RESIZE_MS);
            // "Resized" image: passthrough payload.
            Ok(args[0].clone())
        })?;
        client.register_function("model", move |rt, args| {
            // Retrieve the model from Anna (cached after first use).
            let weights = rt.get(&model_key).ok_or("model weights missing")?;
            rt.compute(MODEL_MS);
            // Feature vector derived from image + weights sizes.
            let feature = (args[0].len() + weights.len()) as i64;
            Ok(codec::encode_i64(feature))
        })?;
        client.register_function("combine", |rt, args| {
            rt.compute(COMBINE_MS);
            let feature = codec::decode_i64(&args[0]).ok_or("bad feature")?;
            Ok(codec::encode_str(&format!("class-{}", feature % 1000)))
        })?;
        client.register_dag(DagSpec::linear(
            "prediction",
            &["resize", "model", "combine"],
        ))?;
        Ok(())
    }

    /// Serve one prediction through Cloudburst; returns (latency, label).
    pub fn call(
        &self,
        client: &cloudburst::CloudburstClient,
        image: Bytes,
    ) -> Result<(Duration, String), String> {
        // lint: allow(L003): returned Duration is the measured serving latency, the app's output
        let start = Instant::now();
        let result = client
            .call_dag("prediction", HashMap::from([(0, vec![Arg::value(image)])]))
            .map_err(|e| e.to_string())?;
        let elapsed = start.elapsed();
        match result {
            InvocationResult::Ok(bytes) => {
                Ok((elapsed, codec::decode_str(&bytes).ok_or("bad label")?))
            }
            InvocationResult::Err(e) => Err(e),
        }
    }

    /// Deploy the pipeline on a serverful [`TaskRunner`] (native Python,
    /// SageMaker, Dask): weights held in process, stages chained internally.
    pub fn deploy_runner(&self, runner: &Arc<TaskRunner>) {
        let net = runner.network().clone();
        let weights_len = self.model_bytes;
        runner.deploy("resize", {
            let net = net.clone();
            move |args: &[Bytes]| {
                net.sleep_paper_ms(RESIZE_MS);
                args[0].clone()
            }
        });
        runner.deploy("model", {
            let net = net.clone();
            move |args: &[Bytes]| {
                net.sleep_paper_ms(MODEL_MS);
                codec::encode_i64((args[0].len() + weights_len) as i64)
            }
        });
        runner.deploy("combine", move |args: &[Bytes]| {
            net.sleep_paper_ms(COMBINE_MS);
            let feature = codec::decode_i64(&args[0]).unwrap_or(0);
            codec::encode_str(&format!("class-{}", feature % 1000))
        });
    }

    /// Serve one prediction through a serverful runner.
    pub fn call_runner(&self, runner: &Arc<TaskRunner>, image: Bytes) -> Result<Duration, String> {
        // lint: allow(L003): returned Duration is the measured serving latency, the app's output
        let start = Instant::now();
        runner.chain(&["resize", "model", "combine"], image)?;
        Ok(start.elapsed())
    }

    /// Deploy the pipeline on simulated Lambda. `actual` mode pays the
    /// result-passing penalty between stages and fetches weights from S3 on
    /// every model invocation (no caches, 512 MB container limit → no
    /// resident weights); mock mode isolates pure invocation overhead by
    /// removing all data movement (§6.3.1).
    pub fn deploy_lambda(&self, lambda: &Arc<SimLambda>, s3: Option<Arc<SimStorage>>) {
        let net: Network = lambda.network().clone();
        if let Some(s3) = &s3 {
            s3.put(
                self.model_key.as_str(),
                Bytes::from(vec![7u8; self.model_bytes]),
            );
        }
        lambda.deploy("resize", {
            let net = net.clone();
            move |args: &[Bytes]| {
                net.sleep_paper_ms(RESIZE_MS);
                args[0].clone()
            }
        });
        let model_key = self.model_key.clone();
        let weights_len = self.model_bytes;
        lambda.deploy("model", {
            let net = net.clone();
            move |args: &[Bytes]| {
                let fetched_len = match &s3 {
                    Some(s3) => s3.get(model_key.as_str()).map_or(0, |w| w.len()),
                    None => weights_len, // mock: weights assumed resident
                };
                net.sleep_paper_ms(MODEL_MS);
                codec::encode_i64((args[0].len() + fetched_len) as i64)
            }
        });
        lambda.deploy("combine", move |args: &[Bytes]| {
            net.sleep_paper_ms(COMBINE_MS);
            let feature = codec::decode_i64(&args[0]).unwrap_or(0);
            codec::encode_str(&format!("class-{}", feature % 1000))
        });
    }

    /// Serve one prediction through Lambda. With `result_passing`, each
    /// inter-stage hop pays the Lambda runtime's result-passing penalty
    /// (the Lambda-Actual configuration).
    pub fn call_lambda(
        &self,
        lambda: &Arc<SimLambda>,
        image: Bytes,
        result_passing: bool,
    ) -> Result<Duration, String> {
        // lint: allow(L003): returned Duration is the measured serving latency, the app's output
        let start = Instant::now();
        let net = lambda.network().clone();
        let mut value = image;
        for (i, stage) in ["resize", "model", "combine"].iter().enumerate() {
            if result_passing && i > 0 {
                let pause = net.sample(calibration::LAMBDA_RESULT_PASS);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            value = lambda.invoke(stage, &[value])?;
        }
        Ok(start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_baselines::NativePython;
    use cloudburst_net::{LatencyModel, NetConfig, TimeScale};

    fn fast_net() -> Network {
        Network::new(NetConfig {
            time_scale: TimeScale::new(0.001),
            default_latency: LatencyModel::Zero,
            seed: 9,
            ..NetConfig::default()
        })
    }

    #[test]
    fn native_pipeline_produces_label() {
        let net = fast_net();
        let pipeline = PredictionPipeline::new("model/v1", 1024);
        let python = NativePython::new(&net);
        pipeline.deploy_runner(&python);
        let out = python
            .chain(&["resize", "model", "combine"], Bytes::from(vec![0u8; 64]))
            .unwrap();
        let label = codec::decode_str(&out).unwrap();
        assert!(label.starts_with("class-"), "{label}");
    }

    #[test]
    fn lambda_actual_slower_than_mock() {
        let net = Network::new(NetConfig {
            time_scale: TimeScale::new(0.01),
            default_latency: LatencyModel::Zero,
            seed: 10,
            ..NetConfig::default()
        });
        let pipeline = PredictionPipeline::new("model/v1", 1 << 20);
        let mock = SimLambda::new(&net);
        pipeline.deploy_lambda(&mock, None);
        let actual = SimLambda::new(&net);
        pipeline.deploy_lambda(&actual, Some(SimStorage::s3(&net)));
        let image = Bytes::from(vec![0u8; 4096]);
        let mock_t: Duration = (0..5)
            .map(|_| pipeline.call_lambda(&mock, image.clone(), false).unwrap())
            .sum();
        let actual_t: Duration = (0..5)
            .map(|_| pipeline.call_lambda(&actual, image.clone(), true).unwrap())
            .sum();
        assert!(
            actual_t > mock_t.mul_f64(1.5),
            "actual {actual_t:?} must be well above mock {mock_t:?}"
        );
    }
}
