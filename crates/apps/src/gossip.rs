//! Distributed aggregation (§6.1.3, Figure 6): the gossip-based push-sum
//! protocol of Kempe et al. running on Cloudburst's direct communication
//! API, and the centralized "gather" workaround used on systems that forbid
//! direct communication.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cloudburst::cluster::CloudburstCluster;
use cloudburst::codec;
use cloudburst::executor::ExecutorRequest;
use cloudburst::types::{Arg, InvocationResult};
use cloudburst_baselines::SimStorage;
use cloudburst_lattice::Key;
use cloudburst_net::reply_channel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for one aggregation run.
#[derive(Debug, Clone, Copy)]
pub struct GossipConfig {
    /// Number of participating actors (the paper uses 10).
    pub actors: usize,
    /// Push-sum rounds per actor (push-sum converges exponentially; ~30
    /// rounds reach well under 5 % error for 10 actors).
    pub rounds: usize,
    /// Distinguishes concurrent runs' KVS keys.
    pub run_id: u64,
    /// Per-round wait for incoming shares, in paper milliseconds.
    pub round_wait_ms: f64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self {
            actors: 10,
            rounds: 30,
            run_id: 0,
            round_wait_ms: 2.0,
        }
    }
}

/// Outcome of one aggregation run.
#[derive(Debug, Clone)]
pub struct GossipResult {
    /// Wall-clock duration of the whole protocol.
    pub elapsed: Duration,
    /// Each actor's final estimate of the mean.
    pub estimates: Vec<f64>,
    /// The true mean of the inputs.
    pub true_mean: f64,
}

impl GossipResult {
    /// Whether every estimate is within `tolerance` (e.g. 0.05 for the
    /// paper's 5 %) of the true mean.
    pub fn converged(&self, tolerance: f64) -> bool {
        self.estimates
            .iter()
            .all(|&e| (e - self.true_mean).abs() <= tolerance * self.true_mean.abs().max(1e-12))
    }
}

/// Register the gossip actor function on a Cloudburst client.
pub fn register_gossip(
    client: &cloudburst::CloudburstClient,
) -> Result<(), cloudburst::ClientError> {
    client.register_function("gossip_actor", |rt, args| {
        // args: run_id, index, n, value, rounds, round_wait_ms
        let run_id = codec::decode_i64(&args[0]).ok_or("bad run id")?;
        let index = codec::decode_i64(&args[1]).ok_or("bad index")? as usize;
        let n = codec::decode_i64(&args[2]).ok_or("bad n")? as usize;
        let value = codec::decode_f64(&args[3]).ok_or("bad value")?;
        let rounds = codec::decode_i64(&args[4]).ok_or("bad rounds")? as usize;
        let round_wait_ms = codec::decode_f64(&args[5]).ok_or("bad wait")?;

        // Advertise this thread's unique ID at a well-known key, then
        // discover all peers (the §3 rendezvous pattern).
        let my_id = rt.executor_id();
        rt.put(
            &Key::new(format!("gossip/{run_id}/{index}")),
            codec::encode_i64(my_id as i64),
        );
        let mut peers: Vec<u64> = Vec::with_capacity(n);
        for attempt in 0..2_000 {
            peers.clear();
            for j in 0..n {
                if let Some(raw) = rt.get(&Key::new(format!("gossip/{run_id}/{j}"))) {
                    if let Some(id) = codec::decode_i64(&raw) {
                        peers.push(id as u64);
                        continue;
                    }
                }
                break;
            }
            if peers.len() == n {
                break;
            }
            if attempt == 1_999 {
                return Err(format!("actor {index}: peers never all advertised"));
            }
            rt.compute(1.0);
        }

        // Push-sum (Kempe et al. 2003): mass conservation makes x/w converge
        // to the mean at every actor.
        let mut rng = StdRng::seed_from_u64(0x0060_551F ^ (run_id as u64) ^ index as u64);
        let mut x = value;
        let mut w = 1.0f64;
        let apply = |x: &mut f64, w: &mut f64, msgs: Vec<Bytes>| {
            for m in msgs {
                if let Some(pair) = codec::decode_f64_slice(&m) {
                    if pair.len() == 2 {
                        *x += pair[0];
                        *w += pair[1];
                    }
                }
            }
        };
        for _ in 0..rounds {
            // Send half our mass to a random peer (possibly ourselves,
            // which is a no-op share).
            let target = peers[rng.random_range(0..peers.len())];
            if target != my_id {
                let share = codec::encode_f64_slice(&[x / 2.0, w / 2.0]);
                rt.send(target, share);
                x /= 2.0;
                w /= 2.0;
            }
            let incoming = rt.recv_timeout(round_wait_ms);
            apply(&mut x, &mut w, incoming);
        }
        // Settle: collect any shares still in flight so mass is conserved.
        for _ in 0..5 {
            let incoming = rt.recv_timeout(round_wait_ms * 2.0);
            apply(&mut x, &mut w, incoming);
        }
        Ok(codec::encode_f64(x / w))
    })
}

/// Run the gossip protocol on `config.actors` distinct executors.
///
/// Placement note: the paper pre-places its 10 actors on a 12-thread
/// deployment; we likewise address one invocation to each of N distinct
/// executors (through the executor API directly) because the protocol
/// requires all actors to run concurrently.
pub fn run_gossip(
    cluster: &CloudburstCluster,
    values: &[f64],
    config: GossipConfig,
) -> Result<GossipResult, String> {
    let n = config.actors;
    assert_eq!(values.len(), n, "one value per actor");
    let executors = cluster.topology().executors();
    if executors.len() < n {
        return Err(format!("need {n} executors, have {}", executors.len()));
    }
    let net = cluster.network().clone();
    let control = net.register();
    #[expect(
        clippy::disallowed_methods,
        reason = "measured experiment latency is the app's output"
    )]
    let start = Instant::now();
    let mut waiters = Vec::with_capacity(n);
    for (i, value) in values.iter().enumerate() {
        let (_, info) = executors[i];
        let (reply, waiter) = reply_channel::<InvocationResult>(&net);
        let args = vec![
            Arg::value(codec::encode_i64(config.run_id as i64)),
            Arg::value(codec::encode_i64(i as i64)),
            Arg::value(codec::encode_i64(n as i64)),
            Arg::value(codec::encode_f64(*value)),
            Arg::value(codec::encode_i64(config.rounds as i64)),
            Arg::value(codec::encode_f64(config.round_wait_ms)),
        ];
        let args = args
            .into_iter()
            .map(|a| match a {
                Arg::Value(v) => Arg::Value(v),
                r => r,
            })
            .collect();
        control
            .send(
                info.addr,
                ExecutorRequest::InvokeSingle {
                    function: "gossip_actor".into(),
                    args,
                    reply,
                    response_key: None,
                },
            )
            .map_err(|e| e.to_string())?;
        waiters.push(waiter);
    }
    let mut estimates = Vec::with_capacity(n);
    for (i, waiter) in waiters.into_iter().enumerate() {
        let result = waiter
            .wait_timeout(Duration::from_secs(60))
            .map_err(|e| format!("actor {i}: {e}"))?;
        match result {
            InvocationResult::Ok(bytes) => {
                estimates.push(codec::decode_f64(&bytes).ok_or("bad estimate")?);
            }
            InvocationResult::Err(e) => return Err(format!("actor {i}: {e}")),
        }
    }
    let elapsed = start.elapsed();
    let true_mean = values.iter().sum::<f64>() / n as f64;
    Ok(GossipResult {
        elapsed,
        estimates,
        true_mean,
    })
}

/// The centralized "gather" algorithm on Cloudburst: each actor publishes
/// its metric to the KVS, a leader collects and averages. "Unlike
/// \[gossip\], \[it\] requires the population to be fixed in advance, and is
/// therefore not a good fit to an autoscaling setting" (§6.1.3).
pub fn run_gather_cloudburst(
    client: &cloudburst::CloudburstClient,
    values: &[f64],
    run_id: u64,
) -> Result<GossipResult, String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "measured experiment latency is the app's output"
    )]
    let start = Instant::now();
    // Each "actor" publishes (we drive the publications as function calls).
    for (i, v) in values.iter().enumerate() {
        let result = client
            .call_function(
                "gather_publish",
                vec![
                    Arg::value(codec::encode_i64(run_id as i64)),
                    Arg::value(codec::encode_i64(i as i64)),
                    Arg::value(codec::encode_f64(*v)),
                ],
            )
            .map_err(|e| e.to_string())?;
        if !result.is_ok() {
            return Err("publish failed".into());
        }
    }
    let result = client
        .call_function(
            "gather_leader",
            vec![
                Arg::value(codec::encode_i64(run_id as i64)),
                Arg::value(codec::encode_i64(values.len() as i64)),
            ],
        )
        .map_err(|e| e.to_string())?;
    let InvocationResult::Ok(bytes) = result else {
        return Err("leader failed".into());
    };
    let mean = codec::decode_f64(&bytes).ok_or("bad mean")?;
    Ok(GossipResult {
        elapsed: start.elapsed(),
        estimates: vec![mean],
        true_mean: values.iter().sum::<f64>() / values.len() as f64,
    })
}

/// Register the gather functions.
pub fn register_gather(
    client: &cloudburst::CloudburstClient,
) -> Result<(), cloudburst::ClientError> {
    client.register_function("gather_publish", |rt, args| {
        let run_id = codec::decode_i64(&args[0]).ok_or("bad run")?;
        let index = codec::decode_i64(&args[1]).ok_or("bad index")?;
        rt.put(
            &Key::new(format!("gather/{run_id}/{index}")),
            args[2].clone(),
        );
        Ok(Bytes::new())
    })?;
    client.register_function("gather_leader", |rt, args| {
        let run_id = codec::decode_i64(&args[0]).ok_or("bad run")?;
        let n = codec::decode_i64(&args[1]).ok_or("bad n")? as usize;
        let mut sum = 0.0;
        for i in 0..n {
            let key = Key::new(format!("gather/{run_id}/{i}"));
            let mut found = None;
            for _ in 0..2_000 {
                if let Some(raw) = rt.get(&key) {
                    if let Some(v) = codec::decode_f64(&raw) {
                        found = Some(v);
                        break;
                    }
                }
                rt.compute(0.5);
            }
            sum += found.ok_or_else(|| format!("value {i} never published"))?;
        }
        Ok(codec::encode_f64(sum / n as f64))
    })?;
    Ok(())
}

/// The gather algorithm over a simulated storage service (Lambda + Redis /
/// Lambda + DynamoDB / Lambda + S3 in Figure 6): each publish and the final
/// gather are separate Lambda invocations communicating through storage.
pub fn run_gather_storage(
    lambda: &cloudburst_baselines::SimLambda,
    storage: &Arc<SimStorage>,
    values: &[f64],
    run_id: u64,
) -> Result<GossipResult, String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "measured experiment latency is the app's output"
    )]
    let start = Instant::now();
    for (i, v) in values.iter().enumerate() {
        lambda.invoke(
            "publish",
            &[
                codec::encode_i64(run_id as i64),
                codec::encode_i64(i as i64),
                codec::encode_f64(*v),
            ],
        )?;
    }
    let out = lambda.invoke(
        "gather",
        &[
            codec::encode_i64(run_id as i64),
            codec::encode_i64(values.len() as i64),
        ],
    )?;
    let mean = codec::decode_f64(&out).ok_or("bad mean")?;
    let _ = storage;
    Ok(GossipResult {
        elapsed: start.elapsed(),
        estimates: vec![mean],
        true_mean: values.iter().sum::<f64>() / values.len() as f64,
    })
}

/// Deploy the storage-backed gather functions onto a simulated Lambda.
pub fn deploy_gather_lambda(lambda: &cloudburst_baselines::SimLambda, storage: Arc<SimStorage>) {
    let publish_store = Arc::clone(&storage);
    lambda.deploy("publish", move |args| {
        let run_id = codec::decode_i64(&args[0]).unwrap_or(0);
        let index = codec::decode_i64(&args[1]).unwrap_or(0);
        publish_store.put(format!("gather/{run_id}/{index}"), args[2].clone());
        Bytes::new()
    });
    lambda.deploy("gather", move |args| {
        let run_id = codec::decode_i64(&args[0]).unwrap_or(0);
        let n = codec::decode_i64(&args[1]).unwrap_or(0) as usize;
        let mut sum = 0.0;
        for i in 0..n {
            if let Some(raw) = storage.get(&format!("gather/{run_id}/{i}")) {
                sum += codec::decode_f64(&raw).unwrap_or(0.0);
            }
        }
        codec::encode_f64(sum / n.max(1) as f64)
    });
}
