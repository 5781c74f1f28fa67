//! `retwis_causal`: the Retwis port of `cloudburst-apps` exactly as in
//! Figure 11 — 1000 users, 50 follows, 5000 seeded tweets, Zipf-1.5 users,
//! 90 % `retwis_timeline` / 10 % `retwis_post` (half of them replies) under
//! distributed session causal consistency, Anna replication 2, zero-model.
//!
//! The VM caches are capped at 4096 entries — about half of the ~8000-key
//! (and growing) working set — so LRU eviction and fills from Anna stay live
//! for the whole run.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudburst::cluster::{CloudburstCluster, CloudburstConfig};
use cloudburst::codec;
use cloudburst::types::{Arg, ConsistencyLevel, InvocationResult};
use cloudburst::CloudburstClient;
use cloudburst_apps::{Retwis, RetwisConfig, ZipfSampler};

use super::{drive_dag, trace_id, Counters, Pass, OP_TIMEOUT};
use crate::configs;
use crate::gen::{client_seed, input_digest, OpGen, RetwisGen, RetwisOp};
use crate::load::{summarize_slices, ClientLoop, OpClass, Outcome, CLIENTS};
use crate::procstat::now_ns;
use crate::trace::{self, Span, ROOT_CALL, ROOT_WRITE};

/// Acked posts per client re-read through `client.get` after the run.
const READ_BACK: usize = 100;
const WARM_CALLS: usize = 1500;
/// The warm-up's own request stream (the same on every set-up).
const WARM_SEED: u64 = 0x57A9;

pub fn config(seed: u64) -> CloudburstConfig {
    let mut config = configs::zero_model(ConsistencyLevel::DistributedSessionCausal, seed);
    config.anna.replication = 2;
    config.cache.max_entries = 4096;
    config
}

/// The dataset — follow graph and seeded tweets — is part of the workload's
/// definition: it is the same for every `--seed`, which drives the request
/// stream only. (A timeline's cost depends on whom its user follows, and the
/// Zipf-1.5 mix sends ~40 % of the requests to one user: a graph re-drawn
/// per seed would make each seed a different workload.)
fn app_config() -> RetwisConfig {
    RetwisConfig::default()
}

struct Client {
    index: usize,
    round: usize,
    client: CloudburstClient,
    gen: RetwisGen,
    seeded: Arc<Vec<String>>,
    traced: bool,
    calls: u64,
    /// The most recent acked posts' tweet ids.
    acked: VecDeque<String>,
    anomalous_timelines: u64,
}

impl Client {
    fn run(&mut self, op: RetwisOp) -> Outcome {
        self.calls += 1;
        let trace = self
            .traced
            .then(|| trace_id(self.index, self.round, self.calls));
        let (class, function, mut args, tweet_id) = match op {
            RetwisOp::Timeline { user } => (
                OpClass::Call,
                "retwis_timeline",
                vec![Arg::value(codec::encode_i64(user as i64))],
                None,
            ),
            RetwisOp::Post { user, reply_to } => {
                let id = format!("b{}-{}-{}", self.index, self.round, self.calls);
                let reply = reply_to.map_or("", |i| self.seeded[i].as_str());
                (
                    OpClass::Write,
                    "retwis_post",
                    vec![
                        Arg::value(codec::encode_i64(user as i64)),
                        Arg::value(codec::encode_str(&id)),
                        Arg::value(codec::encode_str("benchmark tweet")),
                        Arg::value(codec::encode_str(reply)),
                    ],
                    Some(id),
                )
            }
        };
        if let Some(id) = trace {
            args.push(Arg::value(trace::trace_arg(id)));
        }
        let start_ns = now_ns();
        let result = self.client.call_function(function, args);
        if let Some(id) = trace {
            trace::record(Span {
                trace_id: id,
                span_id: id,
                parent_id: 0,
                name: if class == OpClass::Call {
                    ROOT_CALL
                } else {
                    ROOT_WRITE
                },
                start_ns,
                end_ns: now_ns(),
            });
        }
        let ok = match (result, tweet_id) {
            (Ok(InvocationResult::Ok(bytes)), None) => {
                // [tweets rendered, anomalies]: a malformed reply is a failure,
                // an anomaly is a recorded observation.
                match codec::decode_f64_slice(&bytes).as_deref() {
                    Some([_tweets, anomalies]) => {
                        if *anomalies > 0.0 {
                            self.anomalous_timelines += 1;
                        }
                        true
                    }
                    _ => false,
                }
            }
            (Ok(InvocationResult::Ok(bytes)), Some(id)) => {
                let echoed = codec::decode_str(&bytes).as_deref() == Some(id.as_str());
                if echoed {
                    if self.acked.len() == READ_BACK {
                        self.acked.pop_front();
                    }
                    self.acked.push_back(id);
                }
                echoed
            }
            _ => false,
        };
        Outcome { class, ok }
    }
}

impl ClientLoop for Client {
    fn step(&mut self) -> Outcome {
        let op = self.gen.next_op();
        self.run(op)
    }
}

struct Deployment {
    cluster: CloudburstCluster,
    seeded: Arc<Vec<String>>,
    users: Arc<ZipfSampler>,
}

impl Deployment {
    fn client(&self, index: usize, round: usize, gen: RetwisGen, traced: bool) -> Client {
        Client {
            index,
            round,
            client: self.cluster.client().with_timeout(OP_TIMEOUT),
            gen,
            seeded: Arc::clone(&self.seeded),
            traced,
            calls: 0,
            acked: VecDeque::with_capacity(READ_BACK),
            anomalous_timelines: 0,
        }
    }
}

/// Launch, register the six functions, seed graph and tweets, and warm the
/// caches with the workload's own mix.
fn setup(seed: u64, traced: bool) -> Deployment {
    let cluster = CloudburstCluster::launch(config(seed));
    let control = cluster.client().with_timeout(OP_TIMEOUT);
    Retwis::register(&control).expect("register retwis functions");
    if traced {
        let registry = cluster.registry();
        for name in registry.names() {
            let body = registry.get(&name).expect("listed function");
            let name: &'static str = Box::leak(name.into_boxed_str());
            registry.register(name, trace::wrap_body(name, body));
        }
    }
    let app = Retwis::new(app_config());
    let seeded = Arc::new(app.seed(&control).expect("seed retwis"));
    let users = Arc::new(ZipfSampler::new(app.config().users, app.config().zipf));
    let deployment = Deployment {
        cluster,
        seeded,
        users,
    };
    let warm_gen = RetwisGen::new(
        WARM_SEED,
        Arc::clone(&deployment.users),
        deployment.seeded.len(),
    );
    let mut warm = deployment.client(CLIENTS, 0, warm_gen, false);
    for i in 0..WARM_CALLS {
        let op = warm.gen.next_op();
        assert!(warm.run(op).ok, "warm-up operation {i} failed");
    }
    deployment
}

pub fn run(seed: u64, slice: Duration, rounds: usize, traced: bool) -> Pass {
    let app = app_config();
    let users = Arc::new(ZipfSampler::new(app.users, app.zipf));
    let mut gens: Vec<RetwisGen> = (0..CLIENTS)
        .map(|i| RetwisGen::new(client_seed(seed, i), Arc::clone(&users), app.initial_tweets))
        .collect();
    let digest = input_digest(&gens);

    let mut setup_s = Vec::with_capacity(rounds);
    let mut slices = Vec::with_capacity(rounds);
    let mut counters = Counters::default();
    let (mut checks, mut checks_failed) = (0u64, 0u64);
    for round in 0..rounds {
        let start = Instant::now();
        let deployment = setup(seed, traced);
        setup_s.push(start.elapsed().as_secs_f64());
        let cluster = &deployment.cluster;

        let clients: Vec<Client> = gens
            .drain(..)
            .enumerate()
            .map(|(i, gen)| deployment.client(i, round, gen, traced))
            .collect();
        let (clients, record) = drive_dag(clients, slice, cluster, rounds, &mut counters);
        counters.anomalies += clients.iter().map(|c| c.anomalous_timelines).sum::<u64>();
        slices.push(record);

        let control = cluster.client().with_timeout(OP_TIMEOUT);
        // Every recently acked post must be readable straight from the KVS.
        // The write-behind flush and replica gossip are asynchronous (2 ms
        // windows), so a miss is retried briefly before it counts as lost.
        for id in clients.iter().flat_map(|c| c.acked.iter()) {
            checks += 1;
            // `cloudburst-apps` stores a tweet under this key.
            let key = format!("retwis/tweet/{id}");
            let deadline = Instant::now() + Duration::from_secs(2);
            let readable = loop {
                if matches!(control.get(key.as_str()), Ok(Some(_))) {
                    break true;
                }
                if Instant::now() >= deadline {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            if !readable {
                checks_failed += 1;
            }
        }
        gens = clients.into_iter().map(|c| c.gen).collect();
    }

    Pass {
        setup_s,
        e2e: summarize_slices(&slices),
        // client -> scheduler -> executor -> client, one body.
        model_floor_us: configs::model_floor_us(&config(seed), 3, 1),
        checks,
        checks_failed,
        input_digest: digest,
        counters,
    }
}
