//! `chain_inline` and `chain_modeled`: Figure 1's two-function linear DAG,
//! `square(increment(x))`, with an 8-byte argument.
//!
//! The primary operation is `call_dag` with a direct response; one call in
//! [`CHAIN_STORED_ONE_IN`](crate::gen::CHAIN_STORED_ONE_IN) instead stores
//! its result in the KVS and reads it back through the returned future
//! (Figure 2's `store_in_kvs=True`) — the chain's state-mutating operation.
//! Every result is checked against `(x + 1)^2`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cloudburst::cluster::{CloudburstCluster, CloudburstConfig};
use cloudburst::codec;
use cloudburst::dag::DagSpec;
use cloudburst::types::{Arg, ConsistencyLevel, InvocationResult};
use cloudburst::CloudburstClient;

use super::{drive_dag, trace_id, Counters, Pass, OP_TIMEOUT};
use crate::configs;
use crate::gen::{client_seed, input_digest, ChainGen, ChainOp, OpGen};
use crate::load::{summarize_slices, ClientLoop, OpClass, Outcome, CLIENTS};
use crate::procstat::now_ns;
use crate::trace::{self, Span, ROOT_CALL, ROOT_WRITE};

const DAG: &str = "chain";
const FUNCTIONS: [&str; 2] = ["increment", "square"];

/// 2 VMs x 3 executors, 3 Anna nodes, LWW — on either configuration.
pub fn config(modeled: bool, seed: u64) -> CloudburstConfig {
    if modeled {
        configs::modeled(seed)
    } else {
        configs::zero_model(ConsistencyLevel::Lww, seed)
    }
}

/// client -> scheduler -> executor -> executor -> client, two bodies.
pub fn model_floor_us(config: &CloudburstConfig) -> f64 {
    configs::model_floor_us(config, 4, 2)
}

struct Client {
    index: usize,
    round: usize,
    client: CloudburstClient,
    gen: ChainGen,
    traced: bool,
    calls: u64,
}

impl Client {
    fn run(&mut self, op: ChainOp) -> Outcome {
        let (x, class) = match op {
            ChainOp::Direct(x) => (x, OpClass::Call),
            ChainOp::Stored(x) => (x, OpClass::Write),
        };
        self.calls += 1;
        let mut source = vec![Arg::value(codec::encode_i64(x))];
        let mut args = HashMap::with_capacity(2);
        let trace = self
            .traced
            .then(|| trace_id(self.index, self.round, self.calls));
        if let Some(id) = trace {
            // Every node gets the trace argument: a non-source node's
            // resolved arguments are its own followed by the upstream value.
            source.push(Arg::value(trace::trace_arg(id)));
            args.insert(1, vec![Arg::value(trace::trace_arg(id))]);
        }
        args.insert(0, source);
        let start_ns = now_ns();
        let result = match class {
            OpClass::Call => self.client.call_dag(DAG, args),
            OpClass::Write => self
                .client
                .call_dag_stored(DAG, args)
                .and_then(|future| future.get(OP_TIMEOUT))
                .map(InvocationResult::Ok),
        };
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
        let ok = matches!(result, Ok(InvocationResult::Ok(bytes))
            if codec::decode_i64(&bytes) == Some((x + 1) * (x + 1)));
        Outcome { class, ok }
    }
}

impl ClientLoop for Client {
    fn step(&mut self) -> Outcome {
        let op = self.gen.next_op();
        self.run(op)
    }
}

/// Launch, register the two functions and the DAG, and warm every executor,
/// the plan cache and the stored-result path. With `traced`, each function
/// is re-registered under its own name with the tracing wrapper before the
/// first call (executors cache a body on first use).
fn setup(config: CloudburstConfig, traced: bool, warm_calls: usize) -> CloudburstCluster {
    let cluster = CloudburstCluster::launch(config);
    let client = cluster.client().with_timeout(OP_TIMEOUT);
    client
        .register_function("increment", |_rt, args| {
            let x = codec::decode_i64(&args[0]).ok_or("increment: expected an i64")?;
            Ok(codec::encode_i64(x + 1))
        })
        .expect("register increment");
    client
        .register_function("square", |_rt, args| {
            let x = codec::decode_i64(&args[0]).ok_or("square: expected an i64")?;
            Ok(codec::encode_i64(x * x))
        })
        .expect("register square");
    if traced {
        let registry = cluster.registry();
        for name in FUNCTIONS {
            let body = registry.get(name).expect("just registered");
            registry.register(name, trace::wrap_body(name, body));
        }
    }
    client
        .register_dag(DagSpec::linear(DAG, &FUNCTIONS))
        .expect("register chain DAG");
    let mut warm = Client {
        index: 0,
        round: 0,
        client,
        gen: ChainGen::new(0),
        traced: false,
        calls: 0,
    };
    for i in 0..warm_calls {
        let x = i as i64;
        let op = if i % 16 == 15 {
            ChainOp::Stored(x)
        } else {
            ChainOp::Direct(x)
        };
        assert!(warm.run(op).ok, "warm-up call {i} returned a wrong result");
    }
    cluster
}

/// One pass over the chain DAG on the zero-model or the modeled config:
/// `rounds` fresh deployments, one measured slice on each.
pub fn run(modeled: bool, seed: u64, slice: Duration, rounds: usize, traced: bool) -> Pass {
    let config = config(modeled, seed);
    // The modeled call takes ~2.3 ms, so the same warm-up budget buys fewer.
    let warm_calls = if modeled { 200 } else { 2000 };
    let mut gens: Vec<ChainGen> = (0..CLIENTS)
        .map(|index| ChainGen::new(client_seed(seed, index)))
        .collect();
    let digest = input_digest(&gens);

    let mut setup_s = Vec::with_capacity(rounds);
    let mut slices = Vec::with_capacity(rounds);
    let mut counters = Counters::default();
    for round in 0..rounds {
        let start = Instant::now();
        let cluster = setup(config.clone(), traced, warm_calls);
        setup_s.push(start.elapsed().as_secs_f64());

        let clients: Vec<Client> = gens
            .drain(..)
            .enumerate()
            .map(|(index, gen)| Client {
                index,
                round,
                client: cluster.client().with_timeout(OP_TIMEOUT),
                gen,
                traced,
                calls: 0,
            })
            .collect();
        let (clients, record) = drive_dag(clients, slice, &cluster, rounds, &mut counters);
        gens = clients.into_iter().map(|c| c.gen).collect();
        slices.push(record);
    }

    Pass {
        setup_s,
        e2e: summarize_slices(&slices),
        model_floor_us: model_floor_us(&config),
        checks: 0,
        checks_failed: 0,
        input_digest: digest,
        counters,
    }
}
