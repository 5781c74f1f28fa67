//! The invocation-overhead model (§4, `ExecutorConfig::invocation_overhead_ms`)
//! charged as an occupancy window plus a later send: the executor drains
//! nothing while the window is open and every message the hop emits leaves
//! with the overhead added to its link delay. No pool thread sleeps through
//! it, so no spare worker is spawned to cover for one.
//!
//! Every test runs on a zero-latency network, so whatever time a call takes
//! beyond its bodies is the overhead model's.

#![allow(
    clippy::disallowed_methods,
    reason = "test code may read the wall clock: it times its own waits"
)]

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cloudburst::cluster::{CloudburstCluster, CloudburstConfig};
use cloudburst::codec;
use cloudburst::dag::DagSpec;
use cloudburst::executor::ExecutorRequest;
use cloudburst::types::{Arg, InvocationResult};
use cloudburst::{CloudburstClient, ExecutorConfig};
use cloudburst_anna::metrics as mkeys;
use cloudburst_net::{reply_channel, Address, NetConfig, TimeScale};

/// The time base: 1 paper-ms = 50 ms, so the default 0.4 paper-ms overhead
/// is 20 ms, large against scheduling noise. The cadences that block a pool
/// thread (the scheduler's metrics refresh, keyset publication) stretch to
/// seconds with it: what a test counts is its calls' own doing.
const SCALE: f64 = 50.0;

fn overhead() -> Duration {
    TimeScale::new(SCALE).ms(ExecutorConfig::default().invocation_overhead_ms)
}

/// One VM with `executors` executors on a zero-latency network at `SCALE`.
fn cluster(executors: usize) -> CloudburstCluster {
    CloudburstCluster::launch(config(executors))
}

fn config(executors: usize) -> CloudburstConfig {
    let instant = CloudburstConfig::instant();
    CloudburstConfig {
        net: NetConfig {
            time_scale: TimeScale::new(SCALE),
            ..instant.net
        },
        vms: 1,
        executors_per_vm: executors,
        ..instant
    }
}

fn register_increment(client: &CloudburstClient) {
    client
        .register_function("increment", |_rt, args| {
            let x = codec::decode_i64(&args[0]).ok_or("bad arg")?;
            Ok(codec::encode_i64(x + 1))
        })
        .unwrap();
}

fn increment(client: &CloudburstClient, x: i64) -> i64 {
    let result = client
        .call_function("increment", vec![Arg::value(codec::encode_i64(x))])
        .unwrap();
    codec::decode_i64(&result.unwrap()).unwrap()
}

/// Send `increment(i)` straight to each `executors[i]`, all at once, then
/// wait for every reply.
fn invoke_each(cluster: &CloudburstCluster, executors: &[Address]) {
    let port = cluster.network().register();
    let mut waiters = Vec::new();
    for (x, &addr) in (0..).zip(executors) {
        let (reply, waiter) = reply_channel(cluster.network());
        let request = ExecutorRequest::InvokeSingle {
            function: "increment".into(),
            args: vec![Arg::value(codec::encode_i64(x))],
            reply,
            response_key: None,
        };
        port.send(addr, request).unwrap();
        waiters.push(waiter);
    }
    for (x, waiter) in (0..).zip(waiters) {
        let result = waiter.wait_timeout(Duration::from_secs(10)).unwrap();
        let InvocationResult::Ok(value) = result else {
            panic!("invocation failed: {result:?}");
        };
        assert_eq!(codec::decode_i64(&value), Some(x + 1));
    }
}

fn executor_addrs(cluster: &CloudburstCluster) -> Vec<Address> {
    let executors = cluster.topology().executors();
    executors.into_iter().map(|(_, info)| info.addr).collect()
}

#[test]
fn modeled_calls_spawn_no_spare_worker() {
    // More executors than pool workers, all mid-invocation at once: a
    // blocked pool thread per invocation would need spares to cover them.
    let cluster = cluster(8);
    register_increment(&cluster.client());
    let executors = executor_addrs(&cluster);
    // Load the function everywhere first (a blocking metadata read), one
    // executor at a time.
    for addr in &executors {
        invoke_each(&cluster, std::slice::from_ref(addr));
    }
    let before = cluster.runtime_stats().spares_spawned;
    for _ in 0..3 {
        invoke_each(&cluster, &executors);
    }
    assert_eq!(
        cluster.runtime_stats().spares_spawned,
        before,
        "a modeled invocation must not block a pool thread"
    );
}

#[test]
fn one_executor_serves_modeled_invocations_one_at_a_time() {
    let cluster = cluster(1);
    register_increment(&cluster.client());
    let executor = executor_addrs(&cluster)[0];
    invoke_each(&cluster, &[executor]); // load the function first
    let start = Instant::now();
    invoke_each(&cluster, &[executor, executor]);
    // The second request waits out the first one's window, then pays its
    // own before its reply leaves.
    assert!(start.elapsed() >= 2 * overhead(), "{:?}", start.elapsed());
}

#[test]
fn a_chain_pays_the_overhead_once_per_hop() {
    let cluster = cluster(1);
    let client = cluster.client();
    register_increment(&client);
    client
        .register_dag(DagSpec::linear("twice", &["increment", "increment"]))
        .unwrap();
    let args = HashMap::from([(0, vec![Arg::value(codec::encode_i64(1))])]);
    let start = Instant::now();
    let result = client.call_dag("twice", args).unwrap();
    assert_eq!(codec::decode_i64(&result.unwrap()), Some(3));
    assert!(start.elapsed() >= 2 * overhead(), "{:?}", start.elapsed());
}

#[test]
fn published_utilization_counts_the_overhead() {
    // Publish every 2 paper-ms (100 ms) instead of every 5 s.
    let mut config = config(1);
    config.executor.metrics_interval_ms = 2.0;
    let cluster = CloudburstCluster::launch(config);
    let client = cluster.client();
    register_increment(&client);
    let (id, _) = cluster.topology().executors()[0];
    let anna = cluster.anna().client();
    // Back-to-back calls keep the executor inside overhead windows nearly
    // all the time; its bodies alone would read as almost idle.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut peak = 0.0f64;
    while peak < 0.5 {
        assert!(Instant::now() < deadline, "utilization peaked at {peak}");
        for x in 0..5 {
            increment(&client, x);
        }
        if let Ok(Some(capsule)) = anna.get(&mkeys::executor_metrics_key(id)) {
            for (name, value) in mkeys::decode_metrics(&capsule.read_value()) {
                if name == "utilization" {
                    peak = peak.max(value);
                }
            }
        }
    }
}
