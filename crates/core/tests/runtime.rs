//! End-to-end tests of the Cloudburst runtime: function calls, DAG
//! composition, locality, messaging, futures, consistency sessions, fault
//! tolerance, and elasticity.

#![allow(
    clippy::disallowed_methods,
    reason = "test code may read the wall clock: it times its own waits"
)]

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use cloudburst::cluster::{CloudburstCluster, CloudburstConfig};
use cloudburst::codec;
use cloudburst::dag::DagSpec;
use cloudburst::scheduler::SchedulerConfig;
use cloudburst::types::{Arg, ConsistencyLevel, InvocationResult};
use cloudburst::TraceSink;
use cloudburst_anna::AnnaConfig;
use cloudburst_lattice::Key;

fn instant_cluster() -> CloudburstCluster {
    CloudburstCluster::launch(CloudburstConfig::instant())
}

fn register_arithmetic(client: &cloudburst::CloudburstClient) {
    client
        .register_function("increment", |_rt, args| {
            let x = codec::decode_i64(&args[0]).ok_or("bad arg")?;
            Ok(codec::encode_i64(x + 1))
        })
        .unwrap();
    client
        .register_function("square", |_rt, args| {
            let x = codec::decode_i64(&args[0]).ok_or("bad arg")?;
            Ok(codec::encode_i64(x * x))
        })
        .unwrap();
}

#[test]
fn single_function_invocation() {
    let cluster = instant_cluster();
    let client = cluster.client();
    register_arithmetic(&client);
    let result = client
        .call_function("square", vec![Arg::value(codec::encode_i64(7))])
        .unwrap();
    assert_eq!(codec::decode_i64(&result.unwrap()), Some(49));
}

#[test]
fn unknown_function_is_an_error() {
    let cluster = instant_cluster();
    let client = cluster.client();
    let result = client.call_function("missing", vec![]).unwrap();
    assert!(!result.is_ok());
}

#[test]
fn function_error_returns_to_client() {
    let cluster = instant_cluster();
    let client = cluster.client();
    client
        .register_function("fail", |_rt, _args| Err("explicit program error".into()))
        .unwrap();
    let result = client.call_function("fail", vec![]).unwrap();
    let InvocationResult::Err(msg) = result else {
        panic!("expected error");
    };
    assert!(msg.contains("explicit program error"));
}

#[test]
fn linear_dag_composition() {
    let cluster = instant_cluster();
    let client = cluster.client();
    register_arithmetic(&client);
    client
        .register_dag(DagSpec::linear("pipe", &["increment", "square"]))
        .unwrap();
    // square(increment(4)) = 25
    let result = client
        .call_dag(
            "pipe",
            HashMap::from([(0, vec![Arg::value(codec::encode_i64(4))])]),
        )
        .unwrap();
    assert_eq!(codec::decode_i64(&result.unwrap()), Some(25));
}

#[test]
fn dag_with_kvs_references_resolves_arguments() {
    let cluster = instant_cluster();
    let client = cluster.client();
    register_arithmetic(&client);
    client.put("input", codec::encode_i64(9)).unwrap();
    client
        .register_dag(DagSpec::linear("ref-pipe", &["increment"]))
        .unwrap();
    let result = client
        .call_dag(
            "ref-pipe",
            HashMap::from([(0, vec![Arg::reference("input")])]),
        )
        .unwrap();
    assert_eq!(codec::decode_i64(&result.unwrap()), Some(10));
}

#[test]
fn repeated_dag_calls_reuse_plans_and_survive_vm_crash() {
    // The scheduler caches execution plans across repeated calls of one
    // (DAG, ref-key set); a VM crash bumps the topology epoch, so the very
    // next call must recompute — a cached schedule must never be delivered
    // to a dead executor, even before the next metrics refresh.
    let mut config = CloudburstConfig::instant();
    config.vms = 3;
    let cluster = CloudburstCluster::launch(config);
    let client = cluster.client();
    register_arithmetic(&client);
    client.put("seed", codec::encode_i64(10)).unwrap();
    client
        .register_dag(DagSpec::linear("warm", &["increment", "square"]))
        .unwrap();
    let args = HashMap::from([(0, vec![Arg::reference("seed")])]);
    // Warm the plan cache: identical (DAG, ref-set) back to back.
    for _ in 0..5 {
        let result = client.call_dag("warm", args.clone()).unwrap();
        assert_eq!(codec::decode_i64(&result.unwrap()), Some(121));
    }
    // Crash VMs one at a time; after each crash, the same call must keep
    // succeeding on the survivors no matter where the plan had pinned it.
    let victims = cluster.vm_ids();
    for &vm in victims.iter().take(2) {
        assert!(cluster.crash_vm(vm));
        for _ in 0..3 {
            let result = client.call_dag("warm", args.clone()).unwrap();
            assert_eq!(codec::decode_i64(&result.unwrap()), Some(121));
        }
    }
}

#[test]
fn diamond_dag_joins_inputs() {
    let cluster = instant_cluster();
    let client = cluster.client();
    client
        .register_function("source", |_rt, args| Ok(args[0].clone()))
        .unwrap();
    client
        .register_function("double", |_rt, args| {
            let x = codec::decode_i64(&args[0]).ok_or("bad")?;
            Ok(codec::encode_i64(2 * x))
        })
        .unwrap();
    client
        .register_function("triple", |_rt, args| {
            let x = codec::decode_i64(&args[0]).ok_or("bad")?;
            Ok(codec::encode_i64(3 * x))
        })
        .unwrap();
    client
        .register_function("sum", |_rt, args| {
            let total: i64 = args.iter().filter_map(codec::decode_i64).sum();
            Ok(codec::encode_i64(total))
        })
        .unwrap();
    let spec = DagSpec {
        name: "diamond".into(),
        nodes: ["source", "double", "triple", "sum"]
            .iter()
            .map(|f| cloudburst::dag::DagNode {
                function: (*f).to_string(),
            })
            .collect(),
        edges: vec![(0, 1), (0, 2), (1, 3), (2, 3)],
    };
    client.register_dag(spec).unwrap();
    // sum(double(5), triple(5)) = 10 + 15 = 25
    let result = client
        .call_dag(
            "diamond",
            HashMap::from([(0, vec![Arg::value(codec::encode_i64(5))])]),
        )
        .unwrap();
    assert_eq!(codec::decode_i64(&result.unwrap()), Some(25));
}

#[test]
fn dag_registration_rejects_unknown_functions() {
    let cluster = instant_cluster();
    let client = cluster.client();
    let err = client
        .register_dag(DagSpec::linear("bad", &["ghost"]))
        .unwrap_err();
    assert!(matches!(
        err,
        cloudburst::ClientError::Dag(cloudburst::DagError::UnknownFunction(_))
    ));
}

#[test]
fn stored_results_via_future() {
    let cluster = instant_cluster();
    let client = cluster.client();
    register_arithmetic(&client);
    client
        .register_dag(DagSpec::linear("stored", &["increment"]))
        .unwrap();
    let future = client
        .call_dag_stored(
            "stored",
            HashMap::from([(0, vec![Arg::value(codec::encode_i64(41))])]),
        )
        .unwrap();
    let value = future.get(Duration::from_secs(10)).unwrap();
    assert_eq!(codec::decode_i64(&value), Some(42));
}

/// Poll Anna until `key` holds a value (the sink's put is fire-and-forget).
fn stored_copy(client: &cloudburst::CloudburstClient, key: &Key) -> cloudburst_lattice::Capsule {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(capsule) = client.anna().get(key).unwrap() {
            return capsule;
        }
        assert!(std::time::Instant::now() < deadline, "output never stored");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn stored_future_settles_once_and_leaves_an_attempt_stamped_copy() {
    let cluster = instant_cluster();
    let client = cluster.client();
    register_arithmetic(&client);
    client
        .register_dag(DagSpec::linear("stored", &["increment"]))
        .unwrap();
    let future = client
        .call_dag_stored(
            "stored",
            HashMap::from([(0, vec![Arg::value(codec::encode_i64(41))])]),
        )
        .unwrap();
    let value = future.get(Duration::from_secs(10)).unwrap();
    assert_eq!(codec::decode_i64(&value), Some(42));
    // A second `get` returns the same bytes.
    assert_eq!(future.get(Duration::from_secs(10)).unwrap(), value);
    // The KVS copy is what survives the client: first attempt => stamp 1.
    let capsule = stored_copy(&client, future.key());
    assert_eq!(capsule.read_value(), value);
    assert_eq!(capsule.lww_timestamp().map(|ts| ts.clock_micros), Some(1));
}

#[test]
fn failed_stored_dag_fails_the_future_at_once() {
    // A failing function stores nothing; before the completion notice the
    // future could only burn its whole timeout polling for a key that never
    // appears.
    let cluster = instant_cluster();
    let client = cluster.client();
    client
        .register_function("fail", |_rt, _args| Err("explicit program error".into()))
        .unwrap();
    client
        .register_dag(DagSpec::linear("fail-dag", &["fail"]))
        .unwrap();
    let future = client.call_dag_stored("fail-dag", HashMap::new()).unwrap();
    let start = std::time::Instant::now();
    let outcome = future.get(Duration::from_secs(30));
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "the failure took {:?} to arrive",
        start.elapsed()
    );
    let Err(cloudburst::ClientError::Invocation(msg)) = &outcome else {
        panic!("expected the function's error, got {outcome:?}");
    };
    assert!(msg.contains("explicit program error"));
    assert_eq!(future.get(Duration::from_secs(30)), outcome);
    assert_eq!(client.anna().get(future.key()).unwrap(), None);
}

#[test]
fn dropped_future_does_not_wedge_the_executor() {
    let cluster = instant_cluster();
    let client = cluster.client();
    register_arithmetic(&client);
    client
        .register_dag(DagSpec::linear("stored", &["increment"]))
        .unwrap();
    let args = |x| HashMap::from([(0, vec![Arg::value(codec::encode_i64(x))])]);
    let mut keys = Vec::new();
    for x in 0..50 {
        let future = client.call_dag_stored("stored", args(x)).unwrap();
        keys.push(future.key().clone());
        // Dropped unread: the sink's reply lands in a closed channel.
    }
    // The executors keep serving, and every abandoned result was stored.
    let result = client.call_dag("stored", args(99)).unwrap();
    assert_eq!(codec::decode_i64(&result.unwrap()), Some(100));
    for (x, key) in keys.iter().enumerate() {
        let capsule = stored_copy(&client, key);
        assert_eq!(codec::decode_i64(&capsule.read_value()), Some(x as i64 + 1));
    }
}

#[test]
fn sink_that_cannot_store_is_retried_into_the_same_future() {
    // The first attempt's VM is crashed while its function runs: when the
    // function returns, the dying sink can no longer reach Anna, so it must
    // neither answer the future nor retire the request. The §4.5 retry
    // stores the output and answers the *same* future.
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{mpsc, Arc as StdArc};
    let mut config = CloudburstConfig::instant();
    config.vms = 2;
    config.executors_per_vm = 2;
    config.scheduler = SchedulerConfig {
        dag_timeout_ms: 300.0,
        max_retries: 5,
        initial_pin_replicas: 4,
    };
    let cluster = CloudburstCluster::launch(config);
    let client = cluster.client();
    let calls = StdArc::new(AtomicU32::new(0));
    let calls_in_fn = StdArc::clone(&calls);
    let (started_tx, started_rx) = mpsc::channel();
    client
        .register_function("doomed_first", move |rt, _args| {
            if calls_in_fn.fetch_add(1, Ordering::SeqCst) == 0 {
                let _ = started_tx.send(rt.executor_id());
                // Finishes well inside the DAG timeout — on a dead VM.
                rt.compute(150.0);
                Ok(Bytes::from_static(b"stale"))
            } else {
                Ok(Bytes::from_static(b"fresh"))
            }
        })
        .unwrap();
    client
        .register_dag(DagSpec::linear("doomed-dag", &["doomed_first"]))
        .unwrap();
    let future = client
        .call_dag_stored("doomed-dag", HashMap::new())
        .unwrap();
    let executor = started_rx.recv_timeout(Duration::from_secs(10)).unwrap();
    let vm = cluster.topology().executor(executor).unwrap().vm;
    assert!(cluster.crash_vm(vm));
    let value = future.get(Duration::from_secs(10)).unwrap();
    assert_eq!(
        value.as_ref(),
        b"fresh",
        "the dead sink answered the future"
    );
    let capsule = stored_copy(&client, future.key());
    assert_eq!(capsule.read_value().as_ref(), b"fresh");
    assert_eq!(capsule.lww_timestamp().map(|ts| ts.clock_micros), Some(2));
}

#[test]
fn functions_read_and_write_shared_state() {
    let cluster = instant_cluster();
    let client = cluster.client();
    client
        .register_function("writer", |rt, args| {
            rt.put(&Key::new("shared-counter"), args[0].clone());
            Ok(Bytes::new())
        })
        .unwrap();
    client
        .register_function("reader", |rt, _args| {
            rt.get(&Key::new("shared-counter")).ok_or("missing".into())
        })
        .unwrap();
    client
        .call_function("writer", vec![Arg::value(codec::encode_i64(777))])
        .unwrap()
        .unwrap();
    // Write-back to Anna is asynchronous; poll through a second function.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let result = client.call_function("reader", vec![]).unwrap();
        if let InvocationResult::Ok(v) = &result {
            if codec::decode_i64(v) == Some(777) {
                break;
            }
        }
        assert!(std::time::Instant::now() < deadline, "value never visible");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn direct_messaging_between_functions() {
    let cluster = instant_cluster();
    let client = cluster.client();
    // advertise: writes its executor id to a well-known key (the §3 flow).
    client
        .register_function("advertise", |rt, _args| {
            let id = rt.executor_id();
            rt.put(&Key::new("peer-id"), codec::encode_i64(id as i64));
            // Wait for a message (the paper's recv loop).
            let messages = rt.recv_timeout(5_000.0);
            if messages.is_empty() {
                return Err("no message received".into());
            }
            Ok(messages[0].clone())
        })
        .unwrap();
    client
        .register_function("greet", |rt, _args| {
            // Read the advertised ID and send a direct message.
            let deadline = 200;
            for _ in 0..deadline {
                if let Some(raw) = rt.get(&Key::new("peer-id")) {
                    if let Some(id) = codec::decode_i64(&raw) {
                        rt.send(id as u64, Bytes::from_static(b"hello-direct"));
                        return Ok(Bytes::new());
                    }
                }
                rt.compute(1.0);
            }
            Err("peer never advertised".into())
        })
        .unwrap();

    // Run the receiver asynchronously (it blocks in recv), then the sender.
    let recv_client = cluster.client();
    let receiver = std::thread::spawn(move || {
        recv_client
            .register_dag(DagSpec::linear("recv-dag", &["advertise"]))
            .unwrap();
        recv_client.call_dag("recv-dag", HashMap::new()).unwrap()
    });
    // Wait until the receiver has advertised (the condition `greet` polls
    // for), so `greet`'s own budget does not depend on how soon the
    // receiver thread gets to run.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.get("peer-id").unwrap().is_none() {
        assert!(
            std::time::Instant::now() < deadline,
            "peer never advertised"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    client.call_function("greet", vec![]).unwrap().unwrap();
    let received = receiver.join().unwrap();
    assert_eq!(received.unwrap().as_ref(), b"hello-direct");
}

#[test]
fn repeatable_read_across_dag() {
    let mut config = CloudburstConfig::instant();
    config.level = ConsistencyLevel::RepeatableRead;
    config.vms = 3;
    let cluster = CloudburstCluster::launch(config);
    let client = cluster.client();
    client.put("rr-key", codec::encode_i64(1)).unwrap();
    // Both functions read the same key and return it; a concurrent writer
    // keeps bumping the value. RR demands both functions see one version.
    client
        .register_function("read1", |rt, _| {
            rt.get(&Key::new("rr-key")).ok_or("missing".into())
        })
        .unwrap();
    client
        .register_function("read2", |rt, args| {
            let first = codec::decode_i64(&args[0]).ok_or("bad upstream")?;
            let second =
                codec::decode_i64(&rt.get(&Key::new("rr-key")).ok_or("missing")?).ok_or("bad")?;
            if first == second {
                Ok(codec::encode_i64(first))
            } else {
                Err(format!("repeatable read violated: {first} vs {second}"))
            }
        })
        .unwrap();
    client
        .register_dag(DagSpec::linear("rr-dag", &["read1", "read2"]))
        .unwrap();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer_stop = std::sync::Arc::clone(&stop);
    let writer_client = cluster.client();
    let writer = std::thread::spawn(move || {
        let mut v = 2;
        while !writer_stop.load(std::sync::atomic::Ordering::Relaxed) {
            writer_client.put("rr-key", codec::encode_i64(v)).unwrap();
            v += 1;
            std::thread::sleep(Duration::from_micros(300));
        }
    });
    for _ in 0..50 {
        let result = client.call_dag("rr-dag", HashMap::new()).unwrap();
        assert!(result.is_ok(), "repeatable read violated: {result:?}");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
}

#[test]
fn causal_mode_runs_dags() {
    let mut config = CloudburstConfig::instant();
    config.level = ConsistencyLevel::DistributedSessionCausal;
    config.vms = 3;
    let cluster = CloudburstCluster::launch(config);
    let client = cluster.client();
    client.put("c-key", Bytes::from_static(b"base")).unwrap();
    client
        .register_function("causal-read", |rt, _| {
            rt.get(&Key::new("c-key")).ok_or("missing".into())
        })
        .unwrap();
    client
        .register_function("causal-write", |rt, args| {
            rt.put(&Key::new("c-out"), args[0].clone());
            Ok(args[0].clone())
        })
        .unwrap();
    client
        .register_dag(DagSpec::linear("c-dag", &["causal-read", "causal-write"]))
        .unwrap();
    for _ in 0..10 {
        let result = client.call_dag("c-dag", HashMap::new()).unwrap();
        assert!(result.is_ok(), "{result:?}");
    }
}

#[test]
fn trace_sink_records_dag_accesses() {
    let sink = TraceSink::new();
    let mut config = CloudburstConfig::instant();
    config.trace = Some(sink.clone());
    let cluster = CloudburstCluster::launch(config);
    let client = cluster.client();
    client.put("traced-key", codec::encode_i64(5)).unwrap();
    client
        .register_function("traced", |rt, _| {
            let v = rt.get(&Key::new("traced-key")).ok_or("missing")?;
            rt.put(&Key::new("traced-out"), v.clone());
            Ok(v)
        })
        .unwrap();
    client
        .register_dag(DagSpec::linear("traced-dag", &["traced"]))
        .unwrap();
    client
        .call_dag("traced-dag", HashMap::new())
        .unwrap()
        .unwrap();
    let events = sink.take();
    let reads = events
        .iter()
        .filter(|e| matches!(e, cloudburst::TraceEvent::Read { .. }))
        .count();
    let writes = events
        .iter()
        .filter(|e| matches!(e, cloudburst::TraceEvent::Write { .. }))
        .count();
    assert!(reads >= 1, "read not traced");
    assert!(writes >= 1, "write not traced");
}

#[test]
fn dag_reexecutes_after_vm_crash() {
    let mut config = CloudburstConfig::instant();
    config.vms = 2;
    config.executors_per_vm = 2;
    config.scheduler = SchedulerConfig {
        dag_timeout_ms: 200.0,
        max_retries: 5,
        ..SchedulerConfig::default()
    };
    // Give every function a pin everywhere so retries can relocate.
    config.scheduler.initial_pin_replicas = 4;
    let cluster = CloudburstCluster::launch(config);
    let client = cluster.client();
    client
        .register_function("slowish", |rt, args| {
            rt.compute(50.0);
            Ok(args[0].clone())
        })
        .unwrap();
    client
        .register_dag(DagSpec::linear("crashy", &["slowish"]))
        .unwrap();
    // Warm call.
    client
        .call_dag(
            "crashy",
            HashMap::from([(0, vec![Arg::value(codec::encode_i64(1))])]),
        )
        .unwrap()
        .unwrap();
    // Crash one VM, then keep calling: every request must still succeed
    // (possibly via scheduler-driven re-execution on surviving executors).
    cluster.crash_vm(0);
    for _ in 0..5 {
        let result = client
            .call_dag(
                "crashy",
                HashMap::from([(0, vec![Arg::value(codec::encode_i64(2))])]),
            )
            .unwrap();
        assert!(result.is_ok(), "{result:?}");
    }
}

#[test]
fn manual_vm_scaling_updates_topology() {
    let cluster = CloudburstCluster::launch(CloudburstConfig {
        vms: 1,
        executors_per_vm: 2,
        ..CloudburstConfig::instant()
    });
    assert_eq!(cluster.vm_count(), 1);
    assert_eq!(cluster.executor_count(), 2);
    let vm = cluster.add_vm();
    assert_eq!(cluster.vm_count(), 2);
    assert_eq!(cluster.executor_count(), 4);
    assert!(cluster.remove_vm(vm));
    assert_eq!(cluster.vm_count(), 1);
    assert_eq!(cluster.executor_count(), 2);
    assert!(!cluster.remove_vm(vm));
    // The cluster still serves requests after scale-down.
    let client = cluster.client();
    register_arithmetic(&client);
    let result = client
        .call_function("increment", vec![Arg::value(codec::encode_i64(1))])
        .unwrap();
    assert_eq!(codec::decode_i64(&result.unwrap()), Some(2));
}

#[test]
fn hot_function_replicates_under_load() {
    // Many concurrent calls should eventually pin the function on more than
    // one executor (backpressure policy, §4.3).
    let cluster = CloudburstCluster::launch(CloudburstConfig {
        vms: 3,
        executors_per_vm: 2,
        anna: AnnaConfig {
            nodes: 2,
            replication: 1,
            durability: cloudburst_anna::Durability::Off,
            ..AnnaConfig::default()
        },
        ..CloudburstConfig::instant()
    });
    let client = cluster.client();
    client
        .register_function("busy", |rt, args| {
            rt.compute(20.0);
            Ok(args[0].clone())
        })
        .unwrap();
    client
        .register_dag(DagSpec::linear("busy-dag", &["busy"]))
        .unwrap();
    let mut handles = Vec::new();
    for _ in 0..6 {
        let c = cluster.client();
        handles.push(std::thread::spawn(move || {
            for _ in 0..10 {
                let r = c
                    .call_dag(
                        "busy-dag",
                        HashMap::from([(0, vec![Arg::value(codec::encode_i64(1))])]),
                    )
                    .unwrap();
                assert!(r.is_ok());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn attempt_stamped_outputs_resolve_by_attempt_not_arrival_order() {
    // Regression (PR 3 satellite): a timed-out DAG attempt reuses the same
    // output key as its retry, and its sink may write *after* the retry's
    // sink. Wall-clock LWW timestamps would let the stale attempt win; the
    // attempt-stamped capsule pins the retry as the winner no matter which
    // write lands last.
    use cloudburst::executor::attempt_stamped_output;
    let cluster = instant_cluster();
    let client = cluster.client();
    let anna = client.anna();
    let key = Key::new("resp/race");
    // The retry (attempt 1) finishes first...
    anna.put(
        &key,
        attempt_stamped_output(1, 7, Bytes::from_static(b"fresh")),
    )
    .unwrap();
    // ...then the abandoned first attempt's late write lands.
    anna.put(
        &key,
        attempt_stamped_output(0, 7, Bytes::from_static(b"stale")),
    )
    .unwrap();
    let got = anna.get(&key).unwrap().unwrap();
    assert_eq!(
        got.read_value().as_ref(),
        b"fresh",
        "the later attempt must win the merge regardless of write order"
    );
}

#[test]
fn dag_retry_result_survives_late_write_from_abandoned_attempt() {
    // End-to-end: the first attempt outlives the DAG timeout and writes its
    // (different) result late; the stored result must settle on the retry's
    // result and stay there.
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc as StdArc;
    let mut config = CloudburstConfig::instant();
    config.vms = 2;
    config.executors_per_vm = 2;
    config.scheduler = SchedulerConfig {
        dag_timeout_ms: 60.0,
        max_retries: 5,
        initial_pin_replicas: 4,
    };
    let cluster = CloudburstCluster::launch(config);
    let client = cluster.client();
    let calls = StdArc::new(AtomicU32::new(0));
    let calls_in_fn = StdArc::clone(&calls);
    client
        .register_function("flaky_first", move |rt, _args| {
            if calls_in_fn.fetch_add(1, Ordering::SeqCst) == 0 {
                // First attempt: blow through the DAG timeout, then return a
                // recognizably stale value.
                rt.compute(300.0);
                Ok(Bytes::from_static(b"stale"))
            } else {
                Ok(Bytes::from_static(b"fresh"))
            }
        })
        .unwrap();
    client
        .register_dag(DagSpec::linear("flaky-dag", &["flaky_first"]))
        .unwrap();
    let future = client.call_dag_stored("flaky-dag", HashMap::new()).unwrap();
    let first_seen = future.get(Duration::from_secs(10)).unwrap();
    // Nothing reads the result key, so its heat on the nodes is one per
    // put, decaying: above 1.0 only once the abandoned attempt's late
    // write (at ~300 ms) has been applied on top of the retry's.
    let anna = cluster.anna().client();
    let heat = || -> f64 {
        anna.cluster_stats()
            .unwrap()
            .iter()
            .flat_map(|node| node.hot_keys.iter())
            .filter(|(key, _)| key == future.key())
            .map(|(_, heat)| heat)
            .sum()
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while heat() <= 1.0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the abandoned attempt's write never reached the store"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stored = client.get(future.key().clone()).unwrap();
    assert_eq!(
        stored.as_deref(),
        Some(&b"fresh"[..]),
        "late stale write clobbered the retry (the future saw {first_seen:?})"
    );
}

#[test]
fn combined_vm_and_storage_node_crash_keeps_serving() {
    // The tentpole's combined-failure scenario: a VM and a storage node die
    // mid-workload. Schedulers must keep launching DAGs (lenient metric
    // refresh + client failover) and acknowledged KVS state must remain
    // readable.
    let mut config = CloudburstConfig::instant();
    config.anna = AnnaConfig {
        nodes: 3,
        replication: 2,
        durability: cloudburst_anna::Durability::Off,
        ..AnnaConfig::default()
    };
    config.vms = 2;
    config.executors_per_vm = 2;
    config.scheduler = SchedulerConfig {
        dag_timeout_ms: 200.0,
        max_retries: 5,
        initial_pin_replicas: 4,
    };
    let cluster = CloudburstCluster::launch(config);
    let client = cluster.client();
    register_arithmetic(&client);
    client
        .register_dag(DagSpec::linear("sq", &["square"]))
        .unwrap();
    let anna = client.anna();
    // Durably acknowledged state.
    for i in 0..30 {
        anna.put_replicated(
            &Key::new(format!("combined-{i}")),
            cloudburst_lattice::Capsule::wrap_lww(
                anna.next_timestamp(),
                Bytes::from(format!("v{i}")),
            ),
            2,
        )
        .unwrap();
    }
    // Warm DAG call, then crash one of each tier.
    let ok = client
        .call_dag(
            "sq",
            HashMap::from([(0, vec![Arg::value(codec::encode_i64(3))])]),
        )
        .unwrap();
    assert_eq!(codec::decode_i64(&ok.unwrap()), Some(9));
    assert!(cluster.crash_vm(0));
    let victim = cluster.anna().directory().nodes()[0].0;
    assert!(cluster.anna().crash_node(victim));
    // DAG calls keep succeeding on the survivors...
    for i in 0..5 {
        let result = client
            .call_dag(
                "sq",
                HashMap::from([(0, vec![Arg::value(codec::encode_i64(i))])]),
            )
            .unwrap();
        assert_eq!(codec::decode_i64(&result.unwrap()), Some(i * i), "call {i}");
    }
    // ...and every acknowledged write is still readable via failover.
    for i in 0..30 {
        let got = anna
            .get(&Key::new(format!("combined-{i}")))
            .unwrap()
            .expect("acked write lost in combined crash");
        assert_eq!(got.read_value().as_ref(), format!("v{i}").as_bytes());
    }
    // Anti-entropy restores the replication factor on the survivors.
    let (audit, _) = cluster.anna().repair_until_replicated(10);
    assert!(audit.is_fully_replicated(), "{audit:?}");
}
