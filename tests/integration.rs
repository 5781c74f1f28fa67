//! Workspace-level integration tests: cross-crate flows exercising the full
//! stack — lattices inside Anna inside Cloudburst, with baselines and apps.

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
use cloudburst::types::{Arg, ConsistencyLevel};
use cloudburst_lattice::Key;

fn instant() -> CloudburstCluster {
    CloudburstCluster::launch(CloudburstConfig::instant())
}

#[test]
fn figure2_quickstart_flow() {
    // The paper's Figure 2 script, end to end.
    let cluster = instant();
    let cloud = cluster.client();
    cloud.put("key", codec::encode_i64(2)).unwrap();
    cloud
        .register_function("square", |_rt, args| {
            let x = codec::decode_i64(&args[0]).ok_or("bad arg")?;
            Ok(codec::encode_i64(x * x))
        })
        .unwrap();
    cloud
        .register_dag(DagSpec::linear("square-dag", &["square"]))
        .unwrap();
    // Direct response with a KVS reference.
    let result = cloud
        .call_dag(
            "square-dag",
            HashMap::from([(0, vec![Arg::reference("key")])]),
        )
        .unwrap()
        .unwrap();
    assert_eq!(codec::decode_i64(&result), Some(4));
    // store_in_kvs=True path.
    let future = cloud
        .call_dag_stored(
            "square-dag",
            HashMap::from([(0, vec![Arg::value(codec::encode_i64(3))])]),
        )
        .unwrap();
    assert_eq!(
        codec::decode_i64(&future.get(Duration::from_secs(10)).unwrap()),
        Some(9)
    );
}

#[test]
fn session_consistency_levels_all_run_the_same_dag() {
    for level in [
        ConsistencyLevel::Lww,
        ConsistencyLevel::RepeatableRead,
        ConsistencyLevel::SingleKeyCausal,
        ConsistencyLevel::MultiKeyCausal,
        ConsistencyLevel::DistributedSessionCausal,
    ] {
        let mut config = CloudburstConfig::instant();
        config.level = level;
        let cluster = CloudburstCluster::launch(config);
        let client = cluster.client();
        client.put("shared", Bytes::from_static(b"state")).unwrap();
        client
            .register_function("reader", |rt, _| {
                rt.get(&Key::new("shared")).ok_or("missing".into())
            })
            .unwrap();
        client
            .register_function("echo", |_rt, args| Ok(args[0].clone()))
            .unwrap();
        client
            .register_dag(DagSpec::linear("chain", &["reader", "echo"]))
            .unwrap();
        let out = client.call_dag("chain", HashMap::new()).unwrap();
        assert_eq!(out.unwrap().as_ref(), b"state", "level {level:?}");
    }
}

#[test]
fn lattice_merges_survive_the_full_stack() {
    // Concurrent set-capsule writes from two clients through different
    // code paths must union at Anna and be readable through Cloudburst.
    let cluster = instant();
    let a = cluster.client();
    let b = cluster.client();
    let inbox = Key::new("union-key");
    a.anna()
        .add_to_set(&inbox, Bytes::from_static(b"alpha"))
        .unwrap();
    b.anna()
        .add_to_set(&inbox, Bytes::from_static(b"beta"))
        .unwrap();
    let capsule = a.anna().get(&inbox).unwrap().unwrap();
    assert_eq!(capsule.set_values().len(), 2);
}

#[test]
fn executor_messaging_inbox_fallback() {
    // Sending to a non-existent executor ID must land in the Anna inbox and
    // be retrievable by whoever owns that ID later (§3's fallback path).
    let cluster = instant();
    let client = cluster.client();
    client
        .register_function("sender", |rt, _| {
            rt.send(999_999, Bytes::from_static(b"to-the-void"));
            Ok(Bytes::new())
        })
        .unwrap();
    client.call_function("sender", vec![]).unwrap().unwrap();
    // The message is queued in the target's inbox key.
    let inbox = cloudburst_anna::metrics::inbox_key(999_999);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(capsule) = client.anna().get(&inbox).unwrap() {
            let msgs = capsule.set_values();
            assert_eq!(msgs.len(), 1);
            let (_, _, payload) = codec::decode_message(&msgs[0]).unwrap();
            assert_eq!(payload.as_ref(), b"to-the-void");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "inbox never populated"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn storage_autoscaling_under_cloudburst() {
    // Growing the Anna tier under a live Cloudburst deployment must not
    // lose data visible to functions.
    let cluster = instant();
    let client = cluster.client();
    for i in 0..100 {
        client
            .put(format!("grow/{i}"), codec::encode_i64(i))
            .unwrap();
    }
    cluster.anna().add_node();
    client
        .register_function("read_one", |rt, args| {
            let name = codec::decode_str(&args[0]).ok_or("bad name")?;
            rt.get(&Key::new(name)).ok_or("missing".into())
        })
        .unwrap();
    for i in (0..100).step_by(10) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let out = client
                .call_function(
                    "read_one",
                    vec![Arg::value(codec::encode_str(&format!("grow/{i}")))],
                )
                .unwrap();
            if let cloudburst::InvocationResult::Ok(v) = &out {
                assert_eq!(codec::decode_i64(v), Some(i));
                break;
            }
            assert!(std::time::Instant::now() < deadline, "key grow/{i} lost");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[test]
fn baselines_and_cloudburst_compute_identical_results() {
    // The same composition on Cloudburst, Lambda, and Dask must agree on
    // values (they differ only in latency).
    let cluster = instant();
    let client = cluster.client();
    client
        .register_function("inc", |_rt, args| {
            Ok(codec::encode_i64(
                codec::decode_i64(&args[0]).ok_or("bad")? + 1,
            ))
        })
        .unwrap();
    client
        .register_function("sq", |_rt, args| {
            let x = codec::decode_i64(&args[0]).ok_or("bad")?;
            Ok(codec::encode_i64(x * x))
        })
        .unwrap();
    client
        .register_dag(DagSpec::linear("pipe", &["inc", "sq"]))
        .unwrap();
    let cb = client
        .call_dag(
            "pipe",
            HashMap::from([(0, vec![Arg::value(codec::encode_i64(6))])]),
        )
        .unwrap()
        .unwrap();

    let net = cloudburst_net::Network::new(cloudburst_net::NetConfig::instant());
    let lambda = cloudburst_baselines::SimLambda::new(&net);
    lambda.deploy("inc", |args| {
        codec::encode_i64(codec::decode_i64(&args[0]).unwrap() + 1)
    });
    lambda.deploy("sq", |args| {
        let x = codec::decode_i64(&args[0]).unwrap();
        codec::encode_i64(x * x)
    });
    let lam = lambda.chain(&["inc", "sq"], codec::encode_i64(6)).unwrap();

    let dask = cloudburst_baselines::SimDask::new(&net);
    dask.deploy("inc", |args| {
        codec::encode_i64(codec::decode_i64(&args[0]).unwrap() + 1)
    });
    dask.deploy("sq", |args| {
        let x = codec::decode_i64(&args[0]).unwrap();
        codec::encode_i64(x * x)
    });
    let dk = dask.chain(&["inc", "sq"], codec::encode_i64(6)).unwrap();

    assert_eq!(codec::decode_i64(&cb), Some(49));
    assert_eq!(cb, lam);
    assert_eq!(cb, dk);
}

#[test]
fn compute_autoscaler_reacts_to_load() {
    use cloudburst::monitor::MonitorConfig;
    let mut config = CloudburstConfig::instant();
    config.vms = 1;
    config.executors_per_vm = 2;
    config.monitor = Some(MonitorConfig {
        tick_ms: 30.0,
        high_utilization: 0.5,
        low_utilization: 0.1,
        vm_spinup_ms: 50.0,
        vms_per_scaleup: 1,
        min_vms: 1,
        max_vms: 4,
        backlog_factor: 10.0, // effectively disable pin policy here
    });
    let cluster = CloudburstCluster::launch(config);
    let client = cluster.client();
    client
        .register_function("spin", |rt, _| {
            rt.compute(30.0);
            Ok(Bytes::new())
        })
        .unwrap();
    client
        .register_dag(DagSpec::linear("spin-dag", &["spin"]))
        .unwrap();
    // Saturate both executors from 4 client threads.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let c = cluster.client();
        let stop = std::sync::Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = c.call_dag("spin-dag", HashMap::new());
            }
        }));
    }
    // Wait for scale-up.
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while cluster.vm_count() < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let scaled_up = cluster.vm_count();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    assert!(scaled_up >= 2, "monitor never scaled up (vms={scaled_up})");
    // After the load stops, the monitor must scale back down.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while cluster.vm_count() > 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(cluster.vm_count(), 1, "monitor never scaled down");
}
