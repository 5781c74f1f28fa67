//! End-to-end tests of the closed elasticity loop: heat telemetry →
//! automatic selective replication (promotion, read spreading, demotion
//! with hysteresis, stray trimming) → storage autoscaling — plus the
//! failure-path behaviour of replication overrides.

#![allow(
    clippy::disallowed_methods,
    reason = "test code may read the wall clock: it times its own waits"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use cloudburst_anna::elastic::{ElasticConfig, ScaleTier, ScaleTimeline, ScalingConfig};
use cloudburst_anna::msg::{MultiGetResponse, StorageRequest};
use cloudburst_anna::node::NodeConfig;
use cloudburst_anna::{AnnaCluster, AnnaConfig};
use cloudburst_lattice::Key;
use cloudburst_net::{reply_channel, NetConfig, Network};

fn instant_net() -> Network {
    Network::new(NetConfig::instant())
}

/// A cluster whose heat decays fast enough for demotion tests to run in
/// test time (100 ms half-life at the instant net's real-time scale).
fn launch(net: &Network, nodes: usize, replication: usize) -> Arc<AnnaCluster> {
    Arc::new(AnnaCluster::launch(
        net,
        AnnaConfig {
            nodes,
            replication,
            durability: cloudburst_anna::Durability::Off,
            node: NodeConfig {
                heat_half_life_ms: 100.0,
                ..NodeConfig::default()
            },
            ..AnnaConfig::default()
        },
    ))
}

fn eventually(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
    let start = std::time::Instant::now();
    while start.elapsed() < deadline {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Whether the node at `addr` currently stores `key` (a direct one-key
/// `MultiGet`, bypassing client-side failover — this probes *one* replica).
fn node_has(
    net: &Network,
    cluster: &AnnaCluster,
    addr: cloudburst_net::Address,
    key: &Key,
) -> bool {
    let (reply, waiter) = reply_channel::<MultiGetResponse>(net);
    let from = cluster.client().addr();
    if net
        .send(
            from,
            addr,
            StorageRequest::MultiGet {
                keys: vec![key.clone()],
                reply,
            },
        )
        .is_err()
    {
        return false;
    }
    waiter
        .wait_timeout(Duration::from_secs(2))
        .is_ok_and(|r| r.capsules[0].is_some())
}

/// The acceptance-criterion test: under a skewed read/write load the loop
/// promotes the hot key to the target replication within the test's
/// deadline, spreads reads across the new replicas, and demotes (plus
/// trims the stray copies) after the workload shifts — with zero manual
/// `set_key_replication` calls.
#[test]
fn loop_promotes_spreads_and_demotes() {
    let net = instant_net();
    let cluster = launch(&net, 4, 1);
    let client = cluster.client();
    let hot = Key::new("elastic-hot");
    client.put_lww(&hot, Bytes::from_static(b"v")).unwrap();
    for i in 0..8 {
        client
            .put_lww(&Key::new(format!("cold-{i}")), Bytes::from_static(b"c"))
            .unwrap();
    }

    let timeline = Arc::new(ScaleTimeline::new());
    let elastic = cluster.spawn_elastic(
        ElasticConfig {
            tick_ms: 10.0,
            promote_heat: 50.0,
            demote_heat: 20.0,
            cool_ticks: 2,
            hot_replication: 3,
            ..ElasticConfig::default()
        },
        Arc::clone(&timeline),
    );

    // Skewed load: two readers hammer the hot key.
    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..2 {
        let c = cluster.client();
        let stop = Arc::clone(&stop);
        let hot = hot.clone();
        readers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = c.get(&hot);
            }
        }));
    }

    // Promotion: the loop must raise the override on its own.
    let dir = cluster.directory();
    assert!(
        eventually(Duration::from_secs(10), || dir.is_overridden(&hot)),
        "hot key was never promoted"
    );
    assert_eq!(dir.effective_replication(&hot), 3);
    assert!(elastic.stats().promotions >= 1);
    // No cold key was promoted.
    for i in 0..8 {
        assert!(!dir.is_overridden(&Key::new(format!("cold-{i}"))));
    }

    // The raised copies materialize without manual pushes.
    let replicas = dir.replicas(&hot);
    assert_eq!(replicas.len(), 3);
    for &(_, addr) in &replicas {
        assert!(
            eventually(Duration::from_secs(5), || node_has(
                &net, &cluster, addr, &hot
            )),
            "replica {addr} never received the promoted key"
        );
    }

    // Read spreading: with all replicas converged, further hot-key reads
    // land on more than one replica.
    let before: std::collections::HashMap<_, _> = client
        .cluster_stats()
        .unwrap()
        .into_iter()
        .map(|s| (s.node, s.gets_served))
        .collect();
    let mut served = Vec::new();
    let spread = eventually(Duration::from_secs(10), || {
        let after = client.cluster_stats().unwrap();
        served = replicas
            .iter()
            .filter_map(|(node, _)| {
                let delta = after.iter().find(|s| s.node == *node)?.gets_served
                    - before.get(node).copied().unwrap_or(0);
                (delta > 0).then_some(*node)
            })
            .collect();
        served.len() >= 2
    });
    assert!(
        spread,
        "promotion did not spread reads: only {served:?} of {replicas:?} served gets"
    );

    // Workload shift: readers stop, heat decays, the loop demotes after
    // the cool-down hysteresis and trims the stray copies.
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let _ = r.join();
    }
    assert!(
        eventually(Duration::from_secs(15), || !dir.is_overridden(&hot)),
        "hot key was never demoted after cooling"
    );
    assert!(elastic.stats().demotions >= 1);
    assert!(
        eventually(Duration::from_secs(10), || {
            let audit = cluster.audit_replication();
            audit.strays == 0 && audit.is_fully_replicated()
        }),
        "stray copies were never trimmed after demotion: {:?}",
        cluster.audit_replication()
    );
    // The storage tier recorded its samples into the shared timeline.
    assert!(!timeline.tier_samples(ScaleTier::Storage).is_empty());
}

/// Satellite: a promoted key survives a crash of its primary, and repair
/// restores the *raised* replication factor, not the default.
#[test]
fn promoted_key_survives_primary_crash_and_repair_restores_raised_factor() {
    let net = instant_net();
    let cluster = launch(&net, 4, 1);
    let client = cluster.client();
    let key = Key::new("crash-hot");
    client
        .put_lww(&key, Bytes::from_static(b"payload"))
        .unwrap();

    cluster.set_key_replication(&key, 3);
    let dir = cluster.directory();
    let replicas = dir.replicas(&key);
    assert_eq!(replicas.len(), 3);
    for &(_, addr) in &replicas {
        assert!(eventually(Duration::from_secs(5), || node_has(
            &net, &cluster, addr, &key
        )));
    }

    let (primary, _) = replicas[0];
    assert!(cluster.crash_node(primary));
    // The override outlives the crash: the directory still assigns the
    // raised factor under the shrunk ring.
    assert_eq!(dir.effective_replication(&key), 3);
    let (audit, _) = cluster.repair_until_replicated(16);
    assert!(
        audit.is_fully_replicated(),
        "repair never restored the raised factor: {audit:?}"
    );
    // All three *current* replicas hold the key, and the value survived.
    let replicas = dir.replicas(&key);
    assert_eq!(replicas.len(), 3);
    for &(_, addr) in &replicas {
        assert!(eventually(Duration::from_secs(5), || node_has(
            &net, &cluster, addr, &key
        )));
    }
    assert_eq!(
        client.get(&key).unwrap().unwrap().read_value().as_ref(),
        b"payload"
    );
}

/// Satellite: `set_key_replication` must materialize the new replicas even
/// when the key's primary is dead (unreachable but still in the
/// directory) — the push fails over to every surviving holder instead of
/// relying on the primary alone.
#[test]
fn set_key_replication_pushes_from_surviving_holder_when_primary_is_dead() {
    let net = instant_net();
    let cluster = launch(&net, 4, 2);
    let client = cluster.client();
    let key = Key::new("dead-primary");
    client.put_lww(&key, Bytes::from_static(b"v")).unwrap();

    let dir = cluster.directory();
    let replicas = dir.replicas(&key);
    assert_eq!(replicas.len(), 2);
    let (_, primary_addr) = replicas[0];
    let (_, holder_addr) = replicas[1];
    // Wait for gossip to seed the second holder, then kill the primary
    // *without* removing it from the directory (a dead-but-not-yet-noticed
    // node).
    assert!(eventually(Duration::from_secs(5), || node_has(
        &net,
        &cluster,
        holder_addr,
        &key
    )));
    net.kill(primary_addr);

    cluster.set_key_replication(&key, 3);
    let new_replicas = dir.replicas(&key);
    assert_eq!(new_replicas.len(), 3);
    // Every *live* replica materializes the copy, pushed by the surviving
    // holder — before the fix the push went only to the dead primary and
    // the third replica stayed empty until anti-entropy.
    for &(_, addr) in &new_replicas {
        if addr == primary_addr {
            continue;
        }
        assert!(
            eventually(Duration::from_secs(5), || node_has(
                &net, &cluster, addr, &key
            )),
            "replica {addr} never received the value from the surviving holder"
        );
    }
}

/// Region-aware promotion: on a multi-region cluster the loop targets the
/// override at the region whose nodes report the heat, so the raised
/// copies land where the traffic is served. With 3 nodes per region and a
/// replication-1 key, all heat accrues in the primary's region; promotion
/// to 4 must place 3 of the 4 replicas there (primary + the preferred-region
/// fill), not scatter them in ring-walk order.
#[test]
fn promotion_lands_extra_copies_in_the_heat_region() {
    let net = instant_net();
    let cluster = Arc::new(AnnaCluster::launch(
        &net,
        AnnaConfig {
            nodes: 6,
            replication: 1,
            regions: 2,
            durability: cloudburst_anna::Durability::Off,
            node: NodeConfig {
                heat_half_life_ms: 100.0,
                ..NodeConfig::default()
            },
            ..AnnaConfig::default()
        },
    ));
    let client = cluster.client();
    let hot = Key::new("geo-hot");
    client.put_lww(&hot, Bytes::from_static(b"v")).unwrap();

    // With a single replica every read is served by the primary, so the
    // heat-generating region is the primary's region by construction.
    let dir = cluster.directory();
    let heat_region = dir.region_of(dir.replicas(&hot)[0].0);

    let _elastic = cluster.spawn_elastic(
        ElasticConfig {
            tick_ms: 10.0,
            promote_heat: 50.0,
            hot_replication: 4,
            ..ElasticConfig::default()
        },
        Arc::new(ScaleTimeline::new()),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let c = cluster.client();
        let stop = Arc::clone(&stop);
        let hot = hot.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = c.get(&hot);
            }
        })
    };
    assert!(
        eventually(Duration::from_secs(10), || dir.is_overridden(&hot)),
        "hot key was never promoted"
    );
    stop.store(true, Ordering::Relaxed);
    let _ = reader.join();

    let replicas = dir.replicas(&hot);
    assert_eq!(replicas.len(), 4);
    let in_heat_region = replicas
        .iter()
        .filter(|(node, _)| dir.region_of(*node) == heat_region)
        .count();
    // Primary + both remaining same-region nodes: the preferred-region fill
    // exhausts the heat region before falling back to ring-walk order.
    assert_eq!(
        in_heat_region, 3,
        "promotion ignored the heat region {heat_region}: {replicas:?}"
    );
    // The diversity pass still guarantees the other region holds a copy.
    assert_eq!(replicas.len() - in_heat_region, 1);
}

/// The storage half of the loop: sustained load adds nodes (with
/// rebalance), and a cooled-down cluster shrinks back to the floor by
/// removing the least-loaded node gracefully.
#[test]
fn storage_scaler_grows_under_load_and_shrinks_when_idle() {
    let net = instant_net();
    let cluster = launch(&net, 2, 1);
    let client = cluster.client();
    for i in 0..16 {
        client
            .put_lww(&Key::new(format!("s{i}")), Bytes::from_static(b"v"))
            .unwrap();
    }
    let elastic = cluster.spawn_elastic(
        ElasticConfig {
            tick_ms: 10.0,
            // Promotion effectively disabled: this test isolates scaling.
            promote_heat: 1e12,
            scaling: Some(ScalingConfig {
                high: 50.0,
                low: 5.0,
                min_units: 2,
                max_units: 4,
                units_per_scaleup: 1,
                up_ticks: 2,
                down_ticks: 3,
            }),
            ..ElasticConfig::default()
        },
        Arc::new(ScaleTimeline::new()),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..2 {
        let c = cluster.client();
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let _ = c.get(&Key::new(format!("s{}", (i * 7 + t) % 16)));
                i += 1;
            }
        }));
    }
    assert!(
        eventually(Duration::from_secs(15), || cluster.node_count() >= 3),
        "storage scaler never added a node (count {})",
        cluster.node_count()
    );
    assert!(elastic.stats().nodes_added >= 1);

    stop.store(true, Ordering::Relaxed);
    for w in writers {
        let _ = w.join();
    }
    assert!(
        eventually(Duration::from_secs(20), || cluster.node_count() == 2),
        "storage scaler never shrank back to the floor (count {})",
        cluster.node_count()
    );
    // The removal is only counted once the drain reports success, which is
    // after the node left the directory: wait on the stat.
    assert!(eventually(Duration::from_secs(5), || {
        elastic.stats().nodes_removed >= 1
    }));
    // The shrink drained gracefully: nothing went under-replicated.
    let (audit, _) = cluster.repair_until_replicated(8);
    assert!(audit.is_fully_replicated(), "{audit:?}");
}

/// System keys are written on every metrics tick by design; the promotion
/// policy must ignore them by default.
#[test]
fn system_keys_are_never_promoted() {
    let net = instant_net();
    let cluster = launch(&net, 3, 1);
    let client = cluster.client();
    let sys = cloudburst_anna::metrics::executor_metrics_key(1);
    client.put_lww(&sys, Bytes::from_static(b"m")).unwrap();
    let elastic = cluster.spawn_elastic(
        ElasticConfig {
            tick_ms: 10.0,
            promote_heat: 20.0,
            ..ElasticConfig::default()
        },
        Arc::new(ScaleTimeline::new()),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let c = cluster.client();
        let stop = Arc::clone(&stop);
        let sys = sys.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = c.get(&sys);
            }
        })
    };
    // Give the loop ample ticks to (wrongly) promote — 50, what 500 ms
    // covers at `tick_ms: 10.0` — then check it never did despite the key
    // being by far the hottest.
    assert!(
        eventually(Duration::from_secs(10), || elastic.stats().ticks >= 50),
        "the policy loop stopped ticking"
    );
    assert!(!cluster.directory().is_overridden(&sys));
    stop.store(true, Ordering::Relaxed);
    let _ = reader.join();
}

/// The heat telemetry itself: node stats rank a hammered key first.
#[test]
fn node_stats_report_hot_keys_and_load() {
    let net = instant_net();
    let cluster = launch(&net, 1, 1);
    let client = cluster.client();
    let hot = Key::new("hottest");
    client.put_lww(&hot, Bytes::from_static(b"v")).unwrap();
    client
        .put_lww(&Key::new("other"), Bytes::from_static(b"v"))
        .unwrap();
    for _ in 0..200 {
        let _ = client.get(&hot);
    }
    let stats = client.cluster_stats().unwrap();
    let s = &stats[0];
    assert!(s.load > 0.0);
    assert!(!s.hot_keys.is_empty());
    assert_eq!(
        s.hot_keys[0].0, hot,
        "hot_keys not ranked: {:?}",
        s.hot_keys
    );
    assert!(s.hot_keys[0].1 > 100.0);
}
