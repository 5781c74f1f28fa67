//! Cluster-level durability tests: node restarts recover from the WAL +
//! SSTable manifests, a full-cluster power loss at replication factor 1
//! loses zero acknowledged writes, and the WAL-before-ack group commit
//! holds under scripted disk faults.

use std::time::Duration;

use bytes::Bytes;
use cloudburst_anna::node::NodeConfig;
use cloudburst_anna::{AnnaCluster, AnnaConfig, Durability};
use cloudburst_lattice::{Capsule, Key, VectorClock};
use cloudburst_net::{NetConfig, Network};

fn instant_net() -> Network {
    Network::new(NetConfig::instant())
}

fn durable_config(nodes: usize, replication: usize, wal_sync_interval_ms: f64) -> AnnaConfig {
    AnnaConfig {
        nodes,
        replication,
        durability: Durability::InMemory,
        node: NodeConfig {
            wal_sync_interval_ms,
            ..NodeConfig::default()
        },
        ..AnnaConfig::default()
    }
}

fn key(i: usize) -> Key {
    Key::new(format!("durable:{i}"))
}

/// Wait until `check` passes or the deadline expires (for asynchronous
/// propagation like gossip).
fn eventually(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
    let start = std::time::Instant::now();
    loop {
        if check() {
            return true;
        }
        if start.elapsed() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn restart_node_recovers_every_acked_write() {
    let net = instant_net();
    let cluster = AnnaCluster::launch(&net, durable_config(3, 1, 0.0));
    let client = cluster.client();
    for i in 0..60 {
        client
            .put_lww(&key(i), Bytes::from(format!("v{i}")))
            .unwrap();
    }
    // Restart every node; at replication 1 any loss is immediately visible.
    for id in 0..3 {
        assert!(cluster.restart_node(id));
    }
    for i in 0..60 {
        let got = client.get(&key(i)).unwrap().expect("acked write lost");
        assert_eq!(got.read_value().as_ref(), format!("v{i}").as_bytes());
    }
    cluster.shutdown();
}

#[test]
fn power_loss_at_replication_1_loses_no_acked_writes() {
    let net = instant_net();
    // Batched group commit (the default cadence): acks wait for the sync
    // tick, so every *acknowledged* write must survive the power cut.
    let cluster = AnnaCluster::launch(&net, durable_config(3, 1, 2.0));
    let client = cluster.client();
    let mut acked = Vec::new();
    for i in 0..80 {
        client
            .put_lww(&key(i), Bytes::from(format!("v{i}")))
            .unwrap();
        acked.push(i);
    }
    cluster.power_loss();
    for i in acked {
        let got = client.get(&key(i)).unwrap().expect("acked write lost");
        assert_eq!(got.read_value().as_ref(), format!("v{i}").as_bytes());
    }
    cluster.shutdown();
}

#[test]
fn repeated_power_loss_with_interleaved_writes() {
    let net = instant_net();
    let cluster = AnnaCluster::launch(&net, durable_config(2, 1, 0.0));
    let client = cluster.client();
    let mut next = 0usize;
    for _round in 0..4 {
        for _ in 0..15 {
            client
                .put_lww(&key(next), Bytes::from(format!("v{next}")))
                .unwrap();
            next += 1;
        }
        cluster.power_loss();
    }
    for i in 0..next {
        let got = client.get(&key(i)).unwrap().expect("acked write lost");
        assert_eq!(got.read_value().as_ref(), format!("v{i}").as_bytes());
    }
    cluster.shutdown();
}

#[test]
fn power_loss_without_durability_is_amnesia() {
    let net = instant_net();
    let cluster = AnnaCluster::launch(
        &net,
        AnnaConfig {
            nodes: 2,
            replication: 1,
            durability: Durability::Off,
            node: NodeConfig::default(),
            ..AnnaConfig::default()
        },
    );
    let client = cluster.client();
    for i in 0..10 {
        client
            .put_lww(&key(i), Bytes::from_static(b"gone"))
            .unwrap();
    }
    cluster.power_loss();
    for i in 0..10 {
        assert!(client.get(&key(i)).unwrap().is_none());
    }
    // The cluster still serves fresh writes after the blackout.
    client.put_lww(&key(0), Bytes::from_static(b"new")).unwrap();
    assert!(client.get(&key(0)).unwrap().is_some());
    cluster.shutdown();
}

#[test]
fn real_files_survive_restart() {
    let net = instant_net();
    let cluster = AnnaCluster::launch(
        &net,
        AnnaConfig {
            nodes: 2,
            replication: 1,
            durability: Durability::OnDisk,
            node: NodeConfig {
                wal_sync_interval_ms: 0.0,
                ..NodeConfig::default()
            },
            ..AnnaConfig::default()
        },
    );
    let client = cluster.client();
    for i in 0..20 {
        client
            .put_lww(&key(i), Bytes::from(format!("v{i}")))
            .unwrap();
    }
    for id in 0..2 {
        assert!(cluster.restart_node(id));
    }
    for i in 0..20 {
        let got = client.get(&key(i)).unwrap().expect("acked write lost");
        assert_eq!(got.read_value().as_ref(), format!("v{i}").as_bytes());
    }
    cluster.shutdown();
}

#[test]
fn concurrent_causal_writes_survive_restart_merged() {
    let net = instant_net();
    let cluster = AnnaCluster::launch(&net, durable_config(2, 1, 0.0));
    let client = cluster.client();
    let k = Key::new("durable:causal");
    // Two causally-concurrent writers.
    client
        .put_causal(
            &k,
            VectorClock::singleton(1, 1),
            Vec::new(),
            Bytes::from_static(b"a"),
        )
        .unwrap();
    client
        .put_causal(
            &k,
            VectorClock::singleton(2, 1),
            Vec::new(),
            Bytes::from_static(b"b"),
        )
        .unwrap();
    cluster.power_loss();
    let got = client.get(&k).unwrap().expect("causal state lost");
    let Capsule::Causal(lat) = &got else {
        panic!("wrong kind after recovery");
    };
    assert_eq!(
        lat.versions().len(),
        2,
        "both concurrent versions must survive recovery"
    );
    cluster.shutdown();
}

#[test]
fn replicated_cluster_stays_consistent_through_rolling_restarts() {
    let net = instant_net();
    let cluster = AnnaCluster::launch(&net, durable_config(3, 2, 0.0));
    let client = cluster.client();
    for i in 0..40 {
        client
            .put_lww(&key(i), Bytes::from(format!("v{i}")))
            .unwrap();
    }
    // Let gossip settle so replicas converge before the restarts.
    assert!(eventually(Duration::from_secs(5), || {
        cluster.audit_replication().is_fully_replicated()
    }));
    for id in 0..3 {
        assert!(cluster.restart_node(id));
        // Reads must stay correct while one node at a time recovers.
        for i in 0..40 {
            let got = client
                .get(&key(i))
                .unwrap()
                .expect("read failed mid-restart");
            assert_eq!(got.read_value().as_ref(), format!("v{i}").as_bytes());
        }
    }
    cluster.shutdown();
}

#[test]
fn delete_tombstones_survive_power_loss() {
    let net = instant_net();
    let cluster = AnnaCluster::launch(&net, durable_config(2, 1, 0.0));
    let client = cluster.client();
    for i in 0..10 {
        client.put_lww(&key(i), Bytes::from_static(b"v")).unwrap();
    }
    for i in 0..5 {
        client.delete(&key(i)).unwrap();
    }
    cluster.power_loss();
    for i in 0..5 {
        assert!(
            client.get(&key(i)).unwrap().is_none(),
            "acked delete resurrected by recovery"
        );
    }
    for i in 5..10 {
        assert!(client.get(&key(i)).unwrap().is_some());
    }
    cluster.shutdown();
}
