//! End-to-end tests of the Anna cluster: storage semantics, replication,
//! cache-index propagation, tiering, and elasticity.

#![allow(
    clippy::disallowed_methods,
    reason = "test code may read the wall clock: it times its own waits"
)]

use std::time::Duration;

use bytes::Bytes;
use cloudburst_anna::msg::{MultiGetResponse, StorageRequest};
use cloudburst_anna::node::NodeConfig;
use cloudburst_anna::{AnnaClient, AnnaCluster, AnnaConfig, AnnaError, KeyUpdate};
use cloudburst_lattice::{Capsule, Key};
use cloudburst_net::{reply_channel, Batch, Endpoint, LatencyModel, NetConfig, Network, TimeScale};

fn instant_net() -> Network {
    Network::new(NetConfig::instant())
}

fn launch(net: &Network, nodes: usize, replication: usize) -> AnnaCluster {
    AnnaCluster::launch(
        net,
        AnnaConfig {
            nodes,
            replication,
            durability: cloudburst_anna::Durability::Off,
            node: NodeConfig::default(),
            ..AnnaConfig::default()
        },
    )
}

/// Wait until `check` passes or the deadline expires (for asynchronous
/// propagation like gossip or cache pushes).
fn eventually(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
    let start = std::time::Instant::now();
    while start.elapsed() < deadline {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

#[test]
fn put_get_roundtrip() {
    let net = instant_net();
    let cluster = launch(&net, 3, 2);
    let client = cluster.client();
    let key = Key::new("greeting");
    client.put_lww(&key, Bytes::from_static(b"hello")).unwrap();
    let capsule = client.get(&key).unwrap().expect("key must exist");
    assert_eq!(capsule.read_value().as_ref(), b"hello");
}

#[test]
fn get_missing_key_is_none() {
    let net = instant_net();
    let cluster = launch(&net, 2, 1);
    let client = cluster.client();
    assert!(client.get(&Key::new("nope")).unwrap().is_none());
}

#[test]
fn concurrent_lww_writes_converge_to_latest() {
    let net = instant_net();
    let cluster = launch(&net, 3, 2);
    let a = cluster.client();
    let b = cluster.client();
    let key = Key::new("contested");
    a.put_lww(&key, Bytes::from_static(b"from-a")).unwrap();
    b.put_lww(&key, Bytes::from_static(b"from-b")).unwrap();
    // b's timestamp is later (same wall clock, later issue) or concurrent
    // with a higher node id; either way the value must be deterministic and
    // equal from both clients' perspectives.
    let seen_a = a.get(&key).unwrap().unwrap().read_value();
    let seen_b = b.get(&key).unwrap().unwrap().read_value();
    assert_eq!(seen_a, seen_b);
}

#[test]
fn set_capsules_union_across_writers() {
    let net = instant_net();
    let cluster = launch(&net, 3, 1);
    let a = cluster.client();
    let b = cluster.client();
    let key = Key::new("inbox");
    a.add_to_set(&key, Bytes::from_static(b"m1")).unwrap();
    b.add_to_set(&key, Bytes::from_static(b"m2")).unwrap();
    a.add_to_set(&key, Bytes::from_static(b"m1")).unwrap(); // duplicate
    let capsule = a.get(&key).unwrap().unwrap();
    let values = capsule.set_values();
    assert_eq!(values.len(), 2);
}

#[test]
fn replicas_receive_gossip() {
    let net = instant_net();
    let cluster = launch(&net, 4, 3);
    let client = cluster.client();
    let key = Key::new("replicated");
    client.put_lww(&key, Bytes::from_static(b"v")).unwrap();

    // Ask each replica node directly (bypassing primary routing).
    let replicas = cluster.directory().replicas(&key);
    assert_eq!(replicas.len(), 3);
    for (_, addr) in replicas {
        let ok = eventually(Duration::from_secs(2), || {
            let (reply, waiter) = reply_channel(&net);
            net.send(
                client.addr(),
                addr,
                StorageRequest::MultiGet {
                    keys: vec![key.clone()],
                    reply,
                },
            )
            .unwrap();
            waiter
                .wait_timeout(Duration::from_secs(1))
                .is_ok_and(|r: MultiGetResponse| r.capsules[0].is_some())
        });
        assert!(ok, "replica at {addr} never received the gossip");
    }
}

#[test]
fn delete_removes_from_all_replicas() {
    let net = instant_net();
    let cluster = launch(&net, 3, 2);
    let client = cluster.client();
    let key = Key::new("ephemeral");
    client.put_lww(&key, Bytes::from_static(b"v")).unwrap();
    client.delete(&key).unwrap();
    assert!(eventually(Duration::from_secs(2), || {
        client.get(&key).unwrap().is_none()
    }));
}

/// Receive the next pushed [`KeyUpdate`], unwrapping the [`Batch`] envelope
/// that coalesced pushes travel in.
fn recv_key_update(cache: &Endpoint, timeout: Duration) -> Option<KeyUpdate> {
    let batch = cache.recv_timeout(timeout).ok()?.downcast::<Batch>().ok()?;
    batch
        .into_iter()
        .find_map(|item| item.downcast::<KeyUpdate>().ok().map(|u| *u))
}

#[test]
fn cache_index_pushes_updates_to_registered_caches() {
    let net = instant_net();
    let cluster = launch(&net, 3, 2);
    let client = cluster.client();
    let key = Key::new("watched");
    client.put_lww(&key, Bytes::from_static(b"v0")).unwrap();

    // Pretend to be a Cloudburst cache: register interest, then observe a push.
    let cache = net.register();
    client
        .register_cached_keys(cache.addr(), std::slice::from_ref(&key))
        .unwrap();
    client.put_lww(&key, Bytes::from_static(b"v1")).unwrap();

    let update = recv_key_update(&cache, Duration::from_secs(2))
        .expect("cache must receive a pushed update");
    assert_eq!(update.key, key);
    assert_eq!(update.capsule.read_value().as_ref(), b"v1");
}

#[test]
fn pushes_batch_per_cache_and_split_at_one_mib() {
    // One node, two registered caches, 41 × 64 KiB of merged keys landing
    // inside one gossip tick. A gossip batch merges without advancing the
    // dirty-byte early flush, so all 41 + 4 pushes go out in one flush:
    // each cache gets only its own keys, and a cache's batch is sent as
    // soon as it reaches 1 MiB (16 × 64 KiB).
    let net = instant_net();
    let cluster = launch(&net, 1, 1);
    let client = cluster.client();
    let (_, node_addr) = cluster.directory().nodes()[0];
    let key = |prefix: &str, i: usize| Key::new(format!("{prefix}-{i}"));
    let shared = Key::new("shared");
    let mut keys_a: Vec<Key> = (0..40).map(|i| key("a", i)).collect();
    let mut keys_b: Vec<Key> = (0..3).map(|i| key("b", i)).collect();
    keys_a.push(shared.clone());
    keys_b.push(shared.clone());
    let (cache_a, cache_b) = (net.register(), net.register());
    client
        .register_cached_keys(cache_a.addr(), &keys_a)
        .unwrap();
    client
        .register_cached_keys(cache_b.addr(), &keys_b)
        .unwrap();

    let value = Bytes::from(vec![7u8; 64 << 10]);
    let mut all: Vec<Key> = keys_a.clone();
    all.extend(keys_b.iter().filter(|k| **k != shared).cloned());
    let entries: Vec<(Key, Capsule)> = all
        .iter()
        .map(|k| {
            (
                k.clone(),
                Capsule::wrap_lww(client.next_timestamp(), value.clone()),
            )
        })
        .collect();
    net.send(
        client.addr(),
        node_addr,
        StorageRequest::GossipBatch { entries },
    )
    .unwrap();

    let receive = |cache: &Endpoint| -> Vec<Vec<Key>> {
        let mut batches = Vec::new();
        while let Ok(env) = cache.recv_timeout(Duration::from_millis(200)) {
            let batch = env.downcast::<Batch>().expect("pushes travel in batches");
            let updates = batch
                .into_iter()
                .map(|item| item.downcast::<KeyUpdate>().expect("a key update").key)
                .collect();
            batches.push(updates);
        }
        batches.sort_by_key(|b: &Vec<Key>| std::cmp::Reverse(b.len()));
        batches
    };
    let sorted = |keys: Vec<Vec<Key>>| {
        let mut keys: Vec<Key> = keys.into_iter().flatten().collect();
        keys.sort();
        keys
    };
    let batches_a = receive(&cache_a);
    let batches_b = receive(&cache_b);
    let sizes = |b: &[Vec<Key>]| b.iter().map(Vec::len).collect::<Vec<_>>();
    assert_eq!(sizes(&batches_a), [16, 16, 9], "cache a splits at 1 MiB");
    assert_eq!(sizes(&batches_b), [4], "cache b's pushes share one batch");
    keys_a.sort();
    keys_b.sort();
    assert_eq!(sorted(batches_a), keys_a, "cache a gets exactly its keys");
    assert_eq!(sorted(batches_b), keys_b, "cache b gets exactly its keys");
}

#[test]
fn multi_get_returns_all_keys_across_nodes() {
    let net = instant_net();
    let cluster = launch(&net, 4, 2);
    let client = cluster.client();
    let keys: Vec<Key> = (0..32).map(|i| Key::new(format!("mk{i}"))).collect();
    for (i, k) in keys.iter().enumerate() {
        client.put_lww(k, Bytes::from(format!("v{i}"))).unwrap();
    }
    let mut requested = keys.clone();
    requested.push(Key::new("absent"));
    let results = client.multi_get(&requested).unwrap();
    assert_eq!(results.len(), 33);
    for (i, capsule) in results.iter().take(32).enumerate() {
        let capsule = capsule.as_ref().expect("stored key present");
        assert_eq!(capsule.read_value().as_ref(), format!("v{i}").as_bytes());
    }
    assert!(results[32].is_none(), "absent key yields None in its slot");
}

#[test]
fn multi_put_merges_and_replicates() {
    let net = instant_net();
    let cluster = launch(&net, 3, 2);
    let client = cluster.client();
    let entries: Vec<(Key, Capsule)> = (0..16)
        .map(|i| {
            (
                Key::new(format!("mp{i}")),
                Capsule::wrap_lww(client.next_timestamp(), Bytes::from(format!("w{i}"))),
            )
        })
        .collect();
    client.multi_put(entries.clone()).unwrap();
    for (i, (key, _)) in entries.iter().enumerate() {
        let capsule = client.get(key).unwrap().expect("batched write visible");
        assert_eq!(capsule.read_value().as_ref(), format!("w{i}").as_bytes());
    }
    // Batched writes gossip like single writes: replicas converge.
    let key = &entries[0].0;
    let replicas = cluster.directory().replicas(key);
    assert_eq!(replicas.len(), 2);
    for idx in 0..2 {
        let ok = eventually(Duration::from_secs(2), || {
            client
                .get_spread(key, idx)
                .ok()
                .flatten()
                .is_some_and(|c| c.read_value().as_ref() == b"w0")
        });
        assert!(ok, "replica {idx} never converged after multi_put");
    }
}

#[test]
fn multi_get_spread_reads_chosen_replicas() {
    let net = instant_net();
    let cluster = launch(&net, 3, 2);
    let client = cluster.client();
    let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("sp{i}"))).collect();
    for k in &keys {
        client.put_lww(k, Bytes::from_static(b"v")).unwrap();
    }
    for idx in 0..2 {
        let ok = eventually(Duration::from_secs(2), || {
            client
                .multi_get_spread(&keys, idx)
                .is_ok_and(|r| r.iter().all(|c| c.is_some()))
        });
        assert!(ok, "spread index {idx} never served all keys");
    }
}

/// A scripted storage node that answers exactly `count` requests, recording
/// its `label` in `log` per visit and answering every `MultiGet` as a miss —
/// lets tests pin the client's exact replica visit order.
fn miss_node(
    net: &Network,
    label: u64,
    count: usize,
    log: std::sync::Arc<parking_lot::Mutex<Vec<u64>>>,
) -> (cloudburst_net::Address, std::thread::JoinHandle<()>) {
    let ep = net.register();
    let addr = ep.addr();
    let handle = std::thread::spawn(move || {
        for _ in 0..count {
            let env = ep.recv().unwrap();
            match env.downcast::<StorageRequest>() {
                Ok(StorageRequest::MultiGet { keys, reply }) => {
                    log.lock().push(label);
                    reply.reply(MultiGetResponse {
                        capsules: vec![None; keys.len()],
                    });
                }
                _ => panic!("unexpected request at scripted node {label}"),
            }
        }
    });
    (addr, handle)
}

#[test]
fn get_failover_visits_replicas_in_plan_order() {
    // Regression pin: the miss walk of `get` visits the read plan in order,
    // and `get_spread(idx)` rotates the whole list on a flat (single-region)
    // deployment — the historical pre-region behavior, byte for byte.
    let net = instant_net();
    let dir = std::sync::Arc::new(cloudburst_anna::Directory::new(3));
    let log = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for id in 0..3u64 {
        // Two reads below → each replica is visited exactly twice.
        let (addr, h) = miss_node(&net, id, 2, log.clone());
        dir.add_node(id, addr);
        handles.push(h);
    }
    let client = AnnaClient::new(&net, dir.clone());
    let key = Key::new("probe");
    let plan: Vec<u64> = dir
        .read_plan(&key, 0)
        .replicas
        .iter()
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(plan.len(), 3);

    assert!(client.get(&key).unwrap().is_none());
    assert_eq!(*log.lock(), plan, "miss walk must follow the plan");

    log.lock().clear();
    assert!(client.get_spread(&key, 1).unwrap().is_none());
    assert_eq!(
        *log.lock(),
        vec![plan[1], plan[2], plan[0]],
        "spread start rotates the flat plan"
    );
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn failover_visits_local_region_replicas_before_remote_ones() {
    // Two regions, every node a replica: a client's miss walk must exhaust
    // its own region's replicas before crossing to the other region, in
    // exactly the read plan's order.
    let net = instant_net();
    let dir = std::sync::Arc::new(cloudburst_anna::Directory::new(4));
    let log = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for id in 0..4u64 {
        // One full miss walk per client region → two visits per node.
        let (addr, h) = miss_node(&net, id, 2, log.clone());
        dir.add_node_in(id, addr, (id / 2) as u16);
        handles.push(h);
    }
    let key = Key::new("geo-probe");
    for region in [0u16, 1] {
        let client = AnnaClient::new_in(&net, dir.clone(), region);
        let plan = dir.read_plan(&key, region);
        assert_eq!(plan.local, 2, "both of the region's nodes lead the plan");
        for (id, _) in &plan.replicas[..plan.local] {
            assert_eq!(dir.region_of(*id), region);
        }
        let order: Vec<u64> = plan.replicas.iter().map(|(id, _)| *id).collect();
        log.lock().clear();
        assert!(client.get(&key).unwrap().is_none());
        assert_eq!(
            *log.lock(),
            order,
            "region {region} client must walk local replicas first"
        );
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn multi_get_spread_walks_replicas_in_rotated_plan_order() {
    // The batched read's per-round replica preference matches `get_spread`:
    // round k goes to plan[(start + k) % n] on a flat deployment.
    let net = instant_net();
    let dir = std::sync::Arc::new(cloudburst_anna::Directory::new(2));
    let log = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for id in 0..2u64 {
        // Two batched miss reads below → two MultiGets per node.
        let (addr, h) = miss_node(&net, id, 2, log.clone());
        dir.add_node(id, addr);
        handles.push(h);
    }
    let client = AnnaClient::new(&net, dir.clone());
    let keys = vec![Key::new("batched-probe")];
    let plan: Vec<u64> = dir
        .read_plan(&keys[0], 0)
        .replicas
        .iter()
        .map(|(id, _)| *id)
        .collect();

    let out = client.multi_get(&keys).unwrap();
    assert_eq!(out, vec![None]);
    assert_eq!(*log.lock(), plan, "start 0 walks the plan in order");

    log.lock().clear();
    let out = client.multi_get_spread(&keys, 1).unwrap();
    assert_eq!(out, vec![None]);
    assert_eq!(
        *log.lock(),
        vec![plan[1], plan[0]],
        "spread start rotates the batched walk"
    );
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn reads_fail_over_past_a_dead_replica_in_plan_order() {
    // The plan's first replica dies mid-request; the read must recover from
    // the second without surfacing an error.
    let net = instant_net();
    let dir = std::sync::Arc::new(cloudburst_anna::Directory::new(2));
    let ep_a = net.register();
    let ep_b = net.register();
    dir.add_node(0, ep_a.addr());
    dir.add_node(1, ep_b.addr());
    let key = Key::new("doomed-primary");
    let first = dir.read_plan(&key, 0).replicas[0].0;
    let (dead_ep, live_ep) = if first == 0 {
        (ep_a, ep_b)
    } else {
        (ep_b, ep_a)
    };

    let client = AnnaClient::new(&net, dir);
    let capsule = Capsule::wrap_lww(client.next_timestamp(), Bytes::from_static(b"rescued"));
    let dead = std::thread::spawn(move || {
        // Accept the request and vanish without replying.
        drop(dead_ep.recv().unwrap());
    });
    let live =
        std::thread::spawn(
            move || match live_ep.recv().unwrap().downcast::<StorageRequest>() {
                Ok(StorageRequest::MultiGet { keys, reply }) => {
                    assert_eq!(keys, vec![Key::new("doomed-primary")]);
                    reply.reply(MultiGetResponse {
                        capsules: vec![Some(capsule)],
                    })
                }
                _ => panic!("expected a failover MultiGet"),
            },
        );
    let got = client.get(&key).unwrap().expect("second replica serves");
    assert_eq!(got.read_value().as_ref(), b"rescued");
    dead.join().unwrap();
    live.join().unwrap();
}

#[test]
fn writes_fail_over_past_a_dead_first_replica() {
    // Every write walks the key's replicas in placement order. The first
    // replica either accepts the request and vanishes without acking, or is
    // down outright (its sends are rejected); each write must land on the
    // second replica as a one-entry `MultiPut` or a `Delete`. A
    // fire-and-forget `put_async` cannot see a dropped request, so it is
    // only run against a rejecting first replica.
    type Write = fn(&AnnaClient, &Key) -> Result<(), AnnaError>;
    let put: Write = |c, k| c.put(k, Capsule::wrap_lww(c.next_timestamp(), Bytes::new()));
    let put_async: Write =
        |c, k| c.put_async(k, Capsule::wrap_lww(c.next_timestamp(), Bytes::new()));
    let delete: Write = |c, k| c.delete(k);
    let cases = [
        ("put", put, false, "MultiPut"),
        ("put", put, true, "MultiPut"),
        ("put_async", put_async, true, "MultiPut"),
        ("delete", delete, false, "Delete"),
        ("delete", delete, true, "Delete"),
    ];
    for (name, write, first_rejects, message) in cases {
        let net = instant_net();
        let dir = std::sync::Arc::new(cloudburst_anna::Directory::new(2));
        let ep_a = net.register();
        let ep_b = net.register();
        dir.add_node(0, ep_a.addr());
        dir.add_node(1, ep_b.addr());
        let key = Key::new("doomed-write");
        let first = dir.replicas(&key)[0].0;
        let (dead_ep, live_ep) = if first == 0 {
            (ep_a, ep_b)
        } else {
            (ep_b, ep_a)
        };
        let dead = if first_rejects {
            net.kill(dead_ep.addr());
            None
        } else {
            // Accept the request and vanish without replying.
            Some(std::thread::spawn(move || drop(dead_ep.recv().unwrap())))
        };
        let expect = key.clone();
        let live = std::thread::spawn(move || {
            match live_ep.recv().unwrap().downcast::<StorageRequest>() {
                Ok(StorageRequest::MultiPut { entries, reply }) => {
                    assert_eq!(entries.len(), 1);
                    assert_eq!(entries[0].0, expect);
                    if let Some(reply) = reply {
                        reply.reply(cloudburst_anna::MultiPutResponse { merged: 1 });
                    }
                    "MultiPut"
                }
                Ok(StorageRequest::Delete { key, reply }) => {
                    assert_eq!(key, expect);
                    reply.expect("delete waits for an ack").reply(());
                    "Delete"
                }
                _ => panic!("expected a one-entry MultiPut or a Delete"),
            }
        });
        let client = AnnaClient::new(&net, dir);
        write(&client, &key)
            .unwrap_or_else(|e| panic!("{name} (first rejects: {first_rejects}) failed: {e}"));
        assert_eq!(
            live.join().unwrap(),
            message,
            "{name} reached the second replica as the wrong message"
        );
        if let Some(dead) = dead {
            dead.join().unwrap();
        }
    }
}

#[test]
fn get_spread_and_multi_get_spread_share_one_rotation() {
    // For a key whose replication was raised, a spread read starts at its
    // explicit index plus the client's spread cursor, whichever API makes
    // it: `get_spread(k, i)` and `multi_get_spread(&[k], i)` start where the
    // other would have, so consecutive calls step one replica along the
    // plan no matter how they alternate, and each miss walk visits the
    // whole plan rotated to its start.
    let net = instant_net();
    let dir = std::sync::Arc::new(cloudburst_anna::Directory::new(1));
    let log = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    const CALLS: usize = 4;
    for id in 0..3u64 {
        // Every call below is a full miss walk → one visit per node each.
        let (addr, h) = miss_node(&net, id, CALLS, log.clone());
        dir.add_node(id, addr);
        handles.push(h);
    }
    let key = Key::new("raised");
    dir.set_replication_override(key.clone(), 3);
    let plan = dir.read_plan(&key, 0);
    assert!(plan.overridden);
    let plan: Vec<u64> = plan.replicas.iter().map(|(id, _)| *id).collect();
    assert_eq!(plan.len(), 3);

    let client = AnnaClient::new(&net, dir);
    for call in 0..CALLS {
        if call % 2 == 0 {
            assert!(client.get_spread(&key, 1).unwrap().is_none());
        } else {
            assert_eq!(
                client
                    .multi_get_spread(std::slice::from_ref(&key), 1)
                    .unwrap(),
                vec![None]
            );
        }
    }
    let log = log.lock().clone();
    assert_eq!(log.len(), 3 * CALLS);
    let first = plan.iter().position(|&id| id == log[0]).unwrap();
    for call in 0..CALLS {
        let walk: Vec<u64> = (0..3).map(|i| plan[(first + call + i) % 3]).collect();
        assert_eq!(
            log[3 * call..3 * call + 3],
            walk[..],
            "call {call} must start one replica past the previous call"
        );
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn dead_node_surfaces_as_disconnected_not_timeout() {
    // A node that accepts a request and then goes away must surface as
    // `Disconnected` (definitive failure) rather than burning the client's
    // full timeout — the regression this distinguishes is an executor
    // retrying a dead peer forever on `Timeout`.
    let net = instant_net();
    let directory = std::sync::Arc::new(cloudburst_anna::Directory::new(1));
    let fake_node = net.register();
    directory.add_node(0, fake_node.addr());
    let client = AnnaClient::new(&net, directory).with_timeout(Duration::from_secs(30));
    let key = Key::new("doomed");
    let handle = std::thread::spawn(move || {
        // Receive the read and drop it without replying, as a node thread
        // that exits mid-request does.
        let env = fake_node.recv().unwrap();
        drop(env);
    });
    let start = std::time::Instant::now();
    let err = client.get(&key).unwrap_err();
    handle.join().unwrap();
    assert_eq!(err, AnnaError::Disconnected);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "disconnect must surface promptly, not after the 30 s timeout"
    );
}

#[test]
fn keyset_snapshot_diffing_unsubscribes_dropped_keys() {
    let net = instant_net();
    let cluster = launch(&net, 2, 1);
    let client = cluster.client();
    let key = Key::new("cooling");
    client.put_lww(&key, Bytes::from_static(b"v0")).unwrap();

    let cache = net.register();
    client
        .register_cached_keys(cache.addr(), std::slice::from_ref(&key))
        .unwrap();
    // New snapshot without the key: the cache evicted it.
    client.register_cached_keys(cache.addr(), &[]).unwrap();
    client.put_lww(&key, Bytes::from_static(b"v1")).unwrap();
    assert!(
        cache.recv_timeout(Duration::from_millis(100)).is_err(),
        "no update may be pushed after the key left the snapshot"
    );
}

#[test]
fn unregister_cache_stops_all_pushes() {
    let net = instant_net();
    let cluster = launch(&net, 2, 1);
    let client = cluster.client();
    let keys: Vec<Key> = (0..5).map(|i| Key::new(format!("k{i}"))).collect();
    for k in &keys {
        client.put_lww(k, Bytes::from_static(b"v")).unwrap();
    }
    let cache = net.register();
    client.register_cached_keys(cache.addr(), &keys).unwrap();
    client.unregister_cache(cache.addr()).unwrap();
    for k in &keys {
        client.put_lww(k, Bytes::from_static(b"v2")).unwrap();
    }
    assert!(cache.recv_timeout(Duration::from_millis(100)).is_err());
}

#[test]
fn adding_a_node_rebalances_and_preserves_data() {
    let net = instant_net();
    let cluster = launch(&net, 3, 2);
    let client = cluster.client();
    let keys: Vec<Key> = (0..200).map(|i| Key::new(format!("data-{i}"))).collect();
    for (i, k) in keys.iter().enumerate() {
        client
            .put_lww(k, Bytes::from(format!("value-{i}")))
            .unwrap();
    }
    let new_node = cluster.add_node();
    assert_eq!(cluster.node_count(), 4);
    assert!(cluster.directory().address_of(new_node).is_some());
    for (i, k) in keys.iter().enumerate() {
        let ok = eventually(Duration::from_secs(3), || {
            client
                .get(k)
                .ok()
                .flatten()
                .is_some_and(|c| c.read_value().as_ref() == format!("value-{i}").as_bytes())
        });
        assert!(ok, "key {k} lost after rebalance");
    }
}

#[test]
fn removing_a_node_preserves_data() {
    let net = instant_net();
    let cluster = launch(&net, 4, 2);
    let client = cluster.client();
    let keys: Vec<Key> = (0..200).map(|i| Key::new(format!("data-{i}"))).collect();
    for (i, k) in keys.iter().enumerate() {
        client
            .put_lww(k, Bytes::from(format!("value-{i}")))
            .unwrap();
    }
    assert!(cluster.remove_node(2));
    assert_eq!(cluster.node_count(), 3);
    for (i, k) in keys.iter().enumerate() {
        let ok = eventually(Duration::from_secs(3), || {
            client
                .get(k)
                .ok()
                .flatten()
                .is_some_and(|c| c.read_value().as_ref() == format!("value-{i}").as_bytes())
        });
        assert!(ok, "key {k} lost after node removal");
    }
}

#[test]
fn removing_unknown_node_is_noop() {
    let net = instant_net();
    let cluster = launch(&net, 2, 1);
    assert!(!cluster.remove_node(99));
    assert_eq!(cluster.node_count(), 2);
}

#[test]
fn hot_key_replication_spreads_copies() {
    let net = instant_net();
    let cluster = launch(&net, 4, 1);
    let client = cluster.client();
    let key = Key::new("hot");
    client.put_lww(&key, Bytes::from_static(b"spicy")).unwrap();
    cluster.set_key_replication(&key, 3);
    assert_eq!(cluster.directory().replicas(&key).len(), 3);
    // All three replicas eventually serve reads.
    for idx in 0..3 {
        let ok = eventually(Duration::from_secs(2), || {
            client
                .get_spread(&key, idx)
                .ok()
                .flatten()
                .is_some_and(|c| c.read_value().as_ref() == b"spicy")
        });
        assert!(ok, "replica {idx} never materialized");
    }
}

#[test]
fn disk_tier_spill_is_reported_in_stats() {
    let net = instant_net();
    let cluster = AnnaCluster::launch(
        &net,
        AnnaConfig {
            nodes: 1,
            replication: 1,
            durability: cloudburst_anna::Durability::InMemory,
            node: NodeConfig {
                memory_capacity_bytes: 64, // tiny: force spills
                disk_latency: LatencyModel::Zero,
                ..NodeConfig::default()
            },
            ..AnnaConfig::default()
        },
    );
    let client = cluster.client();
    for i in 0..32 {
        client
            .put_lww(&Key::new(format!("k{i}")), Bytes::from(vec![0u8; 16]))
            .unwrap();
    }
    let stats = client.cluster_stats().unwrap();
    let total: usize = stats.iter().map(|s| s.key_count).sum();
    let disk: usize = stats.iter().map(|s| s.disk_keys).sum();
    assert_eq!(total, 32);
    assert!(disk > 0, "tiny memory tier must have spilled");
}

#[test]
fn memory_only_node_never_spills() {
    // Without a durable engine there is nowhere to spill to: the memory
    // budget does not apply, every key stays in memory and is served.
    let net = instant_net();
    let cluster = AnnaCluster::launch(
        &net,
        AnnaConfig {
            nodes: 1,
            replication: 1,
            durability: cloudburst_anna::Durability::Off,
            node: NodeConfig {
                memory_capacity_bytes: 64,
                ..NodeConfig::default()
            },
            ..AnnaConfig::default()
        },
    );
    let client = cluster.client();
    for i in 0..32 {
        client
            .put_lww(&Key::new(format!("k{i}")), Bytes::from(vec![i as u8; 16]))
            .unwrap();
    }
    for i in 0..32 {
        let got = client.get(&Key::new(format!("k{i}"))).unwrap();
        assert_eq!(got.unwrap().read_value().as_ref(), &[i as u8; 16][..]);
    }
    let stats = client.cluster_stats().unwrap();
    assert_eq!(stats.iter().map(|s| s.key_count).sum::<usize>(), 32);
    assert_eq!(stats.iter().map(|s| s.disk_keys).sum::<usize>(), 0);
}

#[test]
fn disk_tier_adds_latency() {
    // Memory tier holds only a few keys; disk reads carry a 5 paper-ms
    // penalty at 1:1 scale.
    let net = Network::new(NetConfig {
        time_scale: TimeScale::REAL_TIME,
        default_latency: LatencyModel::Zero,
        seed: 3,
        ..NetConfig::default()
    });
    let cluster = AnnaCluster::launch(
        &net,
        AnnaConfig {
            nodes: 1,
            replication: 1,
            durability: cloudburst_anna::Durability::InMemory,
            node: NodeConfig {
                memory_capacity_bytes: 64,
                disk_latency: LatencyModel::Constant { ms: 5.0 },
                ..NodeConfig::default()
            },
            ..AnnaConfig::default()
        },
    );
    let client = cluster.client();
    for i in 0..16 {
        client
            .put_lww(&Key::new(format!("k{i}")), Bytes::from(vec![0u8; 16]))
            .unwrap();
    }
    // k0 is long-evicted; a cold read must take ≥ 5 ms.
    let start = std::time::Instant::now();
    let got = client.get(&Key::new("k0")).unwrap();
    let cold = start.elapsed();
    assert!(got.is_some());
    assert!(
        cold >= Duration::from_millis(4),
        "cold read too fast: {cold:?}"
    );
    // Now promoted: a warm read is fast.
    let start = std::time::Instant::now();
    client.get(&Key::new("k0")).unwrap();
    let warm = start.elapsed();
    assert!(
        warm < cold,
        "warm read ({warm:?}) must beat cold ({cold:?})"
    );
}

#[test]
fn stats_count_requests() {
    let net = instant_net();
    let cluster = launch(&net, 2, 1);
    let client = cluster.client();
    let key = Key::new("counted");
    client.put_lww(&key, Bytes::from_static(b"v")).unwrap();
    for _ in 0..5 {
        client.get(&key).unwrap();
    }
    let stats = client.cluster_stats().unwrap();
    let gets: u64 = stats.iter().map(|s| s.gets_served).sum();
    let puts: u64 = stats.iter().map(|s| s.puts_served).sum();
    assert_eq!(gets, 5);
    assert!(puts >= 1);
}

#[test]
fn get_fails_over_when_a_replica_dies_midflight() {
    // Regression (PR 3 satellite): `get`/`get_spread` used to return
    // `Disconnected`/`Timeout` without trying the remaining replicas. A node
    // that dies *before failure detection updates the directory* must cost a
    // failover hop, not an error.
    let net = instant_net();
    let cluster = launch(&net, 3, 2);
    let client = cluster.client();
    let keys: Vec<Key> = (0..50).map(|i| Key::new(format!("fo-{i}"))).collect();
    for (i, k) in keys.iter().enumerate() {
        // Replicated write: both replicas are known to hold the value.
        client
            .put_replicated(
                k,
                Capsule::wrap_lww(client.next_timestamp(), Bytes::from(format!("v{i}"))),
                2,
            )
            .unwrap();
    }
    // Kill one node's endpoint WITHOUT touching the directory: clients still
    // route to it and must fail over.
    let (_, dead_addr) = cluster.directory().nodes()[0];
    net.kill(dead_addr);
    for (i, k) in keys.iter().enumerate() {
        let got = client.get(k).unwrap().expect("failover must find the key");
        assert_eq!(got.read_value().as_ref(), format!("v{i}").as_bytes());
        let got = client
            .get_spread(k, 1)
            .unwrap()
            .expect("spread reads fail over too");
        assert_eq!(got.read_value().as_ref(), format!("v{i}").as_bytes());
    }
    net.heal(dead_addr); // let shutdown drain cleanly
}

#[test]
fn multi_get_fails_over_when_a_node_dies_midflight() {
    let net = instant_net();
    let cluster = launch(&net, 4, 2);
    let client = cluster.client();
    let keys: Vec<Key> = (0..64).map(|i| Key::new(format!("mfo-{i}"))).collect();
    for (i, k) in keys.iter().enumerate() {
        client
            .put_replicated(
                k,
                Capsule::wrap_lww(client.next_timestamp(), Bytes::from(format!("v{i}"))),
                2,
            )
            .unwrap();
    }
    let (_, dead_addr) = cluster.directory().nodes()[1];
    net.kill(dead_addr);
    let results = client.multi_get(&keys).unwrap();
    for (i, capsule) in results.iter().enumerate() {
        let capsule = capsule.as_ref().expect("every key served via failover");
        assert_eq!(capsule.read_value().as_ref(), format!("v{i}").as_bytes());
    }
    net.heal(dead_addr);
}

/// A 2-node, replication-2 cluster whose periodic gossip is effectively
/// off, holding one key only its primary has seen: the secondary converges
/// only if something pushes the value to it explicitly.
struct LaggingReplica {
    net: Network,
    _cluster: AnnaCluster,
    client: AnnaClient,
    key: Key,
    primary: cloudburst_net::Address,
    secondary: cloudburst_net::Address,
}

impl LaggingReplica {
    fn launch() -> Self {
        let net = instant_net();
        let cluster = AnnaCluster::launch(
            &net,
            AnnaConfig {
                nodes: 2,
                replication: 2,
                durability: cloudburst_anna::Durability::Off,
                node: NodeConfig {
                    gossip_interval_ms: 3_600_000.0,
                    ..NodeConfig::default()
                },
                ..AnnaConfig::default()
            },
        );
        let client = cluster.client();
        let key = Key::new("repairable");
        client.put_lww(&key, Bytes::from_static(b"v")).unwrap(); // primary-only ack
        let replicas = cluster.directory().replicas(&key);
        assert_eq!(replicas.len(), 2);
        let fixture = Self {
            net,
            _cluster: cluster,
            client,
            key,
            primary: replicas[0].1,
            secondary: replicas[1].1,
        };
        assert!(
            fixture.secondary_value().is_none(),
            "secondary must start lagging for this test to mean anything"
        );
        fixture
    }

    /// Direct node read of the secondary (no client-side failover).
    fn secondary_value(&self) -> Option<Capsule> {
        let (reply, waiter) = reply_channel(&self.net);
        self.net
            .send(
                self.client.addr(),
                self.secondary,
                StorageRequest::MultiGet {
                    keys: vec![self.key.clone()],
                    reply,
                },
            )
            .unwrap();
        waiter
            .wait_timeout(Duration::from_secs(1))
            .ok()
            .and_then(|r: MultiGetResponse| r.capsules.into_iter().next().flatten())
    }
}

#[test]
fn failover_read_repairs_lagging_replica() {
    // A replica that answers `None` while a peer holds the value is lagging;
    // the read that discovers this pushes the capsule back to it.
    let f = LaggingReplica::launch();
    // A spread read starting at the lagging secondary falls through to the
    // primary and repairs the secondary on the way out.
    let got = f.client.get_spread(&f.key, 1).unwrap().unwrap();
    assert_eq!(got.read_value().as_ref(), b"v");
    assert!(
        eventually(Duration::from_secs(2), || f.secondary_value().is_some()),
        "read repair never reached the lagging replica"
    );
}

#[test]
fn replicate_materializes_the_value_on_a_lagging_replica() {
    // Forced propagation bypasses the gossip window: the holder pushes its
    // current state to every other replica at once.
    let f = LaggingReplica::launch();
    f.net
        .send(
            f.client.addr(),
            f.primary,
            StorageRequest::Replicate { key: f.key.clone() },
        )
        .unwrap();
    assert!(
        eventually(Duration::from_secs(2), || {
            f.secondary_value()
                .is_some_and(|c| c.read_value().as_ref() == b"v")
        }),
        "Replicate never reached the lagging replica"
    );
}

#[test]
fn zero_gossip_window_still_batches_and_does_not_busy_tick() {
    // `gossip_interval_ms = 0.0` is the 100 µs floor, not per-write gossip.
    // A spy endpoint joins the directory as the hot key's second replica, so
    // the one real node gossips to it and every delta entry can be counted.
    let net = instant_net();
    let cluster = AnnaCluster::launch(
        &net,
        AnnaConfig {
            nodes: 1,
            replication: 1,
            durability: cloudburst_anna::Durability::Off,
            node: NodeConfig {
                gossip_interval_ms: 0.0,
                ..NodeConfig::default()
            },
            ..AnnaConfig::default()
        },
    );
    let (node, node_addr) = cluster.directory().nodes()[0];
    let spy = net.register();
    cluster.directory().add_node(99, spy.addr());
    let key = (0..)
        .map(|i| Key::new(format!("hot-{i}")))
        .find(|k| cluster.directory().primary(k).map(|(n, _)| n) == Some(node))
        .unwrap();
    cluster.directory().set_replication_override(key.clone(), 2);

    // N writes to one key handled inside one poll, i.e. inside one window.
    const WRITES: usize = 32;
    let client = cluster.client();
    let entries: Vec<(Key, Capsule)> = (0..WRITES)
        .map(|i| {
            let capsule = Capsule::wrap_lww(client.next_timestamp(), Bytes::from(format!("w{i}")));
            (key.clone(), capsule)
        })
        .collect();
    let (reply, waiter) = reply_channel(&net);
    net.send(
        client.addr(),
        node_addr,
        StorageRequest::MultiPut {
            entries,
            reply: Some(reply),
        },
    )
    .unwrap();
    let ack: cloudburst_anna::MultiPutResponse =
        waiter.wait_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!(ack.merged, WRITES);

    let mut gossiped = Vec::new();
    while let Ok(env) = spy.recv_timeout(Duration::from_millis(100)) {
        if let Ok(StorageRequest::GossipBatch { entries }) = env.downcast::<StorageRequest>() {
            gossiped.extend(entries);
        }
    }
    assert_eq!(
        gossiped.len(),
        1,
        "{WRITES} writes must collapse to one entry"
    );
    assert_eq!(gossiped[0].0, key);
    let last = format!("w{}", WRITES - 1);
    assert_eq!(gossiped[0].1.read_value().as_ref(), last.as_bytes());

    // The idle node re-arms its flush a full floor-window ahead each time.
    let fires_before = cluster.runtime_stats().timer_fires;
    let idle = std::time::Instant::now();
    std::thread::sleep(Duration::from_millis(50));
    let windows = idle.elapsed().as_micros() as u64 / 100;
    let fires = cluster.runtime_stats().timer_fires - fires_before;
    assert!(
        fires <= windows + 64,
        "{fires} timer fires in {windows} floor windows: the node busy-ticks"
    );
}

#[test]
fn crash_node_preserves_acked_writes_and_restores_replication() {
    // The PR's acceptance scenario: with replication ≥ 2, crash a storage
    // node mid-workload. Every previously acknowledged write stays readable,
    // in-flight ops succeed via failover, and anti-entropy restores the
    // replication factor (verified by the directory/store audit).
    let net = instant_net();
    let cluster = launch(&net, 4, 2);
    let client = cluster.client();
    let write = |i: usize| {
        let key = Key::new(format!("acked-{i}"));
        client
            .put_replicated(
                &key,
                Capsule::wrap_lww(client.next_timestamp(), Bytes::from(format!("value-{i}"))),
                2,
            )
            .unwrap();
        key
    };
    let mut keys: Vec<Key> = (0..100).map(write).collect();
    let victim = cluster.directory().nodes()[2].0;
    assert!(cluster.crash_node(victim));
    assert_eq!(cluster.node_count(), 3);
    // The workload continues through the crash.
    keys.extend((100..150).map(write));
    for (i, k) in keys.iter().enumerate() {
        let got = client.get(k).unwrap().expect("acked write lost");
        assert_eq!(got.read_value().as_ref(), format!("value-{i}").as_bytes());
    }
    let (audit, _) = cluster.repair_until_replicated(10);
    assert!(
        audit.is_fully_replicated(),
        "replication factor not restored: {audit:?}"
    );
    assert!(audit.keys >= keys.len());
    // Crashing an already-crashed (or unknown) node is a no-op.
    assert!(!cluster.crash_node(victim));
}

#[test]
fn anti_entropy_repairs_manual_ring_change() {
    // Bypass `crash_node`'s built-in repair to verify the audit actually
    // detects under-replication and anti-entropy actually fixes it.
    let net = instant_net();
    let cluster = launch(&net, 3, 2);
    let client = cluster.client();
    for i in 0..80 {
        client
            .put_replicated(
                &Key::new(format!("ae-{i}")),
                Capsule::wrap_lww(client.next_timestamp(), Bytes::from_static(b"v")),
                2,
            )
            .unwrap();
    }
    let (victim, victim_addr) = cluster.directory().nodes()[0];
    net.kill(victim_addr);
    cluster.directory().remove_node(victim);
    let before = cluster.audit_replication();
    assert!(
        before.under_replicated > 0,
        "removing a replica without repair must under-replicate some keys"
    );
    let (after, _) = cluster.repair_until_replicated(10);
    assert!(after.is_fully_replicated(), "repair failed: {after:?}");
    // Heal the manually-killed endpoint so cluster shutdown can join it
    // (tests that crash via `crash_node` get this for free).
    net.heal(victim_addr);
}

#[test]
fn anti_entropy_pushes_from_non_primary_members() {
    // After churn, a key's only surviving copy can sit on a *non-primary*
    // replica (e.g. a freshly joined node became primary empty-handed). The
    // rebalance pass must push from every holding member, not just the
    // primary, or the replication factor is never restored.
    let net = instant_net();
    let cluster = AnnaCluster::launch(
        &net,
        AnnaConfig {
            nodes: 2,
            replication: 2,
            durability: cloudburst_anna::Durability::Off,
            node: NodeConfig {
                // Disable periodic gossip: only anti-entropy may spread it.
                gossip_interval_ms: 3_600_000.0,
                ..NodeConfig::default()
            },
            ..AnnaConfig::default()
        },
    );
    let client = cluster.client();
    let key = Key::new("orphaned");
    let replicas = cluster.directory().replicas(&key);
    assert_eq!(replicas.len(), 2);
    let (_, secondary_addr) = replicas[1];
    // Plant the value on the secondary only (direct node write).
    let (reply, waiter) = reply_channel(&net);
    net.send(
        client.addr(),
        secondary_addr,
        StorageRequest::MultiPut {
            entries: vec![(
                key.clone(),
                Capsule::wrap_lww(client.next_timestamp(), Bytes::from_static(b"v")),
            )],
            reply: Some(reply),
        },
    )
    .unwrap();
    let _: cloudburst_anna::MultiPutResponse = waiter.wait_timeout(Duration::from_secs(2)).unwrap();
    let before = cluster.audit_replication();
    assert_eq!(
        before.under_replicated, 1,
        "the primary must start without a copy"
    );
    let (after, _) = cluster.repair_until_replicated(5);
    assert!(
        after.is_fully_replicated(),
        "non-primary member never pushed: {after:?}"
    );
}

#[test]
fn remove_node_drain_failure_reinserts_the_victim() {
    // Regression (PR 3 satellite): `remove_node` used to drop the victim
    // from the directory and proceed even when the drain handoff never
    // happened — acknowledged data whose only copy sat on the victim was
    // silently lost. A failed drain must leave the node in service.
    let net = instant_net();
    let cluster = launch(&net, 3, 2);
    let client = cluster.client();
    for i in 0..40 {
        // Durable 2-ack writes: single-ack writes may legitimately die with
        // a node killed inside the gossip window.
        client
            .put_replicated(
                &Key::new(format!("drain-{i}")),
                Capsule::wrap_lww(client.next_timestamp(), Bytes::from(format!("v{i}"))),
                2,
            )
            .unwrap();
    }
    let (victim, victim_addr) = cluster.directory().nodes()[1];
    // The victim's endpoint dies before the drain is requested.
    net.kill(victim_addr);
    assert_eq!(
        cluster.try_remove_node(victim),
        Err(cloudburst_anna::RemoveNodeError::DrainFailed)
    );
    assert!(!cluster.remove_node(victim), "bool API agrees");
    assert_eq!(
        cluster.node_count(),
        3,
        "failed drain must re-insert the victim"
    );
    // The right tool for a dead node is crash_node, which repairs instead of
    // draining; afterwards everything is still readable.
    assert!(cluster.crash_node(victim));
    for i in 0..40 {
        let ok = eventually(Duration::from_secs(3), || {
            client
                .get(&Key::new(format!("drain-{i}")))
                .ok()
                .flatten()
                .is_some_and(|c| c.read_value().as_ref() == format!("v{i}").as_bytes())
        });
        assert!(ok, "key drain-{i} lost after failed drain + crash");
    }
    assert_eq!(
        cluster.try_remove_node(99),
        Err(cloudburst_anna::RemoveNodeError::UnknownNode)
    );
}

#[test]
fn put_replicated_requires_enough_replicas() {
    let net = instant_net();
    let cluster = launch(&net, 2, 1);
    let client = cluster.client();
    let key = Key::new("quorum");
    let capsule = |c: &AnnaClient| Capsule::wrap_lww(c.next_timestamp(), Bytes::from_static(b"v"));
    // Replication factor 1 → only one replica exists; a 2-ack durable write
    // must refuse rather than silently degrade.
    assert_eq!(
        client.put_replicated(&key, capsule(&client), 2),
        Err(AnnaError::NoNodes)
    );
    client.put_replicated(&key, capsule(&client), 1).unwrap();
    assert!(client.get(&key).unwrap().is_some());
}

#[test]
fn capsule_kind_mismatch_does_not_wedge_the_node() {
    let net = instant_net();
    let cluster = launch(&net, 1, 1);
    let client = cluster.client();
    let key = Key::new("typed");
    client.put_lww(&key, Bytes::from_static(b"v")).unwrap();
    // A set-write against an LWW key is acknowledged but dropped.
    client.add_to_set(&key, Bytes::from_static(b"x")).unwrap();
    let capsule = client.get(&key).unwrap().unwrap();
    assert_eq!(capsule.read_value().as_ref(), b"v");
}

#[test]
fn causal_capsules_merge_concurrent_versions() {
    use cloudburst_lattice::VectorClock;
    let net = instant_net();
    let cluster = launch(&net, 3, 2);
    let a = cluster.client();
    let b = cluster.client();
    let key = Key::new("causal");
    a.put_causal(
        &key,
        VectorClock::singleton(1, 1),
        [],
        Bytes::from_static(b"va"),
    )
    .unwrap();
    b.put_causal(
        &key,
        VectorClock::singleton(2, 1),
        [],
        Bytes::from_static(b"vb"),
    )
    .unwrap();
    let capsule = a.get(&key).unwrap().unwrap();
    let Capsule::Causal(c) = capsule else {
        panic!("expected causal capsule");
    };
    assert!(c.has_conflicts(), "both concurrent versions must survive");
}
