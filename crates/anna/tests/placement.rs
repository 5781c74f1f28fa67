//! Golden key placement: 64 fixed keys on a fixed 4-node, 2-region ring.
//!
//! Placement decides which node stores a key, so it must not move when
//! the key type or the hash plumbing changes underneath it. The table was
//! recorded from the ring walk and pins it byte for byte: the directory's
//! primary and replica list, the region-diverse walk over every node, and
//! the plain clockwise walk of the same four nodes on a one-region ring.

#![allow(
    clippy::disallowed_methods,
    reason = "test code may read the wall clock: it times its own waits"
)]

use cloudburst_anna::ring::NodeId;
use cloudburst_anna::{Directory, HashRing};
use cloudburst_lattice::Key;
use cloudburst_net::{NetConfig, Network};

/// Nodes 1 and 2 in region 0, nodes 3 and 4 in region 1.
const NODES: [(NodeId, u16); 4] = [(1, 0), (2, 0), (3, 1), (4, 1)];
const REPLICATION: usize = 3;

/// `(key, primary, directory replicas, region-diverse walk, flat walk)`.
type Row = (&'static str, NodeId, [NodeId; 3], [NodeId; 4], [NodeId; 4]);

#[rustfmt::skip]
const GOLDEN: [Row; 64] = [
    ("user:0", 4, [4, 2, 3], [4, 2, 3, 1], [4, 2, 3, 1]),
    ("tweets:3", 4, [4, 2, 3], [4, 2, 3, 1], [4, 2, 3, 1]),
    ("k0", 3, [3, 2, 4], [3, 2, 4, 1], [3, 2, 4, 1]),
    ("user:1", 3, [3, 1, 4], [3, 1, 4, 2], [3, 1, 4, 2]),
    ("tweets:10", 4, [4, 2, 1], [4, 2, 1, 3], [4, 2, 1, 3]),
    ("k1", 3, [3, 2, 4], [3, 2, 4, 1], [3, 2, 4, 1]),
    ("user:2", 3, [3, 2, 1], [3, 2, 1, 4], [3, 2, 1, 4]),
    ("tweets:17", 3, [3, 2, 1], [3, 2, 1, 4], [3, 2, 1, 4]),
    ("k2", 2, [2, 3, 4], [2, 3, 4, 1], [2, 3, 4, 1]),
    ("user:3", 1, [1, 3, 2], [1, 3, 2, 4], [1, 2, 3, 4]),
    ("tweets:24", 4, [4, 2, 1], [4, 2, 1, 3], [4, 2, 1, 3]),
    ("k3", 1, [1, 3, 2], [1, 3, 2, 4], [1, 3, 2, 4]),
    ("user:4", 3, [3, 1, 4], [3, 1, 4, 2], [3, 4, 1, 2]),
    ("tweets:31", 3, [3, 2, 4], [3, 2, 4, 1], [3, 4, 2, 1]),
    ("k4", 1, [1, 3, 2], [1, 3, 2, 4], [1, 2, 3, 4]),
    ("user:5", 3, [3, 2, 1], [3, 2, 1, 4], [3, 2, 1, 4]),
    ("tweets:38", 1, [1, 3, 4], [1, 3, 4, 2], [1, 3, 4, 2]),
    ("k5", 1, [1, 3, 2], [1, 3, 2, 4], [1, 2, 3, 4]),
    ("user:6", 4, [4, 2, 3], [4, 2, 3, 1], [4, 3, 2, 1]),
    ("tweets:45", 4, [4, 1, 2], [4, 1, 2, 3], [4, 1, 2, 3]),
    ("k6", 3, [3, 1, 4], [3, 1, 4, 2], [3, 1, 4, 2]),
    ("user:7", 4, [4, 1, 2], [4, 1, 2, 3], [4, 1, 2, 3]),
    ("tweets:52", 2, [2, 3, 1], [2, 3, 1, 4], [2, 1, 3, 4]),
    ("k7", 4, [4, 1, 3], [4, 1, 3, 2], [4, 3, 1, 2]),
    ("user:8", 4, [4, 1, 3], [4, 1, 3, 2], [4, 3, 1, 2]),
    ("tweets:59", 3, [3, 2, 4], [3, 2, 4, 1], [3, 4, 2, 1]),
    ("k8", 2, [2, 3, 1], [2, 3, 1, 4], [2, 3, 1, 4]),
    ("user:9", 4, [4, 1, 3], [4, 1, 3, 2], [4, 1, 3, 2]),
    ("tweets:66", 2, [2, 3, 4], [2, 3, 4, 1], [2, 3, 4, 1]),
    ("k9", 1, [1, 4, 2], [1, 4, 2, 3], [1, 4, 2, 3]),
    ("user:10", 2, [2, 3, 1], [2, 3, 1, 4], [2, 3, 1, 4]),
    ("tweets:73", 2, [2, 4, 1], [2, 4, 1, 3], [2, 4, 1, 3]),
    ("k10", 4, [4, 2, 1], [4, 2, 1, 3], [4, 2, 1, 3]),
    ("user:11", 2, [2, 4, 1], [2, 4, 1, 3], [2, 4, 1, 3]),
    ("tweets:80", 1, [1, 4, 3], [1, 4, 3, 2], [1, 4, 3, 2]),
    ("k11", 3, [3, 1, 4], [3, 1, 4, 2], [3, 4, 1, 2]),
    ("user:12", 3, [3, 1, 4], [3, 1, 4, 2], [3, 4, 1, 2]),
    ("tweets:87", 4, [4, 1, 3], [4, 1, 3, 2], [4, 3, 1, 2]),
    ("k12", 1, [1, 4, 3], [1, 4, 3, 2], [1, 4, 3, 2]),
    ("user:13", 3, [3, 1, 4], [3, 1, 4, 2], [3, 1, 4, 2]),
    ("tweets:94", 4, [4, 1, 3], [4, 1, 3, 2], [4, 1, 3, 2]),
    ("k13", 3, [3, 2, 1], [3, 2, 1, 4], [3, 2, 1, 4]),
    ("user:14", 3, [3, 2, 4], [3, 2, 4, 1], [3, 4, 2, 1]),
    ("tweets:101", 1, [1, 4, 2], [1, 4, 2, 3], [1, 4, 2, 3]),
    ("k14", 3, [3, 2, 1], [3, 2, 1, 4], [3, 2, 1, 4]),
    ("user:15", 4, [4, 2, 3], [4, 2, 3, 1], [4, 3, 2, 1]),
    ("tweets:108", 2, [2, 3, 4], [2, 3, 4, 1], [2, 3, 4, 1]),
    ("k15", 2, [2, 4, 3], [2, 4, 3, 1], [2, 4, 3, 1]),
    ("bench/chain/0", 3, [3, 1, 2], [3, 1, 2, 4], [3, 1, 2, 4]),
    ("bench/chain/1000003", 1, [1, 3, 2], [1, 3, 2, 4], [1, 2, 3, 4]),
    ("bench/chain/2000006", 3, [3, 2, 4], [3, 2, 4, 1], [3, 2, 4, 1]),
    ("bench/chain/3000009", 4, [4, 2, 1], [4, 2, 1, 3], [4, 2, 1, 3]),
    ("bench/chain/4000012", 1, [1, 4, 3], [1, 4, 3, 2], [1, 4, 3, 2]),
    ("bench/chain/5000015", 3, [3, 2, 4], [3, 2, 4, 1], [3, 4, 2, 1]),
    ("bench/chain/6000018", 1, [1, 4, 2], [1, 4, 2, 3], [1, 4, 2, 3]),
    ("bench/chain/7000021", 3, [3, 2, 4], [3, 2, 4, 1], [3, 4, 2, 1]),
    ("bench/chain/8000024", 3, [3, 2, 4], [3, 2, 4, 1], [3, 2, 4, 1]),
    ("bench/chain/9000027", 4, [4, 2, 3], [4, 2, 3, 1], [4, 3, 2, 1]),
    ("bench/chain/10000030", 2, [2, 3, 1], [2, 3, 1, 4], [2, 3, 1, 4]),
    ("bench/chain/11000033", 1, [1, 4, 3], [1, 4, 3, 2], [1, 4, 3, 2]),
    ("bench/chain/12000036", 4, [4, 2, 1], [4, 2, 1, 3], [4, 2, 1, 3]),
    ("bench/chain/13000039", 4, [4, 1, 3], [4, 1, 3, 2], [4, 3, 1, 2]),
    ("bench/chain/14000042", 2, [2, 4, 3], [2, 4, 3, 1], [2, 4, 3, 1]),
    ("bench/chain/15000045", 3, [3, 1, 4], [3, 1, 4, 2], [3, 4, 1, 2]),
];

fn golden_keys() -> Vec<String> {
    let mut keys = Vec::with_capacity(64);
    for i in 0..16 {
        keys.push(format!("user:{i}"));
        keys.push(format!("tweets:{}", i * 7 + 3));
        keys.push(format!("k{i}"));
    }
    for i in 0..16 {
        keys.push(format!("bench/chain/{}", i * 1_000_003));
    }
    keys
}

#[test]
fn golden_table_covers_the_fixed_keys() {
    let keys = golden_keys();
    assert_eq!(keys.len(), GOLDEN.len());
    for (key, row) in keys.iter().zip(GOLDEN.iter()) {
        assert_eq!(key, row.0);
    }
}

#[test]
fn placement_matches_golden_pairs() {
    let net = Network::new(NetConfig::instant());
    let dir = Directory::new(REPLICATION);
    let mut regional = HashRing::new();
    let mut flat = HashRing::new();
    let mut endpoints = Vec::new();
    for (node, region) in NODES {
        let ep = net.register();
        dir.add_node_in(node, ep.addr(), region);
        regional.add_node_in(node, region);
        flat.add_node(node);
        endpoints.push(ep);
    }
    for &(text, primary, replicas, walk, flat_walk) in &GOLDEN {
        let key = Key::new(text);
        assert_eq!(
            dir.primary(&key).map(|(n, _)| n),
            Some(primary),
            "{text}: primary"
        );
        let placed: Vec<NodeId> = dir.replicas(&key).into_iter().map(|(n, _)| n).collect();
        assert_eq!(placed, replicas, "{text}: directory replicas");
        assert_eq!(
            regional.primary(text),
            Some(primary),
            "{text}: ring primary"
        );
        assert_eq!(
            regional.replicas(text, NODES.len()),
            walk,
            "{text}: region-diverse walk"
        );
        assert_eq!(
            flat.replicas(text, NODES.len()),
            flat_walk,
            "{text}: flat walk"
        );
    }
}
