//! Protocol messages understood by Anna storage nodes.

use bytes::Bytes;
use cloudburst_lattice::{Capsule, Key};
use cloudburst_net::{Address, ReplyHandle};

use crate::ring::{HashRing, NodeId};

/// A request sent to a storage node.
///
/// Every data read and write is a batch: a single-key `get` or `put` is a
/// one-key [`StorageRequest::MultiGet`] or a one-entry
/// [`StorageRequest::MultiPut`], so there is one wire message, one node arm
/// and one client failover loop per direction.
#[derive(Debug)]
pub enum StorageRequest {
    /// Read keys in one request (one envelope, one reply). Issued by every
    /// [`crate::AnnaClient`] read, which fans one `MultiGet` out per
    /// responsible node.
    MultiGet {
        /// Requested keys.
        keys: Vec<Key>,
        /// Where to deliver the batched response.
        reply: ReplyHandle<MultiGetResponse>,
    },
    /// Merge `(key, capsule)` pairs in one request with a single
    /// acknowledgement (Anna semantics: a put is a lattice join, never a
    /// blind overwrite). Carries every client write, from a one-entry `put`
    /// to the write-behind path of a Cloudburst cache flush.
    MultiPut {
        /// Key/value pairs to merge.
        entries: Vec<(Key, Capsule)>,
        /// Optional acknowledgement channel (one ack for the whole batch).
        reply: Option<ReplyHandle<MultiPutResponse>>,
    },
    /// Remove a key; the receiving replica propagates the delete.
    Delete {
        /// Target key.
        key: Key,
        /// Optional acknowledgement channel, answered once the delete is
        /// durable.
        reply: Option<ReplyHandle<()>>,
    },
    /// Replica synchronization: one periodic delta envelope per peer
    /// carrying every key dirtied since the last gossip tick. Merged on
    /// receive and, unlike `MultiPut`, never re-propagated (no loops). Forced
    /// propagation (`Replicate`) and client read repair send the same
    /// message with a single entry.
    GossipBatch {
        /// Merged `(key, capsule)` deltas from the sending replica.
        entries: Vec<(Key, Capsule)>,
    },
    /// Replica synchronization for deletes.
    GossipDelete {
        /// Target key.
        key: Key,
    },
    /// A Cloudburst cache reporting a snapshot of the keys it stores
    /// (paper §4.2). The node indexes the keys it owns and will push
    /// subsequent merged updates to the cache.
    RegisterCachedKeys {
        /// The reporting cache's network address.
        cache: Address,
        /// Keys currently held by that cache.
        keys: Vec<Key>,
    },
    /// Remove a cache from the index entirely (cache shutdown / VM removed).
    UnregisterCache {
        /// The departing cache's address.
        cache: Address,
    },
    /// Force-propagate the current value of `key` to all of its replicas
    /// under the current (possibly raised) replication factor. Sent by the
    /// cluster manager after a hot-key replication increase.
    Replicate {
        /// The key to re-replicate.
        key: Key,
    },
    /// Recompute ownership under a new ring and hand off keys this node no
    /// longer owns (node join/leave, paper §2.2 storage elasticity).
    Rebalance {
        /// The new ring.
        ring: HashRing,
        /// The cluster replication factor.
        replication: usize,
        /// Acknowledged once the handoff messages have been sent.
        reply: Option<ReplyHandle<()>>,
    },
    /// Report node statistics.
    Stats {
        /// Where to deliver the statistics.
        reply: ReplyHandle<NodeStats>,
    },
    /// Report every key this node currently stores (both tiers). Used by the
    /// anti-entropy audit to verify each key is present on every replica the
    /// directory assigns it.
    KeyDump {
        /// Where to deliver the key list.
        reply: ReplyHandle<Vec<Key>>,
    },
    /// Stop the node thread.
    Shutdown,
}

/// Response to [`StorageRequest::MultiGet`]: one slot per requested key, in
/// request order.
#[derive(Debug, Clone)]
pub struct MultiGetResponse {
    /// The stored capsule for each requested key (`None` if absent).
    pub capsules: Vec<Option<Capsule>>,
}

/// Acknowledgement of a [`StorageRequest::MultiPut`] batch.
#[derive(Debug, Clone)]
pub struct MultiPutResponse {
    /// Number of entries merged (kind-mismatched writes are dropped
    /// without failing the batch, as Anna ignores type-incompatible
    /// merges).
    pub merged: usize,
}

/// An update pushed from a storage node to a Cloudburst cache that
/// registered the key (paper §4.2: "Anna uses this index to periodically
/// propagate key updates to caches").
#[derive(Debug, Clone)]
pub struct KeyUpdate {
    /// The updated key.
    pub key: Key,
    /// The merged capsule after the triggering write.
    pub capsule: Capsule,
}

/// Statistics reported by one storage node.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// The reporting node.
    pub node: NodeId,
    /// The region the node's endpoint lives in (by its registered network
    /// site — the physical truth even on a placement-blind directory).
    /// Heat aggregation per region and multi-region storm reports key off
    /// this tag.
    pub region: u16,
    /// Total keys stored (both tiers).
    pub key_count: usize,
    /// Keys resident in the memory tier.
    pub memory_keys: usize,
    /// Keys spilled to the disk tier.
    pub disk_keys: usize,
    /// Total user payload bytes stored.
    pub payload_bytes: usize,
    /// SSTable runs in the durable engine (0 for non-durable nodes).
    pub sstables: usize,
    /// Number of keys with at least one cache registered.
    pub index_entries: usize,
    /// Per-key index entry sizes in bytes (8 bytes per registered cache),
    /// the quantity whose median / p99 the paper reports in §6.1.4.
    pub index_entry_bytes: Vec<usize>,
    /// Keys read since startup (a `MultiGet` of n keys counts n).
    pub gets_served: u64,
    /// Keys written since startup (a `MultiPut` of n entries counts n).
    pub puts_served: u64,
    /// The node's hottest keys with their decayed access heat, hottest
    /// first ([`crate::telemetry::NodeTelemetry`]). Rides the existing
    /// stats reply — the heat telemetry adds no RPC of its own.
    pub hot_keys: Vec<(Key, f64)>,
    /// The node's decayed total request load, in the same heat units.
    pub load: f64,
}

/// A tiny self-describing value codec for metric payloads stored in Anna.
///
/// Metrics are `(name, f64)` pairs; we encode them as `name=value` lines so
/// they stay human-readable in dumps. Implemented here (rather than pulling
/// in a serialization crate) per the DESIGN.md dependency policy.
pub fn encode_metrics(pairs: &[(String, f64)]) -> Bytes {
    let mut s = String::new();
    for (name, value) in pairs {
        debug_assert!(!name.contains(['=', '\n']), "metric name {name:?}");
        s.push_str(name);
        s.push('=');
        s.push_str(&format!("{value}"));
        s.push('\n');
    }
    Bytes::from(s)
}

/// Decode a metric payload produced by [`encode_metrics`]. Malformed lines
/// are skipped (a reader must tolerate concurrent format evolution).
pub fn decode_metrics(bytes: &Bytes) -> Vec<(String, f64)> {
    let Ok(s) = std::str::from_utf8(bytes) else {
        return Vec::new();
    };
    s.lines()
        .filter_map(|line| {
            let (name, value) = line.split_once('=')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_roundtrip() {
        let pairs = vec![
            ("cpu".to_string(), 0.73),
            ("queue_len".to_string(), 12.0),
            ("neg".to_string(), -4.5),
        ];
        let decoded = decode_metrics(&encode_metrics(&pairs));
        assert_eq!(decoded, pairs);
    }

    #[test]
    fn decode_skips_garbage_lines() {
        let bytes = Bytes::from_static(b"ok=1.5\ngarbage\nalso=bad=2\nx=2\n");
        let decoded = decode_metrics(&bytes);
        // "also=bad=2" splits at the first '=' and fails the parse; skipped.
        assert_eq!(
            decoded,
            vec![("ok".to_string(), 1.5), ("x".to_string(), 2.0)]
        );
    }

    #[test]
    fn decode_non_utf8_is_empty() {
        assert!(decode_metrics(&Bytes::from_static(&[0xff, 0xfe])).is_empty());
    }

    #[test]
    fn empty_roundtrip() {
        assert!(decode_metrics(&encode_metrics(&[])).is_empty());
    }
}
