//! `lattice` and `lru`: merges, clones, interning, encoding, LRU touches.

use std::time::Duration;

use bytes::Bytes;
use cloudburst_lattice::codec::capsule_to_vec;
use cloudburst_lattice::{Capsule, Key, Lattice, Timestamp, VectorClock};
use cloudburst_lru::SlotLru;

use super::{ns_per_iter, Values};

fn clock(base: u64) -> VectorClock {
    (1..=4u64).map(|id| (id, base + id)).collect()
}

/// A causal capsule with a 4-entry clock and 4 dependencies.
fn causal(base: u64, value: &'static [u8]) -> Capsule {
    let deps = (0..4u64).map(|d| (Key::new(format!("probe/dep/{d}")), clock(base + d)));
    Capsule::wrap_causal(clock(base), deps, Bytes::from_static(value))
}

pub fn run(unit: Duration, out: &mut Values) {
    // LWW: build the incoming capsule and join it into a stored one — what
    // a put of a newer value costs the lattice layer.
    let value = Bytes::from(vec![7u8; 64]);
    let mut stored = Capsule::wrap_lww(Timestamp::new(1, 1), value.clone());
    let mut tick = 1u64;
    out.insert(
        "lattice.lww_merge_ns",
        ns_per_iter(unit, 4096, || {
            tick += 1;
            let incoming = Capsule::wrap_lww(Timestamp::new(tick, 1), value.clone());
            stored.try_join(incoming).is_ok()
        }),
    );

    // Causal: join a dominating version into a handle of the stored one
    // (the handle diverges, so the copy-on-divergence is paid, as in a cache).
    let older = causal(10, b"older");
    let newer = causal(20, b"newer");
    out.insert(
        "lattice.causal_merge_ns",
        ns_per_iter(unit, 1024, || {
            let mut handle = older.clone();
            let _ = handle.try_join(newer.clone());
            handle
        }),
    );

    let (a, b) = (clock(10), clock(12));
    out.insert(
        "lattice.vc_merge_ns",
        ns_per_iter(unit, 4096, || {
            let mut merged = a.clone();
            merged.join_ref(&b);
            merged
        }),
    );

    out.insert(
        "lattice.capsule_clone_ns",
        ns_per_iter(unit, 8192, || newer.clone()),
    );

    // Interning a string that is already live (the common case: every
    // component constructs keys for data another component already holds).
    let names: Vec<String> = (0..256).map(|i| format!("probe/key/{i}")).collect();
    let live: Vec<Key> = names.iter().map(Key::new).collect();
    let mut next = 0usize;
    out.insert(
        "lattice.key_intern_ns",
        ns_per_iter(unit, 4096, || {
            next = (next + 1) % names.len();
            Key::new(&names[next])
        }),
    );
    drop(live);

    let kib = Capsule::wrap_lww(Timestamp::new(1, 1), Bytes::from(vec![0xA5u8; 1024]));
    out.insert(
        "lattice.encode_ns_per_kib",
        ns_per_iter(unit, 1024, || capsule_to_vec(&kib)),
    );

    // Touch slots of a 4096-entry list in a scattered order.
    let mut lru = SlotLru::with_capacity(4096);
    let slots: Vec<u32> = (0..4096)
        .map(|i| lru.insert(Key::new(format!("probe/lru/{i}"))))
        .collect();
    let mut cursor = 0usize;
    out.insert(
        "lru.touch_ns",
        ns_per_iter(unit, 8192, || {
            cursor = (cursor + 1531) % slots.len();
            lru.touch(slots[cursor]);
        }),
    );
}
