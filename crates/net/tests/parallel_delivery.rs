//! Interleaving tests for delivery on a multi-worker runtime: no envelope
//! is lost or duplicated while deliveries run on any of the pool's
//! threads, per-sender FIFO survives the pool, no delivery fires before
//! its deadline, `kill()` races cleanly with in-flight deliveries, and a
//! deterministic runtime replays byte-for-byte.
//!
//! These are hand-scheduled stress tests, not a model checker: each one
//! drives many real threads through the fabric and asserts the delivery
//! invariants the rest of the system leans on.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudburst_net::{LatencyModel, NetConfig, Network, TimeScale};
use cloudburst_runtime::{Runtime, RuntimeConfig};

/// A network delivering on a four-worker runtime (one worker under
/// `CB_DETERMINISTIC=1`), shut down when dropped.
struct Pool {
    runtime: Runtime,
    net: Network,
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.runtime.shutdown();
    }
}

fn pool(latency: LatencyModel) -> Pool {
    let runtime = Runtime::new(RuntimeConfig {
        workers: 4,
        ..RuntimeConfig::default()
    });
    let net = Network::on(
        &runtime,
        NetConfig {
            time_scale: TimeScale::REAL_TIME,
            default_latency: latency,
            seed: 42,
            tiers: None,
        },
    );
    Pool { runtime, net }
}

/// Wait for `cond` with a 5 s deadline.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "timed out: {what}"
        );
        std::thread::yield_now();
    }
}

/// Every envelope sent by N concurrent senders arrives exactly once —
/// nothing lost, nothing duplicated — even though any of the pool's
/// threads may be the one that runs a delivery.
#[test]
fn sharded_delivery_neither_loses_nor_duplicates() {
    const SENDERS: u64 = 8;
    const MSGS: u64 = 200;
    let pool = pool(LatencyModel::Uniform {
        lo_ms: 0.05,
        hi_ms: 1.0,
    });
    let receiver = pool.net.register();
    let mut handles = Vec::new();
    for s in 0..SENDERS {
        let net = pool.net.clone();
        let to = receiver.addr();
        handles.push(std::thread::spawn(move || {
            let from = net.register();
            for i in 0..MSGS {
                from.send(to, s * MSGS + i).unwrap();
            }
            // Keep the sender endpoint alive until its messages are clear
            // of the fabric; dropping it only deregisters the *receiving*
            // half, but be explicit about lifetime here.
            from
        }));
    }
    let _senders: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut seen = HashSet::new();
    for _ in 0..SENDERS * MSGS {
        let env = receiver
            .recv_timeout(Duration::from_secs(5))
            .expect("no envelope may be lost");
        let tag = env.downcast::<u64>().unwrap();
        assert!(seen.insert(tag), "duplicate delivery of {tag}");
    }
    assert!(
        receiver.try_recv().is_none(),
        "no extra envelope may materialize"
    );
    assert_eq!(seen.len() as u64, SENDERS * MSGS);
}

/// With a constant latency model, each sender's stream to one receiver is
/// FIFO (deadlines in send order, due tasks run one at a time in
/// `(deadline, arm order)`), while other senders interleave from other
/// threads and the pool has four workers to run deliveries on.
#[test]
fn per_sender_fifo_survives_sharding() {
    const SENDERS: u64 = 4;
    const MSGS: u64 = 150;
    let pool = pool(LatencyModel::Constant { ms: 2.0 });
    let receiver = pool.net.register();
    let mut handles = Vec::new();
    for s in 0..SENDERS {
        let net = pool.net.clone();
        let to = receiver.addr();
        handles.push(std::thread::spawn(move || {
            let from = net.register();
            for i in 0..MSGS {
                from.send(to, (s, i)).unwrap();
            }
            from
        }));
    }
    let _senders: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut next_expected = [0u64; SENDERS as usize];
    for _ in 0..SENDERS * MSGS {
        let env = receiver.recv_timeout(Duration::from_secs(5)).unwrap();
        let (s, i) = env.downcast::<(u64, u64)>().unwrap();
        assert_eq!(
            i, next_expected[s as usize],
            "sender {s} stream reordered: got {i}, expected {}",
            next_expected[s as usize]
        );
        next_expected[s as usize] += 1;
    }
}

/// `kill()` racing a stream of in-flight deliveries: whatever subset lands
/// must be duplicate-free, and the endpoint works again once healed.
#[test]
fn kill_races_with_in_flight_delivery() {
    const ROUNDS: usize = 20;
    /// Past the Uniform model's 0.5 ms maximum: the marker's deadline
    /// follows every earlier message's, so it is delivered after them.
    const MARKER_MS: f64 = 1.0;
    let pool = pool(LatencyModel::Uniform {
        lo_ms: 0.05,
        hi_ms: 0.5,
    });
    let net = &pool.net;
    let receiver = net.register();
    let to = receiver.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let accepted = Arc::new(AtomicU64::new(0));
    let refused = Arc::new(AtomicU64::new(0));
    let sender = {
        let (net, stop) = (net.clone(), Arc::clone(&stop));
        let (accepted, refused) = (Arc::clone(&accepted), Arc::clone(&refused));
        std::thread::spawn(move || {
            let from = net.register();
            // Every send burns a tag, accepted or not, so every delivered
            // tag is unique even if a send raced a kill.
            let mut tag = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Sends fail while the receiver is down; that's the point.
                let counter = match from.send(to, tag) {
                    Ok(()) => &accepted,
                    Err(_) => &refused,
                };
                counter.fetch_add(1, Ordering::SeqCst);
                tag += 1;
            }
            net.send_with_latency(
                from.addr(),
                to,
                u64::MAX,
                LatencyModel::Constant { ms: MARKER_MS },
            )
            .unwrap();
            from
        })
    };
    for _ in 0..ROUNDS {
        // Up for a while (the sender gets sends through), then down until
        // the sender has seen a refusal, then healed.
        let up = accepted.load(Ordering::SeqCst);
        wait_until("sends accepted while up", || {
            accepted.load(Ordering::SeqCst) >= up + 50
        });
        net.kill(to);
        let down = refused.load(Ordering::SeqCst);
        wait_until("a send refused while down", || {
            refused.load(Ordering::SeqCst) > down
        });
        net.heal(to);
    }
    stop.store(true, Ordering::Relaxed);
    let _from = sender.join().unwrap();
    // Drain everything that made it through, up to the marker; assert
    // uniqueness.
    let mut seen = HashSet::new();
    loop {
        let env = receiver
            .recv_timeout(Duration::from_secs(2))
            .expect("the marker must arrive");
        let tag = env.downcast::<u64>().unwrap();
        if tag == u64::MAX {
            break;
        }
        assert!(seen.insert(tag), "duplicate delivery of {tag} across kills");
    }
    // The endpoint must still work end to end after the storm.
    let probe = net.register();
    probe.send(to, 7u64).unwrap();
    let env = receiver.recv_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!(env.downcast::<u64>().unwrap(), 7);
}

/// Concurrent arming from many threads: every timer fires exactly once and
/// never before its deadline.
#[test]
fn concurrent_arming_fires_every_timer_on_time() {
    const THREADS: usize = 6;
    const TIMERS: usize = 80;
    let pool = pool(LatencyModel::Zero);
    let receiver = pool.net.register();
    let to = receiver.addr();
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let net = pool.net.clone();
        handles.push(std::thread::spawn(move || {
            let from = net.register();
            for i in 0..TIMERS {
                let ms = 1.0 + ((t * TIMERS + i) % 13) as f64 * 0.3;
                let start = Instant::now();
                net.send_with_latency(
                    from.addr(),
                    to,
                    (t, i, start, ms),
                    LatencyModel::Constant { ms },
                )
                .unwrap();
            }
            from
        }));
    }
    let _senders: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut seen = HashSet::new();
    for _ in 0..THREADS * TIMERS {
        let env = receiver.recv_timeout(Duration::from_secs(5)).unwrap();
        let (t, i, armed, ms) = env.downcast::<(usize, usize, Instant, f64)>().unwrap();
        assert!(seen.insert((t, i)), "timer ({t},{i}) fired twice");
        // `armed` was read before the send, and the deadline after it.
        let elapsed = armed.elapsed();
        let promised = Duration::from_secs_f64(ms / 1000.0);
        assert!(
            elapsed >= promised,
            "timer ({t},{i}) fired early: {elapsed:?} < {promised:?}"
        );
    }
    assert_eq!(seen.len(), THREADS * TIMERS);
}

/// On a deterministic runtime one seed gives the identical latency sample
/// sequence and the identical delivery order run to run — the property
/// chaos `--seed` replay rests on.
#[test]
fn deterministic_mode_replays_identically() {
    const MESSAGES: u32 = 24;
    let model = LatencyModel::LogNormal {
        median_ms: 0.2,
        p99_ms: 1.0,
    };
    let run = || {
        let runtime = Runtime::new(RuntimeConfig::deterministic());
        let net = Network::on(
            &runtime,
            NetConfig {
                time_scale: TimeScale::REAL_TIME,
                seed: 1234,
                ..NetConfig::default()
            },
        );
        let samples: Vec<Duration> = (0..256).map(|_| net.sample(model)).collect();
        // Each message's link delay is one of three 20 ms-apart bands that
        // a network sample picks: messages in one band are delivered in
        // send order, the bands in delay order, so the order is the
        // seed's and not the send loop's timing.
        let (from, to) = (net.register(), net.register());
        for tag in 0..MESSAGES {
            let band = (net.sample(model).as_secs_f64() / 0.0002).round().min(2.0);
            let latency = LatencyModel::Constant {
                ms: 1.0 + 20.0 * band,
            };
            net.send_with_latency(from.addr(), to.addr(), tag, latency)
                .unwrap();
        }
        let order: Vec<u32> = (0..MESSAGES)
            .map(|_| {
                let env = to.recv_timeout(Duration::from_secs(2)).unwrap();
                env.downcast::<u32>().unwrap()
            })
            .collect();
        runtime.shutdown();
        (samples, order)
    };
    let (samples, order) = run();
    assert_ne!(
        order,
        (0..MESSAGES).collect::<Vec<_>>(),
        "the seed must shape the delivery order"
    );
    assert_eq!((samples, order), run());
}
