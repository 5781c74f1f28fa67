//! `net`: what a send costs its caller, an inline round trip, and how late
//! the fabric delivers a delayed message.

use std::time::{Duration, Instant};

use cloudburst_net::{reply_channel, NetConfig, Network, ReplyHandle};

use super::{ns_per_iter, Values};
use crate::configs;
use crate::stats::percentile;

/// The hop latency of the modeled configuration (`configs::modeled`).
const HOP: Duration = Duration::from_micros(200);

pub fn run(unit: Duration, out: &mut Values) {
    // Inline delivery: the sender runs the delivery itself.
    let net = Network::new(NetConfig::instant());
    let (a, b) = (net.register(), net.register());
    out.insert(
        "net.send_inline_ns",
        ns_per_iter(unit, 1024, || {
            a.send(b.addr(), 7u64).expect("send");
            b.try_recv()
        }),
    );

    // Two-thread ping-pong over a reply channel (both legs inline).
    let rtt = std::thread::scope(|scope| {
        let echo = scope.spawn(|| {
            while let Ok(envelope) = b.recv() {
                match envelope.downcast::<Option<ReplyHandle<u64>>>() {
                    Ok(Some(reply)) => reply.reply(1),
                    _ => break,
                }
            }
        });
        let rtt = ns_per_iter(unit * 2, 64, || {
            let (reply, waiter) = reply_channel::<u64>(&net);
            a.send(b.addr(), Some(reply)).expect("send");
            waiter.wait().expect("echo")
        });
        a.send(b.addr(), None::<ReplyHandle<u64>>).expect("send");
        echo.join().expect("echo thread");
        rtt
    });
    out.insert("net.rtt_inline_us", rtt / 1000.0);

    // Delayed delivery: the caller-side cost of arming a 0.2 ms delivery,
    // then the lag of the delivery itself against its stamped due time.
    let net = Network::new(configs::modeled(0).net);
    let (a, b) = (net.register(), net.register());
    out.insert(
        "net.send_delayed_ns",
        ns_per_iter(unit, 256, || {
            a.send(b.addr(), 7u64).expect("send");
            while b.try_recv().is_some() {}
        }),
    );
    std::thread::sleep(HOP * 4);
    while b.try_recv().is_some() {}

    let samples = (unit.as_micros() as usize * 3 / 300).clamp(100, 5000);
    let lags = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut lags = Vec::with_capacity(samples);
            while lags.len() < samples {
                let Ok(envelope) = b.recv() else { break };
                if let Ok(sent) = envelope.downcast::<Instant>() {
                    let late = sent.elapsed().saturating_sub(HOP);
                    lags.push(late.as_nanos() as f64 / 1000.0);
                }
            }
            lags
        });
        // One message in flight at a time, paced so the dispatcher parks
        // between deliveries as it does under a closed loop.
        for _ in 0..samples {
            a.send(b.addr(), Instant::now()).expect("send");
            std::thread::sleep(Duration::from_micros(300));
        }
        receiver.join().expect("receiver thread")
    });
    out.insert("net.delivery_lag_p50_us", percentile(&lags, 0.50));
    out.insert("net.delivery_lag_p95_us", percentile(&lags, 0.95));
}
