//! `runtime`: how long a notify takes to become a poll of an idle actor,
//! and how late a timer deadline fires.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudburst_runtime::{Actor, ActorCtx, Poll, Runtime, RuntimeConfig};

use super::Values;
use crate::procstat::now_ns;
use crate::stats::percentile;

/// Stamps the time of its latest poll.
struct WakeProbe {
    polled_at: Arc<AtomicU64>,
}

impl Actor for WakeProbe {
    fn poll(&mut self, _ctx: &mut ActorCtx<'_>) -> Poll {
        self.polled_at.store(now_ns(), Ordering::Release);
        Poll::Idle(None)
    }
}

/// Re-arms a deadline `period` ahead on every poll and records how late the
/// poll for the previous deadline came.
struct TimerProbe {
    period: Duration,
    deadline: Option<Instant>,
    lags_us: Arc<std::sync::Mutex<Vec<f64>>>,
}

impl Actor for TimerProbe {
    fn poll(&mut self, _ctx: &mut ActorCtx<'_>) -> Poll {
        let now = Instant::now();
        if let Some(due) = self.deadline {
            if now < due {
                // Woken early (a notify): keep waiting for the armed deadline.
                return Poll::Idle(Some(due));
            }
            let late = now.duration_since(due).as_nanos() as f64 / 1000.0;
            self.lags_us.lock().expect("probe lock").push(late);
        }
        let next = now + self.period;
        self.deadline = Some(next);
        Poll::Idle(Some(next))
    }
}

pub fn run(unit: Duration, out: &mut Values) {
    let runtime = Runtime::new(RuntimeConfig::default());

    // notify -> poll entry of an idle actor (the worker has parked: each
    // iteration waits out a pause first).
    let polled_at = Arc::new(AtomicU64::new(0));
    let handle = runtime.spawn(
        "probe-wake",
        WakeProbe {
            polled_at: Arc::clone(&polled_at),
        },
    );
    let pause = Duration::from_micros(150);
    let samples = (unit.as_micros() as usize * 3 / 200).clamp(100, 5000);
    let mut wakes = Vec::with_capacity(samples);
    for _ in 0..samples {
        std::thread::sleep(pause);
        let before = polled_at.load(Ordering::Acquire);
        let notified = now_ns();
        handle.notify();
        let polled = loop {
            let at = polled_at.load(Ordering::Acquire);
            if at != before {
                break at;
            }
            std::hint::spin_loop();
        };
        wakes.push(polled.saturating_sub(notified) as f64 / 1000.0);
    }
    handle.stop();
    out.insert("runtime.wake_p50_us", percentile(&wakes, 0.50));
    out.insert("runtime.wake_p95_us", percentile(&wakes, 0.95));

    // Deadline returned from poll -> the poll that serves it, on a 1 ms
    // cadence (half the WAL / gossip window).
    let lags_us = Arc::new(std::sync::Mutex::new(Vec::new()));
    let handle = runtime.spawn(
        "probe-timer",
        TimerProbe {
            period: Duration::from_millis(1),
            deadline: None,
            lags_us: Arc::clone(&lags_us),
        },
    );
    std::thread::sleep((unit * 3).max(Duration::from_millis(50)));
    handle.stop();
    runtime.shutdown();
    let lags = lags_us.lock().expect("probe lock").clone();
    out.insert("runtime.timer_lag_p50_us", percentile(&lags, 0.50));
}
