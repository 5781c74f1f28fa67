//! [`DelayQueue`]: a sharded timer wheel that runs closures after a deadline.
//!
//! Each shard owns a binary heap of pending entries and a dedicated
//! dispatcher thread; arming a timer only contends on the one shard it
//! lands in, so concurrent senders scale across shards instead of
//! convoying on a single global lock. A single-shard queue behaves exactly
//! like the original serialized dispatcher, which is what the network's
//! deterministic mode relies on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Entry {
    deadline: Instant,
    seq: u64,
    task: Task,
}

// Order by (deadline, seq): FIFO among equal deadlines, which keeps
// constant-latency links order-preserving like a TCP stream. `seq` is
// per-shard, so the guarantee holds within a shard — the network keys
// deliveries by destination address, pinning each receiver to one shard.
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

#[derive(Default)]
struct State {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Set by `Drop`. Lives under the lock the dispatcher holds from its
    /// check until its `cv.wait` releases it, so the store and its notify
    /// can never land between the two (a lost wakeup would leave the
    /// dispatcher asleep on an empty heap and `join` waiting forever).
    shutdown: bool,
}

struct Shared {
    // lock-rank: 90 net-delay
    state: Mutex<State>,
    cv: Condvar,
    seq: AtomicU64,
}

struct Shard {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

/// A shared delayed-execution queue backed by one dispatcher thread per
/// shard.
///
/// The [`crate::Network`] schedules every message delivery (and every RPC
/// reply) onto a `DelayQueue`, which fires the delivery closure once the
/// injected latency has elapsed. Zero-delay tasks run inline on the caller,
/// which keeps latency-free configurations overhead-free.
///
/// Timers armed with [`DelayQueue::schedule_keyed`] are pinned to the shard
/// `key % shards`, preserving FIFO order among equal deadlines for the same
/// key; unkeyed [`DelayQueue::schedule`] round-robins across shards and
/// makes no ordering promise between calls.
pub struct DelayQueue {
    shards: Box<[Shard]>,
    rr: AtomicU64,
}

impl DelayQueue {
    /// Create a single-shard queue: one dispatcher thread, globally FIFO
    /// among equal deadlines. This is the deterministic configuration.
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// Create a queue with `shards` dispatcher threads (`shards` is clamped
    /// to at least 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards: Box<[Shard]> = (0..shards.max(1))
            .map(|i| {
                let shared = Arc::new(Shared {
                    state: Mutex::ranked(90, "net-delay", State::default()),
                    cv: Condvar::new(),
                    seq: AtomicU64::new(0),
                });
                let dispatcher = {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("net-delay-{i}"))
                        .spawn(move || Self::dispatch_loop(&shared))
                        .expect("spawn delay dispatcher")
                };
                Shard {
                    shared,
                    dispatcher: Some(dispatcher),
                }
            })
            .collect();
        Self {
            shards,
            rr: AtomicU64::new(0),
        }
    }

    /// Number of dispatcher shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Run `task` after `delay` on an arbitrary shard (round-robin). A zero
    /// delay runs the task inline. No ordering is guaranteed between
    /// unkeyed tasks; use [`DelayQueue::schedule_keyed`] when FIFO among
    /// equal deadlines matters.
    pub fn schedule(&self, delay: Duration, task: impl FnOnce() + Send + 'static) {
        let lane = self.rr.fetch_add(1, Ordering::Relaxed);
        self.schedule_keyed(lane, delay, task);
    }

    /// Run `task` after `delay`, pinned to the shard `key % shards`. Tasks
    /// with the same key and equal deadlines fire in the order they were
    /// armed — the property that keeps constant-latency links FIFO.
    pub fn schedule_keyed(&self, key: u64, delay: Duration, task: impl FnOnce() + Send + 'static) {
        if delay.is_zero() {
            task();
            return;
        }
        let shard = &self.shards[(key % self.shards.len() as u64) as usize];
        let entry = Entry {
            // lint: allow(L003): the delivery queue *is* the fabric's time base; modeled delays are wall-clock sleeps
            deadline: Instant::now() + delay,
            seq: shard.shared.seq.fetch_add(1, Ordering::Relaxed),
            task: Box::new(task),
        };
        let seq = entry.seq;
        let mut state = shard.shared.state.lock();
        state.heap.push(Reverse(entry));
        // Wake the dispatcher only when this entry is the new head: any
        // earlier entry already bounds its wait. Deciding under the lock
        // keeps the wakeup from being lost — the dispatcher holds this
        // lock from its heap check until `cv.wait` releases it.
        let new_head = state.heap.peek().is_some_and(|Reverse(e)| e.seq == seq);
        drop(state);
        if new_head {
            shard.shared.cv.notify_one();
        }
    }

    /// Number of tasks currently pending across all shards (for tests and
    /// diagnostics).
    pub fn pending(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.shared.state.lock().heap.len())
            .sum()
    }

    fn dispatch_loop(shared: &Shared) {
        cloudburst_runtime::tighten_timer_slack();
        let mut due: Vec<Task> = Vec::new();
        loop {
            {
                let mut state = shared.state.lock();
                loop {
                    if state.shutdown {
                        return;
                    }
                    // lint: allow(L003): dispatcher wakeup against the delivery deadlines above
                    let now = Instant::now();
                    while state
                        .heap
                        .peek()
                        .is_some_and(|Reverse(e)| e.deadline <= now)
                    {
                        let Reverse(entry) = state.heap.pop().expect("peeked entry");
                        due.push(entry.task);
                    }
                    if !due.is_empty() {
                        break;
                    }
                    match state.heap.peek() {
                        Some(Reverse(next)) => {
                            let wait = next.deadline.saturating_duration_since(now);
                            shared.cv.wait_for(&mut state, wait);
                        }
                        None => shared.cv.wait(&mut state),
                    }
                }
            }
            // Run tasks outside the lock so they may schedule more work.
            for task in due.drain(..) {
                task();
            }
        }
    }
}

impl Default for DelayQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for DelayQueue {
    fn drop(&mut self) {
        for shard in self.shards.iter() {
            shard.shared.state.lock().shutdown = true;
            shard.shared.cv.notify_all();
        }
        let current = std::thread::current().id();
        for shard in self.shards.iter_mut() {
            if let Some(handle) = shard.dispatcher.take() {
                // The queue can be dropped *from a task running on one of
                // its own dispatchers* (a delayed closure holding the last
                // reference to the owning Network). Joining that thread
                // would self-deadlock; it notices the shutdown flag and
                // exits on its own.
                if handle.thread().id() != current {
                    let _ = handle.join();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::mpsc;

    #[test]
    fn zero_delay_runs_inline() {
        let q = DelayQueue::new();
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        q.schedule(Duration::ZERO, move || flag.store(true, Ordering::SeqCst));
        assert!(
            ran.load(Ordering::SeqCst),
            "inline task must run before return"
        );
    }

    #[test]
    fn delayed_task_waits_for_deadline() {
        let q = DelayQueue::new();
        let (tx, rx) = mpsc::channel();
        let start = Instant::now();
        q.schedule(Duration::from_millis(20), move || {
            tx.send(start.elapsed()).unwrap();
        });
        let elapsed = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(
            elapsed >= Duration::from_millis(19),
            "fired early: {elapsed:?}"
        );
    }

    #[test]
    fn earlier_deadline_armed_later_fires_first() {
        // The sleep lets the dispatcher park until the 5 s entry before the
        // 20 ms one arrives, so the new head has to wake it. (Had it not
        // parked yet, it would find the entry at its next check.)
        let q = DelayQueue::new();
        let (tx, rx) = mpsc::channel();
        let late = tx.clone();
        q.schedule(Duration::from_secs(5), move || {
            let _ = late.send("late");
        });
        std::thread::sleep(Duration::from_millis(10));
        q.schedule(Duration::from_millis(20), move || {
            let _ = tx.send("early");
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)), Ok("early"));
        assert_eq!(q.pending(), 1, "the later entry must still be pending");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dispatcher_runs_tasks_with_tight_timer_slack() {
        let q = DelayQueue::with_shards(2);
        let (tx, rx) = mpsc::channel();
        for lane in 0..2 {
            let tx = tx.clone();
            q.schedule_keyed(lane, Duration::from_millis(1), move || {
                let _ = tx.send(cloudburst_runtime::current_timer_slack_ns());
            });
        }
        for _ in 0..2 {
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(2)).unwrap(),
                Some(cloudburst_runtime::TIMER_SLACK_NS)
            );
        }
    }

    #[test]
    fn tasks_fire_in_deadline_order() {
        let q = DelayQueue::new();
        let (tx, rx) = mpsc::channel();
        for (delay_ms, label) in [(30u64, 3), (10, 1), (20, 2)] {
            let tx = tx.clone();
            q.schedule(Duration::from_millis(delay_ms), move || {
                tx.send(label).unwrap();
            });
        }
        let order: Vec<i32> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(2)).unwrap())
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_deadlines_preserve_fifo() {
        let q = DelayQueue::new();
        let (tx, rx) = mpsc::channel();
        let deadline = Duration::from_millis(15);
        for label in 0..20 {
            let tx = tx.clone();
            q.schedule(deadline, move || tx.send(label).unwrap());
        }
        let order: Vec<i32> = (0..20)
            .map(|_| rx.recv_timeout(Duration::from_secs(2)).unwrap())
            .collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_tasks_preserve_fifo_across_many_shards() {
        // Same key → same shard → FIFO among equal deadlines, no matter how
        // many shards exist.
        let q = DelayQueue::with_shards(8);
        assert_eq!(q.shards(), 8);
        let (tx, rx) = mpsc::channel();
        let deadline = Duration::from_millis(15);
        for label in 0..20 {
            let tx = tx.clone();
            q.schedule_keyed(42, deadline, move || tx.send(label).unwrap());
        }
        let order: Vec<i32> = (0..20)
            .map(|_| rx.recv_timeout(Duration::from_secs(2)).unwrap())
            .collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_queue_fires_every_task() {
        let q = Arc::new(DelayQueue::with_shards(4));
        let count = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            let count = Arc::clone(&count);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let count = Arc::clone(&count);
                    q.schedule_keyed(t * 64 + i, Duration::from_millis(1 + (i % 7)), move || {
                        count.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while count.load(Ordering::SeqCst) < 200 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(count.load(Ordering::SeqCst), 200);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn tasks_may_schedule_more_tasks() {
        let q = Arc::new(DelayQueue::new());
        let count = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let q2 = Arc::clone(&q);
        let c2 = Arc::clone(&count);
        q.schedule(Duration::from_millis(5), move || {
            c2.fetch_add(1, Ordering::SeqCst);
            let c3 = Arc::clone(&c2);
            q2.schedule(Duration::from_millis(5), move || {
                c3.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        });
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn drop_stops_dispatcher_without_running_pending() {
        let q = DelayQueue::with_shards(3);
        let ran = Arc::new(AtomicBool::new(false));
        for _ in 0..3 {
            let flag = Arc::clone(&ran);
            q.schedule(Duration::from_secs(60), move || {
                flag.store(true, Ordering::SeqCst)
            });
        }
        assert_eq!(q.pending(), 3);
        drop(q); // must not hang waiting for the 60 s tasks
        assert!(!ran.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_right_after_construction_never_hangs() {
        // Regression for the lost shutdown wakeup: a dispatcher that has
        // only just started is between its flag check and its first wait
        // exactly when an immediate drop stores the flag and notifies. Each
        // iteration reports over a channel so a hang fails the watchdog
        // below instead of stalling the suite.
        const ITERATIONS: u32 = 2_000;
        for shards in [1usize, 4] {
            let (tx, rx) = mpsc::channel();
            let worker = std::thread::spawn(move || {
                for i in 0..ITERATIONS {
                    drop(DelayQueue::with_shards(shards));
                    if tx.send(i).is_err() {
                        return;
                    }
                }
            });
            for i in 0..ITERATIONS {
                let done = rx.recv_timeout(Duration::from_secs(30));
                assert_eq!(
                    done,
                    Ok(i),
                    "dropping a {shards}-shard queue hung at iteration {i}"
                );
            }
            worker.join().unwrap();
        }
    }
}
