//! The runtime's one timer heap: actor wakes and one-shot tasks
//! ([`Runtime::run_after`]).
//!
//! An actor's [`crate::Poll::Idle`] deadline and every delayed delivery and
//! reply of the network fabric are entries of one heap under the
//! `rt-injector` lock, so it holds every deadline in the process and the
//! threads that sleep to the next one are the pool's own. Four rules keep
//! a delivery fabric and the actors on top of it honest:
//!
//! * entries are ordered by `(deadline, seq)`, `seq` taken under the lock,
//!   so entries armed with equal deadlines fire in the order they were
//!   armed;
//! * a due wake enqueues its actor on the injector, but only while the
//!   actor's `armed_deadline` still holds the entry's deadline: a re-arm
//!   supersedes every older entry;
//! * a due task moves to the `ready` queue in that order, and one thread
//!   at a time drains it (`draining`), running each task outside every
//!   runtime lock, so the order survives a multi-worker pool: constant
//!   latency keeps a per-destination stream FIFO;
//! * a zero delay runs the task inline on the caller.
//!
//! Shutdown drops every pending task unrun, outside the lock (a task may
//! own the last handle to whatever owns the runtime).

use std::cmp::Ordering as CmpOrdering;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Weak;
use std::time::{Duration, Instant};

use parking_lot::MutexGuard;

use crate::{rt_now, Cell, Inner, Runtime, Sched};

pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// What a due entry does.
pub(crate) enum Fire {
    /// Run a one-shot task.
    Task(Task),
    /// Wake an actor whose timer this is, unless re-armed since.
    Wake(Weak<Cell>),
}

pub(crate) struct Entry {
    deadline: Instant,
    seq: u64,
    fire: Fire,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline, self.seq) == (other.deadline, other.seq)
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert for earliest (deadline, seq) first.
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}

impl Runtime {
    /// Run `task` once, `delay` from now, on a pool thread. A zero delay
    /// runs it inline before this returns. Tasks with equal deadlines run
    /// in the order they were armed, one at a time; see the module docs.
    /// On a runtime that has shut down the task is dropped unrun.
    pub fn run_after(&self, delay: Duration, task: impl FnOnce() + Send + 'static) {
        if delay.is_zero() {
            task();
            return;
        }
        let deadline = rt_now() + delay;
        let mut sched = self.inner.sched.lock();
        if sched.shutdown {
            drop(sched);
            return; // `task` drops here, outside the lock
        }
        self.inner
            .push_deadline(&mut sched, deadline, Fire::Task(Box::new(task)));
    }
}

impl Inner {
    /// Arm `fire` at `deadline` (caller holds `sched`).
    pub(crate) fn push_deadline(&self, sched: &mut Sched, deadline: Instant, fire: Fire) {
        let seq = sched.seq;
        sched.seq += 1;
        sched.heap.push(Entry {
            deadline,
            seq,
            fire,
        });
        let ns = self.to_ns(deadline);
        if ns < self.next_deadline.load(Ordering::Relaxed) {
            self.next_deadline.store(ns, Ordering::Relaxed);
            // A parked thread may be waiting on a later deadline; wake one
            // so it re-parks with the shorter wait.
            self.wake_one(sched);
        }
    }

    /// Fire every entry due at `now` (caller holds `sched`): a task moves
    /// to the ready queue, a current wake enqueues its cell directly on the
    /// held injector (`notify` would re-take the lock).
    pub(crate) fn expire_due(&self, sched: &mut Sched, now: Instant) {
        while sched.heap.peek().is_some_and(|e| e.deadline <= now) {
            let entry = sched.heap.pop().expect("peeked entry");
            match entry.fire {
                Fire::Task(task) => sched.ready.push_back(task),
                Fire::Wake(cell) => {
                    let Some(cell) = cell.upgrade() else {
                        continue;
                    };
                    let ns = self.to_ns(entry.deadline);
                    if cell
                        .armed_deadline
                        .compare_exchange(ns, 0, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        continue; // superseded by a re-arm
                    }
                    self.timer_fires.fetch_add(1, Ordering::Relaxed);
                    if cell.mark_queued() {
                        sched.injector.push_back(cell);
                    }
                }
            }
        }
        let next = sched
            .heap
            .peek()
            .map_or(u64::MAX, |e| self.to_ns(e.deadline));
        self.next_deadline.store(next, Ordering::Relaxed);
    }

    /// If ready tasks wait and no other thread is draining them, become
    /// the drainer: release `sched` and run them, and any that come due
    /// meanwhile, in order. Hands `sched` back if this thread did not
    /// drain.
    pub(crate) fn drain_ready<'a>(
        &self,
        mut sched: MutexGuard<'a, Sched>,
    ) -> Option<MutexGuard<'a, Sched>> {
        if sched.draining || sched.ready.is_empty() {
            return Some(sched);
        }
        sched.draining = true;
        let mut batch = std::mem::take(&mut sched.ready);
        drop(sched);
        loop {
            run_batch(&self.shutdown_flag, &mut batch);
            let mut sched = self.sched.lock();
            if sched.ready.is_empty() || sched.shutdown {
                sched.draining = false;
                return None;
            }
            std::mem::swap(&mut batch, &mut sched.ready);
        }
    }
}

/// Run `batch` front to back; once shutdown begins, drop the rest unrun.
fn run_batch(shutdown: &AtomicBool, batch: &mut VecDeque<Task>) {
    while let Some(task) = batch.pop_front() {
        if shutdown.load(Ordering::SeqCst) {
            batch.clear();
            return;
        }
        task();
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "test code may read the wall clock: it times its own waits"
)]
mod tests {
    use super::*;
    use crate::RuntimeConfig;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Arc};

    /// The configurations every ordering test runs in: the single-worker
    /// deterministic pool and a four-worker pool, where the one-drainer
    /// rule is what keeps the order.
    fn runtimes() -> Vec<Runtime> {
        vec![
            Runtime::new(RuntimeConfig::deterministic()),
            Runtime::new(RuntimeConfig {
                workers: 4,
                ..RuntimeConfig::default()
            }),
        ]
    }

    fn pending(rt: &Runtime) -> usize {
        let sched = rt.inner.sched.lock();
        sched.heap.len() + sched.ready.len()
    }

    /// Wait for `cond` with a 10 s deadline.
    fn wait_until(cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(10), "timed out");
            std::thread::yield_now();
        }
    }

    #[test]
    fn zero_delay_runs_inline() {
        let rt = Runtime::new(RuntimeConfig::default());
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        rt.run_after(Duration::ZERO, move || flag.store(true, Ordering::SeqCst));
        assert!(
            ran.load(Ordering::SeqCst),
            "inline task must run before return"
        );
        rt.shutdown();
    }

    #[test]
    fn delayed_task_waits_for_deadline() {
        for rt in runtimes() {
            let (tx, rx) = mpsc::channel();
            let start = Instant::now();
            rt.run_after(Duration::from_millis(20), move || {
                tx.send(start.elapsed()).unwrap();
            });
            let elapsed = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert!(
                elapsed >= Duration::from_millis(20),
                "fired early: {elapsed:?}"
            );
            rt.shutdown();
        }
    }

    #[test]
    fn earlier_deadline_armed_later_fires_first() {
        // Every worker parks until the 5 s entry before the 20 ms one
        // arrives, so the new head has to wake one of them.
        for rt in runtimes() {
            let (tx, rx) = mpsc::channel();
            let late = tx.clone();
            rt.run_after(Duration::from_secs(5), move || {
                let _ = late.send("late");
            });
            let workers = rt.inner.workers.len();
            wait_until(|| rt.inner.sleepers.load(Ordering::SeqCst) == workers);
            rt.run_after(Duration::from_millis(20), move || {
                let _ = tx.send("early");
            });
            assert_eq!(rx.recv_timeout(Duration::from_secs(2)), Ok("early"));
            assert_eq!(pending(&rt), 1, "the later entry must still be pending");
            rt.shutdown();
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dispatcher_runs_tasks_with_tight_timer_slack() {
        for rt in runtimes() {
            let (tx, rx) = mpsc::channel();
            for _ in 0..2 {
                let tx = tx.clone();
                rt.run_after(Duration::from_millis(1), move || {
                    let _ = tx.send(crate::current_timer_slack_ns());
                });
            }
            for _ in 0..2 {
                assert_eq!(
                    rx.recv_timeout(Duration::from_secs(2)).unwrap(),
                    Some(crate::TIMER_SLACK_NS)
                );
            }
            rt.shutdown();
        }
    }

    #[test]
    fn tasks_fire_in_deadline_order() {
        for rt in runtimes() {
            let (tx, rx) = mpsc::channel();
            for (delay_ms, label) in [(30u64, 3), (10, 1), (20, 2)] {
                let tx = tx.clone();
                rt.run_after(Duration::from_millis(delay_ms), move || {
                    tx.send(label).unwrap();
                });
            }
            let order: Vec<i32> = (0..3)
                .map(|_| rx.recv_timeout(Duration::from_secs(2)).unwrap())
                .collect();
            assert_eq!(order, vec![1, 2, 3]);
            rt.shutdown();
        }
    }

    #[test]
    fn equal_deadlines_preserve_fifo() {
        // Equal deadlines through one shared (deadline, seq) order: FIFO
        // on the deterministic pool and, with one drainer at a time, on
        // four workers too.
        for rt in runtimes() {
            let (tx, rx) = mpsc::channel();
            for label in 0..200 {
                let tx = tx.clone();
                rt.run_after(Duration::from_millis(15), move || {
                    tx.send(label).unwrap();
                });
            }
            let order: Vec<i32> = (0..200)
                .map(|_| rx.recv_timeout(Duration::from_secs(2)).unwrap())
                .collect();
            assert_eq!(order, (0..200).collect::<Vec<_>>(), "{rt:?}");
            rt.shutdown();
        }
    }

    #[test]
    fn tasks_may_schedule_more_tasks() {
        for rt in runtimes() {
            let count = Arc::new(AtomicUsize::new(0));
            let (tx, rx) = mpsc::channel();
            let rt2 = rt.clone();
            let c2 = Arc::clone(&count);
            rt.run_after(Duration::from_millis(5), move || {
                c2.fetch_add(1, Ordering::SeqCst);
                let c3 = Arc::clone(&c2);
                rt2.run_after(Duration::from_millis(5), move || {
                    c3.fetch_add(1, Ordering::SeqCst);
                    tx.send(()).unwrap();
                });
            });
            rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(count.load(Ordering::SeqCst), 2);
            rt.shutdown();
        }
    }

    /// Sets its flag when dropped, so a test can see a task dropped unrun.
    struct DropFlag(Arc<AtomicBool>);
    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn shutdown_drops_pending_tasks_unrun() {
        for rt in runtimes() {
            let ran = Arc::new(AtomicBool::new(false));
            let dropped = Arc::new(AtomicBool::new(false));
            for _ in 0..3 {
                let flag = Arc::clone(&ran);
                let guard = DropFlag(Arc::clone(&dropped));
                rt.run_after(Duration::from_secs(60), move || {
                    let _guard = guard;
                    flag.store(true, Ordering::SeqCst)
                });
            }
            assert_eq!(pending(&rt), 3);
            rt.shutdown(); // must not wait for the 60 s tasks
            assert!(!ran.load(Ordering::SeqCst));
            assert!(dropped.load(Ordering::SeqCst), "pending tasks are dropped");
            assert_eq!(pending(&rt), 0);
            // A task armed after shutdown is dropped at once.
            let late = Arc::new(AtomicBool::new(false));
            rt.run_after(Duration::from_millis(1), {
                let guard = DropFlag(Arc::clone(&late));
                move || drop(guard)
            });
            assert!(late.load(Ordering::SeqCst));
        }
    }

    #[test]
    fn shutdown_from_inside_a_task_returns() {
        // The owner of a runtime can be dropped by the last task holding
        // it, on a pool thread: shutdown must not join that thread.
        for rt in runtimes() {
            let (tx, rx) = mpsc::channel();
            let owner = rt.clone();
            let next = Arc::new(AtomicBool::new(false));
            let next_ran = Arc::clone(&next);
            let at = Duration::from_millis(5);
            rt.run_after(at, move || {
                owner.shutdown();
                tx.send(owner.stats().workers).unwrap();
            });
            // Same deadline, armed later: it is dropped once shutdown began.
            rt.run_after(at, move || next_ran.store(true, Ordering::SeqCst));
            let workers = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(matches!(workers, 1 | 4));
            assert!(!next.load(Ordering::SeqCst), "ran after shutdown");
            rt.shutdown();
        }
    }

    #[test]
    fn one_shot_tasks_are_not_counted_as_timer_fires() {
        let rt = Runtime::new(RuntimeConfig::default());
        let (tx, rx) = mpsc::channel();
        for _ in 0..10 {
            let tx = tx.clone();
            rt.run_after(Duration::from_millis(1), move || tx.send(()).unwrap());
        }
        for _ in 0..10 {
            rx.recv_timeout(Duration::from_secs(2)).unwrap();
        }
        assert_eq!(rt.stats().timer_fires, 0);
        rt.shutdown();
    }
}
