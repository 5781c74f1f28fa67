//! Work-stealing actor runtime: mailbox-driven actors on a shared worker
//! pool, decoupling actor count from OS-thread count.
//!
//! Before this crate, every storage node, executor, VM cache, and scheduler
//! owned one OS thread parked in a blocking `recv_timeout` loop. That shape
//! drowns a real box in context switches and idle stacks long before the
//! hardware saturates once actor counts reach the paper's deployment sizes.
//! Here an actor is a [`Actor::poll`] state machine attached to a cell; a
//! message arrival or timer expiry *enqueues* the cell, and one of a small
//! fixed set of workers runs the poll until the mailbox drains. Periodic
//! work (gossip flush, WAL group commit, metric refresh) becomes a deadline
//! returned from `poll` and armed on a shared timer heap instead of a
//! `recv_timeout` tick per thread.
//!
//! # Time
//!
//! The runtime owns actor time. A poll reads the clock through
//! [`ActorCtx::now`], and every periodic job is a [`Cadence`], which holds
//! the one re-arm rule all of them share; a job with work only sometimes
//! (a flush) arms its cadence only while it has some
//! ([`Cadence::armed_while`]), so an idle actor arms no timer.
//! The same heap carries one-shot tasks ([`Runtime::run_after`]): every
//! delayed delivery and reply of the network fabric is one, so the heap
//! holds every deadline in the process. One thread watches its head (see
//! "Wake-ups"), so a deadline costs at most one thread wake: none when
//! the worker whose poll returned it watches it itself.
//! Every worker thread runs with a 1 µs timer slack
//! (`slack::tighten_timer_slack`), so a timed park wakes at its deadline
//! rather than at the end of the kernel's default 50 µs coalescing window.
//!
//! # Determinism
//!
//! [`RuntimeConfig::workers`] sizes the pool (0 = auto,
//! `available_parallelism` clamped to 2..=8). A pool of several workers
//! gives each a local deque beside the global injector, with seeded
//! victim-order stealing. A **one-worker** pool enqueues only on the
//! injector and drains it FIFO, so actor dispatch order is a pure function
//! of enqueue order and chaos `--seed` replays stay byte-for-byte; a
//! network on such a runtime draws its latencies from one RNG stripe and
//! delivers in one global `(deadline, seq)` order.
//! [`RuntimeConfig::deterministic`] asks for that pool, and
//! `CB_DETERMINISTIC=1`, the process's one determinism switch, forces every
//! runtime to it.
//!
//! # Blocking regions
//!
//! Pool workers must never block on something another actor on the same
//! pool has to produce, or the pool can deadlock under load. Any
//! potentially-blocking wait in product code is wrapped in
//! [`blocking`], which (on a pool thread) wakes a parked thread to steal
//! whatever the blocking worker had queued for itself and spawns a *spare*
//! worker when no spare is parked, so queued actors keep draining while the
//! blocked worker waits. Spares retire once the blocking pressure subsides
//! and are joined by the next spawn, so exited threads do not accumulate.
//! Off the pool, [`blocking`] is a free pass-through.
//!
//! # Wake-ups
//!
//! A wake from idle is the dominant cost of a short request, so the pool
//! spends as few as it can and spends them on the warmest thread. A worker
//! that enqueues a cell from inside a poll keeps it: the cell goes to the
//! worker's own deque and no sleeper is woken unless the deque already held
//! work (the worker pops the cell itself when its poll returns). Idle
//! threads — pool workers and spares alike — park on a per-thread condvar
//! and are recorded as a stack; every wake site pops the **most recently
//! parked** of those parked until notified. Failing those, it takes the
//! timed parker whose wait ends last, so the thread watching the timer
//! heap's head is taken only when it is the last one parked, and a spare
//! only when no pool worker is idle.
//!
//! A pool worker parks timed to the heap's head only if no parked thread's
//! wait already ends by then, and otherwise until notified; a spare parks
//! at most about one flush period. A deadline a poll returns to a worker
//! with nothing else queued is that worker's to watch: it parks timed to
//! it once back in its loop, at no wake. Any other deadline that becomes
//! the new head wakes one thread to re-park shorter, unless a parked
//! thread already wakes by then. A worker entering [`blocking`] and a
//! retiring spare hand their watch on. [`RuntimeStats::wakes`] and
//! [`RuntimeStats::park_timeouts`] count how parks end.
//!
//! # Lock hierarchy
//!
//! Three ranked locks (see ARCHITECTURE.md's table): `rt-actor-cell` (16)
//! guards an actor's parked state and is never held across a poll;
//! `rt-injector` (91) guards the injector, the timer heap, the ready
//! one-shot tasks, and the idle stack of parked threads; `rt-worker` (92)
//! guards one worker's local deque, and may be taken while holding 91 (an
//! idle worker stealing) but never the other way around.

#![warn(missing_docs)]

use std::cell::OnceCell;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

mod delay;
mod slack;
use slack::tighten_timer_slack;
#[cfg(test)]
use slack::{current_timer_slack_ns, TIMER_SLACK_NS};

/// Configuration for a [`Runtime`]. The `CB_DETERMINISTIC` environment
/// override forces `workers` to 1 process-wide.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Worker threads; `0` picks `available_parallelism().clamp(2, 8)`.
    /// One worker is the deterministic pool: actors run in global FIFO
    /// enqueue order, so chaos `--seed` replay stays byte-for-byte.
    pub workers: usize,
    /// Seed for the steal-victim rotation of a multi-worker pool. Stealing
    /// order never affects correctness, only which worker drains a backlog.
    pub seed: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            seed: 0xAC70_12B5,
        }
    }
}

impl RuntimeConfig {
    /// A deterministic single-worker configuration (replayable dispatch).
    pub fn deterministic() -> Self {
        Self {
            workers: 1,
            ..Self::default()
        }
    }
}

/// The pool size a [`RuntimeConfig`] resolves to. `CB_DETERMINISTIC=1`,
/// the one process-wide determinism switch, forces every [`Runtime`] — and
/// so every network delivering on one — to the single worker chaos
/// `--seed` replay runs on. It can only *add* determinism.
fn resolve_workers(config: &RuntimeConfig) -> usize {
    if std::env::var("CB_DETERMINISTIC").is_ok_and(|v| v == "1") {
        1
    } else if config.workers > 0 {
        config.workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(2, 8)
    }
}

/// What an actor's [`Actor::poll`] tells the runtime to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Mailbox drained and periodic work up to date: sleep until the next
    /// notify, or until `0`'s deadline if one is given (periodic cadence,
    /// `serve_busy` occupancy, …).
    Idle(Option<Instant>),
    /// The poll budget ran out with work remaining: re-enqueue at the back
    /// of the queue so other actors get a turn first.
    Yield,
    /// The actor is done (e.g. a Shutdown message was handled). The runtime
    /// drops it and marks the cell dead, releasing `join`/`stop` waiters.
    Shutdown,
}

/// One periodic job of an actor (gossip flush, WAL group commit, metrics
/// publication, a policy tick): a period and the next deadline, which the
/// actor hands back to the runtime through [`Poll::Idle`].
///
/// The re-arm rule lives here and nowhere else: a deadline served at `now`
/// re-arms one period after `now` — relative to the poll that served it,
/// not on an absolute grid. A cadence anchors on its first [`Cadence::due`]
/// call; [`Runtime::start`] forces a first poll, so an actor's cadences
/// are armed without a clock read at its spawn site.
///
/// A job with work only sometimes (a flush with an empty buffer has none)
/// hands its deadline over through [`Cadence::armed_while`], so an idle
/// actor arms no timer at all.
#[derive(Debug, Clone, Copy)]
pub struct Cadence {
    period: Duration,
    next: Option<Instant>,
    /// The last deadline handed out was withheld ([`Cadence::armed_while`]
    /// with nothing pending), so deadlines may have passed unserved.
    lapsed: bool,
}

impl Cadence {
    /// An unanchored cadence with this period.
    pub fn new(period: Duration) -> Self {
        Self {
            period,
            next: None,
            lapsed: false,
        }
    }

    /// Whether the deadline has passed as of `now`; if so, re-arm, so this
    /// returns true at most once per deadline. The first call only anchors
    /// the cadence (first deadline one period after `now`) and returns
    /// false. After a lapse, the deadlines that passed unarmed are skipped
    /// first, by whole periods.
    pub fn due(&mut self, now: Instant) -> bool {
        if std::mem::take(&mut self.lapsed) {
            self.skip_missed(now);
        }
        let due = self.next.is_some_and(|next| now >= next);
        if due || self.next.is_none() {
            self.rearm(now);
        }
        due
    }

    /// Re-arm one period after `now`, whatever the current deadline. For
    /// a job that must keep a full period *between* runs, re-arm from a
    /// clock read taken after the work.
    pub fn rearm(&mut self, now: Instant) {
        self.next = Some(now + self.period);
    }

    /// The next deadline.
    ///
    /// # Panics
    /// Panics before the first [`Cadence::due`] or [`Cadence::rearm`].
    pub fn deadline(&self) -> Instant {
        self.next
            .expect("Cadence::deadline before the cadence was anchored")
    }

    /// The deadline to hand the runtime for a job with work only
    /// sometimes: the next deadline while `pending`, `None` otherwise.
    /// Withheld, the cadence lapses instead of ticking idle, and keeps its
    /// grid: the next [`Cadence::due`] skips the deadlines that passed
    /// unarmed, so the first work after a quiet spell waits for the tick
    /// it would have had — neither served at once nor a full period after
    /// it arrived.
    ///
    /// # Panics
    /// Panics if `pending` before the cadence was anchored.
    pub fn armed_while(&mut self, pending: bool) -> Option<Instant> {
        self.lapsed = !pending;
        pending.then(|| self.deadline())
    }

    /// Move a passed deadline to the first one after `now` on its grid.
    fn skip_missed(&mut self, now: Instant) {
        let Some(next) = self.next else {
            return;
        };
        if now < next {
            return;
        }
        let period = self.period.as_nanos().max(1);
        let skip = ((now - next).as_nanos() / period + 1) * period;
        self.next = Some(next + Duration::from_nanos(skip as u64));
    }
}

/// A mailbox-driven actor. `poll` is called by pool workers with exclusive
/// access to the actor state; it should drain its mailbox (bounded by a
/// message budget, returning [`Poll::Yield`] when the budget runs out), do
/// any periodic work that has come due, and report its next deadline.
pub trait Actor: Send + 'static {
    /// Run the actor until its mailbox is (budget-bounded) drained.
    fn poll(&mut self, ctx: &mut ActorCtx<'_>) -> Poll;
}

/// Messages an actor's poll drains before it returns [`Poll::Yield`], so
/// co-scheduled actors on the shared pool stay live under a message storm.
pub const POLL_BUDGET: usize = 128;

/// Per-poll context handed to [`Actor::poll`].
pub struct ActorCtx<'a> {
    cell: &'a Cell,
    inner: &'a Inner,
}

impl ActorCtx<'_> {
    /// This actor's runtime-unique id.
    pub fn actor_id(&self) -> u64 {
        self.cell.id
    }

    /// The runtime's clock: what actors pace their [`Cadence`]s and
    /// service windows by, read here instead of at each call site.
    pub fn now(&self) -> Instant {
        rt_now()
    }

    /// Record the mailbox depth observed at the start of this poll, for the
    /// `max_mailbox_depth` runtime statistic.
    pub fn note_mailbox_depth(&self, depth: usize) {
        self.inner.max_mailbox.fetch_max(depth, Ordering::Relaxed);
    }
}

// Actor cell states. The state machine guarantees (a) at most one worker
// polls an actor at a time, and (b) a notify during a poll is never lost:
// it marks the cell dirty and the finishing worker re-enqueues it.
const EMBRYO: u8 = 0; // registered, actor not yet attached (treated as RUNNING)
const IDLE: u8 = 1;
const QUEUED: u8 = 2;
const RUNNING: u8 = 3;
const RUNNING_DIRTY: u8 = 4;
const DEAD: u8 = 5;

struct Slot {
    /// The actor, parked between polls. Taken *out* for the duration of a
    /// poll so the cell lock is never held across actor code.
    actor: Option<Box<dyn Actor>>,
    dead: bool,
}

struct Cell {
    id: u64,
    name: String,
    state: AtomicU8,
    /// Stop requested: the next time a worker picks the cell up (or the
    /// current poll finishes) the actor is dropped without further polling.
    stop: AtomicBool,
    // lock-rank: 16 rt-actor-cell
    slot: Mutex<Slot>,
    /// Signals `slot.dead` for `join`/`stop` waiters.
    dead_cv: Condvar,
    /// The deadline (ns since runtime epoch) currently armed, or 0. A heap
    /// entry wakes the cell only while this still holds its deadline, so a
    /// re-arm supersedes every older entry, and a steady cadence re-arming
    /// the same deadline adds none.
    armed_deadline: AtomicU64,
}

impl Cell {
    /// The one notify transition: IDLE → QUEUED, returning true (the
    /// caller must enqueue the cell); a running (or not yet started) cell
    /// is marked dirty for the finishing worker to re-enqueue; a queued or
    /// dead one is left alone.
    fn mark_queued(&self) -> bool {
        loop {
            let s = self.state.load(Ordering::Acquire);
            let next = match s {
                IDLE => QUEUED,
                RUNNING | EMBRYO => RUNNING_DIRTY,
                QUEUED | RUNNING_DIRTY | DEAD => return false,
                _ => unreachable!("invalid actor state {s}"),
            };
            if self
                .state
                .compare_exchange(s, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return next == QUEUED;
            }
        }
    }
}

/// A handle to a spawned actor: notify it, stop it, wait for it to die.
/// Cheap to clone; all clones address the same actor.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<Inner>,
}

/// Handle to one actor on a [`Runtime`].
#[derive(Clone)]
pub struct ActorHandle {
    cell: Arc<Cell>,
    inner: Arc<Inner>,
}

struct WorkerSlot {
    // lock-rank: 92 rt-worker
    deque: Mutex<VecDeque<Arc<Cell>>>,
    steals: AtomicU64,
}

struct Sched {
    injector: VecDeque<Arc<Cell>>,
    /// Every deadline not yet due — actor wakes and one-shot tasks —
    /// earliest `(deadline, seq)` first.
    heap: BinaryHeap<delay::Entry>,
    seq: u64,
    /// Due one-shot tasks in `(deadline, seq)` order, run by one thread at
    /// a time: the one that set `draining`.
    ready: VecDeque<delay::Task>,
    draining: bool,
    /// Parked threads (pool workers and spares share the one stack), most
    /// recently parked last. Each parks on its own condvar paired with
    /// `sched`; a waker pops the entry it notifies, so an entry still here
    /// after a wait means the wait timed out.
    idle: Vec<Sleeper>,
    shutdown: bool,
}

/// One parked thread on the idle stack.
struct Sleeper {
    cv: Arc<Condvar>,
    /// When its wait times out (ns since `epoch`), or `u64::MAX` for a
    /// wait that only a notify ends.
    until: u64,
}

impl Sched {
    /// Whether a parked thread's wait ends at or before `head` (ns since
    /// `epoch`), so a deadline there needs no other sleeper. Trivially
    /// true of no deadline (`u64::MAX`).
    fn watched(&self, head: u64) -> bool {
        head == u64::MAX || self.idle.iter().any(|s| s.until <= head)
    }
}

struct Inner {
    seed: u64,
    /// Epoch for the `next_deadline`/`armed_deadline` ns mirrors.
    epoch: Instant,
    // lock-rank: 91 rt-injector
    sched: Mutex<Sched>,
    /// Lock-free mirror of `sched.idle.len()`, read by producers to decide
    /// whether a wakeup signal is needed at all.
    sleepers: AtomicUsize,
    /// Lock-free mirror of the earliest deadline in the timer heap (ns
    /// since `epoch`; `u64::MAX` = none), so busy workers can check for
    /// due timers with one load per dispatch iteration.
    next_deadline: AtomicU64,
    workers: Box<[WorkerSlot]>,
    // lock-rank: 93 rt-threads
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Every cell ever registered (weak). [`Runtime::shutdown`] uses it to
    /// force-stop actors that are still alive — the safety net for handles
    /// dropped after the runtime (the graceful path kills actors first).
    // lock-rank: 94 rt-cells
    cells: Mutex<Vec<Weak<Cell>>>,
    /// Threads currently inside a [`blocking`] region.
    blocked: AtomicUsize,
    /// Spare workers alive / currently parked (see [`blocking`]).
    spares_alive: AtomicUsize,
    spares_parked: AtomicUsize,
    spares_spawned: AtomicU64,
    next_actor_id: AtomicU64,
    polls: AtomicU64,
    timer_fires: AtomicU64,
    wakes: AtomicU64,
    park_timeouts: AtomicU64,
    max_mailbox: AtomicUsize,
    shutdown_flag: AtomicBool,
}

/// A point-in-time snapshot of runtime activity, exposed through cluster
/// stats and printed by the chaos harness summary.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Mode label: `pooled` / `deterministic`.
    pub mode: String,
    /// Pool workers.
    pub workers: usize,
    /// Successful steals per worker, by worker index.
    pub steals: Vec<u64>,
    /// Actors ever spawned on this runtime.
    pub actors_spawned: u64,
    /// Total `poll` invocations across all actors.
    pub polls: u64,
    /// Current global-injector depth.
    pub injector_depth: usize,
    /// Largest mailbox depth any actor reported at the start of a poll.
    pub max_mailbox_depth: usize,
    /// Actor timer expirations dispatched (one-shot tasks are not counted).
    pub timer_fires: u64,
    /// Spare workers ever spawned to cover [`blocking`] regions.
    pub spares_spawned: u64,
    /// Parked threads notified (one futex wake each) by enqueues, timer
    /// re-arms and [`blocking`] entries.
    pub wakes: u64,
    /// Parks that ended un-notified: a timed wait ran out (a deadline
    /// came due, or a spare's idle park ended).
    pub park_timeouts: u64,
}

impl RuntimeStats {
    /// Sum of per-worker steal counts.
    pub fn total_steals(&self) -> u64 {
        self.steals.iter().sum()
    }
}

thread_local! {
    /// The runtime the current thread works for and its pool-worker index
    /// (`None` on a spare); unset off-pool.
    static WORKER: OnceCell<(Weak<Inner>, Option<usize>)> = const { OnceCell::new() };
}

/// Run `f`, declaring it may block on something produced by another actor
/// (an RPC reply, a condvar fill, simulated service time). On a pool
/// worker this ensures the pool retains runnable capacity by spawning a
/// spare worker when none is idle; anywhere else it is a free
/// pass-through. See the crate docs ("Blocking regions").
pub fn blocking<R>(f: impl FnOnce() -> R) -> R {
    let rt = WORKER.with(|w| w.get().and_then(|(rt, _)| rt.upgrade()));
    let Some(rt) = rt else {
        return f();
    };
    rt.enter_blocking();
    // Guard so a panic inside `f` still decrements the blocked count.
    struct Exit<'a>(&'a Inner);
    impl Drop for Exit<'_> {
        fn drop(&mut self) {
            self.0.blocked.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _exit = Exit(&rt);
    f()
}

impl Runtime {
    /// Build a runtime and start its workers.
    pub fn new(config: RuntimeConfig) -> Self {
        let worker_count = resolve_workers(&config);
        let workers: Box<[WorkerSlot]> = (0..worker_count)
            .map(|_| WorkerSlot {
                deque: Mutex::ranked(92, "rt-worker", VecDeque::new()),
                steals: AtomicU64::new(0),
            })
            .collect();
        let inner = Arc::new(Inner {
            seed: config.seed,
            #[expect(
                clippy::disallowed_methods,
                reason = "runtime epoch for deadline arithmetic; never compared across runs"
            )]
            epoch: Instant::now(),
            sched: Mutex::ranked(
                91,
                "rt-injector",
                Sched {
                    injector: VecDeque::new(),
                    heap: BinaryHeap::new(),
                    seq: 0,
                    ready: VecDeque::new(),
                    draining: false,
                    idle: Vec::new(),
                    shutdown: false,
                },
            ),
            sleepers: AtomicUsize::new(0),
            next_deadline: AtomicU64::new(u64::MAX),
            workers,
            threads: Mutex::ranked(93, "rt-threads", Vec::new()),
            cells: Mutex::ranked(94, "rt-cells", Vec::new()),
            blocked: AtomicUsize::new(0),
            spares_alive: AtomicUsize::new(0),
            spares_parked: AtomicUsize::new(0),
            spares_spawned: AtomicU64::new(0),
            next_actor_id: AtomicU64::new(1),
            polls: AtomicU64::new(0),
            timer_fires: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            park_timeouts: AtomicU64::new(0),
            max_mailbox: AtomicUsize::new(0),
            shutdown_flag: AtomicBool::new(false),
        });
        for i in 0..worker_count {
            let rt = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("cb-worker-{i}"))
                .spawn(move || worker_loop(rt, Some(i)))
                .expect("spawn runtime worker");
            inner.threads.lock().push(handle);
        }
        Runtime { inner }
    }

    /// Register an actor cell *without* attaching its actor yet, returning
    /// the handle. Use this to wire wakeup hooks (`Endpoint::set_notify`)
    /// that need the handle before the actor (which owns the endpoint) is
    /// built; notifies arriving before [`Runtime::start`] are remembered
    /// and replayed as an immediate first poll.
    pub fn register(&self, name: impl Into<String>) -> ActorHandle {
        let id = self.inner.next_actor_id.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(Cell {
            id,
            name: name.into(),
            // EMBRYO behaves like RUNNING for notify (marks dirty) so no
            // enqueue can happen before the actor is attached.
            state: AtomicU8::new(EMBRYO),
            stop: AtomicBool::new(false),
            slot: Mutex::ranked(
                16,
                "rt-actor-cell",
                Slot {
                    actor: None,
                    dead: false,
                },
            ),
            dead_cv: Condvar::new(),
            armed_deadline: AtomicU64::new(0),
        });
        self.inner.cells.lock().push(Arc::downgrade(&cell));
        ActorHandle {
            cell,
            inner: Arc::clone(&self.inner),
        }
    }

    /// Attach the actor to a [`Runtime::register`]ed cell and schedule its
    /// first poll (which establishes its periodic deadlines).
    pub fn start(&self, handle: &ActorHandle, actor: impl Actor) {
        handle.cell.slot.lock().actor = Some(Box::new(actor));
        // Leave EMBRYO: either the cell is clean (→ IDLE) or a notify
        // already arrived (→ QUEUED + enqueue). Then force the first poll.
        match handle
            .cell
            .state
            .compare_exchange(EMBRYO, IDLE, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {}
            Err(_) => {
                handle.cell.state.store(QUEUED, Ordering::Release);
                self.inner.enqueue(Arc::clone(&handle.cell));
            }
        }
        handle.notify();
    }

    /// Register + start in one step, for actors that need no pre-wiring.
    pub fn spawn(&self, name: impl Into<String>, actor: impl Actor) -> ActorHandle {
        let handle = self.register(name);
        self.start(&handle, actor);
        handle
    }

    /// Snapshot runtime statistics.
    pub fn stats(&self) -> RuntimeStats {
        let inner = &self.inner;
        let mode = if inner.workers.len() == 1 {
            "deterministic"
        } else {
            "pooled"
        };
        RuntimeStats {
            mode: mode.to_string(),
            workers: inner.workers.len(),
            steals: inner
                .workers
                .iter()
                .map(|w| w.steals.load(Ordering::Relaxed))
                .collect(),
            actors_spawned: inner.next_actor_id.load(Ordering::Relaxed) - 1,
            polls: inner.polls.load(Ordering::Relaxed),
            injector_depth: inner.sched.lock().injector.len(),
            max_mailbox_depth: inner.max_mailbox.load(Ordering::Relaxed),
            timer_fires: inner.timer_fires.load(Ordering::Relaxed),
            spares_spawned: inner.spares_spawned.load(Ordering::Relaxed),
            wakes: inner.wakes.load(Ordering::Relaxed),
            park_timeouts: inner.park_timeouts.load(Ordering::Relaxed),
        }
    }

    /// Stop all workers and join them. Actors should already be dead
    /// (stopped or protocol-shut); any still alive are force-stopped
    /// crash-style — no graceful flush — so a handle joined *after*
    /// shutdown can never hang. Pending one-shot tasks are dropped unrun.
    /// Safe to call more than once, and from a task or poll on this
    /// runtime's own pool: the calling thread is never joined, and exits
    /// once it returns to its loop.
    pub fn shutdown(&self) {
        self.inner.shutdown_flag.store(true, Ordering::SeqCst);
        // Force-stop survivors first: workers only exit once their queues
        // drain, so stop + notify lets them wind down promptly.
        let cells: Vec<Arc<Cell>> = {
            let mut reg = self.inner.cells.lock();
            reg.retain(|w| w.strong_count() > 0);
            reg.iter().filter_map(Weak::upgrade).collect()
        };
        for cell in &cells {
            if cell.state.load(Ordering::Acquire) != DEAD {
                cell.stop.store(true, Ordering::SeqCst);
                self.inner.notify(cell);
            }
        }
        // Pending one-shot tasks are dropped outside the lock: one may hold
        // the last handle to whatever owns this runtime.
        let pending = {
            let mut sched = self.inner.sched.lock();
            sched.shutdown = true;
            for parker in sched.idle.drain(..) {
                parker.cv.notify_one();
            }
            self.inner.sleepers.store(0, Ordering::SeqCst);
            (
                std::mem::take(&mut sched.heap),
                std::mem::take(&mut sched.ready),
            )
        };
        drop(pending);
        let current = std::thread::current().id();
        let handles: Vec<_> = self.inner.threads.lock().drain(..).collect();
        for h in handles {
            if h.thread().id() != current {
                let _ = h.join();
            }
        }
        // Finalize stragglers the exiting workers never ran, so late
        // `join`/`stop` calls return instead of waiting forever.
        for cell in cells {
            if cell.state.load(Ordering::Acquire) != DEAD {
                self.inner.finalize(&cell);
            }
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.inner.workers.len())
            .finish()
    }
}

impl ActorHandle {
    /// This actor's runtime-unique id.
    pub fn id(&self) -> u64 {
        self.cell.id
    }

    /// The name the actor was registered under.
    pub fn name(&self) -> &str {
        &self.cell.name
    }

    /// Wake the actor: if idle it is enqueued for a poll; if currently
    /// polling it is marked dirty and re-enqueued when the poll returns.
    /// Lock-free except for the queue push itself; a no-op on an actor
    /// that is already queued or dead.
    pub fn notify(&self) {
        self.inner.notify(&self.cell);
    }

    /// Whether the actor has finished (shut down or stopped).
    pub fn is_dead(&self) -> bool {
        self.cell.state.load(Ordering::Acquire) == DEAD
    }

    /// Block until the actor dies (typically after sending it a protocol
    /// Shutdown message). Wrap in [`blocking`] semantics automatically.
    pub fn join(&self) {
        blocking(|| {
            let mut slot = self.cell.slot.lock();
            while !slot.dead {
                self.cell.dead_cv.wait(&mut slot);
            }
        });
    }

    /// Request the actor be dropped without further polling — the crash /
    /// killed-endpoint path (a dead node's thread just disappears; no
    /// graceful flush). Blocks until the drop happened, so callers can
    /// rely on the actor's resources (disk handles, …) being released.
    pub fn stop(&self) {
        self.cell.stop.store(true, Ordering::SeqCst);
        self.inner.notify(&self.cell);
        self.join();
    }
}

impl std::fmt::Debug for ActorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorHandle")
            .field("id", &self.cell.id)
            .field("name", &self.cell.name)
            .finish()
    }
}

impl Inner {
    /// `t` in ns since `epoch`; never 0, which `armed_deadline` reads as
    /// nothing armed.
    fn to_ns(&self, t: Instant) -> u64 {
        (t.saturating_duration_since(self.epoch).as_nanos() as u64).max(1)
    }

    /// Wake/schedule a cell. See the state machine comment above.
    fn notify(self: &Arc<Self>, cell: &Arc<Cell>) {
        if cell.mark_queued() {
            self.enqueue(Arc::clone(cell));
        }
    }

    /// The pool-worker index of the current thread, if it is a pool worker
    /// of *this* runtime (not a spare, not another instance's worker).
    fn local_worker(self: &Arc<Self>) -> Option<usize> {
        WORKER.with(|w| {
            w.get()
                .filter(|(rt, _)| std::ptr::eq(rt.as_ptr(), Arc::as_ptr(self)))
                .and_then(|&(_, wid)| wid)
        })
    }

    /// Wake one parked thread, if any (caller holds `sched`): the most
    /// recently parked of those parked until notified; failing those, the
    /// timed one whose wait ends last, so the thread watching the timer
    /// heap's head is taken only when it is the last one parked, and a
    /// spare (always timed) only when no pool worker is idle.
    fn wake_one(&self, sched: &mut Sched) {
        let Some(at) = (0..sched.idle.len()).max_by_key(|&i| (sched.idle[i].until, i)) else {
            return;
        };
        let parker = sched.idle.remove(at);
        self.sleepers.store(sched.idle.len(), Ordering::SeqCst);
        self.wakes.fetch_add(1, Ordering::Relaxed);
        parker.cv.notify_one();
    }

    /// Push a QUEUED cell where a worker will find it. On a worker of a
    /// multi-worker pool: its local deque (cheap, good locality). Anywhere
    /// else — and always on a one-worker pool, where global FIFO order
    /// *is* the replay contract — the shared injector.
    fn enqueue(self: &Arc<Self>, cell: Arc<Cell>) {
        let local = match self.workers.len() {
            1 => None,
            _ => self.local_worker(),
        };
        match local {
            Some(wid) => {
                // Handoff: this worker pops the cell itself as soon as its
                // current poll returns, so a sleeper is only worth waking
                // for work queued *behind* it. ([`blocking`] covers the
                // case where the poll does not return promptly.)
                let backlog = {
                    let mut deque = self.workers[wid].deque.lock();
                    deque.push_back(cell);
                    deque.len() > 1
                };
                if backlog && self.sleepers.load(Ordering::SeqCst) > 0 {
                    let mut sched = self.sched.lock();
                    self.wake_one(&mut sched);
                }
            }
            None => {
                let mut sched = self.sched.lock();
                sched.injector.push_back(cell);
                self.wake_one(&mut sched);
            }
        }
    }

    /// Arm (or re-arm) the cell's timer as its poll returns. Re-arming the
    /// deadline already armed adds no heap entry; any other deadline
    /// supersedes it. A pool worker with nothing queued (locally, on the
    /// injector or ready) watches the deadline itself: it is on its way
    /// back to its loop to park.
    fn arm_timer(self: &Arc<Self>, cell: &Arc<Cell>, deadline: Instant) {
        let ns = self.to_ns(deadline);
        if cell.armed_deadline.swap(ns, Ordering::AcqRel) != ns {
            let mut sched = self.sched.lock();
            let armer_watches = sched.injector.is_empty()
                && sched.ready.is_empty()
                && self
                    .local_worker()
                    .is_some_and(|wid| self.workers[wid].deque.lock().is_empty());
            self.push_deadline(
                &mut sched,
                deadline,
                delay::Fire::Wake(Arc::downgrade(cell)),
                armer_watches,
            );
        }
    }

    /// Steal one cell from another worker's deque (caller holds the sched
    /// lock: rank 91 → 92 is the declared nesting). Victim order rotates
    /// from a seeded start so backlogs drain evenly.
    fn try_steal(&self, thief: Option<usize>) -> Option<Arc<Cell>> {
        let n = self.workers.len();
        let mix = |x: u64| {
            // splitmix64-style scramble; cheap and stateless.
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let salt = mix(self.seed ^ thief.map(|t| t as u64 + 1).unwrap_or(0));
        let start = (salt % n as u64) as usize;
        for k in 0..n {
            let victim = (start + k) % n;
            if Some(victim) == thief {
                continue;
            }
            if let Some(cell) = self.workers[victim].deque.lock().pop_front() {
                if let Some(t) = thief {
                    self.workers[t].steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some(cell);
            }
        }
        None
    }

    /// Run one cell's poll with full state-transition handling.
    fn run_cell(self: &Arc<Self>, cell: Arc<Cell>) {
        if cell
            .state
            .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return; // raced with stop/finalize
        }
        if cell.stop.load(Ordering::Acquire) {
            self.finalize(&cell);
            return;
        }
        let Some(mut actor) = cell.slot.lock().actor.take() else {
            // Attach raced us (start() hasn't put the actor in yet).
            cell.state.store(IDLE, Ordering::Release);
            return;
        };
        self.polls.fetch_add(1, Ordering::Relaxed);
        let poll = actor.poll(&mut ActorCtx {
            cell: &cell,
            inner: self,
        });
        if cell.stop.load(Ordering::Acquire) || poll == Poll::Shutdown {
            // Drop the actor outside every runtime lock: its Drop may take
            // product locks of lower rank (e.g. releasing a disk handle).
            drop(actor);
            self.finalize(&cell);
            return;
        }
        cell.slot.lock().actor = Some(actor);
        match poll {
            Poll::Yield => {
                cell.state.store(QUEUED, Ordering::Release);
                self.enqueue(cell);
            }
            Poll::Idle(deadline) => {
                if let Some(d) = deadline {
                    self.arm_timer(&cell, d);
                }
                if cell
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // A notify landed during the poll (RUNNING_DIRTY).
                    cell.state.store(QUEUED, Ordering::Release);
                    self.enqueue(cell);
                }
            }
            Poll::Shutdown => unreachable!("handled above"),
        }
    }

    /// Mark a cell dead and release join/stop waiters. The actor must
    /// already have been dropped (outside all runtime locks).
    fn finalize(&self, cell: &Cell) {
        let dropped = {
            let mut slot = cell.slot.lock();
            slot.actor.take()
        };
        drop(dropped);
        cell.state.store(DEAD, Ordering::Release);
        let mut slot = cell.slot.lock();
        slot.dead = true;
        cell.dead_cv.notify_all();
    }

    /// [`blocking`] entry: account the block and make sure the pool still
    /// has runnable capacity, spawning a spare worker if not, and that the
    /// timer heap's head still has a thread to watch it.
    fn enter_blocking(self: &Arc<Self>) {
        let blocked = self.blocked.fetch_add(1, Ordering::SeqCst) + 1;
        if self.shutdown_flag.load(Ordering::SeqCst) {
            return;
        }
        // Cells this worker queued for itself (see `enqueue`) would wait
        // out the block: have a parked thread steal them. The check takes
        // `sched` unconditionally — under it the idle stack is exact, so a
        // worker about to park either is woken here or has yet to run its
        // own steal pass.
        let queued = self
            .local_worker()
            .is_some_and(|wid| !self.workers[wid].deque.lock().is_empty());
        if queued {
            let mut sched = self.sched.lock();
            self.wake_one(&mut sched);
        }
        let spawn = self.spares_parked.load(Ordering::SeqCst) == 0
            && self.spares_alive.load(Ordering::SeqCst) < blocked;
        // This thread may have been the one to watch the timer heap's head
        // (it fired it, or armed it as its poll returned): unless a spare
        // is on its way (it parks timed), hand the watch to a parked
        // thread. The thread woken for the queued cells parks again once
        // it has served them, timed to an unwatched head.
        if !queued && !spawn && self.next_deadline.load(Ordering::Relaxed) != u64::MAX {
            let mut sched = self.sched.lock();
            if !sched.watched(self.next_deadline.load(Ordering::Relaxed)) {
                self.wake_one(&mut sched);
            }
        }
        if spawn {
            self.spares_alive.fetch_add(1, Ordering::SeqCst);
            self.spares_spawned.fetch_add(1, Ordering::Relaxed);
            let rt = Arc::clone(self);
            let spawned = std::thread::Builder::new()
                .name("cb-worker-spare".into())
                .spawn(move || worker_loop(rt, None));
            match spawned {
                Ok(h) => {
                    // Reap the spares that have retired since the last
                    // spawn: an exited thread keeps its stack mapping and
                    // a few resident pages until it is joined, so holding
                    // every handle until shutdown grows the process with
                    // the spawn count.
                    let mut threads = self.threads.lock();
                    let mut i = 0;
                    while i < threads.len() {
                        if threads[i].is_finished() {
                            let _ = threads.swap_remove(i).join();
                        } else {
                            i += 1;
                        }
                    }
                    threads.push(h);
                }
                Err(_) => {
                    self.spares_alive.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
    }
}

fn rt_now() -> Instant {
    #[expect(
        clippy::disallowed_methods,
        reason = "the runtime's scheduling clock; deadlines come from actors' own config-driven cadences"
    )]
    Instant::now()
}

/// Max messages/cells a worker dispatches between timer checks is 1 — the
/// fast check is a single atomic load, so it rides every iteration.
fn worker_loop(inner: Arc<Inner>, wid: Option<usize>) {
    tighten_timer_slack();
    let spare = wid.is_none();
    let _ = WORKER.with(|w| w.set((Arc::downgrade(&inner), wid)));
    /// Longest a spare parks (ns): about one flush period, so a spare
    /// outlives its blocking region by that much however far off the next
    /// deadline is.
    const SPARE_IDLE_PARK_NS: u64 = 2_000_000;
    // This thread's entry on the idle stack (paired with `sched`).
    let parker = Arc::new(Condvar::new());
    // The last park timed out and nothing has run since: this thread is
    // the coldest, so it re-parks at the bottom of the stack instead of
    // displacing the thread that is actually serving wake-ups.
    let mut cold = false;
    // The last park ended un-notified, whatever has run since (a spare
    // retires on it).
    let mut timed_out = false;
    loop {
        // 1. Local deque first (owner end).
        if let Some(w) = wid {
            let cell = inner.workers[w].deque.lock().pop_front();
            if let Some(cell) = cell {
                cold = false;
                inner.run_cell(cell);
                // Due timers must not starve behind a long local backlog:
                // while one remains, every fired cell wakes a thread.
                let now = rt_now();
                if inner.to_ns(now) >= inner.next_deadline.load(Ordering::Relaxed) {
                    let mut sched = inner.sched.lock();
                    let free = inner.workers[w].deque.lock().is_empty();
                    inner.expire_due(&mut sched, now, free);
                    inner.drain_ready(sched);
                }
                continue;
            }
        }
        // 2. Timers, due one-shot tasks, injector and stealing under the
        // sched lock.
        let mut sched = inner.sched.lock();
        inner.expire_due(&mut sched, rt_now(), true);
        let Some(mut sched) = inner.drain_ready(sched) else {
            cold = false;
            continue;
        };
        let found = sched.injector.pop_front().or_else(|| inner.try_steal(wid));
        if let Some(cell) = found {
            drop(sched);
            cold = false;
            inner.run_cell(cell);
            continue;
        }
        if sched.shutdown {
            return;
        }
        let head = inner.next_deadline.load(Ordering::Relaxed);
        // 3. Spare retirement: its last park ended un-notified and the
        // injector is empty, while spares outnumber blocked regions. What
        // that park woke it for was served above; the watch on the next
        // deadline is handed on, never taken along.
        let retire = spare
            && timed_out
            && sched.injector.is_empty()
            && inner.spares_alive.load(Ordering::SeqCst) > inner.blocked.load(Ordering::SeqCst);
        if retire {
            inner.spares_alive.fetch_sub(1, Ordering::SeqCst);
            if !sched.watched(head) {
                inner.wake_one(&mut sched);
            }
            return;
        }
        // 4. Park. One parked thread watches the heap's head: a worker
        // parks timed to it only if no parked thread's wait already ends by
        // then, and otherwise until notified. A spare parks at most
        // `SPARE_IDLE_PARK_NS`. Announce the sleep *before* releasing
        // interest so a producer that pushed right after our checks sees
        // sleepers > 0 and signals (no lost wakeups).
        let now_ns = inner.to_ns(rt_now());
        let until = if spare {
            head.min(now_ns + SPARE_IDLE_PARK_NS)
        } else if sched.watched(head) {
            u64::MAX
        } else {
            head
        };
        let entry = Sleeper {
            cv: Arc::clone(&parker),
            until,
        };
        if cold {
            sched.idle.insert(0, entry);
        } else {
            sched.idle.push(entry);
        }
        inner.sleepers.store(sched.idle.len(), Ordering::SeqCst);
        if spare {
            inner.spares_parked.fetch_add(1, Ordering::SeqCst);
        }
        if until == u64::MAX {
            parker.wait(&mut sched);
        } else {
            parker.wait_for(
                &mut sched,
                Duration::from_nanos(until.saturating_sub(now_ns)),
            );
        }
        // A waker pops the entry it notifies; finding ours still on the
        // stack means the wait timed out (or woke spuriously).
        timed_out = match sched.idle.iter().position(|s| Arc::ptr_eq(&s.cv, &parker)) {
            Some(at) => {
                sched.idle.remove(at);
                inner.sleepers.store(sched.idle.len(), Ordering::SeqCst);
                inner.park_timeouts.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        };
        cold = timed_out;
        if spare {
            inner.spares_parked.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "test code may read the wall clock: it times its own waits"
)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Counts how many notifies it has absorbed; optionally re-arms a
    /// periodic deadline.
    struct Counter {
        hits: Arc<AtomicU64>,
        shutdown_at: Option<u64>,
    }

    impl Actor for Counter {
        fn poll(&mut self, _ctx: &mut ActorCtx<'_>) -> Poll {
            let n = self.hits.fetch_add(1, Ordering::SeqCst) + 1;
            if self.shutdown_at.is_some_and(|s| n >= s) {
                return Poll::Shutdown;
            }
            Poll::Idle(None)
        }
    }

    /// Yields rather than sleeps: the wake-path tests run a thousand
    /// rounds of it.
    fn wait_until(cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(10), "timed out");
            std::thread::yield_now();
        }
    }

    #[test]
    fn notify_triggers_poll_in_every_mode() {
        for config in [RuntimeConfig::default(), RuntimeConfig::deterministic()] {
            let rt = Runtime::new(config);
            let hits = Arc::new(AtomicU64::new(0));
            let h = rt.spawn(
                "counter",
                Counter {
                    hits: Arc::clone(&hits),
                    shutdown_at: None,
                },
            );
            // The start() poll plus at least one notified poll.
            h.notify();
            wait_until(|| hits.load(Ordering::SeqCst) >= 1);
            h.stop();
            assert!(h.is_dead());
            rt.shutdown();
        }
    }

    #[test]
    fn shutdown_poll_result_kills_actor() {
        let rt = Runtime::new(RuntimeConfig::default());
        let hits = Arc::new(AtomicU64::new(0));
        let h = rt.spawn(
            "till-three",
            Counter {
                hits: Arc::clone(&hits),
                shutdown_at: Some(3),
            },
        );
        for _ in 0..10 {
            h.notify();
            std::thread::sleep(Duration::from_millis(2));
        }
        h.join();
        assert!(h.is_dead());
        assert_eq!(hits.load(Ordering::SeqCst), 3, "no polls after Shutdown");
        rt.shutdown();
    }

    /// FIFO worker: drains an mpsc mailbox and records order.
    struct Fifo {
        rx: mpsc::Receiver<(usize, u64)>,
        log: Arc<Mutex<Vec<(usize, u64)>>>,
        done: Arc<AtomicU64>,
    }

    impl Actor for Fifo {
        fn poll(&mut self, ctx: &mut ActorCtx<'_>) -> Poll {
            let mut budget = 64;
            let mut seen = 0;
            while budget > 0 {
                match self.rx.try_recv() {
                    Ok(item) => {
                        self.log.lock().push(item);
                        self.done.fetch_add(1, Ordering::SeqCst);
                        seen += 1;
                        budget -= 1;
                    }
                    Err(_) => break,
                }
            }
            ctx.note_mailbox_depth(seen);
            if budget == 0 {
                Poll::Yield
            } else {
                Poll::Idle(None)
            }
        }
    }

    #[test]
    fn actors_exceed_workers_all_mailboxes_drain_in_order() {
        // 48 actors on 3 workers: every message processed, and per-actor
        // order preserved (the state machine guarantees exclusive polls).
        let rt = Runtime::new(RuntimeConfig {
            workers: 3,
            ..RuntimeConfig::default()
        });
        let done = Arc::new(AtomicU64::new(0));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        let mut senders = Vec::new();
        for a in 0..48 {
            let (tx, rx) = mpsc::channel();
            let h = rt.spawn(
                format!("fifo-{a}"),
                Fifo {
                    rx,
                    log: Arc::clone(&log),
                    done: Arc::clone(&done),
                },
            );
            handles.push(h);
            senders.push(tx);
        }
        const PER_ACTOR: u64 = 200;
        for seq in 0..PER_ACTOR {
            for (a, tx) in senders.iter().enumerate() {
                tx.send((a, seq)).unwrap();
                handles[a].notify();
            }
        }
        wait_until(|| done.load(Ordering::SeqCst) == 48 * PER_ACTOR);
        let log = log.lock();
        let mut last = vec![None::<u64>; 48];
        for &(a, seq) in log.iter() {
            if let Some(prev) = last[a] {
                assert!(seq > prev, "actor {a}: {seq} after {prev} — order broken");
            }
            last[a] = Some(seq);
        }
        drop(log);
        for h in &handles {
            h.stop();
        }
        let stats = rt.stats();
        assert_eq!(stats.actors_spawned, 48);
        assert!(stats.polls > 0);
        rt.shutdown();
    }

    /// Re-arms a short periodic deadline and counts fires.
    struct Ticker {
        every: Duration,
        fires: Arc<AtomicU64>,
    }

    impl Actor for Ticker {
        fn poll(&mut self, ctx: &mut ActorCtx<'_>) -> Poll {
            self.fires.fetch_add(1, Ordering::SeqCst);
            Poll::Idle(Some(ctx.now() + self.every))
        }
    }

    #[test]
    fn timer_deadlines_fire_without_notifies() {
        for config in [RuntimeConfig::default(), RuntimeConfig::deterministic()] {
            let rt = Runtime::new(config);
            let fires = Arc::new(AtomicU64::new(0));
            let h = rt.spawn(
                "ticker",
                Ticker {
                    every: Duration::from_millis(5),
                    fires: Arc::clone(&fires),
                },
            );
            wait_until(|| fires.load(Ordering::SeqCst) >= 5);
            h.stop();
            assert!(rt.stats().timer_fires >= 4);
            rt.shutdown();
        }
    }

    /// Producer half: its poll sends into a channel the consumer blocks on.
    struct Producer {
        tx: mpsc::Sender<u64>,
    }
    impl Actor for Producer {
        fn poll(&mut self, _ctx: &mut ActorCtx<'_>) -> Poll {
            let _ = self.tx.send(7);
            Poll::Idle(None)
        }
    }

    /// Consumer half: blocks (inside `blocking`) on the producer's output.
    struct Consumer {
        rx: mpsc::Receiver<u64>,
        got: Arc<AtomicU64>,
    }
    impl Actor for Consumer {
        fn poll(&mut self, _ctx: &mut ActorCtx<'_>) -> Poll {
            let v = blocking(|| self.rx.recv_timeout(Duration::from_secs(5)));
            if let Ok(v) = v {
                self.got.store(v, Ordering::SeqCst);
            }
            Poll::Idle(None)
        }
    }

    #[test]
    fn blocking_region_spawns_spare_and_avoids_pool_deadlock() {
        // One worker. The consumer blocks that worker waiting on data only
        // the producer's poll can supply — without the spare mechanism the
        // pool deadlocks.
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let got = Arc::new(AtomicU64::new(0));
        let consumer = rt.spawn(
            "consumer",
            Consumer {
                rx,
                got: Arc::clone(&got),
            },
        );
        let producer = rt.spawn("producer", Producer { tx });
        consumer.notify();
        producer.notify();
        wait_until(|| got.load(Ordering::SeqCst) == 7);
        assert!(rt.stats().spares_spawned >= 1, "a spare must have covered");
        consumer.stop();
        producer.stop();
        rt.shutdown();
    }

    /// Each poll spends a moment inside `blocking`.
    struct Blocker {
        rounds: Arc<AtomicU64>,
    }
    impl Actor for Blocker {
        fn poll(&mut self, _ctx: &mut ActorCtx<'_>) -> Poll {
            blocking(|| std::thread::sleep(Duration::from_millis(1)));
            self.rounds.fetch_add(1, Ordering::SeqCst);
            Poll::Idle(None)
        }
    }

    #[test]
    fn retired_spares_are_reaped_at_the_next_spawn() {
        // An exited thread keeps its stack mapping and a few resident pages
        // until it is joined, so the handles of retired spares must not
        // pile up until shutdown: each spawn joins the ones that finished.
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        });
        let rounds = Arc::new(AtomicU64::new(0));
        let blocker = rt.spawn(
            "blocker",
            Blocker {
                rounds: Arc::clone(&rounds),
            },
        );
        for round in 1..=5 {
            wait_until(|| rounds.load(Ordering::SeqCst) >= round);
            assert_eq!(rt.stats().spares_spawned, round, "one spare a round");
            assert_eq!(
                rt.inner.threads.lock().len(),
                2,
                "the worker and this round's spare; earlier spares were joined"
            );
            // Let the spare retire (one idle park) and its thread finish.
            wait_until(|| {
                rt.inner.spares_alive.load(Ordering::SeqCst) == 0
                    && rt
                        .inner
                        .threads
                        .lock()
                        .iter()
                        .all(|h| h.is_finished() || h.thread().name() == Some("cb-worker-0"))
            });
            blocker.notify();
        }
        blocker.stop();
        rt.shutdown();
    }

    fn all_parked(rt: &Runtime) -> bool {
        rt.inner.sleepers.load(Ordering::SeqCst) == rt.inner.workers.len()
    }

    /// Counts its polls and passes the baton to `next`, if any.
    struct Relay {
        hits: Arc<AtomicU64>,
        next: Option<ActorHandle>,
    }

    impl Actor for Relay {
        fn poll(&mut self, _ctx: &mut ActorCtx<'_>) -> Poll {
            self.hits.fetch_add(1, Ordering::SeqCst);
            if let Some(next) = &self.next {
                next.notify();
            }
            Poll::Idle(None)
        }
    }

    #[test]
    fn relay_stays_on_the_worker_that_was_woken() {
        // A notifies B notifies C: each hop lands in the running worker's
        // own deque and is popped by that worker — no second wake-up, no
        // steal — so a round costs the one wake of the off-pool kick.
        let rt = Runtime::new(RuntimeConfig {
            workers: 3,
            ..RuntimeConfig::default()
        });
        let hits: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let c = rt.spawn(
            "relay-c",
            Relay {
                hits: Arc::clone(&hits[2]),
                next: None,
            },
        );
        let b = rt.spawn(
            "relay-b",
            Relay {
                hits: Arc::clone(&hits[1]),
                next: Some(c.clone()),
            },
        );
        let a = rt.spawn(
            "relay-a",
            Relay {
                hits: Arc::clone(&hits[0]),
                next: Some(b.clone()),
            },
        );
        // The start() polls cascade too; let them settle.
        wait_until(|| hits[0].load(Ordering::SeqCst) == 1);
        for _ in 0..200 {
            wait_until(|| all_parked(&rt));
            let (steals, wakes) = (rt.stats().total_steals(), rt.stats().wakes);
            let served = hits[2].load(Ordering::SeqCst);
            a.notify();
            wait_until(|| hits[2].load(Ordering::SeqCst) > served);
            wait_until(|| all_parked(&rt));
            let stats = rt.stats();
            assert_eq!(stats.total_steals(), steals, "a hop was stolen");
            assert!(stats.wakes - wakes <= 1, "a hop woke a second worker");
        }
        for h in [&a, &b, &c] {
            h.stop();
        }
        rt.shutdown();
    }

    /// Once armed, notifies its peer from inside its own poll and then
    /// blocks until the peer has run.
    struct NotifyThenBlock {
        armed: Arc<AtomicBool>,
        peer: ActorHandle,
        rx: mpsc::Receiver<u64>,
        got: Arc<AtomicU64>,
    }

    impl Actor for NotifyThenBlock {
        fn poll(&mut self, _ctx: &mut ActorCtx<'_>) -> Poll {
            if !self.armed.swap(false, Ordering::SeqCst) {
                return Poll::Idle(None);
            }
            while self.rx.try_recv().is_ok() {}
            self.peer.notify();
            if let Ok(v) = blocking(|| self.rx.recv_timeout(Duration::from_secs(5))) {
                self.got.store(v, Ordering::SeqCst);
            }
            Poll::Idle(None)
        }
    }

    #[test]
    fn cell_queued_behind_a_blocking_poll_is_stolen() {
        // With two workers the peer's cell sits in the blocking worker's
        // own deque, which nobody was woken for: the parked one must be
        // woken to steal it. With one worker it sits on the injector, and
        // the spare must drain it.
        for workers in [2, 1] {
            let rt = Runtime::new(RuntimeConfig {
                workers,
                ..RuntimeConfig::default()
            });
            let (tx, rx) = mpsc::channel();
            let got = Arc::new(AtomicU64::new(0));
            let armed = Arc::new(AtomicBool::new(false));
            let producer = rt.spawn("peer", Producer { tx });
            let blocker = rt.spawn(
                "notify-then-block",
                NotifyThenBlock {
                    armed: Arc::clone(&armed),
                    peer: producer.clone(),
                    rx,
                    got: Arc::clone(&got),
                },
            );
            wait_until(|| all_parked(&rt));
            armed.store(true, Ordering::SeqCst);
            blocker.notify();
            // Watchdog: the blocked poll gives up after 5 s and leaves
            // `got` at 0, which fails here at 10 s instead of hanging.
            wait_until(|| got.load(Ordering::SeqCst) == 7);
            producer.stop();
            blocker.stop();
            rt.shutdown();
        }
    }

    /// Records which thread polled it.
    struct WhoPolls {
        hits: Arc<AtomicU64>,
        threads: Arc<Mutex<Vec<String>>>,
    }

    impl Actor for WhoPolls {
        fn poll(&mut self, _ctx: &mut ActorCtx<'_>) -> Poll {
            let name = std::thread::current().name().unwrap_or("?").to_string();
            let mut threads = self.threads.lock();
            if !threads.contains(&name) {
                threads.push(name);
            }
            drop(threads);
            self.hits.fetch_add(1, Ordering::SeqCst);
            Poll::Idle(None)
        }
    }

    #[test]
    fn sequential_notifies_reuse_the_most_recently_parked_worker() {
        // LIFO idle stack: the worker that served the last notify parked
        // last, so it serves the next one too; the other two stay asleep
        // (and a worker whose park merely timed out re-parks *below* it).
        let rt = Runtime::new(RuntimeConfig {
            workers: 3,
            ..RuntimeConfig::default()
        });
        let hits = Arc::new(AtomicU64::new(0));
        let threads = Arc::new(Mutex::new(Vec::new()));
        let h = rt.spawn(
            "who-polls",
            WhoPolls {
                hits: Arc::clone(&hits),
                threads: Arc::clone(&threads),
            },
        );
        wait_until(|| hits.load(Ordering::SeqCst) >= 1);
        wait_until(|| all_parked(&rt));
        // The start() poll may have run anywhere; count from here.
        threads.lock().clear();
        let base = hits.load(Ordering::SeqCst);
        for n in 1..=1000 {
            h.notify();
            wait_until(|| hits.load(Ordering::SeqCst) == base + n);
            wait_until(|| all_parked(&rt));
        }
        assert_eq!(
            threads.lock().len(),
            1,
            "notifies bounced between workers: {:?}",
            threads.lock()
        );
        assert_eq!(rt.stats().total_steals(), 0);
        h.stop();
        rt.shutdown();
    }

    #[test]
    fn blocking_off_pool_is_pass_through() {
        assert_eq!(blocking(|| 42), 42);
    }

    const PERIOD: Duration = Duration::from_millis(10);

    #[test]
    fn cadence_first_deadline_is_one_period_after_the_anchor() {
        let anchor = Instant::now();
        let mut c = Cadence::new(PERIOD);
        assert!(!c.due(anchor), "anchoring is not a fire");
        assert_eq!(c.deadline(), anchor + PERIOD);
    }

    #[test]
    fn cadence_is_due_once_per_deadline() {
        let anchor = Instant::now();
        let mut c = Cadence::new(PERIOD);
        c.due(anchor);
        assert!(!c.due(anchor + PERIOD / 2));
        let at = c.deadline();
        assert!(c.due(at));
        assert!(!c.due(at), "a deadline fires once");
        assert_eq!(c.deadline(), at + PERIOD);
    }

    #[test]
    fn late_due_rearms_one_period_after_now() {
        // The re-arm rule: relative to the poll that served the deadline,
        // not the absolute grid (which would give `anchor + 4 × PERIOD`).
        let anchor = Instant::now();
        let mut c = Cadence::new(PERIOD);
        c.due(anchor);
        let late = anchor + PERIOD * 3 + PERIOD / 2;
        assert!(c.due(late));
        assert_eq!(c.deadline(), late + PERIOD);
        let after_work = late + PERIOD / 4;
        c.rearm(after_work);
        assert_eq!(c.deadline(), after_work + PERIOD);
    }

    #[test]
    fn withheld_cadence_keeps_its_grid() {
        // Armed while work is pending; withheld while idle. The first work
        // after the quiet spell waits for the next tick on the old grid:
        // not served at once, not a full period after it arrived.
        let anchor = Instant::now();
        let mut c = Cadence::new(PERIOD);
        c.due(anchor);
        assert_eq!(c.armed_while(true), Some(anchor + PERIOD));
        assert!(c.due(anchor + PERIOD));
        assert_eq!(c.armed_while(false), None, "idle: nothing armed");
        let work = anchor + PERIOD * 5 + PERIOD / 4;
        assert!(!c.due(work), "deadlines that passed unarmed are not due");
        assert_eq!(c.armed_while(true), Some(anchor + PERIOD * 6));
        assert!(c.due(anchor + PERIOD * 6));
    }

    #[test]
    fn armed_cadence_served_late_is_still_due() {
        // Only a withheld deadline is skipped: an armed one that fires
        // late is served.
        let anchor = Instant::now();
        let mut c = Cadence::new(PERIOD);
        c.due(anchor);
        c.armed_while(true);
        assert!(c.due(anchor + PERIOD * 3));
    }

    #[test]
    fn idle_workers_sleep_through_a_cadence() {
        // One parked thread watches the timer heap's head; the others park
        // until notified, so each fire costs about one timed-out park
        // rather than one per parked worker.
        let rt = Runtime::new(RuntimeConfig {
            workers: 3,
            ..RuntimeConfig::default()
        });
        let fires = Arc::new(AtomicU64::new(0));
        let h = rt.spawn(
            "ticker",
            Ticker {
                every: Duration::from_millis(1),
                fires: Arc::clone(&fires),
            },
        );
        wait_until(|| fires.load(Ordering::SeqCst) >= 2);
        let before = rt.stats();
        std::thread::sleep(Duration::from_millis(200));
        let after = rt.stats();
        let fired = after.timer_fires - before.timer_fires;
        let timeouts = after.park_timeouts - before.park_timeouts;
        assert!(fired > 0);
        assert!(
            timeouts <= fired + 8,
            "{timeouts} timed-out parks for {fired} timer fires"
        );
        h.stop();
        rt.shutdown();
    }

    /// Once `go` is set, its next poll arms one deadline `after` from now
    /// — a one-shot task, or its own actor timer — then spends `block`
    /// inside [`blocking`]; the deadline reports how long after the
    /// arming it fired.
    struct ArmInPoll {
        rt: Runtime,
        go: Arc<AtomicBool>,
        task: bool,
        after: Duration,
        block: Duration,
        armed_at: Option<Instant>,
        fired: mpsc::Sender<Duration>,
    }

    impl Actor for ArmInPoll {
        fn poll(&mut self, ctx: &mut ActorCtx<'_>) -> Poll {
            let now = ctx.now();
            if let Some(at) = self.armed_at {
                if now < at + self.after {
                    return Poll::Idle(Some(at + self.after));
                }
                self.armed_at = None;
                let _ = self.fired.send(now - at);
                return Poll::Idle(None);
            }
            if !self.go.swap(false, Ordering::SeqCst) {
                return Poll::Idle(None);
            }
            let deadline = if self.task {
                let fired = self.fired.clone();
                self.rt.run_after(self.after, move || {
                    let _ = fired.send(now.elapsed());
                });
                None
            } else {
                self.armed_at = Some(now);
                Some(now + self.after)
            };
            if !self.block.is_zero() {
                blocking(|| std::thread::sleep(self.block));
            }
            Poll::Idle(deadline)
        }
    }

    fn arm_in_poll(
        rt: &Runtime,
        task: bool,
        after: Duration,
        block: Duration,
    ) -> (ActorHandle, Arc<AtomicBool>, mpsc::Receiver<Duration>) {
        let (tx, rx) = mpsc::channel();
        let go = Arc::new(AtomicBool::new(false));
        let h = rt.spawn(
            "arm-in-poll",
            ArmInPoll {
                rt: rt.clone(),
                go: Arc::clone(&go),
                task,
                after,
                block,
                armed_at: None,
                fired: tx,
            },
        );
        (h, go, rx)
    }

    fn pooled_and_deterministic() -> [RuntimeConfig; 2] {
        [
            RuntimeConfig {
                workers: 3,
                ..RuntimeConfig::default()
            },
            RuntimeConfig::deterministic(),
        ]
    }

    #[test]
    fn deadline_armed_in_a_poll_costs_one_wake_and_fires_on_time() {
        // Every thread is parked until notified when the poll arms the
        // new head. A one-shot task armed in the poll wakes one of them to
        // park timed to it; a deadline the poll returns wakes none (next
        // test). Either way at most one wake beside the off-pool notify
        // that started the poll — no herd.
        for config in pooled_and_deterministic() {
            for task in [true, false] {
                let rt = Runtime::new(config);
                let after = Duration::from_millis(2);
                let (h, go, rx) = arm_in_poll(&rt, task, after, Duration::ZERO);
                wait_until(|| all_parked(&rt));
                let before = rt.stats();
                go.store(true, Ordering::SeqCst);
                h.notify();
                let elapsed = rx
                    .recv_timeout(Duration::from_secs(5))
                    .expect("the deadline never fired");
                assert!(elapsed >= after, "fired early: {elapsed:?}");
                wait_until(|| all_parked(&rt));
                let after_stats = rt.stats();
                assert!(
                    after_stats.wakes - before.wakes <= 2,
                    "task {task}: {} wakes",
                    after_stats.wakes - before.wakes
                );
                assert!(
                    after_stats.park_timeouts - before.park_timeouts <= 2,
                    "task {task}: {} timed-out parks",
                    after_stats.park_timeouts - before.park_timeouts
                );
                h.stop();
                rt.shutdown();
            }
        }
    }

    #[test]
    fn deadline_returned_from_a_poll_wakes_no_thread_and_fires_on_time() {
        // The poll's worker has nothing else queued when its poll returns
        // the deadline, so it watches the deadline itself: the off-pool
        // notify that started the poll is the only wake, and the deadline
        // ends one timed park.
        for config in pooled_and_deterministic() {
            let rt = Runtime::new(config);
            let after = Duration::from_millis(2);
            let (h, go, rx) = arm_in_poll(&rt, false, after, Duration::ZERO);
            wait_until(|| all_parked(&rt));
            for _ in 0..5 {
                let before = rt.stats();
                go.store(true, Ordering::SeqCst);
                h.notify();
                let elapsed = rx
                    .recv_timeout(Duration::from_secs(5))
                    .expect("the deadline never fired");
                assert!(elapsed >= after, "fired early: {elapsed:?}");
                wait_until(|| all_parked(&rt));
                let stats = rt.stats();
                assert_eq!(stats.wakes - before.wakes, 1, "{config:?}");
                assert!(
                    stats.park_timeouts - before.park_timeouts <= 2,
                    "{config:?}: {} timed-out parks",
                    stats.park_timeouts - before.park_timeouts
                );
            }
            h.stop();
            rt.shutdown();
        }
    }

    /// Once `go` is set: one poll returns a deadline `after` from now and
    /// notifies itself, so the same worker polls it again at once, with
    /// nothing else queued; that poll spends `block` inside [`blocking`].
    struct ReturnThenBlock {
        me: Arc<std::sync::OnceLock<ActorHandle>>,
        go: Arc<AtomicBool>,
        after: Duration,
        block: Duration,
        blocked: Arc<AtomicBool>,
        armed: Option<Instant>,
    }

    impl Actor for ReturnThenBlock {
        fn poll(&mut self, ctx: &mut ActorCtx<'_>) -> Poll {
            match self.armed.take() {
                None if self.go.swap(false, Ordering::SeqCst) => {
                    let deadline = ctx.now() + self.after;
                    self.armed = Some(deadline);
                    self.me.get().expect("handle set").notify();
                    Poll::Idle(Some(deadline))
                }
                None => Poll::Idle(None),
                Some(_) => {
                    self.blocked.store(true, Ordering::SeqCst);
                    blocking(|| std::thread::sleep(self.block));
                    self.blocked.store(false, Ordering::SeqCst);
                    Poll::Idle(None)
                }
            }
        }
    }

    #[test]
    fn deadline_returned_before_a_blocking_poll_fires_during_it() {
        // The worker that returned the deadline had nothing else queued,
        // so it was to watch the deadline itself; its next poll blocks for
        // 200 ms instead. The deadline must still fire during the block
        // (a spare spawned for the block, or a parked thread handed the
        // watch, wakes for it).
        for config in pooled_and_deterministic() {
            let rt = Runtime::new(config);
            let me = Arc::new(std::sync::OnceLock::new());
            let go = Arc::new(AtomicBool::new(false));
            let blocked = Arc::new(AtomicBool::new(false));
            let h = rt.spawn(
                "return-then-block",
                ReturnThenBlock {
                    me: Arc::clone(&me),
                    go: Arc::clone(&go),
                    after: Duration::from_millis(1),
                    block: Duration::from_millis(200),
                    blocked: Arc::clone(&blocked),
                    armed: None,
                },
            );
            let _ = me.set(h.clone());
            wait_until(|| all_parked(&rt));
            let before = rt.stats().timer_fires;
            go.store(true, Ordering::SeqCst);
            h.notify();
            wait_until(|| blocked.load(Ordering::SeqCst));
            wait_until(|| rt.stats().timer_fires > before);
            assert!(
                blocked.load(Ordering::SeqCst),
                "{config:?}: the deadline waited out the blocking poll"
            );
            h.stop();
            rt.shutdown();
        }
    }

    #[test]
    fn deadline_armed_before_a_blocking_region_fires_during_it() {
        // The poll arms a 1 ms task, then blocks for 200 ms: a parked
        // thread (or the spare covering the block) watches the deadline,
        // so the task runs while the arming thread is still blocked.
        for config in pooled_and_deterministic() {
            let rt = Runtime::new(config);
            let block = Duration::from_millis(200);
            let (h, go, rx) = arm_in_poll(&rt, true, Duration::from_millis(1), block);
            wait_until(|| all_parked(&rt));
            go.store(true, Ordering::SeqCst);
            h.notify();
            let elapsed = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("the task never fired");
            assert!(
                elapsed < block,
                "the task waited out the blocking region: {elapsed:?}"
            );
            h.stop();
            rt.shutdown();
        }
    }

    /// Each poll spends `block` inside `blocking`.
    struct LongBlock {
        rounds: Arc<AtomicU64>,
        block: Duration,
    }
    impl Actor for LongBlock {
        fn poll(&mut self, _ctx: &mut ActorCtx<'_>) -> Poll {
            blocking(|| std::thread::sleep(self.block));
            self.rounds.fetch_add(1, Ordering::SeqCst);
            Poll::Idle(None)
        }
    }

    #[test]
    fn a_retiring_spare_hands_on_the_deadline_watch() {
        // A deadline armed off-pool while a spare is parked leaves the
        // spare its only sleeper, and the worker that comes back from its
        // blocking region parks until notified. The spare then retires: it
        // must wake a thread to take the watch, or the deadline never
        // fires.
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        });
        let spares_gone = || rt.inner.spares_alive.load(Ordering::SeqCst) == 0;
        let rounds = Arc::new(AtomicU64::new(0));
        let blocker = rt.spawn(
            "long-block",
            LongBlock {
                rounds: Arc::clone(&rounds),
                block: Duration::from_millis(10),
            },
        );
        wait_until(|| rounds.load(Ordering::SeqCst) >= 1 && spares_gone());
        blocker.notify();
        wait_until(|| rt.inner.blocked.load(Ordering::SeqCst) == 1);
        let (tx, rx) = mpsc::channel();
        let armed = Instant::now();
        rt.run_after(Duration::from_millis(100), move || {
            let _ = tx.send(armed.elapsed());
        });
        wait_until(|| rounds.load(Ordering::SeqCst) >= 2 && spares_gone());
        let elapsed = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the retiring spare stranded the deadline");
        assert!(
            elapsed >= Duration::from_millis(100),
            "fired early: {elapsed:?}"
        );
        blocker.stop();
        rt.shutdown();
    }

    #[test]
    fn deterministic_mode_resolution_and_stats_label() {
        let rt = Runtime::new(RuntimeConfig::deterministic());
        assert_eq!(rt.stats().mode, "deterministic");
        assert_eq!(rt.stats().workers, 1);
        rt.shutdown();
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        });
        let forced = std::env::var("CB_DETERMINISTIC").is_ok_and(|v| v == "1");
        let expected = if forced {
            (1, "deterministic")
        } else {
            (2, "pooled")
        };
        assert_eq!((rt.stats().workers, rt.stats().mode.as_str()), expected);
        rt.shutdown();
    }

    /// Logs its index when polled.
    struct Tagged {
        tag: usize,
        log: Arc<Mutex<Vec<usize>>>,
    }

    impl Actor for Tagged {
        fn poll(&mut self, _ctx: &mut ActorCtx<'_>) -> Poll {
            self.log.lock().push(self.tag);
            Poll::Idle(None)
        }
    }

    /// Once armed, notifies `peers` in order from inside its own poll and
    /// reports where the runtime queued them: (local deque, injector).
    struct Kicker {
        armed: Arc<AtomicBool>,
        peers: Vec<ActorHandle>,
        rt: Runtime,
        queued: mpsc::Sender<(usize, usize)>,
    }

    impl Actor for Kicker {
        fn poll(&mut self, _ctx: &mut ActorCtx<'_>) -> Poll {
            if self.armed.swap(false, Ordering::SeqCst) {
                for peer in &self.peers {
                    peer.notify();
                }
                let local = self.rt.inner.workers[0].deque.lock().len();
                let injector = self.rt.inner.sched.lock().injector.len();
                let _ = self.queued.send((local, injector));
            }
            Poll::Idle(None)
        }
    }

    #[test]
    fn one_worker_pool_dispatches_through_the_injector_in_enqueue_order() {
        let rt = Runtime::new(RuntimeConfig::deterministic());
        let log = Arc::new(Mutex::new(Vec::new()));
        let tagged: Vec<ActorHandle> = (0..5)
            .map(|tag| {
                let log = Arc::clone(&log);
                rt.spawn(format!("tagged-{tag}"), Tagged { tag, log })
            })
            .collect();
        let order = [3, 1, 4, 0, 2];
        let (tx, rx) = mpsc::channel();
        let armed = Arc::new(AtomicBool::new(false));
        let kicker = rt.spawn(
            "kicker",
            Kicker {
                armed: Arc::clone(&armed),
                peers: order.iter().map(|&i| tagged[i].clone()).collect(),
                rt: rt.clone(),
                queued: tx,
            },
        );
        wait_until(|| log.lock().len() == 5 && all_parked(&rt));
        log.lock().clear();
        armed.store(true, Ordering::SeqCst);
        kicker.notify();
        // Notified from a pool thread, the cells still skip its deque.
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok((0, 5)));
        wait_until(|| log.lock().len() == 5);
        assert_eq!(*log.lock(), order);
        for h in tagged.iter().chain([&kicker]) {
            h.stop();
        }
        rt.shutdown();
    }

    /// Arms the deadline its plan holds for each poll, in order, counting
    /// polls; an exhausted plan arms nothing.
    struct Rearm {
        plan: VecDeque<Duration>,
        polls: Arc<AtomicU64>,
    }

    impl Actor for Rearm {
        fn poll(&mut self, ctx: &mut ActorCtx<'_>) -> Poll {
            self.polls.fetch_add(1, Ordering::SeqCst);
            Poll::Idle(self.plan.pop_front().map(|d| ctx.now() + d))
        }
    }

    #[test]
    fn rearmed_deadline_supersedes_the_old_one() {
        // The start poll arms `first`; a notify's poll re-arms `second`,
        // earlier or later. Only `second` fires: once the stale entry has
        // left the heap, there were three polls and one timer fire.
        let ms = Duration::from_millis;
        for config in [RuntimeConfig::default(), RuntimeConfig::deterministic()] {
            for (first, second) in [(ms(150), ms(300)), (ms(300), ms(20))] {
                let rt = Runtime::new(config);
                let polls = Arc::new(AtomicU64::new(0));
                let h = rt.spawn(
                    "rearm",
                    Rearm {
                        plan: VecDeque::from([first, second]),
                        polls: Arc::clone(&polls),
                    },
                );
                wait_until(|| polls.load(Ordering::SeqCst) == 1);
                h.notify();
                wait_until(|| polls.load(Ordering::SeqCst) == 3);
                assert_eq!(rt.stats().timer_fires, 1, "{first:?} then {second:?}");
                wait_until(|| rt.inner.sched.lock().heap.is_empty());
                assert_eq!(polls.load(Ordering::SeqCst), 3, "a stale entry fired");
                assert_eq!(rt.stats().timer_fires, 1);
                h.stop();
                rt.shutdown();
            }
        }
    }

    #[test]
    fn register_then_start_replays_early_notifies() {
        let rt = Runtime::new(RuntimeConfig::default());
        let h = rt.register("late-start");
        // Notifies before start() must not be lost (EMBRYO → dirty).
        h.notify();
        h.notify();
        let hits = Arc::new(AtomicU64::new(0));
        rt.start(
            &h,
            Counter {
                hits: Arc::clone(&hits),
                shutdown_at: None,
            },
        );
        wait_until(|| hits.load(Ordering::SeqCst) >= 1);
        h.stop();
        rt.shutdown();
    }

    #[test]
    fn stop_is_idempotent_and_join_returns_after_death() {
        let rt = Runtime::new(RuntimeConfig::default());
        let h = rt.spawn(
            "stoppee",
            Counter {
                hits: Arc::new(AtomicU64::new(0)),
                shutdown_at: None,
            },
        );
        h.stop();
        h.stop();
        h.join();
        assert!(h.is_dead());
        rt.shutdown();
    }

    #[test]
    fn shutdown_force_stops_live_actors_so_late_joins_return() {
        let rt = Runtime::new(RuntimeConfig::default());
        let h = rt.spawn(
            "survivor",
            Counter {
                hits: Arc::new(AtomicU64::new(0)),
                shutdown_at: None,
            },
        );
        // No protocol shutdown, no stop(): the runtime itself must reap the
        // actor so a join after shutdown cannot hang.
        rt.shutdown();
        h.join();
        assert!(h.is_dead());
    }

    #[test]
    fn shutdown_is_idempotent() {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        });
        rt.shutdown();
        rt.shutdown();
    }

    /// Reports the timer slack of the thread its poll runs on.
    struct SlackProbe(mpsc::Sender<Option<u64>>);

    impl Actor for SlackProbe {
        fn poll(&mut self, _ctx: &mut ActorCtx<'_>) -> Poll {
            let _ = self.0.send(current_timer_slack_ns());
            Poll::Shutdown
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn actor_polls_run_with_tight_timer_slack() {
        for config in [RuntimeConfig::default(), RuntimeConfig::deterministic()] {
            let rt = Runtime::new(config);
            let (tx, rx) = mpsc::channel();
            let h = rt.spawn("slack-probe", SlackProbe(tx));
            let slack = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(slack, Some(TIMER_SLACK_NS), "pool thread kept the default");
            h.join();
            rt.shutdown();
        }
    }
}
