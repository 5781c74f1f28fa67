//! Function executors: "each Cloudburst executor is an independent,
//! long-running process" (paper §4.1) that invokes functions, resolves KVS
//! references through the co-located cache, triggers downstream DAG
//! functions, relays direct messages, and publishes metrics to Anna.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cloudburst_anna::metrics as mkeys;
use cloudburst_anna::AnnaClient;
use cloudburst_lattice::Key;
use cloudburst_net::{Address, Endpoint, ReplyHandle};
use cloudburst_runtime::{
    Actor, ActorCtx, ActorHandle, Cadence, Poll, Runtime as ActorRuntime, POLL_BUDGET,
};
use parking_lot::Mutex;

use crate::cache::{CacheInner, CacheRequest};
use crate::codec;
use crate::consistency::anomaly::{TraceEvent, TraceSink};
use crate::consistency::session::SessionMeta;
use crate::dag::DagSpec;
use crate::function::{FunctionBody, FunctionRegistry, Runtime};
use crate::topology::Topology;
use crate::types::{Arg, ExecutorId, InvocationResult, RequestId, VmId};

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Fixed per-invocation overhead in paper milliseconds (argument
    /// deserialization, result marshalling — the residual costs the paper
    /// measures at ~1–2 ms end to end for Cloudburst). Charged as a busy
    /// window plus a delay on every message the invocation emits, not as a
    /// thread sleep.
    pub invocation_overhead_ms: f64,
    /// Metrics publication interval in paper milliseconds (§4.1/§4.4).
    pub metrics_interval_ms: f64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            invocation_overhead_ms: 0.4,
            metrics_interval_ms: 100.0,
        }
    }
}

/// The immutable half of a DAG execution plan: topology, per-node executor
/// assignments, and everything derivable from them. Built once by the
/// scheduler (and reused across repeated calls via its plan cache), then
/// shared by every hop of the execution as an `Arc` — successor fan-out in
/// [`run_node`](ExecutorHandle) is a refcount bump, never a multi-`Vec`
/// clone. The per-request mutable state (request id, attempt, output key,
/// reply slot, arguments) lives in the small [`DagSchedule`] header instead,
/// mirroring the immutable-plan/mutable-header split Polynesia argues for.
#[derive(Debug)]
pub struct DagPlan {
    /// The DAG topology.
    pub dag: Arc<DagSpec>,
    /// Executor address chosen for each DAG node.
    pub assignments: Vec<Address>,
    /// VM of each chosen executor (trace attribution).
    pub vms: Vec<VmId>,
    /// Topological position of each node (trace step ordering).
    pub steps: Vec<usize>,
    /// Cache server address on each involved VM (session-complete
    /// notifications).
    pub cache_addrs: Vec<Address>,
    /// The scheduler to notify on completion (fault-tolerance bookkeeping).
    pub scheduler: Address,
    /// In-degree of every node, precomputed so a trigger's join check is
    /// O(1) instead of an O(V+E) recount per message.
    pub indegrees: Vec<usize>,
    /// Successor adjacency list of every node, precomputed so fan-out never
    /// rescans the edge list.
    pub successors: Vec<Vec<usize>>,
    /// Source nodes (triggered first by the scheduler).
    pub sources: Vec<usize>,
}

impl DagPlan {
    /// Build a plan from a validated DAG and the per-node executor choices,
    /// precomputing every topology-derived table the hot dispatch path
    /// needs.
    pub fn new(
        dag: Arc<DagSpec>,
        assignments: Vec<Address>,
        vms: Vec<VmId>,
        cache_addrs: Vec<Address>,
        scheduler: Address,
    ) -> Self {
        let order = dag.topological_order().expect("validated DAG");
        let mut steps = vec![0usize; dag.nodes.len()];
        for (pos, node) in order.iter().enumerate() {
            steps[*node] = pos;
        }
        let indegrees = dag.indegrees();
        let mut successors = vec![Vec::new(); dag.nodes.len()];
        for &(a, b) in &dag.edges {
            successors[a].push(b);
        }
        let sources = dag.sources();
        Self {
            dag,
            assignments,
            vms,
            steps,
            cache_addrs,
            scheduler,
            indegrees,
            successors,
            sources,
        }
    }
}

/// The execution plan a scheduler broadcasts for one DAG request (§4.3):
/// a shared handle on the immutable [`DagPlan`] plus the per-call header.
/// Cloning one (per successor trigger) is three refcount bumps and an
/// optional key handle copy.
#[derive(Debug, Clone)]
pub struct DagSchedule {
    /// The request (session) ID.
    pub request_id: RequestId,
    /// Which execution attempt this schedule belongs to (0 = first launch,
    /// +1 per timeout re-execution, §4.5). Stored outputs are stamped with
    /// it so an abandoned attempt's late write can never clobber the
    /// retry's result — see [`attempt_stamped_output`].
    pub attempt: u32,
    /// Client-supplied arguments per node (per-request, so outside the
    /// shareable plan; the `Arc` makes the header clone O(1) regardless of
    /// argument size).
    pub args: Arc<HashMap<usize, Vec<Arg>>>,
    /// If set, the sink stores its result in the KVS under this key (the
    /// client holds a `CloudburstFuture` on it) *before* answering `reply`.
    pub output_key: Option<Key>,
    /// The caller's reply handle, taken by whichever sink finishes first.
    /// The scheduler parks the same slot in its pending table, so it
    /// survives §4.5 re-execution: a retried attempt answers the same
    /// caller. Empty for a fire-and-forget call.
    // lock-rank: 50 cb-reply-slot
    pub reply: Arc<Mutex<Option<ReplyHandle<InvocationResult>>>>,
    /// The immutable, shared execution plan.
    pub plan: Arc<DagPlan>,
}

/// Wrap a DAG's stored output so last-writer-wins resolution follows the
/// *attempt order*, not the wall clock. A timed-out attempt's sink may still
/// write after the retry's sink (re-execution reuses the same output key,
/// §4.5); wall-clock timestamps would then let the stale attempt win the
/// merge. Stamping `(attempt + 1, request_id)` totally orders the attempts
/// regardless of when their writes land. Output keys are written by nothing
/// else, so the miniature clock never competes with real timestamps.
pub fn attempt_stamped_output(
    attempt: u32,
    request_id: RequestId,
    value: Bytes,
) -> cloudburst_lattice::Capsule {
    cloudburst_lattice::Capsule::wrap_lww(
        cloudburst_lattice::Timestamp::new(u64::from(attempt) + 1, request_id),
        value,
    )
}

/// Messages handled by executor threads.
#[derive(Debug)]
pub enum ExecutorRequest {
    /// Invoke a single function outside any DAG.
    InvokeSingle {
        /// Function name.
        function: String,
        /// Arguments.
        args: Vec<Arg>,
        /// Where to deliver the result.
        reply: ReplyHandle<InvocationResult>,
        /// If set, also store the result in the KVS under this key.
        response_key: Option<Key>,
    },
    /// Trigger one node of a DAG (from the scheduler for sources, from
    /// upstream executors otherwise).
    TriggerDag(Box<DagTrigger>),
    /// Pin a function: fetch + deserialize it and keep it cached (§4.1).
    Pin {
        /// Function name.
        function: String,
    },
    /// Unpin a function (scale-down).
    Unpin {
        /// Function name.
        function: String,
    },
    /// A point-to-point message from another executor (§3).
    DirectMessage {
        /// Sending executor thread.
        from: ExecutorId,
        /// Sender-local sequence number (inbox deduplication).
        seq: u64,
        /// Opaque payload.
        payload: Bytes,
    },
    /// Stop the executor thread.
    Shutdown,
}

/// One DAG-node trigger.
#[derive(Debug)]
pub struct DagTrigger {
    /// The broadcast schedule.
    pub schedule: DagSchedule,
    /// Which node to run.
    pub node: usize,
    /// Result of the upstream node `(from, value)`; `None` for sources.
    pub input: Option<(usize, Bytes)>,
    /// Session metadata accumulated so far.
    pub session: SessionMeta,
}

/// Handle to a spawned executor actor.
#[derive(Debug)]
pub struct ExecutorHandle {
    /// The executor's unique ID.
    pub id: ExecutorId,
    /// Its message address.
    pub addr: Address,
    /// Host VM.
    pub vm: VmId,
    handle: ActorHandle,
}

impl ExecutorHandle {
    /// Spawn an executor as an actor on the shared runtime. Message arrival
    /// enqueues it for a poll; the metrics publication cadence rides the
    /// runtime's timer heap instead of a `recv_timeout` tick.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per wired-in dependency, each passed once at spawn"
    )]
    pub fn spawn(
        runtime: &ActorRuntime,
        id: ExecutorId,
        vm: VmId,
        endpoint: Endpoint,
        cache: Arc<CacheInner>,
        registry: FunctionRegistry,
        topology: Arc<Topology>,
        anna: AnnaClient,
        config: ExecutorConfig,
        trace: Option<TraceSink>,
    ) -> Self {
        let addr = endpoint.addr();
        let handle = runtime.register(format!("cb-exec-{id}"));
        {
            let waker = handle.clone();
            endpoint.set_notify(move || waker.notify());
        }
        let scale = endpoint.network().time_scale();
        let tick = scale
            .ms(config.metrics_interval_ms)
            .max(Duration::from_micros(500));
        let overhead = scale.ms(config.invocation_overhead_ms);
        let worker = Worker {
            id,
            vm,
            endpoint,
            cache,
            registry,
            topology,
            anna,
            overhead,
            trace,
            pinned: HashSet::new(),
            fn_cache: HashMap::new(),
            mailbox: VecDeque::new(),
            deferred: VecDeque::new(),
            pending: HashMap::new(),
            seen_msgs: HashSet::new(),
            seq: 0,
            busy: Duration::ZERO,
            busy_until: None,
            #[expect(
                clippy::disallowed_methods,
                reason = "utilization-window epoch; only elapsed ratios leave this struct"
            )]
            window_start: Instant::now(),
            completed: 0,
            advertised: false,
            publish: Cadence::new(tick),
        };
        runtime.start(&handle, worker);
        Self {
            id,
            addr,
            vm,
            handle,
        }
    }

    /// Wait for the executor actor to exit.
    pub fn join(self) {
        self.handle.join();
    }

    /// Crash-stop the executor actor: its state is dropped without draining
    /// the mailbox (failure injection; the graceful path is a protocol
    /// `Shutdown` message followed by [`ExecutorHandle::join`]).
    pub fn stop(&self) {
        self.handle.stop();
    }
}

struct Pending {
    inputs: Vec<(usize, Bytes)>,
    session: SessionMeta,
    schedule: DagSchedule,
}

struct Worker {
    id: ExecutorId,
    vm: VmId,
    endpoint: Endpoint,
    cache: Arc<CacheInner>,
    registry: FunctionRegistry,
    topology: Arc<Topology>,
    anna: AnnaClient,
    /// The scaled per-invocation overhead (`invocation_overhead_ms`).
    overhead: Duration,
    trace: Option<TraceSink>,
    pinned: HashSet<String>,
    fn_cache: HashMap<String, FunctionBody>,
    mailbox: VecDeque<Bytes>,
    deferred: VecDeque<ExecutorRequest>,
    pending: HashMap<(RequestId, usize), Pending>,
    seen_msgs: HashSet<(u64, u64)>,
    seq: u64,
    busy: Duration,
    /// Occupancy horizon of the last invocation: while set and in the
    /// future the executor drains nothing (one invocation at a time, §4).
    /// The Anna node's `busy_until`, for the invocation overhead.
    busy_until: Option<Instant>,
    window_start: Instant,
    completed: u64,
    /// Whether the ID → address binding has been advertised (first poll).
    advertised: bool,
    /// Metrics publication cadence (scaled paper-ms).
    publish: Cadence,
}

impl Actor for Worker {
    fn poll(&mut self, ctx: &mut ActorCtx<'_>) -> Poll {
        if !self.advertised {
            self.advertised = true;
            // Advertise the deterministic ID → address binding (§3).
            let _ = self.anna.put_lww(
                &mkeys::executor_address_key(self.id),
                codec::encode_i64(self.endpoint.addr().raw() as i64),
            );
            self.publish_metrics();
        }
        // Still paying the last invocation's overhead: drain nothing (the
        // executor's serial capacity) and come back when the window closes.
        if let Some(busy) = self.busy_until {
            let now = ctx.now();
            if now < busy {
                if self.publish.due(now) {
                    self.publish_metrics();
                }
                return Poll::Idle(Some(self.next_deadline()));
            }
            self.busy_until = None;
        }
        let mut budget = POLL_BUDGET;
        let mut drained = 0usize;
        while budget > 0 {
            let req = if let Some(req) = self.deferred.pop_front() {
                req
            } else if let Some(envelope) = self.endpoint.try_recv() {
                drained += 1;
                match envelope.downcast::<ExecutorRequest>() {
                    Ok(req) => req,
                    Err(_) => continue,
                }
            } else {
                break;
            };
            budget -= 1;
            if self.handle(req) {
                return Poll::Shutdown;
            }
            if self.busy_until.is_some() {
                // An invocation ran: its overhead occupies the executor.
                break;
            }
        }
        ctx.note_mailbox_depth(drained);
        if self.publish.due(ctx.now()) {
            self.publish_metrics();
        }
        if budget == 0 && self.busy_until.is_none() {
            Poll::Yield
        } else {
            Poll::Idle(Some(self.next_deadline()))
        }
    }
}

impl Worker {
    /// The publication cadence, or the occupancy window's end if a request
    /// is waiting for it. With nothing queued the window's end is not
    /// armed: that timer would wake a parked pool thread only to re-park.
    /// The next arrival's poll finds the window open and arms it then.
    fn next_deadline(&mut self) -> Instant {
        let publish = self.publish.deadline();
        let busy_until = self.busy_until;
        match busy_until {
            Some(busy) if self.request_waiting() => publish.min(busy),
            _ => publish,
        }
    }

    /// Whether a request is queued, moving the oldest one off the port
    /// into `deferred` (which the drain loop empties first) to find out.
    fn request_waiting(&mut self) -> bool {
        while self.deferred.is_empty() {
            let Some(envelope) = self.endpoint.try_recv() else {
                return false;
            };
            if let Ok(req) = envelope.downcast::<ExecutorRequest>() {
                self.deferred.push_back(req);
            }
        }
        true
    }

    /// Book one handled invocation. The overhead it owes counts as busy
    /// time (utilization feeds the scheduler's threshold) and opens the
    /// occupancy window.
    fn charge(&mut self, start: Instant, overhead: Duration) {
        let ran = start.elapsed();
        self.busy += ran + overhead;
        self.completed += 1;
        if !overhead.is_zero() {
            self.busy_until = Some(start + ran + overhead);
        }
    }

    /// Returns `true` on shutdown.
    fn handle(&mut self, request: ExecutorRequest) -> bool {
        match request {
            ExecutorRequest::InvokeSingle {
                function,
                args,
                reply,
                response_key,
            } => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "measures invocation latency reported in InvocationResult"
                )]
                let start = Instant::now();
                let mut session = SessionMeta::new(0, self.cache.level());
                session.traced = self.trace.is_some();
                let (result, overhead) = self.invoke(&function, &args, &[], &mut session, 0, 0);
                self.charge(start, overhead);
                if let (Some(key), InvocationResult::Ok(value)) = (&response_key, &result) {
                    let _ = self.anna.put_lww(key, value.clone());
                }
                reply.reply_with_extra(overhead, result);
            }
            ExecutorRequest::TriggerDag(trigger) => self.on_trigger(*trigger),
            ExecutorRequest::Pin { function } => {
                // "Each DAG function is deserialized and cached at one or
                // more executors" (§4.1): fetch metadata from Anna, then the
                // body from the registry.
                if self.load_function(&function).is_some() {
                    self.pinned.insert(function);
                    self.publish_metrics();
                }
            }
            ExecutorRequest::Unpin { function } => {
                self.pinned.remove(&function);
                self.fn_cache.remove(&function);
                self.publish_metrics();
            }
            ExecutorRequest::DirectMessage { from, seq, payload } => {
                if self.seen_msgs.insert((from, seq)) {
                    self.mailbox.push_back(payload);
                }
            }
            ExecutorRequest::Shutdown => return true,
        }
        false
    }

    fn on_trigger(&mut self, trigger: DagTrigger) {
        let key = (trigger.schedule.request_id, trigger.node);
        let indegree = trigger.schedule.plan.indegrees[trigger.node];
        let entry = self.pending.entry(key).or_insert_with(|| Pending {
            inputs: Vec::new(),
            session: SessionMeta::new(trigger.schedule.request_id, self.cache.level()),
            schedule: trigger.schedule.clone(),
        });
        entry.session.merge(trigger.session);
        if let Some(input) = trigger.input {
            entry.inputs.push(input);
        }
        let arrived = entry.inputs.len();
        if arrived < indegree {
            return; // wait for the remaining in-edges
        }
        let Pending {
            mut inputs,
            session,
            schedule,
        } = self.pending.remove(&key).expect("pending entry exists");
        inputs.sort_unstable_by_key(|&(from, _)| from);
        self.run_node(schedule, trigger.node, inputs, session);
    }

    fn run_node(
        &mut self,
        schedule: DagSchedule,
        node: usize,
        inputs: Vec<(usize, Bytes)>,
        mut session: SessionMeta,
    ) {
        session.traced = session.traced || self.trace.is_some();
        #[expect(
            clippy::disallowed_methods,
            reason = "measures invocation latency for busy-time accounting and the result"
        )]
        let start = Instant::now();
        // The plan handle keeps the borrow of topology tables independent of
        // `schedule`, which the last successor trigger takes by move.
        let plan = Arc::clone(&schedule.plan);
        let upstream: Vec<Bytes> = inputs.into_iter().map(|(_, v)| v).collect();
        // Arguments are borrowed straight out of the shared header — the
        // seed cloned the whole `Vec<Arg>` per invocation.
        let args: &[Arg] = schedule.args.get(&node).map_or(&[], Vec::as_slice);
        let (result, overhead) = self.invoke(
            &plan.dag.nodes[node].function,
            args,
            &upstream,
            &mut session,
            plan.steps[node],
            plan.vms[node],
        );
        self.charge(start, overhead);

        match (&result, plan.successors[node].split_last()) {
            (InvocationResult::Ok(value), Some((&last, rest))) => {
                // The one point per hop where the session's read log
                // becomes shipped metadata and version snapshots.
                self.cache.ship_session(&mut session);
                // Fan-out: the schedule header and session are cloned only
                // for the extra successors (none for a linear chain) — the
                // last trigger takes both by move.
                for &succ in rest {
                    let trigger = DagTrigger {
                        schedule: schedule.clone(),
                        node: succ,
                        input: Some((node, value.clone())),
                        session: session.clone(),
                    };
                    let _ = self.endpoint.send_after(
                        overhead,
                        plan.assignments[succ],
                        ExecutorRequest::TriggerDag(Box::new(trigger)),
                    );
                }
                let trigger = DagTrigger {
                    schedule,
                    node: last,
                    input: Some((node, value.clone())),
                    session,
                };
                let _ = self.endpoint.send_after(
                    overhead,
                    plan.assignments[last],
                    ExecutorRequest::TriggerDag(Box::new(trigger)),
                );
            }
            // Sink (or error anywhere): finish the DAG.
            _ => self.finish_dag(&schedule, result, &session, overhead),
        }
    }

    /// The one completion rule: store the result if the schedule carries an
    /// output key, then answer the reply slot if it still holds a handle.
    /// The put is *issued* before the reply is sent, so a caller that reads
    /// the key after the notice finds the write already in flight to the
    /// same node its read goes to. Every notice leaves after `overhead`,
    /// the sink invocation's residual cost.
    fn finish_dag(
        &mut self,
        schedule: &DagSchedule,
        result: InvocationResult,
        session: &SessionMeta,
        overhead: Duration,
    ) {
        if let (Some(key), InvocationResult::Ok(value)) = (&schedule.output_key, &result) {
            if self.cache.level().is_causal() {
                // Causal outputs merge by vector clock; concurrent
                // attempt writes survive as conflicts rather than
                // clobbering each other.
                let mut session = session.clone();
                self.cache
                    .put_session(key, value.clone(), &mut session, self.id, &[]);
            } else {
                // LWW outputs are attempt-stamped: a late write from an
                // abandoned attempt loses the merge against any retry that
                // already finished. Fire-and-forget — the completion notice
                // carries the value, so an ack round trip would only stall
                // this executor's queue — and straight to Anna: the key is
                // private to one caller, who reads it from the KVS, so a
                // copy in this VM's cache would never be hit.
                let capsule =
                    attempt_stamped_output(schedule.attempt, schedule.request_id, value.clone());
                if self.anna.put_async(key, capsule).is_err() {
                    // No replica reachable from here (this VM was cut off,
                    // or the storage tier is down): an output that was not
                    // stored is not a completion. Leave the reply slot and
                    // the scheduler's pending entry to the §4.5 timeout.
                    return;
                }
            }
        }
        if let Some(reply) = schedule.reply.lock().take() {
            reply.reply_with_extra(overhead, result);
        }
        // Notify the scheduler (fault-tolerance bookkeeping, §4.5) and, at
        // the levels that keep per-session version snapshots, all involved
        // caches (snapshot eviction, §5.3).
        let _ = self.endpoint.send_after(
            overhead,
            schedule.plan.scheduler,
            crate::scheduler::SchedulerRequest::DagDone {
                request_id: schedule.request_id,
            },
        );
        if self.cache.level().ships_session_metadata() {
            for &cache in &schedule.plan.cache_addrs {
                let _ = self.endpoint.send_after(
                    overhead,
                    cache,
                    CacheRequest::SessionComplete {
                        request_id: schedule.request_id,
                    },
                );
            }
        }
    }

    /// Resolve args (values pass through; refs read through the cache under
    /// the session protocol, §4.1), then run the function body. Returns the
    /// result and the residual overhead (serialization &c.) the invocation
    /// owes: zero if the body never ran. The caller charges it as an
    /// occupancy window plus a later send, not by sleeping.
    fn invoke(
        &mut self,
        function: &str,
        args: &[Arg],
        upstream: &[Bytes],
        session: &mut SessionMeta,
        step: usize,
        vm: VmId,
    ) -> (InvocationResult, Duration) {
        let Some(body) = self.load_function(function) else {
            let err = format!("function {function:?} is not registered");
            return (InvocationResult::Err(err), Duration::ZERO);
        };
        // Coalesce the KVS fetch for all of the function's reference keys:
        // one batched request per responsible node warms the cache before
        // the per-key session reads below resolve locally (§4 batching).
        let ref_keys: Vec<Key> = args
            .iter()
            .filter_map(|a| a.as_ref_key().cloned())
            .collect();
        if ref_keys.len() >= 2 {
            self.cache.prefetch(&ref_keys);
        }
        let mut ctx = ExecCtx {
            worker: self,
            session,
            step,
            vm,
        };
        let mut resolved: Vec<Bytes> = Vec::with_capacity(args.len() + upstream.len());
        for arg in args {
            match arg {
                Arg::Value(v) => resolved.push(v.clone()),
                Arg::Ref(key) => match ctx.read_key(key) {
                    Some(v) => resolved.push(v),
                    None => {
                        let err = format!("KVS reference {key} could not be resolved");
                        return (InvocationResult::Err(err), Duration::ZERO);
                    }
                },
            }
        }
        resolved.extend(upstream.iter().cloned());
        let result = match body(&mut ctx, &resolved) {
            Ok(value) => InvocationResult::Ok(value),
            Err(e) => InvocationResult::Err(e),
        };
        (result, self.overhead)
    }

    /// Fetch-and-cache a function: metadata existence check against Anna
    /// (first use only), body from the registry.
    fn load_function(&mut self, function: &str) -> Option<FunctionBody> {
        if let Some(body) = self.fn_cache.get(function) {
            return Some(body.clone());
        }
        let meta = self.anna.get(&mkeys::function_key(function)).ok().flatten();
        meta.as_ref()?;
        let body = self.registry.get(function)?;
        self.fn_cache.insert(function.to_string(), body.clone());
        Some(body)
    }

    fn publish_metrics(&mut self) {
        let elapsed = self.window_start.elapsed();
        let utilization = if elapsed.is_zero() {
            0.0
        } else {
            (self.busy.as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
        };
        self.busy = Duration::ZERO;
        #[expect(
            clippy::disallowed_methods,
            reason = "utilization-window reset, see window_start"
        )]
        let now = Instant::now();
        self.window_start = now;
        let pairs = vec![
            ("utilization".to_string(), utilization),
            ("completed".to_string(), self.completed as f64),
            ("vm".to_string(), self.vm as f64),
            ("pinned".to_string(), self.pinned.len() as f64),
        ];
        let mut names: Vec<&str> = self.pinned.iter().map(String::as_str).collect();
        names.sort_unstable();
        // Both metric keys ride one batched, unacknowledged request — the
        // publication tick should not cost the executor two blocking RPCs.
        let _ = self.anna.multi_put_async(vec![
            (
                mkeys::executor_metrics_key(self.id),
                cloudburst_lattice::Capsule::wrap_lww(
                    self.anna.next_timestamp(),
                    cloudburst_anna::metrics::encode_metrics(&pairs),
                ),
            ),
            (
                mkeys::executor_functions_key(self.id),
                cloudburst_lattice::Capsule::wrap_lww(
                    self.anna.next_timestamp(),
                    Bytes::from(names.join("\n")),
                ),
            ),
        ]);
    }
}

/// The `Runtime` implementation handed to user functions.
struct ExecCtx<'a> {
    worker: &'a mut Worker,
    session: &'a mut SessionMeta,
    step: usize,
    vm: VmId,
}

impl ExecCtx<'_> {
    fn read_key(&mut self, key: &Key) -> Option<Bytes> {
        let capsule = self.worker.cache.get_session(key, self.session)?;
        if let (Some(trace), Some(ts)) = (&self.worker.trace, capsule.lww_timestamp()) {
            trace.record(TraceEvent::Read {
                request: self.session.request_id,
                step: self.step,
                cache: self.vm,
                key: key.clone(),
                version: ts,
            });
            self.session.shadow_reads.push((key.clone(), ts));
        }
        Some(capsule.read_value())
    }
}

impl Runtime for ExecCtx<'_> {
    fn get(&mut self, key: &Key) -> Option<Bytes> {
        self.read_key(key)
    }

    fn put(&mut self, key: &Key, value: Bytes) {
        let version = self
            .worker
            .cache
            .put_session(key, value, self.session, self.worker.id, &[]);
        if let (Some(trace), crate::types::VersionId::Lww(ts)) = (&self.worker.trace, &version) {
            trace.record(TraceEvent::Write {
                request: self.session.request_id,
                step: self.step,
                cache: self.vm,
                key: key.clone(),
                version: *ts,
                read_before: self.session.shadow_reads.clone(),
            });
        }
    }

    fn delete(&mut self, key: &Key) {
        self.worker.cache.delete(key);
    }

    fn send(&mut self, to: ExecutorId, message: Bytes) {
        self.worker.seq += 1;
        let seq = self.worker.seq;
        let delivered = match self.worker.topology.executor(to) {
            Some(info) => self
                .worker
                .endpoint
                .send(
                    info.addr,
                    ExecutorRequest::DirectMessage {
                        from: self.worker.id,
                        seq,
                        payload: message.clone(),
                    },
                )
                .is_ok(),
            None => false,
        };
        if !delivered {
            // "If a TCP connection cannot be established, the message is
            // written to a key in Anna that serves as the receiving thread's
            // inbox" (§3).
            let framed = codec::encode_message(self.worker.id, seq, &message);
            let _ = self.worker.anna.add_to_set(&mkeys::inbox_key(to), framed);
        }
    }

    fn recv(&mut self) -> Vec<Bytes> {
        // Local port first…
        while let Some(envelope) = self.worker.endpoint.try_recv() {
            match envelope.downcast::<ExecutorRequest>() {
                Ok(ExecutorRequest::DirectMessage { from, seq, payload }) => {
                    if self.worker.seen_msgs.insert((from, seq)) {
                        self.worker.mailbox.push_back(payload);
                    }
                }
                Ok(other) => self.worker.deferred.push_back(other),
                Err(_) => {}
            }
        }
        // …then the KVS inbox (§3) — but only when the local port was
        // empty, to avoid a storage round trip per delivered message.
        if self.worker.mailbox.is_empty() {
            if let Ok(Some(capsule)) = self.worker.anna.get(&mkeys::inbox_key(self.worker.id)) {
                for framed in capsule.set_values() {
                    if let Some((from, seq, payload)) = codec::decode_message(&framed) {
                        if self.worker.seen_msgs.insert((from, seq)) {
                            self.worker.mailbox.push_back(payload);
                        }
                    }
                }
            }
        }
        self.worker.mailbox.drain(..).collect()
    }

    fn recv_timeout(&mut self, paper_ms: f64) -> Vec<Bytes> {
        #[expect(
            clippy::disallowed_methods,
            reason = "bounded-wait deadline; timeouts are wall-clock by contract"
        )]
        let deadline = Instant::now() + self.worker.endpoint.network().time_scale().ms(paper_ms);
        loop {
            let messages = self.recv();
            if !messages.is_empty() {
                return messages;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "deadline comparison for the bounded wait above"
            )]
            if Instant::now() >= deadline {
                return Vec::new();
            }
            let slice = Duration::from_micros(200);
            match self.worker.endpoint.recv_timeout(slice) {
                Ok(envelope) => {
                    if let Ok(req) = envelope.downcast::<ExecutorRequest>() {
                        match req {
                            ExecutorRequest::DirectMessage { from, seq, payload } => {
                                if self.worker.seen_msgs.insert((from, seq)) {
                                    self.worker.mailbox.push_back(payload);
                                }
                            }
                            other => self.worker.deferred.push_back(other),
                        }
                    }
                }
                Err(cloudburst_net::RecvError::Timeout) => {}
                // A dropped endpoint can never deliver again: spinning on it
                // until the deadline (each iteration paying a KVS inbox
                // round trip in `recv`) just burns CPU. Surface the empty
                // mailbox immediately; the worker loop exits on the same
                // signal.
                Err(cloudburst_net::RecvError::Disconnected) => return Vec::new(),
            }
        }
    }

    fn executor_id(&self) -> ExecutorId {
        self.worker.id
    }

    fn compute(&mut self, paper_ms: f64) {
        self.worker.endpoint.network().sleep_paper_ms(paper_ms);
    }
}
