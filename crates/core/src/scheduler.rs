//! Function schedulers (paper §4.3): registration, executor selection with
//! data-locality and load heuristics, DAG schedule broadcast, and
//! fault-tolerance bookkeeping (whole-DAG re-execution on timeout, §4.5).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cloudburst_anna::metrics as mkeys;
use cloudburst_anna::AnnaClient;
use cloudburst_lattice::{Key, KeySet};
use cloudburst_net::{Address, Endpoint, ReplyHandle};
use cloudburst_runtime::{
    Actor, ActorCtx, ActorHandle, Cadence, Poll, Runtime as ActorRuntime, POLL_BUDGET,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

use crate::cache::CacheRequest;
use crate::consistency::session::SessionMeta;
use crate::dag::{DagError, DagSpec};
use crate::executor::{DagPlan, DagSchedule, DagTrigger, ExecutorRequest};
use crate::topology::Topology;
use crate::types::{Arg, ConsistencyLevel, ExecutorId, InvocationResult, RequestId, VmId};

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// DAG re-execution timeout in paper milliseconds (§4.5).
    pub dag_timeout_ms: f64,
    /// How many executors each DAG function is pinned on at registration.
    pub initial_pin_replicas: usize,
    /// Give up re-executing a DAG after this many attempts.
    pub max_retries: u32,
}

/// Executors above this utilization are avoided ("the scheduler tracks this
/// utilization and avoids overloaded nodes", §4.3).
const HIGH_UTIL_THRESHOLD: f64 = 0.7;

/// How often executor metrics are refreshed from Anna, in paper ms.
const METRICS_REFRESH_MS: f64 = 100.0;

/// Maximum keys per batched KVS request the scheduler issues (metrics
/// refresh, DAG-registration function checks). The refresh window is
/// [`METRICS_REFRESH_MS`]; this caps how much of it one node absorbs.
const KVS_BATCH_MAX_KEYS: usize = 128;

/// Maximum entries in the execution-plan cache. Repeated `call_dag`s with
/// the same (DAG, reference-key set) reuse the last computed assignment
/// while the metrics generation and topology epoch are unchanged, skipping
/// the full §4.3 `pick_executor` policy on the hot path. The trade-off:
/// within one metrics window a cached plan *pins* its placement, so the
/// policy's random tie-breaking (which spreads a hot key's load across
/// equally-covered replicas) resumes only at the next refresh — backpressure
/// still self-corrects, because a pinned executor that saturates crosses the
/// utilization threshold at that refresh and the recomputed plan avoids it.
const PLAN_CACHE_MAX_ENTRIES: usize = 1024;

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            dag_timeout_ms: 10_000.0,
            initial_pin_replicas: 1,
            max_retries: 3,
        }
    }
}

/// Messages handled by schedulers.
#[derive(Debug)]
pub enum SchedulerRequest {
    /// Register a DAG: verify functions, pin them, persist the topology.
    RegisterDag {
        /// The DAG.
        spec: DagSpec,
        /// Registration outcome.
        reply: ReplyHandle<Result<(), DagError>>,
    },
    /// Invoke a single function.
    CallFunction {
        /// Function name.
        function: String,
        /// Arguments.
        args: Vec<Arg>,
        /// The caller's region: placement prefers executors there when data
        /// locality and load do not decide.
        region: u16,
        /// Result channel (forwarded to the executor).
        reply: ReplyHandle<InvocationResult>,
    },
    /// Execute a registered DAG.
    CallDag {
        /// DAG name.
        name: String,
        /// Per-node arguments.
        args: HashMap<usize, Vec<Arg>>,
        /// The caller's region (see [`SchedulerRequest::CallFunction`]).
        region: u16,
        /// If set, the sink stores its result under this key (the client
        /// holds a `CloudburstFuture`) before answering `reply`.
        output_key: Option<Key>,
        /// Completion channel: the sink answers it with the result (after
        /// the store, if any). `None` for a fire-and-forget call.
        reply: Option<ReplyHandle<InvocationResult>>,
    },
    /// A sink executor reports DAG completion.
    DagDone {
        /// The completed request.
        request_id: RequestId,
    },
    /// A cache's periodic keyset report (the scheduler's local cached-key
    /// index, §4.3).
    CacheKeyset {
        /// Reporting VM.
        vm: VmId,
        /// Keys cached there.
        keys: Vec<Key>,
    },
    /// Pin `function` onto one more (underloaded) executor — sent by the
    /// monitoring engine when a function falls behind its call rate (§4.4).
    PinFunction {
        /// Function to scale up.
        function: String,
    },
    /// Reduce `function` to at most `target` pinned executors (scale-down).
    TrimPins {
        /// Function to scale down.
        function: String,
        /// Desired replica count.
        target: usize,
    },
    /// Stop the scheduler thread.
    Shutdown,
}

/// Handle to a running scheduler.
#[derive(Debug)]
pub struct SchedulerHandle {
    /// The scheduler's message address.
    pub addr: Address,
    handle: ActorHandle,
}

impl SchedulerHandle {
    /// Spawn a scheduler as an actor on the shared runtime; the metrics
    /// refresh / timeout sweep cadence rides the runtime's timer heap.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        runtime: &ActorRuntime,
        scheduler_id: u64,
        endpoint: Endpoint,
        topology: Arc<Topology>,
        anna: AnnaClient,
        level: ConsistencyLevel,
        config: SchedulerConfig,
        trace_enabled: bool,
    ) -> Self {
        let addr = endpoint.addr();
        topology.add_scheduler(addr);
        let handle = runtime.register(format!("cb-sched-{scheduler_id}"));
        {
            let waker = handle.clone();
            endpoint.set_notify(move || waker.notify());
        }
        let tick = endpoint
            .network()
            .time_scale()
            .ms(METRICS_REFRESH_MS)
            .max(Duration::from_micros(500));
        let worker = Worker {
            id: scheduler_id,
            endpoint,
            topology,
            anna,
            level,
            config,
            trace_enabled,
            dags: HashMap::new(),
            pins: HashMap::new(),
            utilization: HashMap::new(),
            cached_keys: HashMap::new(),
            pending: HashMap::new(),
            call_counts: HashMap::new(),
            incoming_total: 0,
            plan_cache: HashMap::new(),
            sched_gen: 0,
            plan_hits: 0,
            plan_misses: 0,
            rng: StdRng::seed_from_u64(0x5CAF ^ scheduler_id),
            refresh: Cadence::new(tick),
        };
        runtime.start(&handle, worker);
        Self { addr, handle }
    }

    /// Wait for the scheduler actor to exit.
    pub fn join(self) {
        self.handle.join();
    }
}

/// One live pinned executor as `pick_executor` scores it:
/// `(id, addr, vm, region)`.
type Candidate = (ExecutorId, Address, VmId, u16);

struct PendingDag {
    name: String,
    args: Arc<HashMap<usize, Vec<Arg>>>,
    region: u16,
    output_key: Option<Key>,
    // lock-rank: 50 cb-reply-slot
    reply_slot: Arc<Mutex<Option<ReplyHandle<InvocationResult>>>>,
    cache_addrs: Vec<Address>,
    deadline: Instant,
    retries: u32,
}

/// Identity of a cached execution plan: the DAG, the reference-key set its
/// data-locality decision was scored against (§4.3 — only the *ref*
/// arguments steer placement; value arguments never do), and the caller's
/// region (the same call from a different region is a different placement
/// decision — the region term must not be pinned by another region's plan).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    dag: String,
    refs: Vec<(usize, Key)>,
    region: u16,
}

impl PlanKey {
    fn new(dag: &str, args: &HashMap<usize, Vec<Arg>>, region: u16) -> Self {
        let mut refs: Vec<(usize, Key)> = args
            .iter()
            .flat_map(|(&node, list)| {
                list.iter()
                    .filter_map(move |a| a.as_ref_key().cloned().map(|k| (node, k)))
            })
            .collect();
        refs.sort_unstable();
        Self {
            dag: dag.to_string(),
            refs,
            region,
        }
    }
}

/// One plan-cache entry: the shared plan plus the generation stamps it was
/// computed under. A hit requires both stamps to still be current, so a
/// metrics refresh, any pin/unpin, or any topology change (crash, scale)
/// invalidates it — a cached schedule can never reach a dead executor.
struct CachedPlan {
    plan: Arc<DagPlan>,
    sched_gen: u64,
    topo_epoch: u64,
}

struct Worker {
    id: u64,
    endpoint: Endpoint,
    topology: Arc<Topology>,
    anna: AnnaClient,
    level: ConsistencyLevel,
    config: SchedulerConfig,
    trace_enabled: bool,
    dags: HashMap<String, Arc<DagSpec>>,
    /// function → executors it is pinned on.
    pins: HashMap<String, Vec<ExecutorId>>,
    /// Executor utilization, refreshed from Anna (§4.3).
    utilization: HashMap<ExecutorId, f64>,
    /// VM → cached keys (the scheduler's local index, §4.3).
    cached_keys: HashMap<VmId, KeySet>,
    pending: HashMap<RequestId, PendingDag>,
    call_counts: HashMap<String, u64>,
    incoming_total: u64,
    /// Execution-plan cache: repeated calls of one DAG with one ref-key set
    /// reuse the assignment instead of re-running `pick_executor` per node.
    plan_cache: HashMap<PlanKey, CachedPlan>,
    /// Scheduling-state generation: bumped on every metrics refresh and
    /// every pin-set change, invalidating all cached plans.
    sched_gen: u64,
    /// Plan-cache hit/miss counters (published with the scheduler stats).
    plan_hits: u64,
    plan_misses: u64,
    rng: StdRng,
    /// Metrics refresh / timeout sweep cadence (scaled paper-ms).
    refresh: Cadence,
}

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

impl Actor for Worker {
    fn poll(&mut self, ctx: &mut ActorCtx<'_>) -> Poll {
        let mut budget = POLL_BUDGET;
        let mut drained = 0usize;
        while budget > 0 {
            let Some(envelope) = self.endpoint.try_recv() else {
                break;
            };
            drained += 1;
            budget -= 1;
            if let Ok(req) = envelope.downcast::<SchedulerRequest>() {
                if self.handle(req) {
                    return Poll::Shutdown;
                }
            }
        }
        ctx.note_mailbox_depth(drained);
        if self.refresh.due(ctx.now()) {
            self.refresh_metrics();
            self.check_timeouts();
            self.publish_stats();
        }
        if budget == 0 {
            Poll::Yield
        } else {
            Poll::Idle(Some(self.refresh.deadline()))
        }
    }
}

impl Worker {
    fn handle(&mut self, request: SchedulerRequest) -> bool {
        match request {
            SchedulerRequest::RegisterDag { spec, reply } => {
                let outcome = self.register_dag(spec);
                reply.reply(outcome);
            }
            SchedulerRequest::CallFunction {
                function,
                args,
                region,
                reply,
            } => {
                self.incoming_total += 1;
                let refs: Vec<Key> = args
                    .iter()
                    .filter_map(|a| a.as_ref_key().cloned())
                    .collect();
                match self.pick_executor(&function, &refs, region, true) {
                    Some((_, addr)) => {
                        let _ = self.endpoint.send(
                            addr,
                            ExecutorRequest::InvokeSingle {
                                function,
                                args,
                                reply,
                                response_key: None,
                            },
                        );
                    }
                    None => reply.reply(InvocationResult::Err(format!(
                        "no executor available for {function:?}"
                    ))),
                }
            }
            SchedulerRequest::CallDag {
                name,
                args,
                region,
                output_key,
                reply,
            } => {
                self.incoming_total += 1;
                *self.call_counts.entry(name.clone()).or_insert(0) += 1;
                let reply_slot = Arc::new(Mutex::ranked(50, "cb-reply-slot", reply));
                self.launch_dag(&name, Arc::new(args), region, output_key, reply_slot, 0);
            }
            SchedulerRequest::DagDone { request_id } => {
                self.pending.remove(&request_id);
            }
            SchedulerRequest::CacheKeyset { vm, keys } => {
                self.cached_keys.insert(vm, keys.into_iter().collect());
            }
            SchedulerRequest::PinFunction { function } => {
                // The monitor names either a function or a lagging DAG; for
                // a DAG, every constituent function gets another replica.
                if let Some(dag) = self.dags.get(&function).cloned() {
                    for node in &dag.nodes {
                        self.pin_one_more(&node.function);
                    }
                } else {
                    self.pin_one_more(&function);
                }
            }
            SchedulerRequest::TrimPins { function, target } => {
                let unpin: Vec<(ExecutorId, Address)> = {
                    let Some(list) = self.pins.get_mut(&function) else {
                        return false;
                    };
                    if list.len() <= target.max(1) {
                        return false;
                    }
                    let keep = target.max(1);
                    let dropped: Vec<ExecutorId> = list.split_off(keep);
                    dropped
                        .into_iter()
                        .filter_map(|id| self.topology.executor(id).map(|i| (id, i.addr)))
                        .collect()
                };
                // The pin set shrank: cached plans may reference the dropped
                // executors, so they all expire.
                self.sched_gen += 1;
                for (_, addr) in unpin {
                    let _ = self.endpoint.send(
                        addr,
                        ExecutorRequest::Unpin {
                            function: function.clone(),
                        },
                    );
                }
            }
            SchedulerRequest::Shutdown => return true,
        }
        false
    }

    fn register_dag(&mut self, spec: DagSpec) -> Result<(), DagError> {
        spec.validate()?;
        // "The scheduler verifies that each function in the DAG exists
        // before picking an executor on which to cache it" (§4.3) — one
        // coalesced lookup for the whole DAG instead of a get per function.
        let function_keys: Vec<Key> = spec
            .nodes
            .iter()
            .map(|node| mkeys::function_key(&node.function))
            .collect();
        for chunk_start in (0..function_keys.len()).step_by(KVS_BATCH_MAX_KEYS) {
            let chunk_end = (chunk_start + KVS_BATCH_MAX_KEYS).min(function_keys.len());
            // A failed lookup is an infrastructure error, not evidence the
            // functions are unregistered — surface it as such rather than
            // misreporting the whole chunk as unknown.
            let found = self
                .anna
                .multi_get(&function_keys[chunk_start..chunk_end])
                .map_err(|e| DagError::Storage(e.to_string()))?;
            for (offset, capsule) in found.iter().enumerate() {
                if capsule.is_none() {
                    return Err(DagError::UnknownFunction(
                        spec.nodes[chunk_start + offset].function.clone(),
                    ));
                }
            }
        }
        for node in &spec.nodes {
            for _ in 0..self.config.initial_pin_replicas {
                self.pin_one_more(&node.function);
            }
        }
        // DAG topologies are the scheduler's only persistent metadata (§4.3).
        let serialized = format!("{spec:?}");
        let _ = self
            .anna
            .put_lww(&mkeys::dag_key(&spec.name), Bytes::from(serialized));
        self.dags.insert(spec.name.clone(), Arc::new(spec));
        // A (re-)registration may replace a DAG under an existing name;
        // cached plans hold the *old* `Arc<DagSpec>` and must not survive
        // it. (The pins above bump the generation only when they actually
        // recruit a new executor, which a steady-state re-registration
        // doesn't.)
        self.sched_gen += 1;
        Ok(())
    }

    fn launch_dag(
        &mut self,
        name: &str,
        args: Arc<HashMap<usize, Vec<Arg>>>,
        region: u16,
        output_key: Option<Key>,
        reply_slot: Arc<Mutex<Option<ReplyHandle<InvocationResult>>>>,
        retries: u32,
    ) {
        let Some(dag) = self.dags.get(name).cloned() else {
            if let Some(reply) = reply_slot.lock().take() {
                reply.reply(InvocationResult::Err(format!("unknown DAG {name:?}")));
            }
            return;
        };
        let plan = match self.plan_for(name, &dag, &args, region) {
            Ok(plan) => plan,
            Err(message) => {
                if let Some(reply) = reply_slot.lock().take() {
                    reply.reply(InvocationResult::Err(message));
                }
                return;
            }
        };
        let request_id = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
        let schedule = DagSchedule {
            request_id,
            attempt: retries,
            args: Arc::clone(&args),
            output_key: output_key.clone(),
            reply: Arc::clone(&reply_slot),
            plan: Arc::clone(&plan),
        };
        self.pending.insert(
            request_id,
            PendingDag {
                name: name.to_string(),
                args,
                region,
                output_key,
                reply_slot,
                cache_addrs: plan.cache_addrs.clone(),
                // lint: allow(L003): DAG re-execution deadline (§4.5); timeouts are wall-clock by contract
                deadline: Instant::now()
                    + self
                        .endpoint
                        .network()
                        .time_scale()
                        .ms(self.config.dag_timeout_ms),
                retries,
            },
        );
        // Trigger the source functions (§4.3).
        for &source in &plan.sources {
            let mut session = SessionMeta::new(request_id, self.level);
            session.traced = self.trace_enabled;
            let trigger = DagTrigger {
                schedule: schedule.clone(),
                node: source,
                input: None,
                session,
            };
            let _ = self.endpoint.send(
                plan.assignments[source],
                ExecutorRequest::TriggerDag(Box::new(trigger)),
            );
        }
    }

    /// The execution plan for one `(DAG, reference-key set)` call: a cached
    /// plan when the scheduling generation and topology epoch are both
    /// unchanged since it was computed, otherwise the full §4.3 policy
    /// (one `pick_executor` per node), with the result cached for the next
    /// call. `Err` carries the client-facing failure message.
    fn plan_for(
        &mut self,
        name: &str,
        dag: &Arc<DagSpec>,
        args: &HashMap<usize, Vec<Arg>>,
        region: u16,
    ) -> Result<Arc<DagPlan>, String> {
        let key = PlanKey::new(name, args, region);
        let topo_epoch = self.topology.epoch();
        if let Some(entry) = self.plan_cache.get(&key) {
            if entry.sched_gen == self.sched_gen && entry.topo_epoch == topo_epoch {
                self.plan_hits += 1;
                return Ok(Arc::clone(&entry.plan));
            }
        }
        self.plan_misses += 1;
        // Pick an executor per node — "guaranteed to have the function
        // stored locally" via the pin set (§4.3).
        let mut assignments = Vec::with_capacity(dag.nodes.len());
        let mut vms = Vec::with_capacity(dag.nodes.len());
        for (idx, node) in dag.nodes.iter().enumerate() {
            let refs: Vec<Key> = args
                .get(&idx)
                .map(|list| {
                    list.iter()
                        .filter_map(|a| a.as_ref_key().cloned())
                        .collect()
                })
                .unwrap_or_default();
            match self.pick_executor(&node.function, &refs, region, true) {
                Some((id, addr)) => {
                    let vm = self.topology.executor(id).map(|i| i.vm).unwrap_or_default();
                    assignments.push(addr);
                    vms.push(vm);
                }
                None => {
                    return Err(format!("no executor available for {:?}", node.function));
                }
            }
        }
        let cache_addrs: Vec<Address> = vms
            .iter()
            .filter_map(|vm| self.topology.cache_of(*vm))
            .collect();
        let plan = Arc::new(DagPlan::new(
            Arc::clone(dag),
            assignments,
            vms,
            cache_addrs,
            self.endpoint.addr(),
        ));
        if self.plan_cache.len() >= PLAN_CACHE_MAX_ENTRIES {
            // Cheap whole-cache reset; stale-generation entries go with it.
            // A working set larger than the cap thrashes rather than
            // growing without bound.
            self.plan_cache.clear();
        }
        // The generation stamp is read *after* the picks: a backpressure
        // pin during `pick_executor` bumps it, and the plan just computed
        // already reflects the new pin. The topology epoch is the one
        // captured *before* the picks: the topology is mutated by other
        // threads (crash_vm), so an executor removed mid-computation must
        // leave this entry stamped stale — stamping the post-pick epoch
        // would mark a possibly-dead assignment fresh.
        self.plan_cache.insert(
            key,
            CachedPlan {
                plan: Arc::clone(&plan),
                sched_gen: self.sched_gen,
                topo_epoch,
            },
        );
        Ok(plan)
    }

    /// The §4.3 scheduling policy, region-extended: prefer pinned executors
    /// with the most requested data cached on their VM; among equally
    /// covered executors prefer the caller's region (a WAN hop costs more
    /// than any intra-region rebalance gains); avoid overloaded executors;
    /// under backpressure, pin onto a fresh executor (raising the function's
    /// replication factor). Data locality strictly dominates the region
    /// term — a remote VM that already caches the inputs beats a local VM
    /// that would fetch them over the WAN anyway.
    fn pick_executor(
        &mut self,
        function: &str,
        ref_keys: &[Key],
        region: u16,
        allow_new_pin: bool,
    ) -> Option<(ExecutorId, Address)> {
        // Iterate the pinned list in place — the seed cloned the whole
        // `Vec<ExecutorId>` out of the map on every call.
        let live: Vec<Candidate> = self
            .pins
            .get(function)
            .into_iter()
            .flatten()
            .filter_map(|&id| {
                self.topology
                    .executor(id)
                    .map(|i| (id, i.addr, i.vm, i.region))
            })
            .collect();
        if live.is_empty() {
            return if allow_new_pin {
                self.pin_one_more(function)
            } else {
                None
            };
        }
        let underloaded: Vec<&Candidate> = live
            .iter()
            .filter(|(id, _, _, _)| {
                self.utilization.get(id).copied().unwrap_or(0.0) < HIGH_UTIL_THRESHOLD
            })
            .collect();
        if underloaded.is_empty() {
            // Backpressure: all replicas saturated → recruit a new executor,
            // which will fetch and cache the hot data (§4.3).
            if allow_new_pin {
                if let Some(found) = self.pin_one_more(function) {
                    return Some(found);
                }
            }
            let (id, addr, _, _) = live[self.rng.random_range(0..live.len())];
            return Some((id, addr));
        }
        if !ref_keys.is_empty() {
            // Data locality: most requested keys cached on the executor's VM,
            // caller-region preference as the secondary term. Ties at the
            // best (coverage, region) score break *randomly* — under equal
            // coverage (e.g. a hot key cached on every replica VM) a
            // deterministic winner would funnel all load onto one executor.
            let empty = KeySet::default();
            let scored: Vec<((usize, bool), &Candidate)> = underloaded
                .iter()
                .map(|entry| {
                    let cached = self.cached_keys.get(&entry.2).unwrap_or(&empty);
                    let score = ref_keys.iter().filter(|k| cached.contains(*k)).count();
                    ((score, entry.3 == region), *entry)
                })
                .collect();
            let best = scored.iter().map(|&(score, _)| score).max()?;
            if best.0 > 0 {
                let winners: Vec<&Candidate> = scored
                    .into_iter()
                    .filter_map(|(score, entry)| (score == best).then_some(entry))
                    .collect();
                let (id, addr, _, _) = **winners.choose(&mut self.rng)?;
                return Some((id, addr));
            }
        }
        // No coverage anywhere (or no refs): stay in the caller's region when
        // it has an underloaded replica, spreading randomly within it.
        let local: Vec<&&Candidate> = underloaded
            .iter()
            .filter(|(_, _, _, r)| *r == region)
            .collect();
        if let Some(entry) = local.choose(&mut self.rng) {
            let (id, addr, _, _) = ***entry;
            return Some((id, addr));
        }
        let (id, addr, _, _) = **underloaded.choose(&mut self.rng)?;
        Some((id, addr))
    }

    /// Pin `function` on one more executor that does not already have it.
    /// A first pin is a uniform draw. A further replica is drawn from the
    /// executors hosting the fewest pinned functions: it is recruited to
    /// take load off the function's replicas, and an executor that already
    /// runs another function (the function's DAG successor, say) would
    /// share that load instead of absorbing it.
    fn pin_one_more(&mut self, function: &str) -> Option<(ExecutorId, Address)> {
        let pinned: HashSet<ExecutorId> = self
            .pins
            .get(function)
            .map(|v| v.iter().copied().collect())
            .unwrap_or_default();
        let mut hosted: HashMap<ExecutorId, usize> = HashMap::new();
        if !pinned.is_empty() {
            for &id in self.pins.values().flatten() {
                *hosted.entry(id).or_insert(0) += 1;
            }
        }
        let free: Vec<(usize, (ExecutorId, Address))> = self
            .topology
            .executors()
            .into_iter()
            .filter(|(id, _)| !pinned.contains(id))
            .map(|(id, info)| (hosted.get(&id).copied().unwrap_or(0), (id, info.addr)))
            .collect();
        let fewest = free.iter().map(|&(n, _)| n).min()?;
        let candidates: Vec<(ExecutorId, Address)> = free
            .into_iter()
            .filter_map(|(n, c)| (n == fewest).then_some(c))
            .collect();
        let &(id, addr) = candidates.choose(&mut self.rng)?;
        let _ = self.endpoint.send(
            addr,
            ExecutorRequest::Pin {
                function: function.to_string(),
            },
        );
        self.pins.entry(function.to_string()).or_default().push(id);
        // The pin set changed: cached plans no longer reflect the policy's
        // candidate set, so they all expire.
        self.sched_gen += 1;
        Some((id, addr))
    }

    /// Refresh executor utilization from the metrics they publish to Anna
    /// (§4.3/§4.4). Also prune pins onto executors that have disappeared.
    /// One coalesced `multi_get` per chunk of executors replaces the per-
    /// executor request storm the refresh tick used to generate.
    fn refresh_metrics(&mut self) {
        // Fresh metrics may change every load-aware decision; cached plans
        // computed under the old view expire wholesale.
        self.sched_gen += 1;
        let executors = self.topology.executors();
        let live: HashSet<ExecutorId> = executors.iter().map(|&(id, _)| id).collect();
        for pins in self.pins.values_mut() {
            pins.retain(|id| live.contains(id));
        }
        // Drop state for executors and VMs that left the topology (crash or
        // scale-down): a dead executor's last reported load must not keep
        // attracting picks, and a dead VM's cached-keyset must not keep
        // winning locality ties.
        self.utilization.retain(|id, _| live.contains(id));
        let live_vms: HashSet<VmId> = self
            .topology
            .caches()
            .into_iter()
            .map(|(vm, _)| vm)
            .collect();
        self.cached_keys.retain(|vm, _| live_vms.contains(vm));
        let ids: Vec<ExecutorId> = executors.into_iter().map(|(id, _)| id).collect();
        for chunk in ids.chunks(KVS_BATCH_MAX_KEYS) {
            let keys: Vec<Key> = chunk
                .iter()
                .map(|&id| mkeys::executor_metrics_key(id))
                .collect();
            // Lenient: one dead storage node must not blank the whole
            // chunk's utilization view — healthy nodes' responses count.
            let results = self.anna.multi_get_lenient(&keys);
            for (&id, capsule) in chunk.iter().zip(results) {
                let Some(capsule) = capsule else { continue };
                for (name, value) in mkeys::decode_metrics(&capsule.read_value()) {
                    if name == "utilization" {
                        self.utilization.insert(id, value);
                    }
                }
            }
        }
    }

    /// Whole-DAG re-execution after a configurable timeout (§4.5).
    fn check_timeouts(&mut self) {
        // lint: allow(L003): deadline comparison for the DAG timeout above
        let now = Instant::now();
        let expired: Vec<RequestId> = self
            .pending
            .iter()
            .filter_map(|(&id, p)| (p.deadline <= now).then_some(id))
            .collect();
        for request_id in expired {
            let Some(p) = self.pending.remove(&request_id) else {
                continue;
            };
            // Evict stale snapshots of the abandoned attempt (only the
            // snapshotting levels hold any).
            if self.level.ships_session_metadata() {
                for &cache in &p.cache_addrs {
                    let _ = self
                        .endpoint
                        .send(cache, CacheRequest::SessionComplete { request_id });
                }
            }
            if p.retries >= self.config.max_retries {
                if let Some(reply) = p.reply_slot.lock().take() {
                    reply.reply(InvocationResult::Err(format!(
                        "DAG {:?} failed after {} attempts",
                        p.name,
                        p.retries + 1
                    )));
                }
                continue;
            }
            self.launch_dag(
                &p.name,
                p.args,
                p.region,
                p.output_key,
                p.reply_slot,
                p.retries + 1,
            );
        }
    }

    /// Publish per-DAG call counts to the KVS (§4.3), read by the monitor.
    fn publish_stats(&self) {
        let mut pairs: Vec<(String, f64)> = self
            .call_counts
            .iter()
            .map(|(name, count)| (format!("calls:{name}"), *count as f64))
            .collect();
        pairs.push(("incoming_total".to_string(), self.incoming_total as f64));
        pairs.push(("plan_hits".to_string(), self.plan_hits as f64));
        pairs.push(("plan_misses".to_string(), self.plan_misses as f64));
        let _ = self.anna.put_lww(
            &mkeys::scheduler_stats_key(self.id),
            mkeys::encode_metrics(&pairs),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_anna::Directory;
    use cloudburst_net::{NetConfig, Network};

    /// A scheduler worker wired to a real network but no live peers: Pin
    /// messages it sends are received by leaked endpoints and dropped, which
    /// is exactly what the §4.3 policy tests need — `pick_executor` never
    /// waits on a peer.
    fn test_worker(net: &Network, topology: Arc<Topology>) -> Worker {
        // No storage nodes: `pick_executor` never touches Anna.
        let anna = AnnaClient::new(net, Arc::new(Directory::new(1)));
        test_worker_with_anna(net, topology, anna)
    }

    fn test_worker_with_anna(net: &Network, topology: Arc<Topology>, anna: AnnaClient) -> Worker {
        Worker {
            id: 0,
            endpoint: net.register(),
            topology,
            anna,
            level: ConsistencyLevel::Lww,
            config: SchedulerConfig::default(),
            trace_enabled: false,
            dags: HashMap::new(),
            pins: HashMap::new(),
            utilization: HashMap::new(),
            cached_keys: HashMap::new(),
            pending: HashMap::new(),
            call_counts: HashMap::new(),
            incoming_total: 0,
            plan_cache: HashMap::new(),
            sched_gen: 0,
            plan_hits: 0,
            plan_misses: 0,
            rng: StdRng::seed_from_u64(7),
            refresh: Cadence::new(Duration::from_millis(100)),
        }
    }

    /// Register `n` executors (one per VM) as pinned replicas of `f`.
    fn pin_executors(net: &Network, worker: &mut Worker, n: u64) -> Vec<Address> {
        let mut addrs = Vec::new();
        for id in 0..n {
            let ep = net.register();
            let addr = ep.addr();
            std::mem::forget(ep);
            worker.topology.add_executor(id, addr, id, 0);
            worker.pins.entry("f".to_string()).or_default().push(id);
            addrs.push(addr);
        }
        addrs
    }

    #[test]
    fn locality_prefers_executor_with_most_cached_keys() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors(&net, &mut worker, 3);
        let refs: Vec<Key> = (0..3).map(|i| Key::new(format!("r{i}"))).collect();
        // VM 1 caches one requested key, VM 2 caches all three.
        worker
            .cached_keys
            .insert(1, refs.iter().take(1).cloned().collect());
        worker.cached_keys.insert(2, refs.iter().cloned().collect());
        for _ in 0..20 {
            let (id, _) = worker.pick_executor("f", &refs, 0, false).unwrap();
            assert_eq!(id, 2, "most-cached-keys executor must win every time");
        }
    }

    #[test]
    fn overloaded_executors_are_avoided() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors(&net, &mut worker, 3);
        let refs = vec![Key::new("hotref")];
        // Executor 2 has perfect locality but is saturated; 0 and 1 are idle.
        worker.cached_keys.insert(2, refs.iter().cloned().collect());
        worker.utilization.insert(2, 0.95);
        for _ in 0..20 {
            let (id, _) = worker.pick_executor("f", &refs, 0, false).unwrap();
            assert_ne!(
                id, 2,
                "overloaded executor must be skipped despite locality"
            );
        }
    }

    #[test]
    fn all_saturated_without_new_pin_falls_back_to_random_live_replica() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors(&net, &mut worker, 2);
        worker.utilization.insert(0, 0.9);
        worker.utilization.insert(1, 0.9);
        let picked = worker.pick_executor("f", &[], 0, false);
        assert!(
            picked.is_some(),
            "saturation must degrade to serving, not reject"
        );
    }

    #[test]
    fn backpressure_recruits_a_new_executor_when_allowed() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors(&net, &mut worker, 2);
        // A third executor exists but is not pinned yet.
        let ep = net.register();
        topo.add_executor(99, ep.addr(), 99, 0);
        std::mem::forget(ep);
        worker.utilization.insert(0, 0.9);
        worker.utilization.insert(1, 0.9);
        let (id, _) = worker.pick_executor("f", &[], 0, true).unwrap();
        assert_eq!(id, 99, "backpressure must raise the replication factor");
        assert!(worker.pins["f"].contains(&99), "new pin must be recorded");
    }

    #[test]
    fn equal_cache_coverage_breaks_ties_randomly() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors(&net, &mut worker, 3);
        let refs = vec![Key::new("shared")];
        // Every VM caches the requested key: coverage ties at 1 everywhere.
        // The tie must not pin to a fixed executor, or a hot key replicated
        // onto every VM would funnel all its load to one thread.
        for vm in 0..3 {
            worker
                .cached_keys
                .insert(vm, refs.iter().cloned().collect());
        }
        let mut seen: HashSet<ExecutorId> = HashSet::new();
        for _ in 0..64 {
            let (id, _) = worker.pick_executor("f", &refs, 0, false).unwrap();
            seen.insert(id);
        }
        assert!(
            seen.len() > 1,
            "equal-coverage ties must spread load across replicas, got {seen:?}"
        );
    }

    #[test]
    fn zero_coverage_spreads_load_randomly() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors(&net, &mut worker, 3);
        let refs = vec![Key::new("uncached")];
        let mut seen: HashSet<ExecutorId> = HashSet::new();
        for _ in 0..64 {
            let (id, _) = worker.pick_executor("f", &refs, 0, false).unwrap();
            seen.insert(id);
        }
        assert!(
            seen.len() > 1,
            "zero-coverage picks must spread load across replicas, got {seen:?}"
        );
    }

    #[test]
    fn unpinned_function_without_new_pins_yields_none() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, topo);
        assert!(worker.pick_executor("ghost", &[], 0, false).is_none());
    }

    #[test]
    fn pick_executor_never_selects_executor_gone_from_topology() {
        // Regression (PR 3 satellite): after `crash_vm` removes executors
        // from the topology, a pinned-but-dead executor must be unselectable
        // immediately — not only after the next metrics refresh.
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors(&net, &mut worker, 3);
        topo.remove_executor(1); // VM crash removes it from the topology
        for _ in 0..64 {
            let (id, _) = worker.pick_executor("f", &[], 0, false).unwrap();
            assert_ne!(id, 1, "dead executor must never be picked");
        }
    }

    /// Register `n` executors (one per VM) pinned on `f`, with VM `i` in
    /// region `i` — one replica per region.
    fn pin_executors_across_regions(net: &Network, worker: &mut Worker, n: u64) {
        for id in 0..n {
            let ep = net.register();
            let addr = ep.addr();
            std::mem::forget(ep);
            worker.topology.add_executor(id, addr, id, id as u16);
            worker.pins.entry("f".to_string()).or_default().push(id);
        }
    }

    #[test]
    fn caller_region_wins_when_no_data_is_cached() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors_across_regions(&net, &mut worker, 3);
        // No cached coverage anywhere: the caller's region must decide, for
        // ref-carrying and ref-free calls alike.
        for _ in 0..20 {
            let (id, _) = worker.pick_executor("f", &[], 2, false).unwrap();
            assert_eq!(id, 2, "ref-free call must stay in the caller's region");
            let (id, _) = worker
                .pick_executor("f", &[Key::new("uncached")], 1, false)
                .unwrap();
            assert_eq!(id, 1, "zero-coverage call must stay in the caller's region");
        }
    }

    #[test]
    fn cached_data_beats_the_caller_region() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors_across_regions(&net, &mut worker, 3);
        let refs = vec![Key::new("hotref")];
        // Only the region-0 VM caches the input; a caller in region 2 must
        // still be routed there — shipping the function to the data is
        // cheaper than refetching the data over the WAN.
        worker.cached_keys.insert(0, refs.iter().cloned().collect());
        for _ in 0..20 {
            let (id, _) = worker.pick_executor("f", &refs, 2, false).unwrap();
            assert_eq!(id, 0, "data locality must dominate the region term");
        }
    }

    #[test]
    fn equal_coverage_ties_break_toward_the_caller_region() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors_across_regions(&net, &mut worker, 3);
        let refs = vec![Key::new("shared")];
        // Every VM caches the key: coverage ties, so the region term decides.
        for vm in 0..3 {
            worker
                .cached_keys
                .insert(vm, refs.iter().cloned().collect());
        }
        for caller in 0..3u16 {
            let (id, _) = worker.pick_executor("f", &refs, caller, false).unwrap();
            assert_eq!(id as u16, caller, "coverage tie must resolve locally");
        }
    }

    #[test]
    fn plan_cache_keys_on_caller_region() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors_across_regions(&net, &mut worker, 2);
        let dag = Arc::new(DagSpec::linear("d", &["f"]));
        worker.dags.insert("d".to_string(), Arc::clone(&dag));
        let args = HashMap::new();
        let a = worker.plan_for("d", &dag, &args, 0).unwrap();
        let b = worker.plan_for("d", &dag, &args, 1).unwrap();
        assert!(
            !Arc::ptr_eq(&a, &b),
            "callers in different regions are different placement decisions"
        );
        // Same region hits the cached entry.
        let c = worker.plan_for("d", &dag, &args, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
    }

    /// Register a one-node DAG over the pinned function `f`.
    fn register_chain(worker: &mut Worker) -> Arc<DagSpec> {
        let dag = Arc::new(DagSpec::linear("d", &["f"]));
        worker.dags.insert("d".to_string(), Arc::clone(&dag));
        dag
    }

    #[test]
    fn plan_cache_reuses_assignment_across_calls() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors(&net, &mut worker, 3);
        let dag = register_chain(&mut worker);
        let args = HashMap::from([(0usize, vec![Arg::reference("r")])]);
        let first = worker.plan_for("d", &dag, &args, 0).unwrap();
        let second = worker.plan_for("d", &dag, &args, 0).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "back-to-back calls must share one plan"
        );
        assert_eq!((worker.plan_hits, worker.plan_misses), (1, 1));
    }

    #[test]
    fn plan_cache_keys_on_ref_set() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors(&net, &mut worker, 3);
        let dag = register_chain(&mut worker);
        let with_ref = HashMap::from([(0usize, vec![Arg::reference("r")])]);
        let without = HashMap::new();
        let a = worker.plan_for("d", &dag, &with_ref, 0).unwrap();
        let b = worker.plan_for("d", &dag, &without, 0).unwrap();
        assert!(
            !Arc::ptr_eq(&a, &b),
            "different ref-key sets are different placement decisions"
        );
        // Value-only argument changes hit the same entry: values never
        // steer placement, only refs do.
        let value_args = HashMap::from([(0usize, vec![Arg::value(Bytes::from_static(b"x"))])]);
        let c = worker.plan_for("d", &dag, &value_args, 0).unwrap();
        assert!(Arc::ptr_eq(&b, &c));
    }

    #[test]
    fn plan_cache_invalidated_by_metric_refresh() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors(&net, &mut worker, 3);
        let dag = register_chain(&mut worker);
        let args = HashMap::new();
        let before = worker.plan_for("d", &dag, &args, 0).unwrap();
        // No storage nodes: the refresh reads nothing, but fresh metrics
        // must still drop every cached plan.
        worker.refresh_metrics();
        let after = worker.plan_for("d", &dag, &args, 0).unwrap();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "metric refresh must invalidate cached plans"
        );
    }

    #[test]
    fn plan_cache_invalidated_by_pin_changes() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors(&net, &mut worker, 3);
        let dag = register_chain(&mut worker);
        let args = HashMap::new();
        let before = worker.plan_for("d", &dag, &args, 0).unwrap();
        // Scale-down: trimming to 1 replica unpins executors that a cached
        // plan may still reference.
        worker.handle(SchedulerRequest::TrimPins {
            function: "f".to_string(),
            target: 1,
        });
        let after = worker.plan_for("d", &dag, &args, 0).unwrap();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "unpin must invalidate cached plans"
        );
        // Scale-up (a fresh pin) invalidates as well.
        let ep = net.register();
        topo.add_executor(50, ep.addr(), 50, 0);
        std::mem::forget(ep);
        let mid = worker.plan_for("d", &dag, &args, 0).unwrap();
        worker.pin_one_more("f").unwrap();
        let post_pin = worker.plan_for("d", &dag, &args, 0).unwrap();
        assert!(!Arc::ptr_eq(&mid, &post_pin));
    }

    #[test]
    fn plan_cache_invalidated_by_dag_reregistration() {
        // Re-registering a DAG under an existing name replaces its spec;
        // a cached plan still holding the old `Arc<DagSpec>` must not be
        // served afterwards — even when registration pins nothing new
        // (every executor already has the functions, the steady state).
        use cloudburst_anna::{AnnaCluster, AnnaConfig};
        let net = Network::new(NetConfig::instant());
        let anna = AnnaCluster::launch(
            &net,
            AnnaConfig {
                nodes: 1,
                replication: 1,
                durability: cloudburst_anna::Durability::Off,
                ..AnnaConfig::default()
            },
        );
        let client = anna.client();
        client
            .put_lww(&mkeys::function_key("f"), Bytes::from_static(b"registered"))
            .unwrap();
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker_with_anna(&net, Arc::clone(&topo), anna.client());
        pin_executors(&net, &mut worker, 3);
        worker.register_dag(DagSpec::linear("d", &["f"])).unwrap();
        let args = HashMap::new();
        let dag_v1 = Arc::clone(&worker.dags["d"]);
        let before = worker.plan_for("d", &dag_v1, &args, 0).unwrap();
        // Same name, new spec (two nodes now). All executors are already
        // pinned with "f", so registration recruits nothing.
        worker
            .register_dag(DagSpec::linear("d", &["f", "f"]))
            .unwrap();
        let dag_v2 = Arc::clone(&worker.dags["d"]);
        assert!(!Arc::ptr_eq(&dag_v1, &dag_v2), "spec must be replaced");
        let after = worker.plan_for("d", &dag_v2, &args, 0).unwrap();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "re-registration must invalidate cached plans"
        );
        assert!(
            Arc::ptr_eq(&after.dag, &dag_v2),
            "fresh plan must carry the new spec"
        );
    }

    #[test]
    fn plan_cache_never_hands_schedule_to_dead_executor() {
        // Regression for the crash_vm path: a topology change must
        // immediately invalidate cached plans, even between metric
        // refreshes — a cached assignment must never reach an executor
        // that left the topology.
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors(&net, &mut worker, 3);
        let dag = register_chain(&mut worker);
        let args = HashMap::new();
        let before = worker.plan_for("d", &dag, &args, 0).unwrap();
        let victim = worker
            .topology
            .executors()
            .iter()
            .find(|(_, info)| info.addr == before.assignments[0])
            .map(|&(id, _)| id)
            .expect("assigned executor is in the topology");
        let dead_addr = before.assignments[0];
        topo.remove_executor(victim); // what crash_vm does per executor
        for _ in 0..32 {
            let plan = worker.plan_for("d", &dag, &args, 0).unwrap();
            assert!(
                !plan.assignments.contains(&dead_addr),
                "cached plan outlived the executor it targets"
            );
        }
    }

    #[test]
    fn recruited_replicas_go_to_the_least_loaded_executors() {
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        for id in 0..4u64 {
            let ep = net.register();
            topo.add_executor(id, ep.addr(), id / 2, 0);
            std::mem::forget(ep);
        }
        // Many seeds, so a uniform draw cannot pass by luck.
        for seed in 0..32 {
            let mut worker = test_worker(&net, Arc::clone(&topo));
            worker.rng = StdRng::seed_from_u64(seed);
            // Executor 0 hosts `a` and `b`, 1 hosts `b`, 2 hosts `c`, 3 nothing.
            for (f, ids) in [("a", vec![0]), ("b", vec![0, 1]), ("c", vec![2])] {
                worker.pins.insert(f.to_string(), ids);
            }
            assert_eq!(worker.pin_one_more("a").unwrap().0, 3, "seed {seed}");
            // Now 1, 2 and 3 host one function each; `c` is on 2 already.
            let id = worker.pin_one_more("c").unwrap().0;
            assert!(id == 1 || id == 3, "seed {seed}: recruited onto {id}");
        }
    }

    #[test]
    fn refresh_prunes_stale_utilization_and_cached_keysets() {
        // Stale per-executor load and per-VM cached-keyset state for
        // topology members that no longer exist must be dropped on refresh,
        // or a dead executor's last reported load (and a dead VM's locality
        // weight) would keep steering scheduling decisions forever.
        let net = Network::new(NetConfig::instant());
        let topo = Arc::new(Topology::new());
        let mut worker = test_worker(&net, Arc::clone(&topo));
        pin_executors(&net, &mut worker, 2); // executors 0, 1 on VMs 0, 1
        let cache = net.register();
        topo.add_cache(0, cache.addr());
        std::mem::forget(cache);
        worker.utilization.insert(0, 0.5);
        worker.utilization.insert(1, 0.6);
        worker.utilization.insert(99, 0.9); // never existed / long gone
        worker
            .cached_keys
            .insert(0, KeySet::from_iter([Key::new("a")]));
        worker
            .cached_keys
            .insert(42, KeySet::from_iter([Key::new("b")])); // dead VM
        topo.remove_executor(1); // crashed mid-window
        worker.refresh_metrics();
        assert_eq!(
            worker.utilization.keys().copied().collect::<Vec<_>>(),
            vec![0],
            "only live executors keep utilization entries"
        );
        assert!(worker.cached_keys.contains_key(&0));
        assert!(
            !worker.cached_keys.contains_key(&42),
            "cached keysets of VMs without a live cache must be pruned"
        );
    }
}
