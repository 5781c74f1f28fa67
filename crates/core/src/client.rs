//! [`CloudburstClient`]: the user-facing API, mirroring the Python client of
//! paper §3 (Figure 2): `put`/`get`, function registration, synchronous
//! calls, and KVS-backed futures.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use cloudburst_anna::metrics as mkeys;
use cloudburst_anna::{AnnaClient, AnnaError};
use cloudburst_lattice::{Key, VectorClock};
use cloudburst_net::{reply_channel, Endpoint, Network, RecvError, ReplyWaiter, Site};

use crate::dag::{DagError, DagSpec};
use crate::function::{FunctionRegistry, Runtime};
use crate::scheduler::SchedulerRequest;
use crate::topology::Topology;
use crate::types::{Arg, ConsistencyLevel, InvocationResult};

/// Client-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// No scheduler is registered.
    NoSchedulers,
    /// The request could not be sent or timed out.
    Unreachable(String),
    /// DAG registration failed.
    Dag(DagError),
    /// The DAG ran and a function (or the runtime) reported this error
    /// (§4.5) — the failure a [`CloudburstFuture`] learns from its
    /// completion notice.
    Invocation(String),
    /// Storage error.
    Anna(AnnaError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSchedulers => f.write_str("no schedulers available"),
            Self::Unreachable(e) => write!(f, "request failed: {e}"),
            Self::Dag(e) => write!(f, "DAG error: {e}"),
            Self::Invocation(e) => write!(f, "invocation failed: {e}"),
            Self::Anna(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<AnnaError> for ClientError {
    fn from(e: AnnaError) -> Self {
        Self::Anna(e)
    }
}

impl From<DagError> for ClientError {
    fn from(e: DagError) -> Self {
        Self::Dag(e)
    }
}

/// A handle on a result stored in the KVS — the `CloudburstFuture` of §3.
///
/// The sink executor writes the result to Anna under [`key`](Self::key) and
/// then answers this future's reply channel with it, so [`get`](Self::get)
/// normally returns on the completion notice without touching the KVS. The
/// stored copy is what outlives the client: anyone holding the key can read
/// it, and `get` itself falls back to it when the notice is lost.
#[derive(Debug)]
pub struct CloudburstFuture {
    key: Key,
    waiter: ReplyWaiter<InvocationResult>,
    /// The notice's outcome, kept so every later `get` returns the same.
    settled: OnceLock<Result<Bytes, ClientError>>,
    /// The issuing client's KVS handle, for the fallback read.
    anna: Arc<AnnaClient>,
}

impl CloudburstFuture {
    /// The KVS key the result is stored under.
    pub fn key(&self) -> &Key {
        &self.key
    }

    /// Block until the DAG completes, up to `timeout`: `Ok` with the sink's
    /// value, or [`ClientError::Invocation`] as soon as a function fails.
    pub fn get(&self, timeout: Duration) -> Result<Bytes, ClientError> {
        if let Some(outcome) = self.settled.get() {
            return outcome.clone();
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "client-facing timeout deadline; timeouts are wall-clock by contract"
        )]
        let deadline = Instant::now() + timeout;
        match self.waiter.wait_timeout(timeout) {
            Ok(result) => self
                .settled
                .get_or_init(|| match result {
                    InvocationResult::Ok(value) => Ok(value),
                    InvocationResult::Err(e) => Err(ClientError::Invocation(e)),
                })
                .clone(),
            // Every reply handle was dropped unanswered (the sink died
            // after its write and no retry is left), or the notice is late:
            // the stored copy is all there is. A timed-out wait has used up
            // the deadline, so it gets exactly one read.
            Err(RecvError::Disconnected | RecvError::Timeout) => self.read_stored(deadline),
        }
    }

    /// Poll the KVS for the stored result until `deadline`.
    fn read_stored(&self, deadline: Instant) -> Result<Bytes, ClientError> {
        loop {
            // Cheap primary-only probe each iteration (a poll's expected
            // answer is "not yet", and a failover walk per poll would
            // multiply read traffic by the replication factor); a dead
            // primary falls back to the full failover read.
            let polled = match self.anna.get_primary(&self.key) {
                Ok(capsule) => capsule,
                Err(_) => self.anna.get(&self.key)?,
            };
            if let Some(capsule) = polled {
                return Ok(capsule.read_value());
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "deadline comparison for the timeout above"
            )]
            if Instant::now() >= deadline {
                return Err(ClientError::Unreachable("future timed out".into()));
            }
            std::thread::sleep(Duration::from_micros(300));
        }
    }
}

/// A Cloudburst client.
pub struct CloudburstClient {
    endpoint: Endpoint,
    /// Shared with the futures this client hands out (their fallback read).
    anna: Arc<AnnaClient>,
    registry: FunctionRegistry,
    topology: Arc<Topology>,
    level: ConsistencyLevel,
    /// The client's region, inherited from its Anna client: KVS reads walk
    /// local replicas first, and every scheduler request carries it so DAG
    /// placement prefers executors here.
    region: u16,
    next_scheduler: AtomicU64,
    next_response: AtomicU64,
    causal_clock: AtomicU64,
    timeout: Duration,
}

impl CloudburstClient {
    /// Default client-side timeout (wall clock).
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

    /// Create a client. The client joins the network at its Anna client's
    /// region site, so requests from a multi-region deployment pay the
    /// right link latency in both directions.
    pub fn new(
        net: &Network,
        anna: AnnaClient,
        registry: FunctionRegistry,
        topology: Arc<Topology>,
        level: ConsistencyLevel,
    ) -> Self {
        let region = anna.region();
        Self {
            endpoint: net.register_at(Site::region(region)),
            region,
            anna: Arc::new(anna),
            registry,
            topology,
            level,
            next_scheduler: AtomicU64::new(0),
            next_response: AtomicU64::new(0),
            causal_clock: AtomicU64::new(0),
            timeout: Self::DEFAULT_TIMEOUT,
        }
    }

    /// Override the client timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Direct KVS access (wrapped in the deployment's capsule kind).
    pub fn put(&self, key: impl Into<Key>, value: impl Into<Bytes>) -> Result<(), ClientError> {
        let key = key.into();
        if self.level.is_causal() {
            let clock = VectorClock::singleton(
                self.endpoint.addr().raw(),
                self.causal_clock.fetch_add(1, Ordering::Relaxed) + 1,
            );
            self.anna.put_causal(&key, clock, [], value.into())?;
        } else {
            self.anna.put_lww(&key, value.into())?;
        }
        Ok(())
    }

    /// Direct KVS read (de-encapsulated).
    pub fn get(&self, key: impl Into<Key>) -> Result<Option<Bytes>, ClientError> {
        Ok(self.anna.get(&key.into())?.map(|c| c.read_value()))
    }

    /// Register a function: body into the registry, metadata into Anna
    /// (paper §3, Figure 2 line 6).
    pub fn register_function(
        &self,
        name: impl Into<String>,
        body: impl Fn(&mut dyn Runtime, &[Bytes]) -> Result<Bytes, String> + Send + Sync + 'static,
    ) -> Result<(), ClientError> {
        let name = name.into();
        self.registry.register(&name, body);
        self.anna.put_lww(
            &mkeys::function_key(&name),
            Bytes::from_static(b"registered"),
        )?;
        self.anna
            .add_to_set(&mkeys::function_list_key(), Bytes::from(name))?;
        Ok(())
    }

    /// Invoke a single function synchronously through a scheduler.
    pub fn call_function(
        &self,
        name: &str,
        args: Vec<Arg>,
    ) -> Result<InvocationResult, ClientError> {
        let scheduler = self.pick_scheduler()?;
        let (reply, waiter) = reply_channel::<InvocationResult>(self.endpoint.network());
        self.endpoint
            .send(
                scheduler,
                SchedulerRequest::CallFunction {
                    function: name.to_string(),
                    args,
                    region: self.region,
                    reply,
                },
            )
            .map_err(|e| ClientError::Unreachable(e.to_string()))?;
        waiter.wait_timeout(self.timeout).map_err(map_recv)
    }

    /// Register a DAG of functions (paper §3).
    pub fn register_dag(&self, spec: DagSpec) -> Result<(), ClientError> {
        let scheduler = self.pick_scheduler()?;
        let (reply, waiter) = reply_channel::<Result<(), DagError>>(self.endpoint.network());
        self.endpoint
            .send(scheduler, SchedulerRequest::RegisterDag { spec, reply })
            .map_err(|e| ClientError::Unreachable(e.to_string()))?;
        waiter.wait_timeout(self.timeout).map_err(map_recv)??;
        Ok(())
    }

    /// Execute a DAG and wait for the sink's result ("results by default are
    /// sent directly back to the client", §3).
    pub fn call_dag(
        &self,
        name: &str,
        args: HashMap<usize, Vec<Arg>>,
    ) -> Result<InvocationResult, ClientError> {
        let scheduler = self.pick_scheduler()?;
        let (reply, waiter) = reply_channel::<InvocationResult>(self.endpoint.network());
        self.endpoint
            .send(
                scheduler,
                SchedulerRequest::CallDag {
                    name: name.to_string(),
                    args,
                    region: self.region,
                    output_key: None,
                    reply: Some(reply),
                },
            )
            .map_err(|e| ClientError::Unreachable(e.to_string()))?;
        waiter.wait_timeout(self.timeout).map_err(map_recv)
    }

    /// Execute a DAG with the result stored in the KVS; returns a
    /// [`CloudburstFuture`] immediately (`store_in_kvs=True` of Figure 2).
    pub fn call_dag_stored(
        &self,
        name: &str,
        args: HashMap<usize, Vec<Arg>>,
    ) -> Result<CloudburstFuture, ClientError> {
        let scheduler = self.pick_scheduler()?;
        let n = self.next_response.fetch_add(1, Ordering::Relaxed);
        let key = Key::new(format!("resp/{}/{n}", self.endpoint.addr().raw()));
        let (reply, waiter) = reply_channel::<InvocationResult>(self.endpoint.network());
        self.endpoint
            .send(
                scheduler,
                SchedulerRequest::CallDag {
                    name: name.to_string(),
                    args,
                    region: self.region,
                    output_key: Some(key.clone()),
                    reply: Some(reply),
                },
            )
            .map_err(|e| ClientError::Unreachable(e.to_string()))?;
        Ok(CloudburstFuture {
            key,
            waiter,
            settled: OnceLock::new(),
            anna: Arc::clone(&self.anna),
        })
    }

    /// The underlying Anna client.
    pub fn anna(&self) -> &AnnaClient {
        &self.anna
    }

    /// Round-robin over schedulers (the paper's stateless load balancer).
    fn pick_scheduler(&self) -> Result<cloudburst_net::Address, ClientError> {
        let schedulers = self.topology.schedulers();
        if schedulers.is_empty() {
            return Err(ClientError::NoSchedulers);
        }
        let idx = self.next_scheduler.fetch_add(1, Ordering::Relaxed) as usize;
        Ok(schedulers[idx % schedulers.len()])
    }
}

impl fmt::Debug for CloudburstClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CloudburstClient")
            .field("addr", &self.endpoint.addr())
            .field("level", &self.level)
            .finish()
    }
}

fn map_recv(e: RecvError) -> ClientError {
    match e {
        RecvError::Timeout => ClientError::Unreachable("request timed out".into()),
        RecvError::Disconnected => ClientError::Unreachable("scheduler disconnected".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::attempt_stamped_output;
    use cloudburst_anna::{AnnaCluster, AnnaConfig};
    use cloudburst_net::NetConfig;

    #[test]
    fn lost_notice_falls_back_to_the_stored_copy() {
        // The sink wrote its output and died before answering; no retry is
        // left, so every reply handle is dropped unanswered. `get` must
        // notice the disconnect at once and read the KVS copy.
        let net = Network::new(NetConfig::instant());
        let anna = AnnaCluster::launch(
            &net,
            AnnaConfig {
                nodes: 2,
                replication: 1,
                durability: cloudburst_anna::Durability::Off,
                ..AnnaConfig::default()
            },
        );
        let key = Key::new("resp/lost-notice/0");
        let (reply, waiter) = reply_channel::<InvocationResult>(&net);
        let future = CloudburstFuture {
            key: key.clone(),
            waiter,
            settled: OnceLock::new(),
            anna: Arc::new(anna.client()),
        };
        anna.client()
            .put(
                &key,
                attempt_stamped_output(0, 7, Bytes::from_static(b"stored")),
            )
            .unwrap();
        drop(reply);
        let start = Instant::now();
        let value = future.get(Duration::from_secs(30)).unwrap();
        assert_eq!(value.as_ref(), b"stored");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "waited out the timeout"
        );
        // And again: with no notice to memoise, the read repeats.
        assert_eq!(future.get(Duration::from_secs(30)).unwrap(), value);
    }

    #[test]
    fn late_notice_gets_one_final_read() {
        // The notice never arrives inside the timeout, but the handle is
        // still alive (a slow DAG): `get` makes exactly one read of the
        // stored copy before reporting the timeout.
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
        let key = Key::new("resp/late-notice/0");
        let (_reply, waiter) = reply_channel::<InvocationResult>(&net);
        let future = CloudburstFuture {
            key: key.clone(),
            waiter,
            settled: OnceLock::new(),
            anna: Arc::new(anna.client()),
        };
        assert!(matches!(
            future.get(Duration::from_millis(20)),
            Err(ClientError::Unreachable(_))
        ));
        anna.client()
            .put(
                &key,
                attempt_stamped_output(0, 7, Bytes::from_static(b"stored")),
            )
            .unwrap();
        assert_eq!(
            future.get(Duration::from_millis(20)).unwrap().as_ref(),
            b"stored"
        );
    }
}
