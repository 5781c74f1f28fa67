//! Outside-in tracing: spans the benchmark records around calls into each
//! layer, with nothing instrumented inside the product.
//!
//! A DAG workload's client ships a 16-byte trace argument with every call.
//! Each registered function is re-registered under its own name with a
//! wrapper that strips that argument, stamps body entry and exit, and hands
//! the original body a [`TracedRuntime`] that times `get` and `put`. Spans go
//! to a per-thread buffer and are collected after the run; the time between
//! spans (client -> first body, body -> next body, last body -> client) is
//! attributed to the scheduler and executor layers by [`analyze`].

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use cloudburst::function::FunctionBody;
use cloudburst::types::ExecutorId;
use cloudburst::Runtime;
use cloudburst_lattice::Key;

use crate::procstat::now_ns;
use crate::stats::percentile;

/// One timed interval. A trace's root span has `span_id == trace_id` and
/// `parent_id == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Root span of a primary operation (`call_dag`, `retwis_timeline`, `get`).
pub const ROOT_CALL: &str = "call";
/// Root span of a state-mutating operation.
pub const ROOT_WRITE: &str = "write";
pub const RT_GET: &str = "rt.get";
pub const RT_PUT: &str = "rt.put";

type Buffer = Arc<Mutex<Vec<Span>>>;

/// Every thread's buffer, so [`drain`] can collect spans recorded on
/// runtime workers that outlive the measured window.
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LOCAL: RefCell<Option<Buffer>> = const { RefCell::new(None) };
    static THREAD_TAG: Cell<u64> = const { Cell::new(0) };
    static NEXT_LOCAL: Cell<u64> = const { Cell::new(0) };
}

/// Spans a thread's buffer is pre-sized for; recording past it reallocates
/// (amortised) but never drops.
const BUFFER_CAPACITY: usize = 1 << 18;

/// Append a span to the calling thread's buffer. The lock is only ever
/// contended by [`drain`], which runs after the clients stopped.
pub fn record(span: Span) {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let buffer = local.get_or_insert_with(|| {
            let buffer: Buffer = Arc::new(Mutex::new(Vec::with_capacity(BUFFER_CAPACITY)));
            BUFFERS
                .lock()
                .expect("trace registry poisoned")
                .push(Arc::clone(&buffer));
            buffer
        });
        buffer.lock().expect("trace buffer poisoned").push(span);
    });
}

/// A process-unique id for a non-root span: thread tag in the high bits,
/// a per-thread counter below, top bit set so it can never equal a trace id.
pub fn next_span_id() -> u64 {
    let tag = THREAD_TAG.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    });
    let n = NEXT_LOCAL.with(|c| {
        c.set(c.get() + 1);
        c.get()
    });
    (1 << 63) | (tag << 40) | (n & ((1 << 40) - 1))
}

/// Take every span recorded so far, from all threads.
pub fn drain() -> Vec<Span> {
    let buffers = BUFFERS.lock().expect("trace registry poisoned");
    let mut all = Vec::new();
    for buffer in buffers.iter() {
        all.append(&mut buffer.lock().expect("trace buffer poisoned"));
    }
    all
}

const TRACE_MAGIC: &[u8; 8] = b"\xC1\x0D\xB0\x75TRC1";

/// The 16-byte trailing argument that carries a trace id to the bodies.
pub fn trace_arg(trace_id: u64) -> Bytes {
    let mut buf = Vec::with_capacity(16);
    buf.extend_from_slice(TRACE_MAGIC);
    buf.extend_from_slice(&trace_id.to_le_bytes());
    Bytes::from(buf)
}

fn parse_trace_arg(arg: &Bytes) -> Option<u64> {
    let bytes: &[u8] = arg.as_ref();
    if bytes.len() == 16 && &bytes[..8] == TRACE_MAGIC {
        Some(u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes")))
    } else {
        None
    }
}

/// Wrap a registered body: record a span named `name` around it and time
/// its `rt.get` / `rt.put` calls. A call without a trace argument (warm-up,
/// system traffic) runs the original body untouched.
pub fn wrap_body(
    name: &'static str,
    body: FunctionBody,
) -> impl Fn(&mut dyn Runtime, &[Bytes]) -> Result<Bytes, String> + Send + Sync + 'static {
    move |rt, args| {
        let Some((pos, trace_id)) = args
            .iter()
            .enumerate()
            .find_map(|(i, a)| parse_trace_arg(a).map(|id| (i, id)))
        else {
            return body(rt, args);
        };
        let mut rest = Vec::with_capacity(args.len() - 1);
        rest.extend_from_slice(&args[..pos]);
        rest.extend_from_slice(&args[pos + 1..]);
        let span_id = next_span_id();
        let start_ns = now_ns();
        let mut traced = TracedRuntime {
            inner: rt,
            trace_id,
            parent_id: span_id,
        };
        let out = body(&mut traced, &rest);
        record(Span {
            trace_id,
            span_id,
            parent_id: trace_id,
            name,
            start_ns,
            end_ns: now_ns(),
        });
        out
    }
}

/// Delegates to the executor's real runtime, timing `get` and `put`.
struct TracedRuntime<'a> {
    inner: &'a mut dyn Runtime,
    trace_id: u64,
    parent_id: u64,
}

impl TracedRuntime<'_> {
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn Runtime) -> R) -> R {
        let start_ns = now_ns();
        let out = f(self.inner);
        record(Span {
            trace_id: self.trace_id,
            span_id: next_span_id(),
            parent_id: self.parent_id,
            name,
            start_ns,
            end_ns: now_ns(),
        });
        out
    }
}

impl Runtime for TracedRuntime<'_> {
    fn get(&mut self, key: &Key) -> Option<Bytes> {
        self.timed(RT_GET, |rt| rt.get(key))
    }
    fn put(&mut self, key: &Key, value: Bytes) {
        self.timed(RT_PUT, |rt| rt.put(key, value));
    }
    fn delete(&mut self, key: &Key) {
        self.inner.delete(key);
    }
    fn send(&mut self, to: ExecutorId, message: Bytes) {
        self.inner.send(to, message);
    }
    fn recv(&mut self) -> Vec<Bytes> {
        self.inner.recv()
    }
    fn recv_timeout(&mut self, paper_ms: f64) -> Vec<Bytes> {
        self.inner.recv_timeout(paper_ms)
    }
    fn executor_id(&self) -> ExecutorId {
        self.inner.executor_id()
    }
    fn compute(&mut self, paper_ms: f64) {
        self.inner.compute(paper_ms);
    }
}

/// A span's self time: its duration minus the part of it that its children
/// cover (overlapping children are not counted twice).
pub fn self_time_ns(span: &Span, children: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    span.dur_ns() - covered
}

/// Per-layer numbers derived from one traced window.
#[derive(Debug, Default, Clone)]
pub struct TraceReport {
    /// Traces with a root span / of those, traces whose body spans arrived.
    pub traces: usize,
    pub complete: usize,
    pub call_p50_us: f64,
    pub call_p99_us: f64,
    pub write_p99_us: f64,
    pub dispatch_us: f64,
    pub hop_us: f64,
    pub reply_us: f64,
    pub fn_self_us: f64,
    pub rt_get_us: f64,
    pub rt_get_p95_us: f64,
    pub rt_get_max_ms: f64,
    pub rt_put_us: f64,
    pub rt_gets: u64,
    pub rt_gets_per_call: f64,
    /// Sum of child spans (gaps and bodies) over sum of roots.
    pub closure_ratio: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn p50_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(values, 0.5)
    }
}

/// Attribute each trace's root interval to layers.
///
/// Within one trace the body spans are ordered by entry time; the interval
/// from the root's start to the first body entry is the dispatch (client ->
/// scheduler hop, mailbox, plan lookup, scheduler -> executor hop, executor
/// mailbox, argument resolution), each interval between one body's exit and
/// the next body's entry is an executor hop, and the interval from the last
/// exit to the root's end is the reply. A trace whose body spans are missing
/// counts in the closure ratio's denominator only, so lost spans show.
pub fn analyze(spans: &[Span]) -> TraceReport {
    let mut roots: HashMap<u64, Span> = HashMap::new();
    let mut bodies: HashMap<u64, Vec<Span>> = HashMap::new();
    let mut rt_children: HashMap<u64, Vec<Span>> = HashMap::new();
    let mut rt_get = Vec::new();
    let mut rt_put = Vec::new();
    for span in spans {
        if span.span_id == span.trace_id {
            roots.insert(span.trace_id, *span);
        } else if span.parent_id == span.trace_id {
            bodies.entry(span.trace_id).or_default().push(*span);
        } else {
            rt_children.entry(span.parent_id).or_default().push(*span);
            match span.name {
                RT_GET => rt_get.push(us(span.dur_ns())),
                RT_PUT => rt_put.push(us(span.dur_ns())),
                _ => {}
            }
        }
    }

    let mut report = TraceReport {
        traces: roots.len(),
        rt_gets: rt_get.len() as u64,
        ..TraceReport::default()
    };
    let (mut call, mut write) = (Vec::new(), Vec::new());
    let (mut dispatch, mut hop, mut reply, mut fn_self) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut root_total, mut child_total) = (0u64, 0u64);
    let (mut call_traces, mut call_gets) = (0u64, 0u64);
    for (trace_id, root) in &roots {
        root_total += root.dur_ns();
        let is_call = root.name == ROOT_CALL;
        if is_call {
            call.push(us(root.dur_ns()));
            call_traces += 1;
        } else {
            write.push(us(root.dur_ns()));
        }
        let Some(fns) = bodies.get_mut(trace_id) else {
            continue;
        };
        report.complete += 1;
        fns.sort_unstable_by_key(|s| s.start_ns);
        let first = fns.first().expect("non-empty body list");
        let last = fns.last().expect("non-empty body list");
        let d = first.start_ns.saturating_sub(root.start_ns);
        let r = root.end_ns.saturating_sub(last.end_ns);
        child_total += d + r;
        if is_call {
            dispatch.push(us(d));
            reply.push(us(r));
        }
        for pair in fns.windows(2) {
            let h = pair[1].start_ns.saturating_sub(pair[0].end_ns);
            child_total += h;
            if is_call {
                hop.push(us(h));
            }
        }
        for body in fns.iter() {
            child_total += body.dur_ns();
            let children = rt_children
                .get(&body.span_id)
                .map_or(&[][..], Vec::as_slice);
            if is_call {
                fn_self.push(us(self_time_ns(body, children)));
                call_gets += children.iter().filter(|c| c.name == RT_GET).count() as u64;
            }
        }
    }
    report.call_p50_us = p50_or_zero(&call);
    report.call_p99_us = if call.is_empty() {
        0.0
    } else {
        percentile(&call, 0.99)
    };
    report.write_p99_us = if write.is_empty() {
        0.0
    } else {
        percentile(&write, 0.99)
    };
    report.dispatch_us = p50_or_zero(&dispatch);
    report.hop_us = p50_or_zero(&hop);
    report.reply_us = p50_or_zero(&reply);
    report.fn_self_us = p50_or_zero(&fn_self);
    report.rt_get_us = p50_or_zero(&rt_get);
    report.rt_get_p95_us = if rt_get.is_empty() {
        0.0
    } else {
        percentile(&rt_get, 0.95)
    };
    report.rt_get_max_ms = rt_get.iter().copied().fold(0.0, f64::max) / 1000.0;
    report.rt_put_us = p50_or_zero(&rt_put);
    report.rt_gets_per_call = if call_traces == 0 {
        0.0
    } else {
        call_gets as f64 / call_traces as f64
    };
    report.closure_ratio = if root_total == 0 {
        0.0
    } else {
        child_total as f64 / root_total as f64
    };
    report
}

/// Write spans as JSON lines (at most `limit`, to bound the file).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span], limit: usize) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter().take(limit) {
        writeln!(
            out,
            "{{\"trace_id\": {}, \"span_id\": {}, \"parent_id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.trace_id, s.span_id, s.parent_id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Tests that record spans share the process-wide buffers; they hold this
/// lock so one test's `drain` cannot take another's spans.
#[cfg(test)]
pub static TEST_SERIAL: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let body = span(1, 10, 1, "fn", 100, 200);
        // Two overlapping children covering 110..150, one outside the span.
        let kids = [
            span(1, 11, 10, RT_GET, 110, 140),
            span(1, 12, 10, RT_GET, 130, 150),
            span(1, 13, 10, RT_PUT, 190, 260),
        ];
        // covered = 40 (110..150) + 10 (190..200 clipped) = 50
        assert_eq!(self_time_ns(&body, &kids), 50);
        assert_eq!(self_time_ns(&body, &[]), 100);
    }

    #[test]
    fn hand_built_tree_attributes_every_nanosecond() {
        // call 0..10_000: dispatch 0..2000, fn a 2000..4000 (one get of
        // 500), hop 4000..5000, fn b 5000..8000, reply 8000..10_000.
        let spans = [
            span(7, 7, 0, ROOT_CALL, 0, 10_000),
            span(7, 100, 7, "a", 2_000, 4_000),
            span(7, 101, 100, RT_GET, 2_500, 3_000),
            span(7, 102, 7, "b", 5_000, 8_000),
        ];
        let r = analyze(&spans);
        assert_eq!((r.traces, r.complete), (1, 1));
        assert_eq!(r.call_p50_us, 10.0);
        assert_eq!(r.dispatch_us, 2.0);
        assert_eq!(r.hop_us, 1.0);
        assert_eq!(r.reply_us, 2.0);
        assert_eq!(r.rt_gets_per_call, 1.0);
        assert_eq!(r.rt_get_us, 0.5);
        assert!((r.closure_ratio - 1.0).abs() < 1e-12);
        // fn self: a = 2000 - 500, b = 3000 -> p50 of [1.5, 3.0] (nearest rank, upper)
        assert_eq!(r.fn_self_us, 3.0);
    }

    #[test]
    fn lost_body_spans_lower_the_closure_ratio() {
        let spans = [
            span(1, 1, 0, ROOT_CALL, 0, 1_000),
            span(1, 50, 1, "f", 200, 800),
            span(2, 2, 0, ROOT_CALL, 0, 1_000), // bodies lost
        ];
        let r = analyze(&spans);
        assert_eq!((r.traces, r.complete), (2, 1));
        assert!((r.closure_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wrapper_strips_the_trace_argument_wherever_it_sits() {
        use cloudburst::codec;
        let _serial = TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        struct Nop;
        impl Runtime for Nop {
            fn get(&mut self, _: &Key) -> Option<Bytes> {
                Some(Bytes::from_static(b"v"))
            }
            fn put(&mut self, _: &Key, _: Bytes) {}
            fn delete(&mut self, _: &Key) {}
            fn send(&mut self, _: ExecutorId, _: Bytes) {}
            fn recv(&mut self) -> Vec<Bytes> {
                Vec::new()
            }
            fn recv_timeout(&mut self, _: f64) -> Vec<Bytes> {
                Vec::new()
            }
            fn executor_id(&self) -> ExecutorId {
                1
            }
            fn compute(&mut self, _: f64) {}
        }
        let body: FunctionBody = Arc::new(|rt, args| {
            assert_eq!(args.len(), 1);
            let _ = rt.get(&Key::new("k"));
            Ok(args[0].clone())
        });
        let wrapped = wrap_body("probe", body);
        let x = codec::encode_i64(5);
        let id = 0x1234_5678;
        // Trace argument first (a non-source DAG node sees it before the
        // upstream value), last, and absent.
        for args in [
            vec![trace_arg(id), x.clone()],
            vec![x.clone(), trace_arg(id)],
        ] {
            assert_eq!(wrapped(&mut Nop, &args).unwrap(), x);
        }
        assert_eq!(wrapped(&mut Nop, std::slice::from_ref(&x)).unwrap(), x);
        let mine: Vec<Span> = drain().into_iter().filter(|s| s.trace_id == id).collect();
        assert_eq!(mine.iter().filter(|s| s.name == "probe").count(), 2);
        assert_eq!(mine.iter().filter(|s| s.name == RT_GET).count(), 2);
    }
}
