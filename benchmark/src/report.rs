//! One run of one workload: dispatch, metric assembly, printing and the
//! result line.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::gen::DEFAULT_SEED;
use crate::json::Json;
use crate::load::SLICES;
use crate::names::{self, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{median, spread, Summary};
use crate::trace;
use crate::workloads::{chain, kvs, retwis, Pass};

/// Measured seconds when `--seconds` is not given (`BENCHMARK.json` passes
/// its own `run_seconds`).
pub const DEFAULT_SECONDS: f64 = names::RUN_SECONDS as f64;

/// Shares of a traced run's `--seconds`: an untraced reference window (for
/// `trace.overhead_ratio`), an equally long traced window, and the layer
/// probes.
const REFERENCE_SHARE: f64 = 0.3;
const TRACED_SHARE: f64 = 0.3;
const PROBE_SHARE: f64 = 0.4;

/// Spans written to `trace-<workload>.jsonl` at most (bounds the file).
const TRACE_FILE_SPANS: usize = 200_000;

/// `--key value` pairs.
pub fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

pub fn flag_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => {
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
                None => v.parse(),
            };
            parsed.map_err(|_| format!("--{key}: {v:?} is not an unsigned integer"))
        }
    }
}

pub fn flag_seconds(flags: &HashMap<String, String>) -> Result<f64, String> {
    match flags.get("seconds") {
        None => Ok(DEFAULT_SECONDS),
        Some(v) => match v.parse::<f64>() {
            Ok(s) if s.is_finite() && (0.5..=600.0).contains(&s) => Ok(s),
            _ => Err(format!("--seconds: {v:?} is not a duration in 0.5..=600")),
        },
    }
}

/// Rounds (fresh set-up + one slice) of each window of a traced run.
const TRACED_ROUNDS: usize = 2;

/// Measure `window_s` seconds as `rounds` slices, each on a fresh set-up.
fn dispatch(workload: &str, seed: u64, window_s: f64, rounds: usize, traced: bool) -> Pass {
    let slice = Duration::from_secs_f64(window_s / rounds as f64);
    match workload {
        "chain_inline" => chain::run(false, seed, slice, rounds, traced),
        "chain_modeled" => chain::run(true, seed, slice, rounds, traced),
        "retwis_causal" => retwis::run(seed, slice, rounds, traced),
        "kvs_durable" => kvs::run(seed, slice, rounds, traced),
        other => unreachable!("workload {other:?} was validated"),
    }
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Inter-quartile share of the per-slice (or per-set-up) values.
    pub spread: Option<f64>,
}

/// Everything one run reports.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub input_digest: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The line the acceptance driver reads: exactly these four keys.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let unit = names::unit_of(m.name).expect("listed metric");
            (
                m.name,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .encode()
    }

    /// The detailed record `all` collects and `compare` reads.
    pub fn detail(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let unit = names::unit_of(m.name).expect("listed metric");
            let mut fields = vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::str(unit)),
            ];
            if let Some(s) = m.spread {
                fields.push(("spread".to_string(), Json::Num(s)));
            }
            (m.name, Json::Obj(fields))
        });
        Json::obj([
            ("workload", Json::str(self.workload.as_str())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "input_digest",
                Json::str(format!("{:016x}", self.input_digest)),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }

    fn print(&self) {
        for m in &self.metrics {
            let unit = names::unit_of(m.name).expect("listed metric");
            match m.spread {
                Some(s) => println!(
                    "{:<34} {:>16.4} {:<6} iqr {:.2}%",
                    m.name,
                    m.value,
                    unit,
                    s * 100.0
                ),
                None => println!("{:<34} {:>16.4} {unit}", m.name, m.value),
            }
        }
    }
}

fn summary(name: &'static str, s: Summary) -> Metric {
    Metric {
        name,
        value: s.value,
        spread: Some(s.spread),
    }
}

/// `--trace 0`: the end-to-end metrics from one untraced window.
fn run_untraced(workload: &str, seed: u64, seconds: f64) -> RunResult {
    let pass = dispatch(workload, seed, seconds, SLICES, false);
    let e = &pass.e2e;
    println!(
        "{workload}: {} ops in {:.2} s ({} primary, {} state-mutating), {} set-ups, {} read-backs, input_digest {:016x}",
        e.attempted,
        e.measured_s,
        e.calls,
        e.writes,
        pass.setup_s.len(),
        pass.checks,
        pass.input_digest
    );
    println!(
        "{workload}: per slice ops_s {:.0?}, call_p50_us {:.1?}, stolen {:.3?} ({} set aside), rss_mb {:.0?}, setup_s {:.3?}",
        e.slice_ops_s,
        e.slice_call_p50_us,
        e.slice_steal,
        e.set_aside,
        e.slice_rss_mb,
        pass.setup_s
    );
    let attempted = e.attempted + pass.checks;
    let failed = e.failed + pass.checks_failed;
    let by_name: HashMap<&str, Metric> = [
        Metric {
            name: "setup_s",
            value: median(&pass.setup_s),
            spread: Some(spread(&pass.setup_s)),
        },
        summary("ops_s", e.ops_s),
        summary("call_p50_us", e.call_p50_us),
        summary("call_p95_us", e.call_p95_us),
        summary("write_p50_us", e.write_p50_us),
        summary("write_p95_us", e.write_p95_us),
        summary("cpu_us_per_op", e.cpu_us_per_op),
        Metric {
            name: "rss_mb",
            value: e.rss_mb,
            spread: None,
        },
        Metric {
            name: "success_ratio",
            value: 1.0 - failed as f64 / attempted.max(1) as f64,
            spread: None,
        },
    ]
    .into_iter()
    .map(|m| (m.name, m))
    .collect();
    RunResult {
        workload: workload.to_string(),
        seed,
        seconds,
        traced: false,
        attempted,
        failed,
        input_digest: pass.input_digest,
        metrics: in_listed_order(false, by_name),
    }
}

/// `--trace 1`: the per-layer metrics — spans from a traced window, counter
/// deltas across it, and the layer probes.
fn run_traced(workload: &str, seed: u64, seconds: f64) -> RunResult {
    let reference = dispatch(
        workload,
        seed,
        seconds * REFERENCE_SHARE,
        TRACED_ROUNDS,
        false,
    );
    let traced = dispatch(workload, seed, seconds * TRACED_SHARE, TRACED_ROUNDS, true);
    let spans = trace::drain();
    let rep = trace::analyze(&spans);
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    match trace::write_jsonl(&path, &spans, TRACE_FILE_SPANS) {
        Ok(()) => println!(
            "{workload}: {} spans in {} traces ({} with body spans); first {} written to {}",
            spans.len(),
            rep.traces,
            rep.complete,
            spans.len().min(TRACE_FILE_SPANS),
            path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    let c = &traced.counters;
    let ops = traced.e2e.attempted.max(1) as f64;
    let mut values: HashMap<&'static str, f64> = probes::run_all(seconds * PROBE_SHARE);
    // `kvs_durable` calls no function: nothing lies between its root spans.
    let has_bodies = workload != "kvs_durable";
    values.extend([
        ("core.client.call_us", rep.call_p50_us),
        ("core.client.call_p99_us", rep.call_p99_us),
        // What the software, not the injected model, adds to the median.
        (
            "core.client.overhead_p50_us",
            rep.call_p50_us - traced.model_floor_us,
        ),
        ("core.scheduler.dispatch_us", rep.dispatch_us),
        ("core.executor.hop_us", rep.hop_us),
        ("core.executor.reply_us", rep.reply_us),
        ("core.executor.fn_self_us", rep.fn_self_us),
        ("core.executor.utilization", c.executor_utilization),
        ("core.cache.rt_get_us", rep.rt_get_us),
        ("core.cache.rt_get_p95_us", rep.rt_get_p95_us),
        ("core.cache.rt_put_us", rep.rt_put_us),
        ("core.cache.rt_gets_per_call", rep.rt_gets_per_call),
        (
            "core.cache.fill_ratio",
            if rep.rt_gets == 0 {
                0.0
            } else {
                c.anna_gets as f64 / rep.rt_gets as f64
            },
        ),
        ("core.consistency.anomalies", c.anomalies as f64),
        ("runtime.polls_per_op", c.polls as f64 / ops),
        ("runtime.steals_per_kop", c.steals as f64 * 1000.0 / ops),
        (
            "runtime.timer_fires_per_s",
            c.timer_fires as f64 / traced.e2e.measured_s,
        ),
        ("runtime.spares_spawned", c.spares_spawned as f64),
        ("runtime.max_mailbox_depth", c.max_mailbox_depth as f64),
        ("anna.client.write_p99_us", rep.write_p99_us),
        ("anna.node.gets_per_op", c.anna_gets as f64 / ops),
        ("anna.node.puts_per_op", c.anna_puts as f64 / ops),
        // Clients that read Anna directly report their slowest read; on the
        // DAG workloads the slowest rt.get (a fill) stands in for it.
        ("anna.node.get_max_ms", c.get_max_ms.max(rep.rt_get_max_ms)),
        ("anna.store.disk_key_share", c.disk_key_share),
        ("anna.lsm.space_amp", c.space_amp),
        ("anna.lsm.sstables_end", c.sstables_end),
        ("anna.lsm.recovery_ms", c.recovery_ms),
        // A workload without function bodies has nothing between its root
        // spans to attribute: its closure is the roots themselves.
        (
            "trace.closure_ratio",
            if has_bodies { rep.closure_ratio } else { 1.0 },
        ),
        (
            "trace.overhead_ratio",
            traced.e2e.ops_s.value / reference.e2e.ops_s.value,
        ),
    ]);

    let attempted =
        reference.e2e.attempted + reference.checks + traced.e2e.attempted + traced.checks;
    let failed =
        reference.e2e.failed + reference.checks_failed + traced.e2e.failed + traced.checks_failed;
    let by_name = values
        .into_iter()
        .map(|(name, value)| {
            (
                name,
                Metric {
                    name,
                    value,
                    spread: None,
                },
            )
        })
        .collect();
    RunResult {
        workload: workload.to_string(),
        seed,
        seconds,
        traced: true,
        attempted,
        failed,
        input_digest: traced.input_digest,
        metrics: in_listed_order(true, by_name),
    }
}

/// Exactly the listed metrics, in listed order; a missing or an unlisted one
/// is a bug.
fn in_listed_order(traced: bool, mut by_name: HashMap<&'static str, Metric>) -> Vec<Metric> {
    let listed: Vec<&'static str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let metrics = listed
        .into_iter()
        .map(|name| {
            by_name
                .remove(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
        })
        .collect();
    assert!(
        by_name.is_empty(),
        "unlisted metrics measured: {:?}",
        by_name.keys()
    );
    metrics
}

/// Where trace and result files go: `benchmark/out` from the repo root,
/// `out` from inside `benchmark/`.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// `--workload W --seed N --seconds S --trace 0|1 [--out FILE]`.
pub fn run_main(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args)?;
    let workload = flags
        .get("workload")
        .ok_or("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")?;
    if !names::is_workload(workload) {
        let known: Vec<&str> = names::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; known: {known:?}"));
    }
    let seed = flag_u64(&flags, "seed", DEFAULT_SEED)?;
    let seconds = flag_seconds(&flags)?;
    let traced = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    println!(
        "{workload}: seed {seed:#x}, {seconds} s, trace {}, {} cores",
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = if traced {
        run_traced(workload, seed, seconds)
    } else {
        run_untraced(workload, seed, seconds)
    };
    result.print();
    if let Some(path) = flags.get("out") {
        std::fs::write(path, result.detail().encode() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", result.result_line());
    Ok(result.correct())
}

/// `probes [--seconds S]`: the layer probes on their own.
pub fn probes_main(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args)?;
    let seconds = flag_seconds(&flags)?;
    let values = probes::run_all(seconds);
    for def in PER_LAYER {
        if let Some(v) = values.get(def.name) {
            println!("{:<34} {:>16.4} {}", def.name, v, def.unit);
        }
    }
    Ok(values.values().all(|v| v.is_finite()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short traced passes of the two DAG workloads: every call checked, the
    /// spans close over the roots, and the workloads separate the cache layer
    /// as designed.
    #[test]
    fn short_traced_passes_attribute_every_layer() {
        let _serial = trace::TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let _ = trace::drain();

        let chain = dispatch("chain_inline", 7, 0.6, 1, true);
        let rep = trace::analyze(&trace::drain());
        assert!(chain.e2e.attempted > 100 && chain.e2e.failed == 0);
        assert!(chain.e2e.calls > 0 && chain.e2e.writes > 0);
        assert!(rep.complete > 100 && rep.complete == rep.traces);
        assert!(
            (0.95..=1.05).contains(&rep.closure_ratio),
            "{}",
            rep.closure_ratio
        );
        assert_eq!(rep.rt_gets_per_call, 0.0);
        assert!(rep.dispatch_us > 0.0 && rep.hop_us > 0.0 && rep.reply_us > 0.0);
        assert_eq!(chain.model_floor_us, 0.0);

        let retwis = dispatch("retwis_causal", 7, 0.6, 1, true);
        let rep = trace::analyze(&trace::drain());
        assert!(retwis.e2e.attempted > 100 && retwis.e2e.failed == 0);
        assert!(retwis.checks > 0 && retwis.checks_failed == 0);
        assert!(
            (0.95..=1.05).contains(&rep.closure_ratio),
            "{}",
            rep.closure_ratio
        );
        assert!(rep.rt_gets_per_call > 20.0, "{}", rep.rt_gets_per_call);
        assert!(rep.rt_get_us > 0.0 && rep.rt_put_us > 0.0);
    }

    /// A short pass of the storage workload: tagged payloads, data beyond the
    /// memory tier, and every acknowledged key back after the power loss.
    #[test]
    fn short_kvs_pass_survives_the_power_loss() {
        let pass = dispatch("kvs_durable", 7, 0.5, 1, false);
        assert!(pass.e2e.calls > 100 && pass.e2e.writes > 10);
        assert_eq!(pass.e2e.failed, 0);
        assert!(pass.checks > 100 && pass.checks_failed == 0);
        assert!(pass.counters.disk_key_share > 0.5);
        assert!(pass.counters.sstables_end >= 1.0);
        assert!(pass.counters.space_amp >= 1.0);
        assert!(pass.counters.recovery_ms > 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            workload: "chain_inline".into(),
            seed: 1,
            seconds: 1.0,
            traced: false,
            attempted: 10,
            failed: 0,
            input_digest: 0xABCD,
            metrics: vec![Metric {
                name: "ops_s",
                value: 1234.5,
                spread: Some(0.01),
            }],
        };
        let line = Json::parse(&result.result_line()).unwrap();
        let Json::Obj(pairs) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metric = line.get("metrics").unwrap().get("ops_s").unwrap();
        assert_eq!(metric.get("value").unwrap().as_f64(), Some(1234.5));
        assert_eq!(metric.get("unit").unwrap().as_str(), Some("ops/s"));
        assert!(metric.get("spread").is_none());
        // A failed operation turns `correct` off.
        let failed = RunResult {
            failed: 1,
            ..result
        };
        assert!(!failed.correct());
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let flags = parse_flags(&args(
            "--workload kvs_durable --seed 0xC10D_B075 --seconds 2.5",
        ))
        .unwrap();
        assert_eq!(flag_u64(&flags, "seed", 0).unwrap(), 0xC10D_B075);
        assert_eq!(flag_seconds(&flags).unwrap(), 2.5);
        assert!(parse_flags(&args("--workload")).is_err());
        assert!(parse_flags(&args("stray")).is_err());
        assert!(flag_seconds(&parse_flags(&args("--seconds -1")).unwrap()).is_err());
        assert!(flag_u64(&parse_flags(&args("--seed x")).unwrap(), "seed", 0).is_err());
    }
}
