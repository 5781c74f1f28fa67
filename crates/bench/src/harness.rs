//! Shared benchmark plumbing: profiles, latency statistics, table printing.

use std::time::Duration;

use cloudburst::cluster::CloudburstConfig;
use cloudburst::types::ConsistencyLevel;
use cloudburst_anna::node::NodeConfig;
use cloudburst_anna::AnnaConfig;
use cloudburst_net::{LatencyModel, NetConfig, TimeScale};

/// Experiment sizing. `quick` keeps every figure under a few seconds (used
/// by `cargo bench`); `standard` moves toward the paper's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Wall-clock compression (simulated seconds per paper second).
    pub scale: f64,
    /// Serial requests per system in Figure 1 (paper: 1000).
    pub fig1_iters: usize,
    /// Requests per size/system in Figure 5 (paper: 12 clients × 3000).
    pub fig5_iters: usize,
    /// Include the 80 MB point of Figure 5.
    pub fig5_full_sizes: bool,
    /// Aggregation trials per system in Figure 6.
    pub fig6_trials: usize,
    /// Load-phase duration of Figure 7, in wall seconds.
    pub fig7_load_secs: f64,
    /// Distinct keys in the consistency experiments (paper: 1 M).
    pub fig8_keys: usize,
    /// Random DAGs (paper: 250).
    pub fig8_dags: usize,
    /// DAG executions per consistency level (paper: 8 × 500).
    pub fig8_calls: usize,
    /// DAG executions for Table 2 (paper: 4000).
    pub table2_calls: usize,
    /// Requests per system in Figure 9.
    pub fig9_iters: usize,
    /// VM counts swept in Figures 10 and 12.
    pub sweep_vms: &'static [usize],
    /// Wall-clock measurement window per sweep point, seconds.
    pub sweep_secs: f64,
    /// Retwis users / follows / seeded tweets (paper: 1000 / 50 / 5000).
    pub retwis_users: usize,
    /// Followees per user.
    pub retwis_follows: usize,
    /// Pre-seeded tweets.
    pub retwis_tweets: usize,
    /// Retwis requests per client in Figure 11 (paper: 10 × 5000).
    pub fig11_requests: usize,
    /// Retwis client threads in Figure 11.
    pub fig11_clients: usize,
}

impl Profile {
    /// Fast profile for CI / `cargo bench`.
    pub fn quick() -> Self {
        Self {
            scale: 0.1,
            fig1_iters: 60,
            fig5_iters: 12,
            fig5_full_sizes: false,
            fig6_trials: 3,
            fig7_load_secs: 4.0,
            fig8_keys: 1_000,
            fig8_dags: 40,
            fig8_calls: 120,
            table2_calls: 300,
            fig9_iters: 15,
            sweep_vms: &[1, 2, 4],
            sweep_secs: 1.5,
            retwis_users: 100,
            retwis_follows: 10,
            retwis_tweets: 300,
            fig11_requests: 80,
            fig11_clients: 4,
        }
    }

    /// Larger profile, closer to the paper's parameters (minutes to run).
    pub fn standard() -> Self {
        Self {
            scale: 0.1,
            fig1_iters: 300,
            fig5_iters: 40,
            fig5_full_sizes: true,
            fig6_trials: 7,
            fig7_load_secs: 8.0,
            fig8_keys: 10_000,
            fig8_dags: 250,
            fig8_calls: 500,
            table2_calls: 4_000,
            fig9_iters: 40,
            sweep_vms: &[1, 2, 4, 8],
            sweep_secs: 3.0,
            retwis_users: 1_000,
            retwis_follows: 50,
            retwis_tweets: 5_000,
            fig11_requests: 400,
            fig11_clients: 10,
        }
    }

    /// Profile selected by the `CB_PROFILE` environment variable
    /// (`paper`/`standard` → standard, anything else → quick).
    pub fn from_env() -> Self {
        match std::env::var("CB_PROFILE").as_deref() {
            Ok("paper") | Ok("standard") => Self::standard(),
            _ => Self::quick(),
        }
    }

    /// The time scale object.
    pub fn time_scale(&self) -> TimeScale {
        TimeScale::new(self.scale)
    }

    /// The intra-AZ network used by all benchmark clusters.
    pub fn net_config(&self, seed: u64) -> NetConfig {
        NetConfig {
            time_scale: self.time_scale(),
            default_latency: LatencyModel::LogNormal {
                median_ms: 0.2,
                p99_ms: 1.0,
            },
            seed,
            ..NetConfig::default()
        }
    }

    /// A Cloudburst cluster configuration for benchmarks.
    pub fn cb_config(&self, level: ConsistencyLevel, vms: usize, seed: u64) -> CloudburstConfig {
        CloudburstConfig {
            net: self.net_config(seed),
            anna: AnnaConfig {
                nodes: 3,
                replication: 1,
                durability: cloudburst_anna::Durability::Off,
                node: NodeConfig::default(),
                ..AnnaConfig::default()
            },
            vms,
            executors_per_vm: 3,
            schedulers: 1,
            level,
            ..CloudburstConfig::default()
        }
    }
}

/// Latency summary in paper milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Median latency.
    pub median_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Samples summarized.
    pub samples: usize,
}

impl LatencyStats {
    /// Summarize wall-clock samples, converting back to paper milliseconds.
    pub fn from_durations(samples: &[Duration], scale: TimeScale) -> Self {
        let mut ms: Vec<f64> = samples.iter().map(|d| scale.to_paper_ms(*d)).collect();
        ms.sort_by(f64::total_cmp);
        Self {
            median_ms: percentile_sorted(&ms, 0.50),
            p95_ms: percentile_sorted(&ms, 0.95),
            p99_ms: percentile_sorted(&ms, 0.99),
            samples: ms.len(),
        }
    }
}

/// Percentile of a sorted slice (nearest-rank with linear clamp).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Percentile of an unsorted `usize` sample (used for index-overhead stats).
pub fn percentile_usize(values: &mut [usize], p: f64) -> usize {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let idx = ((values.len() as f64 - 1.0) * p).round() as usize;
    values[idx.min(values.len() - 1)]
}

/// Print a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// One row of a ratio gate: a baseline/optimized pair and the ratio
/// `scripts/check_bench.sh` holds against the suite's committed JSON.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Stable bench name (the gate script's registry keys on it).
    pub name: &'static str,
    /// Human-readable description of the measured path.
    pub detail: String,
    /// Baseline side — ops/sec unless `detail` names another unit.
    pub baseline: f64,
    /// Optimized side, same unit as `baseline`.
    pub optimized: f64,
    /// The gated ratio: `optimized / baseline` for throughput pairs
    /// ([`GateRow::throughput`]); lower-is-better pairs and absolute
    /// fractions set it explicitly.
    pub speedup: f64,
    /// Absolute floor the gate enforces regardless of tolerance, if any.
    pub min_speedup: Option<f64>,
}

impl GateRow {
    /// A higher-is-better pair gated on `optimized / baseline`.
    pub fn throughput(
        name: &'static str,
        detail: String,
        baseline: f64,
        optimized: f64,
        min_speedup: Option<f64>,
    ) -> Self {
        Self {
            name,
            detail,
            baseline,
            optimized,
            speedup: if baseline > 0.0 {
                optimized / baseline
            } else {
                0.0
            },
            min_speedup,
        }
    }
}

/// Geometric mean of the rows' ratios (the aggregate a suite gates on).
pub fn geomean_speedup(rows: &[GateRow]) -> f64 {
    (rows.iter().map(|r| r.speedup.ln()).sum::<f64>() / rows.len() as f64).exp()
}

/// Render a suite as the gate JSON `scripts/check_bench.sh` reads:
/// `{"meta": {..}, "benches": [{name, detail, baseline_ops_per_sec,
/// optimized_ops_per_sec, speedup[, min_speedup]}]}`. `meta` values are
/// emitted verbatim (numbers), row details as strings.
pub fn gate_json(meta: &[(&str, String)], rows: &[GateRow]) -> String {
    // Whole numbers for throughputs, four decimals for fractions and ratios.
    let num = |x: f64| {
        if x.abs() >= 100.0 {
            format!("{x:.0}")
        } else {
            format!("{x:.4}")
        }
    };
    let meta: Vec<String> = meta.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let floor = r
                .min_speedup
                .map(|f| format!(", \"min_speedup\": {f:.2}"))
                .unwrap_or_default();
            format!(
                "    {{\"name\": \"{}\", \"detail\": \"{}\", \"baseline_ops_per_sec\": {}, \
                 \"optimized_ops_per_sec\": {}, \"speedup\": {:.4}{floor}}}",
                r.name,
                r.detail,
                num(r.baseline),
                num(r.optimized),
                r.speedup,
            )
        })
        .collect();
    format!(
        "{{\n  \"meta\": {{{}}},\n  \"benches\": [\n{}\n  ]\n}}\n",
        meta.join(", "),
        rows.join(",\n")
    )
}

/// Print a suite's gate rows as an aligned table, each followed by its
/// detail line.
pub fn print_rows(rows: &[GateRow]) {
    println!(
        "{:<26} {:>14} {:>14} {:>9} {:>7}",
        "bench", "baseline", "optimized", "speedup", "floor"
    );
    for r in rows {
        let floor = r
            .min_speedup
            .map_or_else(|| "-".to_string(), |f| format!("{f:.2}x"));
        println!(
            "{:<26} {:>14.2} {:>14.2} {:>8.2}x {:>7}",
            r.name, r.baseline, r.optimized, r.speedup, floor
        );
        println!("  {}", r.detail);
    }
}

/// Write a suite's gate JSON to `CB_BENCH_OUT`, or `default_path` when the
/// variable is unset (the committed file at the repo root).
pub fn write_gate_json(default_path: &str, meta: &[(&str, String)], rows: &[GateRow]) {
    let out = std::env::var("CB_BENCH_OUT").unwrap_or_else(|_| default_path.into());
    std::fs::write(&out, gate_json(meta, rows)).expect("write benchmark JSON");
    println!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let sorted: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 0.5), 50.0);
        assert_eq!(percentile_sorted(&sorted, 0.99), 98.0);
        assert!(percentile_sorted(&[], 0.5).is_nan());
        let mut v = vec![5usize, 1, 9, 3];
        assert_eq!(percentile_usize(&mut v, 0.5), 5);
        assert_eq!(percentile_usize(&mut [], 0.5), 0);
    }

    #[test]
    fn stats_convert_to_paper_ms() {
        let scale = TimeScale::new(0.1);
        // 10 samples of 1 ms wall clock = 10 paper ms each.
        let samples = vec![Duration::from_millis(1); 10];
        let stats = LatencyStats::from_durations(&samples, scale);
        assert!((stats.median_ms - 10.0).abs() < 1e-6);
        assert_eq!(stats.samples, 10);
    }

    #[test]
    fn gate_json_carries_floors_only_where_set() {
        let rows = vec![
            GateRow::throughput("a", "four times".into(), 100.0, 400.0, None),
            GateRow::throughput("b", "flat".into(), 100.0, 100.0, Some(1.5)),
        ];
        assert!((geomean_speedup(&rows) - 2.0).abs() < 1e-9);
        let json = gate_json(&[("nodes", 4.to_string())], &rows);
        assert!(json.contains("\"meta\": {\"nodes\": 4}"));
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("\"speedup\": 4.0000}"));
        assert!(json.contains("\"speedup\": 1.0000, \"min_speedup\": 1.50}"));
        assert_eq!(json.matches("min_speedup").count(), 1);
        // A dead baseline gates as 0x instead of emitting a non-JSON `inf`.
        assert_eq!(
            GateRow::throughput("c", String::new(), 0.0, 9.0, None).speedup,
            0.0
        );
    }

    #[test]
    fn profiles_construct() {
        let q = Profile::quick();
        let s = Profile::standard();
        assert!(s.fig8_calls > q.fig8_calls);
        let _ = q.net_config(1);
        let _ = q.cb_config(ConsistencyLevel::Lww, 2, 1);
    }
}
