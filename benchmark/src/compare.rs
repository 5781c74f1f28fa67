//! `compare A.json B.json`: apply every end-to-end metric's direction and
//! bound to two result sets (`all` writes them), one row per workload x
//! metric. A pair whose spread exceeds its bound is *unresolved*, never
//! "unchanged".

use crate::json::Json;
use crate::names::{Better, EndToEndDef, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Improved => "improved",
            Self::Regressed => "REGRESSED",
            Self::Unresolved => "UNRESOLVED",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(def: &EndToEndDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(def: &EndToEndDef, a: f64, b: f64, spread: f64) -> Verdict {
    let worse = worse_by(def, a, b);
    if spread > def.bound {
        Verdict::Unresolved
    } else if worse > def.bound {
        Verdict::Regressed
    } else if worse < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn untraced_runs(results: &Json) -> Vec<&Json> {
    results
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|run| run.get("trace") == Some(&Json::Bool(false)))
        .collect()
}

fn metric(run: &Json, name: &str) -> Option<(f64, f64)> {
    let m = run.get("metrics")?.get(name)?;
    let spread = m.get("spread").and_then(Json::as_f64).unwrap_or(0.0);
    Some((m.get("value")?.as_f64()?, spread))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    let mut clean = true;
    let mut rows = 0;
    for run_a in untraced_runs(&a) {
        let workload = run_a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(run_b) = untraced_runs(&b)
            .into_iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        else {
            println!("{workload:<14} missing from {b_path}");
            clean = false;
            continue;
        };
        for def in END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) =
                (metric(run_a, def.name), metric(run_b, def.name))
            else {
                println!("{workload:<14} {:<16} missing", def.name);
                clean = false;
                continue;
            };
            let spread = sa.max(sb);
            let verdict = judge(def, va, vb, spread);
            clean &= matches!(verdict, Verdict::Ok | Verdict::Improved);
            rows += 1;
            println!(
                "{workload:<14} {:<16} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}% {:>7.2}%  {}",
                def.name,
                worse_by(def, va, vb) * 100.0,
                def.bound * 100.0,
                spread * 100.0,
                verdict.label()
            );
        }
    }
    if rows == 0 {
        return Err("no untraced runs to compare".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::end_to_end;

    const LOWER_10: EndToEndDef = EndToEndDef {
        name: "latency",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER_10: EndToEndDef = EndToEndDef {
        name: "throughput",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn direction_and_bound_are_applied() {
        assert_eq!(judge(&HIGHER_10, 1000.0, 950.0, 0.02), Verdict::Ok);
        assert_eq!(judge(&HIGHER_10, 1000.0, 880.0, 0.02), Verdict::Regressed);
        assert_eq!(judge(&HIGHER_10, 1000.0, 1200.0, 0.02), Verdict::Improved);
        assert_eq!(judge(&LOWER_10, 40.0, 43.0, 0.01), Verdict::Ok);
        assert_eq!(judge(&LOWER_10, 40.0, 46.0, 0.01), Verdict::Regressed);
        assert_eq!(judge(&LOWER_10, 40.0, 30.0, 0.01), Verdict::Improved);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_not_unchanged() {
        assert_eq!(judge(&LOWER_10, 40.0, 40.0, 0.15), Verdict::Unresolved);
        assert_eq!(judge(&LOWER_10, 40.0, 60.0, 0.15), Verdict::Unresolved);
    }

    #[test]
    fn success_ratio_tolerates_no_new_failures() {
        let ok = end_to_end("success_ratio").unwrap();
        assert_eq!(judge(ok, 1.0, 1.0, 0.0), Verdict::Ok);
        assert_eq!(judge(ok, 1.0, 0.9995, 0.0), Verdict::Ok);
        assert_eq!(judge(ok, 1.0, 0.998, 0.0), Verdict::Regressed);
    }
}
