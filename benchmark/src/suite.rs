//! `all`: every workload untraced, then every workload traced (which
//! includes the layer probes), each in a fresh process so `rss_mb` is honest
//! and no threads are left over; the detailed results land in one file that
//! `compare` reads.

use std::process::Command;

use crate::gen::DEFAULT_SEED;
use crate::json::Json;
use crate::names::WORKLOADS;
use crate::report::{flag_seconds, flag_u64, out_dir, parse_flags};

pub fn main(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args)?;
    let seed = flag_u64(&flags, "seed", DEFAULT_SEED)?;
    let seconds = flag_seconds(&flags)?;
    let out = flags
        .get("out")
        .map_or_else(|| out_dir().join("results.json"), Into::into);
    let dir = out.parent().map(ToOwned::to_owned).unwrap_or_default();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;

    let mut runs = Vec::new();
    let mut all_correct = true;
    for trace in ["0", "1"] {
        for workload in WORKLOADS {
            let detail = dir.join(format!(".run-{}-{trace}.json", workload.name));
            // `status` waits for the child, so none outlives this command.
            let status = Command::new(&exe)
                .args(["--workload", workload.name, "--trace", trace])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .arg("--out")
                .arg(&detail)
                .status()
                .map_err(|e| format!("running {}: {e}", workload.name))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&detail)
                .map_err(|e| format!("{} (trace {trace}) left no result: {e}", workload.name))?;
            let _ = std::fs::remove_file(&detail);
            runs.push(Json::parse(&text)?);
            println!();
        }
    }
    let results = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(&out, results.encode() + "\n")
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(all_correct)
}
