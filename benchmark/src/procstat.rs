//! Process-level accounting read from `/proc/self`: CPU time and peak RSS.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process — the single clock every
/// sample and span is stamped with (monotonic, comparable across threads).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// User + system CPU seconds consumed by the whole process so far.
///
/// `/proc/self/stat` reports clock ticks; Linux fixes the userspace tick
/// (`USER_HZ`) at 100 on every architecture this runs on, so a slice of a
/// few seconds resolves CPU time to well under 1 %.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' the next token is field 3 (state); utime and stime are
    // fields 14 and 15.
    let tick = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<f64>().ok());
    match (tick(14), tick(15)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Machine-wide CPU ticks from the first line of `/proc/stat`: (all, stolen).
/// Stolen ticks are time the hypervisor ran something else while a virtual
/// CPU had work — the one source of noise a guest can see and attribute.
pub fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest times are
    // already inside user/nice).
    let all = fields.iter().take(8).sum();
    (all, fields.get(7).copied().unwrap_or(0))
}

/// Current resident set size (`VmRSS`) in MiB.
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let t0 = now_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(now_ns() > t0);
        assert!(cpu_seconds() >= 0.0);
        assert!(rss_mib() > 1.0);
    }
}
