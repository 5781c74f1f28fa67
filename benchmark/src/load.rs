//! The closed-loop load generator and the end-to-end summary of a window.
//!
//! Each client thread issues its next operation only after the previous one
//! completed (the APIs under test are blocking calls, so callers that wait
//! for a reply are the real usage). A run measures equal slices, **each on a
//! freshly set-up deployment** after a short discarded ramp: which executors
//! a function lands on, how keys hash and where threads settle differ from
//! one deployment to the next, and only slices that sample those choices
//! independently let the median over slices average them out. Every
//! end-to-end metric is computed per slice and reported as that median.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::procstat::{cpu_seconds, machine_ticks, now_ns, rss_mib};
use crate::stats::{percentile_sorted, summarize, Summary};

/// Closed-loop client threads per workload (= cores of the sizing box).
pub const CLIENTS: usize = 2;
/// Slices (and set-ups) per untraced run; the slice length scales with
/// `--seconds`.
pub const SLICES: usize = 5;
/// Discarded lead-in so thread start-up is not measured.
pub const RAMP: Duration = Duration::from_millis(500);

/// Operation class: the primary op or the state-mutating op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Call,
    Write,
}

/// What one operation did.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub class: OpClass,
    /// Completed without error or timeout *and* returned the right answer.
    pub ok: bool,
}

/// One closed-loop client: owns its handles, its seeded generator and its
/// checks; `step` issues exactly one operation and waits for it.
pub trait ClientLoop: Send {
    fn step(&mut self) -> Outcome;
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    end_ns: u64,
    lat_ns: u32,
    class: OpClass,
    ok: bool,
}

/// The raw record of one measured slice.
pub struct Slice {
    samples: Vec<Sample>,
    /// Start and end of the slice on the `now_ns` clock.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process CPU seconds consumed between the two.
    cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub steal: f64,
    /// Resident set of the process at the slice's end, MiB.
    rss_mib: f64,
}

impl Slice {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Which end of a slice a boundary callback runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    Start,
    End,
}

/// Drive `clients` for the ramp plus one slice of length `slice`.
/// `at_boundary` runs on the coordinating thread at the slice's two
/// boundaries, for counter snapshots. Returns the clients, so their
/// generators carry on into the next round and post-run checks can read what
/// they recorded.
pub fn drive<C: ClientLoop>(
    mut clients: Vec<C>,
    slice: Duration,
    mut at_boundary: impl FnMut(Boundary),
) -> (Vec<C>, Slice) {
    let stop = AtomicBool::new(false);
    let expected = 1 << 18;
    let (mut start_ns, mut end_ns, mut cpu_s, mut steal, mut rss) = (0, 0, 0.0, 0.0, 0.0);
    let samples: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut samples: Vec<Sample> = Vec::with_capacity(expected);
                    while !stop.load(Ordering::Relaxed) {
                        let start = now_ns();
                        let outcome = client.step();
                        let end = now_ns();
                        samples.push(Sample {
                            end_ns: end,
                            lat_ns: u32::try_from(end - start).unwrap_or(u32::MAX),
                            class: outcome.class,
                            ok: outcome.ok,
                        });
                    }
                    samples
                })
            })
            .collect();
        std::thread::sleep(RAMP);
        start_ns = now_ns();
        let cpu_start = cpu_seconds();
        let (all_start, stolen_start) = machine_ticks();
        at_boundary(Boundary::Start);
        std::thread::sleep(slice);
        end_ns = now_ns();
        cpu_s = cpu_seconds() - cpu_start;
        let (all_end, stolen_end) = machine_ticks();
        steal = (stolen_end - stolen_start) as f64 / (all_end - all_start).max(1) as f64;
        rss = rss_mib();
        at_boundary(Boundary::End);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    // The slice keeps only the operations that completed inside it.
    let samples = samples
        .into_iter()
        .flatten()
        .filter(|s| s.end_ns >= start_ns && s.end_ns < end_ns)
        .collect();
    (
        clients,
        Slice {
            samples,
            start_ns,
            end_ns,
            cpu_s,
            steal,
            rss_mib: rss,
        },
    )
}

/// End-to-end numbers of one run (median over the counted slices, with
/// spread).
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub ops_s: Summary,
    pub call_p50_us: Summary,
    pub call_p95_us: Summary,
    pub write_p50_us: Summary,
    pub write_p95_us: Summary,
    pub cpu_us_per_op: Summary,
    /// Resident set at the end of the first slice — the only one measured in
    /// a process that has not yet held (and half-freed) an earlier deployment.
    pub rss_mb: f64,
    /// Operations completed inside the slices / of those, not ok.
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts per class over all slices (stated beside the percentiles).
    pub calls: u64,
    pub writes: u64,
    /// Slowest primary operation inside the slices.
    pub call_max_us: f64,
    /// Throughput and primary-op median of each slice, in order (printed so
    /// a drifting or two-moded run shows).
    pub slice_ops_s: Vec<f64>,
    pub slice_call_p50_us: Vec<f64>,
    pub slice_steal: Vec<f64>,
    pub slice_rss_mb: Vec<f64>,
    /// Slices left out of the medians because too much CPU time was stolen.
    pub set_aside: usize,
    /// Sum of the slices' lengths, seconds.
    pub measured_s: f64,
}

/// A slice during which the hypervisor stole more than this share of the
/// machine's CPU time was measured on a machine that was partly elsewhere.
pub const STEAL_LIMIT: f64 = 0.02;
/// At least this many slices always count towards the medians.
const MIN_COUNTED_SLICES: usize = 3;

/// Whether each slice counts towards the medians. Slices within
/// [`STEAL_LIMIT`] count; if fewer than [`MIN_COUNTED_SLICES`] are, the
/// least disturbed ones make up the number. Failures are counted over every
/// slice regardless.
fn counted(slices: &[Slice]) -> Vec<bool> {
    let mut by_steal: Vec<usize> = (0..slices.len()).collect();
    by_steal.sort_by(|&a, &b| slices[a].steal.total_cmp(&slices[b].steal));
    let mut counted = vec![false; slices.len()];
    for (rank, &i) in by_steal.iter().enumerate() {
        counted[i] = rank < MIN_COUNTED_SLICES || slices[i].steal <= STEAL_LIMIT;
    }
    counted
}

pub fn summarize_slices(slices: &[Slice]) -> EndToEnd {
    let counted = counted(slices);
    let mut ops_s = Vec::with_capacity(slices.len());
    let mut cpu = Vec::with_capacity(slices.len());
    let (mut c50, mut c95, mut w50, mut w95) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed, mut calls, mut writes) = (0u64, 0u64, 0u64, 0u64);
    let mut call_max_us = 0.0f64;
    let mut slice_ops_s = Vec::with_capacity(slices.len());
    let mut slice_call_p50_us = Vec::with_capacity(slices.len());
    for (slice, &counts) in slices.iter().zip(&counted) {
        let mut call_us = Vec::new();
        let mut write_us = Vec::new();
        let mut n = 0u64;
        for s in &slice.samples {
            n += 1;
            if !s.ok {
                failed += 1;
            }
            let us = f64::from(s.lat_ns) / 1000.0;
            match s.class {
                OpClass::Call => call_us.push(us),
                OpClass::Write => write_us.push(us),
            }
        }
        attempted += n;
        calls += call_us.len() as u64;
        writes += write_us.len() as u64;
        call_us.sort_by(f64::total_cmp);
        write_us.sort_by(f64::total_cmp);
        call_max_us = call_max_us.max(call_us.last().copied().unwrap_or(0.0));
        slice_ops_s.push(n as f64 / slice.seconds());
        slice_call_p50_us.push(percentile_sorted(&call_us, 0.50));
        if !counts {
            continue;
        }
        ops_s.push(n as f64 / slice.seconds());
        cpu.push(slice.cpu_s * 1e6 / n.max(1) as f64);
        c50.push(percentile_sorted(&call_us, 0.50));
        c95.push(percentile_sorted(&call_us, 0.95));
        w50.push(percentile_sorted(&write_us, 0.50));
        w95.push(percentile_sorted(&write_us, 0.95));
    }
    EndToEnd {
        ops_s: summarize(&ops_s),
        call_p50_us: summarize(&c50),
        call_p95_us: summarize(&c95),
        write_p50_us: summarize(&w50),
        write_p95_us: summarize(&w95),
        cpu_us_per_op: summarize(&cpu),
        rss_mb: slices.first().map_or(f64::NAN, |s| s.rss_mib),
        attempted,
        failed,
        calls,
        writes,
        call_max_us,
        slice_ops_s,
        slice_call_p50_us,
        slice_steal: slices.iter().map(|s| s.steal).collect(),
        slice_rss_mb: slices.iter().map(|s| s.rss_mib).collect(),
        set_aside: counted.iter().filter(|&&c| !c).count(),
        measured_s: slices.iter().map(Slice::seconds).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(u32);
    impl ClientLoop for Fixed {
        fn step(&mut self) -> Outcome {
            std::thread::sleep(Duration::from_micros(200));
            self.0 += 1;
            Outcome {
                class: if self.0.is_multiple_of(4) {
                    OpClass::Write
                } else {
                    OpClass::Call
                },
                ok: true,
            }
        }
    }

    #[test]
    fn disturbed_slices_are_set_aside_but_three_always_count() {
        let slice = |steal: f64, lat_us: u32| Slice {
            samples: (0..100)
                .map(|i| Sample {
                    end_ns: i,
                    lat_ns: lat_us * 1000,
                    class: OpClass::Call,
                    ok: true,
                })
                .collect(),
            start_ns: 0,
            end_ns: 1_000_000_000,
            cpu_s: 0.5,
            steal,
            rss_mib: 100.0,
        };
        // Two disturbed slices out of five: the median is over the clean three.
        let e = summarize_slices(&[
            slice(0.001, 10),
            slice(0.09, 50),
            slice(0.002, 12),
            slice(0.05, 60),
            slice(0.0, 11),
        ]);
        assert_eq!(e.set_aside, 2);
        assert_eq!(e.call_p50_us.value, 11.0);
        assert_eq!(e.attempted, 500);
        assert_eq!(e.slice_ops_s.len(), 5);
        // Four disturbed: the three least disturbed slices still count.
        let e = summarize_slices(&[
            slice(0.04, 10),
            slice(0.09, 50),
            slice(0.03, 12),
            slice(0.05, 60),
            slice(0.0, 11),
        ]);
        assert_eq!(e.set_aside, 2);
        assert_eq!(e.call_p50_us.value, 11.0);
        // Fewer slices than the minimum (a traced window has two): all count.
        let e = summarize_slices(&[slice(0.5, 10), slice(0.4, 20)]);
        assert_eq!(e.set_aside, 0);
    }

    #[test]
    fn slices_bucket_their_samples_and_carry_clients_over() {
        let mut clients = vec![Fixed(0), Fixed(0)];
        let mut slices = Vec::new();
        let mut boundaries = 0;
        for _ in 0..3 {
            let (back, slice) = drive(clients, Duration::from_millis(40), |_| boundaries += 1);
            clients = back;
            slices.push(slice);
        }
        assert_eq!(boundaries, 6);
        let e = summarize_slices(&slices);
        assert_eq!(e.slice_ops_s.len(), 3);
        assert_eq!(e.failed, 0);
        assert_eq!(e.attempted, e.calls + e.writes);
        // The clients kept counting across slices; the ramps are not measured.
        let issued: u32 = clients.iter().map(|c| c.0).sum();
        assert!(e.attempted > 0 && e.attempted < u64::from(issued));
        // 200 us sleeps: each op takes at least that long.
        assert!(e.call_p50_us.value >= 200.0 && e.write_p50_us.value >= 200.0);
        assert!(e.ops_s.value > 100.0);
        assert!((e.measured_s - 0.12).abs() < 0.05);
    }
}
