//! Timer slack for the threads that carry modeled time.
//!
//! Linux lets a timed wait fire anywhere inside a per-thread *slack* window
//! after its deadline (50 µs by default) so that nearby timers coalesce.
//! Every modeled hop and invocation in this system is such a wait, and at
//! the default slack a lone timer fires at the window's end: a chain of
//! them pays the slack once per link. The runtime's pool threads, which
//! also run the fabric's deliveries, therefore ask for 1 µs once, at
//! thread start. Other platforms keep their default.

/// The slack every pool thread runs with.
pub(crate) const TIMER_SLACK_NS: u64 = 1_000;

#[cfg(target_os = "linux")]
extern "C" {
    fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
}

/// `PR_SET_TIMERSLACK` from `<linux/prctl.h>`.
#[cfg(target_os = "linux")]
const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;

/// Set the calling thread's timer slack to [`TIMER_SLACK_NS`]. Called at
/// the start of every runtime worker (pool and spare). A no-op off Linux;
/// a refused call leaves the kernel default in place.
pub(crate) fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long by value and changes only the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, TIMER_SLACK_NS as std::os::raw::c_ulong);
    }
}

/// The calling thread's timer slack in ns as the kernel reports it
/// (`/proc/<tid>/timerslack_ns`), or `None` where it cannot be read.
///
/// A test probe: the runtime's tests call it from inside an actor poll
/// and a one-shot task to check that [`tighten_timer_slack`] took effect.
#[cfg(test)]
pub(crate) fn current_timer_slack_ns() -> Option<u64> {
    let task = std::fs::read_link("/proc/thread-self").ok()?;
    let tid = task.file_name()?.to_str()?.to_owned();
    std::fs::read_to_string(format!("/proc/{tid}/timerslack_ns"))
        .ok()?
        .trim()
        .parse()
        .ok()
}
