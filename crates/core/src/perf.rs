//! Measurement-level performance counters.
//!
//! [`issa_circuit::perf`] counts simulator-internal work (timesteps,
//! Newton iterations, LU factorizations); this module adds the one number
//! the Monte Carlo layer itself controls — how many *probe transients*
//! (offset-search probes, sense operations, delay measurements) were
//! launched. Together they let a bench report say "N probes cost M Newton
//! iterations" and make regressions in either layer visible separately.
//!
//! Like the circuit counters, the count is kept both process-wide and per
//! thread ([`thread_sense_calls`]), so a thread that owns a region of work
//! can attribute it exactly while other threads simulate concurrently.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static SENSE_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_SENSE_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Total probe transients launched since process start (monotone).
/// Subtract two readings to count a region, as with
/// [`issa_circuit::perf::snapshot`].
pub fn sense_calls() -> u64 {
    SENSE_CALLS.load(Ordering::Relaxed)
}

/// Probe transients launched **by the current thread** since it started
/// (monotone): the per-thread mirror of [`sense_calls`].
pub fn thread_sense_calls() -> u64 {
    THREAD_SENSE_CALLS.with(Cell::get)
}

/// Records one probe transient.
pub(crate) fn record_sense_call() {
    SENSE_CALLS.fetch_add(1, Ordering::Relaxed);
    THREAD_SENSE_CALLS.with(|c| c.set(c.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sense_calls_increment() {
        let before = sense_calls();
        record_sense_call();
        record_sense_call();
        assert!(sense_calls() >= before + 2);
    }

    #[test]
    fn thread_sense_calls_are_exact_for_this_thread() {
        let before = thread_sense_calls();
        record_sense_call();
        std::thread::spawn(record_sense_call).join().unwrap();
        record_sense_call();
        assert_eq!(thread_sense_calls() - before, 2);
    }
}
