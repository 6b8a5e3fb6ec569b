//! Lightweight global performance counters for the simulation hot path.
//!
//! The Monte Carlo layer runs hundreds of thousands of Newton iterations;
//! these counters make the cost structure observable (how many transients,
//! timesteps, Newton iterations, and LU factorizations a phase consumed)
//! without perturbing it. Within one transient the counts are accumulated
//! in plain integers and flushed with a handful of relaxed atomic adds at
//! the end, so the per-iteration overhead is zero.
//!
//! Counters are process-global and monotone. Consumers take a
//! [`snapshot`] before and after a region and subtract
//! ([`PerfSnapshot::delta_since`]); that works from any number of threads
//! because every worker flushes into the same atomics.
//!
//! Every flush also lands in a **per-thread** mirror ([`thread_snapshot`])
//! in the same place, so a caller that owns its thread — a dist worker
//! computing one unit, the Monte Carlo sample loop, a single-threaded
//! test — can attribute work to a region exactly, without interference
//! from analyses running concurrently on other threads. Summed over the
//! threads that did the work, the per-thread deltas equal the global one.
//!
//! The `recoveries_*` counters make the solver recovery ladder
//! ([`crate::recovery::RecoveryPolicy`]) observable: on a healthy run all
//! of them stay zero, and any nonzero value is the exact count of ladder
//! work a phase consumed.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static TRANSIENTS: AtomicU64 = AtomicU64::new(0);
static TIMESTEPS: AtomicU64 = AtomicU64::new(0);
static NEWTON_ITERATIONS: AtomicU64 = AtomicU64::new(0);
static LU_FACTORIZATIONS: AtomicU64 = AtomicU64::new(0);
static RECOVERIES_DAMPED: AtomicU64 = AtomicU64::new(0);
static RECOVERIES_DT_HALVED: AtomicU64 = AtomicU64::new(0);
static RECOVERIES_GMIN: AtomicU64 = AtomicU64::new(0);
static RECOVERIES_SOURCE: AtomicU64 = AtomicU64::new(0);
static RECOVERIES_FAILED: AtomicU64 = AtomicU64::new(0);
static CANCELLATIONS: AtomicU64 = AtomicU64::new(0);
static BATCHED_STEPS: AtomicU64 = AtomicU64::new(0);
static BATCH_LANE_STEPS: AtomicU64 = AtomicU64::new(0);
static SCALAR_FALLBACKS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<PerfSnapshot> = Cell::new(PerfSnapshot::default());
}

/// Adds `delta` to the calling thread's mirror of the counters.
fn bump_thread(delta: &PerfSnapshot) {
    THREAD.with(|t| t.set(t.get().saturating_add(delta)));
}

/// A point-in-time reading of the global hot-path counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfSnapshot {
    /// Completed transient analyses.
    pub transients: u64,
    /// Accepted integration timesteps (including split sub-steps).
    pub timesteps: u64,
    /// Newton–Raphson iterations across all solves.
    pub newton_iterations: u64,
    /// LU factorizations (one per Newton iteration that assembled a
    /// Jacobian, including iterations of failed solves).
    pub lu_factorizations: u64,
    /// Damped re-solve attempts (ladder rung 1): a Newton failure retried
    /// with a reduced `max_step`.
    pub recoveries_damped: u64,
    /// Timestep halvings performed (ladder rung 2): each split of one step
    /// into two half steps with state rewind counts once.
    pub recoveries_dt_halved: u64,
    /// gmin continuation engagements (ladder rung 3): a failed step
    /// re-solved under a geometrically relaxed shunt conductance, accepted
    /// only after a final gmin = 0 solve converges.
    pub recoveries_gmin: u64,
    /// Source-stepping continuation engagements (DC ladder rung 4).
    pub recoveries_source: u64,
    /// Steps (or DC solves) abandoned after the whole ladder was
    /// exhausted — the failure propagated to the caller.
    pub recoveries_failed: u64,
    /// Analyses stopped by cooperative cancellation
    /// ([`crate::cancel`]): a fired token or an exhausted per-scope
    /// step/wall budget. Zero on any run without a watchdog trigger.
    pub cancellations: u64,
    /// Lockstep rounds executed by the batched solver
    /// ([`crate::batch`]): each round advances every active lane one
    /// Newton iteration. Zero on scalar-only runs.
    pub batched_steps: u64,
    /// Sum of active lanes over all batched rounds — the occupancy
    /// numerator: `batch_lane_steps / (batched_steps · lane_width)` is the
    /// mean fraction of lanes doing useful work.
    pub batch_lane_steps: u64,
    /// Samples the batch scheduler peeled off to the scalar path (lane
    /// failure, unsupported configuration, or fault-injection targeting).
    pub scalar_fallbacks: u64,
}

impl PerfSnapshot {
    /// Counter increments between `earlier` and `self`.
    #[must_use]
    pub fn delta_since(&self, earlier: &PerfSnapshot) -> PerfSnapshot {
        PerfSnapshot {
            transients: self.transients - earlier.transients,
            timesteps: self.timesteps - earlier.timesteps,
            newton_iterations: self.newton_iterations - earlier.newton_iterations,
            lu_factorizations: self.lu_factorizations - earlier.lu_factorizations,
            recoveries_damped: self.recoveries_damped - earlier.recoveries_damped,
            recoveries_dt_halved: self.recoveries_dt_halved - earlier.recoveries_dt_halved,
            recoveries_gmin: self.recoveries_gmin - earlier.recoveries_gmin,
            recoveries_source: self.recoveries_source - earlier.recoveries_source,
            recoveries_failed: self.recoveries_failed - earlier.recoveries_failed,
            cancellations: self.cancellations - earlier.cancellations,
            batched_steps: self.batched_steps - earlier.batched_steps,
            batch_lane_steps: self.batch_lane_steps - earlier.batch_lane_steps,
            scalar_fallbacks: self.scalar_fallbacks - earlier.scalar_fallbacks,
        }
    }

    /// Element-wise sum, for aggregating per-phase deltas.
    #[must_use]
    pub fn saturating_add(&self, other: &PerfSnapshot) -> PerfSnapshot {
        PerfSnapshot {
            transients: self.transients.saturating_add(other.transients),
            timesteps: self.timesteps.saturating_add(other.timesteps),
            newton_iterations: self
                .newton_iterations
                .saturating_add(other.newton_iterations),
            lu_factorizations: self
                .lu_factorizations
                .saturating_add(other.lu_factorizations),
            recoveries_damped: self
                .recoveries_damped
                .saturating_add(other.recoveries_damped),
            recoveries_dt_halved: self
                .recoveries_dt_halved
                .saturating_add(other.recoveries_dt_halved),
            recoveries_gmin: self.recoveries_gmin.saturating_add(other.recoveries_gmin),
            recoveries_source: self
                .recoveries_source
                .saturating_add(other.recoveries_source),
            recoveries_failed: self
                .recoveries_failed
                .saturating_add(other.recoveries_failed),
            cancellations: self.cancellations.saturating_add(other.cancellations),
            batched_steps: self.batched_steps.saturating_add(other.batched_steps),
            batch_lane_steps: self.batch_lane_steps.saturating_add(other.batch_lane_steps),
            scalar_fallbacks: self.scalar_fallbacks.saturating_add(other.scalar_fallbacks),
        }
    }

    /// Total recovery-ladder attempts (all rungs plus exhausted ladders).
    #[must_use]
    pub fn recovery_attempts(&self) -> u64 {
        self.recoveries_damped
            + self.recoveries_dt_halved
            + self.recoveries_gmin
            + self.recoveries_source
            + self.recoveries_failed
    }
}

/// Reads the current global counter values.
pub fn snapshot() -> PerfSnapshot {
    PerfSnapshot {
        transients: TRANSIENTS.load(Ordering::Relaxed),
        timesteps: TIMESTEPS.load(Ordering::Relaxed),
        newton_iterations: NEWTON_ITERATIONS.load(Ordering::Relaxed),
        lu_factorizations: LU_FACTORIZATIONS.load(Ordering::Relaxed),
        recoveries_damped: RECOVERIES_DAMPED.load(Ordering::Relaxed),
        recoveries_dt_halved: RECOVERIES_DT_HALVED.load(Ordering::Relaxed),
        recoveries_gmin: RECOVERIES_GMIN.load(Ordering::Relaxed),
        recoveries_source: RECOVERIES_SOURCE.load(Ordering::Relaxed),
        recoveries_failed: RECOVERIES_FAILED.load(Ordering::Relaxed),
        cancellations: CANCELLATIONS.load(Ordering::Relaxed),
        batched_steps: BATCHED_STEPS.load(Ordering::Relaxed),
        batch_lane_steps: BATCH_LANE_STEPS.load(Ordering::Relaxed),
        scalar_fallbacks: SCALAR_FALLBACKS.load(Ordering::Relaxed),
    }
}

/// Records one flush of the batched solver's round counters:
/// `rounds` lockstep rounds that advanced a total of `lane_steps` active
/// lane-iterations. Called by the batch engine once per event-loop slice,
/// so the per-round overhead is zero.
pub fn record_batch_rounds(rounds: u64, lane_steps: u64) {
    if rounds > 0 {
        BATCHED_STEPS.fetch_add(rounds, Ordering::Relaxed);
    }
    if lane_steps > 0 {
        BATCH_LANE_STEPS.fetch_add(lane_steps, Ordering::Relaxed);
    }
    bump_thread(&PerfSnapshot {
        batched_steps: rounds,
        batch_lane_steps: lane_steps,
        ..PerfSnapshot::default()
    });
}

/// Records one sample the batch scheduler handed back to the scalar
/// engine. Public because the Monte Carlo scheduler in `issa-core` owns
/// the peel-off decision.
pub fn record_scalar_fallback() {
    SCALAR_FALLBACKS.fetch_add(1, Ordering::Relaxed);
    bump_thread(&PerfSnapshot {
        scalar_fallbacks: 1,
        ..PerfSnapshot::default()
    });
}

/// The counters flushed **by the current thread** since it started
/// (monotone). Subtract two readings to attribute work to a region that
/// runs entirely on this thread — exact even while other threads simulate
/// concurrently.
pub fn thread_snapshot() -> PerfSnapshot {
    THREAD.with(Cell::get)
}

/// Total recovery-ladder attempts flushed by the current thread: the
/// [`thread_snapshot`] view of [`PerfSnapshot::recovery_attempts`].
pub fn thread_recovery_attempts() -> u64 {
    thread_snapshot().recovery_attempts()
}

/// Locally accumulated counts, flushed to the globals in one shot.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LocalCounts {
    pub timesteps: u64,
    pub newton_iterations: u64,
    pub lu_factorizations: u64,
    pub recoveries_damped: u64,
    pub recoveries_dt_halved: u64,
    pub recoveries_gmin: u64,
    pub recoveries_source: u64,
    pub recoveries_failed: u64,
    pub cancellations: u64,
}

impl LocalCounts {
    /// Flushes the accumulated counts (plus one completed transient if
    /// `transient` is set) into the global counters and the calling
    /// thread's mirror.
    pub fn flush(&self, transient: bool) {
        if transient {
            TRANSIENTS.fetch_add(1, Ordering::Relaxed);
        }
        if self.timesteps > 0 {
            TIMESTEPS.fetch_add(self.timesteps, Ordering::Relaxed);
        }
        if self.newton_iterations > 0 {
            NEWTON_ITERATIONS.fetch_add(self.newton_iterations, Ordering::Relaxed);
        }
        if self.lu_factorizations > 0 {
            LU_FACTORIZATIONS.fetch_add(self.lu_factorizations, Ordering::Relaxed);
        }
        let recoveries = self.recoveries_damped
            + self.recoveries_dt_halved
            + self.recoveries_gmin
            + self.recoveries_source
            + self.recoveries_failed;
        if recoveries > 0 {
            if self.recoveries_damped > 0 {
                RECOVERIES_DAMPED.fetch_add(self.recoveries_damped, Ordering::Relaxed);
            }
            if self.recoveries_dt_halved > 0 {
                RECOVERIES_DT_HALVED.fetch_add(self.recoveries_dt_halved, Ordering::Relaxed);
            }
            if self.recoveries_gmin > 0 {
                RECOVERIES_GMIN.fetch_add(self.recoveries_gmin, Ordering::Relaxed);
            }
            if self.recoveries_source > 0 {
                RECOVERIES_SOURCE.fetch_add(self.recoveries_source, Ordering::Relaxed);
            }
            if self.recoveries_failed > 0 {
                RECOVERIES_FAILED.fetch_add(self.recoveries_failed, Ordering::Relaxed);
            }
        }
        if self.cancellations > 0 {
            CANCELLATIONS.fetch_add(self.cancellations, Ordering::Relaxed);
        }
        bump_thread(&PerfSnapshot {
            transients: u64::from(transient),
            timesteps: self.timesteps,
            newton_iterations: self.newton_iterations,
            lu_factorizations: self.lu_factorizations,
            recoveries_damped: self.recoveries_damped,
            recoveries_dt_halved: self.recoveries_dt_halved,
            recoveries_gmin: self.recoveries_gmin,
            recoveries_source: self.recoveries_source,
            recoveries_failed: self.recoveries_failed,
            cancellations: self.cancellations,
            ..PerfSnapshot::default()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_and_delta_roundtrip() {
        let before = snapshot();
        LocalCounts {
            timesteps: 7,
            newton_iterations: 21,
            lu_factorizations: 21,
            ..LocalCounts::default()
        }
        .flush(true);
        let d = snapshot().delta_since(&before);
        // Other tests may run concurrently, so counts are lower bounds.
        assert!(d.transients >= 1);
        assert!(d.timesteps >= 7);
        assert!(d.newton_iterations >= 21);
        assert!(d.lu_factorizations >= 21);
    }

    #[test]
    fn thread_mirror_is_exact_for_this_thread() {
        let before = thread_snapshot();
        LocalCounts {
            timesteps: 7,
            newton_iterations: 21,
            lu_factorizations: 21,
            cancellations: 1,
            ..LocalCounts::default()
        }
        .flush(true);
        record_batch_rounds(5, 37);
        record_scalar_fallback();
        // Another thread's work never reaches this thread's mirror.
        std::thread::spawn(|| {
            LocalCounts {
                newton_iterations: 1_000,
                ..LocalCounts::default()
            }
            .flush(true);
        })
        .join()
        .unwrap();
        let d = thread_snapshot().delta_since(&before);
        assert_eq!(
            d,
            PerfSnapshot {
                transients: 1,
                timesteps: 7,
                newton_iterations: 21,
                lu_factorizations: 21,
                cancellations: 1,
                batched_steps: 5,
                batch_lane_steps: 37,
                scalar_fallbacks: 1,
                ..PerfSnapshot::default()
            }
        );
    }

    #[test]
    fn recovery_counters_flush_globally_and_per_thread() {
        let before = snapshot();
        let tl_before = thread_recovery_attempts();
        LocalCounts {
            recoveries_damped: 2,
            recoveries_dt_halved: 3,
            recoveries_gmin: 1,
            recoveries_source: 1,
            recoveries_failed: 1,
            ..LocalCounts::default()
        }
        .flush(false);
        let d = snapshot().delta_since(&before);
        assert!(d.recoveries_damped >= 2);
        assert!(d.recoveries_dt_halved >= 3);
        assert!(d.recoveries_gmin >= 1);
        assert!(d.recoveries_source >= 1);
        assert!(d.recoveries_failed >= 1);
        assert!(d.recovery_attempts() >= 8);
        // The thread-local view is exact for this thread.
        assert_eq!(thread_recovery_attempts() - tl_before, 8);
    }

    #[test]
    fn saturating_add_sums_fields() {
        let a = PerfSnapshot {
            transients: 1,
            timesteps: 2,
            newton_iterations: 3,
            lu_factorizations: 4,
            recoveries_damped: 5,
            recoveries_dt_halved: 6,
            recoveries_gmin: 7,
            recoveries_source: 8,
            recoveries_failed: 9,
            cancellations: 10,
            batched_steps: 11,
            batch_lane_steps: 12,
            scalar_fallbacks: 13,
        };
        let b = a.saturating_add(&a);
        assert_eq!(b.timesteps, 4);
        assert_eq!(b.lu_factorizations, 8);
        assert_eq!(b.recoveries_damped, 10);
        assert_eq!(b.recoveries_failed, 18);
        assert_eq!(b.cancellations, 20);
        assert_eq!(b.batched_steps, 22);
        assert_eq!(b.batch_lane_steps, 24);
        assert_eq!(b.scalar_fallbacks, 26);
        assert_eq!(b.recovery_attempts(), 70);
    }

    #[test]
    fn batch_counters_flush_and_delta() {
        let before = snapshot();
        record_batch_rounds(5, 37);
        record_scalar_fallback();
        let d = snapshot().delta_since(&before);
        assert!(d.batched_steps >= 5, "{d:?}");
        assert!(d.batch_lane_steps >= 37, "{d:?}");
        assert!(d.scalar_fallbacks >= 1, "{d:?}");
    }
}
