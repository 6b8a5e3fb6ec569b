//! The durable campaign engine: runs a list of Monte Carlo corners, one
//! after another, through the corner driver ([`crate::driver`]) — each
//! phase one [`run_mc_controlled`] call — with incremental
//! checkpointing, signal and deadline cancellation, and graceful
//! degradation.
//!
//! A *campaign* is the unit the bench binaries actually need: several
//! corners (table rows, figure points) whose total runtime is long enough
//! that interruption is a fact of life. The engine guarantees:
//!
//! - **Durability** — per-sample results stream into a
//!   [`Checkpoint`](crate::checkpoint::Checkpoint) flushed every
//!   [`CampaignOptions::flush_every`] fresh samples and after every
//!   corner, written atomically. A killed campaign loses at most one
//!   flush interval of work.
//! - **Resumability** — restarting with the same corners and checkpoint
//!   path skips every completed sample and produces results bit-identical
//!   to an uninterrupted run (samples are pure functions of
//!   `(config, index)`). A checkpoint whose config fingerprint disagrees
//!   with the current corner is refused, never silently misapplied.
//! - **Cancellation** — SIGINT/SIGTERM (opt-in) and an optional campaign
//!   deadline fire one shared [`CancelToken`]; in-flight samples stop at
//!   their next solver step, completed work is checkpointed, and the
//!   report says exactly how far the campaign got.

use crate::checkpoint::{Checkpoint, CheckpointError, SavePolicy};
use crate::driver::{restore, CornerRun};
use crate::montecarlo::{
    run_mc_controlled, McConfig, McControl, McObserver, McPhase, McResult, SampleFailure,
};
use crate::SaError;
use issa_circuit::cancel::{CancelCause, CancelToken};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Set by the SIGINT/SIGTERM handler; polled by the campaign watchdog.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// How often the watchdog (and the campaign service's dispatcher) looks
/// at [`INTERRUPTED`] while it watches for signals. A signal handler can
/// only store to an atomic, not notify a condition variable, so signals
/// are the one thing either polls for.
pub const SIGNAL_TICK: Duration = Duration::from_millis(25);

#[cfg(unix)]
mod signals {
    use super::INTERRUPTED;
    use std::sync::atomic::{AtomicBool, Ordering};

    // Raw libc binding — the workspace deliberately has no libc crate
    // dependency, and `signal(2)` with a handler that only stores to an
    // atomic is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    /// Installs the handlers once per process.
    pub(super) fn install() {
        static INSTALLED: AtomicBool = AtomicBool::new(false);
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return;
        }
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod signals {
    /// No-op on non-unix targets: deadlines and step budgets still work.
    pub(super) fn install() {}
}

/// The process-wide cooperative interrupt flag behind
/// [`CampaignOptions::handle_signals`], exposed so long-lived drivers —
/// the distributed coordinator's `serve` loop, the campaign service —
/// can share the SIGINT/SIGTERM drain discipline without owning a
/// campaign run themselves.
pub mod interrupt {
    use super::{signals, INTERRUPTED};
    use std::sync::atomic::Ordering;

    /// Installs the SIGINT/SIGTERM handlers (idempotent, once per
    /// process).
    pub fn install() {
        signals::install();
    }

    /// Clears a previously latched interrupt. Call before entering a
    /// fresh serve loop so a drain handled by the previous run is not
    /// inherited by the next one.
    pub fn reset() {
        INTERRUPTED.store(false, Ordering::SeqCst);
    }

    /// `true` once SIGINT/SIGTERM arrived (or [`trigger`] ran).
    #[must_use]
    pub fn requested() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }

    /// Latches the flag programmatically — the in-process analogue of a
    /// signal, used by tests and by the service's `shutdown` verb so
    /// both paths drain through identical code.
    pub fn trigger() {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }
}

/// One named corner of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignCorner {
    /// Stable name — the checkpoint key. Must be unique within the
    /// campaign and survive process restarts (e.g. `"table2/NSSA 80r0"`).
    pub name: String,
    /// The corner's Monte Carlo configuration.
    pub cfg: McConfig,
}

/// Campaign-level durability and cancellation knobs.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Checkpoint file. `None` disables durability (the engine still
    /// handles deadlines/signals, it just cannot resume).
    pub checkpoint: Option<PathBuf>,
    /// Flush the checkpoint every this many fresh samples (plus always
    /// after each corner). Smaller loses less work on a kill; larger
    /// spends less time in `fsync`.
    pub flush_every: usize,
    /// Wall-clock budget for the whole campaign. When it expires the
    /// remaining samples are cancelled, completed ones are kept, and
    /// every affected result carries [`McResult::partial`].
    pub deadline: Option<Duration>,
    /// Install SIGINT/SIGTERM handlers that cancel the campaign
    /// gracefully (checkpoint flushed, partial results reported).
    pub handle_signals: bool,
    /// Test hook: behave as if an interrupt arrived after this many fresh
    /// samples completed (across the whole campaign). Deterministic
    /// stand-in for a mid-campaign kill.
    pub abort_after: Option<usize>,
    /// Print corner-by-corner progress to stderr.
    pub progress: bool,
    /// Retry policy for every checkpoint flush (attempts, backoff, and an
    /// optional injected [`IoFaultPlan`](crate::checkpoint::IoFaultPlan)).
    pub save_policy: SavePolicy,
    /// Consecutive exhausted-retry flush failures tolerated before the
    /// campaign degrades to checkpoint-less mode (it keeps computing, it
    /// just stops writing — and says so in the report) instead of
    /// hammering a dead disk or aborting a multi-hour run.
    pub max_save_failures: u32,
    /// External cancellation: when set, the engine drives *this* token
    /// instead of a private one, so a supervisor (the campaign service)
    /// can cancel the run from outside. Deadlines, signals, and the
    /// `abort_after` hook all fire the same token.
    pub cancel: Option<CancelToken>,
    /// Keep the checkpoint file after a fully complete campaign instead
    /// of deleting it. The campaign service promotes the surviving file
    /// into its content-addressed result cache.
    pub keep_checkpoint: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            checkpoint: None,
            flush_every: 16,
            deadline: None,
            handle_signals: false,
            abort_after: None,
            progress: false,
            save_policy: SavePolicy::standard(),
            max_save_failures: 2,
            cancel: None,
            keep_checkpoint: false,
        }
    }
}

/// Durability state machine shared by the local campaign sink and the
/// distributed coordinator: writes checkpoints under a [`SavePolicy`],
/// counts consecutive exhausted-retry failures, and — past
/// `max_failures` — degrades to checkpoint-less mode permanently for the
/// run, recording why. Degradation is one-way: a disk that "comes back"
/// after being written off mid-run cannot be trusted to hold a coherent
/// resume image anyway.
#[derive(Debug)]
pub struct CheckpointWriter {
    path: PathBuf,
    policy: SavePolicy,
    max_failures: u32,
    consecutive: u32,
    degraded: Option<String>,
}

impl CheckpointWriter {
    /// A writer targeting `path`. `max_failures` of 0 degrades on the
    /// first exhausted save.
    #[must_use]
    pub fn new(path: PathBuf, policy: SavePolicy, max_failures: u32) -> Self {
        CheckpointWriter {
            path,
            policy,
            max_failures,
            consecutive: 0,
            degraded: None,
        }
    }

    /// The checkpoint path this writer targets.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Why the writer gave up, if it has.
    #[must_use]
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Writes `ckpt` under the policy. A transient failure (the policy's
    /// retries eventually succeed) is invisible; an exhausted save warns
    /// and counts toward degradation; once degraded every flush is a
    /// no-op. Returns `true` if the bytes reached disk.
    pub fn flush(&mut self, ckpt: &Checkpoint) -> bool {
        if self.degraded.is_some() {
            return false;
        }
        match ckpt.save_with(&self.path, &self.policy) {
            Ok(()) => {
                self.consecutive = 0;
                true
            }
            Err(e) => {
                self.consecutive += 1;
                eprintln!(
                    "warning: checkpoint flush to {} failed ({}/{} consecutive): {e}",
                    self.path.display(),
                    self.consecutive,
                    self.max_failures.max(1),
                );
                if self.consecutive >= self.max_failures.max(1) {
                    let reason = format!(
                        "checkpointing disabled after {} consecutive failed flushes \
                         to {}; last error: {e}",
                        self.consecutive,
                        self.path.display(),
                    );
                    eprintln!(
                        "warning: {reason} — campaign continues WITHOUT durability \
                         (a kill from here loses uncheckpointed work)"
                    );
                    self.degraded = Some(reason);
                }
                false
            }
        }
    }
}

/// How one corner of the campaign ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CornerOutcome {
    /// The corner produced statistics — over all samples, or over the
    /// completed subset when [`McResult::partial`] is set. Boxed: an
    /// `McResult` carries the full sample vectors and dwarfs the other
    /// variants.
    Completed(Box<McResult>),
    /// The corner errored: its failure budget was exceeded, or the
    /// campaign was cancelled before any of its samples completed —
    /// including a corner the cancellation reached before it started
    /// ([`SaError::Cancelled`] with `completed: 0`).
    Failed(SaError),
}

/// One corner's entry in the [`CampaignReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CornerReport {
    /// The corner's name.
    pub name: String,
    /// How it ended.
    pub outcome: CornerOutcome,
}

/// What a campaign run accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-corner outcomes, in campaign order.
    pub corners: Vec<CornerReport>,
    /// Records restored from the checkpoint at startup (0 on a fresh run).
    pub resumed_records: usize,
    /// The cancellation that ended the campaign early, if any.
    pub cancelled: Option<CancelCause>,
    /// `true` when anything is missing: a cancellation fired, a corner
    /// failed, or returned a partial result.
    pub partial: bool,
    /// Set when checkpointing degraded to checkpoint-less mode mid-run
    /// (persistent I/O failures exhausted [`CampaignOptions::max_save_failures`]).
    /// The results are still complete and correct — only durability was
    /// lost. Recorded in `campaign.json` by the bench driver.
    pub checkpoint_degraded: Option<String>,
}

impl CampaignReport {
    /// The completed result of a corner, by name.
    #[must_use]
    pub fn result(&self, name: &str) -> Option<&McResult> {
        self.corners
            .iter()
            .find(|c| c.name == name)
            .and_then(|c| match &c.outcome {
                CornerOutcome::Completed(r) => Some(r.as_ref()),
                _ => None,
            })
    }
}

/// Why a campaign refused to start.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The checkpoint file exists but cannot be trusted (I/O error,
    /// truncation, CRC mismatch, unknown version, malformed record).
    Checkpoint(CheckpointError),
    /// The checkpoint was written under a different configuration for
    /// this corner — resuming would silently mix incompatible samples.
    /// Delete the checkpoint (or pass a different path) to start fresh.
    FingerprintMismatch {
        /// The corner whose fingerprints disagree.
        corner: String,
        /// Fingerprint recorded in the checkpoint.
        stored: u64,
        /// Fingerprint of the current configuration.
        expected: u64,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Checkpoint(e) => write!(f, "cannot resume campaign: {e}"),
            CampaignError::FingerprintMismatch {
                corner,
                stored,
                expected,
            } => write!(
                f,
                "checkpoint fingerprint mismatch for corner {corner:?}: \
                 stored {stored:016x}, current config {expected:016x} — \
                 the configuration changed since the checkpoint was written"
            ),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Checkpoint(e) => Some(e),
            CampaignError::FingerprintMismatch { .. } => None,
        }
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

/// Merges per-sample completions into the corners' drivers and flushes
/// the checkpoint — the [`McObserver`] side of the engine.
struct CheckpointSink<'a> {
    state: Mutex<SinkState<'a>>,
    flush_every: usize,
    abort_after: Option<usize>,
    cancel: Option<&'a CancelToken>,
    /// The caller's own observer, told of every fresh sample as well.
    inner: Option<&'a dyn McObserver>,
}

#[derive(Default)]
struct SinkState<'a> {
    /// Every corner's driver, in campaign order. Their merged records
    /// are the checkpoint.
    runs: Vec<CornerRun<'a>>,
    /// The corner whose phase is running.
    current: usize,
    fresh_since_flush: usize,
    fresh_total: usize,
    /// A record or log-weight arrived since the last write. Only fresh
    /// data changes the snapshot — it always holds every restored
    /// record — so a run with nothing fresh never rewrites the file.
    dirty: bool,
    /// Durability engine; `None` when the campaign runs checkpoint-less
    /// by configuration.
    writer: Option<CheckpointWriter>,
}

fn lock<'m, 'a>(m: &'m Mutex<SinkState<'a>>) -> MutexGuard<'m, SinkState<'a>> {
    // A poisoned sink just means some worker panicked mid-callback; the
    // accumulated data is still sound (each record is pushed atomically).
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SinkState<'_> {
    fn flush(&mut self) {
        // Durability is best-effort while the run is healthy; losing a
        // flush only widens the recompute window after a kill, and a disk
        // that stays broken degrades the writer instead of the campaign.
        // A failed write leaves the state dirty, so the next flush tries
        // again.
        let SinkState {
            runs,
            dirty: true,
            writer: Some(writer),
            ..
        } = self
        else {
            return;
        };
        let corners = runs.iter_mut().filter_map(CornerRun::checkpoint).collect();
        if writer.flush(&Checkpoint { corners }) {
            self.dirty = false;
        }
    }
}

impl McObserver for CheckpointSink<'_> {
    fn sample_finished(&self, phase: McPhase, index: usize, outcome: Result<f64, &SampleFailure>) {
        {
            let mut s = lock(&self.state);
            let k = s.current;
            s.runs[k].record(phase, index, outcome);
            s.dirty = true;
            s.fresh_since_flush += 1;
            s.fresh_total += 1;
            if self.abort_after.is_some_and(|n| s.fresh_total >= n) {
                if let Some(token) = self.cancel {
                    token.cancel(CancelCause::Interrupt);
                }
            }
            if self.flush_every > 0 && s.fresh_since_flush >= self.flush_every {
                s.fresh_since_flush = 0;
                s.flush();
            }
        }
        if let Some(obs) = self.inner {
            obs.sample_finished(phase, index, outcome);
        }
    }

    fn sample_weight(&self, index: usize, log_weight: f64) {
        // Importance-sampling log-weights annotate the offset record that
        // just landed; they ride along with the next flush (a weight the
        // checkpoint misses is recomputed bit-identically on resume, so
        // they never count toward the flush cadence).
        {
            let mut s = lock(&self.state);
            let k = s.current;
            s.runs[k].record_weight(index, log_weight);
            s.dirty = true;
        }
        if let Some(obs) = self.inner {
            obs.sample_weight(index, log_weight);
        }
    }
}

/// Turns the asynchronous stop conditions — the deadline and, when
/// signals are handled, SIGINT/SIGTERM — into the cooperative token the
/// solver loops poll. It sleeps on a condition variable until the
/// deadline, waking every [`SIGNAL_TICK`] only while it watches for
/// signals, and [`Watchdog::stop`] wakes it at once.
struct Watchdog {
    thread: std::thread::JoinHandle<()>,
    stopped: Arc<(Mutex<bool>, Condvar)>,
}

impl Watchdog {
    /// `None` when there is nothing to watch.
    fn spawn(token: &CancelToken, deadline: Option<Instant>, signals: bool) -> Option<Watchdog> {
        if deadline.is_none() && !signals {
            return None;
        }
        let stopped = Arc::new((Mutex::new(false), Condvar::new()));
        let thread = {
            let token = token.clone();
            let stopped = Arc::clone(&stopped);
            std::thread::spawn(move || {
                let (flag, wake) = &*stopped;
                let mut deadline = deadline;
                let mut done = flag.lock().unwrap_or_else(PoisonError::into_inner);
                while !*done {
                    if signals && INTERRUPTED.load(Ordering::SeqCst) {
                        token.cancel(CancelCause::Interrupt);
                    }
                    let now = Instant::now();
                    if deadline.is_some_and(|d| now >= d) {
                        token.cancel(CancelCause::Deadline);
                        deadline = None;
                    }
                    let wait = match (deadline, signals) {
                        (Some(d), true) => (d - now).min(SIGNAL_TICK),
                        (Some(d), false) => d - now,
                        (None, true) => SIGNAL_TICK,
                        (None, false) => return,
                    };
                    done = wake
                        .wait_timeout(done, wait)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            })
        };
        Some(Watchdog { thread, stopped })
    }

    /// Wakes the watchdog and joins it.
    fn stop(self) {
        let (flag, wake) = &*self.stopped;
        *flag.lock().unwrap_or_else(PoisonError::into_inner) = true;
        wake.notify_all();
        let _ = self.thread.join();
    }
}

/// Runs the corners through the durable engine. See the module docs for
/// the guarantees.
///
/// # Errors
///
/// Only *startup* problems error: an untrusted checkpoint
/// ([`CampaignError::Checkpoint`]) or a configuration that disagrees with
/// it ([`CampaignError::FingerprintMismatch`]). Runtime trouble — failed
/// corners, cancellations, partial results — degrades gracefully into the
/// [`CampaignReport`] instead.
pub fn run_campaign(
    corners: &[CampaignCorner],
    opts: &CampaignOptions,
) -> Result<CampaignReport, CampaignError> {
    // Load and verify prior state before any work happens.
    let (runs, resumed_records) = restore(
        corners,
        opts.checkpoint.as_deref(),
        opts.progress.then_some("campaign"),
    )?;
    if opts.progress && resumed_records > 0 {
        eprintln!("campaign: resuming with {resumed_records} checkpointed records");
    }

    if opts.handle_signals {
        INTERRUPTED.store(false, Ordering::SeqCst);
        signals::install();
    }
    let token = opts.cancel.clone().unwrap_or_default();
    let deadline = opts.deadline.map(|d| Instant::now() + d);

    let watchdog = Watchdog::spawn(&token, deadline, opts.handle_signals);

    let sink = CheckpointSink {
        state: Mutex::new(SinkState {
            runs,
            writer: opts.checkpoint.clone().map(|path| {
                CheckpointWriter::new(path, opts.save_policy.clone(), opts.max_save_failures)
            }),
            ..SinkState::default()
        }),
        flush_every: opts.flush_every,
        abort_after: opts.abort_after,
        cancel: Some(&token),
        inner: None,
    };
    run_corners(&sink, deadline);

    if let Some(watchdog) = watchdog {
        watchdog.stop();
    }

    let cancelled = token.fired();
    let state = sink
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let checkpoint_degraded = state
        .writer
        .as_ref()
        .and_then(|w| w.degraded().map(String::from));
    let reports: Vec<CornerReport> = state.runs.into_iter().map(CornerRun::into_report).collect();
    let partial = cancelled.is_some()
        || reports
            .iter()
            .any(|r| !matches!(&r.outcome, CornerOutcome::Completed(res) if !res.partial));

    // A fully complete campaign no longer needs its checkpoint; removing
    // it makes the next invocation start (correctly) from scratch. A
    // supervisor that wants the final snapshot (to cache it) opts out.
    if !partial && !opts.keep_checkpoint {
        if let Some(path) = &opts.checkpoint {
            let _ = std::fs::remove_file(path);
        }
    }

    Ok(CampaignReport {
        corners: reports,
        resumed_records,
        cancelled,
        partial,
        checkpoint_degraded,
    })
}

/// One corner through the driver in this process, under the caller's
/// control plane: restored records from `ctl.resume`, every fresh sample
/// reported to `ctl.observer`, no checkpoint file. The engine behind
/// [`crate::tail::run_tail_mc`].
pub(crate) fn run_single(cfg: &McConfig, ctl: &McControl<'_>) -> Result<McResult, SaError> {
    let run = CornerRun::new("", cfg, ctl.resume.cloned().unwrap_or_default(), None);
    let sink = CheckpointSink {
        state: Mutex::new(SinkState {
            runs: vec![run],
            ..SinkState::default()
        }),
        flush_every: 0,
        abort_after: None,
        cancel: ctl.cancel,
        inner: ctl.observer,
    };
    run_corners(&sink, None);
    let mut state = sink
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    match state.runs.pop().map(|run| run.into_report().outcome) {
        Some(CornerOutcome::Completed(result)) => Ok(*result),
        Some(CornerOutcome::Failed(e)) => Err(e),
        None => Err(SaError::Cancelled {
            completed: 0,
            total: cfg.samples,
        }),
    }
}

/// Drives the sink's corners one after another, each phase one engine
/// call under the phase's effective config. A corner the cancellation
/// reaches is finished from the records it has.
fn run_corners(sink: &CheckpointSink<'_>, deadline: Option<Instant>) {
    // The sink is locked except while an engine call runs, the only time
    // its observer side is called.
    let mut s = lock(&sink.state);
    for k in 0..s.runs.len() {
        s.current = k;
        s.fresh_since_flush = 0;
        let mut ran = None;
        loop {
            // Synchronous deadline check so a zero/elapsed deadline is
            // exact rather than racing the watchdog's wake-up.
            if let Some(token) = sink.cancel {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    token.cancel(CancelCause::Deadline);
                }
            }
            let cancelled = sink.cancel.is_some_and(CancelToken::is_cancelled);
            let run = &mut s.runs[k];
            // A corner the cancellation reaches before it starts is only
            // finished, not assembled phase by phase.
            let next = if cancelled && ran.is_none() {
                None
            } else {
                run.advance(ran.take())
            };
            let Some(spec) = next.filter(|_| !cancelled) else {
                run.cancel();
                // Flush at corner end, so the checkpoint survives even a
                // kill between corners. Nothing fresh writes nothing.
                s.flush();
                break;
            };
            let resume = run.resume().clone();
            drop(s);
            ran = Some(run_mc_controlled(
                &spec.cfg,
                &McControl {
                    resume: Some(&resume),
                    observer: Some(sink),
                    cancel: sink.cancel,
                },
            ));
            s = lock(&sink.state);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::montecarlo::run_mc;
    use crate::netlist::SaKind;
    use crate::workload::{ReadSequence, Workload};
    use issa_ptm45::Environment;
    use std::sync::atomic::AtomicU64;

    fn smoke_corner(name: &str, samples: usize) -> CampaignCorner {
        let mut cfg = McConfig::smoke(
            SaKind::Nssa,
            Workload::new(0.8, ReadSequence::AllZeros),
            Environment::nominal(),
            0.0,
            samples,
        );
        cfg.threads = 2;
        CampaignCorner {
            name: name.into(),
            cfg,
        }
    }

    fn temp_ckpt(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "issa-campaign-test-{}-{tag}-{n}.ckpt",
            std::process::id()
        ))
    }

    #[test]
    fn campaign_without_checkpoint_matches_run_mc() {
        let corner = smoke_corner("solo", 4);
        let direct = run_mc(&corner.cfg).unwrap();
        let report =
            run_campaign(std::slice::from_ref(&corner), &CampaignOptions::default()).unwrap();
        assert!(!report.partial);
        assert_eq!(report.cancelled, None);
        assert_eq!(report.result("solo").unwrap(), &direct);
    }

    #[test]
    fn aborted_campaign_resumes_bit_identically() {
        let corner = smoke_corner("resume-me", 6);
        let path = temp_ckpt("abort");
        let uninterrupted = run_mc(&corner.cfg).unwrap();

        // First run: emulated interrupt after 2 fresh samples.
        let aborted = run_campaign(
            std::slice::from_ref(&corner),
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                flush_every: 1,
                abort_after: Some(2),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(aborted.partial, "aborted campaign must be partial");
        assert_eq!(aborted.cancelled, Some(CancelCause::Interrupt));
        assert!(path.exists(), "checkpoint must survive the abort");

        // Second run: resumes and completes.
        let resumed = run_campaign(
            std::slice::from_ref(&corner),
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                flush_every: 1,
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(!resumed.partial);
        assert!(resumed.resumed_records > 0, "must restore prior work");
        assert_eq!(resumed.result("resume-me").unwrap(), &uninterrupted);
        assert!(!path.exists(), "completed campaign removes its checkpoint");
    }

    #[test]
    fn fingerprint_mismatch_refuses_resume() {
        let corner = smoke_corner("pinned", 4);
        let path = temp_ckpt("fingerprint");
        run_campaign(
            std::slice::from_ref(&corner),
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                abort_after: Some(1),
                flush_every: 1,
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(path.exists());
        let mut changed = corner;
        changed.cfg.seed ^= 1;
        let err = run_campaign(
            std::slice::from_ref(&changed),
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                ..CampaignOptions::default()
            },
        )
        .unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, CampaignError::FingerprintMismatch { .. }));
    }

    #[test]
    fn external_token_cancels_and_keep_checkpoint_survives_completion() {
        let corner = smoke_corner("external", 4);
        let path = temp_ckpt("external");

        // A supervisor-owned token cancels the run from outside.
        let token = CancelToken::new();
        token.cancel(CancelCause::Interrupt);
        let report = run_campaign(
            std::slice::from_ref(&corner),
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                cancel: Some(token),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(report.partial);
        assert_eq!(report.cancelled, Some(CancelCause::Interrupt));

        // keep_checkpoint leaves the final (complete) snapshot behind.
        let done = run_campaign(
            std::slice::from_ref(&corner),
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                flush_every: 1,
                keep_checkpoint: true,
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(!done.partial);
        assert!(path.exists(), "keep_checkpoint must not delete the file");
        let kept = crate::checkpoint::Checkpoint::load(&path).unwrap();
        assert_eq!(kept.records(), 4 + corner.cfg.delay_samples.min(4));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn deadline_expiring_mid_corner_cancels_it() {
        // About 2 s of work on two threads; the deadline cuts it at 30 ms.
        let corner = smoke_corner("long", 256);
        let start = Instant::now();
        let report = run_campaign(
            std::slice::from_ref(&corner),
            &CampaignOptions {
                deadline: Some(Duration::from_millis(30)),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        let took = start.elapsed();
        assert!(report.partial);
        assert_eq!(report.cancelled, Some(CancelCause::Deadline));
        // The corner started (the check at corner start saw time left)
        // and the watchdog stopped it part way.
        match &report.corners[0].outcome {
            CornerOutcome::Completed(r) => assert!(r.partial && r.offsets.len() < 256),
            CornerOutcome::Failed(SaError::Cancelled { .. }) => {}
            other => panic!("the corner should be cut short, got {other:?}"),
        }
        assert!(took < Duration::from_secs(5), "cancelled run took {took:?}");
    }

    #[test]
    fn complete_checkpoint_is_not_rewritten() {
        let corners = vec![smoke_corner("a", 4), smoke_corner("b", 4)];
        let path = temp_ckpt("unchanged");
        let keep = CampaignOptions {
            checkpoint: Some(path.clone()),
            flush_every: 1,
            keep_checkpoint: true,
            ..CampaignOptions::default()
        };
        let first = run_campaign(&corners, &keep).unwrap();
        assert!(!first.partial);
        let bytes = std::fs::read(&path).unwrap();
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();

        // Every record is restored: nothing is new, so nothing is saved.
        let plan = crate::checkpoint::IoFaultPlan::new(Vec::new());
        let repeat = run_campaign(
            &corners,
            &CampaignOptions {
                save_policy: SavePolicy::standard().with_faults(plan.clone()),
                ..keep
            },
        )
        .unwrap();
        assert!(!repeat.partial);
        assert_eq!(repeat.corners, first.corners);
        assert_eq!(
            repeat.resumed_records,
            crate::checkpoint::Checkpoint::load(&path)
                .unwrap()
                .records()
        );
        assert_eq!(plan.attempts(), 0, "a complete checkpoint was saved again");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        assert_eq!(std::fs::metadata(&path).unwrap().modified().unwrap(), mtime);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resumed_run_keeps_restored_corners_it_has_not_reached() {
        let corners = vec![smoke_corner("fresh", 4), smoke_corner("restored", 4)];
        let path = temp_ckpt("pending");
        let keep = CampaignOptions {
            checkpoint: Some(path.clone()),
            flush_every: 1,
            keep_checkpoint: true,
            ..CampaignOptions::default()
        };
        let first = run_campaign(&corners, &keep).unwrap();
        let complete = crate::checkpoint::Checkpoint::load(&path).unwrap();

        // Drop the first corner's delay records. The next run writes as
        // soon as it recomputes one, long before the second corner comes
        // up, and is then interrupted; the second corner's records must
        // still be in the file.
        let mut cut = complete.clone();
        cut.corners[0].resume.delays.clear();
        cut.save(&path).unwrap();
        let aborted = run_campaign(
            &corners,
            &CampaignOptions {
                abort_after: Some(1),
                ..keep.clone()
            },
        )
        .unwrap();
        assert!(aborted.partial);
        let kept = crate::checkpoint::Checkpoint::load(&path).unwrap();
        assert_eq!(kept.corner("restored"), complete.corner("restored"));
        assert!(kept.records() > cut.records());

        let resumed = run_campaign(&corners, &keep).unwrap();
        assert_eq!(resumed.corners, first.corners);
        let kept = crate::checkpoint::Checkpoint::load(&path).unwrap();
        assert_eq!(kept.records(), complete.records());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn elapsed_deadline_cancels_every_corner() {
        let corners = vec![smoke_corner("first", 4), smoke_corner("second", 4)];
        let report = run_campaign(
            &corners,
            &CampaignOptions {
                deadline: Some(Duration::ZERO),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(report.partial);
        assert_eq!(report.cancelled, Some(CancelCause::Deadline));
        for corner in &report.corners {
            assert!(
                matches!(
                    corner.outcome,
                    CornerOutcome::Failed(SaError::Cancelled { .. })
                ),
                "corner {:?} should be cancelled, got {:?}",
                corner.name,
                corner.outcome
            );
        }
    }
}
