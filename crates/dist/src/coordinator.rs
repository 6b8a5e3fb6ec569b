//! The coordinator: accepts workers, shards each corner's phases into
//! leased units, merges arriving records, streams them into the campaign
//! checkpoint, and assembles the final per-corner statistics.
//!
//! Corners do not wait for one another: every corner steps through its
//! own phases, and every phase that is ready is served at once, so a
//! fleet larger than one phase's units stays busy across corners.
//!
//! # Determinism argument
//!
//! The coordinator never computes statistics itself. It only *collects*
//! per-sample records — each a pure function of `(config, index)` — and
//! hands them to the corner's driver ([`issa_core::driver::CornerRun`]),
//! the phase sequence local runs go through too: classic offsets →
//! delays, tail pilot → rounds → delays. Everything the driver decides —
//! the tail proposal, when the rounds stop, the delay phase's bitline
//! swing — and the corner's final statistics are functions of the merged
//! *set* of records, so worker count, unit size, lease churn, retries and
//! arrival order cannot perturb the result. What workers need beyond
//! their indices — the swing, a tail round's proposal shifts — travels as
//! exact `f64` bits. Outstanding leases for a converged tail corner die
//! with the retired phase scheduler.
//!
//! # Dispatch
//!
//! The served phases are kept in campaign order. A work request takes
//! the first fresh unit in that order; a speculative duplicate of a
//! straggler is issued only when no phase has a fresh unit left (see
//! [`assign_in_order`]). With nothing to hand out, the request is held
//! on the state's condition variable for at most one
//! [`ServeOptions::poll`] and answered the moment a unit appears, or
//! `done` when the campaign ends, or `wait 0` when the hold runs out.
//!
//! # Liveness
//!
//! Three nested mechanisms keep a wedged fleet from wedging the
//! campaign, from fastest to slowest:
//!
//! 1. a dropped connection revokes the worker's leases immediately;
//! 2. a connected-but-silent worker hits the per-connection read
//!    deadline ([`ServeOptions::worker_timeout`]) and is treated as 1;
//! 3. a heartbeating-but-stuck worker loses each unit at its lease
//!    deadline ([`SchedulerConfig::lease_timeout`]).
//!
//! Revoked units retry with exponential backoff (preferring a different
//! worker) up to [`SchedulerConfig::max_unit_attempts`]; beyond that the
//! unit is quarantined as `TimedOut` [`SampleFailure`]s, so the corner's
//! ordinary `max_failure_frac` budget — not a special distributed code
//! path — decides whether the campaign survives.

use crate::acceptor::Acceptor;
use crate::frame::FrameStream;
use crate::proto::{campaign_fingerprint, Msg, UnitAssignment, WorkerPerf, PROTO_VERSION};
use crate::scheduler::{assign_in_order, Applied, PhaseScheduler, SchedStats, SchedulerConfig};
use crate::worker::{run_worker, WorkerOptions, WorkerStats};
use crate::DistError;
use issa_circuit::cancel::CancelCause;
#[cfg(doc)]
use issa_core::campaign::CampaignOptions;
use issa_core::campaign::{
    interrupt, CampaignCorner, CampaignReport, CheckpointWriter, CornerOutcome,
};
use issa_core::checkpoint::{Checkpoint, SavePolicy};
use issa_core::driver::{restore, CornerRun, PhaseSpec};
use issa_core::montecarlo::{FailureKind, McPhase, McResume, SampleFailure};
use std::collections::{HashMap, HashSet};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Coordinator behaviour knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unit sizing, lease deadlines, retry/quarantine policy.
    pub scheduler: SchedulerConfig,
    /// Per-connection read deadline: a worker silent for this long
    /// (no request, ping, or result) is declared dead and its leases
    /// are revoked. Must exceed the worker heartbeat interval plus the
    /// worst-case single-sample compute time.
    pub worker_timeout: Duration,
    /// Main-loop wake interval: bounds checkpoint lag and lease-expiry
    /// detection latency. Also the longest a work request is held when
    /// no unit is assignable.
    pub poll: Duration,
    /// Campaign checkpoint file — same semantics as a local campaign's
    /// ([`CampaignOptions::checkpoint`]): load-and-verify on start,
    /// stream records in, delete when the campaign completes fully.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Flush the checkpoint every this many fresh records.
    pub flush_every: usize,
    /// Print corner/phase progress to stderr.
    pub progress: bool,
    /// In-process workers to spawn, each connected to the listener over
    /// real TCP — full protocol coverage without separate processes.
    pub loopback: Vec<WorkerOptions>,
    /// Test hook: stop serving after this many units have completed —
    /// checkpoint flushed, every corner not yet merged reported partial;
    /// the distributed analogue of [`CampaignOptions::abort_after`].
    pub abort_after_units: Option<u64>,
    /// Retry policy for checkpoint flushes (same semantics as
    /// [`CampaignOptions::save_policy`], including injected I/O faults).
    pub save_policy: SavePolicy,
    /// Consecutive exhausted-retry flush failures before degrading to
    /// checkpoint-less serving (see [`CampaignOptions::max_save_failures`]).
    pub max_save_failures: u32,
    /// Cap on the shutdown linger: after the campaign completes, how
    /// long to keep connections open so every remote worker re-requests
    /// and receives its `done` frame. Connections close the moment their
    /// `done` is delivered, so the full deadline is only spent on
    /// workers that vanished without disconnecting.
    pub drain_deadline: Duration,
    /// Flakiness score at which a worker is quarantined: its next
    /// handshake is rejected (with its record in the reason) and its
    /// units rebalance to healthy workers. Each lease revocation
    /// (expiry or death) adds 1.0 to the worker's score, which decays
    /// exponentially with [`ServeOptions::flaky_halflife`]. Values
    /// `<= 0` disable quarantine. The default (8.0) tolerates the
    /// occasional crash or wire fault but stops a crash-looping host
    /// from burning every unit's retry budget.
    pub flaky_threshold: f64,
    /// Half-life of the exponential decay on flakiness scores: a worker
    /// that stops misbehaving is forgiven on this timescale.
    pub flaky_halflife: Duration,
    /// Install SIGINT/SIGTERM handlers
    /// ([`issa_core::campaign::interrupt`]) and drain gracefully when
    /// one fires: stop scheduling new units, flush the checkpoint, and
    /// report partial — the same path as [`ServeOptions::abort_after_units`],
    /// so a routine restart never needs the SIGKILL-resume discipline.
    pub handle_signals: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            scheduler: SchedulerConfig::default(),
            worker_timeout: Duration::from_secs(10),
            poll: Duration::from_millis(25),
            checkpoint: None,
            flush_every: 16,
            progress: false,
            loopback: Vec::new(),
            abort_after_units: None,
            save_policy: SavePolicy::standard(),
            max_save_failures: 2,
            drain_deadline: Duration::from_secs(5),
            flaky_threshold: 8.0,
            flaky_halflife: Duration::from_secs(300),
            handle_signals: false,
        }
    }
}

/// One worker's aggregated contribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Coordinator-assigned id (one per handshake; a reconnecting worker
    /// gets a fresh id and a fresh summary row).
    pub worker_id: u64,
    /// The worker's self-reported display name.
    pub name: String,
    /// Units completed and merged (duplicates excluded).
    pub units: u64,
    /// Per-sample records merged from this worker.
    pub samples: u64,
    /// Aggregated hot-path counters of the units merged from this
    /// worker (thread-scoped, so exact in loopback mode too).
    pub perf: WorkerPerf,
}

/// What a distributed campaign accomplished.
#[derive(Debug)]
pub struct DistReport {
    /// The merged campaign outcome — same shape a local
    /// [`issa_core::campaign::run_campaign`] returns, bit-identical
    /// results included.
    pub campaign: CampaignReport,
    /// Per-handshake worker contributions, in id order.
    pub workers: Vec<WorkerSummary>,
    /// Aggregated scheduler counters across all corners and phases.
    pub sched: SchedStats,
    /// Worker names whose handshakes were rejected as flaky (one entry
    /// per name, in first-rejection order).
    pub flaky_rejected: Vec<String>,
}

struct WorkerInfo {
    name: String,
    units: u64,
    samples: u64,
    perf: WorkerPerf,
}

/// Per-worker-*name* flakiness record. Keyed by name, not handshake id:
/// a crash-looping host gets a fresh id every reconnect, and the whole
/// point is that its history follows it across reconnects.
#[derive(Debug, Clone, Copy)]
struct WorkerHealth {
    /// Decayed penalty score (1.0 per lease revocation).
    score: f64,
    /// Lifetime revocation count (for the rejection message).
    revocations: u64,
    /// When `score` was last brought current.
    updated: Instant,
}

impl WorkerHealth {
    /// Brings `score` current under exponential decay.
    fn decay_to(&mut self, now: Instant, halflife: Duration) {
        let dt = now.saturating_duration_since(self.updated).as_secs_f64();
        let hl = halflife.as_secs_f64();
        if hl > 0.0 && dt > 0.0 {
            self.score *= 0.5f64.powf(dt / hl);
        }
        self.updated = now;
    }
}

/// One phase being served, shared with connection handlers.
struct ActivePhase {
    /// The corner's position in the campaign — the dispatch order.
    corner_idx: usize,
    corner: String,
    phase: McPhase,
    swing_bits: u64,
    /// Per-device tail shift bits for tail rounds (empty otherwise).
    tail_bits: Vec<u64>,
    scheduler: PhaseScheduler,
    /// Indices still wanted in this phase; records outside it (late
    /// duplicates, indices whose offset failed) are discarded on merge.
    wanted: HashSet<usize>,
    /// Fresh records accepted from workers, drained by the main loop.
    collected: McResume,
    /// Units completed since the last drain (for the abort test hook).
    units_completed: u64,
}

struct ServeState {
    finished: bool,
    next_worker_id: u64,
    workers: HashMap<u64, WorkerInfo>,
    /// Every phase being served, in campaign order — at most one per
    /// corner. A request takes the first fresh unit in this order.
    phases: Vec<ActivePhase>,
    /// Set when a result merges or a worker is lost. The main loop waits
    /// only while it is clear, so no wake-up is lost between its passes.
    changed: bool,
    /// Results for units no served phase owns (late copies of a retired
    /// phase's units), acknowledged and discarded.
    stale_results: u64,
    /// Flakiness scores by worker name (see [`WorkerHealth`]).
    health: HashMap<String, WorkerHealth>,
    /// Names rejected as flaky, once each, in rejection order.
    flaky_rejected: Vec<String>,
}

impl ServeState {
    fn new() -> Self {
        ServeState {
            finished: false,
            next_worker_id: 1,
            workers: HashMap::new(),
            phases: Vec::new(),
            changed: false,
            stale_results: 0,
            health: HashMap::new(),
            flaky_rejected: Vec::new(),
        }
    }

    /// Leases work to `worker` from the served phases, in the order of
    /// [`assign_in_order`].
    fn assign(&mut self, worker: u64, now: Instant) -> Option<UnitAssignment> {
        let mut schedulers: Vec<&mut PhaseScheduler> =
            self.phases.iter_mut().map(|p| &mut p.scheduler).collect();
        let (k, unit_id, start, end) = assign_in_order(&mut schedulers, worker, now)?;
        let phase = &self.phases[k];
        Some(UnitAssignment {
            unit_id,
            corner: phase.corner.clone(),
            phase: phase.phase,
            swing_bits: phase.swing_bits,
            start,
            end,
            tail_bits: phase.tail_bits.clone(),
        })
    }
}

struct Shared {
    state: Mutex<ServeState>,
    cv: Condvar,
    campaign_fp: u64,
    worker_timeout: Duration,
    poll: Duration,
    flaky_threshold: f64,
    flaky_halflife: Duration,
}

fn lock(shared: &Shared) -> MutexGuard<'_, ServeState> {
    // A poisoned lock means a handler panicked mid-update; the state is
    // still sound (every mutation is a single push/insert).
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Handles one worker message, returning the reply (or `None` to
    /// drop a connection that is not speaking the protocol).
    fn handle(&self, conn_worker: &mut Option<u64>, msg: Msg) -> Option<Msg> {
        let now = Instant::now();
        let mut s = lock(self);
        match msg {
            Msg::Hello {
                proto,
                campaign_fp,
                name,
            } => {
                // Every reject reason names the expected and the actual
                // value, so the operator reading one worker's log can
                // diagnose the mismatch without the coordinator's.
                if proto != PROTO_VERSION {
                    return Some(Msg::Reject {
                        reason: format!(
                            "protocol version mismatch: worker speaks {proto}, \
                             coordinator expects {PROTO_VERSION}"
                        ),
                    });
                }
                if campaign_fp != self.campaign_fp {
                    return Some(Msg::Reject {
                        reason: format!(
                            "campaign fingerprint mismatch: worker {campaign_fp:016x}, \
                             coordinator {:016x} (corner list or configuration differs)",
                            self.campaign_fp
                        ),
                    });
                }
                if self.flaky_threshold > 0.0 {
                    if let Some(health) = s.health.get_mut(&name) {
                        health.decay_to(now, self.flaky_halflife);
                        if health.score >= self.flaky_threshold {
                            let reason = format!(
                                "worker {name:?} quarantined as flaky: score {:.1} \
                                 exceeds threshold {:.1} ({} lease revocations so far)",
                                health.score, self.flaky_threshold, health.revocations
                            );
                            if !s.flaky_rejected.iter().any(|n| n == &name) {
                                s.flaky_rejected.push(name);
                            }
                            return Some(Msg::Reject { reason });
                        }
                    }
                }
                let id = s.next_worker_id;
                s.next_worker_id += 1;
                s.workers.insert(
                    id,
                    WorkerInfo {
                        name,
                        units: 0,
                        samples: 0,
                        perf: WorkerPerf::default(),
                    },
                );
                *conn_worker = Some(id);
                Some(Msg::Welcome { worker_id: id })
            }
            _ if conn_worker.is_none() => Some(Msg::Reject {
                reason: "handshake required before any other message".into(),
            }),
            Msg::Ping { .. } => Some(Msg::Ok),
            Msg::Request { worker_id } => {
                // Long poll: hold the request until a unit appears or the
                // campaign ends, for at most one poll interval; then
                // `wait 0`, and the worker asks again at once.
                let deadline = now + self.poll;
                loop {
                    if s.finished {
                        return Some(Msg::Done);
                    }
                    let now = Instant::now();
                    if let Some(assignment) = s.assign(worker_id, now) {
                        return Some(Msg::Assign(assignment));
                    }
                    let left = deadline.saturating_duration_since(now);
                    if left.is_zero() {
                        return Some(Msg::Wait { millis: 0 });
                    }
                    s = self
                        .cv
                        .wait_timeout(s, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
            Msg::Result(r) => {
                let unit_id = r.unit_id;
                // Split borrows: the phase and the worker rows are fields
                // of one state.
                let st = &mut *s;
                match st.phases.iter_mut().find(|p| p.scheduler.owns(unit_id)) {
                    Some(phase) => {
                        if phase.scheduler.apply_result(unit_id) == Applied::Fresh {
                            let mut merged_samples: u64 = 0;
                            for (i, v) in r.offsets {
                                if phase.phase == McPhase::Offset && phase.wanted.remove(&i) {
                                    phase.collected.offsets.push((i, v));
                                    merged_samples += 1;
                                }
                            }
                            for (i, v) in r.delays {
                                if phase.phase == McPhase::Delay && phase.wanted.remove(&i) {
                                    phase.collected.delays.push((i, v));
                                    merged_samples += 1;
                                }
                            }
                            for f in r.failures {
                                if f.phase == phase.phase && phase.wanted.remove(&f.index) {
                                    phase.collected.failures.push(f);
                                    merged_samples += 1;
                                }
                            }
                            phase.units_completed += 1;
                            if let Some(w) = st.workers.get_mut(&r.worker_id) {
                                w.units += 1;
                                w.samples += merged_samples;
                                w.perf = w.perf.saturating_add(&r.perf);
                            }
                            st.changed = true;
                            self.cv.notify_all();
                        }
                    }
                    // A late copy of a retired phase's unit: its records
                    // are already covered, bit-identically, by whoever
                    // finished first — acknowledged all the same.
                    None => st.stale_results += 1,
                }
                Some(Msg::Ack { unit_id })
            }
            Msg::Welcome { .. }
            | Msg::Reject { .. }
            | Msg::Assign(_)
            | Msg::Wait { .. }
            | Msg::Done
            | Msg::Ok
            | Msg::Ack { .. } => None,
        }
    }

    /// A connection died (EOF, read deadline, bad frame): revoke the
    /// worker's leases so its units retry elsewhere.
    fn worker_lost(&self, worker_id: u64) {
        let now = Instant::now();
        let mut s = lock(self);
        for phase in &mut s.phases {
            phase.scheduler.worker_dead(worker_id, now);
        }
        s.changed = true;
        self.cv.notify_all();
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    if stream
        .set_read_timeout(Some(shared.worker_timeout))
        .is_err()
    {
        return;
    }
    let mut frames = FrameStream::new(stream);
    let mut conn_worker: Option<u64> = None;
    while let Ok(payload) = frames.recv() {
        let Ok(msg) = Msg::from_bytes(&payload) else {
            // A decodable frame with an undecodable message: the peer is
            // confused — drop the connection, let it re-handshake.
            break;
        };
        match shared.handle(&mut conn_worker, msg) {
            Some(reply) => {
                let done = matches!(reply, Msg::Done);
                if frames.send(&reply.to_bytes()).is_err() {
                    break;
                }
                if done {
                    // The worker has its `done`; closing now lets the
                    // shutdown drain finish as soon as the last one is
                    // delivered instead of waiting out the deadline.
                    break;
                }
            }
            None => break,
        }
    }
    if let Some(id) = conn_worker {
        shared.worker_lost(id);
    }
}

/// Serves a campaign to workers connecting on `listener` (bind it
/// yourself — `127.0.0.1:0` in tests — so the address is known before
/// serving starts). Returns when every corner is merged, or when the
/// abort hook fires.
///
/// # Errors
///
/// Startup problems only, mirroring the local engine: an untrusted or
/// mismatched checkpoint ([`DistError::Campaign`]), or listener
/// configuration failures ([`DistError::Io`]). Runtime trouble — worker
/// churn, quarantined units, failed corners — degrades into the
/// [`DistReport`].
pub fn serve_campaign(
    listener: TcpListener,
    corners: &[CampaignCorner],
    opts: &ServeOptions,
) -> Result<DistReport, DistError> {
    // Load and verify prior state before accepting anyone.
    let (runs, resumed_records) = restore(
        corners,
        opts.checkpoint.as_deref(),
        opts.progress.then_some("serve"),
    )?;
    if opts.progress && resumed_records > 0 {
        eprintln!("serve: resuming with {resumed_records} checkpointed records");
    }

    if opts.handle_signals {
        // Clear any interrupt latched by a previous run in this process
        // before arming the handlers for this one.
        interrupt::reset();
        interrupt::install();
    }

    let shared = Arc::new(Shared {
        state: Mutex::new(ServeState::new()),
        cv: Condvar::new(),
        campaign_fp: campaign_fingerprint(corners),
        worker_timeout: opts.worker_timeout,
        poll: opts.poll,
        flaky_threshold: opts.flaky_threshold,
        flaky_halflife: opts.flaky_halflife,
    });

    // Handlers exit on their read deadline or when their worker
    // disconnects.
    let local_addr = listener.local_addr()?;
    let acceptor = {
        let shared = Arc::clone(&shared);
        Acceptor::spawn(listener, move |stream| handle_connection(stream, &shared))?
    };

    // Loopback workers: real TCP, real protocol, one process.
    let loopback: Vec<_> = opts
        .loopback
        .iter()
        .cloned()
        .map(|wopts| {
            let corners = corners.to_vec();
            std::thread::spawn(move || run_worker(local_addr, &corners, &wopts))
        })
        .collect();

    let mut writer = opts
        .checkpoint
        .clone()
        .map(|p| CheckpointWriter::new(p, opts.save_policy.clone(), opts.max_save_failures));
    let (mut campaign, mut sched) =
        drive_campaign(runs, corners, opts, &shared, resumed_records, &mut writer);

    // Shut everything down before reporting: workers drain on `done`.
    lock(&shared).finished = true;
    shared.cv.notify_all();
    for handle in loopback {
        match handle.join() {
            Ok(Ok(stats)) => log_worker_exit(opts, &stats),
            Ok(Err(e)) => {
                if opts.progress {
                    eprintln!("serve: loopback worker error: {e}");
                }
            }
            Err(_) => {
                if opts.progress {
                    eprintln!("serve: loopback worker panicked");
                }
            }
        }
    }
    // Linger until every connected (remote) worker has re-requested and
    // received its `done` — connections close as soon as their `done` is
    // delivered and each close wakes this wait, so it ends the moment
    // none are outstanding; the deadline only caps workers that vanished
    // without disconnecting.
    acceptor.wait_idle(Instant::now() + opts.drain_deadline);
    acceptor.stop();

    campaign.checkpoint_degraded = writer.as_ref().and_then(|w| w.degraded().map(String::from));
    let (mut workers, flaky_rejected) = {
        let s = lock(&shared);
        sched.duplicates = sched.duplicates.saturating_add(s.stale_results);
        let workers: Vec<WorkerSummary> = s
            .workers
            .iter()
            .map(|(&worker_id, info)| WorkerSummary {
                worker_id,
                name: info.name.clone(),
                units: info.units,
                samples: info.samples,
                perf: info.perf,
            })
            .collect();
        (workers, s.flaky_rejected.clone())
    };
    workers.sort_by_key(|w| w.worker_id);
    Ok(DistReport {
        campaign,
        workers,
        sched,
        flaky_rejected,
    })
}

fn log_worker_exit(opts: &ServeOptions, stats: &WorkerStats) {
    if opts.progress && stats.died {
        eprintln!(
            "serve: loopback worker died by script after {} units",
            stats.units_done
        );
    }
}

/// The main loop, on the coordinator thread: every corner's driver steps
/// through its phases on its own, all of their ready phases are served
/// at once, and records are merged and checkpointed as they arrive.
fn drive_campaign(
    mut runs: Vec<CornerRun<'_>>,
    corners: &[CampaignCorner],
    opts: &ServeOptions,
    shared: &Shared,
    resumed_records: usize,
    writer: &mut Option<CheckpointWriter>,
) -> (CampaignReport, SchedStats) {
    let mut sched_total = SchedStats::default();
    let mut units_budget = opts.abort_after_units;
    let stop_requested =
        |budget: Option<u64>| budget == Some(0) || (opts.handle_signals && interrupt::requested());
    let mut aborted = stop_requested(units_budget);
    // Corners whose phase just finished — at the start, every corner.
    let mut ready: Vec<usize> = (0..runs.len()).collect();
    let mut fresh_since_flush = 0usize;
    while !aborted {
        let boundary = !ready.is_empty();
        for k in ready.drain(..) {
            let run = &mut runs[k];
            let Some(spec) = run.advance(None) else {
                continue;
            };
            let swing = match spec.phase {
                McPhase::Offset => 0.0,
                // `None`: the corner failed deriving the swing.
                McPhase::Delay => match run.delay_swing() {
                    Some(swing) => swing,
                    None => continue,
                },
            };
            install(shared, opts, k, run.name(), spec, swing);
        }
        // Phase boundaries always flush, so a killed coordinator restarts
        // from at worst one poll interval of lost records.
        if fresh_since_flush > 0
            && (boundary || (opts.flush_every > 0 && fresh_since_flush >= opts.flush_every))
        {
            fresh_since_flush = 0;
            flush_checkpoint(writer, &mut runs);
        }
        if runs.iter().all(|r| r.outcome().is_some()) {
            break;
        }

        let pass = serve_pass(shared, opts, corners);
        sched_total = sched_total.saturating_add(&pass.retired_stats);
        for (k, records) in pass.records {
            fresh_since_flush += records.records();
            runs[k].absorb(records);
        }
        if let Some(budget) = units_budget.as_mut() {
            *budget = budget.saturating_sub(pass.units);
        }
        // The abort hook and SIGINT/SIGTERM take the same graceful path:
        // stop scheduling, flush below, report in-flight corners partial.
        aborted = stop_requested(units_budget);
        ready = pass.finished;
    }

    if aborted {
        let mut s = lock(shared);
        for phase in s.phases.drain(..) {
            sched_total = sched_total.saturating_add(&phase.scheduler.stats);
        }
        drop(s);
        for run in runs.iter_mut() {
            run.cancel();
        }
    }

    let cancelled = aborted.then_some(CancelCause::Interrupt);
    let partial = cancelled.is_some()
        || runs
            .iter()
            .any(|r| !matches!(r.outcome(), Some(CornerOutcome::Completed(res)) if !res.partial));
    if partial {
        flush_checkpoint(writer, &mut runs);
    } else if let Some(path) = &opts.checkpoint {
        let _ = std::fs::remove_file(path);
    }
    (
        CampaignReport {
            corners: runs.into_iter().map(CornerRun::into_report).collect(),
            resumed_records,
            cancelled,
            partial,
            // Filled in by the caller from the writer's final state.
            checkpoint_degraded: None,
        },
        sched_total,
    )
}

/// What one pass of the main loop collected from the served phases.
#[derive(Default)]
struct Pass {
    /// Fresh records by corner position.
    records: Vec<(usize, McResume)>,
    /// Corners whose phase completed (and was retired) this pass.
    finished: Vec<usize>,
    /// Units completed this pass (for the abort test hook).
    units: u64,
    /// Scheduler counters of the phases retired this pass.
    retired_stats: SchedStats,
}

/// One pass of the main loop: waits (unless something already changed)
/// up to one poll interval, then ticks every served phase's leases,
/// scores revocations, quarantines exhausted units, drains fresh
/// records, and retires completed phases.
fn serve_pass(shared: &Shared, opts: &ServeOptions, corners: &[CampaignCorner]) -> Pass {
    let mut s = lock(shared);
    if !s.changed {
        s = shared
            .cv
            .wait_timeout(s, opts.poll)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
    s.changed = false;
    let now = Instant::now();
    // Split borrows: the schedulers live in `phases`, the flakiness
    // records in `health`/`workers` — all fields of one state.
    let st = &mut *s;
    let mut pass = Pass::default();
    for active in &mut st.phases {
        active.scheduler.tick(now);

        // Flakiness: every revocation (lease expiry or worker death)
        // charges the worker's *name*, so a crash-looping host keeps its
        // record across reconnects and is eventually refused at the
        // handshake instead of burning unit retry budgets.
        for wid in active.scheduler.drain_revoked() {
            let Some(name) = st.workers.get(&wid).map(|w| w.name.clone()) else {
                continue;
            };
            let health = st.health.entry(name).or_insert(WorkerHealth {
                score: 0.0,
                revocations: 0,
                updated: now,
            });
            health.decay_to(now, shared.flaky_halflife);
            health.score += 1.0;
            health.revocations += 1;
        }

        // Quarantine: exhausted units become ordinary TimedOut failures,
        // one per still-missing index, and flow through the same budget
        // machinery as any other quarantined sample.
        let cfg = &corners[active.corner_idx].cfg;
        for (unit_id, start, end, attempts) in active.scheduler.drain_quarantined() {
            for index in start..end {
                if !active.wanted.remove(&index) {
                    continue;
                }
                active.collected.failures.push(SampleFailure {
                    index,
                    seed: cfg.seed,
                    corner: cfg.corner_label(),
                    phase: active.phase,
                    kind: FailureKind::TimedOut,
                    error: format!(
                        "distributed unit {unit_id} quarantined after {attempts} lease \
                         attempts (worker loss or lease timeout)"
                    ),
                    recovery_attempts: 0,
                });
            }
        }

        let records = std::mem::take(&mut active.collected);
        if records.records() > 0 {
            pass.records.push((active.corner_idx, records));
        }
        pass.units += std::mem::take(&mut active.units_completed);
        if active.scheduler.is_complete() {
            pass.finished.push(active.corner_idx);
            pass.retired_stats = pass.retired_stats.saturating_add(&active.scheduler.stats);
        }
    }
    st.phases.retain(|p| !p.scheduler.is_complete());
    pass
}

/// Installs a corner's next phase among the served ones, in campaign
/// order, and wakes held requests.
fn install(
    shared: &Shared,
    opts: &ServeOptions,
    corner_idx: usize,
    corner: &str,
    spec: PhaseSpec,
    swing: f64,
) {
    let ranges = PhaseScheduler::ranges_of(&spec.pending, opts.scheduler.unit_samples);
    // Unit ids are globally unique, so a result routes to its phase by id
    // alone and a stale one from a retired phase is never taken for fresh.
    static NEXT_UNIT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    let base_id = NEXT_UNIT_ID.fetch_add(ranges.len() as u64, Ordering::Relaxed);
    if opts.progress {
        eprintln!(
            "serve: corner {corner:?} {} phase: {} samples in {} units",
            spec.phase,
            spec.pending.len(),
            ranges.len()
        );
    }
    let phase = ActivePhase {
        corner_idx,
        corner: corner.to_owned(),
        phase: spec.phase,
        swing_bits: swing.to_bits(),
        tail_bits: spec.tail_bits(),
        scheduler: PhaseScheduler::new(&ranges, base_id, &opts.scheduler),
        wanted: spec.pending.into_iter().collect(),
        collected: McResume::default(),
        units_completed: 0,
    };
    let mut s = lock(shared);
    let at = s.phases.partition_point(|p| p.corner_idx < corner_idx);
    s.phases.insert(at, phase);
    drop(s);
    shared.cv.notify_all();
}

/// Writes the checkpoint — every corner with records, in campaign order —
/// through the degradation-aware writer: transient I/O trouble retries
/// inside [`CheckpointWriter::flush`], persistent trouble degrades the
/// run to checkpoint-less serving instead of failing it.
fn flush_checkpoint(writer: &mut Option<CheckpointWriter>, runs: &mut [CornerRun<'_>]) {
    let Some(writer) = writer.as_mut() else {
        return;
    };
    let corners = runs.iter_mut().filter_map(CornerRun::checkpoint).collect();
    writer.flush(&Checkpoint { corners });
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn test_shared(threshold: f64) -> Shared {
        Shared {
            state: Mutex::new(ServeState::new()),
            cv: Condvar::new(),
            campaign_fp: 0xabcd_ef01_2345_6789,
            worker_timeout: Duration::from_secs(10),
            poll: Duration::from_millis(25),
            flaky_threshold: threshold,
            flaky_halflife: Duration::from_secs(300),
        }
    }

    fn reject_reason(reply: Option<Msg>) -> String {
        match reply {
            Some(Msg::Reject { reason }) => reason,
            other => panic!("expected Reject, got {other:?}"),
        }
    }

    #[test]
    fn proto_reject_names_expected_and_actual() {
        let shared = test_shared(8.0);
        let reason = reject_reason(shared.handle(
            &mut None,
            Msg::Hello {
                proto: 99,
                campaign_fp: shared.campaign_fp,
                name: "w".into(),
            },
        ));
        assert!(reason.contains("99"), "actual version missing: {reason}");
        assert!(
            reason.contains(&PROTO_VERSION.to_string()),
            "expected version missing: {reason}"
        );
    }

    #[test]
    fn fingerprint_reject_names_expected_and_actual() {
        let shared = test_shared(8.0);
        let reason = reject_reason(shared.handle(
            &mut None,
            Msg::Hello {
                proto: PROTO_VERSION,
                campaign_fp: 0x1111_2222_3333_4444,
                name: "w".into(),
            },
        ));
        assert!(
            reason.contains("1111222233334444"),
            "worker fingerprint missing: {reason}"
        );
        assert!(
            reason.contains("abcdef0123456789"),
            "coordinator fingerprint missing: {reason}"
        );
    }

    #[test]
    fn flaky_worker_is_rejected_at_rehandshake_with_its_record() {
        let shared = test_shared(2.0);
        let hello = Msg::Hello {
            proto: PROTO_VERSION,
            campaign_fp: shared.campaign_fp,
            name: "flapper".into(),
        };
        // First handshake succeeds — no record yet.
        let mut conn = None;
        assert!(matches!(
            shared.handle(&mut conn, hello.clone()),
            Some(Msg::Welcome { .. })
        ));
        // Charge the name past the threshold.
        {
            let mut s = lock(&shared);
            s.health.insert(
                "flapper".into(),
                WorkerHealth {
                    score: 3.0,
                    revocations: 3,
                    updated: Instant::now(),
                },
            );
        }
        let reason = reject_reason(shared.handle(&mut None, hello.clone()));
        assert!(reason.contains("flapper"), "name missing: {reason}");
        assert!(reason.contains("quarantined as flaky"), "{reason}");
        assert!(reason.contains("3 lease revocations"), "{reason}");
        // A differently-named (healthy) worker is still welcome.
        assert!(matches!(
            shared.handle(
                &mut None,
                Msg::Hello {
                    proto: PROTO_VERSION,
                    campaign_fp: shared.campaign_fp,
                    name: "healthy".into(),
                },
            ),
            Some(Msg::Welcome { .. })
        ));
        assert_eq!(lock(&shared).flaky_rejected, vec!["flapper".to_string()]);
    }

    #[test]
    fn flaky_scores_decay_toward_forgiveness() {
        let mut h = WorkerHealth {
            score: 8.0,
            revocations: 8,
            updated: Instant::now(),
        };
        let later = h.updated + Duration::from_secs(600);
        h.decay_to(later, Duration::from_secs(300));
        assert!((h.score - 2.0).abs() < 1e-9, "two half-lives: {}", h.score);
        // Zero half-life disables decay rather than dividing by zero.
        let before = h.score;
        h.decay_to(later + Duration::from_secs(60), Duration::ZERO);
        assert_eq!(h.score, before);
    }
}
