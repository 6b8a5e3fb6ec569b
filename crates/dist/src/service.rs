//! The long-lived campaign service: a supervised registry of concurrent
//! campaigns behind a line-oriented JSON control plane.
//!
//! # Supervision tree
//!
//! ```text
//! run_service (dispatcher, owns journal + registry + cache)
//! ├── acceptor thread (the blocking accept loop shared with the coordinator)
//! │   └── one detached handler thread per connection (LineReader, 250 ms poll)
//! └── one detached runner thread per Running submission
//!     └── run_campaign (its own worker pool, checkpoint sink, token)
//! ```
//!
//! Every campaign is an isolated supervised task: a panic inside a
//! runner is caught, the submission backs off (bounded doubling delay)
//! and restarts *from its checkpoint*; after
//! [`ServiceOptions::crash_loop_limit`] consecutive crashes it is
//! quarantined — recorded, inspectable, never retried silently.
//!
//! # Durability
//!
//! Accepted work is never lost: a submission is acknowledged only after
//! its `submit` record is fsync'd into the CRC-framed journal
//! ([`crate::journal`]), and campaign progress streams into per-
//! submission `ISSA-CKPT` checkpoints. A SIGKILLed service restarts,
//! replays the journal, requeues every non-terminal submission, and
//! resumes each from its checkpoint — bit-identical to an uninterrupted
//! run, because samples are pure functions of `(config, index)`.
//!
//! # Admission, backpressure, degradation
//!
//! The service refuses work it cannot hold: beyond
//! [`ServiceOptions::max_queue`] active submissions (or a tenant's
//! [`ServiceOptions::tenant_quota`]) a submit gets an explicit
//! `Rejected{reason}` instead of an unbounded accept. Inside, control
//! events flow through a *bounded* channel — a busy dispatcher
//! backpressures connection handlers instead of growing a queue — and
//! record ingest is throttled by construction: the checkpoint sink
//! flushes synchronously on the worker that crossed the flush
//! threshold, so slow checkpoint I/O slows producers rather than
//! buffering samples without bound. Checkpoint I/O that fails outright
//! degrades per-campaign (checkpoint-less mode) exactly as local runs
//! do; the journal, by contrast, is load-bearing — a journal append
//! failure fails the submit that needed it.

use crate::acceptor::Acceptor;
use crate::cache::{CacheLookup, EvictionPolicy, EvictionReport, ResultCache};
use crate::control::{error_response, ok_response, ControlRequest, Json, LineReader, NextLine};
use crate::journal::Journal;
use crate::proto::{campaign_fingerprint, PROTO_VERSION};
use crate::DistError;
use issa_circuit::cancel::{CancelCause, CancelToken};
use issa_core::campaign::{
    run_campaign, CampaignCorner, CampaignOptions, CampaignReport, SIGNAL_TICK,
};
use issa_core::checkpoint::{escape, unescape};
use issa_core::durable::sweep_stale_temps;
use std::io::Write;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a service embedder turns submission parameters into campaign
/// corners and turns finished campaigns into artifacts. The bench
/// binary's host builds table/figure corners and writes CSVs; tests
/// plug in smoke corners.
pub trait ServiceHost: Send + Sync + 'static {
    /// Translates a submission's `params` object into the corners to
    /// run. An `Err` rejects the submission (explicitly, at admission).
    ///
    /// Must be deterministic: replay after a restart re-derives corners
    /// from the journaled params and must reach the same campaign.
    ///
    /// # Errors
    ///
    /// A human-readable rejection reason.
    fn corners(&self, params: &Json) -> Result<Vec<CampaignCorner>, String>;

    /// Called on the runner thread after a campaign fully completes;
    /// writes result artifacts into `info.results_dir` and returns
    /// their file names (recorded in the journal and served by
    /// `fetch`).
    fn completed(&self, info: &SubmissionInfo, report: &CampaignReport) -> Vec<String>;
}

/// Everything a [`ServiceHost`] needs to know about one submission.
#[derive(Debug, Clone)]
pub struct SubmissionInfo {
    /// Service-assigned id (`c0001`, `c0002`, …).
    pub id: String,
    /// The submitting tenant.
    pub tenant: String,
    /// Campaign fingerprint ([`campaign_fingerprint`]) — the cache key.
    pub fingerprint: u64,
    /// The submission's params object, as journaled.
    pub params: Json,
    /// Directory the host writes artifacts into (already created).
    pub results_dir: PathBuf,
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Service state directory: `service.jrnl`, `cache/`, `ckpt/`,
    /// `results/<id>/`.
    pub dir: PathBuf,
    /// Campaigns running concurrently; further admitted work queues.
    pub max_concurrent: usize,
    /// Active (queued + running + backing-off) submissions admitted
    /// before submits are rejected with `queue full`.
    pub max_queue: usize,
    /// Active submissions a single tenant may hold.
    pub tenant_quota: usize,
    /// Consecutive runner panics before a submission is quarantined.
    pub crash_loop_limit: u32,
    /// First restart delay after a panic; doubles per consecutive crash.
    pub restart_backoff: Duration,
    /// Checkpoint flush cadence passed to every campaign.
    pub flush_every: usize,
    /// Log lifecycle events to stderr.
    pub progress: bool,
    /// Install SIGINT/SIGTERM handlers and drain when one fires (the
    /// `shutdown` verb drains regardless). Off in tests — the flag is
    /// process-global.
    pub handle_signals: bool,
    /// Build identification reported by `health` and `campaign.json`.
    pub build_info: String,
    /// Result-cache size/age bounds, applied at startup and after every
    /// runner event. Unbounded by default.
    pub cache_eviction: EvictionPolicy,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            dir: PathBuf::from("service-state"),
            max_concurrent: 2,
            max_queue: 16,
            tenant_quota: 8,
            crash_loop_limit: 3,
            restart_backoff: Duration::from_millis(100),
            flush_every: 1,
            progress: false,
            handle_signals: false,
            build_info: String::new(),
            cache_eviction: EvictionPolicy::default(),
        }
    }
}

/// Cache incident counters surfaced by the `health` verb.
#[derive(Debug, Default)]
struct CacheHealth {
    /// Entries quarantined (pre-existing at startup + this incarnation).
    quarantined: u64,
    /// Files evicted this incarnation (entries + aged-out quarantine).
    evicted: u64,
    /// Bytes freed by eviction this incarnation.
    evicted_bytes: u64,
}

impl CacheHealth {
    fn absorb(&mut self, report: EvictionReport, progress: bool) {
        if report == EvictionReport::default() {
            return;
        }
        self.evicted += (report.evicted_entries + report.evicted_quarantined) as u64;
        self.evicted_bytes += report.bytes_freed;
        if progress {
            eprintln!(
                "service: cache eviction removed {} entr{} + {} quarantined ({} bytes)",
                report.evicted_entries,
                if report.evicted_entries == 1 {
                    "y"
                } else {
                    "ies"
                },
                report.evicted_quarantined,
                report.bytes_freed
            );
        }
    }
}

/// What one [`run_service`] incarnation did (logged by the binary).
#[derive(Debug, Default)]
pub struct ServiceSummary {
    /// Submissions that reached `Completed` this incarnation.
    pub completed: usize,
    /// Non-terminal submissions parked for the next incarnation.
    pub parked: usize,
    /// Stale atomic-write temporaries removed at startup.
    pub swept: Vec<PathBuf>,
    /// Journal records dropped as a torn tail at startup.
    pub torn_bytes: usize,
}

/// Lifecycle of one submission.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SubState {
    Queued,
    Running,
    Backoff { until: Instant },
    Completed,
    Failed(String),
    Cancelled,
    Quarantined(String),
}

impl SubState {
    fn word(&self) -> &'static str {
        match self {
            SubState::Queued => "queued",
            SubState::Running => "running",
            SubState::Backoff { .. } => "backoff",
            SubState::Completed => "completed",
            SubState::Failed(_) => "failed",
            SubState::Cancelled => "cancelled",
            SubState::Quarantined(_) => "quarantined",
        }
    }

    fn terminal(&self) -> bool {
        matches!(
            self,
            SubState::Completed
                | SubState::Failed(_)
                | SubState::Cancelled
                | SubState::Quarantined(_)
        )
    }
}

struct Submission {
    id: String,
    tenant: String,
    fingerprint: u64,
    params: Json,
    /// The corners to run; empty once the submission is terminal, so the
    /// registry's memory does not grow with every campaign it has run.
    corners: Vec<CampaignCorner>,
    state: SubState,
    /// Consecutive runner panics (resets on clean completion only).
    crashes: u32,
    cache_hit: bool,
    artifacts: Vec<String>,
    reason: String,
    /// Token cancelling the in-flight run (present while Running).
    token: Option<CancelToken>,
    /// Set before cancelling from outside, so the runner (and the crash
    /// hook) can tell a supervisor-initiated stop from its own abort.
    external: Arc<AtomicBool>,
    /// `cancel` verb arrived (distinguishes Cancel from drain parking).
    cancel_requested: bool,
    /// Deterministic crash hook: panic after this many fresh samples…
    crash_after: Option<usize>,
    /// …on this many initial attempts.
    crash_attempts: u32,
}

impl Submission {
    /// Moves into a terminal state, dropping the corners no run needs
    /// again.
    fn settle(&mut self, state: SubState) {
        debug_assert!(state.terminal());
        self.state = state;
        self.corners = Vec::new();
    }
}

/// What a runner thread reports back to the dispatcher.
enum RunnerOutcome {
    /// Campaign fully completed; artifacts written, cache installed.
    Done {
        cache_hit: bool,
        artifacts: Vec<String>,
    },
    /// Stopped by external cancellation (drain or `cancel` verb);
    /// checkpoint flushed, nothing journaled by the runner.
    Stopped,
    /// The campaign ended partial/failed without external cause.
    Failed(String),
    /// The runner panicked (supervised restart path).
    Panicked(String),
    /// A cache entry failed verification and was quarantined (health
    /// counter); the runner continues by recomputing.
    CacheQuarantined { reason: String },
}

enum Event {
    Control {
        req: Result<ControlRequest, String>,
        reply: SyncSender<String>,
    },
    Runner {
        id: String,
        outcome: RunnerOutcome,
    },
}

/// Runs the service until drained (by the `shutdown` verb, or by
/// SIGINT/SIGTERM when [`ServiceOptions::handle_signals`] is set).
/// Binding is the caller's job so tests can use an ephemeral port.
///
/// # Errors
///
/// Startup failures only: unusable state directory, unreadable journal
/// file, listener configuration. Runtime trouble degrades per
/// submission instead.
#[allow(clippy::too_many_lines)]
pub fn run_service(
    listener: TcpListener,
    host: Arc<dyn ServiceHost>,
    opts: &ServiceOptions,
) -> Result<ServiceSummary, DistError> {
    let dirs = ServiceDirs::create(&opts.dir)?;
    let mut summary = ServiceSummary::default();
    for dir in [&opts.dir, &dirs.cache, &dirs.ckpt] {
        summary.swept.extend(sweep_stale_temps(dir));
    }
    if opts.progress {
        for path in &summary.swept {
            eprintln!("service: swept stale temp {}", path.display());
        }
    }
    let cache = ResultCache::open(&dirs.cache)?;

    // Replay: rebuild the registry from the journal, then compact so the
    // file starts clean (torn tail dropped, state collapsed).
    let replay = Journal::replay(&dirs.journal)?;
    summary.torn_bytes = replay.torn_bytes;
    if opts.progress && replay.torn_bytes > 0 {
        eprintln!(
            "service: dropped {} torn journal bytes at startup",
            replay.torn_bytes
        );
    }
    let mut registry = Registry::replay(&replay.records, host.as_ref());
    Journal::compact(&dirs.journal, &registry.snapshot_records())?;
    let mut journal = Journal::open_append(&dirs.journal)?;
    if opts.progress {
        eprintln!(
            "service: restored {} submissions ({} requeued) from journal",
            registry.subs.len(),
            registry.active_count(),
        );
    }

    if opts.handle_signals {
        issa_core::campaign::interrupt::reset();
        issa_core::campaign::interrupt::install();
    }

    // Bounded control plane: handlers block here when the dispatcher is
    // busy — backpressure, not a queue.
    let (events_tx, events_rx): (SyncSender<Event>, Receiver<Event>) = sync_channel(64);
    let conn_shutdown = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let events = events_tx.clone();
        let shutdown = Arc::clone(&conn_shutdown);
        Acceptor::spawn(listener, move |s| handle_connection(s, &events, &shutdown))?
    };

    let mut draining = false;
    let mut cache_health = CacheHealth {
        quarantined: cache.quarantined().len() as u64,
        ..CacheHealth::default()
    };
    // Startup pass: a service that was down past the age bound trims on
    // arrival instead of waiting for the first completion.
    cache_health.absorb(cache.evict(&opts.cache_eviction), opts.progress);

    loop {
        let now = Instant::now();
        if opts.handle_signals && issa_core::campaign::interrupt::requested() {
            draining = true;
        }
        if draining {
            registry.cancel_running_for_drain();
        }

        // Schedule queued/expired-backoff submissions into free slots.
        if !draining {
            while registry.running_count() < opts.max_concurrent {
                let Some(id) = registry.next_runnable(now) else {
                    break;
                };
                start_runner(
                    &mut registry,
                    &id,
                    &dirs,
                    &cache,
                    Arc::clone(&host),
                    opts,
                    events_tx.clone(),
                );
                journal_state(&mut journal, &id, "running", "");
            }
        }

        if draining && registry.running_count() == 0 {
            break;
        }

        let event = match dispatcher_wait(&registry, now, opts.handle_signals) {
            Some(wait) => match events_rx.recv_timeout(wait) {
                Ok(event) => event,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            },
            None => match events_rx.recv() {
                Ok(event) => event,
                Err(_) => break,
            },
        };
        match event {
            Event::Runner { id, outcome } => {
                handle_runner_outcome(
                    &mut registry,
                    &mut journal,
                    &mut summary,
                    &mut cache_health,
                    &id,
                    outcome,
                    opts,
                );
                // Completions install entries; keep the cache inside its
                // bounds as it grows, not just at startup.
                cache_health.absorb(cache.evict(&opts.cache_eviction), opts.progress);
            }
            Event::Control { req, reply } => {
                let response = match req {
                    Err(reason) => error_response(&reason, true),
                    Ok(ControlRequest::Shutdown) => {
                        draining = true;
                        ok_response(vec![("draining".into(), Json::Bool(true))])
                    }
                    Ok(req) => handle_request(
                        &mut registry,
                        &mut journal,
                        host.as_ref(),
                        opts,
                        draining,
                        &cache,
                        &cache_health,
                        &summary,
                        &req,
                    ),
                };
                // A handler that died mid-request just drops the reply.
                let _ = reply.send(response);
            }
        }
    }

    // Drained: every runner has flushed its checkpoint and reported.
    journal.append("shutdown").map_err(DistError::Io)?;
    summary.parked = registry.active_count();
    if opts.progress {
        eprintln!(
            "service: drained — {} completed, {} parked for next start",
            summary.completed, summary.parked
        );
    }
    conn_shutdown.store(true, Ordering::SeqCst);
    // Keep answering control events until every connection handler has
    // noticed the shutdown flag and exited: the channel disconnects once
    // the last sender — the acceptor's, each handler's, each (detached)
    // runner's — is gone. An acceptor that could not be woken keeps its
    // sender for good, so then return at once: dropping the receiver
    // fails the remaining handlers' sends.
    if acceptor.stop() {
        drop(events_tx);
        while let Ok(event) = events_rx.recv() {
            if let Event::Control { reply, .. } = event {
                let _ = reply.send(error_response("service is shutting down", true));
            }
        }
    } else {
        eprintln!("warning: service acceptor could not be woken; connections not drained");
    }
    Ok(summary)
}

/// How long the dispatcher may block in its event channel after the
/// scheduling pass at `now`: until the earliest backoff still running at
/// `now`, capped at [`SIGNAL_TICK`] while it watches for signals; `None`
/// blocks until the next event. A backoff that had expired by `now` was
/// offered to that pass and waits for a free slot or the end of a drain,
/// which only an event brings.
fn dispatcher_wait(registry: &Registry, now: Instant, signals: bool) -> Option<Duration> {
    let backoff = registry
        .subs
        .iter()
        .filter_map(|s| match s.state {
            SubState::Backoff { until } if until > now => Some(until - now),
            _ => None,
        })
        .min();
    if signals {
        Some(backoff.map_or(SIGNAL_TICK, |wait| wait.min(SIGNAL_TICK)))
    } else {
        backoff
    }
}

/// The service state directory layout.
struct ServiceDirs {
    journal: PathBuf,
    cache: PathBuf,
    ckpt: PathBuf,
    results: PathBuf,
}

impl ServiceDirs {
    fn create(dir: &Path) -> std::io::Result<ServiceDirs> {
        let dirs = ServiceDirs {
            journal: dir.join("service.jrnl"),
            cache: dir.join("cache"),
            ckpt: dir.join("ckpt"),
            results: dir.join("results"),
        };
        for d in [&dirs.cache, &dirs.ckpt, &dirs.results] {
            std::fs::create_dir_all(d)?;
        }
        Ok(dirs)
    }
}

struct Registry {
    subs: Vec<Submission>,
    next_seq: u64,
}

impl Registry {
    fn get(&self, id: &str) -> Option<&Submission> {
        self.subs.iter().find(|s| s.id == id)
    }

    fn get_mut(&mut self, id: &str) -> Option<&mut Submission> {
        self.subs.iter_mut().find(|s| s.id == id)
    }

    fn running_count(&self) -> usize {
        self.subs
            .iter()
            .filter(|s| s.state == SubState::Running)
            .count()
    }

    fn active_count(&self) -> usize {
        self.subs.iter().filter(|s| !s.state.terminal()).count()
    }

    fn tenant_active(&self, tenant: &str) -> usize {
        self.subs
            .iter()
            .filter(|s| s.tenant == tenant && !s.state.terminal())
            .count()
    }

    /// The oldest submission ready to run at `now` (queued, or backoff
    /// expired).
    fn next_runnable(&self, now: Instant) -> Option<String> {
        self.subs
            .iter()
            .find(|s| match &s.state {
                SubState::Queued => true,
                SubState::Backoff { until } => *until <= now,
                _ => false,
            })
            .map(|s| s.id.clone())
    }

    fn cancel_running_for_drain(&mut self) {
        for sub in &mut self.subs {
            if sub.state == SubState::Running {
                sub.external.store(true, Ordering::SeqCst);
                if let Some(token) = &sub.token {
                    token.cancel(CancelCause::Interrupt);
                }
            }
        }
    }

    /// Rebuilds the registry from journal records. Non-terminal
    /// submissions requeue; their corners, and only theirs, are
    /// re-derived from the journaled params (the host is deterministic
    /// by contract).
    fn replay(records: &[String], host: &dyn ServiceHost) -> Registry {
        let mut registry = Registry {
            subs: Vec::new(),
            next_seq: 1,
        };
        for record in records {
            let mut fields = record.split(' ');
            match fields.next() {
                Some("submit") => {
                    let Some(sub) = parse_submit_record(&mut fields) else {
                        continue;
                    };
                    if let Some(seq) = sub.id.strip_prefix('c').and_then(|n| n.parse::<u64>().ok())
                    {
                        registry.next_seq = registry.next_seq.max(seq + 1);
                    }
                    registry.subs.push(sub);
                }
                Some("state") => {
                    let Some(id) = fields.next() else { continue };
                    let word = fields.next().unwrap_or("");
                    let detail = unescape(fields.next().unwrap_or("\\e"));
                    let Some(sub) = registry.get_mut(id) else {
                        continue;
                    };
                    match word {
                        // `running` without a later terminal record means
                        // the service died mid-campaign: requeue, the
                        // checkpoint carries the progress.
                        "running" | "backoff" => sub.state = SubState::Queued,
                        "cancelled" => sub.state = SubState::Cancelled,
                        "failed" => sub.state = SubState::Failed(detail),
                        "quarantined" => sub.state = SubState::Quarantined(detail),
                        _ => {}
                    }
                }
                Some("done") => {
                    let Some(id) = fields.next() else { continue };
                    let hit = fields.next() == Some("1");
                    let artifacts = unescape(fields.next().unwrap_or("\\e"));
                    if let Some(sub) = registry.get_mut(id) {
                        sub.state = SubState::Completed;
                        sub.cache_hit = hit;
                        sub.artifacts = artifacts
                            .split(',')
                            .filter(|a| !a.is_empty())
                            .map(String::from)
                            .collect();
                    }
                }
                // `shutdown` is informational (clean drain marker).
                _ => {}
            }
        }
        // A submission whose params no longer produce corners (host
        // changed between incarnations) cannot be requeued honestly.
        for sub in registry.subs.iter_mut().filter(|s| !s.state.terminal()) {
            sub.corners = host.corners(&sub.params).unwrap_or_default();
            if sub.corners.is_empty() {
                sub.state = SubState::Failed("params no longer valid after restart".into());
            }
        }
        registry
    }

    /// The compacted journal image: one `submit` per submission plus its
    /// terminal record, in id order.
    fn snapshot_records(&self) -> Vec<String> {
        let mut records = Vec::with_capacity(self.subs.len() * 2);
        for sub in &self.subs {
            records.push(submit_record(sub));
            match &sub.state {
                SubState::Completed => records.push(format!(
                    "done {} {} {}",
                    sub.id,
                    u8::from(sub.cache_hit),
                    escape(&sub.artifacts.join(","))
                )),
                SubState::Failed(reason) => {
                    records.push(format!("state {} failed {}", sub.id, escape(reason)));
                }
                SubState::Cancelled => {
                    records.push(format!("state {} cancelled \\e", sub.id));
                }
                SubState::Quarantined(reason) => {
                    records.push(format!("state {} quarantined {}", sub.id, escape(reason)));
                }
                SubState::Queued | SubState::Running | SubState::Backoff { .. } => {}
            }
        }
        records
    }
}

fn submit_record(sub: &Submission) -> String {
    format!(
        "submit {} {} {:016x} {} {} {}",
        sub.id,
        escape(&sub.tenant),
        sub.fingerprint,
        escape(&sub.params.render()),
        sub.crash_after
            .map_or_else(|| "-".to_owned(), |n| n.to_string()),
        sub.crash_attempts,
    )
}

/// Parses a `submit` record's fields. The corners are left empty:
/// [`Registry::replay`] derives them once it knows the submission is
/// still live.
fn parse_submit_record<'a>(fields: &mut impl Iterator<Item = &'a str>) -> Option<Submission> {
    let id = fields.next()?.to_owned();
    let tenant = unescape(fields.next()?);
    let fingerprint = u64::from_str_radix(fields.next()?, 16).ok()?;
    let params_text = unescape(fields.next()?);
    let crash_after = match fields.next() {
        Some("-") | None => None,
        Some(n) => n.parse::<usize>().ok(),
    };
    let crash_attempts = fields.next().and_then(|n| n.parse().ok()).unwrap_or(0);
    let params = crate::control::parse(&params_text).ok()?;
    Some(Submission {
        id,
        tenant,
        fingerprint,
        params,
        corners: Vec::new(),
        state: SubState::Queued,
        crashes: 0,
        cache_hit: false,
        artifacts: Vec::new(),
        reason: String::new(),
        token: None,
        external: Arc::new(AtomicBool::new(false)),
        cancel_requested: false,
        crash_after,
        crash_attempts,
    })
}

/// Pure admission decision — the gate between `submit` and the journal.
fn admit(
    draining: bool,
    active: usize,
    max_queue: usize,
    tenant_active: usize,
    tenant_quota: usize,
) -> Result<(), String> {
    if draining {
        return Err("service is draining (no new submissions)".into());
    }
    if active >= max_queue {
        return Err(format!(
            "queue full ({active}/{max_queue} active campaigns)"
        ));
    }
    if tenant_active >= tenant_quota {
        return Err(format!(
            "tenant quota exceeded ({tenant_active}/{tenant_quota} active campaigns)"
        ));
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn handle_request(
    registry: &mut Registry,
    journal: &mut Journal,
    host: &dyn ServiceHost,
    opts: &ServiceOptions,
    draining: bool,
    cache: &ResultCache,
    cache_health: &CacheHealth,
    summary: &ServiceSummary,
    req: &ControlRequest,
) -> String {
    match req {
        ControlRequest::Submit {
            tenant,
            params,
            crash_after,
            crash_attempts,
        } => {
            if let Err(reason) = admit(
                draining,
                registry.active_count(),
                opts.max_queue,
                registry.tenant_active(tenant),
                opts.tenant_quota,
            ) {
                return error_response(&reason, true);
            }
            let corners = match host.corners(params) {
                Ok(c) if !c.is_empty() => c,
                Ok(_) => return error_response("params produce no corners", true),
                Err(reason) => return error_response(&reason, true),
            };
            let fingerprint = campaign_fingerprint(&corners);
            let id = format!("c{:04}", registry.next_seq);
            registry.next_seq += 1;
            let sub = Submission {
                id: id.clone(),
                tenant: tenant.clone(),
                fingerprint,
                params: params.clone(),
                corners,
                state: SubState::Queued,
                crashes: 0,
                cache_hit: false,
                artifacts: Vec::new(),
                reason: String::new(),
                token: None,
                external: Arc::new(AtomicBool::new(false)),
                cancel_requested: false,
                crash_after: *crash_after,
                crash_attempts: *crash_attempts,
            };
            // Journal-then-ack: the id is promised only once the submit
            // record is durable.
            if let Err(e) = journal.append(&submit_record(&sub)) {
                return error_response(&format!("journal append failed: {e}"), true);
            }
            registry.subs.push(sub);
            ok_response(vec![
                ("id".into(), Json::str(&id)),
                (
                    "fingerprint".into(),
                    Json::str(format!("{fingerprint:016x}")),
                ),
            ])
        }
        ControlRequest::Status { id } => {
            let entries: Vec<Json> = registry
                .subs
                .iter()
                .filter(|s| id.as_ref().is_none_or(|want| *want == s.id))
                .map(status_entry)
                .collect();
            if id.is_some() && entries.is_empty() {
                return error_response("unknown campaign id", false);
            }
            ok_response(vec![("campaigns".into(), Json::Arr(entries))])
        }
        ControlRequest::Cancel { id } => {
            let Some(sub) = registry.get_mut(id) else {
                return error_response("unknown campaign id", false);
            };
            if sub.state.terminal() {
                return error_response("campaign already finished", false);
            }
            sub.cancel_requested = true;
            if sub.state == SubState::Running {
                sub.external.store(true, Ordering::SeqCst);
                if let Some(token) = &sub.token {
                    token.cancel(CancelCause::Interrupt);
                }
                // The runner's Stopped outcome journals the cancel.
            } else {
                sub.settle(SubState::Cancelled);
                journal_state(journal, id, "cancelled", "");
            }
            ok_response(vec![("id".into(), Json::str(id))])
        }
        ControlRequest::Fetch { id } => {
            let Some(sub) = registry.get(id) else {
                return error_response("unknown campaign id", false);
            };
            let mut fields = vec![
                ("id".into(), Json::str(&sub.id)),
                ("state".into(), Json::str(sub.state.word())),
                ("done".into(), Json::Bool(sub.state.terminal())),
                ("cache_hit".into(), Json::Bool(sub.cache_hit)),
                (
                    "artifacts".into(),
                    Json::Arr(sub.artifacts.iter().map(Json::str).collect()),
                ),
                (
                    "results_dir".into(),
                    Json::str(opts.dir.join("results").join(&sub.id).display().to_string()),
                ),
            ];
            let reason = match &sub.state {
                SubState::Failed(r) | SubState::Quarantined(r) => r.clone(),
                _ => sub.reason.clone(),
            };
            if !reason.is_empty() {
                fields.push(("reason".into(), Json::str(&reason)));
            }
            ok_response(fields)
        }
        ControlRequest::Health => {
            let count = |want: &str| {
                Json::Num(
                    registry
                        .subs
                        .iter()
                        .filter(|s| s.state.word() == want)
                        .count()
                        .to_string(),
                )
            };
            ok_response(vec![
                ("proto_version".into(), Json::Num(PROTO_VERSION.to_string())),
                ("build".into(), Json::str(&opts.build_info)),
                ("draining".into(), Json::Bool(draining)),
                (
                    "campaigns".into(),
                    Json::Obj(vec![
                        ("queued".into(), count("queued")),
                        ("running".into(), count("running")),
                        ("backoff".into(), count("backoff")),
                        ("completed".into(), count("completed")),
                        ("failed".into(), count("failed")),
                        ("cancelled".into(), count("cancelled")),
                        ("quarantined".into(), count("quarantined")),
                    ]),
                ),
                ("cache".into(), {
                    let stats = cache.stats();
                    Json::Obj(vec![
                        ("entries".into(), Json::Num(stats.entries.to_string())),
                        ("bytes".into(), Json::Num(stats.bytes.to_string())),
                        (
                            "quarantined_bytes".into(),
                            Json::Num(stats.quarantined_bytes.to_string()),
                        ),
                        (
                            "evicted".into(),
                            Json::Num(cache_health.evicted.to_string()),
                        ),
                        (
                            "evicted_bytes".into(),
                            Json::Num(cache_health.evicted_bytes.to_string()),
                        ),
                    ])
                }),
                (
                    "cache_quarantined".into(),
                    Json::Num(cache_health.quarantined.to_string()),
                ),
                (
                    "swept_temps".into(),
                    Json::Num(summary.swept.len().to_string()),
                ),
                (
                    "journal_torn_bytes".into(),
                    Json::Num(summary.torn_bytes.to_string()),
                ),
            ])
        }
        // Shutdown is handled by the dispatcher before dispatching here.
        ControlRequest::Shutdown => ok_response(vec![("draining".into(), Json::Bool(true))]),
    }
}

fn status_entry(sub: &Submission) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::str(&sub.id)),
        ("tenant".into(), Json::str(&sub.tenant)),
        ("state".into(), Json::str(sub.state.word())),
        (
            "fingerprint".into(),
            Json::str(format!("{:016x}", sub.fingerprint)),
        ),
        ("cache_hit".into(), Json::Bool(sub.cache_hit)),
        ("crashes".into(), Json::Num(sub.crashes.to_string())),
    ])
}

fn journal_state(journal: &mut Journal, id: &str, word: &str, detail: &str) {
    // State records are best-effort breadcrumbs: losing one widens the
    // requeue window after a kill but never loses the submission itself
    // (its `submit` record is what admission promised durability for).
    if let Err(e) = journal.append(&format!("state {id} {word} {}", escape(detail))) {
        eprintln!("warning: journal state append failed: {e}");
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_runner_outcome(
    registry: &mut Registry,
    journal: &mut Journal,
    summary: &mut ServiceSummary,
    cache_health: &mut CacheHealth,
    id: &str,
    outcome: RunnerOutcome,
    opts: &ServiceOptions,
) {
    match outcome {
        RunnerOutcome::CacheQuarantined { reason } => {
            cache_health.quarantined += 1;
            if opts.progress {
                eprintln!("service: cache entry quarantined for {id}: {reason}");
            }
            // Not a completion — the runner keeps going; nothing else to
            // update.
        }
        outcome => {
            let Some(sub) = registry.get_mut(id) else {
                return;
            };
            sub.token = None;
            match outcome {
                RunnerOutcome::CacheQuarantined { .. } => unreachable!("handled above"),
                RunnerOutcome::Done {
                    cache_hit,
                    artifacts,
                } => {
                    sub.settle(SubState::Completed);
                    sub.cache_hit = cache_hit;
                    sub.artifacts = artifacts;
                    sub.crashes = 0;
                    summary.completed += 1;
                    let record = format!(
                        "done {id} {} {}",
                        u8::from(cache_hit),
                        escape(&sub.artifacts.join(","))
                    );
                    if let Err(e) = journal.append(&record) {
                        eprintln!("warning: journal done append failed: {e}");
                    }
                    if opts.progress {
                        eprintln!("service: {id} completed (cache_hit={cache_hit})");
                    }
                }
                RunnerOutcome::Stopped => {
                    if sub.cancel_requested {
                        sub.settle(SubState::Cancelled);
                        journal_state(journal, id, "cancelled", "");
                        if opts.progress {
                            eprintln!("service: {id} cancelled");
                        }
                    } else {
                        // Drain parking: the submit record alone makes the
                        // next incarnation requeue it from its checkpoint.
                        sub.state = SubState::Queued;
                        if opts.progress {
                            eprintln!("service: {id} parked (checkpoint flushed)");
                        }
                    }
                }
                RunnerOutcome::Failed(reason) => {
                    sub.settle(SubState::Failed(reason.clone()));
                    journal_state(journal, id, "failed", &reason);
                    if opts.progress {
                        eprintln!("service: {id} failed: {reason}");
                    }
                }
                RunnerOutcome::Panicked(msg) => {
                    sub.crashes += 1;
                    if sub.crashes >= opts.crash_loop_limit {
                        let reason = format!(
                            "quarantined after {} consecutive crashes; last: {msg}",
                            sub.crashes
                        );
                        sub.settle(SubState::Quarantined(reason.clone()));
                        journal_state(journal, id, "quarantined", &reason);
                        eprintln!("warning: service campaign {id}: {reason}");
                    } else {
                        let backoff = opts
                            .restart_backoff
                            .saturating_mul(1 << (sub.crashes - 1).min(16));
                        sub.state = SubState::Backoff {
                            until: Instant::now() + backoff,
                        };
                        if opts.progress {
                            eprintln!(
                                "service: {id} crashed ({}/{}), restarting in {backoff:?}: {msg}",
                                sub.crashes, opts.crash_loop_limit
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Spawns the supervised runner for one submission, detached: its last
/// act is the outcome event, which is all the dispatcher waits for.
fn start_runner(
    registry: &mut Registry,
    id: &str,
    dirs: &ServiceDirs,
    cache: &ResultCache,
    host: Arc<dyn ServiceHost>,
    opts: &ServiceOptions,
    events: SyncSender<Event>,
) {
    let sub = registry
        .get_mut(id)
        .expect("runnable id came from the registry");
    let token = CancelToken::new();
    sub.token = Some(token.clone());
    sub.external.store(false, Ordering::SeqCst);
    sub.state = SubState::Running;

    let id = sub.id.clone();
    let info = SubmissionInfo {
        id: id.clone(),
        tenant: sub.tenant.clone(),
        fingerprint: sub.fingerprint,
        params: sub.params.clone(),
        results_dir: dirs.results.join(&id),
    };
    let corners = sub.corners.clone();
    let external = Arc::clone(&sub.external);
    let crash_after = (sub.crashes < sub.crash_attempts)
        .then_some(sub.crash_after)
        .flatten();
    let ckpt_path = dirs.ckpt.join(format!("{id}.ckpt"));
    let cache = cache.clone();
    let flush_every = opts.flush_every;
    let progress = opts.progress;

    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_one_attempt(
                &info,
                &corners,
                &ckpt_path,
                &cache,
                host.as_ref(),
                &token,
                &external,
                crash_after,
                flush_every,
                progress,
                &events,
            )
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            RunnerOutcome::Panicked(msg)
        });
        let _ = events.send(Event::Runner { id, outcome });
    });
}

/// One supervised campaign attempt, on the runner thread.
#[allow(clippy::too_many_arguments)]
fn run_one_attempt(
    info: &SubmissionInfo,
    corners: &[CampaignCorner],
    ckpt_path: &Path,
    cache: &ResultCache,
    host: &dyn ServiceHost,
    token: &CancelToken,
    external: &AtomicBool,
    crash_after: Option<usize>,
    flush_every: usize,
    progress: bool,
    events: &SyncSender<Event>,
) -> RunnerOutcome {
    // Cache consult — only when no checkpoint exists yet (a checkpoint
    // means this submission already made progress of its own).
    let mut cache_hit = false;
    if !ckpt_path.exists() {
        match cache.lookup(info.fingerprint, corners) {
            CacheLookup::Hit => {
                if cache.stage(info.fingerprint, ckpt_path).is_ok() {
                    cache_hit = true;
                }
            }
            CacheLookup::Miss => {}
            CacheLookup::Quarantined { reason, .. } => {
                let _ = events.send(Event::Runner {
                    id: info.id.clone(),
                    outcome: RunnerOutcome::CacheQuarantined { reason },
                });
            }
        }
    }

    let report = match run_campaign(
        corners,
        &CampaignOptions {
            checkpoint: Some(ckpt_path.to_path_buf()),
            flush_every,
            cancel: Some(token.clone()),
            keep_checkpoint: true,
            abort_after: crash_after,
            progress,
            handle_signals: false,
            ..CampaignOptions::default()
        },
    ) {
        Ok(report) => report,
        Err(e) => return RunnerOutcome::Failed(e.to_string()),
    };

    // The deterministic crash hook: the abort fired (the engine
    // cancelled after `crash_after` fresh samples, checkpoint flushed)
    // and the stop was not supervisor-initiated → die like a real bug
    // so the supervision path is exercised end to end.
    if crash_after.is_some()
        && report.cancelled == Some(CancelCause::Interrupt)
        && !external.load(Ordering::SeqCst)
    {
        panic!("injected campaign crash after {crash_after:?} samples");
    }

    if report.partial {
        if external.load(Ordering::SeqCst) {
            return RunnerOutcome::Stopped;
        }
        let reason = report
            .cancelled
            .map_or_else(|| "campaign ended partial".to_owned(), |c| format!("{c:?}"));
        return RunnerOutcome::Failed(format!("campaign incomplete: {reason}"));
    }

    // Complete: write artifacts, promote the final checkpoint into the
    // cache (atomic install), then retire the per-submission file.
    if std::fs::create_dir_all(&info.results_dir).is_err() {
        return RunnerOutcome::Failed("cannot create results directory".into());
    }
    let artifacts = host.completed(info, &report);
    if let Err(e) = cache.install(info.fingerprint, ckpt_path) {
        // Cache install failure degrades (no caching), never fails a
        // completed campaign.
        eprintln!("warning: cache install for {} failed: {e}", info.id);
    }
    let _ = std::fs::remove_file(ckpt_path);
    RunnerOutcome::Done {
        cache_hit,
        artifacts,
    }
}

fn handle_connection(
    stream: std::net::TcpStream,
    events: &SyncSender<Event>,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(writer);
    let mut reader = LineReader::new(stream);
    loop {
        let req = match reader.next_line() {
            Err(_) | Ok(NextLine::Eof) => return,
            Ok(NextLine::Idle) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Ok(NextLine::TooLong) => Err("request line exceeds the size limit".to_owned()),
            Ok(NextLine::Line(bytes)) => match String::from_utf8(bytes) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => ControlRequest::from_line(&line),
                Err(_) => Err("request is not UTF-8".to_owned()),
            },
        };
        let (reply_tx, reply_rx) = sync_channel(1);
        // The bounded send is the backpressure point: a saturated
        // dispatcher makes this connection wait its turn.
        if events
            .send(Event::Control {
                req,
                reply: reply_tx,
            })
            .is_err()
        {
            return;
        }
        let Ok(response) = reply_rx.recv() else {
            return;
        };
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn admission_gate_covers_every_rejection() {
        assert!(admit(false, 0, 16, 0, 8).is_ok());
        assert!(admit(false, 15, 16, 7, 8).is_ok());
        let draining = admit(true, 0, 16, 0, 8).unwrap_err();
        assert!(draining.contains("draining"), "{draining}");
        let full = admit(false, 16, 16, 0, 8).unwrap_err();
        assert!(full.contains("queue full"), "{full}");
        let quota = admit(false, 3, 16, 8, 8).unwrap_err();
        assert!(quota.contains("tenant quota"), "{quota}");
    }

    #[test]
    fn submit_record_round_trips_through_replay_parsing() {
        let sub = Submission {
            id: "c0042".into(),
            tenant: "team a/b".into(),
            fingerprint: 0x0123_4567_89ab_cdef,
            params: crate::control::parse(r#"{"samples":24,"label":"x y"}"#).unwrap(),
            corners: Vec::new(),
            state: SubState::Queued,
            crashes: 0,
            cache_hit: false,
            artifacts: Vec::new(),
            reason: String::new(),
            token: None,
            external: Arc::new(AtomicBool::new(false)),
            cancel_requested: false,
            crash_after: Some(3),
            crash_attempts: 1,
        };
        let record = submit_record(&sub);
        let mut fields = record.split(' ');
        assert_eq!(fields.next(), Some("submit"));
        let parsed = parse_submit_record(&mut fields).unwrap();
        assert_eq!(parsed.id, "c0042");
        assert_eq!(parsed.tenant, "team a/b");
        assert_eq!(parsed.fingerprint, sub.fingerprint);
        assert_eq!(parsed.params.render(), sub.params.render());
        assert_eq!(parsed.crash_after, Some(3));
        assert_eq!(parsed.crash_attempts, 1);
    }

    /// One smoke corner for any params; counts the calls.
    #[derive(Default)]
    struct CountingHost {
        calls: std::sync::atomic::AtomicUsize,
    }

    impl ServiceHost for CountingHost {
        fn corners(&self, _params: &Json) -> Result<Vec<CampaignCorner>, String> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            Ok(vec![CampaignCorner {
                name: "corner".into(),
                cfg: issa_core::montecarlo::McConfig::smoke(
                    issa_core::netlist::SaKind::Nssa,
                    issa_core::workload::Workload::new(
                        0.8,
                        issa_core::workload::ReadSequence::AllZeros,
                    ),
                    issa_ptm45::Environment::nominal(),
                    0.0,
                    4,
                ),
            }])
        }
        fn completed(&self, _: &SubmissionInfo, _: &CampaignReport) -> Vec<String> {
            Vec::new()
        }
    }

    fn corner_counts(registry: &Registry) -> Vec<(String, &'static str, usize)> {
        registry
            .subs
            .iter()
            .map(|s| (s.id.clone(), s.state.word(), s.corners.len()))
            .collect()
    }

    #[test]
    fn terminal_submissions_hold_no_corners_before_and_after_replay() {
        let dir =
            std::env::temp_dir().join(format!("issa-service-unit-corners-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dirs = ServiceDirs::create(&dir).unwrap();
        let opts = ServiceOptions {
            dir: dir.clone(),
            ..ServiceOptions::default()
        };
        let host = CountingHost::default();
        let cache = ResultCache::open(&dirs.cache).unwrap();
        Journal::compact(&dirs.journal, &[]).unwrap();
        let mut journal = Journal::open_append(&dirs.journal).unwrap();
        let mut registry = Registry {
            subs: Vec::new(),
            next_seq: 1,
        };
        let mut summary = ServiceSummary::default();
        let mut health = CacheHealth::default();
        for tag in ["done", "cancelled", "queued"] {
            let params = crate::control::parse(&format!(r#"{{"tag":"{tag}"}}"#)).unwrap();
            let submit = ControlRequest::Submit {
                tenant: "t".into(),
                params,
                crash_after: None,
                crash_attempts: 0,
            };
            let reply = handle_request(
                &mut registry,
                &mut journal,
                &host,
                &opts,
                false,
                &cache,
                &health,
                &summary,
                &submit,
            );
            assert!(reply.contains(r#""ok":true"#), "{reply}");
        }
        handle_runner_outcome(
            &mut registry,
            &mut journal,
            &mut summary,
            &mut health,
            "c0001",
            RunnerOutcome::Done {
                cache_hit: false,
                artifacts: Vec::new(),
            },
            &opts,
        );
        let cancel = ControlRequest::Cancel { id: "c0002".into() };
        handle_request(
            &mut registry,
            &mut journal,
            &host,
            &opts,
            false,
            &cache,
            &health,
            &summary,
            &cancel,
        );
        let expected = vec![
            ("c0001".to_owned(), "completed", 0),
            ("c0002".to_owned(), "cancelled", 0),
            ("c0003".to_owned(), "queued", 1),
        ];
        assert_eq!(corner_counts(&registry), expected);

        // Replay asks the host for the corners of the live submission only.
        let replay_host = CountingHost::default();
        let replayed = Registry::replay(&registry.snapshot_records(), &replay_host);
        assert_eq!(corner_counts(&replayed), expected);
        assert_eq!(replay_host.calls.load(Ordering::SeqCst), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dispatcher_waits_for_the_earliest_pending_backoff() {
        let sub = |id: &str, state: SubState| Submission {
            id: id.into(),
            tenant: "t".into(),
            fingerprint: 0,
            params: Json::Null,
            corners: Vec::new(),
            state,
            crashes: 0,
            cache_hit: false,
            artifacts: Vec::new(),
            reason: String::new(),
            token: None,
            external: Arc::new(AtomicBool::new(false)),
            cancel_requested: false,
            crash_after: None,
            crash_attempts: 0,
        };
        let now = Instant::now();
        let ms = Duration::from_millis;
        let mut registry = Registry {
            subs: vec![
                sub("c0001", SubState::Running),
                sub("c0002", SubState::Queued),
                sub("c0003", SubState::Completed),
            ],
            next_seq: 4,
        };
        // Nothing backing off: block until an event, or tick for signals.
        assert_eq!(dispatcher_wait(&registry, now, false), None);
        assert_eq!(dispatcher_wait(&registry, now, true), Some(SIGNAL_TICK));
        // A backoff that expired by `now` waits for a slot, i.e. an event.
        registry
            .subs
            .push(sub("c0004", SubState::Backoff { until: now }));
        assert_eq!(dispatcher_wait(&registry, now, false), None);
        // Pending backoffs: the earliest one, capped by the signal tick.
        registry.subs.push(sub(
            "c0005",
            SubState::Backoff {
                until: now + ms(400),
            },
        ));
        registry.subs.push(sub(
            "c0006",
            SubState::Backoff {
                until: now + ms(120),
            },
        ));
        assert_eq!(dispatcher_wait(&registry, now, false), Some(ms(120)));
        assert_eq!(dispatcher_wait(&registry, now, true), Some(SIGNAL_TICK));
        registry
            .subs
            .push(sub("c0007", SubState::Backoff { until: now + ms(5) }));
        assert_eq!(dispatcher_wait(&registry, now, true), Some(ms(5)));
        assert_eq!(
            dispatcher_wait(&registry, now + ms(200), false),
            Some(ms(200))
        );
    }

    #[test]
    fn state_words_and_terminality_are_consistent() {
        let states = [
            SubState::Queued,
            SubState::Running,
            SubState::Backoff {
                until: Instant::now(),
            },
            SubState::Completed,
            SubState::Failed("x".into()),
            SubState::Cancelled,
            SubState::Quarantined("y".into()),
        ];
        let words: Vec<&str> = states.iter().map(SubState::word).collect();
        assert_eq!(
            words,
            [
                "queued",
                "running",
                "backoff",
                "completed",
                "failed",
                "cancelled",
                "quarantined"
            ]
        );
        let terminal: Vec<bool> = states.iter().map(SubState::terminal).collect();
        assert_eq!(terminal, [false, false, false, true, true, true, true]);
    }
}
