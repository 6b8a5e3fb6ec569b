//! The worker side: connect, hand-shake, compute assigned units with the
//! exact same sample loop the in-process engine uses
//! ([`issa_core::batch::run_samples`]), heartbeat while computing,
//! reconnect after transport faults.
//!
//! A worker never serializes configurations: it builds every corner's
//! [`McConfig`] from its own command line and proves agreement with the
//! coordinator through the campaign fingerprint in the handshake
//! ([`crate::proto::campaign_fingerprint`]). After that, an assignment
//! only names a corner and an index range — everything else is already
//! agreed.

use crate::frame::{FrameStream, WireFaultPlan};
use crate::proto::{
    campaign_fingerprint, Msg, UnitAssignment, UnitResult, WorkerPerf, PROTO_VERSION,
};
use crate::DistError;
use issa_circuit::PerfSnapshot;
use issa_core::batch::{run_samples, BatchHooks, SamplePhase};
use issa_core::campaign::CampaignCorner;
use issa_core::durable::Fnv64;
use issa_core::montecarlo::{McConfig, McPhase};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Worker behaviour knobs (including the test hooks the loopback suites
/// use to script deaths and transport faults).
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Display name reported in the coordinator's worker summary.
    pub name: String,
    /// Initial connection attempts before giving up (the coordinator may
    /// not be up yet; also how a worker survives a coordinator restart).
    pub connect_attempts: u32,
    /// Reconnect (with a fresh handshake) after a mid-session transport
    /// error instead of exiting.
    pub reconnect: bool,
    /// Pause between connection attempts.
    pub reconnect_backoff: Duration,
    /// Send a `ping` between samples (or lockstep slices) when this much
    /// time has passed since the last message — bounds how stale the
    /// coordinator's liveness view can get while a unit computes.
    pub heartbeat_interval: Duration,
    /// Socket read deadline while waiting for a reply.
    pub read_timeout: Duration,
    /// Test hook: sleep this long before first connecting, so loopback
    /// tests can deterministically order which worker takes a unit.
    pub start_delay: Duration,
    /// Test hook: die (drop the connection and return, lease still held)
    /// after accepting this many assignments — a scripted mid-unit crash.
    pub die_after_assignments: Option<u32>,
    /// Test hook: perturb outgoing frames ([`WireFaultPlan`]).
    pub wire_faults: Option<WireFaultPlan>,
    /// Test hook: sleep this long after accepting each assignment before
    /// computing it — a deterministic straggler for the speculation
    /// suites (the lease is held the whole time, heartbeats continue).
    pub unit_delay: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            name: "worker".into(),
            connect_attempts: 40,
            reconnect: true,
            reconnect_backoff: Duration::from_millis(250),
            heartbeat_interval: Duration::from_millis(500),
            read_timeout: Duration::from_secs(30),
            start_delay: Duration::ZERO,
            die_after_assignments: None,
            wire_faults: None,
            unit_delay: Duration::ZERO,
        }
    }
}

/// Deterministic, worker-name-seeded jitter on a reconnect backoff: the
/// sleep becomes `backoff * f` with `f` in `[0.5, 1.5)`, derived from an
/// FNV-1a hash of `(name, attempt)`. A restarted coordinator therefore
/// sees its fleet trickle back spread across a full backoff window
/// instead of as a thundering herd of simultaneous reconnects — and the
/// spread is reproducible run to run, like every other timing knob here.
fn jittered_backoff(backoff: Duration, name: &str, attempt: u64) -> Duration {
    let mut h = Fnv64::default();
    h.update(name.as_bytes());
    h.update(&attempt.to_le_bytes());
    // Top 53 bits → uniform in [0, 1), so f is uniform in [0.5, 1.5).
    let unit = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
    backoff.mul_f64(0.5 + unit)
}

/// What one worker run accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Units computed and acknowledged.
    pub units_done: u64,
    /// Samples computed (completed or quarantined).
    pub samples_done: u64,
    /// Mid-session reconnects performed.
    pub reconnects: u64,
    /// The worker exited via its scripted `die_after_assignments` hook.
    pub died: bool,
}

/// Runs one worker until the coordinator says `done` (or a scripted
/// death / exhausted retry policy ends it early).
///
/// # Errors
///
/// [`DistError::Rejected`] when the handshake is refused (wrong protocol
/// or corner list), [`DistError::ConnectionLost`] when the transport
/// dies and the retry policy is exhausted, [`DistError::Io`] when the
/// coordinator cannot be reached at all.
pub fn run_worker(
    addr: SocketAddr,
    corners: &[CampaignCorner],
    opts: &WorkerOptions,
) -> Result<WorkerStats, DistError> {
    if !opts.start_delay.is_zero() {
        std::thread::sleep(opts.start_delay);
    }
    let fp = campaign_fingerprint(corners);
    let mut stats = WorkerStats::default();
    let mut assignments_taken: u32 = 0;
    let mut sessions: u64 = 0;
    loop {
        let stream = match connect(addr, opts) {
            Ok(s) => s,
            Err(e) => {
                return if sessions > 0 && opts.reconnect {
                    Err(DistError::ConnectionLost(format!(
                        "reconnect to {addr} failed: {e}"
                    )))
                } else {
                    Err(e)
                }
            }
        };
        sessions += 1;
        if sessions > 1 {
            stats.reconnects += 1;
        }
        let mut frames = FrameStream::with_faults(stream, opts.wire_faults.clone());
        match session(
            &mut frames,
            corners,
            fp,
            opts,
            &mut stats,
            &mut assignments_taken,
        ) {
            Ok(SessionEnd::Done) => return Ok(stats),
            Ok(SessionEnd::Died) => {
                stats.died = true;
                return Ok(stats);
            }
            Err(e) => {
                if !opts.reconnect {
                    return Err(e);
                }
                // Rejections are deliberate; retrying cannot help.
                if matches!(e, DistError::Rejected(_)) {
                    return Err(e);
                }
                std::thread::sleep(jittered_backoff(
                    opts.reconnect_backoff,
                    &opts.name,
                    sessions,
                ));
            }
        }
    }
}

fn connect(addr: SocketAddr, opts: &WorkerOptions) -> Result<TcpStream, DistError> {
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..opts.connect_attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_read_timeout(Some(opts.read_timeout))?;
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(jittered_backoff(
                    opts.reconnect_backoff,
                    &opts.name,
                    u64::from(attempt),
                ));
            }
        }
    }
    Err(DistError::Io(last.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::NotConnected, "no connection attempts")
    })))
}

enum SessionEnd {
    Done,
    Died,
}

/// One connected session: handshake, then the request/compute/report
/// loop until `done`, a transport error, or a scripted death.
fn session(
    frames: &mut FrameStream<TcpStream>,
    corners: &[CampaignCorner],
    fp: u64,
    opts: &WorkerOptions,
    stats: &mut WorkerStats,
    assignments_taken: &mut u32,
) -> Result<SessionEnd, DistError> {
    let worker_id = handshake(frames, fp, &opts.name)?;
    loop {
        match call(frames, &Msg::Request { worker_id })? {
            Msg::Done => return Ok(SessionEnd::Done),
            Msg::Wait { millis } => {
                std::thread::sleep(Duration::from_millis(millis.min(5_000)));
            }
            Msg::Assign(a) => {
                *assignments_taken += 1;
                if opts
                    .die_after_assignments
                    .is_some_and(|n| *assignments_taken >= n)
                {
                    // Scripted crash: vanish with the lease held. The
                    // coordinator's liveness machinery must notice and
                    // reassign the unit.
                    return Ok(SessionEnd::Died);
                }
                let mut hooks = HeartbeatHooks {
                    frames,
                    worker_id,
                    last_contact: Instant::now(),
                    interval: opts.heartbeat_interval,
                    err: None,
                };
                // Scripted straggling: hold the lease idle, sleeping in
                // heartbeat-sized slices so the coordinator still sees a
                // live (just slow) worker.
                let until = Instant::now() + opts.unit_delay;
                loop {
                    let left = until.saturating_duration_since(Instant::now());
                    if left.is_zero() || !hooks.on_slice() {
                        break;
                    }
                    std::thread::sleep(left.min(opts.heartbeat_interval));
                }
                if let Some(e) = hooks.err.take() {
                    return Err(e);
                }
                let result = compute_unit(&a, corners, &mut hooks, stats)?;
                match call(frames, &Msg::Result(Box::new(result)))? {
                    Msg::Ack { unit_id } if unit_id == a.unit_id => stats.units_done += 1,
                    other => {
                        return Err(DistError::Proto(format!(
                            "expected ack {}, got {other:?}",
                            a.unit_id
                        )))
                    }
                }
            }
            other => return Err(DistError::Proto(format!("unexpected reply {other:?}"))),
        }
    }
}

fn handshake(frames: &mut FrameStream<TcpStream>, fp: u64, name: &str) -> Result<u64, DistError> {
    let hello = Msg::Hello {
        proto: PROTO_VERSION,
        campaign_fp: fp,
        name: name.to_owned(),
    };
    match call(frames, &hello)? {
        Msg::Welcome { worker_id } => Ok(worker_id),
        Msg::Reject { reason } => Err(DistError::Rejected(reason)),
        other => Err(DistError::Proto(format!(
            "expected welcome/reject, got {other:?}"
        ))),
    }
}

/// Strict request/reply: send one message, receive one message.
fn call(frames: &mut FrameStream<TcpStream>, msg: &Msg) -> Result<Msg, DistError> {
    frames.send(&msg.to_bytes())?;
    let payload = frames.recv()?;
    Msg::from_bytes(&payload).map_err(DistError::Proto)
}

/// [`BatchHooks`] that heartbeat the coordinator while a unit is held:
/// between samples and lockstep slices, so a long unit cannot look dead,
/// and through a scripted straggle. A transport failure is stashed (the
/// hook signature cannot return it) and stops the unit; the caller
/// rethrows it.
struct HeartbeatHooks<'a> {
    frames: &'a mut FrameStream<TcpStream>,
    worker_id: u64,
    last_contact: Instant,
    interval: Duration,
    err: Option<DistError>,
}

impl BatchHooks for HeartbeatHooks<'_> {
    fn on_slice(&mut self) -> bool {
        if self.err.is_some() || self.last_contact.elapsed() < self.interval {
            return self.err.is_none();
        }
        match call(
            self.frames,
            &Msg::Ping {
                worker_id: self.worker_id,
            },
        ) {
            Ok(Msg::Ok) => {
                self.last_contact = Instant::now();
                true
            }
            Ok(other) => {
                self.err = Some(DistError::Proto(format!(
                    "expected heartbeat ok, got {other:?}"
                )));
                false
            }
            Err(e) => {
                self.err = Some(e);
                false
            }
        }
    }
}

/// Computes one unit with the sample loop the in-process shards use — so
/// a distributed unit is *literally the same function call* as a local
/// shard, and bit-identity follows from purity rather than from careful
/// reimplementation.
fn compute_unit(
    a: &UnitAssignment,
    corners: &[CampaignCorner],
    hooks: &mut HeartbeatHooks<'_>,
    stats: &mut WorkerStats,
) -> Result<UnitResult, DistError> {
    let corner = corners
        .iter()
        .find(|c| c.name == a.corner)
        .ok_or_else(|| DistError::Proto(format!("assigned unknown corner {:?}", a.corner)))?;
    let cfg: &McConfig = &corner.cfg;
    // Tail-round offset units carry the coordinator's resolved proposal
    // shifts in `tail_bits` (the positive-side vector followed by the
    // negative-side one, exact f64 bits per device; empty for pilot
    // units, whose samples draw nominally). Installing them through
    // `with_resolved` makes the worker's samples replay the coordinator's
    // proposal bit-for-bit — the shift is data agreed over the wire,
    // never a local recomputation that could drift.
    let tail_cfg: Option<McConfig> = match a.phase {
        McPhase::Offset if cfg.tail.is_some() && !a.tail_bits.is_empty() => {
            let shift: Vec<f64> = a.tail_bits.iter().copied().map(f64::from_bits).collect();
            let (pos, neg) = shift.split_at(shift.len() / 2);
            Some(issa_core::tail::with_resolved(cfg, pos, neg))
        }
        _ => None,
    };
    let cfg = tail_cfg.as_ref().unwrap_or(cfg);
    let mut result = UnitResult {
        unit_id: a.unit_id,
        worker_id: hooks.worker_id,
        ..UnitResult::default()
    };
    // Thread-scoped counters: the unit runs entirely on this thread, so
    // the delta is its own work even with other workers in the process.
    let circuit_before = issa_circuit::perf::thread_snapshot();
    let sense_before = issa_core::perf::thread_sense_calls();
    let phase = match a.phase {
        McPhase::Offset => SamplePhase::Offset,
        McPhase::Delay => SamplePhase::Delay(a.swing_volts()),
    };
    let indices: Vec<usize> = (a.start..a.end).collect();
    // No campaign token is armed on workers: a unit stops early only on
    // a heartbeat failure, which fails the whole unit.
    let runs = run_samples(cfg, phase, &indices, None, hooks);
    if let Some(e) = hooks.err.take() {
        return Err(e);
    }
    for (index, outcome) in runs {
        stats.samples_done += 1;
        match (outcome, a.phase) {
            (Ok(v), McPhase::Offset) => result.offsets.push((index, v)),
            (Ok(v), McPhase::Delay) => result.delays.push((index, v)),
            (Err(f), _) => result.failures.push(f),
        }
    }
    result.perf = unit_perf(&circuit_before, sense_before);
    Ok(result)
}

/// This thread's hot-path work since the given readings.
fn unit_perf(circuit_before: &PerfSnapshot, sense_before: u64) -> WorkerPerf {
    WorkerPerf {
        circuit: issa_circuit::perf::thread_snapshot().delta_since(circuit_before),
        sense_calls: issa_core::perf::thread_sense_calls() - sense_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconnect_jitter_is_bounded_deterministic_and_spread() {
        let base = Duration::from_millis(250);
        for attempt in 0..32 {
            let d = jittered_backoff(base, "w1", attempt);
            assert!(d >= base / 2, "attempt {attempt}: {d:?} below half");
            assert!(d < base * 3 / 2, "attempt {attempt}: {d:?} above 1.5x");
            // Same inputs, same sleep — the jitter is a pure function.
            assert_eq!(d, jittered_backoff(base, "w1", attempt));
        }
        // Different workers (and different attempts) land on different
        // slots, which is the whole anti-thundering-herd point.
        assert_ne!(
            jittered_backoff(base, "w1", 0),
            jittered_backoff(base, "w2", 0)
        );
        assert_ne!(
            jittered_backoff(base, "w1", 0),
            jittered_backoff(base, "w1", 1)
        );
    }
}
