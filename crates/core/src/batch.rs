//! The one sample loop: [`run_samples`] computes every list of Monte
//! Carlo sample indices, for the in-process shards ([`crate::montecarlo`])
//! and the distribution workers alike. It decides once per list (the route
//! decision, `Lockstep::new`) between the *scalar* route — one sample
//! after another through `run_offset_sample_with` / `run_delay_sample`
//! — and the *lockstep* route, which packs up to [`McConfig::batch_lanes`]
//! samples of one corner into a [`BatchRunner`] (structure-of-arrays
//! Newton across lanes, [`issa_circuit::batch`]) and advances them in
//! lockstep, refilling a lane with the next probe — of the same sample's
//! search, or of the next queued sample — the moment its transient
//! finishes.
//!
//! # Bit-identity contract
//!
//! Batching changes *scheduling only*: every probe a lane runs is the
//! exact transient the scalar path would have run (shared
//! [`TranParams`] builders in [`crate::probe`], shared drive-level and
//! trace-extraction helpers, a lane engine whose per-lane IEEE operation
//! sequence equals the scalar engine's), and each lane drives the same
//! search state machines as the scalar path (`OffsetFsm` for the offset
//! search, `DelayFsm` for the weighted delay, both in
//! [`crate::probe`]), so a lane probes exactly the points
//! [`SaInstance::offset_voltage_with`] would.
//!
//! # Scalar fallback
//!
//! Anything the lockstep engine cannot reproduce exactly is *peeled
//! off*: the whole sample is rerun on the scalar route (full quarantine
//! contract — recovery ladder, panic isolation, fault-plan arming),
//! which regenerates the exact value or [`SampleFailure`] a scalar run
//! would have produced. This covers:
//!
//! - any lane transient error (the batch engine has no recovery ladder);
//! - an out-of-range offset search or missing delay crossing (the
//!   scalar rerun reproduces the exact failure record);
//! - fault-plan–targeted samples, pre-routed before ever entering a
//!   lane ([`FaultScope`](issa_circuit::FaultScope) is thread-local: an
//!   armed plan would inject into *every* lane sharing the thread).
//!
//! Each peeled-off sample increments
//! [`issa_circuit::perf::record_scalar_fallback`], so occupancy
//! regressions are visible in the perf counters. A list that takes the
//! scalar route from the start records none: nothing fell back.

use crate::montecarlo::{
    build_sample, run_delay_sample, run_offset_sample_with, McConfig, McPhase, SampleFailure,
    SampleRun,
};
use crate::netlist::SaInstance;
use crate::probe::{
    offset_drive_levels, regen_diff, DelayFsm, DriveSpec, OffsetFsm, OffsetSearch, OffsetStep,
    BLBAR_BRANCH, BL_BRANCH,
};
use crate::stress::compile_workload;
use issa_circuit::batch::{BatchRunner, LaneEvent};
use issa_circuit::{CancelToken, Netlist, TranParams, Waveform};

/// Lockstep rounds between cancellation polls and [`BatchHooks::on_slice`]
/// calls. One round is one Newton iteration per active lane (a few µs of
/// work for a full batch), so a slice is well under a millisecond —
/// comparable to the scalar path's per-base-solve cancellation check.
const SLICE_ROUNDS: usize = 256;

/// One computed sample: its measurement or its quarantine record.
pub type SampleOutcome = Result<f64, SampleFailure>;

/// The phase a list of samples belongs to, with what the phase needs
/// beyond the config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplePhase {
    /// The offset-voltage search (phase 1).
    Offset,
    /// The sensing-delay measurement (phase 2) at the corner-wide bitline
    /// swing \[V\], derived from the offset distribution by
    /// [`delay_swing_volts`](crate::montecarlo::delay_swing_volts).
    Delay(f64),
}

impl SamplePhase {
    /// The phase as recorded in failure records and observer events.
    #[must_use]
    pub fn mc_phase(self) -> McPhase {
        match self {
            SamplePhase::Offset => McPhase::Offset,
            SamplePhase::Delay(_) => McPhase::Delay,
        }
    }
}

/// Caller hooks into [`run_samples`]' progress.
///
/// The montecarlo shards use [`BatchHooks::on_sample`] to forward
/// completions to their [`McObserver`](crate::montecarlo::McObserver); a
/// distribution worker uses [`BatchHooks::on_slice`] to heartbeat its
/// coordinator.
pub trait BatchHooks {
    /// Called before each scalar sample and between lockstep slices.
    /// Return `false` to stop the list early — completed samples are
    /// kept, unstarted ones are simply not computed, exactly like a
    /// cancellation.
    fn on_slice(&mut self) -> bool {
        true
    }

    /// Called once per completed sample (fresh results only, in
    /// completion order — *not* index order).
    fn on_sample(&mut self, index: usize, outcome: Result<f64, &SampleFailure>) {
        let _ = (index, outcome);
    }
}

/// [`BatchHooks`] that observe nothing — a plain in-process run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl BatchHooks for NoHooks {}

/// Computes the samples `indices` of `phase`, each bit-identical to what
/// `run_offset_sample_with` / `run_delay_sample` produce for it on
/// its own, and returns every computed sample sorted by index. Samples
/// stopped by cancellation (or by [`BatchHooks::on_slice`] returning
/// `false`) are absent: not computed, a resumed run attempts them again.
pub fn run_samples(
    cfg: &McConfig,
    phase: SamplePhase,
    indices: &[usize],
    cancel: Option<&CancelToken>,
    hooks: &mut dyn BatchHooks,
) -> Vec<(usize, SampleOutcome)> {
    let mut done = Vec::new();
    // Before any template netlist or runner is built: a phase restored
    // whole from a checkpoint reaches here with nothing to compute.
    if indices.is_empty() {
        return done;
    }
    match Lockstep::new(cfg, phase) {
        Some(lockstep) => lockstep.run(indices, cancel, hooks, &mut done),
        None => run_scalar(cfg, phase, indices, cancel, hooks, false, &mut done),
    }
    done.sort_by_key(|&(i, _)| i);
    done
}

/// The scalar route: one guarded sample after another on this thread,
/// one warm-start carrier across the list (it changes probe order, never
/// results). `peeled` marks lockstep samples rerun here: each counts a
/// scalar fallback and gets a fresh carrier, which keeps it independent
/// of batch scheduling.
fn run_scalar(
    cfg: &McConfig,
    phase: SamplePhase,
    indices: &[usize],
    cancel: Option<&CancelToken>,
    hooks: &mut dyn BatchHooks,
    peeled: bool,
    done: &mut Vec<(usize, SampleOutcome)>,
) {
    let mut search = OffsetSearch::default();
    for &index in indices {
        if cancel.is_some_and(CancelToken::is_cancelled) || !hooks.on_slice() {
            break;
        }
        if peeled {
            issa_circuit::perf::record_scalar_fallback();
            search = OffsetSearch::default();
        }
        let outcome = match phase {
            SamplePhase::Offset => run_offset_sample_with(cfg, index, cancel, &mut search),
            SamplePhase::Delay(swing_volts) => run_delay_sample(cfg, index, swing_volts, cancel),
        };
        let outcome = match outcome {
            SampleRun::Done(v) => Ok(v),
            SampleRun::Failed(f) => Err(f),
            SampleRun::Cancelled => break,
        };
        hooks.on_sample(index, outcome.as_ref().copied());
        done.push((index, outcome));
    }
}

/// The lockstep engine for one phase of one corner.
struct Lockstep<'a> {
    cfg: &'a McConfig,
    phase: SamplePhase,
    /// The delay weighting's read-0 share (unused by the offset phase).
    zero_fraction: f64,
    runner: BatchRunner,
}

impl<'a> Lockstep<'a> {
    /// The route decision: the lockstep engine for `phase`, or `None` for
    /// the scalar route. The scalar route is taken when
    ///
    /// - `batch_lanes < 2`;
    /// - a per-sample step or wall budget is armed: the watchdog's
    ///   step/wall accounting is per-thread-scoped and cannot attribute
    ///   lockstep work to one sample;
    /// - the probe options are invalid (`offset_tol`/`vin_max` ≤ 0, or a
    ///   read mix outside `[0, 1]`): the scalar measurement panics per
    ///   sample inside its guarded region, so the failure records match;
    /// - [`BatchRunner::new`] refuses the system.
    fn new(cfg: &'a McConfig, phase: SamplePhase) -> Option<Self> {
        if cfg.batch_lanes < 2
            || cfg.sample_step_budget.is_some()
            || cfg.sample_wall_budget_s.is_some()
        {
            return None;
        }
        // Structural template: probe drives differ per sample/probe but
        // the netlist topology is fixed by (kind, sizing), which is all
        // the runner's monomorphized engine keys on.
        let (template_drive, zero_fraction) = match phase {
            SamplePhase::Offset => {
                if !(cfg.probe.offset_tol > 0.0 && cfg.probe.vin_max > 0.0) {
                    return None;
                }
                let drive =
                    DriveSpec::offset_probe(0.0, &cfg.env, cfg.probe.t_enable, cfg.probe.edge);
                (drive, 0.0)
            }
            SamplePhase::Delay(swing_volts) => {
                let zero_fraction = compile_workload(cfg.workload, cfg.kind, cfg.counter_bits)
                    .internal_zero_fraction;
                if !(0.0..=1.0).contains(&zero_fraction) {
                    return None;
                }
                let drive = DriveSpec::delay_probe(false, swing_volts, &cfg.env, &cfg.probe);
                (drive, zero_fraction)
            }
        };
        let mut template_sa = SaInstance::fresh(cfg.kind, cfg.env);
        template_sa.sizing = cfg.sizing;
        let template = template_sa.build_netlist(&template_drive);
        Some(Lockstep {
            cfg,
            phase,
            zero_fraction,
            runner: BatchRunner::new(&template, cfg.batch_lanes)?,
        })
    }

    /// Builds sample `index`'s instance and netlist and starts its first
    /// probe on `lane`. On a start error the sample goes to the scalar
    /// queue (which reproduces the error under the quarantine contract).
    fn start(&mut self, index: usize, lane: usize, search: &OffsetSearch) -> Result<LaneJob, ()> {
        let cfg = self.cfg;
        let sa = build_sample(cfg, index);
        let (fsm, drive) = match self.phase {
            SamplePhase::Offset => {
                let fsm = OffsetFsm::new(&cfg.probe, sa.env.vdd, search);
                let drive =
                    DriveSpec::offset_probe(0.0, &cfg.env, cfg.probe.t_enable, cfg.probe.edge);
                (Fsm::Offset(fsm), drive)
            }
            SamplePhase::Delay(swing_volts) => {
                let fsm = DelayFsm::new(self.zero_fraction);
                let drive =
                    DriveSpec::delay_probe(fsm.current_read(), swing_volts, &cfg.env, &cfg.probe);
                (Fsm::Delay(fsm, swing_volts), drive)
            }
        };
        let net = sa.build_netlist(&drive);
        let mut job = LaneJob {
            index,
            sa,
            net,
            fsm,
        };
        job.start_current(cfg, &mut self.runner, lane)
            .map_err(|_| ())?;
        Ok(job)
    }

    /// Refills idle lanes from the index queue, advances all lanes in
    /// lockstep slices, and reruns peeled-off samples on the scalar route
    /// at the end.
    fn run(
        mut self,
        indices: &[usize],
        cancel: Option<&CancelToken>,
        hooks: &mut dyn BatchHooks,
        done: &mut Vec<(usize, SampleOutcome)>,
    ) {
        let cfg = self.cfg;
        let width = self.runner.lane_width();

        // Fault-plan–targeted samples never enter a lane: FaultScope is
        // thread-local, so arming it would inject into every lane on this
        // thread. The scalar rerun arms it per sample, as designed.
        let fault_targets: Vec<usize> = cfg
            .fault_plan
            .as_deref()
            .map(issa_circuit::FaultPlan::samples)
            .unwrap_or_default();

        let mut queue = indices.iter().copied();
        let mut scalar_queue: Vec<usize> = Vec::new();
        let mut jobs: Vec<Option<LaneJob>> = (0..width).map(|_| None).collect();
        // One warm-start carrier per lane, like one per scalar shard. The
        // carrier changes probe order, never results, so the lane→sample
        // assignment (which depends on completion timing) is bit-safe.
        let mut searches: Vec<OffsetSearch> = vec![OffsetSearch::default(); width];
        let mut events: Vec<LaneEvent> = Vec::new();

        loop {
            // Refill idle lanes from the queue.
            for lane in 0..width {
                if jobs[lane].is_some() {
                    continue;
                }
                for index in queue.by_ref() {
                    if fault_targets.contains(&index) {
                        scalar_queue.push(index);
                        continue;
                    }
                    match self.start(index, lane, &searches[lane]) {
                        Ok(job) => {
                            jobs[lane] = Some(job);
                            break;
                        }
                        Err(()) => scalar_queue.push(index),
                    }
                }
            }
            if !self.runner.any_active() {
                break;
            }
            if cancel.is_some_and(CancelToken::is_cancelled) || !hooks.on_slice() {
                // Stopped: the peeled-off samples stay uncomputed too.
                return;
            }
            self.runner.step_rounds(SLICE_ROUNDS, &mut events);
            for ev in events.drain(..) {
                let mut job = jobs[ev.lane].take().expect("event from a lane with a job");
                match ev.outcome {
                    // Lane transient error: the batch engine has no
                    // recovery ladder, so the scalar rerun (which has
                    // one) decides whether the sample survives or how it
                    // is quarantined.
                    Err(_) => scalar_queue.push(job.index),
                    Ok(()) => match job.advance(&self.runner, ev.lane, &mut searches[ev.lane]) {
                        Advance::Next => match job.start_current(cfg, &mut self.runner, ev.lane) {
                            Ok(()) => jobs[ev.lane] = Some(job),
                            Err(_) => scalar_queue.push(job.index),
                        },
                        Advance::Done(v) => {
                            hooks.on_sample(job.index, Ok(v));
                            done.push((job.index, Ok(v)));
                        }
                        Advance::Scalar => scalar_queue.push(job.index),
                    },
                }
            }
        }

        // Peeled-off samples rerun whole on the scalar route:
        // bit-identical values, bit-identical failure records (recovery
        // ladder, fault arming, panic isolation — the full quarantine
        // contract).
        run_scalar(cfg, self.phase, &scalar_queue, cancel, hooks, true, done);
    }
}

/// One lane's in-flight sample: its aged instance, its netlist (built
/// once per phase; only the bitline waveforms are swapped between
/// probes, mirroring the scalar [`ProbeContext`](crate::probe)), and the
/// search state machine deciding the next probe.
struct LaneJob {
    index: usize,
    sa: SaInstance,
    net: Netlist,
    fsm: Fsm,
}

enum Fsm {
    Offset(OffsetFsm),
    /// The delay weighting and the corner's bitline swing \[V\].
    Delay(DelayFsm, f64),
}

/// What a lane does after a probe completes.
enum Advance {
    /// The FSM queued another probe: restart the lane.
    Next,
    /// The sample's measurement is complete.
    Done(f64),
    /// The sample needs the scalar path (out-of-range search, missing
    /// crossing): rerun it whole.
    Scalar,
}

impl LaneJob {
    /// Starts the FSM's current probe on `lane`: swaps the bitline
    /// waveforms to this probe's drive and launches the transient with
    /// the *shared* parameter builders — the identical `TranParams` the
    /// scalar path would construct.
    fn start_current(
        &mut self,
        cfg: &McConfig,
        runner: &mut BatchRunner,
        lane: usize,
    ) -> Result<(), issa_circuit::CircuitError> {
        let opts = &cfg.probe;
        let params: TranParams = match &self.fsm {
            Fsm::Offset(fsm) => {
                let (v_bl, v_blbar) = offset_drive_levels(fsm.current_vin(), self.sa.env.vdd);
                self.net.set_vsource_waveform(BL_BRANCH, Waveform::dc(v_bl));
                self.net
                    .set_vsource_waveform(BLBAR_BRANCH, Waveform::dc(v_blbar));
                self.sa
                    .regen_params(v_bl, v_blbar, opts.t_enable, opts, 1.0)
            }
            Fsm::Delay(fsm, swing) => {
                let read_value = fsm.current_read();
                let drive = DriveSpec::delay_probe(read_value, *swing, &cfg.env, opts);
                self.net.set_vsource_waveform(BL_BRANCH, drive.bl.clone());
                self.net
                    .set_vsource_waveform(BLBAR_BRANCH, drive.blbar.clone());
                let out_signal = self.sa.delay_out_signal(read_value);
                self.sa.delay_params(&drive, out_signal, opts)
            }
        };
        crate::perf::record_sense_call();
        runner.start_lane(lane, &self.net, &params)
    }

    /// Consumes the completed probe's trace and advances the search.
    fn advance(&mut self, runner: &BatchRunner, lane: usize, search: &mut OffsetSearch) -> Advance {
        let trace = runner.trace(lane);
        match &mut self.fsm {
            Fsm::Offset(fsm) => match fsm.on_probe(regen_diff(trace)) {
                OffsetStep::Continue => Advance::Next,
                OffsetStep::Done { result, next } => {
                    // Update the lane's warm-start carrier exactly like
                    // the scalar search does on success.
                    *search = next;
                    Advance::Done(result)
                }
                OffsetStep::OutOfRange => Advance::Scalar,
            },
            Fsm::Delay(fsm, _) => {
                let out_signal = self.sa.delay_out_signal(fsm.current_read());
                match crate::probe::delay_from_trace(trace, out_signal, self.sa.env.vdd) {
                    Err(_) => Advance::Scalar,
                    Ok(d) => fsm.on_delay(d).map_or(Advance::Next, Advance::Done),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::FailureKind;
    use crate::netlist::SaKind;
    use crate::workload::{ReadSequence, Workload};
    use issa_ptm45::Environment;

    fn cfg(samples: usize) -> McConfig {
        let mut cfg = McConfig::smoke(
            SaKind::Issa,
            Workload::new(0.8, ReadSequence::AllZeros),
            Environment::nominal(),
            1e8,
            samples,
        );
        cfg.batch_lanes = 4;
        cfg
    }

    fn outcome(run: SampleRun) -> SampleOutcome {
        match run {
            SampleRun::Done(v) => Ok(v),
            SampleRun::Failed(f) => Err(f),
            SampleRun::Cancelled => panic!("nothing cancels here"),
        }
    }

    fn scalar_offsets(cfg: &McConfig, indices: &[usize]) -> Vec<(usize, SampleOutcome)> {
        let mut search = OffsetSearch::default();
        indices
            .iter()
            .map(|&i| {
                (
                    i,
                    outcome(run_offset_sample_with(cfg, i, None, &mut search)),
                )
            })
            .collect()
    }

    /// Strips the nondeterministic recovery attribution for comparison
    /// (the scalar rerun recomputes it on a different thread-local).
    fn key(outcome: &SampleOutcome) -> Result<u64, (usize, McPhase, String)> {
        match outcome {
            Ok(v) => Ok(v.to_bits()),
            Err(f) => Err((f.index, f.phase, f.error.clone())),
        }
    }

    fn assert_same(a: &[(usize, SampleOutcome)], b: &[(usize, SampleOutcome)]) {
        assert_eq!(a.len(), b.len());
        for ((ai, ao), (bi, bo)) in a.iter().zip(b) {
            assert_eq!(ai, bi);
            assert_eq!(key(ao), key(bo), "sample {ai}");
        }
    }

    #[test]
    fn batched_offsets_are_bit_identical_to_scalar() {
        let cfg = cfg(6);
        let indices: Vec<usize> = (0..cfg.samples).collect();
        let batched = run_samples(&cfg, SamplePhase::Offset, &indices, None, &mut NoHooks);
        assert_same(&batched, &scalar_offsets(&cfg, &indices));
    }

    #[test]
    fn batched_delays_are_bit_identical_to_scalar() {
        let cfg = cfg(4);
        let indices: Vec<usize> = (0..cfg.samples).collect();
        let swing = 0.1 * cfg.env.vdd;
        let phase = SamplePhase::Delay(swing);
        let batched = run_samples(&cfg, phase, &indices, None, &mut NoHooks);
        let scalar: Vec<(usize, SampleOutcome)> = indices
            .iter()
            .map(|&i| (i, outcome(run_delay_sample(&cfg, i, swing, None))))
            .collect();
        assert_same(&batched, &scalar);
    }

    #[test]
    fn out_of_range_samples_fall_back_to_scalar_with_identical_failures() {
        // A vin_max far below the offset spread: every search ends
        // OffsetOutOfRange in-lane, peels off, and the scalar rerun must
        // reproduce the exact scalar failure record.
        let mut cfg = cfg(4);
        cfg.probe.vin_max = 1e-6;
        cfg.max_failure_frac = 1.0;
        let indices: Vec<usize> = (0..cfg.samples).collect();
        let before = issa_circuit::perf::snapshot();
        let batched = run_samples(&cfg, SamplePhase::Offset, &indices, None, &mut NoHooks);
        let fallbacks = issa_circuit::perf::snapshot()
            .delta_since(&before)
            .scalar_fallbacks;
        assert!(
            fallbacks >= indices.len() as u64,
            "every sample must have fallen back (saw {fallbacks})"
        );
        assert_same(&batched, &scalar_offsets(&cfg, &indices));
    }

    #[test]
    fn empty_index_list_is_a_noop() {
        let cfg = cfg(2);
        assert!(run_samples(&cfg, SamplePhase::Offset, &[], None, &mut NoHooks).is_empty());
    }

    /// Every config the route decision sends to the scalar route gives
    /// what lanes 0 gives, runs no lockstep round and counts no
    /// fallback. The budgets trip on every sample, so the lockstep route
    /// (which cannot enforce them) would return values instead.
    #[test]
    fn scalar_route_configs_match_lanes_zero_without_fallbacks() {
        let indices = [0, 1, 2];
        let lanes8 = McConfig {
            batch_lanes: 8,
            max_failure_frac: 1.0,
            ..cfg(indices.len())
        };
        let routed = [
            (
                "lanes 1",
                McConfig {
                    batch_lanes: 1,
                    ..lanes8.clone()
                },
            ),
            (
                "step budget",
                McConfig {
                    sample_step_budget: Some(1),
                    ..lanes8.clone()
                },
            ),
            (
                "wall budget",
                McConfig {
                    sample_wall_budget_s: Some(0.0),
                    ..lanes8.clone()
                },
            ),
            (
                "vin_max 0",
                McConfig {
                    probe: crate::probe::ProbeOptions {
                        vin_max: 0.0,
                        ..lanes8.probe
                    },
                    ..lanes8.clone()
                },
            ),
        ];
        for (name, cfg) in routed {
            let before = issa_circuit::perf::thread_snapshot();
            let got = run_samples(&cfg, SamplePhase::Offset, &indices, None, &mut NoHooks);
            let spent = issa_circuit::perf::thread_snapshot().delta_since(&before);
            assert_eq!(spent.batched_steps, 0, "{name}: no lockstep round");
            assert_eq!(spent.scalar_fallbacks, 0, "{name}: nothing falls back");
            let budgeted = cfg.sample_step_budget.is_some() || cfg.sample_wall_budget_s.is_some();
            let lanes0 = McConfig {
                batch_lanes: 0,
                ..cfg
            };
            let want = run_samples(&lanes0, SamplePhase::Offset, &indices, None, &mut NoHooks);
            assert_eq!(got.len(), indices.len(), "{name}");
            assert_eq!(want.len(), indices.len(), "{name}");
            for ((gi, go), (wi, wo)) in got.iter().zip(&want) {
                assert_eq!(gi, wi, "{name}");
                match (go, wo) {
                    (Ok(g), Ok(w)) => assert_eq!(g.to_bits(), w.to_bits(), "{name}: sample {gi}"),
                    _ => assert_eq!(go, wo, "{name}: sample {gi}"),
                }
                if budgeted {
                    assert!(
                        matches!(wo, Err(f) if f.kind == FailureKind::TimedOut),
                        "{name}: the budget trips on sample {wi}: {wo:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn hooks_observe_every_completion_and_can_stop_the_list() {
        struct Counting {
            seen: Vec<usize>,
        }
        impl BatchHooks for Counting {
            fn on_sample(&mut self, index: usize, _outcome: Result<f64, &SampleFailure>) {
                self.seen.push(index);
            }
        }
        struct StopNow;
        impl BatchHooks for StopNow {
            fn on_slice(&mut self) -> bool {
                false
            }
        }
        for lanes in [0, 4] {
            let cfg = McConfig {
                batch_lanes: lanes,
                ..cfg(4)
            };
            let indices: Vec<usize> = (0..cfg.samples).collect();
            let mut hooks = Counting { seen: Vec::new() };
            let runs = run_samples(&cfg, SamplePhase::Offset, &indices, None, &mut hooks);
            let mut seen = hooks.seen;
            seen.sort_unstable();
            assert_eq!(seen, indices, "lanes {lanes}");
            assert_eq!(runs.len(), indices.len(), "lanes {lanes}");

            let stopped = run_samples(&cfg, SamplePhase::Offset, &indices, None, &mut StopNow);
            assert!(stopped.len() < indices.len(), "lanes {lanes}");
        }
    }
}
