//! Batched lockstep scheduling of Monte Carlo sample probes.
//!
//! The scalar Monte Carlo loop runs one probe transient at a time; its
//! cost is dominated by the per-iteration Newton factor+solve. This
//! module packs up to [`McConfig::batch_lanes`] samples of one corner
//! into a [`BatchRunner`] (structure-of-arrays Newton across lanes,
//! [`issa_circuit::batch`]) and advances them in lockstep, refilling a
//! lane with the next probe — of the same sample's search, or of the
//! next queued sample — the moment its transient finishes.
//!
//! # Bit-identity contract
//!
//! Batching changes *scheduling only*: every probe a lane runs is the
//! exact transient the scalar path would have run (shared
//! [`TranParams`] builders in [`crate::probe`], shared drive-level and
//! trace-extraction helpers, a lane engine whose per-lane IEEE operation
//! sequence equals the scalar engine's), and each lane drives the same
//! search state machines as the scalar path (`OffsetFsm` for the offset
//! binary search, `DelayFsm` for the weighted delay, both in
//! [`crate::probe`]), so a lane probes exactly the points
//! [`SaInstance::offset_voltage_with`] would.
//!
//! # Scalar fallback
//!
//! Anything the lockstep engine cannot reproduce exactly is *peeled
//! off*: the whole sample is rerun on the untouched scalar path (full
//! quarantine contract — recovery ladder, panic isolation, fault-plan
//! arming), which regenerates the exact value or [`SampleFailure`] a
//! scalar run would have produced. This covers:
//!
//! - any lane transient error (the batch engine has no recovery ladder);
//! - an out-of-range offset search or missing delay crossing (the
//!   scalar rerun reproduces the exact failure record);
//! - fault-plan–targeted samples, pre-routed before ever entering a
//!   lane ([`FaultScope`] is thread-local: an armed plan would inject
//!   into *every* lane sharing the thread);
//! - configurations the engine does not support at all (unsupported
//!   system size, `batch_lanes < 2`, invalid probe options): the
//!   drivers return `None` and the caller keeps its scalar loop.
//!
//! Each fallback increments
//! [`issa_circuit::perf::record_scalar_fallback`], so occupancy
//! regressions are visible in the perf counters.

use crate::montecarlo::{
    build_sample, run_delay_sample, run_offset_sample_with, McConfig, SampleRun,
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

/// Caller hooks into the batch drivers' progress.
///
/// The montecarlo shard loop uses [`BatchHooks::on_sample`] to forward
/// completions to its [`McObserver`](crate::montecarlo::McObserver); a
/// distribution worker uses [`BatchHooks::on_slice`] to heartbeat its
/// coordinator between lockstep slices.
pub trait BatchHooks {
    /// Called between lockstep slices (and between scalar-fallback
    /// reruns). Return `false` to stop the batch early — completed
    /// samples are kept, unstarted ones are simply not computed, exactly
    /// like a cancellation.
    fn on_slice(&mut self) -> bool {
        true
    }

    /// Called once per completed sample (fresh results only, in
    /// completion order — *not* index order).
    fn on_sample(&mut self, index: usize, run: &SampleRun) {
        let _ = (index, run);
    }
}

/// [`BatchHooks`] that observe nothing — a plain in-process batch run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl BatchHooks for NoHooks {}

/// Whether `cfg` selects the batched sample loop: `batch_lanes > 1` and
/// no per-sample watchdog budget armed (the watchdog's step/wall
/// accounting is per-thread-scoped and cannot attribute lockstep work to
/// one sample; such configs keep the scalar loop).
#[must_use]
pub fn batching_enabled(cfg: &McConfig) -> bool {
    cfg.batch_lanes > 1 && cfg.sample_step_budget.is_none() && cfg.sample_wall_budget_s.is_none()
}

/// Runs the offset phase for `indices` through the lockstep engine.
///
/// Returns `None` when the configuration cannot be batched (unsupported
/// system size or lane count, invalid search options) — the caller runs
/// its scalar loop instead. `Some(runs)` holds one entry per computed
/// sample, sorted by index; samples stopped by cancellation (or
/// [`BatchHooks::on_slice`] returning `false`) are absent, exactly like
/// the scalar loop's early break. Every entry is bit-identical to what
/// [`run_offset_sample_with`] would have produced.
pub fn run_offset_batch(
    cfg: &McConfig,
    indices: &[usize],
    cancel: Option<&CancelToken>,
    hooks: &mut dyn BatchHooks,
) -> Option<Vec<(usize, SampleRun)>> {
    if !(cfg.probe.offset_tol > 0.0 && cfg.probe.vin_max > 0.0) {
        // The scalar search would panic (per sample, inside its guarded
        // region); let it, so the failure records match.
        return None;
    }
    run_batch(cfg, indices, &PhaseKind::Offset, cancel, hooks)
}

/// Runs the delay phase for `indices` through the lockstep engine at the
/// corner-wide bitline swing `swing_volts`. Same contract as
/// [`run_offset_batch`]; entries are bit-identical to
/// [`run_delay_sample`].
pub fn run_delay_batch(
    cfg: &McConfig,
    indices: &[usize],
    swing_volts: f64,
    cancel: Option<&CancelToken>,
    hooks: &mut dyn BatchHooks,
) -> Option<Vec<(usize, SampleRun)>> {
    let zero_fraction =
        compile_workload(cfg.workload, cfg.kind, cfg.counter_bits).internal_zero_fraction;
    if !(0.0..=1.0).contains(&zero_fraction) {
        // sensing_delay_weighted would assert; keep the scalar panic path.
        return None;
    }
    let phase = PhaseKind::Delay {
        swing: swing_volts,
        zero_fraction,
    };
    run_batch(cfg, indices, &phase, cancel, hooks)
}

enum PhaseKind {
    Offset,
    Delay { swing: f64, zero_fraction: f64 },
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
    /// Builds sample `index`'s instance and netlist and starts its first
    /// probe on `lane`. On a start error the sample goes to the scalar
    /// queue (which reproduces the error under the quarantine contract).
    fn start(
        cfg: &McConfig,
        index: usize,
        phase: &PhaseKind,
        runner: &mut BatchRunner,
        lane: usize,
        search: &OffsetSearch,
    ) -> Result<LaneJob, ()> {
        let sa = build_sample(cfg, index);
        let (fsm, drive) = match phase {
            PhaseKind::Offset => {
                let fsm = OffsetFsm::new(&cfg.probe, search);
                let drive =
                    DriveSpec::offset_probe(0.0, &cfg.env, cfg.probe.t_enable, cfg.probe.edge);
                (Fsm::Offset(fsm), drive)
            }
            PhaseKind::Delay {
                swing,
                zero_fraction,
            } => {
                let fsm = DelayFsm::new(*zero_fraction);
                let drive =
                    DriveSpec::delay_probe(fsm.current_read(), *swing, &cfg.env, &cfg.probe);
                (Fsm::Delay(fsm, *swing), drive)
            }
        };
        let net = sa.build_netlist(&drive);
        let mut job = LaneJob {
            index,
            sa,
            net,
            fsm,
        };
        job.start_current(cfg, runner, lane).map_err(|_| ())?;
        Ok(job)
    }

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
            Fsm::Offset(fsm) => match fsm.on_decision(regen_diff(trace) > 0.0) {
                OffsetStep::Continue => Advance::Next,
                OffsetStep::Done { result, flip_lo } => {
                    // Update the lane's warm-start carrier exactly like
                    // the scalar search does on success.
                    search.center = Some(flip_lo);
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

/// The shared batch driver: refills idle lanes from the index queue,
/// advances all lanes in lockstep slices, and reruns peeled-off samples
/// on the scalar path at the end.
fn run_batch(
    cfg: &McConfig,
    indices: &[usize],
    phase: &PhaseKind,
    cancel: Option<&CancelToken>,
    hooks: &mut dyn BatchHooks,
) -> Option<Vec<(usize, SampleRun)>> {
    if indices.is_empty() {
        return Some(Vec::new());
    }
    // Structural template: probe drives differ per sample/probe but the
    // netlist topology is fixed by (kind, sizing), which is all the
    // runner's monomorphized engine keys on.
    let template_drive = match phase {
        PhaseKind::Offset => {
            DriveSpec::offset_probe(0.0, &cfg.env, cfg.probe.t_enable, cfg.probe.edge)
        }
        PhaseKind::Delay { swing, .. } => {
            DriveSpec::delay_probe(false, *swing, &cfg.env, &cfg.probe)
        }
    };
    let mut template_sa = SaInstance::fresh(cfg.kind, cfg.env);
    template_sa.sizing = cfg.sizing;
    let template = template_sa.build_netlist(&template_drive);
    let mut runner = BatchRunner::new(&template, cfg.batch_lanes)?;
    let width = runner.lane_width();

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
    let mut done: Vec<(usize, SampleRun)> = Vec::new();
    let mut events: Vec<LaneEvent> = Vec::new();
    let mut stopped = false;

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
                match LaneJob::start(cfg, index, phase, &mut runner, lane, &searches[lane]) {
                    Ok(job) => {
                        jobs[lane] = Some(job);
                        break;
                    }
                    Err(()) => scalar_queue.push(index),
                }
            }
        }
        if !runner.any_active() {
            break;
        }
        if cancel.is_some_and(CancelToken::is_cancelled) || !hooks.on_slice() {
            stopped = true;
            break;
        }
        runner.step_rounds(SLICE_ROUNDS, &mut events);
        for ev in events.drain(..) {
            let mut job = jobs[ev.lane].take().expect("event from a lane with a job");
            match ev.outcome {
                // Lane transient error: the batch engine has no recovery
                // ladder, so the scalar rerun (which has one) decides
                // whether the sample survives or how it is quarantined.
                Err(_) => scalar_queue.push(job.index),
                Ok(()) => match job.advance(&runner, ev.lane, &mut searches[ev.lane]) {
                    Advance::Next => match job.start_current(cfg, &mut runner, ev.lane) {
                        Ok(()) => jobs[ev.lane] = Some(job),
                        Err(_) => scalar_queue.push(job.index),
                    },
                    Advance::Done(v) => {
                        let run = SampleRun::Done(v);
                        hooks.on_sample(job.index, &run);
                        done.push((job.index, run));
                    }
                    Advance::Scalar => scalar_queue.push(job.index),
                },
            }
        }
    }

    // Peeled-off samples rerun whole on the scalar path: bit-identical
    // values, bit-identical failure records (recovery ladder, fault
    // arming, panic isolation — the full quarantine contract). A fresh
    // carrier per rerun keeps each independent of batch scheduling;
    // carriers never change results anyway.
    if !stopped {
        for index in scalar_queue {
            if cancel.is_some_and(CancelToken::is_cancelled) || !hooks.on_slice() {
                break;
            }
            issa_circuit::perf::record_scalar_fallback();
            let run = match phase {
                PhaseKind::Offset => {
                    run_offset_sample_with(cfg, index, cancel, &mut OffsetSearch::default())
                }
                PhaseKind::Delay { swing, .. } => run_delay_sample(cfg, index, *swing, cancel),
            };
            if matches!(run, SampleRun::Cancelled) {
                break;
            }
            hooks.on_sample(index, &run);
            done.push((index, run));
        }
    }

    done.sort_by_key(|&(i, _)| i);
    Some(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::{run_delay_sample, McPhase, SampleFailure};
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

    fn scalar_offsets(cfg: &McConfig, indices: &[usize]) -> Vec<(usize, SampleRun)> {
        let mut search = OffsetSearch::default();
        indices
            .iter()
            .map(|&i| (i, run_offset_sample_with(cfg, i, None, &mut search)))
            .collect()
    }

    /// Strips the nondeterministic recovery attribution for comparison
    /// (the scalar rerun recomputes it on a different thread-local).
    fn key(run: &SampleRun) -> (Option<u64>, Option<(usize, McPhase, String)>) {
        match run {
            SampleRun::Done(v) => (Some(v.to_bits()), None),
            SampleRun::Failed(SampleFailure {
                index,
                phase,
                error,
                ..
            }) => (None, Some((*index, *phase, error.clone()))),
            SampleRun::Cancelled => (None, None),
        }
    }

    #[test]
    fn batched_offsets_are_bit_identical_to_scalar() {
        let cfg = cfg(6);
        let indices: Vec<usize> = (0..cfg.samples).collect();
        let batched = run_offset_batch(&cfg, &indices, None, &mut NoHooks)
            .expect("ISSA at default options must be batchable");
        let scalar = scalar_offsets(&cfg, &indices);
        assert_eq!(batched.len(), scalar.len());
        for ((bi, br), (si, sr)) in batched.iter().zip(&scalar) {
            assert_eq!(bi, si);
            assert_eq!(key(br), key(sr), "sample {bi}");
        }
    }

    #[test]
    fn batched_delays_are_bit_identical_to_scalar() {
        let cfg = cfg(4);
        let indices: Vec<usize> = (0..cfg.samples).collect();
        let swing = 0.1 * cfg.env.vdd;
        let batched = run_delay_batch(&cfg, &indices, swing, None, &mut NoHooks)
            .expect("ISSA at default options must be batchable");
        let scalar: Vec<(usize, SampleRun)> = indices
            .iter()
            .map(|&i| (i, run_delay_sample(&cfg, i, swing, None)))
            .collect();
        assert_eq!(batched.len(), scalar.len());
        for ((bi, br), (si, sr)) in batched.iter().zip(&scalar) {
            assert_eq!(bi, si);
            assert_eq!(key(br), key(sr), "sample {bi}");
        }
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
        let batched = run_offset_batch(&cfg, &indices, None, &mut NoHooks).expect("batchable");
        let fallbacks = issa_circuit::perf::snapshot()
            .delta_since(&before)
            .scalar_fallbacks;
        assert!(
            fallbacks >= indices.len() as u64,
            "every sample must have fallen back (saw {fallbacks})"
        );
        let scalar = scalar_offsets(&cfg, &indices);
        for ((bi, br), (si, sr)) in batched.iter().zip(&scalar) {
            assert_eq!(bi, si);
            assert_eq!(key(br), key(sr), "sample {bi}");
        }
    }

    #[test]
    fn empty_index_list_is_a_noop() {
        let cfg = cfg(2);
        assert_eq!(
            run_offset_batch(&cfg, &[], None, &mut NoHooks),
            Some(Vec::new())
        );
    }

    #[test]
    fn lane_count_below_two_is_unsupported() {
        let mut cfg = cfg(2);
        cfg.batch_lanes = 1;
        assert!(run_offset_batch(&cfg, &[0, 1], None, &mut NoHooks).is_none());
        assert!(!batching_enabled(&cfg));
        cfg.batch_lanes = 4;
        assert!(batching_enabled(&cfg));
        cfg.sample_step_budget = Some(1_000_000);
        assert!(!batching_enabled(&cfg));
    }

    #[test]
    fn hooks_observe_every_completion_and_can_stop_the_batch() {
        struct Counting {
            seen: Vec<usize>,
        }
        impl BatchHooks for Counting {
            fn on_sample(&mut self, index: usize, _run: &SampleRun) {
                self.seen.push(index);
            }
        }
        let cfg = cfg(4);
        let indices: Vec<usize> = (0..cfg.samples).collect();
        let mut hooks = Counting { seen: Vec::new() };
        let runs = run_offset_batch(&cfg, &indices, None, &mut hooks).expect("batchable");
        let mut seen = hooks.seen;
        seen.sort_unstable();
        assert_eq!(seen, indices);
        assert_eq!(runs.len(), indices.len());

        struct StopNow;
        impl BatchHooks for StopNow {
            fn on_slice(&mut self) -> bool {
                false
            }
        }
        let stopped = run_offset_batch(&cfg, &indices, None, &mut StopNow).expect("batchable");
        assert!(stopped.len() < indices.len());
    }
}
