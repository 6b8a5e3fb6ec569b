//! The corner driver: the one phase sequence every campaign corner goes
//! through, whether its samples are computed in this process
//! ([`run_campaign`](crate::campaign::run_campaign),
//! [`run_tail_mc`](crate::tail::run_tail_mc)) or by remote workers (the
//! distributed coordinator).
//!
//! Classic corners go offsets → delays. Tail corners ([`McConfig::tail`])
//! go pilot → round 1, 2, … → delays: the proposal is fitted to the
//! merged pilot offsets, and after each round the stopping rule is
//! evaluated on the merged records. A corner whose proposal is already
//! resolved runs one shifted offset phase, then delays.
//!
//! The driver computes no sample. Its caller computes each phase's
//! pending indices — in process as one [`run_mc_controlled`] call under
//! [`PhaseSpec::cfg`], remotely as leased units — merges the records back
//! and asks [`CornerRun::advance`] for the next phase. An in-process
//! caller hands over its call's result; otherwise the driver assembles
//! the merged records with a zero-solve [`run_mc_controlled`] where it
//! must decide. Every decision is a function of the merged record set,
//! which is what makes local, distributed and resumed runs bit-identical.

use crate::campaign::{CampaignCorner, CampaignError, CornerOutcome, CornerReport};
use crate::checkpoint::{config_fingerprint, Checkpoint, CornerCheckpoint};
use crate::montecarlo::{
    delay_swing_volts, offset_spec_from_samples, run_mc_controlled, McConfig, McControl, McPhase,
    McResult, McResume, SampleFailure,
};
use crate::tail::{resolve_proposal, tail_log_weight, with_resolved};
use crate::SaError;
use issa_circuit::cancel::{CancelCause, CancelToken};
use std::path::Path;

/// A corner's next phase: which samples to compute, under which config.
#[derive(Debug)]
pub struct PhaseSpec {
    /// Offsets or delays.
    pub phase: McPhase,
    /// The phase's effective configuration. An in-process caller runs
    /// [`run_mc_controlled`] under it; a classic offset phase's config
    /// carries the delay phase too, so a local classic corner is one
    /// engine call.
    pub cfg: McConfig,
    /// Indices of `phase` the merged records do not cover yet (never
    /// empty: a phase with nothing pending is skipped).
    pub pending: Vec<usize>,
}

impl PhaseSpec {
    /// Exact `f64` bits of the resolved proposal's per-device shifts,
    /// positive side first — what a shifted offset assignment carries on
    /// the wire. Empty for pilot, classic and delay phases.
    #[must_use]
    pub fn tail_bits(&self) -> Vec<u64> {
        let proposal = self.cfg.tail.as_ref().and_then(|t| t.resolved.as_ref());
        match proposal.filter(|_| self.phase == McPhase::Offset) {
            Some(p) => p.shift.iter().chain(&p.neg).map(|s| s.to_bits()).collect(),
            None => Vec::new(),
        }
    }
}

/// Where a corner stands; each variant but `Start` names the phase being
/// computed (or just finished).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Start,
    /// Classic offsets, or the shifted offsets of a corner whose tail
    /// proposal is already resolved.
    Offsets,
    /// Tail pilot: indices `[0, samples)` drawn nominally.
    Pilot,
    /// Tail round over indices `[0, n)` under the resolved proposal.
    Round(usize),
    /// Delays of a corner whose offsets stop at `n` samples.
    Delays(usize),
}

/// One corner's progress through its phases.
#[derive(Debug)]
pub struct CornerRun<'a> {
    name: &'a str,
    cfg: &'a McConfig,
    /// Every record merged so far, restored ones included: the corner's
    /// checkpoint entry, and the resume each phase restores.
    resume: McResume,
    /// The checkpoint fingerprint: the verified one of a restored entry,
    /// otherwise computed when the corner is first written.
    fingerprint: Option<u64>,
    step: Step,
    /// The config an unresolved tail corner's rounds draw under, once
    /// its proposal is fitted.
    resolved: Option<Box<McConfig>>,
    /// Adaptive tail rounds issued, for the result's tail summary.
    rounds: u32,
    outcome: Option<CornerOutcome>,
    /// Progress prefix for stderr (`None`: silent).
    progress: Option<&'static str>,
}

impl<'a> CornerRun<'a> {
    /// A corner starting from the records in `resume`.
    #[must_use]
    pub fn new(
        name: &'a str,
        cfg: &'a McConfig,
        resume: McResume,
        progress: Option<&'static str>,
    ) -> Self {
        CornerRun {
            name,
            cfg,
            resume,
            fingerprint: None,
            step: Step::Start,
            resolved: None,
            rounds: 0,
            outcome: None,
            progress,
        }
    }

    /// The corner's name.
    #[must_use]
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Every record merged so far.
    #[must_use]
    pub fn resume(&self) -> &McResume {
        &self.resume
    }

    /// The corner's outcome, once it has one.
    #[must_use]
    pub fn outcome(&self) -> Option<&CornerOutcome> {
        self.outcome.as_ref()
    }

    /// Moves the corner past the phase it was computing (or off the
    /// start) to the next phase with samples pending; `None` once the
    /// corner has its outcome. `ran` is the result of the in-process
    /// call that computed the phase just returned, under its
    /// [`PhaseSpec::cfg`]; `None` when the records came from elsewhere.
    pub fn advance(&mut self, mut ran: Option<Result<McResult, SaError>>) -> Option<PhaseSpec> {
        while self.outcome.is_none() {
            let spec = match (self.step, ran.take()) {
                (Step::Start, _) => {
                    if let Some(label) = self.progress {
                        let (samples, restored) = (self.cfg.samples, self.resume.records());
                        eprintln!(
                            "{label}: corner {:?} ({samples} samples, {restored} restored)",
                            self.name
                        );
                    }
                    let pilot = self.cfg.tail.as_ref().is_some_and(|t| t.resolved.is_none());
                    self.step = if pilot { Step::Pilot } else { Step::Offsets };
                    self.offset_phase()
                }
                // The call that computed the offsets under the corner's
                // own config went on to its delays: it is the result.
                (Step::Offsets, Some(result)) => {
                    self.finish(result);
                    continue;
                }
                (Step::Offsets, None) => self.delay_phase(self.cfg.samples),
                (step, ran) => match (
                    step,
                    ran.unwrap_or_else(|| self.assemble(&self.phase_cfg())),
                ) {
                    (Step::Pilot, Ok(r)) if !r.partial => self.fit_proposal(),
                    (Step::Round(n), Ok(r))
                        if !r.partial && !r.tail.as_ref().is_some_and(|t| t.converged) =>
                    {
                        self.next_round(n)
                    }
                    (Step::Round(n), Ok(_)) => self.delay_phase(n),
                    // The merged result, a failure budget overrun, or a
                    // cancelled pilot (no proposal: its partial result
                    // is the corner's).
                    (_, result) => {
                        self.finish(result);
                        continue;
                    }
                },
            };
            if !spec.pending.is_empty() {
                return Some(spec);
            }
        }
        None
    }

    /// The bitline swing of the delay phase [`CornerRun::advance`] just
    /// returned — what a remote worker needs to measure it (an
    /// in-process call derives it itself). Classic corners take it from
    /// the merged offsets, tail corners from the weighted spec of the
    /// assembled offsets. `None` when that assembly fails: the corner is
    /// then finished with the error.
    pub fn delay_swing(&mut self) -> Option<f64> {
        let cfg = self.cfg;
        let spec = if cfg.tail.is_none() {
            let mut by_index: Vec<Option<f64>> = vec![None; cfg.samples];
            for &(i, v) in &self.resume.offsets {
                if i < cfg.samples {
                    by_index[i] = Some(v);
                }
            }
            let offsets: Vec<f64> = by_index.into_iter().flatten().collect();
            offset_spec_from_samples(cfg, &offsets)
        } else {
            let probe = McConfig {
                delay_samples: 0,
                ..self.merge_cfg()
            };
            match self.assemble(&probe) {
                Ok(r) => r.spec,
                Err(e) => {
                    self.finish(Err(e));
                    return None;
                }
            }
        };
        Some(delay_swing_volts(cfg, spec))
    }

    /// Merges one fresh sample computed in this process. Its importance
    /// log-weight, if any, follows through [`CornerRun::record_weight`].
    pub fn record(&mut self, phase: McPhase, index: usize, outcome: Result<f64, &SampleFailure>) {
        match (outcome, phase) {
            (Ok(v), McPhase::Offset) => self.resume.offsets.push((index, v)),
            (Ok(v), McPhase::Delay) => self.resume.delays.push((index, v)),
            (Err(f), _) => self.resume.failures.push(f.clone()),
        }
    }

    /// Merges the importance log-weight of a fresh shifted offset.
    pub fn record_weight(&mut self, index: usize, log_weight: f64) {
        self.resume.log_weights.push((index, log_weight));
    }

    /// Merges records computed elsewhere, annotating each offset drawn
    /// under the resolved proposal with its importance log-weight (a
    /// seed-tree replay, no solves), as the in-process engine reports it.
    pub fn absorb(&mut self, records: McResume) {
        let cfg = self.cfg;
        let shifted = cfg.tail.as_ref().is_some_and(|t| t.resolved.is_some());
        if let Some(wcfg) = self.resolved.as_deref().or(shifted.then_some(cfg)) {
            for &(i, _) in &records.offsets {
                let lw = tail_log_weight(wcfg, i);
                if lw != 0.0 {
                    self.resume.log_weights.push((i, lw));
                }
            }
        }
        self.resume.offsets.extend(records.offsets);
        self.resume.delays.extend(records.delays);
        self.resume.failures.extend(records.failures);
    }

    /// The corner's checkpoint entry — every record merged so far — or
    /// `None` while it has none.
    pub fn checkpoint(&mut self) -> Option<CornerCheckpoint> {
        if self.resume.records() == 0 {
            return None;
        }
        let fingerprint = *self
            .fingerprint
            .get_or_insert_with(|| config_fingerprint(self.name, self.cfg));
        Some(CornerCheckpoint {
            name: self.name.to_owned(),
            fingerprint,
            resume: self.resume.clone(),
        })
    }

    /// Ends the corner as a cancellation does: completed work is kept
    /// and reported partial. A corner without a single record fails with
    /// the [`SaError::Cancelled`] the engine would return, without
    /// entering it. No-op once the corner has its outcome.
    pub fn cancel(&mut self) {
        if self.outcome.is_some() {
            return;
        }
        let result = if self.resume.is_empty() {
            Err(SaError::Cancelled {
                completed: 0,
                total: self.cfg.samples,
            })
        } else {
            let token = CancelToken::new();
            token.cancel(CancelCause::Interrupt);
            let ctl = McControl {
                resume: Some(&self.resume),
                observer: None,
                cancel: Some(&token),
            };
            run_mc_controlled(&self.merge_cfg(), &ctl)
        };
        self.finish(result);
    }

    /// The corner's report; a corner that never finished is cancelled.
    #[must_use]
    pub fn into_report(mut self) -> CornerReport {
        self.cancel();
        CornerReport {
            name: self.name.to_owned(),
            outcome: self
                .outcome
                .unwrap_or(CornerOutcome::Failed(SaError::Cancelled {
                    completed: 0,
                    total: self.cfg.samples,
                })),
        }
    }

    /// The offset phase of the current step.
    fn offset_phase(&self) -> PhaseSpec {
        let cfg = self.phase_cfg();
        PhaseSpec {
            phase: McPhase::Offset,
            pending: pending_offsets(&self.resume, cfg.samples),
            cfg,
        }
    }

    /// The delay phase of a corner whose offsets stop at `n` samples.
    fn delay_phase(&mut self, n: usize) -> PhaseSpec {
        self.step = Step::Delays(n);
        PhaseSpec {
            phase: McPhase::Delay,
            pending: pending_delays(&self.resume, self.cfg.delay_samples.min(self.cfg.samples)),
            cfg: self.phase_cfg(),
        }
    }

    /// Fits the tail proposal to the merged pilot offsets (filtered to
    /// pilot indices, sorted and deduplicated inside) and starts the
    /// rounds.
    fn fit_proposal(&mut self) -> PhaseSpec {
        let cfg = self.cfg;
        let proposal = resolve_proposal(cfg, &self.resume.offsets);
        if let Some(label) = self.progress {
            eprintln!(
                "{label}: corner {:?} tail proposal |shift| {:.3} (pilot {})",
                self.name,
                proposal.magnitude(),
                proposal.pilot
            );
        }
        self.resolved = Some(Box::new(with_resolved(cfg, &proposal.shift, &proposal.neg)));
        self.next_round(cfg.samples)
    }

    /// The next adaptive block after `n` samples, or the delay phase once
    /// the sample cap is reached.
    fn next_round(&mut self, n: usize) -> PhaseSpec {
        let cfg = self.cfg;
        let (max_samples, block) = cfg.tail.as_ref().map_or((n, 1), |t| {
            (t.max_samples.max(cfg.samples), t.block_samples.max(1))
        });
        if n >= max_samples {
            return self.delay_phase(n);
        }
        self.rounds += 1;
        self.step = Step::Round(n.saturating_add(block).min(max_samples));
        self.offset_phase()
    }

    /// The config the corner's result is assembled under: a tail corner
    /// past its pilot stops at its current sample count, with delays over
    /// (at most) the pilot indices; every other corner uses its own.
    fn merge_cfg(&self) -> McConfig {
        match (self.step, &self.resolved) {
            (Step::Round(n) | Step::Delays(n), Some(resolved)) => McConfig {
                samples: n,
                delay_samples: self.cfg.delay_samples.min(self.cfg.samples),
                ..(**resolved).clone()
            },
            _ => self.cfg.clone(),
        }
    }

    /// The effective config of the current step's phase: the merge
    /// config, without delays for the pilot and the rounds.
    fn phase_cfg(&self) -> McConfig {
        let merge = self.merge_cfg();
        match self.step {
            Step::Pilot | Step::Round(_) => McConfig {
                delay_samples: 0,
                ..merge
            },
            _ => merge,
        }
    }

    /// The merged records' statistics under `cfg`, all restored.
    fn assemble(&self, cfg: &McConfig) -> Result<McResult, SaError> {
        let ctl = McControl {
            resume: Some(&self.resume),
            ..McControl::default()
        };
        run_mc_controlled(cfg, &ctl)
    }

    /// Sets the outcome `result` makes, with the tail rounds filled in.
    fn finish(&mut self, result: Result<McResult, SaError>) {
        let outcome = match result {
            Ok(mut r) => {
                if let Some(t) = r.tail.as_mut() {
                    t.rounds = self.rounds;
                }
                CornerOutcome::Completed(Box::new(r))
            }
            Err(e) => CornerOutcome::Failed(e),
        };
        if let Some(label) = self.progress {
            let name = self.name;
            match &outcome {
                CornerOutcome::Completed(r) if r.partial => eprintln!(
                    "{label}: corner {name:?} PARTIAL ({}/{} offsets)",
                    r.offsets.len(),
                    r.requested
                ),
                CornerOutcome::Completed(_) => eprintln!("{label}: corner {name:?} done"),
                CornerOutcome::Failed(e) => eprintln!("{label}: corner {name:?} FAILED: {e}"),
            }
        }
        self.outcome = Some(outcome);
    }
}

/// Loads the checkpoint at `path` when the file exists, verifies it
/// against `corners`, and starts one driver per corner from its restored
/// records. Returns the drivers, in campaign order, and the number of
/// records the file held.
///
/// # Errors
///
/// An untrusted checkpoint ([`CampaignError::Checkpoint`]), or one
/// written under another configuration of a corner
/// ([`CampaignError::FingerprintMismatch`]).
pub fn restore<'a>(
    corners: &'a [CampaignCorner],
    path: Option<&Path>,
    progress: Option<&'static str>,
) -> Result<(Vec<CornerRun<'a>>, usize), CampaignError> {
    let mut restored = Checkpoint::default();
    if let Some(path) = path {
        if path.exists() {
            restored = Checkpoint::load(path)?;
        }
    }
    let records = restored.records();
    let mut entries = restored.corners;
    let mut runs = Vec::with_capacity(corners.len());
    for corner in corners {
        let mut run = CornerRun::new(&corner.name, &corner.cfg, McResume::default(), progress);
        if let Some(k) = entries.iter().position(|e| e.name == corner.name) {
            let entry = entries.swap_remove(k);
            let expected = config_fingerprint(&corner.name, &corner.cfg);
            if entry.fingerprint != expected {
                return Err(CampaignError::FingerprintMismatch {
                    corner: corner.name.clone(),
                    stored: entry.fingerprint,
                    expected,
                });
            }
            run.fingerprint = Some(expected);
            run.resume = entry.resume;
        }
        runs.push(run);
    }
    Ok((runs, records))
}

/// Which indices in `[0, n)` have a `phase` value or failure merged.
fn covered(resume: &McResume, phase: McPhase, n: usize) -> Vec<bool> {
    let values = match phase {
        McPhase::Offset => &resume.offsets,
        McPhase::Delay => &resume.delays,
    };
    let failed = resume.failures.iter().filter(|f| f.phase == phase);
    let mut done = vec![false; n];
    for i in values
        .iter()
        .map(|&(i, _)| i)
        .chain(failed.map(|f| f.index))
    {
        if i < n {
            done[i] = true;
        }
    }
    done
}

/// Offset indices in `[0, n)` still to compute.
fn pending_offsets(resume: &McResume, n: usize) -> Vec<usize> {
    let done = covered(resume, McPhase::Offset, n);
    (0..n).filter(|&i| !done[i]).collect()
}

/// Delay indices in `[0, n)` still to compute: the sample's offset must
/// have completed and its delay must not be covered yet.
fn pending_delays(resume: &McResume, n: usize) -> Vec<usize> {
    let done = covered(resume, McPhase::Delay, n);
    let mut wanted = vec![false; n];
    for &(i, _) in &resume.offsets {
        if i < n && !done[i] {
            wanted[i] = true;
        }
    }
    (0..n).filter(|&i| wanted[i]).collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::montecarlo::{run_delay_sample, run_mc, run_offset_sample_with, SampleRun};
    use crate::netlist::SaKind;
    use crate::tail::{run_tail_mc, TailConfig};
    use crate::workload::{ReadSequence, Workload};
    use crate::OffsetSearch;
    use issa_ptm45::Environment;

    fn classic(samples: usize) -> McConfig {
        McConfig::smoke(
            SaKind::Nssa,
            Workload::new(0.8, ReadSequence::AllZeros),
            Environment::nominal(),
            1e8,
            samples,
        )
    }

    /// A tail corner with a 16-sample pilot (enough for a real proposal
    /// fit over the 12 matched devices), blocks of 4 and a cap of 24.
    /// `ci_rel_target` 0 never converges, so the rounds run to the cap.
    fn tail() -> McConfig {
        McConfig {
            tail: Some(TailConfig {
                ci_rel_target: 0.0,
                block_samples: 4,
                max_samples: 24,
                ..TailConfig::default()
            }),
            ..classic(16)
        }
    }

    /// Computes a phase the way a remote worker does: every pending
    /// index on its own, under the phase's config.
    fn compute(spec: &PhaseSpec, swing: f64) -> McResume {
        let mut records = McResume::default();
        let mut search = OffsetSearch::default();
        for &i in &spec.pending {
            let run = match spec.phase {
                McPhase::Offset => run_offset_sample_with(&spec.cfg, i, None, &mut search),
                McPhase::Delay => run_delay_sample(&spec.cfg, i, swing, None),
            };
            match (run, spec.phase) {
                (SampleRun::Done(v), McPhase::Offset) => records.offsets.push((i, v)),
                (SampleRun::Done(v), McPhase::Delay) => records.delays.push((i, v)),
                (SampleRun::Failed(f), _) => records.failures.push(f),
                (SampleRun::Cancelled, _) => panic!("nothing cancels here"),
            }
        }
        records
    }

    /// Drives `run` to its outcome as the coordinator does, returning the
    /// phases it served as `(phase, first pending, pending count, shifted)`.
    fn drive_remotely(run: &mut CornerRun<'_>) -> Vec<(McPhase, usize, usize, bool)> {
        let mut served = Vec::new();
        while let Some(spec) = run.advance(None) {
            let swing = match spec.phase {
                McPhase::Offset => 0.0,
                McPhase::Delay => run.delay_swing().unwrap(),
            };
            let shifted = !spec.tail_bits().is_empty();
            served.push((spec.phase, spec.pending[0], spec.pending.len(), shifted));
            run.absorb(compute(&spec, swing));
        }
        served
    }

    fn completed(run: &CornerRun<'_>) -> McResult {
        match run.outcome() {
            Some(CornerOutcome::Completed(r)) => (**r).clone(),
            other => panic!("corner did not complete: {other:?}"),
        }
    }

    #[test]
    fn classic_corner_goes_offsets_then_delays_then_merges() {
        let cfg = classic(4);
        let mut run = CornerRun::new("classic", &cfg, McResume::default(), None);
        let served = drive_remotely(&mut run);
        assert_eq!(
            served,
            vec![
                (McPhase::Offset, 0, 4, false),
                (McPhase::Delay, 0, 4, false)
            ]
        );
        assert_eq!(completed(&run), run_mc(&cfg).unwrap());

        // In process, the offset phase's own call runs the delays too:
        // its result is the corner's, with no second phase.
        let mut local = CornerRun::new("classic", &cfg, McResume::default(), None);
        let spec = local.advance(None).unwrap();
        assert_eq!(spec.cfg.delay_samples, cfg.delay_samples);
        let result = run_mc(&spec.cfg).unwrap();
        assert!(local.advance(Some(Ok(result.clone()))).is_none());
        let merged = completed(&local);
        assert_eq!(merged, result);
        assert_eq!(
            merged.perf, result.perf,
            "the call's own result was not kept"
        );
    }

    #[test]
    fn unresolved_tail_corner_runs_pilot_rounds_delays_and_stops_at_the_cap() {
        let cfg = tail();
        let mut run = CornerRun::new("tail", &cfg, McResume::default(), None);
        let served = drive_remotely(&mut run);
        assert_eq!(
            served,
            vec![
                (McPhase::Offset, 0, 16, false),
                (McPhase::Offset, 16, 4, true),
                (McPhase::Offset, 20, 4, true),
                (McPhase::Delay, 0, 6, false),
            ]
        );
        let result = completed(&run);
        let summary = result.tail.unwrap();
        assert_eq!((summary.rounds, summary.samples_used), (2, 24));
        assert!(!summary.converged);
        // Every shifted offset carries its log-weight, as in process.
        let shifted = run.resume().log_weights.len();
        assert!(shifted > 0 && shifted <= 8, "{shifted} weights");
        assert_eq!(result, run_tail_mc(&cfg, &McControl::default()).unwrap());
    }

    #[test]
    fn a_pilot_cut_short_or_failed_ends_the_corner() {
        let cfg = tail();
        let mut run = CornerRun::new("cut", &cfg, McResume::default(), None);
        let pilot = run.advance(None).unwrap();
        // A cancellation after three samples: the pilot's partial result
        // is the corner's, with no proposal fitted.
        let mut three = compute(&pilot, 0.0);
        three.offsets.truncate(3);
        let token = CancelToken::new();
        token.cancel(CancelCause::Interrupt);
        let ctl = McControl {
            resume: Some(&three),
            observer: None,
            cancel: Some(&token),
        };
        let partial = run_mc_controlled(&pilot.cfg, &ctl).unwrap();
        assert!(partial.partial);
        assert!(run.advance(Some(Ok(partial.clone()))).is_none());
        assert_eq!(completed(&run), partial);

        let mut failed = CornerRun::new("failed", &cfg, McResume::default(), None);
        failed.advance(None).unwrap();
        let overrun = SaError::FailureBudgetExceeded {
            failed: 16,
            total: 16,
            failures: Vec::new(),
        };
        assert!(failed.advance(Some(Err(overrun.clone()))).is_none());
        assert_eq!(failed.outcome(), Some(&CornerOutcome::Failed(overrun)));
    }

    #[test]
    fn resolved_tail_corner_runs_one_shifted_offset_phase_then_delays() {
        let base = tail();
        let devices = crate::SaInstance::fresh(base.kind, base.env)
            .devices()
            .len();
        let shift = vec![4.0 / (devices as f64).sqrt(); devices];
        let neg: Vec<f64> = shift.iter().map(|s| -s).collect();
        let cfg = with_resolved(&base, &shift, &neg);
        let mut run = CornerRun::new("resolved", &cfg, McResume::default(), None);
        let served = drive_remotely(&mut run);
        assert_eq!(
            served,
            vec![
                (McPhase::Offset, 0, 16, true),
                (McPhase::Delay, 0, 6, false)
            ]
        );
        let result = completed(&run);
        assert_eq!(result.tail.unwrap().rounds, 0);
        assert_eq!(result, run_mc(&cfg).unwrap());
    }

    #[test]
    fn complete_checkpoint_yields_no_phase_and_merges_at_once() {
        for cfg in [classic(4), tail()] {
            let mut first = CornerRun::new("c", &cfg, McResume::default(), None);
            drive_remotely(&mut first);
            let resume = first.resume().clone();
            let mut again = CornerRun::new("c", &cfg, resume, None);
            assert!(
                again.advance(None).is_none(),
                "a complete corner served a phase"
            );
            assert_eq!(completed(&again), completed(&first));
        }
    }

    #[test]
    fn pre_cancelled_empty_corner_fails_without_a_fingerprint() {
        let cfg = tail();
        let mut run = CornerRun::new("never", &cfg, McResume::default(), None);
        run.cancel();
        assert!(
            matches!(
                run.outcome(),
                Some(CornerOutcome::Failed(SaError::Cancelled {
                    completed: 0,
                    total: 16
                }))
            ),
            "got {:?}",
            run.outcome()
        );
        assert_eq!(run.fingerprint, None, "cancelling computed a fingerprint");
        assert!(run.checkpoint().is_none());
        assert_eq!(run.fingerprint, None);
    }
}
