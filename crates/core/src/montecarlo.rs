//! The Monte Carlo offset/delay analysis (paper Section IV-A).
//!
//! For every corner the paper reports, the analysis is:
//!
//! 1. draw `samples` (= 400) SA instances: per-transistor Pelgrom mismatch
//!    plus a per-transistor atomistic trap population;
//! 2. age each instance: compile the workload through the SA's control
//!    behaviour, map it to per-device stress, evaluate the BTI ΔVth at the
//!    stress time (Bernoulli-sampled by default);
//! 3. extract each instance's offset voltage by binary search;
//! 4. summarize μ and σ and solve Eq. 3 for the offset-voltage spec;
//! 5. measure the mean sensing delay on a subset of the aged instances.
//!
//! Determinism: sample `i` draws from seed-tree path `root(seed).child(i)`
//! — results are bit-for-bit reproducible and independent of the total
//! sample count.
//!
//! # Failure quarantine
//!
//! A sample whose probe fails — after the solver's recovery ladder
//! ([`issa_circuit::recovery`]) is exhausted — or whose worker panics is
//! **quarantined**, not fatal: it is recorded in [`McResult::failures`]
//! (index, seed, corner, phase, error, recovery attempts) and the
//! statistics are computed over the survivors. A run only errors
//! ([`SaError::FailureBudgetExceeded`]) when the fraction of distinct
//! failed samples exceeds [`McConfig::max_failure_frac`] — zero by
//! default, so any quarantine is loud unless the caller opts into
//! tolerance. Quarantine is decision-preserving for survivors: each
//! sample is built from its own seed-tree path, so a dead neighbour
//! cannot perturb anyone else's draw or probe.

use crate::calib;
use crate::netlist::{SaInstance, SaKind, SaSizing};
use crate::probe::{OffsetSearch, ProbeOptions};
use crate::spec::offset_spec;
use crate::stress::{compile_workload, device_stress, CompiledWorkload, StressModel};
use crate::variation::MismatchModel;
use crate::workload::Workload;
use crate::SaError;
use issa_bti::hci::HciParams;
use issa_bti::{BtiParams, TrapSet};
use issa_circuit::cancel::{CancelScope, CancelToken};
use issa_circuit::faultinject::{FaultPlan, FaultScope};
use issa_circuit::CircuitError;
use issa_num::rng::SeedSequence;
use issa_num::stats::Summary;
use issa_ptm45::Environment;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// How BTI ΔVth is evaluated per sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AgingMode {
    /// Bernoulli-sample each trap's occupancy (the realistic mode: offset
    /// spread grows with stress time). The default.
    #[default]
    Sampled,
    /// Use the expected (occupancy-weighted) shift — smooth, slightly
    /// faster, useful for calibration sweeps.
    Expected,
}

/// Optional Hot Carrier Injection layer on top of BTI (an extension the
/// paper names but does not evaluate; see `issa_bti::hci`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HciConfig {
    /// The HCI model calibration.
    pub params: HciParams,
    /// Read rate of the memory \[reads/s\] — converts per-read switching
    /// activity into lifetime event counts.
    pub reads_per_second: f64,
}

impl Default for HciConfig {
    fn default() -> Self {
        Self {
            params: HciParams::default_45nm(),
            reads_per_second: 1e9,
        }
    }
}

/// How much bitline swing the sensing-delay measurement provides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelaySwingPolicy {
    /// A fixed fraction of Vdd, identical for every scheme and corner —
    /// the comparable-conditions policy behind the paper's delay columns
    /// and Fig. 7. Must be large enough that even the worst aged sample
    /// senses correctly (0.25·Vdd covers every corner in Tables II–IV).
    FixedFraction(f64),
    /// 1.5× the corner's own offset-voltage spec (what a memory compiled
    /// against that corner would actually provision). Makes the NSSA look
    /// faster at badly aged corners *because* it was granted more develop
    /// time — the trade-off the `ablate_swing_policy` bench quantifies.
    SpecProvisioned,
}

impl Default for DelaySwingPolicy {
    fn default() -> Self {
        DelaySwingPolicy::FixedFraction(0.25)
    }
}

/// Which Monte Carlo phase a quarantined sample died in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McPhase {
    /// The offset-voltage binary search (phase 1).
    Offset,
    /// The sensing-delay measurement (phase 2).
    Delay,
}

impl fmt::Display for McPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McPhase::Offset => write!(f, "offset"),
            McPhase::Delay => write!(f, "delay"),
        }
    }
}

/// What class of event killed a quarantined sample — the coarse taxonomy
/// the perf layer, checkpoints, and failure reports agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureKind {
    /// The solver failed after its recovery ladder was exhausted.
    #[default]
    Solver,
    /// The worker panicked (caught by the per-sample `catch_unwind`).
    Panic,
    /// The per-sample watchdog cancelled the sample: its step or
    /// wall-clock budget ([`McConfig::sample_step_budget`],
    /// [`McConfig::sample_wall_budget_s`]) ran out.
    TimedOut,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Solver => write!(f, "solver"),
            FailureKind::Panic => write!(f, "panic"),
            FailureKind::TimedOut => write!(f, "timed-out"),
        }
    }
}

/// One quarantined Monte Carlo sample: everything needed to reproduce the
/// failure in isolation (`build_sample(cfg, index)` under the same corner)
/// and to see how hard the solver fought before giving up.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleFailure {
    /// Sample index within the corner.
    pub index: usize,
    /// Root seed of the run (sample `index` draws from
    /// `root(seed).child(index)`).
    pub seed: u64,
    /// Human-readable corner label (scheme, workload, environment, stress
    /// time).
    pub corner: String,
    /// Phase the sample died in.
    pub phase: McPhase,
    /// Failure class (solver error, panic, watchdog timeout).
    pub kind: FailureKind,
    /// The error (or panic payload) that killed it.
    pub error: String,
    /// Solver recovery-ladder attempts spent on this sample before the
    /// failure propagated (exact: counted per worker thread).
    pub recovery_attempts: u64,
}

impl fmt::Display for SampleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sample {} (seed {:#x}, {}, {} phase, {}): {} [{} recovery attempts]",
            self.index,
            self.seed,
            self.corner,
            self.phase,
            self.kind,
            self.error,
            self.recovery_attempts
        )
    }
}

/// Configuration of one Monte Carlo corner.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Which SA to analyze.
    pub kind: SaKind,
    /// The applied workload.
    pub workload: Workload,
    /// Temperature / supply corner.
    pub env: Environment,
    /// Stress time \[s\] (0 for the fresh columns of the tables).
    pub time: f64,
    /// Number of Monte Carlo samples (paper: 400).
    pub samples: usize,
    /// Root seed.
    pub seed: u64,
    /// Device sizing.
    pub sizing: SaSizing,
    /// BTI model calibration.
    pub bti: BtiParams,
    /// Mismatch model calibration.
    pub mismatch: MismatchModel,
    /// Workload-to-stress mapping knobs.
    pub stress_model: StressModel,
    /// ISSA control counter width (ignored for the NSSA).
    pub counter_bits: u8,
    /// BTI evaluation mode.
    pub aging_mode: AgingMode,
    /// Probe timing/search parameters.
    pub probe: ProbeOptions,
    /// How many of the aged samples also get a sensing-delay measurement
    /// (delay varies much less than offset, so a subset suffices).
    pub delay_samples: usize,
    /// Target failure rate of the spec solve (paper: 1e-9).
    pub failure_rate: f64,
    /// Bitline-swing policy for the delay measurements.
    pub delay_swing: DelaySwingPolicy,
    /// Optional HCI aging stacked on top of BTI (`None` = paper-faithful,
    /// BTI only).
    pub hci: Option<HciConfig>,
    /// Worker threads for the sample loop (samples are independent; the
    /// result is identical for any thread count). 0 = one per core.
    pub threads: usize,
    /// Batched lockstep lanes for the sample loops: when > 1 (and no
    /// per-sample watchdog budget is armed), each worker shard advances
    /// up to this many samples' probe transients in lockstep through one
    /// structure-of-arrays Newton solve (see [`crate::batch`]). Results
    /// are bit-identical to the scalar path for any lane count — lanes
    /// change how samples are *scheduled*, never what they compute.
    /// 0 or 1 (the default) selects the scalar path.
    pub batch_lanes: usize,
    /// Fraction of samples allowed to fail (after solver recovery) before
    /// the whole run errors with [`SaError::FailureBudgetExceeded`].
    /// Default 0: any quarantined sample fails the run.
    pub max_failure_frac: f64,
    /// Deterministic solver fault injection (testing only; `None` in
    /// production). The plan is armed per sample on the worker thread, so
    /// faults land at exact `(sample, timestep)` coordinates regardless of
    /// thread count.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Per-sample watchdog: maximum base solves (transient base timesteps
    /// plus DC rungs) one sample's whole probe sequence may consume before
    /// it is cancelled and quarantined as [`FailureKind::TimedOut`].
    /// `None` (the default) disables the watchdog. Fully deterministic.
    pub sample_step_budget: Option<u64>,
    /// Per-sample watchdog: wall-clock budget in seconds for one sample's
    /// probe sequence. `None` (the default) disables it. Wall time is
    /// inherently nondeterministic — prefer the step budget wherever
    /// reproducibility matters; this is the safety net for genuinely
    /// stuck solves.
    pub sample_wall_budget_s: Option<f64>,
    /// Importance-sampled tail-estimation mode (see [`crate::tail`]).
    /// `None` — the default — is the classic engine, bit-identical to
    /// previous behaviour. `Some` with an unresolved proposal marks a
    /// config whose pilot, rounds and delay phase the corner driver
    /// ([`crate::driver::CornerRun`]) runs;
    /// `Some` with a resolved proposal makes [`build_sample`] draw
    /// indices past the pilot from the mixture-shifted proposal and makes
    /// [`run_mc_controlled`] assemble weighted statistics.
    pub tail: Option<crate::tail::TailConfig>,
    /// Trace-measured internal-zero-fraction override. `None` — the
    /// default — compiles [`McConfig::workload`] through the synthetic
    /// path ([`compile_workload`]); `Some(az)` bypasses compilation and
    /// stresses devices with the mix a trace replay *measured* through
    /// the array's actual control block. The replay already applied any
    /// input switching, so no re-balancing happens here — re-compiling
    /// would apply the control twice. `workload.activation` still
    /// supplies the (also measured) activation duty.
    pub measured_mix: Option<f64>,
    /// Fingerprint of the workload trace behind [`McConfig::measured_mix`]
    /// (`0` = synthetic workload, no trace). Participates in `Debug` and
    /// therefore in [`crate::checkpoint::config_fingerprint`], so a
    /// checkpoint resume under a swapped trace is refused exactly like a
    /// resume under a different seed.
    pub trace_fingerprint: u64,
}

impl McConfig {
    /// A paper-faithful configuration: 400 samples, 8-bit counter,
    /// fr = 1e-9, calibrated models, default probes.
    pub fn paper(kind: SaKind, workload: Workload, env: Environment, time: f64) -> Self {
        Self {
            kind,
            workload,
            env,
            time,
            samples: calib::MC_SAMPLES,
            seed: 0x1554_2017,
            sizing: SaSizing::paper(),
            bti: BtiParams::default_45nm(),
            mismatch: MismatchModel::calibrated(),
            stress_model: StressModel::default(),
            counter_bits: calib::COUNTER_BITS,
            aging_mode: AgingMode::Sampled,
            probe: ProbeOptions::default(),
            delay_samples: 24,
            failure_rate: calib::FAILURE_RATE,
            delay_swing: DelaySwingPolicy::default(),
            hci: None,
            threads: 0,
            batch_lanes: 0,
            max_failure_frac: 0.0,
            fault_plan: None,
            sample_step_budget: None,
            sample_wall_budget_s: None,
            tail: None,
            measured_mix: None,
            trace_fingerprint: 0,
        }
    }

    /// A reduced configuration for tests and smoke runs: `samples`
    /// samples, fast probes, fewer delay measurements.
    pub fn smoke(
        kind: SaKind,
        workload: Workload,
        env: Environment,
        time: f64,
        samples: usize,
    ) -> Self {
        Self {
            samples,
            probe: ProbeOptions::fast(),
            delay_samples: samples.min(6),
            ..Self::paper(kind, workload, env, time)
        }
    }
}

/// Hot-path cost accounting of one Monte Carlo corner.
///
/// Counter deltas are read from the thread-scoped performance counters
/// ([`issa_circuit::perf::thread_snapshot`],
/// [`crate::perf::thread_sense_calls`]) on every thread the run uses, so
/// they are exact even while other analyses run in the same process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct McPerf {
    /// Wall-clock time of the offset phase \[s\].
    pub offset_wall_s: f64,
    /// Wall-clock time of the delay phase \[s\].
    pub delay_wall_s: f64,
    /// Probe transients launched (offset-search probes + delay probes).
    pub probes: u64,
    /// Simulator-internal work counters across both phases.
    pub circuit: issa_circuit::PerfSnapshot,
}

impl McPerf {
    /// Formats the counters as a compact single-line report. The
    /// `recoveries` group (damped/dt-halved/gmin/source/failed) is all
    /// zeros on a healthy run; anything else is the exact count of solver
    /// recovery-ladder work the corner consumed.
    pub fn report(&self) -> String {
        format!(
            "probes={}  transients={}  steps={}  newton={}  lu={}  \
             recoveries={}/{}/{}/{}/{}  cancelled={}  offset_wall={:.2}s  delay_wall={:.2}s",
            self.probes,
            self.circuit.transients,
            self.circuit.timesteps,
            self.circuit.newton_iterations,
            self.circuit.lu_factorizations,
            self.circuit.recoveries_damped,
            self.circuit.recoveries_dt_halved,
            self.circuit.recoveries_gmin,
            self.circuit.recoveries_source,
            self.circuit.recoveries_failed,
            self.circuit.cancellations,
            self.offset_wall_s,
            self.delay_wall_s
        )
    }
}

/// Result of one Monte Carlo corner.
///
/// Equality compares the physical results (offsets, delays, and the
/// statistics derived from them) and ignores [`McResult::perf`] — wall
/// times and counter splits legitimately differ between equal runs.
#[derive(Debug, Clone)]
pub struct McResult {
    /// Per-sample offset voltages \[V\].
    pub offsets: Vec<f64>,
    /// Per-sample mean sensing delays \[s\] (first `delay_samples` samples).
    pub delays: Vec<f64>,
    /// Offset distribution mean μ \[V\].
    pub mu: f64,
    /// Offset distribution standard deviation σ \[V\].
    pub sigma: f64,
    /// Offset-voltage specification from Eq. 3 \[V\].
    pub spec: f64,
    /// Mean sensing delay \[s\].
    pub mean_delay: f64,
    /// Kolmogorov–Smirnov distance of the offsets to the fitted normal
    /// distribution, scaled by √n. Values ≲ 0.9 are consistent with the
    /// normality that Eq. 3's spec computation assumes (the ~5 %
    /// Lilliefors critical value); larger values flag a corner where the
    /// 6.1 σ extrapolation is questionable.
    pub ks_sqrt_n: f64,
    /// Quarantined samples, ordered by (index, phase). Empty on a healthy
    /// run; statistics above are computed over the survivors only.
    pub failures: Vec<SampleFailure>,
    /// Samples the configuration asked for ([`McConfig::samples`]).
    pub requested: usize,
    /// `true` when the corner was cut short by a campaign-level
    /// cancellation (deadline or interrupt): at least one non-quarantined
    /// sample was never computed and the statistics cover only what
    /// completed. Always `false` on an uninterrupted run, including one
    /// with quarantined failures.
    pub partial: bool,
    /// Half-width of the 95 % Student-t confidence interval on μ \[V\]
    /// — sample-count aware, so partial results are honestly wider. NaN
    /// below two surviving samples.
    pub mu_ci95: f64,
    /// Half-width of the 95 % confidence interval on the mean sensing
    /// delay \[s\]. NaN below two delay measurements.
    pub delay_ci95: f64,
    /// Importance-sampled tail-estimation summary — `Some` exactly when
    /// the run executed with a resolved tail proposal (see
    /// [`crate::tail`]); the statistics above are then the
    /// self-normalized weighted estimators.
    pub tail: Option<crate::tail::TailSummary>,
    /// Hot-path cost accounting (not part of equality).
    pub perf: McPerf,
}

impl PartialEq for McResult {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.delays == other.delays
            && self.mu == other.mu
            && self.sigma == other.sigma
            && self.spec == other.spec
            && (self.mean_delay == other.mean_delay
                || (self.mean_delay.is_nan() && other.mean_delay.is_nan()))
            && (self.ks_sqrt_n == other.ks_sqrt_n
                || (self.ks_sqrt_n.is_nan() && other.ks_sqrt_n.is_nan()))
            && self.failures == other.failures
            && self.requested == other.requested
            && self.partial == other.partial
            && self.mu_ci95.to_bits() == other.mu_ci95.to_bits()
            && self.delay_ci95.to_bits() == other.delay_ci95.to_bits()
            && self.tail == other.tail
    }
}

impl McResult {
    /// Formats the paper's table row: μ (mV), σ (mV), spec (mV), delay (ps).
    pub fn table_row(&self) -> String {
        format!(
            "mu={:7.2} mV  sigma={:6.2} mV  spec={:7.1} mV  delay={:6.2} ps",
            self.mu * 1e3,
            self.sigma * 1e3,
            self.spec * 1e3,
            self.mean_delay * 1e12
        )
    }
}

/// Builds the aged `SaInstance` for sample `index` of the configuration.
///
/// Exposed so examples can inspect individual samples; [`run_mc`] calls it
/// in a loop.
pub fn build_sample(cfg: &McConfig, index: usize) -> SaInstance {
    let root = SeedSequence::root(cfg.seed);
    let sample_seq = root.child(index as u64);
    let cw = cfg.compiled_workload();

    let mut sa = SaInstance::fresh(cfg.kind, cfg.env);
    sa.sizing = cfg.sizing;
    // Importance-sampling hook: with a resolved tail proposal, post-pilot
    // samples assigned to a shifted mixture component add μ_k·σ_k to
    // every device's mismatch draw (see [`crate::tail`]). The classic
    // engine, pilot indices, and nominal-component samples take the
    // `None` path and never touch the draw, so their samples stay
    // bit-identical.
    let tail_shift = crate::tail::proposal_shift_for(cfg, &sample_seq, index);
    for (k, &device) in sa.devices().iter().enumerate() {
        // Independent stream per device so the draw count of one device
        // cannot perturb another.
        let mut rng = sample_seq.child(k as u64).rng();
        let mut mismatch = cfg.mismatch.sample(device, &cfg.sizing, &mut rng);
        if let Some(shift) = &tail_shift {
            let mu_k = shift.get(k).copied().unwrap_or(0.0);
            mismatch += mu_k * cfg.mismatch.sigma_for(device, &cfg.sizing);
        }
        let stress = device_stress(&cfg.stress_model, &cw, device, &cfg.env);
        // The trap population itself is stress-dependent (thermally and
        // field-activated defect generation) — see TrapSet::sample_accelerated.
        let traps =
            TrapSet::sample_accelerated(&cfg.bti, device.gate_area(&cfg.sizing), &stress, &mut rng);
        let aged = match cfg.aging_mode {
            AgingMode::Expected => cfg.bti.delta_vth_expected(&traps, &stress, cfg.time),
            AgingMode::Sampled => cfg
                .bti
                .delta_vth_sampled(&traps, &stress, cfg.time, &mut rng),
        };
        let hci = cfg.hci.map_or(0.0, |h| {
            h.params.delta_vth_for_activity(
                crate::stress::device_switching_activity(&cw, device),
                h.reads_per_second,
                cfg.time,
                cfg.env.vdd,
            )
        });
        sa.set_delta_vth(device, mismatch + aged + hci);
    }
    sa
}

impl McConfig {
    /// Human-readable corner label — the string quarantined
    /// [`SampleFailure`]s carry. Public so a distribution coordinator
    /// synthesizing a failure for an abandoned work unit labels it exactly
    /// as the worker would have.
    #[must_use]
    pub fn corner_label(&self) -> String {
        format!(
            "{:?} {:?} {}°C/{:.2}V t={:.1e}s",
            self.kind, self.workload, self.env.temp_c, self.env.vdd, self.time
        )
    }

    /// The compiled workload this corner stresses devices with: the
    /// trace-measured mix when [`McConfig::measured_mix`] is set,
    /// otherwise the synthetic compilation path. Every stress consumer
    /// in the sample loop goes through here, so trace-driven and
    /// synthetic corners share one code path from the mix down.
    #[must_use]
    pub fn compiled_workload(&self) -> CompiledWorkload {
        match self.measured_mix {
            Some(az) => CompiledWorkload {
                workload: self.workload,
                kind: self.kind,
                internal_zero_fraction: az,
            },
            None => compile_workload(self.workload, self.kind, self.counter_bits),
        }
    }
}

/// Best-effort string form of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Completed per-sample results restored from a checkpoint, keyed by
/// sample index. [`run_mc_controlled`] skips every restored index and
/// merges the restored values into the final statistics, so a resumed run
/// is bit-identical to an uninterrupted one (each sample is a pure
/// function of `(cfg, index)`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct McResume {
    /// Restored offset-phase results: `(sample index, offset volts)`.
    pub offsets: Vec<(usize, f64)>,
    /// Restored delay-phase results: `(sample index, delay seconds)`.
    pub delays: Vec<(usize, f64)>,
    /// Restored quarantined failures (both phases). A restored failure is
    /// not re-attempted — it still counts against the failure budget.
    pub failures: Vec<SampleFailure>,
    /// Restored per-sample importance log-weights of a tail-mode run:
    /// `(sample index, log likelihood ratio)`. Annotations on offset
    /// records, not results in their own right: they are excluded from
    /// [`McResume::records`] (so they never advance checkpoint flush
    /// counters) and a missing entry is recomputed bit-identically from
    /// the config ([`crate::tail::tail_log_weight`]).
    pub log_weights: Vec<(usize, f64)>,
}

impl McResume {
    /// Whether nothing was restored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
            && self.delays.is_empty()
            && self.failures.is_empty()
            && self.log_weights.is_empty()
    }

    /// Total restored records (offsets + delays + failures).
    #[must_use]
    pub fn records(&self) -> usize {
        self.offsets.len() + self.delays.len() + self.failures.len()
    }
}

/// Streaming observer of per-sample completions, called from the worker
/// threads as each *fresh* (non-restored) sample finishes — the hook the
/// campaign layer uses to checkpoint incrementally. Implementations must
/// be `Sync`; callbacks may arrive concurrently from several workers.
pub trait McObserver: Sync {
    /// One fresh sample finished: `Ok(value)` (offset volts or delay
    /// seconds depending on `phase`) or the failure that quarantined it.
    fn sample_finished(&self, phase: McPhase, index: usize, outcome: Result<f64, &SampleFailure>);

    /// The importance log-weight of a fresh offset sample in tail mode,
    /// fired right after its [`McObserver::sample_finished`]. Only fired
    /// for nonzero log-weights (pilot and nominal-component samples carry
    /// weight 1, which the restore path reconstructs implicitly). The
    /// default ignores it, so classic observers are unaffected.
    fn sample_weight(&self, _index: usize, _log_weight: f64) {}
}

/// Control plane of one [`run_mc_controlled`] call: restored state, a
/// completion observer, and a campaign-level cancellation token. The
/// default (`McControl::default()`) is exactly the plain [`run_mc`]
/// behaviour.
#[derive(Clone, Copy, Default)]
pub struct McControl<'a> {
    /// Checkpointed results to skip recomputing.
    pub resume: Option<&'a McResume>,
    /// Per-sample completion callback.
    pub observer: Option<&'a dyn McObserver>,
    /// Campaign-level cancellation: when the token fires, workers stop
    /// picking up new samples and in-flight samples are cancelled at
    /// their next base solve. Already-completed samples are kept and
    /// reported with [`McResult::partial`] set.
    pub cancel: Option<&'a CancelToken>,
}

impl fmt::Debug for McControl<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("McControl")
            .field("resume", &self.resume.map(McResume::records))
            .field("observer", &self.observer.is_some())
            .field("cancel", &self.cancel.map(CancelToken::is_cancelled))
            .finish()
    }
}

/// Outcome of one guarded sample run — the unit a distribution layer
/// ships between processes: every sample is a pure function of
/// `(cfg, index)`, so a [`SampleRun::Done`] value computed by any worker,
/// on any machine, is bit-identical to the one the in-process loop would
/// have produced.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleRun {
    /// The measurement completed (offset volts or delay seconds).
    Done(f64),
    /// The sample is quarantined (solver failure, panic, or watchdog
    /// timeout).
    Failed(SampleFailure),
    /// A campaign-level cancellation (deadline/interrupt) stopped the
    /// sample before it completed: it is neither a result nor a failure,
    /// just not computed — a resumed run will attempt it again.
    Cancelled,
}

/// Runs one sample's measurement in isolation: arms the fault plan (if
/// any) and the cancellation scope (token + per-sample budgets), catches
/// panics, and attributes the solver recovery attempts the sample
/// consumed. Both RAII guards live *inside* the `catch_unwind` closure so
/// their `Drop` disarms the thread even when the body panics.
fn guarded_sample(
    cfg: &McConfig,
    index: usize,
    phase: McPhase,
    cancel: Option<&CancelToken>,
    body: impl FnOnce() -> Result<f64, SaError>,
) -> SampleRun {
    let attempts_before = issa_circuit::perf::thread_recovery_attempts();
    let watchdog_armed =
        cancel.is_some() || cfg.sample_step_budget.is_some() || cfg.sample_wall_budget_s.is_some();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // Arm the watchdog only when something could fire, so the default
        // path keeps the zero-overhead unarmed thread-local check.
        let _cancel_scope = watchdog_armed.then(|| {
            CancelScope::enter(
                cancel.cloned(),
                cfg.sample_step_budget,
                cfg.sample_wall_budget_s.map(Duration::from_secs_f64),
            )
        });
        let _scope = cfg
            .fault_plan
            .as_ref()
            .map(|plan| FaultScope::enter(plan.clone(), index));
        body()
    }));
    let failure = |kind: FailureKind, error: String| SampleFailure {
        index,
        seed: cfg.seed,
        corner: cfg.corner_label(),
        phase,
        kind,
        error,
        recovery_attempts: issa_circuit::perf::thread_recovery_attempts() - attempts_before,
    };
    match outcome {
        Ok(Ok(value)) => SampleRun::Done(value),
        Ok(Err(e)) => {
            if let SaError::Circuit(CircuitError::Cancelled { cause, .. }) = &e {
                if cause.is_sample_budget() {
                    // The per-sample watchdog tripped: quarantine as a
                    // timeout so the campaign records *which* sample
                    // stalls and never re-attempts it on resume.
                    SampleRun::Failed(failure(FailureKind::TimedOut, e.to_string()))
                } else {
                    // Campaign-level deadline/interrupt: the sample is
                    // simply not computed.
                    SampleRun::Cancelled
                }
            } else {
                SampleRun::Failed(failure(FailureKind::Solver, e.to_string()))
            }
        }
        Err(payload) => SampleRun::Failed(failure(
            FailureKind::Panic,
            format!("worker panicked: {}", panic_message(&*payload)),
        )),
    }
}

/// Runs one offset-phase sample under the full quarantine contract
/// (fault-plan arming, per-sample watchdog, panic isolation, recovery
/// attribution) — the entry point a distribution worker uses. Carrying
/// one [`OffsetSearch`] across consecutive samples starts each search at
/// the previous flip cell and gain; the carrier changes probe order, never
/// the result.
pub fn run_offset_sample_with(
    cfg: &McConfig,
    index: usize,
    cancel: Option<&CancelToken>,
    search: &mut OffsetSearch,
) -> SampleRun {
    guarded_sample(cfg, index, McPhase::Offset, cancel, || {
        let sa = build_sample(cfg, index);
        sa.offset_voltage_with(&cfg.probe, search)
    })
}

/// Runs one delay-phase sample under the full quarantine contract.
/// `swing_volts` is the resolved bitline swing — corner-wide, derived
/// from the offset distribution by [`delay_swing_volts`] — so a worker
/// that never saw the other samples still measures at exactly the swing
/// a single-process run would have used.
pub fn run_delay_sample(
    cfg: &McConfig,
    index: usize,
    swing_volts: f64,
    cancel: Option<&CancelToken>,
) -> SampleRun {
    let delay_probe = ProbeOptions {
        swing: swing_volts,
        ..cfg.probe
    };
    // Weight the two read directions by the workload's *internal* mix
    // (what the latch actually resolves): under 80r0 the NSSA's delay
    // is the read-0 delay, while the ISSA always sees a balanced mix.
    let zero_fraction = cfg.compiled_workload().internal_zero_fraction;
    guarded_sample(cfg, index, McPhase::Delay, cancel, || {
        let sa = build_sample(cfg, index);
        sa.sensing_delay_weighted(zero_fraction, &delay_probe)
    })
}

/// The offset-voltage specification exactly as [`run_mc`] derives it from
/// the surviving offsets: Eq. 3 over (μ, σ), degenerating to |μ| when the
/// spread is zero (tiny runs quantized to the search grid).
#[must_use]
pub fn offset_spec_from_samples(cfg: &McConfig, offsets: &[f64]) -> f64 {
    let summary = Summary::of(offsets);
    if summary.std > 0.0 {
        offset_spec(summary.mean, summary.std, cfg.failure_rate)
    } else {
        summary.mean.abs()
    }
}

/// The bitline swing the delay phase measures at, given the corner's
/// offset spec (see [`DelaySwingPolicy`]). Spec-provisioned swings get a
/// 50 % dynamic margin above the *static* spec: aged pass transistors
/// transfer the bitline differential onto the internal nodes more slowly,
/// eroding margin during regeneration, which the static binary search
/// cannot see.
#[must_use]
pub fn delay_swing_volts(cfg: &McConfig, spec: f64) -> f64 {
    match cfg.delay_swing {
        DelaySwingPolicy::FixedFraction(f) => f * cfg.env.vdd,
        DelaySwingPolicy::SpecProvisioned => cfg.probe.swing.max(1.5 * spec),
    }
}

/// Runs the full Monte Carlo corner.
///
/// # Errors
///
/// Returns [`SaError::FailureBudgetExceeded`] when more than
/// `max_failure_frac · samples` distinct samples fail (after solver
/// recovery) or no sample survives at all; with default probe options and
/// calibrated models no sample should fail. Individual failures below the
/// budget are quarantined in [`McResult::failures`] instead of erroring.
pub fn run_mc(cfg: &McConfig) -> Result<McResult, SaError> {
    run_mc_controlled(cfg, &McControl::default())
}

/// Hot-path work, read from the thread-scoped counters so that analyses
/// running elsewhere in the process never leak into a run's [`McPerf`].
#[derive(Default)]
struct Work {
    circuit: issa_circuit::PerfSnapshot,
    probes: u64,
}

impl Work {
    /// This thread's counters so far.
    fn reading() -> Work {
        Work {
            circuit: issa_circuit::perf::thread_snapshot(),
            probes: crate::perf::thread_sense_calls(),
        }
    }

    fn since(&self, earlier: &Work) -> Work {
        Work {
            circuit: self.circuit.delta_since(&earlier.circuit),
            probes: self.probes - earlier.probes,
        }
    }

    fn add(&mut self, other: &Work) {
        self.circuit = self.circuit.saturating_add(&other.circuit);
        self.probes += other.probes;
    }
}

/// Runs `f` and adds the work it did on this thread to `total`.
fn counted<T>(total: &std::sync::Mutex<Work>, f: impl FnOnce() -> T) -> T {
    let before = Work::reading();
    let out = f();
    let done = Work::reading().since(&before);
    total
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .add(&done);
    out
}

/// [`run_mc`] with a control plane: checkpoint resume, a streaming
/// completion observer, and a campaign-level cancellation token.
///
/// Determinism contract: each sample is a pure function of `(cfg, index)`,
/// so a run that restores some samples from [`McControl::resume`] and
/// computes the rest produces a [`McResult`] bit-identical to an
/// uninterrupted run, for any thread count.
///
/// # Errors
///
/// [`SaError::FailureBudgetExceeded`] as for [`run_mc`], and
/// [`SaError::Cancelled`] when a campaign-level cancellation stopped the
/// corner before any offset sample completed (no statistics exist then).
pub fn run_mc_controlled(cfg: &McConfig, ctl: &McControl<'_>) -> Result<McResult, SaError> {
    assert!(cfg.samples > 0, "need at least one sample");
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cfg.threads
    }
    .min(cfg.samples);

    let mut perf = McPerf::default();
    // The shard threads add their work to `shard_work` (`counted`); this
    // thread's own is read around the whole run.
    let caller_before = Work::reading();
    let shard_work = std::sync::Mutex::new(Work::default());
    let work = &shard_work;
    let offset_start = std::time::Instant::now();

    // Restore checkpointed state: completed values merge by index, restored
    // failures stay quarantined, and neither is re-attempted. Restored
    // delay failures are stashed until phase 2 so the phase-1 budget check
    // sees exactly the failure set an uninterrupted run would have had.
    let delay_count = cfg.delay_samples.min(cfg.samples);
    let mut offsets_by_index: Vec<Option<f64>> = vec![None; cfg.samples];
    let mut delays_by_index: Vec<Option<f64>> = vec![None; delay_count];
    let mut failures: Vec<SampleFailure> = Vec::new();
    let mut restored_delay_failures: Vec<SampleFailure> = Vec::new();
    let mut offset_done = vec![false; cfg.samples];
    let mut delay_done = vec![false; cfg.samples];
    if let Some(resume) = ctl.resume {
        for &(i, v) in &resume.offsets {
            if i < cfg.samples {
                offsets_by_index[i] = Some(v);
                offset_done[i] = true;
            }
        }
        for &(i, v) in &resume.delays {
            if i < delay_count {
                delays_by_index[i] = Some(v);
                delay_done[i] = true;
            }
        }
        for f in &resume.failures {
            if f.index >= cfg.samples {
                continue;
            }
            match f.phase {
                McPhase::Offset => {
                    offset_done[f.index] = true;
                    failures.push(f.clone());
                }
                McPhase::Delay => {
                    delay_done[f.index] = true;
                    restored_delay_failures.push(f.clone());
                }
            }
        }
    }

    // Phase 1 — offsets. Each sample is fully determined by its index, so
    // the loop splits into independent strided shards that merge by index.
    // Each shard threads one OffsetSearch through its samples: the search
    // starts from the previous flip cell and gain, which changes the probe
    // order but not the result (the flip cell on the fixed search grid is
    // unique), so the offsets stay identical for any thread count — and a
    // quarantined or restored sample cannot perturb its shard-mates for
    // the same reason.
    let offset_runs = run_phase(
        cfg,
        ctl,
        McPhase::Offset,
        &offset_done,
        threads,
        work,
        |todo, hooks| crate::batch::run_offset_batch(cfg, todo, ctl.cancel, hooks),
        |i, search| run_offset_sample_with(cfg, i, ctl.cancel, search),
    );
    for (i, r) in offset_runs {
        match r {
            Ok(offset) => offsets_by_index[i] = Some(offset),
            Err(f) => failures.push(f),
        }
    }
    perf.offset_wall_s = offset_start.elapsed().as_secs_f64();
    check_failure_budget(cfg, &mut failures)?;
    let offsets: Vec<f64> = offsets_by_index.iter().copied().flatten().collect();
    if offsets.is_empty() {
        // Every sample was cancelled before completing (and none failed,
        // or the budget check above would have fired): no statistics
        // exist, which is distinct from a partial result.
        return Err(SaError::Cancelled {
            completed: 0,
            total: cfg.samples,
        });
    }
    let summary = Summary::of(&offsets);
    // Tail mode (resolved importance-sampling proposal): statistics are
    // the self-normalized weighted estimators and the spec comes from the
    // weighted tail quantile instead of the Gaussian extrapolation. The
    // evaluation is a pure function of (cfg, surviving indices, values),
    // so it is invariant to threads, lanes, and resume splits.
    let indexed_offsets: Vec<(usize, f64)> = offsets_by_index
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.map(|x| (i, x)))
        .collect();
    let tail_eval = crate::tail::evaluate_weighted(cfg, &indexed_offsets, ctl.resume);
    let spec = match &tail_eval {
        Some(e) => e.spec,
        None => offset_spec_from_samples(cfg, &offsets),
    };
    let ks_sqrt_n = if tail_eval.is_some() {
        // The weighted sample deliberately follows the mixture proposal,
        // not the target normal — the normality diagnostic does not apply.
        f64::NAN
    } else if offsets.len() >= 3 && summary.std > 0.0 {
        issa_num::stats::ks_normal_statistic(&offsets) * (offsets.len() as f64).sqrt()
    } else {
        f64::NAN
    };

    // Phase 2 — sensing delay, at the swing chosen by the policy (see
    // [`DelaySwingPolicy`]). Spec-provisioned swings get a 50 % dynamic
    // margin above the *static* spec: aged pass transistors transfer the
    // bitline differential onto the internal nodes more slowly, eroding
    // margin during regeneration, which the static binary search cannot
    // see.
    let delay_start = std::time::Instant::now();
    if delay_count > 0 {
        let swing = delay_swing_volts(cfg, spec);
        // Skip samples whose offset never completed (quarantined or
        // cancelled) and samples already restored from a checkpoint.
        let delay_skip: Vec<bool> = (0..delay_count)
            .map(|i| offsets_by_index[i].is_none() || delay_done[i])
            .collect();
        let delay_runs = run_phase(
            cfg,
            ctl,
            McPhase::Delay,
            &delay_skip,
            threads.min(delay_count),
            work,
            |todo, hooks| crate::batch::run_delay_batch(cfg, todo, swing, ctl.cancel, hooks),
            |i, _| run_delay_sample(cfg, i, swing, ctl.cancel),
        );
        for (i, r) in delay_runs {
            match r {
                Ok(delay) => delays_by_index[i] = Some(delay),
                Err(f) => failures.push(f),
            }
        }
    }
    failures.append(&mut restored_delay_failures);

    perf.delay_wall_s = delay_start.elapsed().as_secs_f64();
    let mut total = shard_work
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    total.add(&Work::reading().since(&caller_before));
    perf.probes = total.probes;
    perf.circuit = total.circuit;

    check_failure_budget(cfg, &mut failures)?;
    let delays: Vec<f64> = delays_by_index.iter().copied().flatten().collect();
    let mean_delay = if delays.is_empty() {
        f64::NAN
    } else {
        Summary::of(&delays).mean
    };

    // A corner is partial exactly when some sample is neither computed nor
    // quarantined — i.e. a campaign-level cancellation left work undone. A
    // fully-run corner with quarantined failures is *not* partial.
    let mut offset_failed_at = vec![false; cfg.samples];
    let mut delay_failed_at = vec![false; cfg.samples];
    for f in &failures {
        match f.phase {
            McPhase::Offset => offset_failed_at[f.index] = true,
            McPhase::Delay => delay_failed_at[f.index] = true,
        }
    }
    let partial = (0..cfg.samples).any(|i| offsets_by_index[i].is_none() && !offset_failed_at[i])
        || (0..delay_count)
            .any(|i| delays_by_index[i].is_none() && !offset_failed_at[i] && !delay_failed_at[i]);

    let mu_ci95 = match &tail_eval {
        Some(e) => e.mu_ci95,
        None => issa_num::stats::mean_ci95_half(&offsets).unwrap_or(f64::NAN),
    };
    let delay_ci95 = issa_num::stats::mean_ci95_half(&delays).unwrap_or(f64::NAN);
    let (mu, sigma) = match &tail_eval {
        Some(e) => (e.mu, e.sigma),
        None => (summary.mean, summary.std),
    };
    Ok(McResult {
        offsets,
        delays,
        mu,
        sigma,
        spec,
        mean_delay,
        ks_sqrt_n,
        failures,
        requested: cfg.samples,
        partial,
        mu_ci95,
        delay_ci95,
        tail: tail_eval.map(|e| e.summary),
        perf,
    })
}

/// Computes the samples of one phase on `threads` strided shards — each
/// a lockstep batch where the config allows (bit-identical to the scalar
/// loop, see [`crate::batch`]; `None` from `batch` means not batchable),
/// otherwise the scalar loop over `scalar`, which threads one
/// [`OffsetSearch`] through the shard's samples. Indices marked in `skip`
/// are left alone, a cancellation stops the shard, and every finished
/// sample is reported to the observer as it completes. A shard that dies
/// outside sample isolation is attributed to its first index.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    cfg: &McConfig,
    ctl: &McControl<'_>,
    phase: McPhase,
    skip: &[bool],
    threads: usize,
    work: &std::sync::Mutex<Work>,
    batch: impl Fn(&[usize], &mut dyn crate::batch::BatchHooks) -> Option<Vec<(usize, SampleRun)>>
        + Sync,
    scalar: impl Fn(usize, &mut OffsetSearch) -> SampleRun + Sync,
) -> Vec<(usize, Result<f64, SampleFailure>)> {
    let use_batch = crate::batch::batching_enabled(cfg);
    let (batch, scalar) = (&batch, &scalar);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|shard| {
                scope.spawn(move || {
                    counted(work, || {
                        let todo = (shard..skip.len()).step_by(threads).filter(|&i| !skip[i]);
                        let mut hooks = ObserverHooks {
                            cfg,
                            phase,
                            observer: ctl.observer,
                        };
                        if use_batch {
                            let todo: Vec<usize> = todo.clone().collect();
                            if let Some(runs) = batch(&todo, &mut hooks) {
                                return collect_batch_runs(runs);
                            }
                        }
                        let mut local = Vec::new();
                        let mut search = OffsetSearch::default();
                        for i in todo {
                            if ctl.cancel.is_some_and(CancelToken::is_cancelled) {
                                break;
                            }
                            let run = scalar(i, &mut search);
                            crate::batch::BatchHooks::on_sample(&mut hooks, i, &run);
                            match run {
                                SampleRun::Done(v) => local.push((i, Ok(v))),
                                SampleRun::Failed(f) => local.push((i, Err(f))),
                                SampleRun::Cancelled => break,
                            }
                        }
                        local
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .flat_map(|(shard, h)| {
                h.join().unwrap_or_else(|payload| {
                    // Per-sample catch_unwind already contains sample
                    // panics, so this is infrastructure dying outside
                    // the guarded region; attribute it to the shard's
                    // first index rather than aborting the run.
                    vec![(
                        shard,
                        Err(SampleFailure {
                            index: shard,
                            seed: cfg.seed,
                            corner: cfg.corner_label(),
                            phase,
                            kind: FailureKind::Panic,
                            error: format!(
                                "worker panicked outside sample isolation: {}",
                                panic_message(&*payload)
                            ),
                            recovery_attempts: 0,
                        }),
                    )]
                })
            })
            .collect()
    })
}

/// Reports each finished sample of a shard — batched or scalar — to the
/// streaming observer, a shifted offset with its importance log-weight.
struct ObserverHooks<'a> {
    cfg: &'a McConfig,
    phase: McPhase,
    observer: Option<&'a dyn McObserver>,
}

impl crate::batch::BatchHooks for ObserverHooks<'_> {
    fn on_sample(&mut self, index: usize, run: &SampleRun) {
        if let Some(obs) = self.observer {
            match run {
                SampleRun::Done(v) => {
                    obs.sample_finished(self.phase, index, Ok(*v));
                    if self.phase == McPhase::Offset {
                        let lw = crate::tail::tail_log_weight(self.cfg, index);
                        if lw != 0.0 {
                            obs.sample_weight(index, lw);
                        }
                    }
                }
                SampleRun::Failed(f) => obs.sample_finished(self.phase, index, Err(f)),
                SampleRun::Cancelled => {}
            }
        }
    }
}

/// Maps a batch driver's output into the shard-local result vector the
/// merge loops expect. Cancelled samples are absent from the batch
/// output — uncomputed, exactly like the samples the scalar loop's
/// `break` never reached.
fn collect_batch_runs(runs: Vec<(usize, SampleRun)>) -> Vec<(usize, Result<f64, SampleFailure>)> {
    runs.into_iter()
        .filter_map(|(i, run)| match run {
            SampleRun::Done(v) => Some((i, Ok(v))),
            SampleRun::Failed(f) => Some((i, Err(f))),
            SampleRun::Cancelled => None,
        })
        .collect()
}

/// Enforces [`McConfig::max_failure_frac`]: sorts the quarantine list by
/// (index, phase) and errors when the distinct failed samples exceed the
/// budget — or when nobody survived at all, since no statistics exist
/// then regardless of the budget.
fn check_failure_budget(cfg: &McConfig, failures: &mut Vec<SampleFailure>) -> Result<(), SaError> {
    if failures.is_empty() {
        return Ok(());
    }
    failures.sort_by_key(|f| (f.index, f.phase == McPhase::Delay));
    let mut failed_indices: Vec<usize> = failures.iter().map(|f| f.index).collect();
    failed_indices.dedup();
    let failed = failed_indices.len();
    let allowed = (cfg.max_failure_frac.clamp(0.0, 1.0) * cfg.samples as f64).floor() as usize;
    if failed > allowed || failed >= cfg.samples {
        return Err(SaError::FailureBudgetExceeded {
            failed,
            total: cfg.samples,
            failures: std::mem::take(failures),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ReadSequence;

    fn smoke(kind: SaKind, seq: ReadSequence, time: f64, samples: usize) -> McConfig {
        McConfig::smoke(
            kind,
            Workload::new(0.8, seq),
            Environment::nominal(),
            time,
            samples,
        )
    }

    #[test]
    fn fresh_distribution_is_centered() {
        let cfg = smoke(SaKind::Nssa, ReadSequence::AllZeros, 0.0, 24);
        let r = run_mc(&cfg).unwrap();
        assert_eq!(r.offsets.len(), 24);
        assert!(r.sigma > 1e-3, "fresh sigma {:.2} mV", r.sigma * 1e3);
        // Fresh mean must be within a couple of standard errors of zero.
        assert!(
            r.mu.abs() < 3.0 * r.sigma / (24f64).sqrt(),
            "fresh mu {:.2} mV, sigma {:.2} mV",
            r.mu * 1e3,
            r.sigma * 1e3
        );
        assert!(r.spec > 5.0 * r.sigma && r.spec < 7.0 * r.sigma);
        assert!(r.mean_delay > 1e-12 && r.mean_delay < 1e-10);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = smoke(SaKind::Nssa, ReadSequence::AllZeros, 1e8, 6);
        let a = run_mc(&cfg).unwrap();
        let b = run_mc(&cfg).unwrap();
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.delays, b.delays);
    }

    #[test]
    fn sample_prefix_is_stable_under_sample_count() {
        let small = smoke(SaKind::Nssa, ReadSequence::AllZeros, 1e8, 4);
        let large = McConfig {
            samples: 8,
            ..small.clone()
        };
        let a = run_mc(&small).unwrap();
        let b = run_mc(&large).unwrap();
        assert_eq!(a.offsets[..], b.offsets[..4]);
    }

    #[test]
    fn unbalanced_workload_shifts_nssa_mean() {
        let r0 = run_mc(&smoke(SaKind::Nssa, ReadSequence::AllZeros, 1e8, 24)).unwrap();
        let r1 = run_mc(&smoke(SaKind::Nssa, ReadSequence::AllOnes, 1e8, 24)).unwrap();
        assert!(
            r0.mu > 3e-3,
            "r0 should shift positive: {:.2} mV",
            r0.mu * 1e3
        );
        assert!(
            r1.mu < -3e-3,
            "r1 should shift negative: {:.2} mV",
            r1.mu * 1e3
        );
    }

    #[test]
    fn issa_cancels_the_shift() {
        // Expected-mode aging with identical seeds pairs the two schemes'
        // mismatch and trap draws exactly, so the comparison isolates the
        // duty effect and stays decisive at 24 samples.
        let expected = |kind| McConfig {
            aging_mode: AgingMode::Expected,
            ..smoke(kind, ReadSequence::AllZeros, 1e8, 24)
        };
        let nssa = run_mc(&expected(SaKind::Nssa)).unwrap();
        let issa = run_mc(&expected(SaKind::Issa)).unwrap();
        assert!(
            issa.mu.abs() < 0.4 * nssa.mu.abs(),
            "ISSA mu {:.2} mV vs NSSA {:.2} mV",
            issa.mu * 1e3,
            nssa.mu * 1e3
        );
        assert!(issa.spec < nssa.spec, "ISSA spec must beat NSSA under r0");
    }

    #[test]
    fn expected_mode_is_smoother_than_sampled() {
        let base = smoke(SaKind::Nssa, ReadSequence::Alternating, 1e8, 16);
        let sampled = run_mc(&base).unwrap();
        let expected = run_mc(&McConfig {
            aging_mode: AgingMode::Expected,
            ..base
        })
        .unwrap();
        // Same mismatch draws; expected-mode aging has no Bernoulli noise,
        // so its sigma cannot exceed the sampled one by much.
        assert!(expected.sigma <= sampled.sigma * 1.2);
    }

    #[test]
    fn perf_counters_are_populated() {
        let cfg = smoke(SaKind::Nssa, ReadSequence::AllZeros, 0.0, 3);
        let r = run_mc(&cfg).unwrap();
        assert!(r.perf.probes > 0, "no probe transients counted");
        assert!(r.perf.circuit.transients >= r.perf.probes);
        assert!(r.perf.circuit.newton_iterations > 0);
        assert!(r.perf.circuit.lu_factorizations > 0);
        assert!(r.perf.offset_wall_s > 0.0 && r.perf.delay_wall_s > 0.0);
        let report = r.perf.report();
        assert!(report.contains("probes=") && report.contains("newton="));
    }

    #[test]
    fn table_row_formats() {
        let r = McResult {
            offsets: vec![0.0],
            delays: vec![14e-12],
            mu: 1e-3,
            sigma: 15e-3,
            spec: 92e-3,
            mean_delay: 14e-12,
            ks_sqrt_n: 0.5,
            failures: vec![],
            requested: 1,
            partial: false,
            mu_ci95: f64::NAN,
            delay_ci95: f64::NAN,
            tail: None,
            perf: McPerf::default(),
        };
        let row = r.table_row();
        assert!(row.contains("mu="));
        assert!(row.contains("14.00 ps"));
    }
}
