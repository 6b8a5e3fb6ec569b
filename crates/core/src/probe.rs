//! Offset-voltage and sensing-delay measurements.
//!
//! Both measurements follow the paper's method:
//!
//! - **Offset voltage** (Section II-C): "the offset voltage of one
//!   specific sample is determined using a binary search on its inputs".
//!   Each search probe is a regeneration transient: the bitlines hold a
//!   differential `vin`, the internal nodes start precharged to the
//!   bitline values, SAenable rises, and the latch resolves one way or the
//!   other. The offset is the `vin` at which the decision flips: the grid
//!   cell a binary search would end on, which the default search reaches
//!   in fewer probes by reading how far each probe's latch moved (see
//!   [`OffsetFsm`]).
//!
//! - **Sensing delay** (Section IV-A): "the time between the activation of
//!   the SA (when SAenable rises to 50 % of Vdd) and when the result is
//!   produced at the output (when Out or Outbar rises to 50 % of Vdd)".
//!
//! # Sign convention
//!
//! `vin = V(BL) − V(BLBar)`; a positive input resolves internal state 1
//! (`S` high). The reported offset is **positive when the SA is biased
//! toward resolving 1** — the bias an all-zeros read history produces
//! (aged `Mdown`/`MupBar`), matching the positive μ the paper reports for
//! the `r0` workloads.

use crate::netlist::SaInstance;
use crate::SaError;
use issa_circuit::netlist::Netlist;
use issa_circuit::recovery::RecoveryPolicy;
use issa_circuit::trace::{CrossDirection, Trace};
use issa_circuit::tran::{transient, StopWhen, TranContext, TranParams};
use issa_circuit::waveform::Waveform;
use issa_ptm45::Environment;

/// Resolved decision of one sense operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenseOutcome {
    /// Internal state 0 (`S` low): the SA read a 0.
    Zero,
    /// Internal state 1 (`S` high): the SA read a 1.
    One,
}

/// Timing and search parameters of the measurement probes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeOptions {
    /// Time at which SAenable rises \[s\].
    pub t_enable: f64,
    /// Simulated window after the enable edge \[s\].
    pub window: f64,
    /// Transient base step \[s\].
    pub dt: f64,
    /// Enable edge (rise/fall) time \[s\].
    pub edge: f64,
    /// Half-width of the offset binary-search bracket \[V\].
    pub vin_max: f64,
    /// Termination tolerance of the offset search \[V\].
    pub offset_tol: f64,
    /// Fraction of Vdd the internal differential must exceed for
    /// [`SaInstance::sense`] to call the operation resolved.
    pub resolve_fraction: f64,
    /// Bitline develop interval for delay probes \[s\].
    pub t_develop: f64,
    /// Settle interval between the end of bitline develop and the enable
    /// edge \[s\]: the pass transistors need a few RC constants to
    /// propagate the developed differential onto the internal nodes
    /// (~5 ps per τ at 125 °C).
    pub t_settle: f64,
    /// Developed bitline swing for delay probes \[V\].
    pub swing: f64,
    /// Guide the offset search by the probes' end differentials and by
    /// the previous sample's flip cell and local gain (see [`OffsetFsm`]
    /// and [`OffsetSearch`]); off, it is the cold bisection on the
    /// decision alone. Changes which grid points are probed, at most
    /// `2·(2 + log2 n)` of them, but not the result: the search grid is
    /// fixed, and the returned offset is the unique cell where the
    /// decision flips.
    pub warm_start: bool,
    /// Stop probe transients as soon as the measurement is decided
    /// (regeneration past the resolve threshold, output crossing found)
    /// instead of integrating the full window. Decision-preserving: see
    /// [`StopWhen`].
    pub early_exit: bool,
    /// Solver recovery ladder applied to every probe transient (see
    /// [`RecoveryPolicy`]). Engages only after a Newton failure, so on a
    /// healthy run the results are bit-identical for any policy.
    pub recovery: RecoveryPolicy,
}

impl Default for ProbeOptions {
    fn default() -> Self {
        Self {
            t_enable: 5e-12,
            window: 45e-12,
            dt: 0.1e-12,
            edge: 1e-12,
            vin_max: 0.3,
            offset_tol: 5e-5,
            resolve_fraction: 0.6,
            t_develop: 10e-12,
            t_settle: 25e-12,
            swing: crate::calib::DELAY_PROBE_SWING,
            warm_start: true,
            early_exit: true,
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl ProbeOptions {
    /// A coarser, ~4× faster profile for tests and smoke runs: looser
    /// offset tolerance and a larger time step.
    pub fn fast() -> Self {
        Self {
            dt: 0.25e-12,
            window: 35e-12,
            offset_tol: 2e-4,
            ..Self::default()
        }
    }

    /// The same measurement with every hot-path shortcut disabled: cold
    /// offset searches and full-window transients. Results must be
    /// bit-identical to the optimized path — this profile exists so tests
    /// and benches can prove it.
    #[must_use]
    pub fn reference(self) -> Self {
        Self {
            warm_start: false,
            early_exit: false,
            ..self
        }
    }
}

/// Window multiplier for delay probes and `sense()`: heavily aged hot
/// instances sensing against their bias can be many times slower than a
/// fresh SA, and the measurement must not clip the output crossing.
const SLOW_WINDOW_SCALE: f64 = 8.0;

/// The source waveforms of one probe (crate-internal).
#[derive(Debug, Clone)]
pub(crate) struct DriveSpec {
    pub bl: Waveform,
    pub blbar: Waveform,
    pub t_enable: f64,
    pub edge: f64,
}

impl DriveSpec {
    /// Offset probe: both bitlines held at DC, the lower one dropped by
    /// |vin| below Vdd (matching how a real bitline differential looks —
    /// one line stays precharged, the other dips).
    pub(crate) fn offset_probe(vin: f64, env: &Environment, t_enable: f64, edge: f64) -> Self {
        let (v_bl, v_blbar) = offset_drive_levels(vin, env.vdd);
        Self {
            bl: Waveform::dc(v_bl),
            blbar: Waveform::dc(v_blbar),
            t_enable,
            edge,
        }
    }

    /// Delay probe: the losing bitline ramps down by `swing` during the
    /// develop interval before the enable edge.
    pub(crate) fn delay_probe(
        read_value: bool,
        swing: f64,
        env: &Environment,
        opts: &ProbeOptions,
    ) -> Self {
        let vdd = env.vdd;
        let t0 = 1e-12;
        let t1 = t0 + opts.t_develop;
        let ramp = Waveform::pwl(vec![(0.0, vdd), (t0, vdd), (t1, vdd - swing)]);
        let flat = Waveform::dc(vdd);
        let (bl, blbar) = if read_value {
            // Reading a 1: BLBar discharges.
            (flat, ramp)
        } else {
            (ramp, flat)
        };
        Self {
            bl,
            blbar,
            // Enable after the differential has developed on the bitlines
            // AND settled through the pass transistors onto S/SBar.
            t_enable: t1 + opts.t_settle.max(opts.t_enable),
            edge: opts.edge,
        }
    }
}

/// Reusable per-sample probe workspace: the instance's netlist (built
/// once per drive *shape*) plus a [`TranContext`] whose Newton workspace,
/// cached base Jacobian, and trace buffers survive across probes. Between
/// probes only the bitline source waveforms are swapped — a supported
/// mutation that leaves all cached constant structure valid.
pub(crate) struct ProbeContext {
    net: Netlist,
    tran: TranContext,
}

/// Branch indices of the bitline drivers in [`SaInstance::build_netlist`]
/// insertion order (0 is the Vdd rail). Shared with the batched lane
/// scheduler ([`crate::batch`]), which swaps the same two waveforms
/// between probes.
pub(crate) const BL_BRANCH: usize = 1;
pub(crate) const BLBAR_BRANCH: usize = 2;

/// Bitline DC levels of an offset probe at input differential `vin`: the
/// lower line dips below Vdd, the other stays precharged. One definition
/// for the scalar search, [`DriveSpec::offset_probe`], and the batched
/// scheduler.
pub(crate) fn offset_drive_levels(vin: f64, vdd: f64) -> (f64, f64) {
    (vdd + vin.min(0.0), vdd - vin.max(0.0))
}

/// Internal differential `V(S) − V(SBar)` \[V\] at the end of a
/// regeneration-probe trace (full window or early-exit point — the sign
/// is the same either way, regeneration being monotone past the
/// threshold). Shared by the scalar path and the batched scheduler.
pub(crate) fn regen_diff(trace: &Trace) -> f64 {
    let s = trace.final_value("s").expect("s recorded");
    let sbar = trace.final_value("sbar").expect("sbar recorded");
    s - sbar
}

/// Extracts the sensing delay from a delay-probe trace: SAenable's 50 %
/// rising crossing to the winning output's 50 % rising crossing. Shared
/// by [`SaInstance::sensing_delay`] and the batched scheduler.
pub(crate) fn delay_from_trace(trace: &Trace, out_signal: &str, vdd: f64) -> Result<f64, SaError> {
    let t_en = trace
        .crossing_time("saen", 0.5 * vdd, CrossDirection::Rising, 0.0)
        .ok_or_else(|| SaError::MissingCrossing {
            signal: "saen".into(),
        })?;
    let t_out = trace
        .crossing_time(out_signal, 0.5 * vdd, CrossDirection::Rising, t_en)
        .ok_or_else(|| SaError::MissingCrossing {
            signal: out_signal.into(),
        })?;
    Ok(t_out - t_en)
}

/// The fixed dyadic offset-search grid over `[−vin_max, +vin_max]` (see
/// [`OffsetSearch`]): `n` cells, `n` the smallest power of two whose cell
/// width does not exceed `offset_tol`. [`OffsetFsm`] searches it.
#[derive(Debug, Clone, Copy)]
struct OffsetGrid {
    /// Number of grid cells.
    n: i64,
    vin_max: f64,
    step: f64,
}

impl OffsetGrid {
    /// Builds the grid from the probe options.
    ///
    /// # Panics
    ///
    /// Panics if `opts.offset_tol` or `opts.vin_max` is not positive.
    fn from_opts(opts: &ProbeOptions) -> Self {
        assert!(opts.offset_tol > 0.0, "offset_tol must be positive");
        assert!(opts.vin_max > 0.0, "vin_max must be positive");
        let mut n: i64 = 1;
        while 2.0 * opts.vin_max / n as f64 > opts.offset_tol {
            n <<= 1;
        }
        Self {
            n,
            vin_max: opts.vin_max,
            step: 2.0 * opts.vin_max / n as f64,
        }
    }

    /// Input differential of grid point `i`.
    fn value(self, i: i64) -> f64 {
        -self.vin_max + i as f64 * self.step
    }

    /// Measured offset once the search has narrowed to `[lo, hi]`:
    /// the flip point of `vin`, positive = biased toward One.
    fn offset(self, lo: i64, hi: i64) -> f64 {
        -0.5 * (self.value(lo) + self.value(hi))
    }
}

impl ProbeContext {
    pub(crate) fn new(sa: &SaInstance, drive: &DriveSpec) -> Self {
        let net = sa.build_netlist(drive);
        let tran = TranContext::new(&net);
        Self { net, tran }
    }

    fn set_bitlines(&mut self, bl: Waveform, blbar: Waveform) {
        self.net.set_vsource_waveform(BL_BRANCH, bl);
        self.net.set_vsource_waveform(BLBAR_BRANCH, blbar);
    }

    fn run(&mut self, params: &TranParams) -> Result<&Trace, SaError> {
        crate::perf::record_sense_call();
        Ok(self.tran.run(&self.net, params)?)
    }
}

/// Warm-start carrier for the guided offset search.
///
/// The search runs on a fixed dyadic grid over `[−vin_max, +vin_max]`
/// whose cell width is the largest power-of-two division of the bracket
/// not exceeding `offset_tol`. The measured offset is determined by the
/// unique grid cell in which the sense decision flips, so *any* probe
/// order that ends on two adjacent grid points with different decisions
/// returns the bit-identical value — which is what makes warm starts
/// (and sharding samples across threads and lanes) safe. The carrier
/// remembers two things about the previous sample: its flip cell, where
/// the next search probes first, and the local gain across that cell —
/// how much a probe's end differential `V(S) − V(SBar)` changes from one
/// grid point to the next — which turns the next search's first
/// differential into a predicted distance to its flip. A wrong or stale
/// carrier costs probes, never bits: whatever it holds, a search takes
/// at most `2·(2 + log2 n)` probes and ends on the same cell (see
/// [`OffsetFsm`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OffsetSearch {
    /// Lower index of the previous flip cell on the search grid
    /// (crate-visible so the batched scheduler's per-lane carriers update
    /// it exactly like the scalar search does).
    pub(crate) center: Option<i64>,
    /// End differential per grid cell across the previous flip cell
    /// \[V\], signed: positive when the differential rises with `vin`.
    pub(crate) gain: Option<f64>,
}

/// Outcome of one [`OffsetFsm`] step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum OffsetStep {
    /// Probe [`OffsetFsm::current_probe`] next.
    Continue,
    /// Search finished: the measured offset and the carrier for the next
    /// search (this flip cell and its gain).
    Done { result: f64, next: OffsetSearch },
    /// No flip within ±vin_max ([`SaError::OffsetOutOfRange`]): grid
    /// points `0` and `n` gave the same decision.
    OutOfRange,
}

/// The offset search as an explicit state machine, one probe per step.
/// It is the only implementation of the search: the scalar
/// [`SaInstance::offset_voltage_with`] and the batched lane scheduler
/// ([`crate::batch`]) both drive it the same way — probe
/// [`OffsetFsm::current_vin`], feed the probe's end differential to
/// [`OffsetFsm::on_probe`], repeat until it is not
/// [`OffsetStep::Continue`].
///
/// A search ends when two adjacent grid points disagree, and reports
/// [`OffsetStep::OutOfRange`] only once grid points `0` and `n` were both
/// probed and agree. Under a monotone flip every probe order therefore
/// returns the same cell; only the number of probes depends on the order.
///
/// - **Cold** (`warm_start` off — the reference oracle of
///   [`ProbeOptions::reference`]): probe grid points `0` and `n`, then
///   bisect on the decision alone.
/// - **Guided** (`warm_start` on): probe the carried flip cell (grid
///   point `0` when there is none). While every probe has given the same
///   decision, step away from them toward the side the gain points to, by
///   the distance it predicts (`|diff| / |gain|` cells, rounded up; from a
///   saturated probe that is only a lower bound, so at least twice the
///   previous step). With no gain, once the grid end on that side agrees,
///   or once the grid ends plus a full bisection would no longer fit in
///   the budget after a guided step, probe the grid ends. Inside a
///   bracket, run Illinois regula falsi on the two ends' differentials,
///   or a Newton step on the gain from the one end that is not saturated
///   (capped at the secant through the saturated end, which overshoots
///   toward it), rounded to the nearest interior grid point. Bisect when
///   both ends are saturated, when two probes in a row fail to halve the
///   bracket, and whenever an interpolated probe could leave too few
///   probes to finish by bisection within the budget.
///
/// The gain starts as the carried one and becomes the slope between the
/// two most recent unsaturated probes as soon as there are two. A probe
/// whose differential reaches `resolve_fraction · vdd` (the early-exit
/// threshold) is read for its sign only. Every guided probe lies outside
/// the span of same-decision probes or strictly inside the bracket, so no
/// grid point is probed twice, and the two budget guards hold every
/// search to at most `2·(2 + log2 n)` probes, the cold bisection's
/// `2 + log2 n` plus as many again.
pub(crate) struct OffsetFsm {
    grid: OffsetGrid,
    /// End differentials at or beyond this magnitude \[V\] are read for
    /// their sign only.
    saturation: f64,
    /// Reference mode: grid ends, then bisection on the decision alone.
    cold: bool,
    /// Probes answered so far, and the most one search may take.
    spent: u32,
    budget: u32,
    /// Gain estimate \[V per cell\]: carried, then learned.
    gain: Option<f64>,
    /// The most recent unsaturated probe, for the learned gain.
    last_unsat: Option<Probe>,
    /// The grid point the search is waiting on.
    next: i64,
    state: OffsetState,
}

/// One answered probe: grid index and end differential \[V\].
#[derive(Debug, Clone, Copy)]
struct Probe {
    i: i64,
    diff: f64,
}

impl Probe {
    /// The sense decision (internal state 1).
    fn decision(self) -> bool {
        self.diff > 0.0
    }
}

enum OffsetState {
    /// No probe answered yet.
    Start,
    /// Every probe so far gave the same decision; they span `[lo, hi]`,
    /// so the flip lies outside it. `step` is the last step in cells.
    Span { lo: Probe, hi: Probe, step: i64 },
    /// `lo` and `hi` disagree: the flip lies between them.
    Bracket(Bracket),
}

#[derive(Clone, Copy)]
struct Bracket {
    lo: Probe,
    hi: Probe,
    /// Illinois weights on the ends' differentials: halved each time an
    /// end survives a second probe in a row.
    w_lo: f64,
    w_hi: f64,
    /// Which end the previous probe left in place (`true`: `hi`).
    kept_hi: Option<bool>,
    /// Width when the bracket last halved, and probes since then.
    width_ref: i64,
    stalls: u32,
}

impl Bracket {
    fn new(lo: Probe, hi: Probe) -> Self {
        Bracket {
            lo,
            hi,
            w_lo: 1.0,
            w_hi: 1.0,
            kept_hi: None,
            width_ref: hi.i - lo.i,
            stalls: 0,
        }
    }

    fn width(&self) -> i64 {
        self.hi.i - self.lo.i
    }

    /// Replaces the end that agrees with `p`.
    fn narrow(mut self, p: Probe) -> Self {
        if p.decision() == self.lo.decision() {
            self.lo = p;
            self.w_lo = 1.0;
            if self.kept_hi == Some(true) {
                self.w_hi *= 0.5;
            }
            self.kept_hi = Some(true);
        } else {
            self.hi = p;
            self.w_hi = 1.0;
            if self.kept_hi == Some(false) {
                self.w_lo *= 0.5;
            }
            self.kept_hi = Some(false);
        }
        if 2 * self.width() <= self.width_ref {
            self.width_ref = self.width();
            self.stalls = 0;
        } else {
            self.stalls += 1;
        }
        self
    }
}

/// Bisection probes that narrow a bracket of `width` cells to one.
fn bisections(width: i64) -> u32 {
    if width <= 1 {
        0
    } else {
        u64::BITS - (width as u64 - 1).leading_zeros()
    }
}

impl OffsetFsm {
    /// Starts a search on the grid of `opts` for an instance at supply
    /// `vdd`, guided by `search` when `opts.warm_start` is set.
    ///
    /// # Panics
    ///
    /// Panics if `opts.offset_tol` or `opts.vin_max` is not positive.
    pub(crate) fn new(opts: &ProbeOptions, vdd: f64, search: &OffsetSearch) -> Self {
        let grid = OffsetGrid::from_opts(opts);
        let cold = !opts.warm_start;
        let next = match search.center.filter(|_| !cold) {
            Some(c) => c.clamp(0, grid.n),
            None => 0,
        };
        OffsetFsm {
            grid,
            saturation: opts.resolve_fraction * vdd,
            cold,
            spent: 0,
            budget: 2 * (2 + grid.n.trailing_zeros()),
            gain: search.gain.filter(|_| !cold),
            last_unsat: None,
            next,
            state: OffsetState::Start,
        }
    }

    /// Grid index of the probe the search is waiting on.
    pub(crate) fn current_probe(&self) -> i64 {
        self.next
    }

    /// Input differential of the probe the search is waiting on.
    pub(crate) fn current_vin(&self) -> f64 {
        self.grid.value(self.current_probe())
    }

    /// Feeds the current probe's end differential `V(S) − V(SBar)` into
    /// the search; its decision is `diff > 0`.
    pub(crate) fn on_probe(&mut self, diff: f64) -> OffsetStep {
        let p = Probe { i: self.next, diff };
        self.spent += 1;
        self.learn(p);
        self.state = match self.state {
            OffsetState::Start => OffsetState::Span {
                lo: p,
                hi: p,
                step: 0,
            },
            OffsetState::Span { lo, hi, .. } if p.decision() == lo.decision() => {
                let (lo, hi, step) = if p.i < lo.i {
                    (p, hi, lo.i - p.i)
                } else {
                    (lo, p, p.i - hi.i)
                };
                if lo.i == 0 && hi.i == self.grid.n {
                    return OffsetStep::OutOfRange;
                }
                OffsetState::Span { lo, hi, step }
            }
            OffsetState::Span { lo, hi, .. } => OffsetState::Bracket(if p.i < lo.i {
                Bracket::new(p, lo)
            } else {
                Bracket::new(hi, p)
            }),
            OffsetState::Bracket(b) => OffsetState::Bracket(b.narrow(p)),
        };
        self.next = match &self.state {
            OffsetState::Bracket(b) if b.width() == 1 => return self.done(b),
            OffsetState::Bracket(b) => self.interior(b),
            OffsetState::Span { lo, hi, step } => self.expand(*lo, *hi, *step),
            OffsetState::Start => unreachable!("a probe was just answered"),
        };
        OffsetStep::Continue
    }

    /// Read for its sign only: at or past the early-exit threshold, or
    /// not a number.
    fn saturated(&self, p: Probe) -> bool {
        p.diff.is_nan() || p.diff.abs() >= self.saturation
    }

    /// Updates the gain to the slope between `p` and the previous
    /// unsaturated probe.
    fn learn(&mut self, p: Probe) {
        if self.saturated(p) {
            return;
        }
        if let Some(q) = self.last_unsat {
            let slope = (p.diff - q.diff) / (p.i - q.i) as f64;
            if slope != 0.0 && slope.is_finite() {
                self.gain = Some(slope);
            }
        }
        self.last_unsat = Some(p);
    }

    /// Next probe while every probe agrees: outside `[lo, hi]`.
    fn expand(&self, lo: Probe, hi: Probe, step: i64) -> i64 {
        let n = self.grid.n;
        // A guided probe is taken only while the grid ends plus a full
        // bisection would still fit in the budget after it.
        let affordable = self.spent + 3 + n.trailing_zeros() <= self.budget;
        let Some(gain) = self.gain.filter(|_| !self.cold && affordable) else {
            return if lo.i > 0 { 0 } else { n };
        };
        // The differential heads for zero on the side where its sign
        // and the gain's disagree.
        let up = lo.decision() != (gain > 0.0);
        let from = if up { hi } else { lo };
        if (up && hi.i == n) || (!up && lo.i == 0) {
            // That grid end agrees: the flip can only be beyond the other.
            return if up { 0 } else { n };
        }
        // From a saturated probe the prediction is only a lower bound on
        // the distance: expand geometrically.
        let predicted = (from.diff / gain).abs().ceil();
        let least = if self.saturated(from) { 2 * step } else { 1 };
        let step = if predicted < n as f64 {
            (predicted as i64).max(least).max(1)
        } else {
            n
        };
        if up {
            (from.i + step).min(n)
        } else {
            (from.i - step).max(0)
        }
    }

    /// Next probe inside a bracket at least two cells wide.
    fn interior(&self, b: &Bracket) -> i64 {
        let (lo, hi) = (b.lo, b.hi);
        let mid = lo.i + b.width() / 2;
        if self.cold || b.stalls >= 2 || self.spent + 1 + bisections(b.width() - 1) > self.budget {
            return mid;
        }
        let x = match (self.saturated(lo), self.saturated(hi)) {
            (false, false) => {
                let (f_lo, f_hi) = (lo.diff * b.w_lo, hi.diff * b.w_hi);
                lo.i as f64 + b.width() as f64 * f_lo / (f_lo - f_hi)
            }
            (true, true) => return mid,
            (lo_saturated, _) => {
                let (u, s) = if lo_saturated { (hi, lo) } else { (lo, hi) };
                let toward = (s.i - u.i) as f64;
                let secant = toward * u.diff / (u.diff - s.diff);
                match self.gain.map(|g| -u.diff / g) {
                    Some(newton) if newton * toward > 0.0 && newton.abs() < secant.abs() => {
                        u.i as f64 + newton
                    }
                    _ => u.i as f64 + secant,
                }
            }
        };
        if x.is_finite() {
            (x.round() as i64).clamp(lo.i + 1, hi.i - 1)
        } else {
            mid
        }
    }

    /// The finished search: its offset and the carrier for the next one.
    fn done(&self, b: &Bracket) -> OffsetStep {
        let pair_gain =
            (!self.saturated(b.lo) && !self.saturated(b.hi)).then_some(b.hi.diff - b.lo.diff);
        OffsetStep::Done {
            result: self.grid.offset(b.lo.i, b.hi.i),
            next: OffsetSearch {
                center: Some(b.lo.i),
                gain: pair_gain.or(self.gain),
            },
        }
    }
}

/// The workload-weighted delay measurement as a state machine, shared by
/// [`SaInstance::sensing_delay_weighted`] and the batched lane scheduler:
/// read-0 probe (skipped when `zero_fraction == 0`), read-1 probe
/// (skipped when `zero_fraction == 1`), then
/// `zero_fraction · d0 + (1 − zero_fraction) · d1`, with `0.0` standing
/// in for a skipped direction.
pub(crate) struct DelayFsm {
    zero_fraction: f64,
    /// The read-0 delay once measured (0.0 when that direction is
    /// skipped); `None` while the read-0 probe is pending.
    d0: Option<f64>,
}

impl DelayFsm {
    pub(crate) fn new(zero_fraction: f64) -> Self {
        DelayFsm {
            zero_fraction,
            d0: (zero_fraction <= 0.0).then_some(0.0),
        }
    }

    /// The read direction of the probe the machine is waiting on.
    pub(crate) fn current_read(&self) -> bool {
        self.d0.is_some()
    }

    /// Feeds the current probe's measured delay into the weighting:
    /// `Some(weighted delay)` once the measurement is complete, `None`
    /// when the read-1 probe is still to run.
    pub(crate) fn on_delay(&mut self, d: f64) -> Option<f64> {
        let zf = self.zero_fraction;
        match self.d0 {
            None if zf < 1.0 => {
                self.d0 = Some(d);
                None
            }
            None => Some(zf * d + (1.0 - zf) * 0.0),
            Some(d0) => Some(zf * d0 + (1.0 - zf) * d),
        }
    }
}

impl SaInstance {
    /// Runs one sense transient with DC bitlines and returns the internal
    /// differential `V(S) − V(SBar)` \[V\] at the end of the run (the full
    /// window, or the early-exit point once the differential has passed
    /// the resolve threshold — regeneration is monotone past it, so the
    /// sign is the same either way).
    fn regenerate(
        &self,
        ctx: &mut ProbeContext,
        v_bl: f64,
        v_blbar: f64,
        t_enable: f64,
        opts: &ProbeOptions,
        window_scale: f64,
    ) -> Result<f64, SaError> {
        ctx.set_bitlines(Waveform::dc(v_bl), Waveform::dc(v_blbar));
        let params = self.regen_params(v_bl, v_blbar, t_enable, opts, window_scale);
        let trace = ctx.run(&params)?;
        Ok(regen_diff(trace))
    }

    /// Transient parameters of one regeneration probe — shared verbatim
    /// by the scalar path above and the batched lane scheduler
    /// ([`crate::batch`]), so the two cannot drift apart.
    pub(crate) fn regen_params(
        &self,
        v_bl: f64,
        v_blbar: f64,
        t_enable: f64,
        opts: &ProbeOptions,
        window_scale: f64,
    ) -> TranParams {
        let vdd = self.env.vdd;
        // With the ISSA's crossed pair active, the pass phase connects BL
        // to SBar and BLBar to S; the precharge ICs must match.
        let crossed = self.kind == crate::netlist::SaKind::Issa && self.switch_state;
        let (s_ic, sbar_ic) = if crossed {
            (v_blbar, v_bl)
        } else {
            (v_bl, v_blbar)
        };
        let mut params = TranParams::new(t_enable + window_scale * opts.window, opts.dt)
            .recovery(opts.recovery)
            .record_nodes(["s", "sbar"])
            .ic("vdd", vdd)
            .ic("bl", v_bl)
            .ic("blbar", v_blbar)
            .ic("s", s_ic)
            .ic("sbar", sbar_ic)
            .ic("ntop", vdd)
            .ic("nbot", vdd)
            .ic("saenbar", vdd);
        if opts.early_exit {
            params = params.stop_when(StopWhen::DiffExceeds {
                a: "s".into(),
                b: "sbar".into(),
                threshold: opts.resolve_fraction * vdd,
            });
        }
        params
    }

    /// Senses the differential input `vin = V(BL) − V(BLBar)` \[V\].
    ///
    /// # Errors
    ///
    /// [`SaError::Unresolved`] if the internal differential does not reach
    /// `resolve_fraction · Vdd` by the end of the window, or a circuit
    /// error if the simulation fails.
    pub fn sense(&self, vin: f64, opts: &ProbeOptions) -> Result<SenseOutcome, SaError> {
        let drive = DriveSpec::offset_probe(vin, &self.env, opts.t_enable, opts.edge);
        let mut ctx = ProbeContext::new(self, &drive);
        let v_bl = drive.bl.eval(0.0);
        let v_blbar = drive.blbar.eval(0.0);
        // Small-margin inputs regenerate slowly; give sense() the same
        // extended window as the delay probe so a legitimate read is not
        // reported metastable. (The offset binary search keeps the short
        // window — it only needs the sign of the differential.)
        let diff = self.regenerate(
            &mut ctx,
            v_bl,
            v_blbar,
            drive.t_enable,
            opts,
            SLOW_WINDOW_SCALE,
        )?;
        if diff.abs() < opts.resolve_fraction * self.env.vdd {
            return Err(SaError::Unresolved { differential: diff });
        }
        Ok(if diff > 0.0 {
            SenseOutcome::One
        } else {
            SenseOutcome::Zero
        })
    }

    /// Measures this instance's input-referred offset voltage \[V\] by
    /// binary search on the input differential (the paper's method).
    ///
    /// See the module docs for the sign convention.
    ///
    /// # Errors
    ///
    /// [`SaError::OffsetOutOfRange`] if the decision does not flip within
    /// `±vin_max`, or a circuit error if a probe fails.
    pub fn offset_voltage(&self, opts: &ProbeOptions) -> Result<f64, SaError> {
        self.offset_voltage_with(opts, &mut OffsetSearch::default())
    }

    /// [`SaInstance::offset_voltage`] with a warm-start carrier: the
    /// Monte Carlo loop threads one [`OffsetSearch`] through consecutive
    /// samples so each search starts near the previous flip point. The
    /// result is independent of the carrier's state (see [`OffsetSearch`]).
    ///
    /// # Errors
    ///
    /// As [`SaInstance::offset_voltage`].
    ///
    /// # Panics
    ///
    /// Panics if `opts.offset_tol` or `opts.vin_max` is not positive.
    pub fn offset_voltage_with(
        &self,
        opts: &ProbeOptions,
        search: &mut OffsetSearch,
    ) -> Result<f64, SaError> {
        let drive = DriveSpec::offset_probe(0.0, &self.env, opts.t_enable, opts.edge);
        let mut ctx = ProbeContext::new(self, &drive);
        let mut fsm = OffsetFsm::new(opts, self.env.vdd, search);
        loop {
            // Near the metastable point resolution is slow, so the search
            // reads the decision from the sign of the end differential
            // and places the next probe from its size.
            let (v_bl, v_blbar) = offset_drive_levels(fsm.current_vin(), self.env.vdd);
            let diff = self.regenerate(&mut ctx, v_bl, v_blbar, opts.t_enable, opts, 1.0)?;
            match fsm.on_probe(diff) {
                OffsetStep::Continue => {}
                OffsetStep::Done { result, next } => {
                    *search = next;
                    return Ok(result);
                }
                OffsetStep::OutOfRange => {
                    return Err(SaError::OffsetOutOfRange {
                        vin_max: opts.vin_max,
                    })
                }
            }
        }
    }

    /// Measures the sensing delay for a read of `read_value` \[s\]: from
    /// SAenable's 50 % rising crossing to the rising 50 % crossing of the
    /// output that goes high (`Out` for a 1, `Outbar` for a 0).
    ///
    /// # Errors
    ///
    /// [`SaError::MissingCrossing`] if an expected transition never
    /// happens (e.g. the SA mis-senses the developed differential), or a
    /// circuit error.
    pub fn sensing_delay(&self, read_value: bool, opts: &ProbeOptions) -> Result<f64, SaError> {
        let drive = DriveSpec::delay_probe(read_value, opts.swing, &self.env, opts);
        let mut ctx = ProbeContext::new(self, &drive);
        let out_signal = self.delay_out_signal(read_value);
        let params = self.delay_params(&drive, out_signal, opts);
        let trace = ctx.run(&params)?;
        delay_from_trace(trace, out_signal, self.env.vdd)
    }

    /// Which output rises for a read of `read_value`: with the crossed
    /// pair active the SA resolves the complement, so the opposite output
    /// goes high (the control logic re-inverts the value downstream).
    pub(crate) fn delay_out_signal(&self, read_value: bool) -> &'static str {
        let crossed = self.kind == crate::netlist::SaKind::Issa && self.switch_state;
        if read_value ^ crossed {
            "out"
        } else {
            "outbar"
        }
    }

    /// Transient parameters of one delay probe — shared verbatim by
    /// [`SaInstance::sensing_delay`] and the batched lane scheduler.
    pub(crate) fn delay_params(
        &self,
        drive: &DriveSpec,
        out_signal: &str,
        opts: &ProbeOptions,
    ) -> TranParams {
        let vdd = self.env.vdd;
        // Heavily aged instances sensing against their bias can be several
        // times slower than a fresh SA; give the delay probe extra room so
        // the output crossing is not clipped by the window.
        let mut params = TranParams::new(drive.t_enable + SLOW_WINDOW_SCALE * opts.window, opts.dt)
            .recovery(opts.recovery)
            .record_nodes(["s", "sbar", "out", "outbar", "saen"])
            .ic("vdd", vdd)
            .ic("bl", vdd)
            .ic("blbar", vdd)
            .ic("s", vdd)
            .ic("sbar", vdd)
            .ic("ntop", vdd)
            .ic("nbot", vdd)
            .ic("saenbar", vdd);
        if opts.early_exit {
            // The run is over once the winning output's 50 % crossing is
            // bracketed; the outputs start low and rise monotonically
            // after the enable edge, so stopping there cannot skip the
            // crossing the measurement would have picked.
            params = params.stop_when(StopWhen::RisesThrough {
                node: out_signal.into(),
                level: 0.5 * vdd,
                after: drive.t_enable,
            });
        }
        params
    }

    /// Runs the delay-probe transient and returns the full waveform trace
    /// (`s`, `sbar`, `out`, `outbar`, `saen`, `bl`, `blbar`) — for
    /// plotting, debugging, and the waveform examples.
    ///
    /// # Errors
    ///
    /// Propagates circuit simulation errors.
    pub fn delay_waveforms(
        &self,
        read_value: bool,
        opts: &ProbeOptions,
    ) -> Result<issa_circuit::trace::Trace, SaError> {
        let drive = DriveSpec::delay_probe(read_value, opts.swing, &self.env, opts);
        let net = self.build_netlist(&drive);
        let vdd = self.env.vdd;
        let params = TranParams::new(drive.t_enable + SLOW_WINDOW_SCALE * opts.window, opts.dt)
            .recovery(opts.recovery)
            .record_nodes(["s", "sbar", "out", "outbar", "saen", "bl", "blbar"])
            .ic("vdd", vdd)
            .ic("bl", vdd)
            .ic("blbar", vdd)
            .ic("s", vdd)
            .ic("sbar", vdd)
            .ic("ntop", vdd)
            .ic("nbot", vdd)
            .ic("saenbar", vdd);
        Ok(transient(&net, &params)?)
    }

    /// Unweighted mean sensing delay over a read-0 and a read-1 \[s\].
    ///
    /// # Errors
    ///
    /// Propagates [`SaInstance::sensing_delay`] errors.
    pub fn sensing_delay_mean(&self, opts: &ProbeOptions) -> Result<f64, SaError> {
        self.sensing_delay_weighted(0.5, opts)
    }

    /// Workload-weighted mean sensing delay \[s\]:
    /// `zero_fraction · delay(read 0) + (1 − zero_fraction) · delay(read 1)`.
    ///
    /// This is the per-corner delay the paper's tables report: under the
    /// `80r0` workload the reads *are* zeros, so the delay that matters is
    /// the read-0 delay — the direction the aging fights. Pass the
    /// *internal* zero fraction of the compiled workload (0.5 for any
    /// ISSA workload).
    ///
    /// # Panics
    ///
    /// Panics if `zero_fraction` is outside `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Propagates [`SaInstance::sensing_delay`] errors.
    pub fn sensing_delay_weighted(
        &self,
        zero_fraction: f64,
        opts: &ProbeOptions,
    ) -> Result<f64, SaError> {
        assert!(
            (0.0..=1.0).contains(&zero_fraction),
            "zero fraction must be in [0,1]"
        );
        let mut fsm = DelayFsm::new(zero_fraction);
        loop {
            let d = self.sensing_delay(fsm.current_read(), opts)?;
            if let Some(weighted) = fsm.on_delay(d) {
                return Ok(weighted);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{SaDevice, SaKind};

    fn opts() -> ProbeOptions {
        ProbeOptions::fast()
    }

    #[test]
    fn fresh_nssa_senses_both_directions() {
        let sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        assert_eq!(sa.sense(50e-3, &opts()).unwrap(), SenseOutcome::One);
        assert_eq!(sa.sense(-50e-3, &opts()).unwrap(), SenseOutcome::Zero);
    }

    #[test]
    fn fresh_issa_senses_both_directions() {
        let sa = SaInstance::fresh(SaKind::Issa, Environment::nominal());
        assert_eq!(sa.sense(50e-3, &opts()).unwrap(), SenseOutcome::One);
        assert_eq!(sa.sense(-50e-3, &opts()).unwrap(), SenseOutcome::Zero);
    }

    #[test]
    fn issa_switch_state_inverts_decision() {
        // With the crossed pair active, BL drives SBar: the same external
        // input resolves the opposite internal state — this is why the
        // control logic must invert the read value.
        let mut sa = SaInstance::fresh(SaKind::Issa, Environment::nominal());
        sa.switch_state = true;
        assert_eq!(sa.sense(50e-3, &opts()).unwrap(), SenseOutcome::Zero);
        assert_eq!(sa.sense(-50e-3, &opts()).unwrap(), SenseOutcome::One);
    }

    #[test]
    fn fresh_offset_is_sub_millivolt() {
        for kind in [SaKind::Nssa, SaKind::Issa] {
            let sa = SaInstance::fresh(kind, Environment::nominal());
            let off = sa.offset_voltage(&opts()).unwrap();
            assert!(off.abs() < 1e-3, "{kind:?} fresh offset {off}");
        }
    }

    #[test]
    fn weak_mdown_biases_toward_one() {
        // Aging Mdown (the r0 stress victim) must shift the offset
        // positive — the paper's Table II sign for 80r0.
        let mut sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        sa.set_delta_vth(SaDevice::Mdown, 0.03);
        sa.set_delta_vth(SaDevice::MupBar, 0.03);
        let off = sa.offset_voltage(&opts()).unwrap();
        assert!(off > 5e-3, "offset {off} should be clearly positive");
    }

    #[test]
    fn weak_mdownbar_biases_toward_zero() {
        let mut sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        sa.set_delta_vth(SaDevice::MdownBar, 0.03);
        sa.set_delta_vth(SaDevice::Mup, 0.03);
        let off = sa.offset_voltage(&opts()).unwrap();
        assert!(off < -5e-3, "offset {off} should be clearly negative");
    }

    #[test]
    fn symmetric_aging_cancels() {
        let mut sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        for d in [
            SaDevice::Mdown,
            SaDevice::MdownBar,
            SaDevice::Mup,
            SaDevice::MupBar,
        ] {
            sa.set_delta_vth(d, 0.03);
        }
        let off = sa.offset_voltage(&opts()).unwrap();
        assert!(off.abs() < 1e-3, "balanced aging offset {off}");
    }

    #[test]
    fn sensing_delay_is_picoseconds() {
        let sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        let d = sa.sensing_delay_mean(&opts()).unwrap();
        assert!(d > 1e-12 && d < 60e-12, "delay {d:e}");
    }

    #[test]
    fn delay_grows_at_low_vdd() {
        let nom = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        let low = SaInstance::fresh(SaKind::Nssa, Environment::nominal().with_vdd_factor(0.9));
        let d_nom = nom.sensing_delay_mean(&opts()).unwrap();
        let d_low = low.sensing_delay_mean(&opts()).unwrap();
        assert!(
            d_low > d_nom,
            "low-Vdd delay {d_low:e} vs nominal {d_nom:e}"
        );
    }

    #[test]
    fn delay_grows_with_temperature() {
        let cold = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        let hot = SaInstance::fresh(SaKind::Nssa, Environment::nominal().with_temp_c(125.0));
        let d_cold = cold.sensing_delay_mean(&opts()).unwrap();
        let d_hot = hot.sensing_delay_mean(&opts()).unwrap();
        assert!(d_hot > d_cold, "hot delay {d_hot:e} vs cold {d_cold:e}");
    }

    #[test]
    fn issa_delay_overhead_is_small() {
        // Table II: NSSA 13.6 ps vs ISSA 13.9 ps at t=0 — the extra pass
        // pair costs only a little junction capacitance.
        let nssa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        let issa = SaInstance::fresh(SaKind::Issa, Environment::nominal());
        let d_n = nssa.sensing_delay_mean(&opts()).unwrap();
        let d_i = issa.sensing_delay_mean(&opts()).unwrap();
        assert!(d_i >= d_n * 0.98, "ISSA should not be faster fresh");
        assert!(
            d_i < d_n * 1.25,
            "ISSA overhead too large: {d_n:e} -> {d_i:e}"
        );
    }

    /// Drives `fsm` against the synthetic end differential `f` (no
    /// solver): returns the final step and every grid point probed, in
    /// order.
    fn drive(mut fsm: OffsetFsm, f: impl Fn(i64) -> f64) -> (OffsetStep, Vec<i64>) {
        let mut probes = Vec::new();
        loop {
            let i = fsm.current_probe();
            probes.push(i);
            let step = fsm.on_probe(f(i));
            if step != OffsetStep::Continue {
                return (step, probes);
            }
        }
    }

    /// Synthetic end differentials on a grid with a flip at `root` (a
    /// grid coordinate), rising with the index at `gain` volts per cell
    /// (falling when `gain` is negative). The saturation level of
    /// `search_opts` is 0.6 V at the 1 V supply the tests use.
    #[derive(Debug, Clone, Copy)]
    enum Response {
        Linear,
        /// `0.7·tanh(gain·x / 0.7)`: linear near the flip, flat (and
        /// read as sign-only) beyond ±0.6 V.
        Tanh,
        /// ±0.6 V everywhere: the sign and nothing else.
        SignOnly,
    }

    impl Response {
        fn at(self, i: i64, root: f64, gain: f64) -> f64 {
            let x = i as f64 - root;
            match self {
                Response::Linear => gain * x,
                Response::Tanh => 0.7 * (gain * x / 0.7).tanh(),
                Response::SignOnly => 0.6 * (gain * x).signum(),
            }
        }
    }

    const VDD: f64 = 1.0;

    fn search_opts(offset_tol: f64) -> ProbeOptions {
        ProbeOptions {
            vin_max: 0.3,
            offset_tol,
            ..ProbeOptions::default()
        }
    }

    /// Checks one guided search against the cold bisection on the same
    /// response: same step (result and flip cell), no grid point probed
    /// twice, at most `2·(2 + log2 n)` probes. Returns the probe count.
    fn check_against_cold(
        opts: &ProbeOptions,
        search: &OffsetSearch,
        f: &dyn Fn(i64) -> f64,
        case: &str,
    ) -> usize {
        let grid = OffsetGrid::from_opts(opts);
        let budget = 2 * (2 + grid.n.trailing_zeros()) as usize;
        let cold_opts = opts.reference();
        let (cold, cold_probes) = drive(OffsetFsm::new(&cold_opts, VDD, search), f);
        assert_eq!(
            cold_probes.len(),
            2 + grid.n.trailing_zeros() as usize,
            "{case}: cold bisection probes {cold_probes:?}"
        );
        let (step, probes) = drive(OffsetFsm::new(opts, VDD, search), f);
        match (step, cold) {
            (
                OffsetStep::Done { result, next },
                OffsetStep::Done {
                    result: cold_result,
                    next: cold_next,
                },
            ) => {
                assert_eq!(result.to_bits(), cold_result.to_bits(), "{case}");
                assert_eq!(next.center, cold_next.center, "{case}");
            }
            other => panic!("{case}: {other:?}"),
        }
        assert!(
            probes.len() <= budget,
            "{case}: {} probes {probes:?}",
            probes.len()
        );
        let mut distinct = probes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), probes.len(), "{case}: re-probed {probes:?}");
        probes.len()
    }

    /// Every guided-search case on one grid: each response shape in both
    /// directions and at the carried gain or ten times it, each carried
    /// gain (none, right, wrong sign), each flip cell in `flips`, each
    /// carried center `centers(flip)` yields.
    fn guided_search_table(
        offset_tol: f64,
        gain: f64,
        flips: impl Iterator<Item = i64> + Clone,
        centers: impl Fn(i64) -> Vec<Option<i64>>,
    ) -> usize {
        let opts = search_opts(offset_tol);
        let mut searches = 0;
        for shape in [Response::Linear, Response::Tanh, Response::SignOnly] {
            for direction in [1.0, -1.0] {
                let carried = direction * gain;
                for true_gain in [carried, 10.0 * carried] {
                    for k in flips.clone() {
                        let root = k as f64 + 0.37;
                        let f = move |i: i64| shape.at(i, root, true_gain);
                        for center in centers(k) {
                            for gain in [None, Some(carried), Some(-carried)] {
                                let case = format!(
                                    "{shape:?} gain {true_gain} flip {k} center {center:?} \
                                     carried {gain:?}"
                                );
                                let search = OffsetSearch { center, gain };
                                check_against_cold(&opts, &search, &f, &case);
                                searches += 1;
                            }
                        }
                    }
                }
            }
        }
        searches
    }

    #[test]
    fn guided_search_matches_cold_bisection_on_a_16_cell_grid() {
        // 16 cells over ±0.3 V; a gain of 0.1 V per cell keeps a few
        // cells around the flip below saturation.
        let n = 16;
        assert_eq!(OffsetGrid::from_opts(&search_opts(0.05)).n, n);
        let centers = |_| {
            std::iter::once(None)
                .chain((-2..n + 2).map(Some))
                .collect::<Vec<_>>()
        };
        let searches = guided_search_table(0.05, 0.1, 0..n, centers);
        assert_eq!(searches, 3 * 2 * 2 * 16 * 21 * 3);
    }

    #[test]
    fn guided_search_matches_cold_bisection_on_a_4096_cell_grid() {
        // The fast-profile grid (4096 cells of 146 µV). Every flip cell,
        // with the carried center absent, out of the grid, at either
        // end, or near and far from the flip; the full sweep of centers
        // runs on the 16-cell grid.
        let n = 4096;
        assert_eq!(OffsetGrid::from_opts(&search_opts(2e-4)).n, n);
        let centers = |k: i64| {
            let mut c = vec![None, Some(-3), Some(0), Some(n - 1), Some(n + 3)];
            c.extend(
                [0, 1, -2, 5, -40, 300, -1500]
                    .iter()
                    .map(|d| k + d)
                    .filter(|c| (0..n).contains(c))
                    .map(Some),
            );
            c
        };
        // 2.7 mV per cell: about the real circuit's gain at this grid.
        guided_search_table(2e-4, 0.0027, 0..n, centers);
    }

    #[test]
    fn guided_search_finds_a_nearby_flip_in_three_probes() {
        // The Monte Carlo case: the right gain and a carried center
        // within 50 cells (7 mV) of the flip, where the response is close
        // to linear (it falls short of it by about 1 %, under a cell).
        let opts = search_opts(2e-4);
        let gain = 0.0027;
        let center = 2000;
        for shift in -50..=50 {
            let root = f64::from(center + shift) + 0.37;
            let f = |i: i64| Response::Tanh.at(i, root, gain);
            let search = OffsetSearch {
                center: Some(i64::from(center)),
                gain: Some(gain),
            };
            let case = format!("shift {shift}");
            let probes = check_against_cold(&opts, &search, &f, &case);
            assert!(probes <= 3, "{case}: {probes} probes");
        }
    }

    #[test]
    fn constant_decision_is_out_of_range_only_after_both_grid_ends() {
        for offset_tol in [0.05, 2e-4] {
            let opts = search_opts(offset_tol);
            let n = OffsetGrid::from_opts(&opts).n;
            let budget = 2 * (2 + n.trailing_zeros()) as usize;
            for value in [0.6, -0.6, 0.01, -0.01, 0.0] {
                for center in [
                    None,
                    Some(-2),
                    Some(0),
                    Some(n / 3),
                    Some(n - 1),
                    Some(n + 2),
                ] {
                    for gain in [None, Some(0.01), Some(-0.01)] {
                        for o in [opts, opts.reference()] {
                            let search = OffsetSearch { center, gain };
                            let (step, probes) = drive(OffsetFsm::new(&o, VDD, &search), |_| value);
                            let case = format!("{value} center {center:?} gain {gain:?}");
                            assert_eq!(step, OffsetStep::OutOfRange, "{case}");
                            assert!(probes.contains(&0) && probes.contains(&n), "{case}");
                            assert!(probes.len() <= budget, "{case}: {probes:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn done_carries_the_flip_cell_and_its_gain() {
        let opts = search_opts(2e-4);
        let f = |i: i64| Response::Linear.at(i, 1234.37, 0.011);
        let (step, _) = drive(OffsetFsm::new(&opts, VDD, &OffsetSearch::default()), f);
        let OffsetStep::Done { next, .. } = step else {
            panic!("{step:?}");
        };
        assert_eq!(next.center, Some(1234));
        let gain = next.gain.expect("the final pair is below saturation");
        assert!((gain - 0.011).abs() < 1e-12, "gain {gain}");
    }

    /// DESIGN §9's path independence — warm start, sharding and the
    /// guided search all return the cold bisection's cell — rests on the
    /// decision flipping exactly once. Probe every grid point within ±16
    /// cells of the cold flip on real instances, in both directions.
    #[test]
    fn real_decisions_flip_exactly_once_around_the_offset() {
        use crate::montecarlo::{build_sample, McConfig};
        use crate::workload::{ReadSequence, Workload};
        let opts = opts();
        let grid = OffsetGrid::from_opts(&opts);
        let aged = |kind| {
            let workload = Workload::new(0.8, ReadSequence::AllZeros);
            let cfg = McConfig::smoke(kind, workload, Environment::nominal(), 1e8, 1);
            build_sample(&cfg, 0)
        };
        let issa = aged(SaKind::Issa);
        let mut switched = issa.clone();
        switched.switch_state = true;
        let instances = [
            (
                "fresh NSSA",
                SaInstance::fresh(SaKind::Nssa, Environment::nominal()),
            ),
            ("NSSA 80r0 at 1e8 s", aged(SaKind::Nssa)),
            ("ISSA 80r0 at 1e8 s", issa),
            ("ISSA 80r0 at 1e8 s, switched", switched),
        ];
        for (name, sa) in instances {
            let mut search = OffsetSearch::default();
            sa.offset_voltage_with(&opts.reference(), &mut search)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let k = search
                .center
                .expect("a finished search carries its flip cell");
            let drive = DriveSpec::offset_probe(0.0, &sa.env, opts.t_enable, opts.edge);
            let mut ctx = ProbeContext::new(&sa, &drive);
            let points: Vec<i64> = ((k - 16).max(0)..=(k + 17).min(grid.n)).collect();
            let decisions: Vec<bool> = points
                .iter()
                .map(|&i| {
                    let (v_bl, v_blbar) = offset_drive_levels(grid.value(i), sa.env.vdd);
                    sa.regenerate(&mut ctx, v_bl, v_blbar, opts.t_enable, &opts, 1.0)
                        .unwrap_or_else(|e| panic!("{name}: {e}"))
                        > 0.0
                })
                .collect();
            let changes: Vec<i64> = points
                .windows(2)
                .zip(decisions.windows(2))
                .filter(|(_, d)| d[0] != d[1])
                .map(|(p, _)| p[0])
                .collect();
            assert_eq!(
                changes,
                vec![k],
                "{name}: decisions {decisions:?} over {points:?}"
            );
        }
    }

    #[test]
    fn delay_fsm_reads_the_weighted_directions_in_order() {
        let (d0, d1) = (12e-12, 15e-12);
        for (zf, reads, want) in [
            (0.0, vec![true], 0.0 * 0.0 + 1.0 * d1),
            (1.0, vec![false], 1.0 * d0 + 0.0 * 0.0),
            (0.25, vec![false, true], 0.25 * d0 + 0.75 * d1),
        ] {
            let mut fsm = DelayFsm::new(zf);
            let mut seen = Vec::new();
            let result = loop {
                let read = fsm.current_read();
                seen.push(read);
                if let Some(v) = fsm.on_delay(if read { d1 } else { d0 }) {
                    break v;
                }
            };
            assert_eq!(seen, reads, "zero fraction {zf}");
            assert_eq!(result.to_bits(), want.to_bits(), "zero fraction {zf}");
        }
    }

    #[test]
    fn gross_failure_reports_out_of_range() {
        let mut sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        // Kill one side completely.
        sa.set_delta_vth(SaDevice::Mdown, 1.5);
        sa.set_delta_vth(SaDevice::MupBar, 1.5);
        let mut o = opts();
        o.vin_max = 0.05;
        match sa.offset_voltage(&o) {
            Err(SaError::OffsetOutOfRange { .. }) => {}
            other => panic!("expected OffsetOutOfRange, got {other:?}"),
        }
    }
}
