//! Transient analysis with fixed base step, a solver recovery ladder on
//! Newton failure (damped re-solve, timestep halving with state rewind,
//! gmin continuation — see [`crate::recovery`]), backward-Euler or
//! trapezoidal integration, optional early-exit criteria, and a reusable
//! context for repeated runs on the same circuit.

use crate::netlist::{Netlist, NodeId, ReactiveBranch};
use crate::newton::{NewtonOpts, NewtonWorkspace};
use crate::recovery::RecoveryPolicy;
use crate::trace::Trace;
use crate::{cancel, faultinject, CircuitError};

/// Numerical integration method for the reactive branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Backward Euler: L-stable, first-order, slightly lossy — the robust
    /// default for latch regeneration.
    #[default]
    BackwardEuler,
    /// Trapezoidal: second-order, energy-preserving; the first step of a
    /// run is still taken with backward Euler to bootstrap the branch
    /// current history.
    Trapezoidal,
}

/// Which signals to record.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum RecordSpec {
    /// Record every node voltage.
    #[default]
    All,
    /// Record only the named nodes.
    Nodes(Vec<String>),
}

/// Early-exit criterion: stop the run as soon as the simulated state
/// answers the question being asked, instead of integrating to `t_stop`.
///
/// The trace produced by an early-exited run is a prefix of the full run's
/// trace (the triggering sample is kept), so crossing-time measurements on
/// signals that resolve before the exit are unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum StopWhen {
    /// No early exit: integrate to `t_stop`.
    #[default]
    AtStop,
    /// Stop once `|V(a) − V(b)| ≥ threshold` at an accepted base step.
    /// Intended for regeneration probes, where the differential grows
    /// monotonically once it passes the resolve threshold — the sign at
    /// exit equals the sign at `t_stop`.
    DiffExceeds {
        /// First node name.
        a: String,
        /// Second node name.
        b: String,
        /// Absolute differential-voltage threshold \[V\].
        threshold: f64,
    },
    /// Stop at the first accepted base step whose interval contains a
    /// rising crossing of `level` on `node` with interpolated crossing
    /// time ≥ `after` — the same pair-selection rule as
    /// [`Trace::crossing_time`], so the measured crossing is identical to
    /// the full run's. The bracketing sample is recorded before stopping.
    RisesThrough {
        /// Node name to watch.
        node: String,
        /// Rising threshold \[V\].
        level: f64,
        /// Ignore crossings before this time \[s\].
        after: f64,
    },
}

/// Parameters of a transient run.
#[derive(Debug, Clone)]
pub struct TranParams {
    /// Stop time \[s\].
    pub t_stop: f64,
    /// Base time step \[s\]; on Newton failure the recovery ladder
    /// ([`TranParams::recovery`]) may re-solve damped, halve the step, or
    /// engage gmin continuation.
    pub dt: f64,
    /// Integration method.
    pub integrator: Integrator,
    /// Initial node voltages, `(name, volts)`; unnamed nodes start at 0 V.
    /// This is SPICE `UIC` semantics: no DC operating point is computed.
    pub ics: Vec<(String, f64)>,
    /// Signals to record.
    pub record: RecordSpec,
    /// Early-exit criterion.
    pub stop: StopWhen,
    /// Newton iteration budget per step.
    pub max_newton: usize,
    /// Solver recovery ladder walked when Newton fails at a step.
    pub recovery: RecoveryPolicy,
}

impl TranParams {
    /// Creates transient parameters with the given stop time and base step,
    /// backward-Euler integration, zero initial conditions, and no recorded
    /// signals.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        Self {
            t_stop,
            dt,
            integrator: Integrator::default(),
            ics: Vec::new(),
            record: RecordSpec::Nodes(Vec::new()),
            stop: StopWhen::AtStop,
            max_newton: 60,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Records every node voltage.
    pub fn record_all(mut self) -> Self {
        self.record = RecordSpec::All;
        self
    }

    /// Records the named nodes.
    pub fn record_nodes<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.record = RecordSpec::Nodes(names.into_iter().map(Into::into).collect());
        self
    }

    /// Sets an initial condition on a node.
    pub fn ic(mut self, name: &str, volts: f64) -> Self {
        self.ics.push((name.to_owned(), volts));
        self
    }

    /// Selects the integration method.
    pub fn integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Sets the early-exit criterion.
    pub fn stop_when(mut self, stop: StopWhen) -> Self {
        self.stop = stop;
        self
    }

    /// Sets the solver recovery ladder.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }
}

/// Per-branch companion-model history.
#[derive(Debug, Clone, Copy, Default)]
struct BranchState {
    v_prev: f64,
    i_prev: f64,
}

/// Where [`advance`] rewinds to on a failed rung: the iterate and the
/// branch histories at the start of the step.
#[derive(Debug, Default)]
struct StepBackup {
    x: Vec<f64>,
    states: Vec<BranchState>,
}

impl StepBackup {
    fn save(&mut self, x: &[f64], states: &[BranchState]) {
        self.x.clear();
        self.x.extend_from_slice(x);
        self.states.clear();
        self.states.extend_from_slice(states);
    }

    fn restore(&self, x: &mut [f64], states: &mut [BranchState]) {
        x.copy_from_slice(&self.x);
        states.copy_from_slice(&self.states);
    }
}

/// Resolved early-exit check, tracking crossing state between base steps.
/// Crate-visible so the batched lockstep engine ([`crate::batch`]) reuses
/// the exact trigger logic per lane.
pub(crate) enum StopCheck {
    Never,
    Diff {
        a: NodeId,
        b: NodeId,
        threshold: f64,
    },
    Rise {
        node: NodeId,
        level: f64,
        after: f64,
        y_prev: f64,
        t_prev: f64,
    },
}

impl StopCheck {
    /// Whether to stop after the accepted base step ending at `(t, x)`.
    pub(crate) fn triggered(&mut self, x: &[f64], t: f64) -> bool {
        match self {
            StopCheck::Never => false,
            StopCheck::Diff { a, b, threshold } => (volt(x, *a) - volt(x, *b)).abs() >= *threshold,
            StopCheck::Rise {
                node,
                level,
                after,
                y_prev,
                t_prev,
            } => {
                let y = volt(x, *node);
                // Mirror Trace::crossing_time's pair selection: only pairs
                // whose end time has reached `after` count, and the
                // interpolated crossing itself must lie at/after it.
                let mut hit = false;
                if t >= *after && *y_prev < *level && y >= *level {
                    let frac = if y == *y_prev {
                        0.0
                    } else {
                        (*level - *y_prev) / (y - *y_prev)
                    };
                    hit = *t_prev + frac * (t - *t_prev) >= *after;
                }
                *y_prev = y;
                *t_prev = t;
                hit
            }
        }
    }
}

#[inline]
pub(crate) fn volt(x: &[f64], id: NodeId) -> f64 {
    match id.unknown_index() {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Reusable transient-analysis context: Newton workspace (with its cached
/// base Jacobian), branch list, state vectors, and output trace, all kept
/// alive between runs so that repeated transients on the same circuit —
/// the Monte Carlo probe loop — allocate nothing after the first.
///
/// A context is tied to the netlist it was built from: reuse it only while
/// the topology and element *values* are unchanged. Mutating source
/// waveforms between runs is explicitly supported (that is the point);
/// after changing element values, call [`TranContext::invalidate`].
#[derive(Debug)]
pub struct TranContext {
    n: usize,
    branches: Vec<ReactiveBranch>,
    states: Vec<BranchState>,
    ws: NewtonWorkspace,
    x: Vec<f64>,
    backup: StepBackup,
    sample: Vec<f64>,
    trace: Trace,
}

impl TranContext {
    /// Builds a context sized for `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        let n = netlist.unknown_count();
        let branches = netlist.reactive_branches();
        let states = Vec::with_capacity(branches.len());
        Self {
            n,
            branches,
            states,
            ws: NewtonWorkspace::new(n),
            x: vec![0.0; n],
            backup: StepBackup::default(),
            sample: Vec::new(),
            trace: Trace::new(Vec::new()),
        }
    }

    /// Drops cached constant structure (the base Jacobian). Call after
    /// mutating element values of the underlying netlist.
    pub fn invalidate(&mut self) {
        self.ws.invalidate_base();
    }

    /// The trace produced by the most recent [`TranContext::run`].
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Runs a transient analysis, reusing every buffer from previous runs.
    ///
    /// Starts from user initial conditions (`UIC`): node voltages are set
    /// from [`TranParams::ics`], capacitor histories are initialized
    /// consistently, and the first Newton solve happens at `t = dt`.
    ///
    /// # Errors
    ///
    /// - [`CircuitError::InvalidParameter`] for non-positive `dt`/`t_stop`
    ///   or an unknown node name in `ics`/`record`/`stop`;
    /// - [`CircuitError::Singular`] / [`CircuitError::NonConvergence`] from
    ///   the Newton solver if step splitting bottoms out.
    ///
    /// # Panics
    ///
    /// Panics if `netlist` does not have the unknown count this context
    /// was built for.
    pub fn run(&mut self, netlist: &Netlist, params: &TranParams) -> Result<&Trace, CircuitError> {
        if params.dt <= 0.0 || !params.dt.is_finite() {
            return Err(CircuitError::InvalidParameter {
                message: format!("time step must be positive, got {}", params.dt),
            });
        }
        if params.t_stop <= 0.0 || !params.t_stop.is_finite() {
            return Err(CircuitError::InvalidParameter {
                message: format!("stop time must be positive, got {}", params.t_stop),
            });
        }
        assert_eq!(
            netlist.unknown_count(),
            self.n,
            "netlist does not match this context"
        );

        let find = |name: &str| -> Result<NodeId, CircuitError> {
            netlist
                .find_node(name)
                .ok_or_else(|| CircuitError::InvalidParameter {
                    message: format!("node '{name}' does not exist"),
                })
        };

        // Resolve recorded nodes.
        let recorded: Vec<(String, NodeId)> = match &params.record {
            RecordSpec::All => netlist
                .node_ids()
                .map(|id| (netlist.node_name(id).to_owned(), id))
                .collect(),
            RecordSpec::Nodes(names) => {
                let mut v = Vec::with_capacity(names.len());
                for name in names {
                    let id =
                        netlist
                            .find_node(name)
                            .ok_or_else(|| CircuitError::InvalidParameter {
                                message: format!("recorded node '{name}' does not exist"),
                            })?;
                    v.push((name.clone(), id));
                }
                v
            }
        };

        // Initial state from ICs.
        self.x.iter_mut().for_each(|v| *v = 0.0);
        for (name, volts) in &params.ics {
            let id = netlist
                .find_node(name)
                .ok_or_else(|| CircuitError::InvalidParameter {
                    message: format!("IC node '{name}' does not exist"),
                })?;
            if let Some(i) = id.unknown_index() {
                self.x[i] = *volts;
            }
        }

        // Resolve the early-exit criterion.
        let mut stop = match &params.stop {
            StopWhen::AtStop => StopCheck::Never,
            StopWhen::DiffExceeds { a, b, threshold } => StopCheck::Diff {
                a: find(a)?,
                b: find(b)?,
                threshold: *threshold,
            },
            StopWhen::RisesThrough { node, level, after } => {
                let id = find(node)?;
                StopCheck::Rise {
                    node: id,
                    level: *level,
                    after: *after,
                    y_prev: volt(&self.x, id),
                    t_prev: 0.0,
                }
            }
        };

        self.states.clear();
        self.states
            .extend(self.branches.iter().map(|b| BranchState {
                v_prev: volt(&self.x, b.a) - volt(&self.x, b.b),
                i_prev: 0.0,
            }));

        let opts = NewtonOpts {
            max_iter: params.max_newton,
            ..NewtonOpts::default()
        };

        self.trace
            .reset(recorded.iter().map(|(name, _)| name.clone()).collect());
        self.sample.clear();
        self.sample.resize(recorded.len(), 0.0);
        for (slot, (_, id)) in self.sample.iter_mut().zip(&recorded) {
            *slot = volt(&self.x, *id);
        }
        self.trace.push(0.0, &self.sample);

        let mut t = 0.0;
        let mut first_step = true;
        let n_steps = (params.t_stop / params.dt).ceil() as u64;
        for step in 1..=n_steps {
            let t_target = (step as f64 * params.dt).min(params.t_stop);
            if t_target <= t {
                continue;
            }
            faultinject::begin_base_step();
            // The watchdog polls once per base step (sub-steps and ladder
            // retries stay uninterrupted so an accepted step is always a
            // complete one).
            if let Some(e) = cancel::check(t_target) {
                self.ws.counts.cancellations += 1;
                std::mem::take(&mut self.ws.counts).flush(false);
                return Err(e);
            }
            let advanced = advance(
                netlist,
                &self.branches,
                &mut self.states,
                &mut self.x,
                &mut self.ws,
                &mut self.backup,
                opts,
                t,
                t_target,
                params.integrator,
                first_step,
                params.recovery.max_dt_halvings,
                &params.recovery,
            );
            if let Err(e) = advanced {
                std::mem::take(&mut self.ws.counts).flush(false);
                return Err(e);
            }
            first_step = false;
            t = t_target;
            for (slot, (_, id)) in self.sample.iter_mut().zip(&recorded) {
                *slot = volt(&self.x, *id);
            }
            self.trace.push(t, &self.sample);
            if stop.triggered(&self.x, t) {
                break;
            }
        }

        std::mem::take(&mut self.ws.counts).flush(true);
        Ok(&self.trace)
    }
}

/// Runs a one-shot transient analysis.
///
/// Equivalent to building a fresh [`TranContext`] and calling
/// [`TranContext::run`] once; repeated analyses of the same circuit should
/// reuse a context instead.
///
/// # Errors
///
/// See [`TranContext::run`].
pub fn transient(netlist: &Netlist, params: &TranParams) -> Result<Trace, CircuitError> {
    let mut ctx = TranContext::new(netlist);
    ctx.run(netlist, params)?;
    Ok(ctx.trace)
}

/// Runs one Newton solve of the step ending at `t1`, optionally under a
/// gmin shunt (recovery rung 3). `gmin == 0` is the plain solve; its base
/// Jacobian key is the historical `±h` so recovery's final relaxed solve
/// shares the fast path's cached base.
#[allow(clippy::too_many_arguments)]
fn solve_step(
    netlist: &Netlist,
    branches: &[ReactiveBranch],
    states: &[BranchState],
    x: &mut [f64],
    ws: &mut NewtonWorkspace,
    opts: NewtonOpts,
    t1: f64,
    h: f64,
    use_trap: bool,
    gmin: f64,
) -> Result<usize, CircuitError> {
    if let Some(e) = faultinject::intercept(t1) {
        return Err(e);
    }
    // The companion conductances depend only on (h, method), so they live
    // in the cached base Jacobian; the sign of the key distinguishes the
    // two methods at equal step size. gmin solves get a bit-mixed key so
    // equal (h, method, gmin) triples share a base without colliding with
    // the plain ±h keys.
    let plain_key = if use_trap { h } else { -h };
    let base_key = if gmin == 0.0 {
        plain_key
    } else {
        f64::from_bits(plain_key.to_bits().rotate_left(17) ^ gmin.to_bits() ^ 0x9E37_79B9_7F4A_7C15)
    };
    ws.solve(
        netlist,
        x,
        t1,
        base_key,
        |st| {
            for b in branches {
                let geq = if use_trap {
                    2.0 * b.capacitance / h
                } else {
                    b.capacitance / h
                };
                st.add_conductance(b.a, b.b, geq);
            }
            if gmin > 0.0 {
                for node in netlist.node_ids() {
                    st.add_conductance(node, Netlist::GROUND, gmin);
                }
            }
        },
        |x, st| {
            for (b, s) in branches.iter().zip(states.iter()) {
                let vab = volt(x, b.a) - volt(x, b.b);
                let i = if use_trap {
                    let g = 2.0 * b.capacitance / h;
                    g * (vab - s.v_prev) - s.i_prev
                } else {
                    let g = b.capacitance / h;
                    g * (vab - s.v_prev)
                };
                st.add_current(b.a, b.b, i);
            }
            if gmin > 0.0 {
                for node in netlist.node_ids() {
                    let i = gmin * st.voltage(x, node);
                    st.add_current(node, Netlist::GROUND, i);
                }
            }
        },
        opts,
    )
}

/// Advances the solution from `t0` to `t1`, walking the recovery ladder
/// on Newton failure: damped re-solve (rung 1), recursive halving with
/// state rewind (rung 2), gmin continuation (rung 3). On failure the
/// state is rewound to `t0` and the *original* solver error is returned.
/// `backup` holds the rewind point; the base step passes the context's
/// own, so a step allocates nothing once the buffers have grown.
#[allow(clippy::too_many_arguments)]
fn advance(
    netlist: &Netlist,
    branches: &[ReactiveBranch],
    states: &mut [BranchState],
    x: &mut [f64],
    ws: &mut NewtonWorkspace,
    backup: &mut StepBackup,
    opts: NewtonOpts,
    t0: f64,
    t1: f64,
    integrator: Integrator,
    first_step: bool,
    halvings_left: u32,
    policy: &RecoveryPolicy,
) -> Result<(), CircuitError> {
    let h = t1 - t0;
    debug_assert!(h > 0.0);

    backup.save(x, states);

    // The first step of a run uses BE regardless, to bootstrap i_prev.
    let use_trap = matches!(integrator, Integrator::Trapezoidal) && !first_step;

    let mut result = solve_step(netlist, branches, states, x, ws, opts, t1, h, use_trap, 0.0);

    // Rung 1 — damped re-solve: rewind the iterate and retry with a
    // progressively smaller max_step (classic SPICE damping escalation).
    if result.is_err() {
        for k in 1..=policy.damped_attempts {
            x.copy_from_slice(&backup.x);
            ws.counts.recoveries_damped += 1;
            let damped = NewtonOpts {
                max_step: opts.max_step * policy.damp_scale.powi(k as i32),
                ..opts
            };
            let retry = solve_step(
                netlist, branches, states, x, ws, damped, t1, h, use_trap, 0.0,
            );
            if retry.is_ok() {
                result = retry;
                break;
            }
        }
    }

    // Rung 2 — timestep halving: rewind the full state (iterate and
    // companion histories) and integrate the interval as two half steps,
    // each of which walks its own ladder (and rewinds to its own backup:
    // this one must survive the half steps).
    if result.is_err() && halvings_left > 0 {
        backup.restore(x, states);
        ws.counts.recoveries_dt_halved += 1;
        let tm = 0.5 * (t0 + t1);
        let mut half_backup = StepBackup::default();
        let split = advance(
            netlist,
            branches,
            states,
            x,
            ws,
            &mut half_backup,
            opts,
            t0,
            tm,
            integrator,
            first_step,
            halvings_left - 1,
            policy,
        )
        .and_then(|()| {
            advance(
                netlist,
                branches,
                states,
                x,
                ws,
                &mut half_backup,
                opts,
                tm,
                t1,
                integrator,
                false,
                halvings_left - 1,
                policy,
            )
        });
        match split {
            // The half steps committed their own state; nothing left to do.
            Ok(()) => return Ok(()),
            Err(_) => backup.restore(x, states),
        }
    }

    // Rung 3 — gmin continuation: solve under a shunt conductance from
    // every node to ground, relax it geometrically, and accept the step
    // only if the final solve with the shunt fully removed (gmin = 0)
    // converges — the accepted solution always satisfies the unmodified
    // system.
    if result.is_err() && policy.gmin_enabled() {
        x.copy_from_slice(&backup.x);
        ws.counts.recoveries_gmin += 1;
        let mut gmin = policy.gmin_start;
        let mut relaxed = true;
        while gmin > policy.gmin_min {
            if solve_step(
                netlist, branches, states, x, ws, opts, t1, h, use_trap, gmin,
            )
            .is_err()
            {
                relaxed = false;
                break;
            }
            gmin *= policy.gmin_decay;
        }
        if relaxed {
            let finish = solve_step(netlist, branches, states, x, ws, opts, t1, h, use_trap, 0.0);
            if finish.is_ok() {
                result = finish;
            }
        }
    }

    match result {
        Ok(_) => {
            ws.counts.timesteps += 1;
            // Commit branch history.
            for (b, s) in branches.iter().zip(states.iter_mut()) {
                let vab = volt(x, b.a) - volt(x, b.b);
                let i = if use_trap {
                    let g = 2.0 * b.capacitance / h;
                    g * (vab - s.v_prev) - s.i_prev
                } else {
                    let g = b.capacitance / h;
                    g * (vab - s.v_prev)
                };
                s.v_prev = vab;
                s.i_prev = i;
            }
            Ok(())
        }
        Err(e) => {
            ws.counts.recoveries_failed += 1;
            backup.restore(x, states);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::{MosParams, MosPolarity};
    use crate::trace::CrossDirection;
    use crate::waveform::Waveform;

    fn nmos(beta: f64) -> MosParams {
        MosParams {
            polarity: MosPolarity::Nmos,
            vth0: 0.45,
            beta,
            n: 1.3,
            vt: 0.02585,
            lambda: 0.1,
            theta: 0.2,
            gamma: 0.2,
            phi: 0.8,
            cgs: 1e-16,
            cgd: 1e-16,
            cdb: 1e-16,
            csb: 1e-16,
            delta_vth: 0.0,
        }
    }

    fn pmos(beta: f64) -> MosParams {
        MosParams {
            polarity: MosPolarity::Pmos,
            ..nmos(beta)
        }
    }

    fn latch_netlist() -> Netlist {
        let mut n = Netlist::new();
        let vdd = n.node("vdd");
        let s = n.node("s");
        let sbar = n.node("sbar");
        n.vsource(vdd, Netlist::GROUND, Waveform::dc(1.0));
        // Inverter A: input s, output sbar.
        n.mosfet("MPA", sbar, s, vdd, vdd, pmos(2e-3));
        n.mosfet("MNA", sbar, s, Netlist::GROUND, Netlist::GROUND, nmos(1e-3));
        // Inverter B: input sbar, output s.
        n.mosfet("MPB", s, sbar, vdd, vdd, pmos(2e-3));
        n.mosfet("MNB", s, sbar, Netlist::GROUND, Netlist::GROUND, nmos(1e-3));
        n.capacitor(s, Netlist::GROUND, 1e-15);
        n.capacitor(sbar, Netlist::GROUND, 1e-15);
        n
    }

    #[test]
    fn rc_charge_matches_analytic() {
        let mut n = Netlist::new();
        let vin = n.node("in");
        let out = n.node("out");
        n.vsource(vin, Netlist::GROUND, Waveform::dc(1.0));
        n.resistor(vin, out, 1e3);
        n.capacitor(out, Netlist::GROUND, 1e-9); // tau = 1 µs

        let params = TranParams::new(3e-6, 5e-9).record_all();
        let tr = transient(&n, &params).unwrap();
        for &t in &[0.5e-6, 1e-6, 2e-6, 3e-6] {
            let got = tr.value_at("out", t).unwrap();
            let want = 1.0 - (-t / 1e-6).exp();
            assert!((got - want).abs() < 5e-3, "t={t:e}: got {got} want {want}");
        }
    }

    #[test]
    fn trapezoidal_beats_backward_euler_on_rc() {
        let build = || {
            let mut n = Netlist::new();
            let vin = n.node("in");
            let out = n.node("out");
            n.vsource(vin, Netlist::GROUND, Waveform::dc(1.0));
            n.resistor(vin, out, 1e3);
            n.capacitor(out, Netlist::GROUND, 1e-9);
            n
        };
        let err_at = |integ: Integrator| {
            let params = TranParams::new(1e-6, 2e-8).record_all().integrator(integ);
            let tr = transient(&build(), &params).unwrap();
            let got = tr.value_at("out", 1e-6).unwrap();
            let want = 1.0 - (-1.0f64).exp();
            (got - want).abs()
        };
        let be = err_at(Integrator::BackwardEuler);
        let trap = err_at(Integrator::Trapezoidal);
        assert!(trap < be, "trap {trap:e} should beat BE {be:e}");
    }

    #[test]
    fn initial_conditions_respected() {
        let mut n = Netlist::new();
        let a = n.node("a");
        n.capacitor(a, Netlist::GROUND, 1e-9);
        n.resistor(a, Netlist::GROUND, 1e3);
        let params = TranParams::new(1e-6, 1e-8).record_all().ic("a", 1.0);
        let tr = transient(&n, &params).unwrap();
        assert_eq!(tr.signal("a").unwrap()[0], 1.0);
        // Discharges toward zero with tau = 1 µs.
        let got = tr.value_at("a", 1e-6).unwrap();
        assert!((got - (-1.0f64).exp()).abs() < 5e-3, "got {got}");
    }

    #[test]
    fn inverter_switches_with_pulse_input() {
        let mut n = Netlist::new();
        let vdd = n.node("vdd");
        let vin = n.node("in");
        let out = n.node("out");
        n.vsource(vdd, Netlist::GROUND, Waveform::dc(1.0));
        n.vsource(
            vin,
            Netlist::GROUND,
            Waveform::step(0.0, 1.0, 100e-12, 20e-12),
        );
        n.mosfet("MP", out, vin, vdd, vdd, pmos(2e-3));
        n.mosfet("MN", out, vin, Netlist::GROUND, Netlist::GROUND, nmos(1e-3));
        n.capacitor(out, Netlist::GROUND, 1e-15);

        let params = TranParams::new(500e-12, 1e-12)
            .record_all()
            .ic("out", 1.0)
            .ic("vdd", 1.0);
        let tr = transient(&n, &params).unwrap();
        // Output starts high, ends low after the input steps up.
        assert!(tr.signal("out").unwrap()[0] > 0.9);
        assert!(tr.final_value("out").unwrap() < 0.05);
        let t_fall = tr
            .crossing_time("out", 0.5, CrossDirection::Falling, 0.0)
            .unwrap();
        assert!(t_fall > 100e-12 && t_fall < 300e-12, "t_fall = {t_fall:e}");
    }

    #[test]
    fn cross_coupled_latch_regenerates() {
        // The core dynamic of the sense amplifier: two cross-coupled
        // inverters amplify a small initial imbalance to full rails.
        let n = latch_netlist();
        let params = TranParams::new(2e-9, 1e-12)
            .record_all()
            .ic("vdd", 1.0)
            .ic("s", 0.52) // 40 mV of imbalance around mid-rail
            .ic("sbar", 0.48);
        let tr = transient(&n, &params).unwrap();
        assert!(tr.final_value("s").unwrap() > 0.95, "s should win");
        assert!(tr.final_value("sbar").unwrap() < 0.05, "sbar should lose");

        // Mirror-image imbalance resolves the other way.
        let params2 = TranParams::new(2e-9, 1e-12)
            .record_all()
            .ic("vdd", 1.0)
            .ic("s", 0.48)
            .ic("sbar", 0.52);
        let tr2 = transient(&n, &params2).unwrap();
        assert!(tr2.final_value("s").unwrap() < 0.05);
        assert!(tr2.final_value("sbar").unwrap() > 0.95);
    }

    #[test]
    fn diff_exceeds_stops_early_with_same_sign() {
        let n = latch_netlist();
        let full = TranParams::new(2e-9, 1e-12)
            .record_nodes(["s", "sbar"])
            .ic("vdd", 1.0)
            .ic("s", 0.52)
            .ic("sbar", 0.48);
        let early = full.clone().stop_when(StopWhen::DiffExceeds {
            a: "s".into(),
            b: "sbar".into(),
            threshold: 0.6,
        });
        let tr_full = transient(&n, &full).unwrap();
        let tr_early = transient(&n, &early).unwrap();
        assert!(
            tr_early.len() < tr_full.len() / 2,
            "early exit should cut the run ({} vs {})",
            tr_early.len(),
            tr_full.len()
        );
        let diff_early = tr_early.final_value("s").unwrap() - tr_early.final_value("sbar").unwrap();
        let diff_full = tr_full.final_value("s").unwrap() - tr_full.final_value("sbar").unwrap();
        assert!(diff_early.abs() >= 0.6);
        assert_eq!(diff_early.signum(), diff_full.signum());
        // The early trace is a sample-for-sample prefix of the full one.
        let k = tr_early.len();
        assert_eq!(&tr_full.time()[..k], tr_early.time());
        assert_eq!(
            &tr_full.signal("s").unwrap()[..k],
            tr_early.signal("s").unwrap()
        );
    }

    #[test]
    fn rises_through_preserves_crossing_time() {
        let n = latch_netlist();
        let full = TranParams::new(2e-9, 1e-12)
            .record_nodes(["s", "sbar"])
            .ic("vdd", 1.0)
            .ic("s", 0.52)
            .ic("sbar", 0.48);
        let early = full.clone().stop_when(StopWhen::RisesThrough {
            node: "s".into(),
            level: 0.9,
            after: 10e-12,
        });
        let tr_full = transient(&n, &full).unwrap();
        let tr_early = transient(&n, &early).unwrap();
        assert!(tr_early.len() < tr_full.len());
        let tc_full = tr_full
            .crossing_time("s", 0.9, CrossDirection::Rising, 10e-12)
            .unwrap();
        let tc_early = tr_early
            .crossing_time("s", 0.9, CrossDirection::Rising, 10e-12)
            .unwrap();
        assert_eq!(tc_full.to_bits(), tc_early.to_bits());
    }

    #[test]
    fn context_reuse_is_bit_identical_to_fresh_runs() {
        let n = latch_netlist();
        let mk = |s_ic: f64| {
            TranParams::new(1e-9, 1e-12)
                .record_nodes(["s", "sbar"])
                .ic("vdd", 1.0)
                .ic("s", s_ic)
                .ic("sbar", 1.0 - s_ic)
        };
        let mut ctx = TranContext::new(&n);
        for s_ic in [0.52, 0.48, 0.505] {
            let params = mk(s_ic);
            let fresh = transient(&n, &params).unwrap();
            let reused = ctx.run(&n, &params).unwrap();
            assert_eq!(&fresh, reused, "s_ic = {s_ic}");
        }
    }

    #[test]
    fn stop_condition_on_unknown_node_is_rejected() {
        let mut n = Netlist::new();
        let a = n.node("a");
        n.resistor(a, Netlist::GROUND, 1.0);
        n.capacitor(a, Netlist::GROUND, 1e-12);
        let params = TranParams::new(1e-9, 1e-12).stop_when(StopWhen::RisesThrough {
            node: "nope".into(),
            level: 0.5,
            after: 0.0,
        });
        assert!(matches!(
            transient(&n, &params),
            Err(CircuitError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut n = Netlist::new();
        let a = n.node("a");
        n.resistor(a, Netlist::GROUND, 1.0);
        assert!(matches!(
            transient(&n, &TranParams::new(1e-9, 0.0)),
            Err(CircuitError::InvalidParameter { .. })
        ));
        assert!(matches!(
            transient(&n, &TranParams::new(-1.0, 1e-12)),
            Err(CircuitError::InvalidParameter { .. })
        ));
        assert!(matches!(
            transient(&n, &TranParams::new(1e-9, 1e-12).ic("nope", 1.0)),
            Err(CircuitError::InvalidParameter { .. })
        ));
        assert!(matches!(
            transient(&n, &TranParams::new(1e-9, 1e-12).record_nodes(["nope"])),
            Err(CircuitError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn record_subset_only() {
        let mut n = Netlist::new();
        let a = n.node("a");
        let b = n.node("b");
        n.vsource(a, Netlist::GROUND, Waveform::dc(1.0));
        n.resistor(a, b, 1e3);
        n.capacitor(b, Netlist::GROUND, 1e-12);
        let tr = transient(&n, &TranParams::new(1e-9, 1e-11).record_nodes(["b"])).unwrap();
        assert_eq!(tr.names(), &["b".to_string()]);
        assert!(tr.signal("a").is_none());
    }

    #[test]
    fn pwl_source_tracks_waveform() {
        let mut n = Netlist::new();
        let a = n.node("a");
        n.vsource(
            a,
            Netlist::GROUND,
            Waveform::pwl(vec![(0.0, 0.0), (1e-9, 1.0), (2e-9, 0.25)]),
        );
        n.resistor(a, Netlist::GROUND, 1e3);
        let tr = transient(&n, &TranParams::new(2e-9, 1e-11).record_all()).unwrap();
        assert!((tr.value_at("a", 0.5e-9).unwrap() - 0.5).abs() < 1e-6);
        assert!((tr.value_at("a", 2e-9).unwrap() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn transient_updates_perf_counters() {
        let mut n = Netlist::new();
        let a = n.node("a");
        n.resistor(a, Netlist::GROUND, 1e3);
        n.capacitor(a, Netlist::GROUND, 1e-12);
        let before = crate::perf::snapshot();
        transient(&n, &TranParams::new(1e-10, 1e-12).record_all().ic("a", 1.0)).unwrap();
        let d = crate::perf::snapshot().delta_since(&before);
        assert!(d.transients >= 1, "{d:?}");
        assert!(d.timesteps >= 100, "{d:?}");
        assert!(d.newton_iterations >= d.timesteps, "{d:?}");
        assert!(d.lu_factorizations >= d.timesteps, "{d:?}");
    }
}
