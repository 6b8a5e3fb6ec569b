//! Property-based tests (proptest) on the workspace's algebraic layers:
//! numerics, spec solver, workload compilation, aging model, and control
//! logic — plus a reduced-case block of solver recovery-ladder invariants
//! on a tiny RC transient (full circuit-level behaviour is covered by the
//! deterministic integration tests; each transient is too costly for
//! hundreds of proptest cases).

use issa::bti::{BtiParams, StressCondition, Trap, TrapSet};
use issa::core::spec::offset_spec;
use issa::core::stress::{compile_workload, device_duty, StressModel};
use issa::digital::{IssaControl, RippleCounter};
use issa::num::matrix::DMatrix;
use issa::num::special::{inv_norm_cdf, norm_cdf};
use issa::prelude::*;
use proptest::prelude::*;

proptest! {
    #[test]
    fn lu_solves_diagonally_dominant_systems(
        seed_rows in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..1.0, 6), 6),
        x_true in proptest::collection::vec(-10.0f64..10.0, 6),
    ) {
        // Make the matrix strictly diagonally dominant => nonsingular.
        let mut a = DMatrix::zeros(6, 6);
        for i in 0..6 {
            let mut row_sum = 0.0;
            for j in 0..6 {
                a[(i, j)] = seed_rows[i][j];
                row_sum += seed_rows[i][j].abs();
            }
            a[(i, i)] = row_sum + 1.0;
        }
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).expect("diagonally dominant is nonsingular");
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-8, "{xi} vs {ti}");
        }
    }

    #[test]
    fn normal_cdf_quantile_roundtrip(p in 1e-12f64..0.999_999) {
        let x = inv_norm_cdf(p);
        let back = norm_cdf(x);
        prop_assert!((back - p).abs() < 1e-9 + 1e-6 * p);
    }

    #[test]
    fn spec_monotone_in_mu_sigma_and_fr(
        mu in -0.05f64..0.05,
        sigma in 1e-3f64..0.05,
        extra_mu in 1e-4f64..0.02,
        extra_sigma in 1e-4f64..0.02,
    ) {
        let base = offset_spec(mu, sigma, 1e-9);
        prop_assert!(base > 0.0);
        // A larger |mean| or more spread can only inflate the spec.
        let sign = if mu >= 0.0 { 1.0 } else { -1.0 };
        let shifted = offset_spec(mu + sign * extra_mu, sigma, 1e-9);
        let wider = offset_spec(mu, sigma + extra_sigma, 1e-9);
        prop_assert!(shifted >= base - 1e-12);
        prop_assert!(wider > base);
        // A looser failure target can only shrink it.
        let loose = offset_spec(mu, sigma, 1e-6);
        prop_assert!(loose < base);
    }

    #[test]
    fn issa_internal_mix_is_balanced_for_any_pattern(
        // bits >= 2: a 1-bit counter's switch period (1 read) aliases with
        // the alternating pattern's period (2 reads) and defeats the
        // balancing — see `control::tests` in issa-digital for the
        // demonstration. The paper's 8-bit counter is far from any such
        // alias.
        bits in 2u8..10,
        activation in 0.0f64..1.0,
        seq_pick in 0usize..3,
    ) {
        let seq = [ReadSequence::AllZeros, ReadSequence::AllOnes, ReadSequence::Alternating][seq_pick];
        let cw = compile_workload(Workload::new(activation, seq), SaKind::Issa, bits);
        prop_assert!((cw.internal_zero_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn latch_duty_symmetry_iff_balanced(
        activation in 0.01f64..1.0,
    ) {
        let m = StressModel::default();
        let bal = compile_workload(Workload::new(activation, ReadSequence::Alternating), SaKind::Nssa, 8);
        let unbal = compile_workload(Workload::new(activation, ReadSequence::AllZeros), SaKind::Nssa, 8);
        let d = |cw, dev| device_duty(&m, &cw, dev);
        prop_assert!((d(bal, SaDevice::Mdown) - d(bal, SaDevice::MdownBar)).abs() < 1e-12);
        prop_assert!(d(unbal, SaDevice::Mdown) > d(unbal, SaDevice::MdownBar));
    }

    #[test]
    fn occupancy_bounded_and_monotone(
        log_tau_c in -2.0f64..14.0,
        offset in -1.0f64..2.0,
        duty in 0.0f64..1.0,
        t1 in 1.0f64..1e6,
        factor in 1.1f64..1e3,
    ) {
        let params = BtiParams::default_45nm();
        let trap = Trap { log10_tau_c: log_tau_c, log10_tau_e: log_tau_c + offset, impact: 1e-3 };
        let stress = StressCondition::new(duty, 1.0, 25.0);
        let p1 = params.occupancy(&trap, &stress, t1);
        let p2 = params.occupancy(&trap, &stress, t1 * factor);
        prop_assert!((0.0..=1.0).contains(&p1));
        prop_assert!((0.0..=1.0).contains(&p2));
        prop_assert!(p2 >= p1 - 1e-15, "occupancy must not decrease in time");
    }

    #[test]
    fn aging_monotone_in_duty(
        duty_lo in 0.0f64..0.5,
        duty_gap in 0.01f64..0.5,
        log_tau_c in 0.0f64..10.0,
    ) {
        let params = BtiParams::default_45nm();
        let trap = Trap { log10_tau_c: log_tau_c, log10_tau_e: log_tau_c + 0.5, impact: 1e-3 };
        let lo = params.occupancy(&trap, &StressCondition::new(duty_lo, 1.0, 25.0), 1e8);
        let hi = params.occupancy(&trap, &StressCondition::new(duty_lo + duty_gap, 1.0, 25.0), 1e8);
        prop_assert!(hi >= lo);
    }

    #[test]
    fn counter_tracks_modular_arithmetic(width in 1u8..16, ticks in 0u64..5000) {
        let mut c = RippleCounter::new(width);
        for _ in 0..ticks {
            c.tick();
        }
        prop_assert_eq!(c.value(), ticks % (1u64 << width));
        prop_assert_eq!(c.msb(), (ticks >> (width - 1)) & 1 == 1);
    }

    #[test]
    fn control_correction_is_involutive(reads in 0u64..2000, value in proptest::bool::ANY) {
        let mut ctl = IssaControl::new(8);
        for _ in 0..reads {
            ctl.on_read();
        }
        let sensed = ctl.internal_value(value);
        prop_assert_eq!(ctl.correct_output(sensed), value);
    }

    #[test]
    fn trap_sampling_is_seed_deterministic(seed in proptest::num::u64::ANY) {
        use issa::num::rng::SeedSequence;
        let params = BtiParams::default_45nm();
        let area = 1e-14;
        let a = TrapSet::sample(&params, area, &mut SeedSequence::root(seed).rng());
        let b = TrapSet::sample(&params, area, &mut SeedSequence::root(seed).rng());
        prop_assert_eq!(a, b);
    }
}

/// Tiny RC low-pass (50 base steps): every solve converges trivially, so
/// the only failures are the injected ones.
fn ladder_netlist() -> issa::circuit::Netlist {
    use issa::circuit::{Netlist, Waveform};
    let mut n = Netlist::new();
    let vin = n.node("in");
    let out = n.node("out");
    n.vsource(vin, Netlist::GROUND, Waveform::dc(1.0));
    n.resistor(vin, out, 1e3);
    n.capacitor(out, Netlist::GROUND, 1e-9);
    n
}

fn ladder_params(recovery: issa::circuit::RecoveryPolicy) -> issa::circuit::tran::TranParams {
    issa::circuit::tran::TranParams::new(0.25e-6, 5e-9)
        .record_all()
        .recovery(recovery)
}

proptest! {
    // Each case runs real transients; a reduced case count keeps the
    // block comparable in cost to one integration test.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ladder_halving_depth_is_bounded(depth in 0u32..5, step in 0u64..50) {
        use issa::circuit::faultinject::{FaultKind, FaultPlan, FaultScope};
        use issa::circuit::perf::thread_recovery_attempts;
        use issa::circuit::{tran::transient, RecoveryPolicy};
        use std::sync::Arc;

        let policy = RecoveryPolicy {
            damped_attempts: 0,
            max_dt_halvings: depth,
            gmin_start: 0.0,
            ..RecoveryPolicy::default()
        };
        let n = ladder_netlist();
        let plan = Arc::new(FaultPlan::new().persistent(0, step, FaultKind::NonConvergence));
        let before = thread_recovery_attempts();
        let result = {
            let _scope = FaultScope::enter(plan, 0);
            transient(&n, &ladder_params(policy))
        };
        // A persistent fault defeats every halving level: the recursion
        // must stop after exactly `depth` splits down the first-half
        // spine (plus one abandonment per level), never more.
        prop_assert!(result.is_err());
        prop_assert_eq!(
            thread_recovery_attempts() - before,
            u64::from(2 * depth + 1)
        );
    }

    #[test]
    fn ladder_gmin_accepts_only_fully_relaxed_solutions(
        step in 0u64..50,
        gmin_exp in -4i32..-1,
        decay in 0.05f64..0.5,
    ) {
        use issa::circuit::faultinject::{FaultKind, FaultPlan, FaultScope};
        use issa::circuit::perf::thread_recovery_attempts;
        use issa::circuit::{tran::transient, RecoveryPolicy};
        use std::sync::Arc;

        let policy = RecoveryPolicy {
            damped_attempts: 0,
            max_dt_halvings: 0,
            gmin_start: 10f64.powi(gmin_exp),
            gmin_decay: decay,
            ..RecoveryPolicy::default()
        };
        let n = ladder_netlist();
        let clean = transient(&n, &ladder_params(policy)).unwrap();
        let plan = Arc::new(FaultPlan::new().transient(0, step, FaultKind::NonConvergence));
        let before = thread_recovery_attempts();
        let tr = {
            let _scope = FaultScope::enter(plan, 0);
            transient(&n, &ladder_params(policy)).unwrap()
        };
        prop_assert_eq!(thread_recovery_attempts() - before, 1);
        // Acceptance requires the final gmin = 0 re-solve of the
        // *unmodified* system to converge, so the recovered trace matches
        // the fault-free one to Newton tolerance — for any shunt size or
        // relaxation rate.
        let got = tr.final_value("out").unwrap();
        let want = clean.final_value("out").unwrap();
        prop_assert!((got - want).abs() < 1e-6, "got {}, want {}", got, want);
    }

    #[test]
    fn ladder_counters_are_monotone(steps in 1u64..4) {
        use issa::circuit::faultinject::{FaultKind, FaultPlan, FaultScope};
        use issa::circuit::perf::{snapshot, thread_snapshot};
        use issa::circuit::{tran::transient, RecoveryPolicy};
        use std::sync::Arc;

        let n = ladder_netlist();
        let mut plan = FaultPlan::new();
        for s in 0..steps {
            plan = plan.transient(0, s * 7, FaultKind::NonConvergence);
        }
        let plan = Arc::new(plan);
        // Exact checks read the thread-scoped view: the persistent-fault
        // properties above run concurrently in this binary and exhaust
        // their ladders, which a process-global delta would pick up.
        let mut last = thread_snapshot();
        let mut last_global = snapshot();
        for _ in 0..3 {
            {
                let _scope = FaultScope::enter(plan.clone(), 0);
                transient(&n, &ladder_params(RecoveryPolicy::default())).unwrap();
            }
            // Every run adds exactly `steps` recoveries on this thread,
            // none of them an exhausted ladder, and at least that many
            // globally — the counters never move down.
            let now = thread_snapshot();
            let d = now.delta_since(&last);
            prop_assert_eq!(d.recovery_attempts(), steps);
            prop_assert_eq!(d.recoveries_failed, 0);
            last = now;
            let global_now = snapshot();
            prop_assert!(global_now.delta_since(&last_global).recovery_attempts() >= steps);
            last_global = global_now;
        }
    }
}
