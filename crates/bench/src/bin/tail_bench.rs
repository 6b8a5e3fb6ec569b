//! Tail-estimation benchmark over the Table II corners
//! (`results/BENCH_tail.json` + `results/tail_spec_comparison.csv`).
//!
//! Two runs per corner, both at the same rare failure rate `fr`
//! (default 1e-9):
//!
//! 1. **fixed-sample baseline**: the classic engine at `--baseline-samples`
//!    (default 400) nominal draws. Its spec is the *Gaussian
//!    extrapolation* `offset_spec(mu, sigma, fr)` — no sample lands
//!    anywhere near the 6-sigma tail, so the corner's failure quantile is
//!    never observed, only extrapolated from the bulk fit.
//! 2. **tail mode**: importance-sampled, adaptively stopped estimation
//!    ([`issa_core::tail::run_tail_mc`]) with a `--samples` pilot
//!    (default 400 — the proposal direction comes from an OLS fit over a
//!    ~dozen regressors, and a skimpy pilot's angular error inflates the
//!    unexplained variance that tail ESS pays for exponentially). Its
//!    spec is the *directly estimated* weighted `(1 - fr)` quantile with
//!    a delta-method 95 % CI.
//!
//! The headline `solve_savings_at_ci_target` compares the tail-mode
//! transient count against the *plain-MC equivalent*: the number of
//! nominal samples a direct (unweighted) quantile estimate would need to
//! reach the same relative CI half-width at the same `fr`,
//!
//! ```text
//! n_eq = z95^2 * fr * (1 - fr) / (phi(z_q) * z_q * delta)^2,
//! z_q = inv_norm_cdf(1 - fr)
//! ```
//!
//! (delta-method variance of an order statistic of a normal sample,
//! expressed as a relative half-width on the quantile *value*). The
//! fixed-baseline transients are also measured and reported verbatim —
//! tail mode usually spends *more* transients than 400 fixed samples; the
//! claim is that it buys a bounded direct estimate that fixed-N plain MC
//! cannot produce at any practical N.
//!
//! ```sh
//! cargo run --release -p issa-bench --bin tail_bench -- \
//!     [--samples N] [--baseline-samples N] [--fr FR] [--ci-target REL] \
//!     [--max-samples N] [--block K] [--batch-lanes L] [--corners C] [--seed S]
//! ```

use issa_bench::{paper, BenchArgs, CornerSpec};
use issa_core::montecarlo::{run_mc, McConfig, McControl, McResult};
use issa_core::tail::{run_tail_mc, TailConfig, TailSummary};
use issa_num::special::{inv_norm_cdf, norm_pdf};
use issa_num::wstats::Z_95;

struct TailBenchArgs {
    /// Pilot size for tail mode (`McConfig::samples`).
    pilot: usize,
    /// Fixed sample count of the classic baseline run.
    baseline_samples: usize,
    /// Target failure rate (tail probability).
    fr: f64,
    /// Relative CI half-width target for the adaptive stopping rule.
    ci_target: f64,
    /// Adaptive-growth ceiling.
    max_samples: usize,
    /// Adaptive block granularity.
    block: usize,
    /// Lockstep lane width for both runs.
    batch_lanes: usize,
    /// Number of Table II corners to run (front of the list).
    corners: usize,
    /// Root seed.
    seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: tail_bench [--samples N] [--baseline-samples N] [--fr FR] [--ci-target REL] \
         [--max-samples N] [--block K] [--batch-lanes L] [--corners C] [--seed S]"
    );
    std::process::exit(2)
}

fn parse_args() -> TailBenchArgs {
    let mut a = TailBenchArgs {
        pilot: 400,
        baseline_samples: 400,
        fr: 1e-9,
        ci_target: 0.15,
        max_samples: 32768,
        block: 256,
        batch_lanes: 8,
        corners: usize::MAX,
        seed: 0x1554_2017,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| {
            it.next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("error: {name} needs a number");
                    usage()
                })
        };
        match arg.as_str() {
            "--samples" => a.pilot = num("--samples") as usize,
            "--baseline-samples" => a.baseline_samples = num("--baseline-samples") as usize,
            "--fr" => a.fr = num("--fr"),
            "--ci-target" => a.ci_target = num("--ci-target"),
            "--max-samples" => a.max_samples = num("--max-samples") as usize,
            "--block" => a.block = num("--block") as usize,
            "--batch-lanes" => a.batch_lanes = num("--batch-lanes") as usize,
            "--corners" => a.corners = num("--corners") as usize,
            "--seed" => a.seed = num("--seed") as u64,
            other => {
                eprintln!("error: unknown argument '{other}'");
                usage()
            }
        }
    }
    if !(a.fr > 0.0 && a.fr < 1.0) || a.ci_target <= 0.0 || a.pilot == 0 || a.block == 0 {
        eprintln!("error: need 0 < --fr < 1, --ci-target > 0, --samples > 0, --block > 0");
        usage()
    }
    a
}

/// Plain-MC sample count for a direct `(1 - fr)` quantile estimate with
/// relative 95 % CI half-width `delta` on a unit-variance normal tail.
fn plain_mc_equivalent_samples(fr: f64, delta: f64) -> f64 {
    let z_q = inv_norm_cdf(1.0 - fr);
    let slope = norm_pdf(z_q) * z_q;
    Z_95 * Z_95 * fr * (1.0 - fr) / (slope * delta * slope * delta)
}

/// One corner's measurements.
struct CornerRun<'a> {
    spec: &'a CornerSpec,
    baseline: McResult,
    baseline_transients: u64,
    tail_result: McResult,
    tail: TailSummary,
    tail_transients: u64,
    /// Plain-MC equivalent sample count at this corner's achieved CI.
    n_eq: f64,
    /// `n_eq / samples_used` — transient-for-transient savings factor.
    savings: f64,
}

fn corner_cfg(args: &TailBenchArgs, spec: &CornerSpec, samples: usize) -> McConfig {
    let base = BenchArgs {
        samples,
        seed: args.seed,
        paper_probes: false,
    };
    let mut cfg = base.config(
        spec.kind,
        issa_core::workload::Workload::new(spec.activation, spec.sequence),
        spec.env,
        spec.time,
    );
    cfg.failure_rate = args.fr;
    cfg.batch_lanes = args.batch_lanes;
    cfg
}

fn run_corner<'a>(args: &TailBenchArgs, spec: &'a CornerSpec) -> CornerRun<'a> {
    // Fixed-sample classic baseline: extrapolated spec.
    let base_cfg = corner_cfg(args, spec, args.baseline_samples);
    let before = issa_circuit::perf::snapshot();
    let baseline =
        run_mc(&base_cfg).unwrap_or_else(|e| issa_bench::exit_mc_failure(spec.label, &e));
    let baseline_transients = issa_circuit::perf::snapshot().transients - before.transients;

    // Tail mode: pilot + adaptive importance-sampled growth.
    let mut tail_cfg = corner_cfg(args, spec, args.pilot);
    tail_cfg.tail = Some(TailConfig {
        ci_rel_target: args.ci_target,
        block_samples: args.block,
        max_samples: args.max_samples,
        ..TailConfig::default()
    });
    let before = issa_circuit::perf::snapshot();
    let tail_result = run_tail_mc(&tail_cfg, &McControl::default())
        .unwrap_or_else(|e| issa_bench::exit_mc_failure(spec.label, &e));
    let tail_transients = issa_circuit::perf::snapshot().transients - before.transients;
    let tail = tail_result.tail.unwrap_or_else(|| {
        eprintln!("error: corner '{}' returned no tail summary", spec.label);
        std::process::exit(1)
    });

    // Credit the achieved CI when it is tighter than the target; fall
    // back to the target when the run stopped on the sample ceiling with
    // an unbounded (NaN) half-width or a degenerate zero-width interval
    // (a zero delta would make the plain-MC equivalent infinite and break
    // the JSON output).
    let delta = if tail.rel_ci_half.is_finite() && tail.rel_ci_half > 0.0 {
        tail.rel_ci_half.min(args.ci_target)
    } else {
        args.ci_target
    };
    let n_eq = plain_mc_equivalent_samples(args.fr, delta);
    let savings = n_eq / tail.samples_used.max(1) as f64;
    CornerRun {
        spec,
        baseline,
        baseline_transients,
        tail_result,
        tail,
        tail_transients,
        n_eq,
        savings,
    }
}

/// `f64` to JSON: non-finite values become `null`.
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = parse_args();
    let corners: Vec<CornerSpec> = paper::table2().into_iter().take(args.corners).collect();
    println!(
        "tail benchmark: {} Table II corner(s), fr={:.1e}, ci-target {}, pilot {}, \
         baseline {} samples, lanes {}",
        corners.len(),
        args.fr,
        args.ci_target,
        args.pilot,
        args.baseline_samples,
        args.batch_lanes,
    );

    let mut runs = Vec::new();
    for spec in &corners {
        let run = run_corner(&args, spec);
        println!(
            "{:<6} {:>6} {:<4} {:>5}  spec extrap {:>7.2} mV | direct {:>7.2} mV \
             [{:>6.2}, {:>6.2}]  rel {:<6}  n {:>5} ({} rounds, conv {})  savings {:.2e}x",
            run.spec.kind.name(),
            run.spec.time_label(),
            run.spec.label,
            run.spec.paper[2],
            run.baseline.spec * 1e3,
            run.tail_result.spec * 1e3,
            run.tail.spec_lo * 1e3,
            run.tail.spec_hi * 1e3,
            jnum(run.tail.rel_ci_half),
            run.tail.samples_used,
            run.tail.rounds,
            run.tail.converged,
            run.savings,
        );
        runs.push(run);
    }

    // --- results/tail_spec_comparison.csv -------------------------------
    let mut csv = String::from(
        "scheme,time,workload,paper_spec_mv,spec_extrapolated_mv,spec_direct_mv,spec_lo_mv,\
         spec_hi_mv,rel_ci_half,tail_shift,tail_ess,samples_tail,rounds,converged,\
         transients_tail,transients_baseline,plain_mc_equivalent_samples,solve_savings\n",
    );
    for r in &runs {
        csv.push_str(&format!(
            "{},{},{},{},{:.4},{:.4},{:.4},{:.4},{},{:.4},{:.2},{},{},{},{},{},{:.3e},{:.3e}\n",
            r.spec.kind.name(),
            r.spec.time_label(),
            r.spec.label,
            r.spec.paper[2],
            r.baseline.spec * 1e3,
            r.tail_result.spec * 1e3,
            r.tail.spec_lo * 1e3,
            r.tail.spec_hi * 1e3,
            jnum(r.tail.rel_ci_half),
            r.tail.shift,
            r.tail.tail_ess,
            r.tail.samples_used,
            r.tail.rounds,
            u8::from(r.tail.converged),
            r.tail_transients,
            r.baseline_transients,
            r.n_eq,
            r.savings,
        ));
    }

    // --- results/BENCH_tail.json ----------------------------------------
    let min_savings = runs.iter().map(|r| r.savings).fold(f64::INFINITY, f64::min);
    let all_converged = runs.iter().all(|r| r.tail.converged);
    // The gate matches the headline claim: every corner resolves its
    // fr-quantile to the requested relative CI half-width, at >= 10x
    // fewer solves than the plain-MC equivalent. `converged` is stricter
    // (it also demands the tail-ESS floor *at the moment the driver
    // stopped*) and is reported per corner rather than gated: the worst
    // aged corners hover at the floor, so which run crosses it is
    // seed-path dependent even when the CI target is met with room.
    let all_within_ci = runs
        .iter()
        .all(|r| r.tail.rel_ci_half.is_finite() && r.tail.rel_ci_half <= args.ci_target);
    let total_tail: u64 = runs.iter().map(|r| r.tail_transients).sum();
    let total_base: u64 = runs.iter().map(|r| r.baseline_transients).sum();
    let savings_ok = min_savings >= 10.0 && all_within_ci;
    let corner_json: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"scheme\": \"{}\", \"time\": \"{}\", \"workload\": \"{}\", ",
                    "\"baseline\": {{\"samples\": {}, \"transients\": {}, ",
                    "\"spec_extrapolated_mv\": {}}}, ",
                    "\"tail\": {{\"samples_used\": {}, \"transients\": {}, \"rounds\": {}, ",
                    "\"converged\": {}, \"shift\": {}, \"ess\": {}, \"tail_ess\": {}, ",
                    "\"spec_direct_mv\": {}, \"spec_lo_mv\": {}, \"spec_hi_mv\": {}, ",
                    "\"rel_ci_half\": {}}}, ",
                    "\"plain_mc_equivalent_samples\": {}, \"solve_savings_at_ci_target\": {}}}"
                ),
                r.spec.kind.name(),
                r.spec.time_label(),
                r.spec.label,
                args.baseline_samples,
                r.baseline_transients,
                jnum(r.baseline.spec * 1e3),
                r.tail.samples_used,
                r.tail_transients,
                r.tail.rounds,
                r.tail.converged,
                jnum(r.tail.shift),
                jnum(r.tail.ess),
                jnum(r.tail.tail_ess),
                jnum(r.tail_result.spec * 1e3),
                jnum(r.tail.spec_lo * 1e3),
                jnum(r.tail.spec_hi * 1e3),
                jnum(r.tail.rel_ci_half),
                format!("{:.3e}", r.n_eq),
                format!("{:.3e}", r.savings),
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"table2_tail_estimation\",\n",
            "  \"fr\": {:e},\n",
            "  \"ci_rel_target\": {},\n",
            "  \"pilot_samples\": {},\n",
            "  \"baseline_samples\": {},\n",
            "  \"batch_lanes\": {},\n",
            "  \"seed\": {},\n",
            "  \"savings_ok\": {},\n",
            "  \"min_solve_savings_at_ci_target\": {},\n",
            "  \"all_within_ci_target\": {},\n",
            "  \"all_converged\": {},\n",
            "  \"total_tail_transients\": {},\n",
            "  \"total_baseline_transients\": {},\n",
            "  \"tail_vs_baseline_transient_ratio\": {},\n",
            "  \"note\": \"solve_savings_at_ci_target = plain-MC-equivalent samples for a direct \
             (1-fr) quantile estimate at the achieved CI half-width, divided by the weighted \
             samples tail mode actually solved. The fixed-sample baseline's spec is a Gaussian \
             extrapolation — it never observes the tail, so its transient count buys no direct \
             estimate at any N; its measured transients are reported verbatim for scale \
             (tail_vs_baseline_transient_ratio is tail mode's multiple of them; each corner's \
             solve_savings_at_ci_target is its saving against direct plain MC).\",\n",
            "  \"corners\": [\n{}\n  ]\n",
            "}}\n"
        ),
        args.fr,
        args.ci_target,
        args.pilot,
        args.baseline_samples,
        args.batch_lanes,
        args.seed,
        savings_ok,
        format!("{min_savings:.3e}"),
        all_within_ci,
        all_converged,
        total_tail,
        total_base,
        jnum(total_tail as f64 / total_base.max(1) as f64),
        corner_json.join(",\n"),
    );

    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    std::fs::write(dir.join("tail_spec_comparison.csv"), csv)
        .expect("write tail_spec_comparison.csv");
    std::fs::write(dir.join("BENCH_tail.json"), json).expect("write BENCH_tail.json");
    println!(
        "\nmin savings {min_savings:.3e}x (>=10 required), all within CI target: \
         {all_within_ci}, all converged: {all_converged}, savings_ok: {savings_ok}"
    );
    println!("wrote results/BENCH_tail.json, results/tail_spec_comparison.csv");
    if !savings_ok {
        eprintln!("error: tail benchmark missed the savings/convergence gate");
        std::process::exit(1);
    }
}
