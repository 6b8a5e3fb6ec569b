//! The layer pass of a traced run: the benchmark calls the Monte Carlo
//! engine's public functions directly, corner by corner, on a campaign it
//! already computed through the workload's entry point, and times the
//! calls the engine makes internally (`build_sample`, `resolve_proposal`).
//! The recomputed results must equal the campaign's bit for bit, and the
//! recomputed work counts must repeat the campaign's exactly.

use crate::common::{cpu_seconds, median, result_digest, Counts, Ctx};
use issa_circuit::perf::snapshot;
use issa_core::campaign::CampaignCorner;
use issa_core::montecarlo::{build_sample, run_mc_controlled, McControl};
use issa_core::tail::{resolve_proposal, run_tail_mc};
use std::hint::black_box;

pub struct LayerPass {
    /// Share of thread time the sample shards spent idle:
    /// 1 − process CPU / (threads × wall).
    pub shard_idle_frac: f64,
    /// Time spent building aged sample instances over CPU time spent
    /// computing the corners.
    pub build_sample_share: f64,
    /// Median time of one `resolve_proposal` fit (tail corners only).
    pub fit_ms: f64,
    /// Wall time of the offset and delay phases over all corners (a tail
    /// corner's pilot and rounds count as offset phase).
    pub offset_s: f64,
    pub delay_s: f64,
    pub problems: Vec<String>,
}

/// Recomputes `corners` and compares with the campaign's `digests` (one
/// per corner) and its work `counts`.
pub fn run(ctx: &Ctx, corners: &[CampaignCorner], digests: &[u64], counts: &Counts) -> LayerPass {
    let mut problems = Vec::new();
    let (mut thread_s, mut cpu_s, mut build_s) = (0.0, 0.0, 0.0);
    let (mut offset_s, mut delay_s) = (0.0, 0.0);
    let mut fits = Vec::new();
    let before = snapshot();
    let sense_before = issa_core::perf::sense_calls();
    for (corner, want) in corners.iter().zip(digests) {
        let cfg = &corner.cfg;
        let cpu0 = cpu_seconds("self");
        let (result, wall) = ctx.tracer.span("layer.corner", &corner.name, || {
            if cfg.tail.is_some() {
                run_tail_mc(cfg, &McControl::default())
            } else {
                run_mc_controlled(cfg, &McControl::default())
            }
        });
        cpu_s += cpu_seconds("self") - cpu0;
        thread_s += wall * cfg.threads.max(1) as f64;
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("layer pass: corner {} failed: {e}", corner.name));
                continue;
            }
        };
        delay_s += result.perf.delay_wall_s;
        offset_s += wall - result.perf.delay_wall_s;
        if result_digest(&result) != *want {
            problems.push(format!(
                "layer pass: corner {} differs from the campaign's result",
                corner.name
            ));
        }
        let built = result.offsets.len();
        let (_, b) = ctx.tracer.span("layer.build_sample", &corner.name, || {
            for i in 0..built {
                black_box(build_sample(cfg, i));
            }
        });
        build_s += b;
        if let Some(tail) = &result.tail {
            let pilot: Vec<(usize, f64)> = result.offsets[..tail.pilot.min(built)]
                .iter()
                .copied()
                .enumerate()
                .collect();
            for _ in 0..5 {
                let (_, t) = ctx.tracer.span("layer.resolve_proposal", &corner.name, || {
                    black_box(resolve_proposal(cfg, &pilot))
                });
                fits.push(t * 1e3);
            }
        }
    }
    let circuit = snapshot().delta_since(&before);
    let sense_calls = issa_core::perf::sense_calls() - sense_before;
    for (name, got) in [
        ("circuit.transients", circuit.transients),
        ("circuit.newton_iterations", circuit.newton_iterations),
        ("probe.sense_calls", sense_calls),
    ] {
        if counts.get(name) != Some(&got) {
            problems.push(format!(
                "layer pass: {name} = {got}, the campaign counted {:?}",
                counts.get(name)
            ));
        }
    }
    LayerPass {
        shard_idle_frac: (1.0 - cpu_s / thread_s).max(0.0),
        build_sample_share: build_s / cpu_s,
        fit_ms: if fits.is_empty() { 0.0 } else { median(&fits) },
        offset_s,
        delay_s,
        problems,
    }
}
