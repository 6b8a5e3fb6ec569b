//! Metric names, units, and the per-layer readouts several workloads
//! share.

use crate::common::{median, Ctx, Report, LANES};
use issa_circuit::PerfSnapshot;
use issa_core::checkpoint::{Checkpoint, SavePolicy};
use std::path::Path;

/// End-to-end metrics, emitted by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("hit_p50_ms", "ms"),
    ("hit_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("success_frac", "1"),
    ("delay_err_ps", "ps"),
];

/// Per-layer metrics, emitted by every traced run. A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("circuit.transients", "count"),
    ("circuit.newton_iterations", "count"),
    ("circuit.newton_per_transient", "1"),
    ("circuit.core_us_per_newton", "us"),
    ("circuit.recovery_attempts", "count"),
    ("batch.occupancy", "1"),
    ("batch.steps", "count"),
    ("batch.scalar_fallbacks", "count"),
    ("probe.sense_calls", "count"),
    ("probe.transients_per_offset_sample", "1"),
    ("montecarlo.offset_s", "s"),
    ("montecarlo.delay_s", "s"),
    ("montecarlo.samples_per_core_s", "1/s"),
    ("montecarlo.shard_idle_frac", "1"),
    ("aging.build_sample_share", "1"),
    ("tail.samples_used", "count"),
    ("tail.rounds", "count"),
    ("tail.min_tail_ess", "1"),
    ("tail.fit_ms", "ms"),
    ("tail.converged_frac", "1"),
    ("campaign.self_s", "s"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("dist.units", "count"),
    ("dist.samples_per_unit", "1"),
    ("dist.wasted_units", "count"),
    ("dist.worker_imbalance", "1"),
    ("dist.worker_busy_frac", "1"),
    ("dist.handshake_ms", "ms"),
    ("service.submit_rtt_ms", "ms"),
    ("service.fetch_rtt_ms", "ms"),
    ("service.cache_hits", "count"),
    ("service.cache_hit_frac", "1"),
    ("service.journal_bytes_per_submit", "B"),
    ("service.cache_lookup_ms", "ms"),
    ("accuracy.spec_err_mv", "mV"),
    ("check.reference_count_diffs", "count"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Circuit and batch counters of the traced rounds. `compute_s` is the
/// wall time of the sample phases and `threads` the threads computing in
/// them, so `core_us_per_newton` is CPU-side cost per Newton iteration.
pub fn circuit(rep: &mut Report, perf: &PerfSnapshot, compute_s: f64, threads: usize) {
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    rep.layer("circuit.transients", perf.transients as f64, "count");
    rep.layer(
        "circuit.newton_iterations",
        perf.newton_iterations as f64,
        "count",
    );
    rep.layer(
        "circuit.newton_per_transient",
        per(perf.newton_iterations, perf.transients),
        "1",
    );
    rep.layer(
        "circuit.core_us_per_newton",
        compute_s * threads as f64 * 1e6 / perf.newton_iterations.max(1) as f64,
        "us",
    );
    rep.layer(
        "circuit.recovery_attempts",
        perf.recovery_attempts() as f64,
        "count",
    );
    rep.layer(
        "batch.occupancy",
        per(perf.batch_lane_steps, perf.batched_steps * LANES as u64),
        "1",
    );
    rep.layer("batch.steps", perf.batched_steps as f64, "count");
    rep.layer(
        "batch.scalar_fallbacks",
        perf.scalar_fallbacks as f64,
        "count",
    );
}

/// The adaptive tail loop does no work on this workload.
pub fn no_tail(rep: &mut Report) {
    for (name, unit) in [
        ("tail.samples_used", "count"),
        ("tail.rounds", "count"),
        ("tail.min_tail_ess", "1"),
        ("tail.fit_ms", "ms"),
        ("tail.converged_frac", "1"),
    ] {
        rep.layer(name, 0.0, unit);
    }
}

/// The coordinator and workers do no work on this workload.
pub fn no_dist(rep: &mut Report) {
    for (name, unit) in [
        ("dist.units", "count"),
        ("dist.samples_per_unit", "1"),
        ("dist.wasted_units", "count"),
        ("dist.worker_imbalance", "1"),
        ("dist.worker_busy_frac", "1"),
        ("dist.handshake_ms", "ms"),
    ] {
        rep.layer(name, 0.0, unit);
    }
}

/// The campaign service does no work on this workload.
pub fn no_service(rep: &mut Report) {
    for (name, unit) in [
        ("service.submit_rtt_ms", "ms"),
        ("service.fetch_rtt_ms", "ms"),
        ("service.cache_hits", "count"),
        ("service.cache_hit_frac", "1"),
        ("service.journal_bytes_per_submit", "B"),
        ("service.cache_lookup_ms", "ms"),
    ] {
        rep.layer(name, 0.0, unit);
    }
}

/// The Monte Carlo engine's own loop does no work on this workload.
pub fn no_montecarlo(rep: &mut Report) {
    for (name, unit) in [
        ("montecarlo.offset_s", "s"),
        ("montecarlo.delay_s", "s"),
        ("montecarlo.samples_per_core_s", "1/s"),
        ("montecarlo.shard_idle_frac", "1"),
    ] {
        rep.layer(name, 0.0, unit);
    }
}

/// Traced rounds against untraced rounds of the same run.
pub fn overhead(rep: &mut Report, traced: &[f64], untraced: &[f64]) {
    let (t, u) = (median(traced), median(untraced));
    rep.layer("trace.traced_wall_s", t, "s");
    rep.layer("trace.untraced_wall_s", u, "s");
    rep.layer("trace.overhead_s", t - u, "s");
}

/// Median times of `Checkpoint::load` of `image` and of
/// `Checkpoint::save_with` of the loaded image to `scratch`.
pub fn checkpoint_io(ctx: &Ctx, image: &Path, scratch: &Path) -> (f64, f64) {
    let (mut saves, mut loads) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (loaded, t) = ctx
            .tracer
            .span("checkpoint.load", "layer", || Checkpoint::load(image));
        loads.push(t * 1e3);
        let Ok(ckpt) = loaded else {
            return (f64::NAN, f64::NAN);
        };
        let (_, t) = ctx.tracer.span("checkpoint.save", "layer", || {
            ckpt.save_with(scratch, &SavePolicy::standard())
        });
        saves.push(t * 1e3);
    }
    let _ = std::fs::remove_file(scratch);
    (median(&saves), median(&loads))
}
