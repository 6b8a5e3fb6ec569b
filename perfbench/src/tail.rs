//! `tail_1e9`: local checkpointed campaigns in tail mode — the adaptive
//! importance-sampled estimate of the offset spec at fr = 1e-9 — over
//! three Table II corners, batched on two threads.
//!
//! A repeat request here is `run_campaign` on the kept checkpoint of a
//! finished campaign: every record restored, the weighted statistics
//! reassembled, the result equal to the original bit for bit.

use crate::common::{
    accuracy, campaign_digest, campaign_seed, completed_results, corrupt_digest, cpu_seconds,
    file_len, hit_percentiles, mean, median, result_digest, tail_campaign, Accuracy, Counts, Ctx,
    Report,
};
use crate::verify::{check_records, record};
use crate::{layer, metrics};
use issa_circuit::cancel::{CancelCause, CancelToken};
use issa_circuit::perf::snapshot;
use issa_core::campaign::{run_campaign, CampaignCorner, CampaignOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Engine bring-ups timed for `setup_s` before each fresh campaign, so
/// their median samples the whole run (each takes tens of microseconds).
const SETUPS_PER_ROUND: usize = 34;
/// Repeat requests after each fresh campaign.
const HITS_PER_ROUND: usize = 50;
/// Fresh campaigns every run computes, however long it takes. Accuracy
/// metrics are taken over exactly these, so they depend on the seed alone.
const MIN_ROUNDS: usize = 3;
/// Repeat requests a run must make at least.
const MIN_HITS: usize = 100;

fn options(ckpt: &Path) -> CampaignOptions {
    CampaignOptions {
        checkpoint: Some(ckpt.to_path_buf()),
        keep_checkpoint: true,
        ..CampaignOptions::default()
    }
}

/// Corner build plus the engine's start-up on a fresh checkpoint path:
/// a campaign cancelled before its first sample.
fn setup_once(ctx: &Ctx, path: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_file(path);
    let t = Instant::now();
    let (corners, _) = tail_campaign(ctx.seed, ctx.samples);
    let token = CancelToken::new();
    token.cancel(CancelCause::Interrupt);
    let report = run_campaign(
        &corners,
        &CampaignOptions {
            cancel: Some(token),
            ..options(path)
        },
    )
    .map_err(|e| format!("setup: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if !report.partial {
        return Err("a campaign cancelled before it started reported complete".into());
    }
    Ok(secs)
}

struct Fresh {
    corners: Vec<CampaignCorner>,
    digest: String,
    digests: Vec<u64>,
    ckpt: PathBuf,
    wall_s: f64,
    cpu_s: f64,
    acc: Accuracy,
    converged: usize,
    min_tail_ess: f64,
    traced: bool,
    counts: Counts,
}

fn fresh_round(ctx: &Ctx, k: usize, traced: bool) -> Result<Fresh, String> {
    let (corners, paper) = tail_campaign(campaign_seed(ctx.seed, k), ctx.samples);
    let ckpt = ctx.work.join(format!("tail-{k}.ckpt"));
    let perf0 = snapshot();
    let sense0 = issa_core::perf::sense_calls();
    let cpu0 = cpu_seconds("self");
    let (report, wall_s) = ctx
        .tracer
        .span("tail.campaign", &format!("campaign{k}"), || {
            run_campaign(&corners, &options(&ckpt))
        });
    let cpu_s = cpu_seconds("self") - cpu0;
    let perf = snapshot().delta_since(&perf0);
    let report = report.map_err(|e| format!("campaign {k}: {e}"))?;
    let results = completed_results(&report)?;
    let summaries: Vec<_> = results.iter().filter_map(|r| r.tail).collect();
    if summaries.len() != results.len() {
        return Err(format!("campaign {k}: a corner has no tail summary"));
    }
    let mut counts = Counts::new();
    counts.insert("circuit.transients", perf.transients);
    counts.insert("circuit.newton_iterations", perf.newton_iterations);
    counts.insert("probe.sense_calls", issa_core::perf::sense_calls() - sense0);
    counts.insert("batch.steps", perf.batched_steps);
    counts.insert(
        "tail.samples_used",
        summaries.iter().map(|t| t.samples_used as u64).sum(),
    );
    counts.insert(
        "tail.rounds",
        summaries.iter().map(|t| u64::from(t.rounds)).sum(),
    );
    counts.insert("checkpoint.bytes", file_len(&ckpt));
    Ok(Fresh {
        digest: campaign_digest(&results),
        digests: results.iter().map(|r| result_digest(r)).collect(),
        ckpt,
        wall_s,
        cpu_s,
        acc: accuracy(&results, &paper),
        converged: summaries.iter().filter(|t| t.converged).count(),
        min_tail_ess: summaries
            .iter()
            .map(|t| t.tail_ess)
            .fold(f64::INFINITY, f64::min),
        traced,
        counts,
        corners,
    })
}

/// Re-requests a finished campaign from its kept checkpoint; `miss`
/// renames its corners so the checkpoint cannot serve it (the injected
/// fault).
fn repeat(f: &Fresh, scratch: &Path, miss: bool) -> Result<(), String> {
    std::fs::copy(&f.ckpt, scratch).map_err(|e| format!("stage checkpoint: {e}"))?;
    let corners = if miss {
        f.corners
            .iter()
            .map(|c| CampaignCorner {
                name: format!("{}-renamed", c.name),
                cfg: c.cfg.clone(),
            })
            .collect()
    } else {
        f.corners.clone()
    };
    let sense0 = issa_core::perf::sense_calls();
    let report = run_campaign(&corners, &options(scratch)).map_err(|e| e.to_string())?;
    let computed = issa_core::perf::sense_calls() - sense0;
    if computed > 0 || report.resumed_records == 0 {
        return Err(format!("repeat recomputed ({computed} probe transients)"));
    }
    if campaign_digest(&completed_results(&report)?) != f.digest {
        return Err("repeat returned another digest".into());
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    if let Err(e) = drive(ctx, &mut rep) {
        rep.attempted += 1;
        rep.failed += 1;
        rep.problem(format!("tail_1e9: {e}"));
    }
    rep
}

#[allow(clippy::too_many_lines)]
fn drive(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut fresh: Vec<Fresh> = Vec::new();
    let mut hits = Vec::new();
    let mut hit_outcomes = Vec::new();
    let mut traced_perf = issa_circuit::PerfSnapshot::default();
    let mut k = 0usize;
    while k < MIN_ROUNDS || Instant::now() < deadline || hits.len() < MIN_HITS {
        for _ in 0..SETUPS_PER_ROUND {
            setups.push(setup_once(ctx, &ctx.work.join("setup.ckpt"))?);
        }
        let traced = ctx.trace && k % 2 == 1;
        ctx.tracer.set_enabled(traced);
        let perf0 = snapshot();
        let mut f = fresh_round(ctx, k, traced)?;
        if traced {
            traced_perf = traced_perf.saturating_add(&snapshot().delta_since(&perf0));
        }
        if ctx.inject.corrupt_digest && k == 0 {
            f.digest = corrupt_digest(&f.digest);
        }
        fresh.push(f);
        for j in 0..HITS_PER_ROUND {
            let i = (k * HITS_PER_ROUND + j) % fresh.len();
            let (outcome, latency) =
                ctx.tracer.span("tail.repeat", &format!("campaign{i}"), || {
                    let miss = ctx.inject.force_miss && k == 0 && j == 0;
                    repeat(&fresh[i], &ctx.work.join("hit.ckpt"), miss)
                });
            hits.push(latency);
            hit_outcomes.push(outcome.map_err(|e| format!("repeat of campaign {i}: {e}")));
        }
        k += 1;
    }
    ctx.tracer.set_enabled(ctx.trace);

    let records: BTreeMap<usize, _> = fresh
        .iter()
        .enumerate()
        .map(|(k, f)| (k, record(f.digest.clone(), &f.counts)))
        .collect();
    let bad = check_records(ctx, "tail_1e9", &records, rep);
    for k in 0..fresh.len() {
        rep.attempt(if bad.contains(&k) {
            Err(format!("campaign {k} failed the output check"))
        } else {
            Ok(())
        });
    }
    for o in hit_outcomes {
        rep.attempt(o);
    }
    rep.note(format!(
        "tail_1e9: {} fresh campaigns, {} repeat requests",
        fresh.len(),
        hits.len()
    ));

    let corners_run = (MIN_ROUNDS * fresh[0].corners.len()) as f64;
    let walls: Vec<f64> = fresh.iter().map(|f| f.wall_s).collect();
    rep.note(format!("campaign walls (s): {walls:.3?}"));
    let (p50, p90) = hit_percentiles(&hits);
    rep.e2e("setup_s", median(&setups), "s");
    rep.e2e("wall_s", median(&walls), "s");
    rep.e2e("hit_p50_ms", p50, "ms");
    rep.e2e("hit_p90_ms", p90, "ms");
    let first = &fresh[..MIN_ROUNDS];
    rep.e2e(
        "delay_err_ps",
        mean(&first.iter().map(|f| f.acc.delay_err_ps).collect::<Vec<_>>()),
        "ps",
    );
    let spec_err_mv = mean(&first.iter().map(|f| f.acc.spec_err_mv).collect::<Vec<_>>());
    let converged_frac = first.iter().map(|f| f.converged).sum::<usize>() as f64 / corners_run;
    if !ctx.trace {
        return Ok(());
    }
    rep.layer("tail.converged_frac", converged_frac, "1");
    rep.layer("accuracy.spec_err_mv", spec_err_mv, "mV");

    let traced: Vec<&Fresh> = fresh.iter().filter(|f| f.traced).collect();
    let cpu: f64 = traced.iter().map(|f| f.cpu_s).sum();
    metrics::circuit(rep, &traced_perf, cpu, 1);
    let sum = |name: &str| traced.iter().map(|f| f.counts[name]).sum::<u64>() as f64;
    rep.layer("probe.sense_calls", sum("probe.sense_calls"), "count");
    rep.layer(
        "probe.transients_per_offset_sample",
        traced_perf.transients as f64 / sum("tail.samples_used"),
        "1",
    );

    // Layer pass on campaign 0: the same corners through run_tail_mc.
    let pass = layer::run(ctx, &fresh[0].corners, &fresh[0].digests, &fresh[0].counts);
    for p in pass.problems {
        rep.problem(p);
    }
    rep.layer("montecarlo.offset_s", pass.offset_s, "s");
    rep.layer("montecarlo.delay_s", pass.delay_s, "s");
    rep.layer(
        "montecarlo.samples_per_core_s",
        sum("tail.samples_used") / cpu,
        "1/s",
    );
    rep.layer("montecarlo.shard_idle_frac", pass.shard_idle_frac, "1");
    rep.layer("aging.build_sample_share", pass.build_sample_share, "1");
    rep.layer("tail.samples_used", sum("tail.samples_used"), "count");
    rep.layer("tail.rounds", sum("tail.rounds"), "count");
    rep.layer(
        "tail.min_tail_ess",
        traced
            .iter()
            .map(|f| f.min_tail_ess)
            .fold(f64::INFINITY, f64::min),
        "1",
    );
    rep.layer("tail.fit_ms", pass.fit_ms, "ms");
    // The engine's own time: the campaign's wall minus the same corners
    // computed directly.
    rep.layer(
        "campaign.self_s",
        fresh[0].wall_s - pass.offset_s - pass.delay_s,
        "s",
    );
    rep.layer("checkpoint.bytes", file_len(&fresh[0].ckpt) as f64, "B");
    let (save_ms, load_ms) =
        metrics::checkpoint_io(ctx, &fresh[0].ckpt, &ctx.work.join("probe.ckpt"));
    rep.layer("checkpoint.save_ms", save_ms, "ms");
    rep.layer("checkpoint.load_ms", load_ms, "ms");
    metrics::no_dist(rep);
    metrics::no_service(rep);
    let untraced: Vec<f64> = fresh
        .iter()
        .filter(|f| !f.traced)
        .map(|f| f.wall_s)
        .collect();
    let traced_walls: Vec<f64> = traced.iter().map(|f| f.wall_s).collect();
    metrics::overhead(rep, &traced_walls, &untraced);
    Ok(())
}
