//! `dist_table2`: the service workload's Table II campaigns, served by the
//! distributed coordinator to two workers over loopback TCP, each worker
//! one thread on the batched lockstep solver.
//!
//! A repeat request here is a coordinator restarted on a campaign whose
//! every record is already checkpointed: it merges and returns without a
//! worker, and the result must equal the original bit for bit.

use crate::common::{
    accuracy, campaign_digest, campaign_seed, completed_results, corrupt_digest, cpu_seconds,
    file_len, hit_percentiles, mean, median, table2_campaign, Accuracy, Counts, Ctx, PaperRow,
    Report, LANES,
};
use crate::metrics;
use crate::verify::{check_records, record};
use issa_circuit::perf::snapshot;
use issa_core::campaign::CampaignCorner;
use issa_core::checkpoint::{config_fingerprint, Checkpoint, CornerCheckpoint};
use issa_core::montecarlo::{build_sample, McResult, McResume};
use issa_dist::coordinator::{serve_campaign, DistReport, ServeOptions};
use issa_dist::frame::FrameStream;
use issa_dist::proto::{campaign_fingerprint, Msg, PROTO_VERSION};
use issa_dist::worker::{run_worker, WorkerOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Coordinator bring-ups timed for `setup_s` before each fresh campaign,
/// so their median samples the whole run.
const SETUPS_PER_ROUND: usize = 3;
/// Repeat requests after each fresh campaign.
const HITS_PER_ROUND: usize = 15;
/// Fresh campaigns every run computes, however long it takes. Accuracy
/// metrics are taken over exactly these, so they depend on the seed alone.
const MIN_ROUNDS: usize = 6;
/// Repeat requests a run must make at least.
const MIN_HITS: usize = 100;
const WORKERS: usize = 2;

fn campaign(ctx: &Ctx, seed: u64) -> (Vec<CampaignCorner>, Vec<PaperRow>) {
    table2_campaign("table2", seed, ctx.samples, 1, LANES)
}

fn loopback() -> Vec<WorkerOptions> {
    (0..WORKERS)
        .map(|i| WorkerOptions {
            name: format!("loopback-{i}"),
            ..WorkerOptions::default()
        })
        .collect()
}

/// Restarts a coordinator on the checkpoint `image` with `workers`
/// spawned in-process; returns the merged report and the time from bind.
/// A complete image needs no worker.
fn serve_complete(
    corners: &[CampaignCorner],
    image: &Path,
    scratch: &Path,
    workers: Vec<WorkerOptions>,
) -> Result<(DistReport, f64), String> {
    std::fs::copy(image, scratch).map_err(|e| format!("stage checkpoint: {e}"))?;
    let t = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let report = serve_campaign(
        listener,
        corners,
        &ServeOptions {
            checkpoint: Some(scratch.to_path_buf()),
            loopback: workers,
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("serve: {e}"))?;
    Ok((report, t.elapsed().as_secs_f64()))
}

/// The complete checkpoint image of a finished campaign, as the
/// coordinator would have left it had it kept the file.
fn complete_image(corners: &[CampaignCorner], results: &[&McResult]) -> Checkpoint {
    Checkpoint {
        corners: corners
            .iter()
            .zip(results)
            .map(|(c, r)| CornerCheckpoint {
                name: c.name.clone(),
                fingerprint: config_fingerprint(&c.name, &c.cfg),
                resume: McResume {
                    offsets: r.offsets.iter().copied().enumerate().collect(),
                    delays: r.delays.iter().copied().enumerate().collect(),
                    ..McResume::default()
                },
            })
            .collect(),
    }
}

/// A worker the benchmark runs itself, so it can read the thread's CPU.
struct WorkerRun {
    cpu_s: f64,
    outcome: Result<(), String>,
}

/// The benchmark's own worker handshake on a connected stream: `hello`,
/// then `welcome`. The stream is returned open; dropping it hangs up
/// without taking work.
fn handshake(stream: TcpStream, fp: u64) -> Result<FrameStream<TcpStream>, String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut frames = FrameStream::new(stream);
    let hello = Msg::Hello {
        proto: PROTO_VERSION,
        campaign_fp: fp,
        name: "bench-probe".into(),
    };
    frames.send(&hello.to_bytes()).map_err(|e| e.to_string())?;
    match Msg::from_bytes(&frames.recv().map_err(|e| e.to_string())?)? {
        Msg::Welcome { .. } => Ok(frames),
        other => Err(format!("handshake answered {other:?}")),
    }
}

/// Set-up: bind, coordinator start, and both worker handshakes. Both
/// workers are connected before the coordinator starts, so its first
/// accepts find them waiting and its idle poll never enters the timing.
/// A real worker then finishes the one-corner campaign so the
/// coordinator can return.
fn setup_once(corners: &[CampaignCorner]) -> Result<f64, String> {
    let t = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let fp = campaign_fingerprint(corners);
    let probes = (0..WORKERS)
        .map(|_| TcpStream::connect(addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    std::thread::scope(|s| {
        let serve = s.spawn(|| serve_campaign(listener, corners, &ServeOptions::default()));
        // The probes hang up once welcomed: an open connection would hold
        // the coordinator in its shutdown linger.
        let welcomed = probes
            .into_iter()
            .map(|p| handshake(p, fp))
            .collect::<Result<Vec<_>, _>>()
            .map(|_open| t.elapsed().as_secs_f64());
        let finisher = WorkerOptions {
            name: "setup-worker".into(),
            ..WorkerOptions::default()
        };
        let worked = run_worker(addr, corners, &finisher).map_err(|e| format!("worker: {e}"));
        let served = serve.join().expect("coordinator thread panicked");
        let secs = welcomed?;
        worked?;
        completed_results(&served.map_err(|e| format!("serve: {e}"))?.campaign)?;
        Ok(secs)
    })
}

struct Fresh {
    digest: String,
    image: std::path::PathBuf,
    wall_s: f64,
    acc: Accuracy,
    traced: bool,
    counts: Counts,
    report: DistReport,
    workers: Vec<WorkerRun>,
    handshake_s: Option<f64>,
    build_s: f64,
}

/// One fresh distributed campaign.
fn fresh_round(ctx: &Ctx, k: usize, traced: bool) -> Result<Fresh, String> {
    let (corners, paper) = campaign(ctx, campaign_seed(ctx.seed, k));
    let ckpt = ctx.work.join(format!("dist-{k}.ckpt"));
    let root = ctx.tracer.open("dist.campaign", &format!("campaign{k}"));
    let perf0 = snapshot();
    let sense0 = issa_core::perf::sense_calls();
    let t = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let fp = campaign_fingerprint(&corners);
    let (served, workers, handshake_s) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|i| {
                let corners = &corners;
                s.spawn(move || {
                    let cpu0 = cpu_seconds("thread-self");
                    let wt = Instant::now();
                    let opts = WorkerOptions {
                        name: format!("worker-{i}"),
                        ..WorkerOptions::default()
                    };
                    let outcome = run_worker(addr, corners, &opts)
                        .map(|_| ())
                        .map_err(|e| format!("worker-{i}: {e}"));
                    ctx.tracer.record(
                        "dist.worker",
                        &format!("campaign{k}"),
                        root,
                        wt,
                        Instant::now(),
                    );
                    WorkerRun {
                        cpu_s: cpu_seconds("thread-self") - cpu0,
                        outcome,
                    }
                })
            })
            .collect();
        let probe = traced.then(|| {
            s.spawn(move || {
                let t = Instant::now();
                let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                handshake(stream, fp).map(|_| t.elapsed().as_secs_f64())
            })
        });
        let st = Instant::now();
        let served = serve_campaign(
            listener,
            &corners,
            &ServeOptions {
                checkpoint: Some(ckpt.clone()),
                ..ServeOptions::default()
            },
        );
        ctx.tracer.record(
            "dist.serve",
            &format!("campaign{k}"),
            root,
            st,
            Instant::now(),
        );
        let workers: Vec<WorkerRun> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        let handshake_s = probe.and_then(|p| p.join().expect("probe thread panicked").ok());
        (served, workers, handshake_s)
    });
    let wall_s = t.elapsed().as_secs_f64();
    ctx.tracer.close(root);
    let report = served.map_err(|e| format!("serve: {e}"))?;
    for w in &workers {
        w.outcome.clone()?;
    }
    let results = completed_results(&report.campaign)?;
    let image = complete_image(&corners, &results);
    let image_path = ctx.work.join(format!("dist-{k}.done.ckpt"));
    image
        .save(&image_path)
        .map_err(|e| format!("save image: {e}"))?;

    // Workers run in this process, so the global counters over the round
    // are the workers' work (a repeat request computes nothing).
    let perf = snapshot().delta_since(&perf0);
    let mut counts = Counts::new();
    counts.insert("circuit.transients", perf.transients);
    counts.insert("circuit.newton_iterations", perf.newton_iterations);
    counts.insert("probe.sense_calls", issa_core::perf::sense_calls() - sense0);
    counts.insert("batch.steps", perf.batched_steps);
    counts.insert("dist.units", report.workers.iter().map(|w| w.units).sum());
    counts.insert("checkpoint.bytes", file_len(&image_path));

    // The aging model's share: rebuild every sample instance the workers
    // built, and compare with the workers' CPU time.
    let build_s = if traced {
        let (_, b) = ctx
            .tracer
            .span("layer.build_sample", &format!("campaign{k}"), || {
                for (c, r) in corners.iter().zip(&results) {
                    for i in 0..r.offsets.len() {
                        black_box(build_sample(&c.cfg, i));
                    }
                }
            });
        b
    } else {
        0.0
    };
    Ok(Fresh {
        digest: campaign_digest(&results),
        image: image_path,
        wall_s,
        acc: accuracy(&results, &paper),
        traced,
        counts,
        report,
        workers,
        handshake_s,
        build_s,
    })
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    if let Err(e) = drive(ctx, &mut rep) {
        rep.attempted += 1;
        rep.failed += 1;
        rep.problem(format!("dist_table2: {e}"));
    }
    rep
}

#[allow(clippy::too_many_lines)]
fn drive(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let (tiny, _) = table2_campaign("setup", ctx.seed, 2, 1, LANES);
    let mut setups = Vec::new();

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut fresh: Vec<Fresh> = Vec::new();
    let mut hits: Vec<f64> = Vec::new();
    let mut hit_outcomes: Vec<Result<(), String>> = Vec::new();
    let mut traced_perf = issa_circuit::PerfSnapshot::default();
    let mut k = 0usize;
    while k < MIN_ROUNDS || Instant::now() < deadline || hits.len() < MIN_HITS {
        for _ in 0..SETUPS_PER_ROUND {
            setups.push(setup_once(&tiny[..1])?);
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
            let (corners, _) = campaign(ctx, campaign_seed(ctx.seed, i));
            // The injected miss renames the corners, so the image serves
            // none of them and loopback workers must recompute them.
            let (corners, workers) = if ctx.inject.force_miss && k == 0 && j == 0 {
                (renamed(&corners), loopback())
            } else {
                (corners, Vec::new())
            };
            let scratch = ctx.work.join("hit.ckpt");
            let (served, latency) = ctx.tracer.span("dist.repeat", &format!("campaign{i}"), || {
                serve_complete(&corners, &fresh[i].image, &scratch, workers)
            });
            hits.push(latency);
            hit_outcomes.push(served.and_then(|(report, _)| {
                let digest = campaign_digest(&completed_results(&report.campaign)?);
                let computed: u64 = report.workers.iter().map(|w| w.samples).sum();
                if computed > 0 {
                    Err(format!(
                        "repeat of campaign {i} recomputed {computed} samples"
                    ))
                } else if digest != fresh[i].digest {
                    Err(format!("repeat of campaign {i} returned another digest"))
                } else {
                    Ok(())
                }
            }));
        }
        k += 1;
    }
    ctx.tracer.set_enabled(ctx.trace);

    let records: BTreeMap<usize, _> = fresh
        .iter()
        .enumerate()
        .map(|(k, f)| (k, record(f.digest.clone(), &f.counts)))
        .collect();
    let bad = check_records(ctx, "dist_table2", &records, rep);
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
        "dist_table2: {} fresh campaigns, {} repeat requests",
        fresh.len(),
        hits.len()
    ));

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
    if !ctx.trace {
        return Ok(());
    }
    rep.layer("accuracy.spec_err_mv", spec_err_mv, "mV");

    let traced: Vec<&Fresh> = fresh.iter().filter(|f| f.traced).collect();
    let worker_cpu: f64 = traced
        .iter()
        .flat_map(|f| f.workers.iter().map(|w| w.cpu_s))
        .sum();
    let traced_wall: f64 = traced.iter().map(|f| f.wall_s).sum();
    metrics::circuit(rep, &traced_perf, worker_cpu, 1);
    let sense: u64 = traced.iter().map(|f| f.counts["probe.sense_calls"]).sum();
    let offset_samples = (traced.len() * 10 * ctx.samples) as f64;
    rep.layer("probe.sense_calls", sense as f64, "count");
    rep.layer(
        "probe.transients_per_offset_sample",
        traced_perf.transients as f64 / offset_samples,
        "1",
    );
    metrics::no_montecarlo(rep);
    rep.layer(
        "aging.build_sample_share",
        traced.iter().map(|f| f.build_s).sum::<f64>() / worker_cpu,
        "1",
    );
    metrics::no_tail(rep);
    rep.layer("campaign.self_s", 0.0, "s");
    rep.layer("checkpoint.bytes", file_len(&fresh[0].image) as f64, "B");
    let (save_ms, load_ms) =
        metrics::checkpoint_io(ctx, &fresh[0].image, &ctx.work.join("probe.ckpt"));
    rep.layer("checkpoint.save_ms", save_ms, "ms");
    rep.layer("checkpoint.load_ms", load_ms, "ms");

    let mut units = 0u64;
    let mut samples = 0u64;
    let mut wasted = 0u64;
    let mut imbalance = Vec::new();
    for f in &traced {
        let bench_workers: Vec<u64> = f
            .report
            .workers
            .iter()
            .filter(|w| w.name.starts_with("worker-"))
            .map(|w| w.samples)
            .collect();
        units += f.report.workers.iter().map(|w| w.units).sum::<u64>();
        samples += bench_workers.iter().sum::<u64>();
        let s = &f.report.sched;
        wasted += s.retries + s.duplicates + s.speculated;
        let per: Vec<f64> = bench_workers.iter().map(|&s| s as f64).collect();
        imbalance.push(per.iter().copied().fold(0.0, f64::max) / mean(&per));
    }
    rep.layer("dist.units", units as f64, "count");
    rep.layer(
        "dist.samples_per_unit",
        samples as f64 / units.max(1) as f64,
        "1",
    );
    rep.layer("dist.wasted_units", wasted as f64, "count");
    rep.layer("dist.worker_imbalance", mean(&imbalance), "1");
    rep.layer(
        "dist.worker_busy_frac",
        worker_cpu / (WORKERS as f64 * traced_wall),
        "1",
    );
    let handshakes: Vec<f64> = traced.iter().filter_map(|f| f.handshake_s).collect();
    if handshakes.len() < traced.len() {
        rep.note("dist_table2: a probe handshake was refused".into());
    }
    rep.layer("dist.handshake_ms", median(&handshakes) * 1e3, "ms");
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

/// The same campaign under other corner names: a different fingerprint,
/// so the stored image does not match it.
fn renamed(corners: &[CampaignCorner]) -> Vec<CampaignCorner> {
    corners
        .iter()
        .map(|c| CampaignCorner {
            name: format!("{}-renamed", c.name),
            cfg: c.cfg.clone(),
        })
        .collect()
}
