//! `service_table2`: Table II campaigns submitted to an in-process
//! campaign service over its JSON control plane, one connection per verb.
//!
//! Fresh campaigns (distinct seeds, scalar path, one thread) run one at a
//! time. While each computes, a second client resubmits campaigns that
//! already completed; every one of those must come back as a cache hit
//! carrying the original digest.

use crate::common::{
    accuracy, campaign_digest, campaign_seed, completed_results, corrupt_digest, file_len,
    hit_percentiles, mean, median, result_digest, table2_campaign, Accuracy, Counts, Ctx, PaperRow,
    Report,
};
use crate::verify::{check_records, record};
use crate::{layer, metrics};
use issa_circuit::perf::snapshot;
use issa_core::campaign::{CampaignCorner, CampaignReport};
use issa_dist::cache::{CacheLookup, ResultCache};
use issa_dist::control::{parse, ControlRequest, Json, LineReader, NextLine};
use issa_dist::service::{run_service, ServiceHost, ServiceOptions, SubmissionInfo};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Service incarnations timed for `setup_s` before each fresh campaign,
/// so their median samples the whole run.
const SETUPS_PER_ROUND: usize = 3;
/// Fresh campaigns every run computes, however long it takes. Accuracy
/// metrics are taken over exactly these, so they depend on the seed alone.
const MIN_ROUNDS: usize = 6;
/// Duplicate submissions a run must make at least.
const MIN_HITS: usize = 100;
/// Pause between `fetch` polls.
const POLL: Duration = Duration::from_millis(10);

/// What the host saw when a campaign completed.
struct Completion {
    at: Instant,
    digests: Vec<u64>,
    acc: Accuracy,
    offset_s: f64,
    delay_s: f64,
    counts: Counts,
}

/// The benchmark's service host: params `{seed, samples[, prefix]}` map
/// to one Table II campaign; completion writes the digest artifact the
/// client verifies.
struct Host {
    done: Mutex<HashMap<String, Completion>>,
}

fn campaign_of(params: &Json) -> Result<(Vec<CampaignCorner>, Vec<PaperRow>), String> {
    let seed = params
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("params need an integer 'seed'")?;
    let samples = params
        .get("samples")
        .and_then(Json::as_usize)
        .ok_or("params need an integer 'samples'")?;
    let prefix = params
        .get("prefix")
        .and_then(Json::as_str)
        .unwrap_or("table2");
    Ok(table2_campaign(prefix, seed, samples, 1, 0))
}

impl ServiceHost for Host {
    fn corners(&self, params: &Json) -> Result<Vec<CampaignCorner>, String> {
        campaign_of(params).map(|(corners, _)| corners)
    }

    fn completed(&self, info: &SubmissionInfo, report: &CampaignReport) -> Vec<String> {
        let at = Instant::now();
        let body = match completed_results(report) {
            Ok(results) => {
                let paper = campaign_of(&info.params)
                    .map(|(_, s)| s)
                    .unwrap_or_default();
                let sum = |f: &dyn Fn(&issa_core::montecarlo::McResult) -> u64| {
                    results.iter().map(|r| f(r)).sum::<u64>()
                };
                let mut counts = Counts::new();
                counts.insert("circuit.transients", sum(&|r| r.perf.circuit.transients));
                counts.insert(
                    "circuit.newton_iterations",
                    sum(&|r| r.perf.circuit.newton_iterations),
                );
                counts.insert("probe.sense_calls", sum(&|r| r.perf.probes));
                counts.insert("batch.steps", sum(&|r| r.perf.circuit.batched_steps));
                self.done.lock().expect("host lock").insert(
                    info.id.clone(),
                    Completion {
                        at,
                        digests: results.iter().map(|r| result_digest(r)).collect(),
                        acc: accuracy(&results, &paper),
                        offset_s: results.iter().map(|r| r.perf.offset_wall_s).sum(),
                        delay_s: results.iter().map(|r| r.perf.delay_wall_s).sum(),
                        counts,
                    },
                );
                campaign_digest(&results)
            }
            Err(why) => format!("incomplete: {why}"),
        };
        match std::fs::write(info.results_dir.join("digest.txt"), body) {
            Ok(()) => vec!["digest.txt".to_owned()],
            Err(_) => Vec::new(),
        }
    }
}

fn options(dir: &Path) -> ServiceOptions {
    ServiceOptions {
        dir: dir.to_path_buf(),
        ..ServiceOptions::default()
    }
}

/// One control-plane round trip on a fresh connection.
fn roundtrip(addr: SocketAddr, req: &ControlRequest) -> Result<Json, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    send_and_read(stream, req)
}

fn send_and_read(mut stream: TcpStream, req: &ControlRequest) -> Result<Json, String> {
    stream
        .set_read_timeout(Some(Duration::from_millis(250)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{}\n", req.to_line()).as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = LineReader::new(stream);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match reader.next_line().map_err(|e| format!("recv: {e}"))? {
            NextLine::Line(bytes) => {
                let text = String::from_utf8(bytes).map_err(|_| "non-UTF-8 reply")?;
                let reply = parse(&text).map_err(|e| format!("bad reply: {e}"))?;
                return if reply.get("ok").and_then(Json::as_bool) == Some(true) {
                    Ok(reply)
                } else {
                    Err(format!("refused: {text}"))
                };
            }
            NextLine::Idle if Instant::now() < deadline => {}
            NextLine::Idle => return Err("no reply within 60 s".into()),
            NextLine::TooLong | NextLine::Eof => return Err("connection closed".into()),
        }
    }
}

/// Starts a service in `dir`; returns it once `health` has answered,
/// with the time that took.
fn start(
    dir: &Path,
    host: Arc<Host>,
) -> Result<(SocketAddr, std::thread::JoinHandle<()>, f64), String> {
    let t0 = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Connected before the service starts, so the first accept finds the
    // request waiting and the acceptor's idle sleep never enters set-up.
    let client = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let opts = options(dir);
    let handle = std::thread::spawn(move || {
        if let Err(e) = run_service(listener, host, &opts) {
            eprintln!("service stopped with an error: {e}");
        }
    });
    send_and_read(client, &ControlRequest::Health)?;
    Ok((addr, handle, t0.elapsed().as_secs_f64()))
}

fn stop(addr: SocketAddr, handle: std::thread::JoinHandle<()>) -> Result<(), String> {
    roundtrip(addr, &ControlRequest::Shutdown)?;
    handle
        .join()
        .map_err(|_| "service thread panicked".to_owned())
}

/// Submit-to-verified for one request. Returns the digest artifact, the
/// `cache_hit` flag, and the submit and fetch round-trip times.
struct Outcome {
    id: String,
    fingerprint: u64,
    digest: String,
    cache_hit: bool,
    submit_rtt: f64,
    fetch_rtts: Vec<f64>,
    acked: Instant,
}

fn submit_and_wait(
    ctx: &Ctx,
    addr: SocketAddr,
    params: Json,
    span: &'static str,
) -> Result<Outcome, String> {
    let root = ctx.tracer.open(span, "pending");
    let t = Instant::now();
    let reply = roundtrip(
        addr,
        &ControlRequest::Submit {
            tenant: "bench".into(),
            params,
            crash_after: None,
            crash_attempts: 0,
        },
    )?;
    let acked = Instant::now();
    let id = reply
        .get("id")
        .and_then(Json::as_str)
        .ok_or("no id")?
        .to_owned();
    let fingerprint = reply
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("no fingerprint")?;
    ctx.tracer.record("service.submit", &id, root, t, acked);
    let mut fetch_rtts = Vec::new();
    let reply = loop {
        let t = Instant::now();
        let reply = roundtrip(addr, &ControlRequest::Fetch { id: id.clone() })?;
        let now = Instant::now();
        ctx.tracer.record("service.fetch", &id, root, t, now);
        fetch_rtts.push(now.duration_since(t).as_secs_f64());
        if reply.get("done").and_then(Json::as_bool) == Some(true) {
            break reply;
        }
        std::thread::sleep(POLL);
    };
    let state = reply.get("state").and_then(Json::as_str).unwrap_or("?");
    if state != "completed" {
        return Err(format!("{id} ended {state}"));
    }
    let dir = reply
        .get("results_dir")
        .and_then(Json::as_str)
        .ok_or("no results_dir")?;
    let digest = std::fs::read_to_string(PathBuf::from(dir).join("digest.txt"))
        .map_err(|e| format!("{id}: digest artifact unreadable: {e}"))?;
    ctx.tracer.close(root);
    Ok(Outcome {
        id,
        fingerprint,
        digest,
        cache_hit: reply.get("cache_hit").and_then(Json::as_bool) == Some(true),
        submit_rtt: acked.duration_since(t).as_secs_f64(),
        fetch_rtts,
        acked,
    })
}

fn params(seed: u64, samples: usize, prefix: Option<&str>) -> Json {
    let mut members = vec![
        ("seed".to_owned(), Json::num_u64(seed)),
        ("samples".to_owned(), Json::num_usize(samples)),
    ];
    if let Some(p) = prefix {
        members.push(("prefix".to_owned(), Json::str(p)));
    }
    Json::Obj(members)
}

/// One fresh campaign the run computed.
struct Fresh {
    seed: u64,
    id: String,
    fingerprint: u64,
    digest: String,
    wall_s: f64,
    traced: bool,
    /// When the service acknowledged the submission.
    acked: Instant,
}

/// Results of the duplicate client.
#[derive(Default)]
struct Dups {
    latencies: Vec<f64>,
    submit_rtts: Vec<f64>,
    fetch_rtts: Vec<f64>,
    outcomes: Vec<Result<(), String>>,
}

/// Resubmits a completed campaign; `miss` renames its corners so the
/// request cannot be a cache hit (the injected fault).
fn duplicate(
    ctx: &Ctx,
    addr: SocketAddr,
    original: &(u64, String),
    dups: &mut Dups,
    traced: bool,
    miss: bool,
) {
    let (seed, want) = original;
    let prefix = miss.then_some("table2-renamed");
    let t = Instant::now();
    let out = submit_and_wait(
        ctx,
        addr,
        params(*seed, ctx.samples, prefix),
        "service.duplicate",
    );
    let latency = t.elapsed().as_secs_f64();
    let verdict = match out {
        Err(e) => Err(format!("duplicate of seed {seed}: {e}")),
        Ok(o) => {
            if traced {
                dups.submit_rtts.push(o.submit_rtt);
                dups.fetch_rtts.extend(&o.fetch_rtts);
            }
            if !o.cache_hit {
                Err(format!(
                    "duplicate {} of seed {seed} missed the cache",
                    o.id
                ))
            } else if o.digest != *want {
                Err(format!(
                    "duplicate {} of seed {seed} returned another digest",
                    o.id
                ))
            } else {
                Ok(())
            }
        }
    };
    dups.latencies.push(latency);
    dups.outcomes.push(verdict);
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    match drive(ctx, &mut rep) {
        Ok(()) => {}
        Err(e) => {
            rep.attempted += 1;
            rep.failed += 1;
            rep.problem(format!("service_table2: {e}"));
        }
    }
    rep
}

#[allow(clippy::too_many_lines)]
fn drive(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let host = Arc::new(Host {
        done: Mutex::new(HashMap::new()),
    });
    let mut setups = Vec::new();

    let dir = ctx.work.join("service");
    let (addr, handle, _) = start(&dir, Arc::clone(&host))?;
    let journal = dir.join("service.jrnl");
    let journal_start = file_len(&journal);
    let cache = ResultCache::open(&dir.join("cache")).map_err(|e| e.to_string())?;

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut fresh: Vec<Fresh> = Vec::new();
    let mut dups = Dups::default();
    let mut traced_dups = Dups::default();
    let mut traced_perf = issa_circuit::PerfSnapshot::default();
    let mut traced_sense = 0u64;
    let mut k = 0usize;
    while k < MIN_ROUNDS || Instant::now() < deadline || dups.latencies.len() < MIN_HITS {
        // Rounds alternate untraced / traced in a traced run, so the two
        // walls compare on the same machine state.
        for i in 0..SETUPS_PER_ROUND {
            let dir = ctx.work.join(format!("setup{k}-{i}"));
            let (setup_addr, setup_handle, secs) = start(&dir, Arc::clone(&host))?;
            stop(setup_addr, setup_handle)?;
            setups.push(secs);
        }
        let traced = ctx.trace && k % 2 == 1;
        ctx.tracer.set_enabled(traced);
        let seed = campaign_seed(ctx.seed, k);
        let perf0 = snapshot();
        let sense0 = issa_core::perf::sense_calls();
        let originals: Vec<(u64, String)> =
            fresh.iter().map(|f| (f.seed, f.digest.clone())).collect();
        let stop_dups = AtomicBool::new(false);
        let t0 = Instant::now();
        let (outcome, round_dups) = std::thread::scope(|s| {
            let dup_client = s.spawn(|| {
                let mut d = Dups::default();
                let mut j = 0usize;
                while !originals.is_empty() && !stop_dups.load(Ordering::SeqCst) {
                    let miss = ctx.inject.force_miss && k == 1 && j == 0;
                    duplicate(
                        ctx,
                        addr,
                        &originals[j % originals.len()],
                        &mut d,
                        traced,
                        miss,
                    );
                    j += 1;
                }
                d
            });
            let outcome = submit_and_wait(
                ctx,
                addr,
                params(seed, ctx.samples, None),
                "service.campaign",
            );
            stop_dups.store(true, Ordering::SeqCst);
            (
                outcome,
                dup_client.join().expect("duplicate client panicked"),
            )
        });
        let wall_s = t0.elapsed().as_secs_f64();
        if traced {
            traced_perf = traced_perf.saturating_add(&snapshot().delta_since(&perf0));
            traced_sense += issa_core::perf::sense_calls() - sense0;
            traced_dups.submit_rtts.extend(&round_dups.submit_rtts);
            traced_dups.fetch_rtts.extend(&round_dups.fetch_rtts);
        }
        dups.latencies.extend(round_dups.latencies);
        dups.outcomes.extend(round_dups.outcomes);
        let o = outcome?;
        if traced {
            traced_dups.submit_rtts.push(o.submit_rtt);
            traced_dups.fetch_rtts.extend(&o.fetch_rtts);
        }
        let mut digest = o.digest;
        if ctx.inject.corrupt_digest && k == 0 {
            digest = corrupt_digest(&digest);
        }
        fresh.push(Fresh {
            seed,
            id: o.id,
            fingerprint: o.fingerprint,
            digest,
            wall_s,
            traced,
            acked: o.acked,
        });
        k += 1;
    }
    ctx.tracer.set_enabled(ctx.trace);
    let journal_bytes = file_len(&journal) - journal_start;

    // Cache lookups, timed from outside the service on its own cache.
    let mut lookups = Vec::new();
    for f in &fresh {
        let (corners, _) = table2_campaign("table2", f.seed, ctx.samples, 1, 0);
        let (hit, t) = ctx.tracer.span("cache.lookup", &f.id, || {
            cache.lookup(f.fingerprint, &corners)
        });
        if !matches!(hit, CacheLookup::Hit) {
            rep.problem(format!("{}: cache entry did not verify", f.id));
        }
        lookups.push(t * 1e3);
    }
    stop(addr, handle)?;

    // Output check: every fresh campaign against the reference, earlier
    // runs and the dist workload; every duplicate against its original.
    let done = host.done.lock().expect("host lock");
    let mut records = BTreeMap::new();
    for (k, f) in fresh.iter().enumerate() {
        let Some(c) = done.get(&f.id) else {
            rep.problem(format!("{}: host never saw it complete", f.id));
            continue;
        };
        let mut counts = c.counts.clone();
        counts.insert(
            "checkpoint.bytes",
            file_len(&cache.entry_path(f.fingerprint)),
        );
        records.insert(k, record(f.digest.clone(), &counts));
    }
    let bad = check_records(ctx, "service_table2", &records, rep);
    for k in 0..fresh.len() {
        rep.attempt(if bad.contains(&k) {
            Err(format!("campaign {k} failed the output check"))
        } else {
            Ok(())
        });
    }
    for outcome in &dups.outcomes {
        rep.attempt(outcome.clone());
    }

    let completions: Vec<&Completion> = fresh.iter().filter_map(|f| done.get(&f.id)).collect();
    let walls: Vec<f64> = fresh.iter().map(|f| f.wall_s).collect();
    rep.note(format!("campaign walls (s): {walls:.3?}"));
    let (p50, p90) = hit_percentiles(&dups.latencies);
    rep.note(format!(
        "service_table2: {} fresh campaigns, {} duplicates",
        fresh.len(),
        dups.latencies.len()
    ));
    rep.e2e("setup_s", median(&setups), "s");
    rep.e2e("wall_s", median(&walls), "s");
    rep.e2e("hit_p50_ms", p50, "ms");
    rep.e2e("hit_p90_ms", p90, "ms");
    let first = &completions[..MIN_ROUNDS];
    rep.e2e(
        "delay_err_ps",
        mean(&first.iter().map(|c| c.acc.delay_err_ps).collect::<Vec<_>>()),
        "ps",
    );
    let spec_err_mv = mean(&first.iter().map(|c| c.acc.spec_err_mv).collect::<Vec<_>>());

    if !ctx.trace {
        return Ok(());
    }
    rep.layer("accuracy.spec_err_mv", spec_err_mv, "mV");
    // Layer pass on campaign 0, after the service has stopped.
    let (corners, _) = table2_campaign("table2", fresh[0].seed, ctx.samples, 1, 0);
    let first = done.get(&fresh[0].id).ok_or("campaign 0 never completed")?;
    let pass = layer::run(ctx, &corners, &first.digests, &first.counts);
    for p in pass.problems {
        rep.problem(p);
    }
    let traced: Vec<&Fresh> = fresh.iter().filter(|f| f.traced).collect();
    let traced_done: Vec<&Completion> = traced.iter().filter_map(|f| done.get(&f.id)).collect();
    let offset_s = mean(&traced_done.iter().map(|c| c.offset_s).collect::<Vec<_>>());
    let delay_s = mean(&traced_done.iter().map(|c| c.delay_s).collect::<Vec<_>>());
    let campaign_self: Vec<f64> = traced
        .iter()
        .filter_map(|f| {
            let c = done.get(&f.id)?;
            Some(c.at.duration_since(f.acked).as_secs_f64() - c.offset_s - c.delay_s)
        })
        .collect();
    let entry = cache.entry_path(fresh[0].fingerprint);
    let (save_ms, load_ms) = metrics::checkpoint_io(ctx, &entry, &ctx.work.join("probe.ckpt"));
    let offset_samples = (traced.len() * corners.len() * ctx.samples) as f64;
    // Round 0 runs without duplicate traffic, so it is left out of the
    // traced-versus-untraced comparison.
    let untraced: Vec<f64> = fresh
        .iter()
        .skip(1)
        .filter(|f| !f.traced)
        .map(|f| f.wall_s)
        .collect();
    let traced_walls: Vec<f64> = traced.iter().map(|f| f.wall_s).collect();
    metrics::circuit(
        rep,
        &traced_perf,
        (offset_s + delay_s) * traced.len() as f64,
        1,
    );
    rep.layer("probe.sense_calls", traced_sense as f64, "count");
    rep.layer(
        "probe.transients_per_offset_sample",
        traced_perf.transients as f64 / offset_samples,
        "1",
    );
    rep.layer("montecarlo.offset_s", offset_s, "s");
    rep.layer("montecarlo.delay_s", delay_s, "s");
    rep.layer(
        "montecarlo.samples_per_core_s",
        (corners.len() * ctx.samples) as f64 / (offset_s + delay_s),
        "1/s",
    );
    rep.layer("montecarlo.shard_idle_frac", pass.shard_idle_frac, "1");
    rep.layer("aging.build_sample_share", pass.build_sample_share, "1");
    metrics::no_tail(rep);
    rep.layer("campaign.self_s", median(&campaign_self), "s");
    rep.layer("checkpoint.bytes", file_len(&entry) as f64, "B");
    rep.layer("checkpoint.save_ms", save_ms, "ms");
    rep.layer("checkpoint.load_ms", load_ms, "ms");
    metrics::no_dist(rep);
    rep.layer(
        "service.submit_rtt_ms",
        median(&traced_dups.submit_rtts) * 1e3,
        "ms",
    );
    rep.layer(
        "service.fetch_rtt_ms",
        median(&traced_dups.fetch_rtts) * 1e3,
        "ms",
    );
    let hits = dups.outcomes.iter().filter(|o| o.is_ok()).count();
    rep.layer("service.cache_hits", hits as f64, "count");
    rep.layer(
        "service.cache_hit_frac",
        hits as f64 / dups.outcomes.len().max(1) as f64,
        "1",
    );
    rep.layer(
        "service.journal_bytes_per_submit",
        journal_bytes as f64 / (fresh.len() + dups.latencies.len()) as f64,
        "B",
    );
    rep.layer("service.cache_lookup_ms", median(&lookups), "ms");
    metrics::overhead(rep, &traced_walls, &untraced);
    Ok(())
}
