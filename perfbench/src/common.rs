//! Pieces every workload shares: the campaign definitions, result
//! digests, order statistics, host readouts, the in-memory span recorder
//! and the run report.

use issa_bench::paper;
use issa_core::campaign::{CampaignCorner, CampaignReport, CornerOutcome};
use issa_core::montecarlo::{McConfig, McResult};
use issa_core::probe::ProbeOptions;
use issa_core::tail::TailConfig;
use issa_core::workload::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Seed whose digests and exact counts are committed in `reference.txt`.
pub const DEFAULT_SEED: u64 = 1;
/// Monte Carlo samples per Table II corner (service and dist campaigns).
pub const TABLE2_SAMPLES: usize = 12;
/// Lockstep lanes of the batched solver (dist and tail workloads).
pub const LANES: usize = 8;
/// Tail-mode pilot size (also the block size) and cap in pilots, at the
/// default sample count; both scale with `--samples`.
pub const TAIL_PILOT: usize = 64;
pub const TAIL_CAP_PILOTS: usize = 8;
/// Relative CI half-width at which a tail corner stops early.
pub const TAIL_CI_TARGET: f64 = 0.15;
/// Table II rows the tail workload runs: NSSA fresh (converges early),
/// ISSA 80% (converges late or caps), NSSA 80r0 (runs to the cap).
pub const TAIL_ROWS: [usize; 3] = [0, 8, 2];

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Samples per Table II corner (the default matches the reference).
    pub samples: usize,
    /// Scratch directory for this run, inside the checkout.
    pub work: PathBuf,
    /// Long-lived directory for cross-run digest and count records.
    pub store: PathBuf,
    pub inject: Inject,
    pub tracer: Tracer,
}

/// Faults injected through the benchmark's own inputs so its tests can
/// show that the output check trips. Both are off in measured runs.
#[derive(Clone, Copy, Default)]
pub struct Inject {
    /// Change the recorded digest of campaign 0, the value its repeat
    /// requests are checked against.
    pub corrupt_digest: bool,
    /// Make the run's first repeat request under renamed corners, so the
    /// stored result cannot serve it.
    pub force_miss: bool,
}

impl Inject {
    pub fn any(self) -> bool {
        self.corrupt_digest || self.force_miss
    }
}

impl Ctx {
    /// True when this run's inputs are the ones `reference.txt` covers.
    pub fn reference_inputs(&self) -> bool {
        self.seed == DEFAULT_SEED && self.samples == TABLE2_SAMPLES
    }
}

/// Seed of campaign `k` of a run: distinct campaigns, all derived from
/// the run's seed.
pub fn campaign_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The paper's Table II row of a corner: μ, σ, spec (mV), delay (ps).
pub type PaperRow = [f64; 4];

/// One Table II campaign: the ten corners of the paper's table plus the
/// paper's row for each, in the same order.
pub fn table2_campaign(
    prefix: &str,
    seed: u64,
    samples: usize,
    threads: usize,
    lanes: usize,
) -> (Vec<CampaignCorner>, Vec<PaperRow>) {
    paper::table2()
        .into_iter()
        .map(|s| {
            let corner = CampaignCorner {
                name: format!(
                    "{prefix}/{} {} t={}",
                    s.kind.name(),
                    s.label,
                    s.time_label()
                ),
                cfg: McConfig {
                    samples,
                    seed,
                    probe: ProbeOptions::fast(),
                    delay_samples: 16.min(samples),
                    threads,
                    batch_lanes: lanes,
                    ..McConfig::paper(
                        s.kind,
                        Workload::new(s.activation, s.sequence),
                        s.env,
                        s.time,
                    )
                },
            };
            (corner, s.paper)
        })
        .unzip()
}

/// The tail workload's campaign: three Table II rows in tail mode at
/// fr = 1e-9, batched, two threads. `samples` is the Table II sample
/// count the tail sizes scale with.
pub fn tail_campaign(seed: u64, samples: usize) -> (Vec<CampaignCorner>, Vec<PaperRow>) {
    let pilot = (TAIL_PILOT * samples / TABLE2_SAMPLES).max(8);
    let (all, rows) = table2_campaign("tail", seed, pilot, 2, LANES);
    TAIL_ROWS
        .iter()
        .map(|&row| {
            let mut corner = all[row].clone();
            corner.cfg.failure_rate = 1e-9;
            corner.cfg.tail = Some(TailConfig {
                ci_rel_target: TAIL_CI_TARGET,
                block_samples: pilot,
                max_samples: TAIL_CAP_PILOTS * pilot,
                ..TailConfig::default()
            });
            (corner, rows[row])
        })
        .unzip()
}

/// FNV-1a over the exact bits of a corner's physical results.
pub fn result_digest(r: &McResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in r.offsets.iter().chain(&r.delays) {
        eat(v.to_bits());
    }
    for v in [r.mu, r.sigma, r.spec, r.mean_delay] {
        eat(v.to_bits());
    }
    eat(r.failures.len() as u64);
    h
}

/// Per-corner results of a complete campaign, or why it is not complete.
pub fn completed_results(report: &CampaignReport) -> Result<Vec<&McResult>, String> {
    if report.partial {
        return Err("campaign ended partial".into());
    }
    report
        .corners
        .iter()
        .map(|c| match &c.outcome {
            CornerOutcome::Completed(r) if r.failures.is_empty() => Ok(r.as_ref()),
            CornerOutcome::Completed(_) => Err(format!("corner {} quarantined samples", c.name)),
            other => Err(format!("corner {} did not complete: {other:?}", c.name)),
        })
        .collect()
}

/// The campaign digest: one hex word per corner, comma-separated.
pub fn campaign_digest(results: &[&McResult]) -> String {
    let words: Vec<String> = results
        .iter()
        .map(|r| format!("{:016x}", result_digest(r)))
        .collect();
    words.join(",")
}

/// A digest with its first hex digit changed: the injected wrong answer.
pub fn corrupt_digest(digest: &str) -> String {
    let mut out = String::with_capacity(digest.len());
    for (i, c) in digest.chars().enumerate() {
        out.push(if i > 0 {
            c
        } else if c == '0' {
            '1'
        } else {
            '0'
        });
    }
    out
}

/// How far a campaign's results sit from the paper's, averaged over its
/// corners.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// Mean |spec − paper spec| \[mV\]. Dominated by sampling noise at
    /// these sample counts: a campaign's corners share their random draws,
    /// so the whole campaign moves together from seed to seed.
    pub spec_err_mv: f64,
    /// Mean |mean sensing delay − paper delay| \[ps\]: mostly the device
    /// model's systematic offset from the paper's, so it barely moves
    /// between seeds.
    pub delay_err_ps: f64,
}

pub fn accuracy(results: &[&McResult], paper: &[PaperRow]) -> Accuracy {
    let n = results.len().max(1) as f64;
    let mean_abs = |f: &dyn Fn(&McResult, &PaperRow) -> f64| {
        results
            .iter()
            .zip(paper)
            .map(|(r, p)| f(r, p).abs())
            .sum::<f64>()
            / n
    };
    Accuracy {
        spec_err_mv: mean_abs(&|r, p| r.spec * 1e3 - p[2]),
        delay_err_ps: mean_abs(&|r, p| r.mean_delay * 1e12 - p[3]),
    }
}

/// Deterministic per-campaign work counts, checked for exact repetition.
pub type Counts = BTreeMap<&'static str, u64>;

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// User + system CPU seconds of `/proc/<which>/stat` (`self` for the
/// process, `thread-self` for the calling thread). Linux ticks are
/// 10 ms, so only differences over seconds are meaningful.
pub fn cpu_seconds(which: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{which}/stat")) else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// Size of a file in bytes (0 when absent).
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// A timed region recorded by the benchmark around one of its calls into
/// a layer's public API.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Submission or corner id shared by every span of one request.
    pub id: String,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// In-memory span store; spans are written out once, when the run ends.
/// A disabled tracer records nothing.
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches recording on or off (traced and untraced rounds alternate
    /// inside a traced run).
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &self,
        name: &'static str,
        id: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled() {
            return None;
        }
        let mut spans = self.spans.lock().expect("span store lock");
        spans.push(Span {
            name,
            id: id.to_owned(),
            parent,
            start_s: start.duration_since(self.t0).as_secs_f64(),
            end_s: end.duration_since(self.t0).as_secs_f64(),
        });
        Some(spans.len() - 1)
    }

    /// Opens a span that children can name as parent; close it with
    /// [`Tracer::close`].
    pub fn open(&self, name: &'static str, id: &str) -> Option<usize> {
        let now = Instant::now();
        self.record(name, id, None, now, now)
    }

    pub fn close(&self, span: Option<usize>) {
        if let Some(i) = span {
            let end = self.t0.elapsed().as_secs_f64();
            self.spans.lock().expect("span store lock")[i].end_s = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, id: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, id, None, start, end);
        (out, end.duration_since(start).as_secs_f64())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock").clone()
    }

    /// Writes every span, with its self time, as one JSON object a line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":\"{}\",\"parent\":{parent},\
                 \"start_s\":{:.6},\"end_s\":{:.6},\"self_s\":{:.6}}}",
                s.name,
                s.id,
                s.start_s,
                s.end_s,
                self_time(&spans, i)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A span's duration minus the part of it its child spans cover.
pub fn self_time(spans: &[Span], index: usize) -> f64 {
    let me = &spans[index];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_s.max(me.start_s), s.end_s.min(me.end_s)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = me.start_s;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_s - me.start_s) - covered
}

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one run measured and verified.
#[derive(Default)]
pub struct Report {
    /// Results the run asked for (fresh campaigns plus repeat requests).
    pub attempted: u64,
    /// Results that were refused, quarantined, wrong or missed the cache.
    pub failed: u64,
    /// Every output-check or exact-count problem, by name.
    pub problems: Vec<String>,
    /// Observations printed to stderr that do not make the run incorrect.
    pub notes: Vec<String>,
    /// Exact counts that differ from the committed reference.
    pub reference_count_diffs: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// Counts one attempted result; `Err` is a failure with its reason.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.problem(why);
        }
    }

    pub fn problem(&mut self, why: String) {
        // Keep the report readable when one defect repeats per request.
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push((name, value, unit));
    }

    pub fn success_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// Median and 90th percentile of latencies given in seconds, in ms.
pub fn hit_percentiles(latencies_s: &[f64]) -> (f64, f64) {
    (
        quantile(latencies_s, 0.5) * 1e3,
        quantile(latencies_s, 0.9) * 1e3,
    )
}
