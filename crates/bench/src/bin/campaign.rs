//! Durable campaign driver: regenerates the paper's Monte Carlo artifacts
//! (Tables II–IV with the Fig. 4–6 distribution strips, and Fig. 7)
//! through the checkpointing campaign engine ([`issa_core::campaign`]),
//! so a long run survives kills, deadlines, and SIGINT/SIGTERM and
//! resumes bit-identically. It is the one path that writes
//! `results/table{2,3,4}.csv` and `results/fig7_delay_aging.csv`.
//!
//! ```sh
//! cargo run --release -p issa-bench --bin campaign -- \
//!     [--samples N] [--seed S] [--paper-probes] [--threads T]
//!     [--artifacts table2,table3,table4,fig7]
//!     [--checkpoint PATH | --no-checkpoint] [--fresh] [--flush-every K]
//!     [--deadline-s S] [--step-budget N] [--wall-budget-s S]
//!     [--abort-after N]
//! ```
//!
//! # Distributed mode
//!
//! The same campaign can be served to a worker fleet over TCP
//! ([`issa_dist`]), merging to a bit-identical result at any worker
//! count:
//!
//! ```sh
//! # terminal 1: the coordinator (plus optional in-process workers)
//! campaign serve --listen 127.0.0.1:4617 [--loopback N] [--port-file P]
//!     [--unit-samples K] [--max-unit-attempts A]
//!     [--lease-timeout-s S] [--worker-timeout-s S] <campaign flags>
//! # terminal 2..N: workers, launched with the SAME campaign flags
//! campaign worker --connect 127.0.0.1:4617 [--name ID] [--reconnect-s S] \
//!     <campaign flags>
//! ```
//!
//! Workers never receive configurations over the wire: they rebuild the
//! corner list from their own flags, and the coordinator's handshake
//! verifies agreement via a campaign fingerprint. In `serve` mode
//! `--abort-after N` stops after N completed *units* (the distributed
//! analogue of the local sample-count hook).
//!
//! # Chaos soak
//!
//! ```sh
//! campaign chaos [--chaos-seed S] [--loopback N] <campaign flags>
//! ```
//!
//! One seeded end-to-end robustness drill ([`issa_dist::chaos`]): a
//! *child-process* coordinator serves the campaign to a fleet laced with
//! scripted crash-deaths, wire faults, a straggler, checkpoint I/O
//! faults, and injected (recoverable) solver faults; the child is
//! SIGKILLed mid-flight; a second in-process coordinator resumes from
//! its checkpoint under the same chaos; and the merged result is
//! compared byte-for-byte against a clean single-process run sharing
//! the same solver fault plans. `--chaos-seed` is also accepted by
//! `serve`/`worker`/local modes so every process in a chaos fleet can
//! rebuild identical plans (they participate in the config fingerprint).
//!
//! # Campaign service
//!
//! A long-lived supervised service that runs many campaigns
//! concurrently behind a line-oriented JSON control plane
//! ([`issa_dist::service`]): admission control, crash-loop supervision,
//! a crash-safe state journal, and a content-addressed result cache.
//!
//! ```sh
//! # the service (state in --dir; survives SIGKILL via its journal)
//! campaign service --dir results/service [--listen ADDR] [--port-file P]
//!     [--max-campaigns N] [--max-queue N] [--tenant-quota N]
//!     [--crash-loop-limit N] [--flush-every K]
//! # client verbs (one JSON response line each)
//! campaign submit --connect ADDR [--tenant T] [--wait] <campaign flags>
//! campaign status --connect ADDR [--id ID]
//! campaign fetch  --connect ADDR --id ID [--wait]
//! campaign cancel --connect ADDR --id ID
//! campaign health --connect ADDR
//! campaign shutdown --connect ADDR
//! ```
//!
//! `submit` encodes this process's campaign flags (`--samples`,
//! `--seed`, `--artifacts`, `--paper-probes`, `--threads`,
//! `--batch-lanes`) as the submission's params object; the service host
//! rebuilds the identical corner list from them, so a re-submitted
//! configuration hits the result cache. `--wait` polls `fetch` until
//! the submission is terminal and exits 0 only for `completed`.
//!
//! Exit status: `0` = complete, `3` = partial (deadline/interrupt; re-run
//! the same command to resume), `1` = refused to start (untrusted or
//! mismatched checkpoint, bind/connect failure) or a chaos-soak
//! mismatch, `2` = usage error.

use issa_bench::CornerSpec;
use issa_bench::{
    csv_row, failure_cause, paper, print_table_header, print_table_row, render_distribution_strip,
    write_csv, write_csv_at, CSV_HEADER,
};
use issa_core::campaign::{
    run_campaign, CampaignCorner, CampaignOptions, CampaignReport, CornerOutcome,
};
use issa_core::durable::{parent_dir, sweep_stale_temps, write_atomic, Fnv64, SavePolicy};
use issa_core::montecarlo::{McConfig, McResult};
use issa_core::netlist::SaKind;
use issa_core::probe::ProbeOptions;
use issa_core::tail::TailConfig;
use issa_core::workload::{ReadSequence, Workload};
use issa_core::SaError;
use issa_dist::cache::EvictionPolicy;
use issa_dist::chaos;
use issa_dist::control::{self, ControlRequest, Json, LineReader, NextLine};
use issa_dist::coordinator::{serve_campaign, DistReport, ServeOptions};
use issa_dist::proto::PROTO_VERSION;
use issa_dist::scheduler::SchedulerConfig;
use issa_dist::service::{run_service, ServiceHost, ServiceOptions, SubmissionInfo};
use issa_dist::worker::{run_worker, WorkerOptions};
use issa_ptm45::Environment;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How this invocation participates in the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Single-process engine (`run_campaign`), the default.
    Local,
    /// Coordinator: shard corners to TCP workers (`campaign serve`).
    Serve,
    /// Worker: compute units for a coordinator (`campaign worker`).
    Worker,
    /// Seeded end-to-end chaos soak (`campaign chaos`).
    Chaos,
    /// Long-lived supervised campaign service (`campaign service`).
    Service,
    /// Control-plane client verb (`campaign submit|status|...`).
    Client,
}

#[derive(Debug, Clone)]
struct Args {
    mode: Mode,
    samples: usize,
    seed: u64,
    paper_probes: bool,
    threads: usize,
    batch_lanes: usize,
    artifacts: Vec<String>,
    checkpoint: Option<PathBuf>,
    fresh: bool,
    flush_every: usize,
    deadline_s: Option<f64>,
    step_budget: Option<u64>,
    wall_budget_s: Option<f64>,
    abort_after: Option<usize>,
    // tail-estimation mode (None = classic fixed-sample campaign)
    tail_fr: Option<f64>,
    ci_target: f64,
    max_samples: Option<usize>,
    tail_block: usize,
    // serve mode
    listen: String,
    loopback: usize,
    unit_samples: usize,
    max_unit_attempts: u32,
    lease_timeout_s: f64,
    worker_timeout_s: f64,
    port_file: Option<PathBuf>,
    speculate_after_s: Option<f64>,
    // worker mode
    connect: Option<String>,
    name: String,
    reconnect_s: f64,
    // chaos mode (also honoured by serve/worker/local so fleets agree)
    chaos_seed: Option<u64>,
    // service mode
    dir: PathBuf,
    max_campaigns: usize,
    max_queue: usize,
    tenant_quota: usize,
    crash_loop_limit: u32,
    cache_max_mb: Option<f64>,
    cache_max_age_s: Option<f64>,
    // client verbs
    client_verb: String,
    tenant: String,
    id: Option<String>,
    wait: bool,
    crash_after_sub: Option<usize>,
    crash_attempts_sub: u32,
}

const ALL_ARTIFACTS: [&str; 4] = ["table2", "table3", "table4", "fig7"];

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: campaign [serve|worker|service|submit|status|cancel|fetch|health|shutdown] \
         [--samples N] [--seed S] [--paper-probes] [--threads T] \
         [--batch-lanes K] [--artifacts LIST] [--checkpoint PATH | --no-checkpoint] [--fresh] \
         [--flush-every K] [--deadline-s S] [--step-budget N] [--wall-budget-s S] \
         [--abort-after N]\n\
         tail:   [--tail-fr FR] [--ci-target REL] [--max-samples N] [--tail-block K] \
         (importance-sampled direct tail estimation; --samples sizes the pilot; \
         accepted by service submissions too)\n\
         serve:  [--listen ADDR] [--loopback N] [--port-file PATH] [--unit-samples K] \
         [--max-unit-attempts A] [--lease-timeout-s S] [--worker-timeout-s S] \
         [--speculate-after-s S]\n\
         worker: --connect ADDR [--name ID] [--reconnect-s S]\n\
         chaos:  [--chaos-seed S] [--loopback N] [--unit-samples K] (plus campaign flags; \
         --chaos-seed is also accepted by every other mode)\n\
         service: [--dir PATH] [--listen ADDR] [--port-file PATH] [--max-campaigns N] \
         [--max-queue N] [--tenant-quota N] [--crash-loop-limit N] [--flush-every K] \
         [--cache-max-mb MB] [--cache-max-age-s S]\n\
         clients: --connect ADDR; submit [--tenant T] [--wait] [--crash-after N \
         --crash-attempts K] <campaign flags>; status [--id ID]; \
         cancel/fetch --id ID [--wait]"
    );
    std::process::exit(2)
}

fn parse() -> Args {
    let mut args = Args {
        mode: Mode::Local,
        samples: 400,
        seed: 0x1554_2017,
        paper_probes: false,
        threads: 0,
        batch_lanes: 0,
        artifacts: ALL_ARTIFACTS.iter().map(|s| (*s).to_owned()).collect(),
        checkpoint: Some(PathBuf::from("results/campaign.ckpt")),
        fresh: false,
        flush_every: 16,
        deadline_s: None,
        step_budget: None,
        wall_budget_s: None,
        abort_after: None,
        tail_fr: None,
        ci_target: 0.1,
        max_samples: None,
        tail_block: 64,
        listen: "127.0.0.1:0".to_owned(),
        loopback: 0,
        unit_samples: 16,
        max_unit_attempts: 4,
        lease_timeout_s: 600.0,
        worker_timeout_s: 60.0,
        port_file: None,
        speculate_after_s: None,
        connect: None,
        name: "worker".to_owned(),
        reconnect_s: 0.25,
        chaos_seed: None,
        dir: PathBuf::from("results/service"),
        max_campaigns: 2,
        max_queue: 16,
        tenant_quota: 8,
        crash_loop_limit: 3,
        cache_max_mb: None,
        cache_max_age_s: None,
        client_verb: String::new(),
        tenant: "default".to_owned(),
        id: None,
        wait: false,
        crash_after_sub: None,
        crash_attempts_sub: 0,
    };
    let mut it = std::env::args().skip(1).peekable();
    match it.peek().map(String::as_str) {
        Some("serve") => {
            args.mode = Mode::Serve;
            it.next();
        }
        Some("worker") => {
            args.mode = Mode::Worker;
            it.next();
        }
        Some("service") => {
            args.mode = Mode::Service;
            it.next();
        }
        Some(verb @ ("submit" | "status" | "cancel" | "fetch" | "health" | "shutdown")) => {
            args.mode = Mode::Client;
            args.client_verb = verb.to_owned();
            it.next();
        }
        Some("chaos") => {
            args.mode = Mode::Chaos;
            it.next();
            // Soak-sized defaults: one small table, fine-grained units so
            // the chaos fleet actually interleaves, a flush per record so
            // the SIGKILL always lands on a useful checkpoint, and its
            // own scratch checkpoint away from results/campaign.ckpt.
            args.artifacts = vec!["table2".to_owned()];
            args.samples = 32;
            args.unit_samples = 4;
            args.flush_every = 1;
            args.loopback = 3;
            args.checkpoint = Some(PathBuf::from("results/chaos/chaos.ckpt"));
            args.chaos_seed = Some(0xc4a0_5eed);
        }
        _ => {}
    }
    let servish = matches!(args.mode, Mode::Serve | Mode::Chaos);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--samples" => {
                args.samples = value(&mut it, "--samples")
                    .parse()
                    .unwrap_or_else(|_| usage("--samples needs a positive integer"));
            }
            "--seed" => {
                args.seed = value(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"));
            }
            "--paper-probes" => args.paper_probes = true,
            "--threads" => {
                args.threads = value(&mut it, "--threads")
                    .parse()
                    .unwrap_or_else(|_| usage("--threads needs an integer"));
            }
            "--batch-lanes" => {
                args.batch_lanes = value(&mut it, "--batch-lanes")
                    .parse()
                    .unwrap_or_else(|_| usage("--batch-lanes needs an integer"));
            }
            "--artifacts" => {
                args.artifacts = value(&mut it, "--artifacts")
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
                for a in &args.artifacts {
                    if !ALL_ARTIFACTS.contains(&a.as_str()) {
                        usage(&format!(
                            "unknown artifact '{a}' (known: {})",
                            ALL_ARTIFACTS.join(", ")
                        ));
                    }
                }
            }
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value(&mut it, "--checkpoint"))),
            "--no-checkpoint" => args.checkpoint = None,
            "--fresh" => args.fresh = true,
            "--flush-every" => {
                args.flush_every = value(&mut it, "--flush-every")
                    .parse()
                    .unwrap_or_else(|_| usage("--flush-every needs an integer"));
            }
            "--deadline-s" => {
                args.deadline_s = Some(
                    value(&mut it, "--deadline-s")
                        .parse()
                        .unwrap_or_else(|_| usage("--deadline-s needs a number")),
                );
            }
            "--step-budget" => {
                args.step_budget = Some(
                    value(&mut it, "--step-budget")
                        .parse()
                        .unwrap_or_else(|_| usage("--step-budget needs an integer")),
                );
            }
            "--wall-budget-s" => {
                args.wall_budget_s = Some(
                    value(&mut it, "--wall-budget-s")
                        .parse()
                        .unwrap_or_else(|_| usage("--wall-budget-s needs a number")),
                );
            }
            "--abort-after" => {
                args.abort_after = Some(
                    value(&mut it, "--abort-after")
                        .parse()
                        .unwrap_or_else(|_| usage("--abort-after needs an integer")),
                );
            }
            "--tail-fr" => {
                args.tail_fr = Some(
                    value(&mut it, "--tail-fr")
                        .parse()
                        .ok()
                        .filter(|fr: &f64| *fr > 0.0 && *fr < 1.0)
                        .unwrap_or_else(|| usage("--tail-fr needs a failure rate in (0, 1)")),
                );
            }
            "--ci-target" => {
                args.ci_target = value(&mut it, "--ci-target")
                    .parse()
                    .ok()
                    .filter(|t: &f64| *t > 0.0)
                    .unwrap_or_else(|| usage("--ci-target needs a positive relative half-width"));
            }
            "--max-samples" => {
                args.max_samples = Some(
                    value(&mut it, "--max-samples")
                        .parse()
                        .unwrap_or_else(|_| usage("--max-samples needs a positive integer")),
                );
            }
            "--tail-block" => {
                args.tail_block = value(&mut it, "--tail-block")
                    .parse()
                    .ok()
                    .filter(|b: &usize| *b > 0)
                    .unwrap_or_else(|| usage("--tail-block needs a positive integer"));
            }
            "--listen" if matches!(args.mode, Mode::Serve | Mode::Service) => {
                args.listen = value(&mut it, "--listen");
            }
            "--loopback" if servish => {
                args.loopback = value(&mut it, "--loopback")
                    .parse()
                    .unwrap_or_else(|_| usage("--loopback needs an integer"));
            }
            "--unit-samples" if servish => {
                args.unit_samples = value(&mut it, "--unit-samples")
                    .parse()
                    .unwrap_or_else(|_| usage("--unit-samples needs a positive integer"));
            }
            "--max-unit-attempts" if servish => {
                args.max_unit_attempts = value(&mut it, "--max-unit-attempts")
                    .parse()
                    .unwrap_or_else(|_| usage("--max-unit-attempts needs a positive integer"));
            }
            "--lease-timeout-s" if servish => {
                args.lease_timeout_s = value(&mut it, "--lease-timeout-s")
                    .parse()
                    .unwrap_or_else(|_| usage("--lease-timeout-s needs a number"));
            }
            "--worker-timeout-s" if servish => {
                args.worker_timeout_s = value(&mut it, "--worker-timeout-s")
                    .parse()
                    .unwrap_or_else(|_| usage("--worker-timeout-s needs a number"));
            }
            "--speculate-after-s" if servish => {
                args.speculate_after_s = Some(
                    value(&mut it, "--speculate-after-s")
                        .parse()
                        .unwrap_or_else(|_| usage("--speculate-after-s needs a number")),
                );
            }
            "--chaos-seed" => {
                args.chaos_seed = Some(
                    value(&mut it, "--chaos-seed")
                        .parse()
                        .unwrap_or_else(|_| usage("--chaos-seed needs an unsigned integer")),
                );
            }
            "--port-file" if matches!(args.mode, Mode::Serve | Mode::Service) => {
                args.port_file = Some(PathBuf::from(value(&mut it, "--port-file")));
            }
            "--dir" if args.mode == Mode::Service => {
                args.dir = PathBuf::from(value(&mut it, "--dir"));
            }
            "--max-campaigns" if args.mode == Mode::Service => {
                args.max_campaigns = value(&mut it, "--max-campaigns")
                    .parse()
                    .unwrap_or_else(|_| usage("--max-campaigns needs a positive integer"));
            }
            "--max-queue" if args.mode == Mode::Service => {
                args.max_queue = value(&mut it, "--max-queue")
                    .parse()
                    .unwrap_or_else(|_| usage("--max-queue needs a positive integer"));
            }
            "--tenant-quota" if args.mode == Mode::Service => {
                args.tenant_quota = value(&mut it, "--tenant-quota")
                    .parse()
                    .unwrap_or_else(|_| usage("--tenant-quota needs a positive integer"));
            }
            "--crash-loop-limit" if args.mode == Mode::Service => {
                args.crash_loop_limit = value(&mut it, "--crash-loop-limit")
                    .parse()
                    .unwrap_or_else(|_| usage("--crash-loop-limit needs a positive integer"));
            }
            "--cache-max-mb" if args.mode == Mode::Service => {
                args.cache_max_mb = Some(
                    value(&mut it, "--cache-max-mb")
                        .parse()
                        .ok()
                        .filter(|mb: &f64| *mb >= 0.0)
                        .unwrap_or_else(|| usage("--cache-max-mb needs a non-negative number")),
                );
            }
            "--cache-max-age-s" if args.mode == Mode::Service => {
                args.cache_max_age_s = Some(
                    value(&mut it, "--cache-max-age-s")
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s >= 0.0)
                        .unwrap_or_else(|| usage("--cache-max-age-s needs a non-negative number")),
                );
            }
            "--connect" if matches!(args.mode, Mode::Worker | Mode::Client) => {
                args.connect = Some(value(&mut it, "--connect"));
            }
            "--tenant" if args.mode == Mode::Client => {
                args.tenant = value(&mut it, "--tenant");
            }
            "--id" if args.mode == Mode::Client => {
                args.id = Some(value(&mut it, "--id"));
            }
            "--wait" if args.mode == Mode::Client => args.wait = true,
            "--crash-after" if args.mode == Mode::Client => {
                args.crash_after_sub = Some(
                    value(&mut it, "--crash-after")
                        .parse()
                        .unwrap_or_else(|_| usage("--crash-after needs an integer")),
                );
            }
            "--crash-attempts" if args.mode == Mode::Client => {
                args.crash_attempts_sub = value(&mut it, "--crash-attempts")
                    .parse()
                    .unwrap_or_else(|_| usage("--crash-attempts needs an integer"));
            }
            "--name" if args.mode == Mode::Worker => {
                args.name = value(&mut it, "--name");
            }
            "--reconnect-s" if args.mode == Mode::Worker => {
                args.reconnect_s = value(&mut it, "--reconnect-s")
                    .parse()
                    .unwrap_or_else(|_| usage("--reconnect-s needs a number"));
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if args.samples == 0 {
        usage("--samples must be positive");
    }
    if args.unit_samples == 0 {
        usage("--unit-samples must be positive");
    }
    if args.mode == Mode::Worker && args.connect.is_none() {
        usage("worker mode needs --connect ADDR");
    }
    if args.mode == Mode::Chaos && args.checkpoint.is_none() {
        usage("chaos mode needs a checkpoint (the SIGKILL-resume leg depends on it)");
    }
    if args.mode == Mode::Client {
        if args.connect.is_none() {
            usage(&format!("'{}' needs --connect ADDR", args.client_verb));
        }
        if matches!(args.client_verb.as_str(), "cancel" | "fetch") && args.id.is_none() {
            usage(&format!("'{}' needs --id ID", args.client_verb));
        }
    }
    if args.mode == Mode::Service && args.max_campaigns == 0 {
        usage("--max-campaigns must be positive");
    }
    args
}

impl Args {
    fn config(&self, kind: SaKind, workload: Workload, env: Environment, time: f64) -> McConfig {
        let mut cfg = McConfig {
            samples: self.samples,
            seed: self.seed,
            probe: if self.paper_probes {
                ProbeOptions::default()
            } else {
                ProbeOptions::fast()
            },
            delay_samples: 16.min(self.samples),
            threads: self.threads,
            batch_lanes: self.batch_lanes,
            sample_step_budget: self.step_budget,
            sample_wall_budget_s: self.wall_budget_s,
            ..McConfig::paper(kind, workload, env, time)
        };
        if let Some(fr) = self.tail_fr {
            // Tail mode estimates the spec *at* the requested failure
            // rate instead of extrapolating Eq. 3 to it; `--samples`
            // sizes the nominal pilot the proposal is fitted from.
            cfg.failure_rate = fr;
            let defaults = TailConfig::default();
            cfg.tail = Some(TailConfig {
                ci_rel_target: self.ci_target,
                block_samples: self.tail_block,
                max_samples: self.max_samples.unwrap_or(defaults.max_samples),
                ..defaults
            });
        }
        cfg
    }
}

/// Stable, unique checkpoint key for a table corner.
fn corner_name(artifact: &str, s: &CornerSpec) -> String {
    format!(
        "{artifact}/{} {} t={} {:.0}C {:.2}V",
        s.kind.name(),
        s.label,
        s.time_label(),
        s.env.temp_c,
        s.env.vdd
    )
}

/// One table artifact: its output CSV, its console columns, the figure
/// drawn from its rows, and the named paper corners.
struct TableArtifact {
    csv: &'static str,
    title: &'static str,
    extra: Extra,
    figure: Figure,
    rows: Vec<(String, CornerSpec)>,
}

/// The console column telling a table's rows apart — its name, and its
/// value for a row (the CSVs keep `-` there).
type Extra = (&'static str, fn(&CornerSpec) -> String);

const VDD: Extra = ("vdd", |s| format!("{:.2}V", s.env.vdd));
const TEMP: Extra = ("T", |s| format!("{:.0}C", s.env.temp_c));

/// The paper figure that shows a table's offset distributions (Figs.
/// 4–6), and the label of a row's strip in it.
type Figure = (&'static str, fn(&CornerSpec) -> String);

/// Half-width of the strips' millivolt axis.
const STRIP_AXIS_MV: f64 = 220.0;

const FIG7_TIMES: [f64; 6] = [0.0, 1e4, 1e5, 1e6, 1e7, 1e8];
const FIG7_SERIES: [(&str, SaKind, ReadSequence); 3] = [
    ("NSSA 80r0r1", SaKind::Nssa, ReadSequence::Alternating),
    ("NSSA 80r0", SaKind::Nssa, ReadSequence::AllZeros),
    ("ISSA 80%", SaKind::Issa, ReadSequence::AllZeros),
];

fn fig7_name(series: &str, t: f64) -> String {
    format!("fig7/{series} t={t:.0e}")
}

const FIG7_CSV: &str = "fig7_delay_aging.csv";
const FIG7_CSV_HEADER: &str =
    "time_s,nssa_80r0r1_delay_ps,nssa_80r0_delay_ps,issa_80_delay_ps,partial";

/// Everything one invocation's flags select: table artifacts, the full
/// corner list (tables + fig7, chaos fault plans applied), and whether
/// fig7 is in play. Shared verbatim by local/serve/chaos modes and the
/// campaign service host, so a submitted configuration rebuilds the
/// *identical* campaign — that agreement is what makes the service's
/// result cache and the byte-identity soak sound.
fn build_plan(args: &Args) -> (Vec<TableArtifact>, Vec<CampaignCorner>, bool) {
    let mut tables: Vec<TableArtifact> = Vec::new();
    let mut fig7 = false;
    for artifact in &args.artifacts {
        match artifact.as_str() {
            "table2" => tables.push(TableArtifact {
                csv: "table2.csv",
                title: "Table II: workload impact (25 C / 1.0 V)",
                extra: VDD,
                figure: ("Fig. 4", |s| {
                    format!("{} {} t={}", s.kind.name(), s.label, s.time_label())
                }),
                rows: paper::table2()
                    .into_iter()
                    .map(|s| (corner_name("table2", &s), s))
                    .collect(),
            }),
            "table3" => tables.push(TableArtifact {
                csv: "table3.csv",
                title: "Table III: supply-voltage impact (25 C)",
                extra: VDD,
                figure: ("Fig. 5", |s| {
                    let vdd = (s.env.vdd - 1.0) * 100.0;
                    format!("{} {} {vdd:+.0}%", s.kind.name(), s.label)
                }),
                rows: paper::table3()
                    .into_iter()
                    .map(|s| (corner_name("table3", &s), s))
                    .collect(),
            }),
            "table4" => tables.push(TableArtifact {
                csv: "table4.csv",
                title: "Table IV: temperature impact (1.0 V)",
                extra: TEMP,
                figure: ("Fig. 6", |s| {
                    format!("{} {} {:.0}C", s.kind.name(), s.label, s.env.temp_c)
                }),
                rows: paper::table4()
                    .into_iter()
                    .map(|s| (corner_name("table4", &s), s))
                    .collect(),
            }),
            "fig7" => fig7 = true,
            _ => unreachable!("validated in parse()"),
        }
    }

    let mut corners: Vec<CampaignCorner> = Vec::new();
    for table in &tables {
        for (name, s) in &table.rows {
            corners.push(CampaignCorner {
                name: name.clone(),
                cfg: args.config(
                    s.kind,
                    Workload::new(s.activation, s.sequence),
                    s.env,
                    s.time,
                ),
            });
        }
    }
    if fig7 {
        let env = Environment::nominal().with_temp_c(125.0);
        for &t in &FIG7_TIMES {
            for (series, kind, seq) in FIG7_SERIES {
                corners.push(CampaignCorner {
                    name: fig7_name(series, t),
                    cfg: args.config(kind, Workload::new(0.8, seq), env, t),
                });
            }
        }
    }
    // Chaos solver-fault plans are part of the *configuration*: every
    // participant (coordinator, workers, the chaos reference run) must
    // derive the identical plan for each corner or the config
    // fingerprints — and the recovered sample values — would disagree.
    if let Some(seed) = args.chaos_seed {
        for (index, corner) in corners.iter_mut().enumerate() {
            corner.cfg.fault_plan = chaos::solver_plan(seed, index, corner.cfg.samples);
        }
    }
    (tables, corners, fig7)
}

/// One table's CSV rows (completed corners only) plus the count of
/// corners with no result yet.
fn table_csv_rows(table: &TableArtifact, report: &CampaignReport) -> (Vec<String>, usize) {
    let mut csv = Vec::new();
    let mut missing = 0usize;
    for (name, spec) in &table.rows {
        match report.result(name) {
            Some(r) => csv.push(csv_row(spec, "-", r)),
            None => missing += 1,
        }
    }
    (csv, missing)
}

/// Fig. 7 CSV rows — one per stress time, one delay column per series,
/// trailing `partial` flag. The single row builder shared by the local
/// pipeline and the service host, so their CSVs are byte-identical.
fn fig7_csv_rows(report: &CampaignReport) -> Vec<String> {
    FIG7_TIMES
        .iter()
        .map(|&t| {
            let mut row = format!("{t}");
            let mut complete = true;
            for (series, _, _) in FIG7_SERIES {
                match report.result(&fig7_name(series, t)) {
                    Some(r) => {
                        row.push_str(&format!(",{}", r.mean_delay * 1e12));
                        complete &= !r.partial;
                    }
                    None => {
                        row.push(',');
                        complete = false;
                    }
                }
            }
            row.push_str(if complete { ",0" } else { ",1" });
            row
        })
        .collect()
}

/// Fig. 7's verdict: the ISSA's delay against the aged NSSA(80r0)'s at
/// the last stress time, and the first stress time at which NSSA(80r0)
/// is the slower of the two. Printed only when every point is present.
fn print_fig7_summary(rows: &[(f64, Vec<Option<f64>>)]) {
    let Some(rows) = rows
        .iter()
        .map(|(t, d)| Some((*t, d[1]?, d[2]?)))
        .collect::<Option<Vec<_>>>()
    else {
        return;
    };
    let Some(&(t, nssa, issa)) = rows.last() else {
        return;
    };
    println!(
        "\nat t={t:.0e}s: NSSA(80r0) = {nssa:.2} ps vs ISSA = {issa:.2} ps -> ISSA {:.1} % lower",
        (1.0 - issa / nssa) * 100.0
    );
    println!("(paper: the ISSA's delay is ~10 % lower than the aged NSSA's at t=1e8s)");
    match rows.iter().skip(1).find(|(_, nssa, issa)| nssa > issa) {
        Some((t, _, _)) => println!("crossover observed at t = {t:.0e} s"),
        None => println!("no crossover observed within the sweep (check calibration)"),
    }
}

/// Build identification for `campaign.json` and the service `health`
/// verb — enough to tell which binary produced an artifact.
fn build_info() -> String {
    format!(
        "issa-bench {} ({})",
        env!("CARGO_PKG_VERSION"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    )
}

/// Atomically publishes the bound address through the same durable write
/// as checkpoint saves, so a polling launcher never reads a half-written
/// address.
fn write_port_file(path: &Path, local: &std::net::SocketAddr) {
    if let Err(e) = write_atomic(
        path,
        format!("{local}\n").as_bytes(),
        &SavePolicy::standard(),
    ) {
        eprintln!("error: cannot write port file {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Sweeps stale atomic-write temporaries (`*.ckpt.tmp`, `*.jrnl.tmp`)
/// left behind by a SIGKILLed predecessor from the checkpoint
/// directory, logging every removal. The service sweeps its own state
/// directories inside [`run_service`].
fn sweep_checkpoint_dir(checkpoint: Option<&PathBuf>) {
    let Some(path) = checkpoint else { return };
    for stale in sweep_stale_temps(parent_dir(path)) {
        println!("campaign: removed stale temp {}", stale.display());
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            '\t' => "\\t".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// `campaign worker`: rebuild the corner list from this process's own
/// flags and compute units for the coordinator at `--connect` until it
/// says `done`.
fn run_worker_mode(args: &Args, corners: &[CampaignCorner]) {
    let spec = args.connect.as_deref().expect("validated in parse()");
    let addr = spec
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| {
            eprintln!("error: cannot resolve --connect address '{spec}'");
            std::process::exit(1)
        });
    println!(
        "worker '{}': {} corners, connecting to {addr}",
        args.name,
        corners.len()
    );
    let opts = WorkerOptions {
        name: args.name.clone(),
        reconnect_backoff: Duration::from_secs_f64(args.reconnect_s.max(0.01)),
        ..WorkerOptions::default()
    };
    match run_worker(addr, corners, &opts) {
        Ok(stats) => println!(
            "worker done: {} units, {} samples, {} reconnects",
            stats.units_done, stats.samples_done, stats.reconnects
        ),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Coordinator options shared by `serve` mode and both chaos-soak serve
/// legs. A chaos seed swaps the plain loopback fleet for the scripted
/// chaos fleet, arms checkpoint I/O faults and speculation, and lowers
/// the flakiness threshold so the scripted crash loop actually trips it.
fn serve_options(args: &Args, checkpoint: Option<PathBuf>) -> ServeOptions {
    let mut opts = ServeOptions {
        scheduler: SchedulerConfig {
            unit_samples: args.unit_samples,
            max_unit_attempts: args.max_unit_attempts,
            lease_timeout: Duration::from_secs_f64(args.lease_timeout_s),
            speculate_after: args.speculate_after_s.map(Duration::from_secs_f64),
            ..SchedulerConfig::default()
        },
        worker_timeout: Duration::from_secs_f64(args.worker_timeout_s),
        checkpoint,
        flush_every: args.flush_every,
        progress: true,
        loopback: (0..args.loopback)
            .map(|i| WorkerOptions {
                name: format!("loopback-{i}"),
                ..WorkerOptions::default()
            })
            .collect(),
        abort_after_units: args.abort_after.map(|n| n as u64),
        ..ServeOptions::default()
    };
    if let Some(seed) = args.chaos_seed {
        opts.loopback = chaos::worker_fleet(seed, args.loopback);
        opts.save_policy = SavePolicy::standard().with_faults(chaos::io_plan(seed));
        opts.flaky_threshold = chaos::FLAKY_THRESHOLD;
        if opts.scheduler.speculate_after.is_none() {
            opts.scheduler.speculate_after = Some(Duration::from_millis(150));
        }
        // Scripted deaths plus wire-fault reconnects can burn several
        // attempts on one unlucky unit; give chaos runs headroom so the
        // storm never quarantines a unit (which would fail the corner).
        opts.scheduler.max_unit_attempts = opts.scheduler.max_unit_attempts.max(10);
    }
    opts
}

/// `campaign serve`: bind the listener, serve the corner list to the
/// worker fleet, and hand the merged (bit-identical) campaign report
/// back to the ordinary artifact pipeline.
fn serve_mode(args: &Args, corners: &[CampaignCorner]) -> DistReport {
    let listener = TcpListener::bind(&args.listen).unwrap_or_else(|e| {
        eprintln!("error: cannot listen on {}: {e}", args.listen);
        std::process::exit(1)
    });
    let local = listener.local_addr().expect("listener address");
    println!(
        "serve: listening on {local} ({} loopback workers{})",
        args.loopback,
        if args.chaos_seed.is_some() {
            ", chaos fleet"
        } else {
            ""
        }
    );
    if let Some(path) = &args.port_file {
        write_port_file(path, &local);
    }
    let opts = serve_options(args, args.checkpoint.clone());
    let report = serve_campaign(listener, corners, &opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });
    for w in &report.workers {
        println!(
            "serve: worker {} '{}': {} units, {} samples",
            w.worker_id, w.name, w.units, w.samples
        );
    }
    for name in &report.flaky_rejected {
        println!("serve: quarantined flaky worker '{name}'");
    }
    report
}

/// Overlays a submission's params object onto this service's base
/// flags, strictly: only the campaign-shape keys are accepted, and an
/// unknown key (or a wrong type) rejects the submission at admission
/// instead of silently running something else. Scheduling knobs
/// (`threads`, `batch_lanes`) are accepted but do not change results —
/// and [`issa_dist::proto::campaign_fingerprint`] normalizes them away,
/// so two submissions differing only there share one cache entry.
fn args_from_params(base: &Args, params: &Json) -> Result<Args, String> {
    let mut args = base.clone();
    // Per-submission runs never inherit the service process's run-shape
    // hooks; the service manages checkpoints and cancellation itself.
    args.checkpoint = None;
    args.fresh = false;
    args.abort_after = None;
    args.deadline_s = None;
    args.chaos_seed = None;
    let Json::Obj(members) = params else {
        return Err("params must be a JSON object".to_owned());
    };
    for (key, v) in members {
        match key.as_str() {
            "samples" => {
                args.samples = v
                    .as_usize()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| "'samples' must be a positive integer".to_owned())?;
            }
            "seed" => {
                args.seed = v
                    .as_u64()
                    .ok_or_else(|| "'seed' must be an unsigned integer".to_owned())?;
            }
            "paper_probes" => {
                args.paper_probes = v
                    .as_bool()
                    .ok_or_else(|| "'paper_probes' must be a boolean".to_owned())?;
            }
            "threads" => {
                args.threads = v
                    .as_usize()
                    .ok_or_else(|| "'threads' must be an unsigned integer".to_owned())?;
            }
            "batch_lanes" => {
                args.batch_lanes = v
                    .as_usize()
                    .ok_or_else(|| "'batch_lanes' must be an unsigned integer".to_owned())?;
            }
            "artifacts" => {
                let list = v
                    .as_str()
                    .ok_or_else(|| "'artifacts' must be a comma-separated string".to_owned())?;
                let artifacts: Vec<String> = list
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
                for a in &artifacts {
                    if !ALL_ARTIFACTS.contains(&a.as_str()) {
                        return Err(format!(
                            "unknown artifact '{a}' (known: {})",
                            ALL_ARTIFACTS.join(", ")
                        ));
                    }
                }
                if artifacts.is_empty() {
                    return Err("'artifacts' selects nothing".to_owned());
                }
                args.artifacts = artifacts;
            }
            "tail_fr" => {
                // `null` = classic fixed-sample mode; the client always
                // emits the key so equal flags render equal params.
                args.tail_fr =
                    match v {
                        Json::Null => None,
                        _ => Some(v.as_f64().filter(|fr| *fr > 0.0 && *fr < 1.0).ok_or_else(
                            || "'tail_fr' must be null or a failure rate in (0, 1)".to_owned(),
                        )?),
                    };
            }
            "ci_target" => {
                args.ci_target = v
                    .as_f64()
                    .filter(|t| *t > 0.0)
                    .ok_or_else(|| "'ci_target' must be a positive number".to_owned())?;
            }
            "max_samples" => {
                args.max_samples = match v {
                    Json::Null => None,
                    _ => Some(v.as_usize().filter(|n| *n > 0).ok_or_else(|| {
                        "'max_samples' must be null or a positive integer".to_owned()
                    })?),
                };
            }
            "tail_block" => {
                args.tail_block = v
                    .as_usize()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| "'tail_block' must be a positive integer".to_owned())?;
            }
            other => return Err(format!("unknown campaign parameter '{other}'")),
        }
    }
    Ok(args)
}

/// The inverse of [`args_from_params`]: encodes this client's campaign
/// flags as a submission params object. Always emits every key so the
/// same flags always render the same params — and hence the same
/// campaign fingerprint (cache key) on the service side.
fn submit_params(args: &Args) -> Json {
    Json::Obj(vec![
        ("samples".to_owned(), Json::num_usize(args.samples)),
        ("seed".to_owned(), Json::num_u64(args.seed)),
        ("artifacts".to_owned(), Json::str(args.artifacts.join(","))),
        ("paper_probes".to_owned(), Json::Bool(args.paper_probes)),
        ("threads".to_owned(), Json::num_usize(args.threads)),
        ("batch_lanes".to_owned(), Json::num_usize(args.batch_lanes)),
        (
            "tail_fr".to_owned(),
            args.tail_fr
                .map_or(Json::Null, |fr| Json::Num(format!("{fr}"))),
        ),
        (
            "ci_target".to_owned(),
            Json::Num(format!("{}", args.ci_target)),
        ),
        (
            "max_samples".to_owned(),
            args.max_samples.map_or(Json::Null, Json::num_usize),
        ),
        ("tail_block".to_owned(), Json::num_usize(args.tail_block)),
    ])
}

/// The campaign service's host: params → corners at admission (and,
/// deterministically, again at journal replay), artifact CSVs into
/// `results/<id>/` at completion.
struct BenchHost {
    base: Args,
}

impl ServiceHost for BenchHost {
    fn corners(&self, params: &Json) -> Result<Vec<CampaignCorner>, String> {
        let args = args_from_params(&self.base, params)?;
        let (_tables, corners, _fig7) = build_plan(&args);
        if corners.is_empty() {
            return Err("no artifacts selected".to_owned());
        }
        Ok(corners)
    }

    fn completed(&self, info: &SubmissionInfo, report: &CampaignReport) -> Vec<String> {
        let args = match args_from_params(&self.base, &info.params) {
            Ok(args) => args,
            Err(e) => {
                // Params were validated at admission and journal replay;
                // reaching this means the journal was tampered with.
                eprintln!("service host: params for {} no longer parse: {e}", info.id);
                return Vec::new();
            }
        };
        let (tables, _corners, fig7) = build_plan(&args);
        let mut artifacts = Vec::new();
        for table in &tables {
            let (csv, _missing) = table_csv_rows(table, report);
            if !csv.is_empty() {
                write_csv_at(&info.results_dir, table.csv, CSV_HEADER, &csv);
                artifacts.push(table.csv.to_owned());
            }
        }
        if fig7 {
            write_csv_at(
                &info.results_dir,
                FIG7_CSV,
                FIG7_CSV_HEADER,
                &fig7_csv_rows(report),
            );
            artifacts.push(FIG7_CSV.to_owned());
        }
        artifacts
    }
}

/// `campaign service`: bind the control-plane listener, publish the
/// port, and run the supervised campaign registry until drained
/// (`shutdown` verb or SIGTERM/SIGINT). State lives under `--dir`; a
/// SIGKILLed service replays its journal on the next start and resumes
/// every in-flight campaign from its checkpoint.
fn service_mode(args: &Args) -> ! {
    let listener = TcpListener::bind(&args.listen).unwrap_or_else(|e| {
        eprintln!("error: cannot listen on {}: {e}", args.listen);
        std::process::exit(1)
    });
    let local = listener.local_addr().expect("listener address");
    if let Some(path) = &args.port_file {
        write_port_file(path, &local);
    }
    println!(
        "service: listening on {local}, state dir {}, {} concurrent / {} queued campaigns",
        args.dir.display(),
        args.max_campaigns,
        args.max_queue
    );
    let host = Arc::new(BenchHost { base: args.clone() });
    let opts = ServiceOptions {
        dir: args.dir.clone(),
        max_concurrent: args.max_campaigns,
        max_queue: args.max_queue,
        tenant_quota: args.tenant_quota,
        crash_loop_limit: args.crash_loop_limit,
        flush_every: args.flush_every,
        progress: true,
        handle_signals: true,
        build_info: build_info(),
        cache_eviction: EvictionPolicy {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            max_bytes: args.cache_max_mb.map(|mb| (mb * 1e6) as u64),
            max_age: args.cache_max_age_s.map(Duration::from_secs_f64),
        },
        ..ServiceOptions::default()
    };
    match run_service(listener, host, &opts) {
        Ok(summary) => {
            println!(
                "service drained: {} completed, {} parked for the next start, \
                 {} stale temps swept, {} torn journal bytes dropped",
                summary.completed,
                summary.parked,
                summary.swept.len(),
                summary.torn_bytes
            );
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1)
        }
    }
}

/// One control-plane round trip: connect, send one request line, read
/// one response line, parse it.
fn control_roundtrip(spec: &str, line: &str) -> Result<Json, String> {
    let addr = spec
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .ok_or_else(|| format!("cannot resolve '{spec}'"))?;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(250)))
        .map_err(|e| e.to_string())?;
    use std::io::Write as _;
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = LineReader::new(stream);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match reader.next_line().map_err(|e| format!("recv: {e}"))? {
            NextLine::Line(bytes) => {
                let text = String::from_utf8(bytes).map_err(|_| "non-UTF-8 response".to_owned())?;
                return control::parse(&text).map_err(|e| format!("bad response: {e}"));
            }
            NextLine::Idle => {
                if Instant::now() > deadline {
                    return Err("timed out waiting for a response".to_owned());
                }
            }
            NextLine::TooLong => return Err("response line exceeds the size cap".to_owned()),
            NextLine::Eof => return Err("connection closed before a response".to_owned()),
        }
    }
}

/// `campaign submit|status|cancel|fetch|health|shutdown`: one verb, one
/// JSON response line on stdout. `--wait` (submit/fetch) polls `fetch`
/// until the submission is terminal — surviving service restarts in
/// between — and exits 0 only for `completed`.
fn client_mode(args: &Args) -> ! {
    let spec = args.connect.as_deref().expect("validated in parse()");
    let verb = args.client_verb.as_str();
    let request = match verb {
        "submit" => ControlRequest::Submit {
            tenant: args.tenant.clone(),
            params: submit_params(args),
            crash_after: args.crash_after_sub,
            crash_attempts: args.crash_attempts_sub,
        },
        "status" => ControlRequest::Status {
            id: args.id.clone(),
        },
        "cancel" => ControlRequest::Cancel {
            id: args.id.clone().expect("validated in parse()"),
        },
        "fetch" => ControlRequest::Fetch {
            id: args.id.clone().expect("validated in parse()"),
        },
        "health" => ControlRequest::Health,
        "shutdown" => ControlRequest::Shutdown,
        _ => unreachable!("validated in parse()"),
    };
    let response = control_roundtrip(spec, &request.to_line()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });
    println!("{}", response.render());
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        std::process::exit(1);
    }
    let exit_for = |fetched: &Json| -> ! {
        let state = fetched.get("state").and_then(Json::as_str).unwrap_or("");
        std::process::exit(i32::from(state != "completed"))
    };
    let done = |fetched: &Json| fetched.get("done").and_then(Json::as_bool) == Some(true);
    let wait_id = match verb {
        "submit" if args.wait => response.get("id").and_then(Json::as_str).map(str::to_owned),
        "fetch" if done(&response) => exit_for(&response),
        "fetch" if args.wait => args.id.clone(),
        _ => None,
    };
    let Some(id) = wait_id else {
        std::process::exit(0)
    };
    // Poll until terminal. Round-trip errors are retried (the service
    // may be restarting under us — resumption is the whole point), but
    // a long unbroken error streak means it is not coming back.
    let fetch_line = ControlRequest::Fetch { id }.to_line();
    let mut consecutive_errors = 0u32;
    loop {
        std::thread::sleep(Duration::from_millis(300));
        match control_roundtrip(spec, &fetch_line) {
            Ok(fetched) if done(&fetched) => {
                println!("{}", fetched.render());
                exit_for(&fetched);
            }
            Ok(_) => consecutive_errors = 0,
            Err(e) => {
                consecutive_errors += 1;
                if consecutive_errors >= 200 {
                    eprintln!("error: gave up waiting: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// One result's exact identity: every statistic and every per-sample
/// value down to the f64 bit pattern. Table corners are additionally
/// compared through their literal CSV rows; this covers fig7 corners
/// (no full-precision CSV row) and the raw offset/delay vectors.
fn result_bits(r: &McResult) -> String {
    let mut samples = Fnv64::default();
    for v in r.offsets.iter().chain(&r.delays) {
        samples.update(&v.to_bits().to_le_bytes());
    }
    let h = samples.finish();
    format!(
        "n{} fail{} mu{:016x} sigma{:016x} spec{:016x} delay{:016x} samples{h:016x}",
        r.offsets.len(),
        r.failures.len(),
        r.mu.to_bits(),
        r.sigma.to_bits(),
        r.spec.to_bits(),
        r.mean_delay.to_bits()
    )
}

/// `campaign chaos`: the seeded end-to-end soak. Phase 1 serves the
/// campaign from a *child process* under the full chaos storm (scripted
/// worker deaths, wire faults, a straggler triggering speculation,
/// checkpoint I/O faults, recoverable solver faults) and SIGKILLs it
/// mid-campaign. Phase 2 re-serves in-process from the surviving
/// checkpoint under the same chaos. Phase 3 recomputes everything clean
/// and single-process, sharing only the solver fault plans. Phase 4
/// demands byte-identical CSV rows and bit-exact per-sample values.
/// Exits 0 on byte-identity, 1 on any divergence.
fn chaos_mode(args: &Args, corners: &[CampaignCorner], tables: &[TableArtifact]) -> ! {
    let seed = args.chaos_seed.expect("chaos mode always has a seed");
    let ckpt = args.checkpoint.clone().expect("validated in parse()");
    let dir = parent_dir(&ckpt);
    std::fs::create_dir_all(dir).expect("create chaos dir");
    let dir = dir.canonicalize().expect("canonicalize chaos dir");
    let ckpt_abs = dir.join(ckpt.file_name().expect("checkpoint file name"));
    let _ = std::fs::remove_file(&ckpt_abs);
    println!(
        "chaos: seed {seed}, {} corners, {} healthy + {} crash-scripted workers, dir {}",
        corners.len(),
        args.loopback.max(3),
        chaos::FLAKY_DEATHS,
        dir.display()
    );

    // Phase 1: child coordinator under chaos, SIGKILLed mid-campaign.
    // The child rebuilds identical corners (and solver fault plans) from
    // the forwarded flags — the same agreement contract workers obey. It
    // runs inside the chaos dir so its artifact CSVs land there, not in
    // the caller's results/.
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = std::process::Command::new(exe);
    cmd.current_dir(&dir)
        .arg("serve")
        .args(["--listen", "127.0.0.1:0"])
        .args(["--chaos-seed", &seed.to_string()])
        .args(["--samples", &args.samples.to_string()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--artifacts", &args.artifacts.join(",")])
        .args(["--threads", &args.threads.to_string()])
        .args(["--batch-lanes", &args.batch_lanes.to_string()])
        .args(["--flush-every", &args.flush_every.to_string()])
        .args(["--loopback", &args.loopback.to_string()])
        .args(["--unit-samples", &args.unit_samples.to_string()])
        .args(["--max-unit-attempts", &args.max_unit_attempts.to_string()])
        .args(["--lease-timeout-s", &args.lease_timeout_s.to_string()])
        .args(["--worker-timeout-s", &args.worker_timeout_s.to_string()])
        .arg("--checkpoint")
        .arg(&ckpt_abs);
    if let Some(s) = args.speculate_after_s {
        cmd.args(["--speculate-after-s", &s.to_string()]);
    }
    // Per-sample budgets are configuration too (fingerprinted McConfig
    // fields): without them the resume leg refuses the child's checkpoint.
    if let Some(n) = args.step_budget {
        cmd.args(["--step-budget", &n.to_string()]);
    }
    if let Some(s) = args.wall_budget_s {
        cmd.args(["--wall-budget-s", &s.to_string()]);
    }
    if args.paper_probes {
        cmd.arg("--paper-probes");
    }
    if let Some(fr) = args.tail_fr {
        // Tail flags are configuration: the child must rebuild identical
        // (fingerprinted) corners or the resume leg would refuse the
        // checkpoint. f64 Display round-trips exactly.
        cmd.args(["--tail-fr", &fr.to_string()]);
        cmd.args(["--ci-target", &args.ci_target.to_string()]);
        cmd.args(["--tail-block", &args.tail_block.to_string()]);
        if let Some(m) = args.max_samples {
            cmd.args(["--max-samples", &m.to_string()]);
        }
    }
    let mut child = cmd.spawn().unwrap_or_else(|e| {
        eprintln!("error: cannot spawn chaos coordinator: {e}");
        std::process::exit(1)
    });
    // Kill once the checkpoint holds real content (so records survive
    // into phase 2), plus a seed-dependent delay so the cut point moves
    // with the seed instead of always landing on the first flush.
    let poll_deadline = Instant::now() + Duration::from_secs(300);
    let mut finished_early = false;
    loop {
        if let Ok(Some(status)) = child.try_wait() {
            println!(
                "chaos: coordinator finished before the kill ({status}); \
                 the resume leg degenerates to a full fresh serve"
            );
            finished_early = true;
            break;
        }
        if ckpt_abs.metadata().map(|m| m.len() > 64).unwrap_or(false) {
            break;
        }
        if Instant::now() > poll_deadline {
            let _ = child.kill();
            let _ = child.wait();
            eprintln!("chaos FAIL: no checkpoint content after 300 s");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    if !finished_early {
        std::thread::sleep(chaos::kill_delay(seed));
        child.kill().expect("SIGKILL the chaos coordinator");
        let _ = child.wait();
        println!("chaos: SIGKILLed the coordinator mid-campaign");
    }

    // Phase 2: resume in-process from whatever the kill left behind,
    // under the same chaos (fresh fleet, fresh I/O fault schedule).
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind chaos resume listener");
    let opts = serve_options(args, Some(ckpt_abs.clone()));
    let dist = serve_campaign(listener, corners, &opts).unwrap_or_else(|e| {
        eprintln!("chaos FAIL: resume serve failed: {e}");
        std::process::exit(1)
    });
    println!(
        "chaos: resumed with {} checkpointed records; {} units speculated, \
         {} duplicate results, flaky quarantined: [{}]{}",
        dist.campaign.resumed_records,
        dist.sched.speculated,
        dist.sched.duplicates,
        dist.flaky_rejected.join(", "),
        dist.campaign
            .checkpoint_degraded
            .as_deref()
            .map(|r| format!("; DEGRADED: {r}"))
            .unwrap_or_default()
    );
    if dist.campaign.partial {
        eprintln!("chaos FAIL: resumed campaign is partial");
        std::process::exit(1);
    }

    // Phase 3: the clean reference — single process, no checkpoint, no
    // chaos except the solver fault plans already embedded in `corners`
    // (see `issa_dist::chaos` for why those must be shared).
    println!("chaos: computing the clean single-process reference...");
    let reference = run_campaign(corners, &CampaignOptions::default()).unwrap_or_else(|e| {
        eprintln!("chaos FAIL: reference run failed: {e}");
        std::process::exit(1)
    });

    // Phase 4: byte-identity.
    let mut bad = 0usize;
    let mut rows = 0usize;
    for table in tables {
        for (name, spec) in &table.rows {
            match (dist.campaign.result(name), reference.result(name)) {
                (Some(a), Some(b)) => {
                    rows += 1;
                    let (ra, rb) = (csv_row(spec, "-", a), csv_row(spec, "-", b));
                    if ra != rb {
                        bad += 1;
                        eprintln!("chaos CSV MISMATCH {name}\n  chaos: {ra}\n  clean: {rb}");
                    }
                }
                _ => {
                    bad += 1;
                    eprintln!("chaos MISSING corner '{name}'");
                }
            }
        }
    }
    for corner in corners {
        match (
            dist.campaign.result(&corner.name),
            reference.result(&corner.name),
        ) {
            (Some(a), Some(b)) => {
                let (ba, bb) = (result_bits(a), result_bits(b));
                if ba != bb {
                    bad += 1;
                    eprintln!(
                        "chaos BIT MISMATCH {}\n  chaos: {ba}\n  clean: {bb}",
                        corner.name
                    );
                }
            }
            _ => {
                bad += 1;
                eprintln!("chaos MISSING corner '{}'", corner.name);
            }
        }
    }

    let json = format!(
        "{{\n  \"pass\": {},\n  \"chaos_seed\": {seed},\n  \"corners\": {},\n  \
         \"csv_rows_compared\": {rows},\n  \"mismatches\": {bad},\n  \
         \"resumed_records\": {},\n  \"speculated\": {},\n  \"duplicates\": {},\n  \
         \"flaky_rejected\": [{}],\n  \"checkpoint_degraded\": {},\n  \
         \"killed_coordinator\": {}\n}}\n",
        bad == 0,
        corners.len(),
        dist.campaign.resumed_records,
        dist.sched.speculated,
        dist.sched.duplicates,
        dist.flaky_rejected
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect::<Vec<_>>()
            .join(", "),
        match &dist.campaign.checkpoint_degraded {
            Some(reason) => format!("\"{}\"", json_escape(reason)),
            None => "null".to_owned(),
        },
        !finished_early
    );
    std::fs::write(dir.join("chaos.json"), json).expect("write chaos.json");
    println!("chaos: wrote {}", dir.join("chaos.json").display());
    println!(
        "chaos soak {}: {} corners, {rows} CSV rows byte-compared, {bad} mismatches",
        if bad == 0 { "PASS" } else { "FAIL" },
        corners.len()
    );
    std::process::exit(i32::from(bad != 0))
}

fn main() {
    let args = parse();
    match args.mode {
        Mode::Service => service_mode(&args),
        Mode::Client => client_mode(&args),
        _ => {}
    }
    if args.mode != Mode::Worker {
        if args.fresh {
            if let Some(path) = &args.checkpoint {
                let _ = std::fs::remove_file(path);
            }
        }
        if let Some(path) = &args.checkpoint {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).expect("create checkpoint dir");
                }
            }
        }
        // Debris from a predecessor killed mid-save can never be
        // resumed from; clear it before this run writes its own temps.
        sweep_checkpoint_dir(args.checkpoint.as_ref());
    }

    // Assemble the campaign: every selected artifact contributes named
    // corners, all driven through one durable engine invocation.
    let (tables, corners, fig7) = build_plan(&args);
    if corners.is_empty() {
        usage("no artifacts selected");
    }

    if args.mode == Mode::Worker {
        run_worker_mode(&args, &corners);
        return;
    }
    if args.mode == Mode::Chaos {
        chaos_mode(&args, &corners, &tables);
    }

    println!(
        "campaign: {} corners, {} samples each{}{}",
        corners.len(),
        args.samples,
        match &args.checkpoint {
            Some(p) => format!(", checkpoint {}", p.display()),
            None => ", no checkpoint".to_owned(),
        },
        match args.deadline_s {
            Some(s) => format!(", deadline {s}s"),
            None => String::new(),
        }
    );
    let perf_before = issa_circuit::perf::snapshot();
    let (report, dist) = if args.mode == Mode::Serve {
        let r = serve_mode(&args, &corners);
        (r.campaign, Some((r.workers, r.sched, r.flaky_rejected)))
    } else {
        let opts = CampaignOptions {
            checkpoint: args.checkpoint.clone(),
            flush_every: args.flush_every,
            deadline: args.deadline_s.map(Duration::from_secs_f64),
            handle_signals: true,
            abort_after: args.abort_after,
            progress: true,
            ..CampaignOptions::default()
        };
        let report = run_campaign(&corners, &opts).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        });
        (report, None)
    };

    // Per-artifact outputs: console tables plus CSV, completed corners
    // only — a missing row is reported, never silently dropped.
    for table in &tables {
        println!("\n{}", table.title);
        let (column, value) = table.extra;
        print_table_header(column);
        for (name, spec) in &table.rows {
            if let Some(r) = report.result(name) {
                print_table_row(spec, &value(spec), r);
            }
        }
        let (figure, label) = table.figure;
        println!(
            "\n{figure} view: offset distributions, mean 'x' and +/-6 sigma whiskers, \
             axis -{STRIP_AXIS_MV}..{STRIP_AXIS_MV} mV"
        );
        for (name, spec) in &table.rows {
            if let Some(r) = report.result(name) {
                println!(
                    "{}",
                    render_distribution_strip(&label(spec), r, STRIP_AXIS_MV)
                );
            }
        }
        let (csv, missing) = table_csv_rows(table, &report);
        if csv.is_empty() {
            println!("(no completed corners; nothing written)");
        } else {
            let path = write_csv(table.csv, CSV_HEADER, &csv);
            print!("wrote {} ({} rows", path.display(), csv.len());
            if missing > 0 {
                print!(", {missing} corners missing");
            }
            println!(")");
        }
    }
    if fig7 {
        println!("\nFig. 7: sensing delay vs stress time at 125 C (ps)");
        print!("{:>12}", "t [s]");
        for (series, _, _) in FIG7_SERIES {
            print!("{series:>14}");
        }
        println!();
        let mut rows = Vec::new();
        for &t in &FIG7_TIMES {
            let delays: Vec<Option<f64>> = FIG7_SERIES
                .iter()
                .map(|(series, _, _)| {
                    report
                        .result(&fig7_name(series, t))
                        .map(|r| r.mean_delay * 1e12)
                })
                .collect();
            print!("{t:>12.0e}");
            for d in &delays {
                match d {
                    Some(d) => print!("{d:>14.2}"),
                    None => print!("{:>14}", "-"),
                }
            }
            println!();
            rows.push((t, delays));
        }
        print_fig7_summary(&rows);
        let path = write_csv(FIG7_CSV, FIG7_CSV_HEADER, &fig7_csv_rows(&report));
        println!("wrote {}", path.display());
    }

    // Machine-readable campaign summary.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"proto_version\": {PROTO_VERSION},\n"));
    json.push_str(&format!(
        "  \"build\": \"{}\",\n",
        json_escape(&build_info())
    ));
    json.push_str(&format!("  \"partial\": {},\n", report.partial));
    json.push_str(&format!(
        "  \"cancelled\": {},\n",
        match report.cancelled {
            Some(cause) => format!("\"{cause}\""),
            None => "null".to_owned(),
        }
    ));
    json.push_str(&format!(
        "  \"resumed_records\": {},\n",
        report.resumed_records
    ));
    // Non-null when durability was lost mid-run (persistent checkpoint
    // I/O failures): results are complete, but a kill now cannot resume.
    json.push_str(&format!(
        "  \"checkpoint_degraded\": {},\n",
        match &report.checkpoint_degraded {
            Some(reason) => format!("\"{}\"", json_escape(reason)),
            None => "null".to_owned(),
        }
    ));
    // Process-local simulator counters (batched-mode counters are not
    // carried on the wire, so in serve mode these cover the coordinator
    // process — including its loopback workers — only).
    let local_perf = issa_circuit::perf::snapshot().delta_since(&perf_before);
    json.push_str(&format!(
        "  \"perf\": {{\"transients\": {}, \"newton_iterations\": {}, \"batched_steps\": {}, \
         \"batch_lane_steps\": {}, \"scalar_fallbacks\": {}}},\n",
        local_perf.transients,
        local_perf.newton_iterations,
        local_perf.batched_steps,
        local_perf.batch_lane_steps,
        local_perf.scalar_fallbacks
    ));
    json.push_str("  \"corners\": [\n");
    for (k, corner) in report.corners.iter().enumerate() {
        let (status, detail) = match &corner.outcome {
            CornerOutcome::Completed(r) => {
                let mut detail = format!(
                    ", \"n\": {}, \"requested\": {}, \"mu_mv\": {}, \"mu_ci95_mv\": {}, \
                     \"sigma_mv\": {}, \"spec_mv\": {}, \"delay_ps\": {}, \"failures\": {}",
                    r.offsets.len(),
                    r.requested,
                    json_f64(r.mu * 1e3),
                    json_f64(r.mu_ci95 * 1e3),
                    json_f64(r.sigma * 1e3),
                    json_f64(r.spec * 1e3),
                    json_f64(r.mean_delay * 1e12),
                    r.failures.len()
                );
                // Degenerate statistics (fewer than two surviving
                // offsets) have no defined confidence interval: the CSV
                // cell stays empty and the cause is named here instead
                // of leaking a NaN into the row.
                if r.offsets.len() < 2 {
                    detail.push_str(", \"insufficient_samples\": true");
                }
                if let Some(t) = &r.tail {
                    detail.push_str(&format!(
                        ", \"tail\": {{\"shift\": {}, \"pilot\": {}, \"samples_used\": {}, \
                         \"rounds\": {}, \"converged\": {}, \"ess\": {}, \"tail_ess\": {}, \
                         \"spec_lo_mv\": {}, \"spec_hi_mv\": {}, \"rel_ci_half\": {}}}",
                        json_f64(t.shift),
                        t.pilot,
                        t.samples_used,
                        t.rounds,
                        t.converged,
                        json_f64(t.ess),
                        json_f64(t.tail_ess),
                        json_f64(t.spec_lo * 1e3),
                        json_f64(t.spec_hi * 1e3),
                        json_f64(t.rel_ci_half)
                    ));
                }
                (if r.partial { "partial" } else { "completed" }, detail)
            }
            CornerOutcome::Failed(e) => {
                // The cause classification matches what exit_mc_failure
                // prints: "timed-out" covers watchdog cancellations and
                // distributed units quarantined by the lease machinery.
                let cause = match e {
                    SaError::FailureBudgetExceeded { failures, .. } => {
                        format!(", \"cause\": \"{}\"", failure_cause(failures))
                    }
                    SaError::Cancelled { .. } => ", \"cause\": \"cancelled\"".to_owned(),
                    _ => String::new(),
                };
                (
                    "failed",
                    format!(", \"error\": \"{}\"{cause}", json_escape(&e.to_string())),
                )
            }
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"status\": \"{status}\"{detail}}}{}\n",
            json_escape(&corner.name),
            if k + 1 < report.corners.len() {
                ","
            } else {
                ""
            }
        ));
    }
    if let Some((workers, sched, flaky)) = &dist {
        json.push_str("  ],\n  \"dist\": {\n");
        json.push_str(&format!(
            "    \"retries\": {}, \"reassigned\": {}, \"quarantined_units\": {}, \
             \"duplicates\": {}, \"speculated\": {},\n",
            sched.retries,
            sched.reassigned,
            sched.quarantined_units,
            sched.duplicates,
            sched.speculated
        ));
        json.push_str(&format!(
            "    \"flaky_rejected\": [{}],\n",
            flaky
                .iter()
                .map(|n| format!("\"{}\"", json_escape(n)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        json.push_str("    \"workers\": [\n");
        for (k, w) in workers.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"worker_id\": {}, \"name\": \"{}\", \"units\": {}, \"samples\": {}, \
                 \"sense_calls\": {}, \"transients\": {}, \"recovery_attempts\": {}, \
                 \"cancellations\": {}}}{}\n",
                w.worker_id,
                json_escape(&w.name),
                w.units,
                w.samples,
                w.perf.sense_calls,
                w.perf.circuit.transients,
                w.perf.circuit.recovery_attempts(),
                w.perf.circuit.cancellations,
                if k + 1 < workers.len() { "," } else { "" }
            ));
        }
        json.push_str("    ]\n  }\n}\n");
    } else {
        json.push_str("  ]\n}\n");
    }
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/campaign.json", json).expect("write campaign.json");
    println!("wrote results/campaign.json");

    if report.partial {
        let why = report
            .cancelled
            .map_or_else(|| "incomplete corners".to_owned(), |c| c.to_string());
        println!("\ncampaign PARTIAL ({why}); re-run the same command to resume");
        std::process::exit(3);
    }
    println!("\ncampaign complete");
}
