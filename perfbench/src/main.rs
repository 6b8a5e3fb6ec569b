//! The repository benchmark: one workload per run, timed end to end
//! through the crates' public entry points, or traced layer by layer.
//!
//! ```text
//! perfbench --workload <service_table2|dist_table2|tail_1e9> --seed N
//!           --seconds S --trace <0|1>
//!           [--samples N] [--corrupt-digest] [--force-miss]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! The exit status is 0 only when every output check passed.

mod common;
mod dist;
mod layer;
mod metrics;
mod service;
mod tail;
mod verify;

use common::{peak_rss_mb, Ctx, Inject, Metric, Report, Tracer, TABLE2_SAMPLES};
use std::fmt::Write as _;
use std::path::PathBuf;

const WORKLOADS: [&str; 3] = ["service_table2", "dist_table2", "tail_1e9"];

fn usage(why: &str) -> ! {
    eprintln!("error: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1> \
         [--samples N] [--corrupt-digest] [--force-miss]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    samples: usize,
    inject: Inject,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: common::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        samples: TABLE2_SAMPLES,
        inject: Inject::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--samples" => {
                args.samples = value()
                    .parse()
                    .ok()
                    .filter(|n| *n >= 2)
                    .unwrap_or_else(|| usage("--samples needs an integer >= 2"));
            }
            "--corrupt-digest" => args.inject.corrupt_digest = true,
            "--force-miss" => args.inject.force_miss = true,
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage("--workload must name one of the workloads");
    }
    args
}

/// Renders the result line; checks that exactly the named metrics were
/// produced, each with its declared unit and a finite value.
fn render(rep: &mut Report, trace: bool) -> String {
    let (declared, produced): (&[(&str, &str)], Vec<Metric>) = if trace {
        (&metrics::PER_LAYER, rep.per_layer.clone())
    } else {
        (&metrics::END_TO_END, rep.end_to_end.clone())
    };
    let mut body = String::new();
    for (name, unit) in declared {
        let Some((_, value, got_unit)) = produced.iter().find(|(n, _, _)| n == name) else {
            rep.problem(format!("metric {name} was not produced"));
            continue;
        };
        if got_unit != unit {
            rep.problem(format!(
                "metric {name} has unit {got_unit}, declared {unit}"
            ));
        }
        let value = if value.is_finite() {
            *value
        } else {
            rep.problem(format!("metric {name} is not finite"));
            0.0
        };
        if !body.is_empty() {
            body.push(',');
        }
        let _ = write!(
            body,
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    for (name, _, _) in &produced {
        if !declared.iter().any(|(n, _)| n == name) {
            rep.problem(format!("metric {name} is not declared"));
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        rep.problems.is_empty() && rep.failed == 0,
        rep.attempted.max(1),
        rep.failed
    )
}

fn main() {
    let args = parse_args();
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("run-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        samples: args.samples,
        work: work.clone(),
        store: root.join("store"),
        inject: args.inject,
        tracer: Tracer::new(args.trace),
    };
    let mut rep = match args.workload.as_str() {
        "service_table2" => service::run(&ctx),
        "dist_table2" => dist::run(&ctx),
        _ => tail::run(&ctx),
    };
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    let success = rep.success_frac();
    rep.e2e("success_frac", success, "1");
    rep.layer(
        "check.reference_count_diffs",
        rep.reference_count_diffs as f64,
        "count",
    );
    if args.trace {
        let path = root
            .join("trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match ctx.tracer.write(&path) {
            Ok(()) => rep.note(format!("spans written to {}", path.display())),
            Err(e) => rep.note(format!("cannot write spans to {}: {e}", path.display())),
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    let line = render(&mut rep, args.trace);
    for note in &rep.notes {
        eprintln!("note: {note}");
    }
    for problem in &rep.problems {
        eprintln!("problem: {problem}");
    }
    println!("{line}");
    let correct = rep.problems.is_empty() && rep.failed == 0;
    std::process::exit(i32::from(!correct));
}
