//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each binary in `src/bin/` reproduces one artifact, printing the paper's
//! numbers next to the measured ones:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1_truth` | Table I — control-logic truth table |
//! | `campaign --artifacts table2,table3,table4,fig7` | Tables II–IV with Figs. 4–6, and Fig. 7 — the Monte Carlo artifacts, checkpointed (also serves workers and runs the campaign service) |
//! | `overhead` | Section IV-C — area/energy overhead accounting |
//! | `ablate_switch_period` | counter width N vs residual imbalance (design choice: N = 8) |
//! | `ablate_idle_stress` | idle-stress weight vs distribution shape |
//! | `ablate_swing_policy` | fixed vs spec-provisioned delay swing |
//! | `ablate_integrator` | time-step/integrator convergence of the probes |
//! | `lifetime_extension` | offset-budget lifetime, NSSA vs ISSA (paper's conclusion) |
//! | `hci_extension` | BTI + Hot Carrier Injection stacking |
//!
//! Beside them, `hotpath_bench`, `tail_bench` and `array_trace` write the
//! `results/BENCH_*.json` records.
//!
//! All Monte Carlo binaries accept `--samples N`, `--seed S`, and
//! `--paper-probes` (slow, fine-grained probes instead of the default fast
//! profile). Absolute millivolts/picoseconds differ from the paper (the
//! substrate is an analytic device model, not the authors' BSIM4 deck);
//! the comparisons to check are the *shapes*: signs and ordering of μ,
//! σ growth, spec ordering, and the Fig. 7 crossover.

pub mod paper;

use issa_core::montecarlo::{FailureKind, McConfig, McResult, SampleFailure};
use issa_core::netlist::SaKind;
use issa_core::probe::ProbeOptions;
use issa_core::workload::{ReadSequence, Workload};
use issa_core::SaError;
use issa_ptm45::Environment;

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchArgs {
    /// Monte Carlo samples per corner.
    pub samples: usize,
    /// Root seed.
    pub seed: u64,
    /// Use the paper-fidelity probe profile (slower).
    pub paper_probes: bool,
}

impl BenchArgs {
    /// Parses `--samples N`, `--seed S`, `--paper-probes` from the process
    /// arguments; unknown arguments abort with a usage message.
    pub fn parse(default_samples: usize) -> Self {
        let mut args = BenchArgs {
            samples: default_samples,
            seed: 0x1554_2017,
            paper_probes: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--samples" => {
                    args.samples = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--samples needs a positive integer"));
                }
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"));
                }
                "--paper-probes" => args.paper_probes = true,
                other => usage(&format!("unknown argument '{other}'")),
            }
        }
        args
    }

    /// Probe options selected by the flags.
    pub fn probe(&self) -> ProbeOptions {
        if self.paper_probes {
            ProbeOptions::default()
        } else {
            ProbeOptions::fast()
        }
    }

    /// Builds the Monte Carlo configuration for one corner.
    pub fn config(
        &self,
        kind: SaKind,
        workload: Workload,
        env: Environment,
        time: f64,
    ) -> McConfig {
        McConfig {
            samples: self.samples,
            seed: self.seed,
            probe: self.probe(),
            delay_samples: 16.min(self.samples),
            ..McConfig::paper(kind, workload, env, time)
        }
    }
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: <bin> [--samples N] [--seed S] [--paper-probes]");
    std::process::exit(2)
}

/// Dominant cause of a quarantine list, as reported in `campaign.json`'s
/// per-corner `"cause"` field and by [`exit_mc_failure`]: any watchdog
/// cancellation (including a distributed unit abandoned by the
/// coordinator's lease machinery) outranks a panic, which outranks an
/// exhausted solver ladder.
#[must_use]
pub fn failure_cause(failures: &[SampleFailure]) -> &'static str {
    if failures.iter().any(|f| f.kind == FailureKind::TimedOut) {
        "timed-out"
    } else if failures.iter().any(|f| f.kind == FailureKind::Panic) {
        "panic"
    } else {
        "solver"
    }
}

/// Reports a failed analysis readably on stderr — the message, and for a
/// [`SaError::FailureBudgetExceeded`] the dominant cause (matching the
/// `"cause"` field in `campaign.json`) plus the full per-sample
/// quarantine list — then exits with status 1. Experiment binaries use
/// this instead of panicking so a dead corner produces a diagnosis, not a
/// backtrace.
pub fn exit_mc_failure(label: &str, e: &SaError) -> ! {
    eprintln!("error: corner '{label}' failed: {e}");
    if let SaError::FailureBudgetExceeded { failures, .. } = e {
        let cause = failure_cause(failures);
        eprintln!("cause: {cause}");
        if cause == "timed-out" {
            eprintln!(
                "hint: timed-out samples were cancelled by a watchdog — a per-sample step/wall \
                 budget, or a distributed unit quarantined after its lease attempts ran out"
            );
        }
        eprintln!(
            "hint: {} sample(s) quarantined; re-run the listed (seed, sample) pairs in isolation \
             to reproduce",
            failures.len()
        );
    }
    std::process::exit(1)
}

/// One experiment corner: scheme, workload, environment, stress time, and
/// the paper's reported numbers for the row.
#[derive(Debug, Clone)]
pub struct CornerSpec {
    /// Row label as printed in the paper (e.g. `"80r0"`, `"80%"`, `"-"`).
    pub label: &'static str,
    /// SA variant.
    pub kind: SaKind,
    /// Read-value mix.
    pub sequence: ReadSequence,
    /// Activation rate.
    pub activation: f64,
    /// Stress time \[s\].
    pub time: f64,
    /// Environment.
    pub env: Environment,
    /// Paper row: (μ mV, σ mV, spec mV, delay ps).
    pub paper: [f64; 4],
}

impl CornerSpec {
    /// Extra row qualifier (time column).
    pub fn time_label(&self) -> String {
        if self.time == 0.0 {
            "0".into()
        } else {
            format!("{:.0e}", self.time)
        }
    }
}

/// Prints the comparison header for a table experiment.
pub fn print_table_header(extra_col: &str) {
    println!(
        "{:<6} {:>6} {:<7} {:>7} | {:>8} {:>8} {:>9} {:>9} | {:>8} {:>8} {:>9} {:>9}",
        "scheme",
        "time",
        "wkld",
        extra_col,
        "mu(P)",
        "sig(P)",
        "spec(P)",
        "delay(P)",
        "mu",
        "sig",
        "spec",
        "delay"
    );
    println!("{}", "-".repeat(116));
}

/// Prints one comparison row: paper values `(P)` next to measured ones.
pub fn print_table_row(spec: &CornerSpec, extra: &str, r: &McResult) {
    println!(
        "{:<6} {:>6} {:<7} {:>7} | {:>8.2} {:>8.2} {:>9.1} {:>9.1} | {:>8.2} {:>8.2} {:>9.1} {:>9.2}",
        spec.kind.name(),
        spec.time_label(),
        spec.label,
        extra,
        spec.paper[0],
        spec.paper[1],
        spec.paper[2],
        spec.paper[3],
        r.mu * 1e3,
        r.sigma * 1e3,
        r.spec * 1e3,
        r.mean_delay * 1e12
    );
}

/// Renders a Fig. 4/5/6-style distribution strip: mean marker and ±6 σ
/// whiskers on a millivolt axis.
pub fn render_distribution_strip(label: &str, r: &McResult, axis_mv: f64) -> String {
    const WIDTH: usize = 81; // odd so zero sits on a column
    let to_col = |mv: f64| -> usize {
        let frac = ((mv + axis_mv) / (2.0 * axis_mv)).clamp(0.0, 1.0);
        (frac * (WIDTH - 1) as f64).round() as usize
    };
    let mut strip = vec![' '; WIDTH];
    strip[to_col(0.0)] = '|';
    let lo = to_col(r.mu * 1e3 - 6.0 * r.sigma * 1e3);
    let hi = to_col(r.mu * 1e3 + 6.0 * r.sigma * 1e3);
    for cell in strip.iter_mut().take(hi + 1).skip(lo) {
        if *cell == ' ' {
            *cell = '-';
        }
    }
    strip[lo] = '[';
    strip[hi] = ']';
    strip[to_col(r.mu * 1e3)] = 'x';
    format!("{label:>17} {}", strip.into_iter().collect::<String>())
}

/// Writes experiment rows as CSV under `results/` (created on demand), so
/// downstream analysis does not have to scrape the console tables.
/// Returns the path written.
///
/// # Panics
///
/// Panics on I/O errors (experiment binaries have no recovery path).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::path::PathBuf {
    write_csv_at(std::path::Path::new("results"), name, header, rows)
}

/// [`write_csv`] into an explicit directory (created on demand) — the
/// campaign service writes each submission's artifacts into its own
/// `results/<id>/` instead of the process-wide `results/`.
///
/// # Panics
///
/// Panics on I/O errors (experiment binaries have no recovery path).
pub fn write_csv_at(
    dir: &std::path::Path,
    name: &str,
    header: &str,
    rows: &[String],
) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    let mut body = String::with_capacity(rows.len() * 64 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for row in rows {
        body.push_str(row);
        body.push('\n');
    }
    std::fs::write(&path, body).expect("write csv");
    path
}

/// Formats one corner's measurement as a CSV row matching
/// [`CSV_HEADER`]. The trailing columns make partial results honest:
/// `n` is the surviving sample count the statistics cover, `mu_ci95_mv`
/// the sample-count-aware 95 % confidence half-width on μ, and `partial`
/// flags a corner cut short by a campaign deadline or interrupt.
/// Undefined diagnostics — the CI of a corner with fewer than two
/// surviving samples, the normality statistic of a tail-mode run —
/// render as empty cells, never `NaN`; `campaign.json` names the cause.
pub fn csv_row(spec: &CornerSpec, extra: &str, r: &McResult) -> String {
    let finite = |v: f64, cell: String| if v.is_finite() { cell } else { String::new() };
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        spec.kind.name(),
        spec.time_label(),
        spec.label,
        extra,
        spec.paper[0],
        spec.paper[1],
        spec.paper[2],
        spec.paper[3],
        r.mu * 1e3,
        r.sigma * 1e3,
        r.spec * 1e3,
        r.mean_delay * 1e12,
        finite(r.ks_sqrt_n, format!("{:.3}", r.ks_sqrt_n)),
        r.offsets.len(),
        finite(r.mu_ci95, format!("{:.4}", r.mu_ci95 * 1e3)),
        u8::from(r.partial),
    )
}

/// Column names for [`csv_row`].
pub const CSV_HEADER: &str = "scheme,time_s,workload,extra,mu_paper_mv,sigma_paper_mv,spec_paper_mv,delay_paper_ps,mu_mv,sigma_mv,spec_mv,delay_ps,ks_sqrt_n,n,mu_ci95_mv,partial";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_spec_time_labels() {
        let spec = CornerSpec {
            label: "80r0",
            kind: SaKind::Nssa,
            sequence: ReadSequence::AllZeros,
            activation: 0.8,
            time: 1e8,
            env: Environment::nominal(),
            paper: [17.3, 15.7, 111.5, 14.3],
        };
        assert_eq!(spec.time_label(), "1e8");
        let fresh = CornerSpec { time: 0.0, ..spec };
        assert_eq!(fresh.time_label(), "0");
    }

    #[test]
    fn distribution_strip_centers_mean() {
        let r = McResult {
            offsets: vec![0.0],
            delays: vec![],
            mu: 0.0,
            sigma: 10e-3,
            spec: 61e-3,
            mean_delay: f64::NAN,
            ks_sqrt_n: 0.5,
            failures: vec![],
            requested: 1,
            partial: false,
            mu_ci95: f64::NAN,
            delay_ci95: f64::NAN,
            tail: None,
            perf: Default::default(),
        };
        let strip = render_distribution_strip("test", &r, 220.0);
        // Zero marker and mean marker coincide at the center column.
        assert!(strip.contains('x'));
        assert!(strip.contains('['));
        assert!(strip.contains(']'));
        let x_pos = strip.find('x').unwrap();
        let open = strip.find('[').unwrap();
        let close = strip.find(']').unwrap();
        assert!(open < x_pos && x_pos < close);
    }
}
