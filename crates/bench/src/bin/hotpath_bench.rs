//! Hot-path benchmark over the Table II reproduction.
//!
//! Two comparisons, one artifact (`results/BENCH_hotpath.json`):
//!
//! 1. **reference vs fast probe mode** (in-process): fast mode enables the
//!    guided offset search and early-exit transients; reference mode
//!    disables both. Every corner's physical results must be bit-identical
//!    — the probe-layer optimizations are exact by construction.
//! 2. **scalar fast vs batched** (in-process): the same fast probes
//!    scheduled through the lockstep batch engine
//!    ([`issa_core::batch`], 8 lanes). Bit-identical again; the JSON's
//!    `batched` section records wall time, lane occupancy, and
//!    scalar-fallback count.
//!
//! Each mode's entry holds its wall times and exact work counters
//! (probes, transients, timesteps, Newton iterations). The wall times
//! make the file a record of one host, so `run_experiments.sh` does not
//! regenerate it.
//!
//! ```sh
//! cargo run --release -p issa-bench --bin hotpath_bench [--samples N] [--seed S]
//! ```

use issa_bench::{paper, BenchArgs};
use issa_core::montecarlo::{run_mc, McConfig, McPerf, McResult};

/// Lane count of the batched pass (both SA netlists round to 8-wide
/// lanes at this setting).
const BATCH_LANES: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum ProbeMode {
    /// Warm start and early exit disabled.
    Reference,
    /// The production scalar path (`ProbeOptions::fast`).
    Fast,
    /// Fast probes through the lockstep batch engine.
    Batched,
}

fn run_corners(args: &BenchArgs, mode: ProbeMode) -> (Vec<McResult>, McPerf) {
    let mut results = Vec::new();
    let mut total = McPerf::default();
    for spec in paper::table2() {
        let mut cfg: McConfig = args.config(
            spec.kind,
            issa_core::workload::Workload::new(spec.activation, spec.sequence),
            spec.env,
            spec.time,
        );
        match mode {
            ProbeMode::Reference => cfg.probe = cfg.probe.reference(),
            ProbeMode::Fast => {}
            ProbeMode::Batched => cfg.batch_lanes = BATCH_LANES,
        }
        let r = run_mc(&cfg).unwrap_or_else(|e| issa_bench::exit_mc_failure(spec.label, &e));
        total.offset_wall_s += r.perf.offset_wall_s;
        total.delay_wall_s += r.perf.delay_wall_s;
        total.probes += r.perf.probes;
        total.circuit = total.circuit.saturating_add(&r.perf.circuit);
        results.push(r);
    }
    (results, total)
}

fn json_mode(p: &McPerf) -> String {
    format!(
        concat!(
            "{{\"wall_s\": {:.3}, \"offset_wall_s\": {:.3}, \"delay_wall_s\": {:.3}, ",
            "\"probes\": {}, \"transients\": {}, \"timesteps\": {}, ",
            "\"newton_iterations\": {}, \"lu_factorizations\": {}, ",
            "\"recovery_attempts\": {}, \"recoveries_failed\": {}}}"
        ),
        p.offset_wall_s + p.delay_wall_s,
        p.offset_wall_s,
        p.delay_wall_s,
        p.probes,
        p.circuit.transients,
        p.circuit.timesteps,
        p.circuit.newton_iterations,
        p.circuit.lu_factorizations,
        p.circuit.recovery_attempts(),
        p.circuit.recoveries_failed,
    )
}

fn main() {
    let mut args = BenchArgs {
        samples: 40,
        seed: 0x1554_2017,
        paper_probes: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| {
            it.next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("error: {name} needs a number");
                    eprintln!("usage: hotpath_bench [--samples N] [--seed S]");
                    std::process::exit(2)
                })
        };
        match arg.as_str() {
            "--samples" => args.samples = num("--samples") as usize,
            "--seed" => args.seed = num("--seed") as u64,
            other => {
                eprintln!("error: unknown argument '{other}'");
                eprintln!("usage: hotpath_bench [--samples N] [--seed S]");
                std::process::exit(2)
            }
        }
    }
    println!(
        "hot-path benchmark: Table II reproduction, {} samples/corner, reference vs fast probes\n",
        args.samples
    );

    let (ref_results, ref_perf) = run_corners(&args, ProbeMode::Reference);
    println!("reference  {}", ref_perf.report());
    let (fast_results, fast_perf) = run_corners(&args, ProbeMode::Fast);
    println!("fast       {}", fast_perf.report());
    let (batched_results, batched_perf) = run_corners(&args, ProbeMode::Batched);
    println!("batched    {}", batched_perf.report());

    // McResult equality compares the physical outputs (offsets, delays,
    // statistics) and ignores perf — exactly the bit-identity contract.
    let identical = ref_results == fast_results;
    let batched_identical = fast_results == batched_results;
    let ref_wall = ref_perf.offset_wall_s + ref_perf.delay_wall_s;
    let fast_wall = fast_perf.offset_wall_s + fast_perf.delay_wall_s;
    let batched_wall = batched_perf.offset_wall_s + batched_perf.delay_wall_s;
    let mode_speedup = ref_wall / fast_wall;
    let batched_speedup = fast_wall / batched_wall;
    // Mean fraction of lanes doing useful work per lockstep round.
    let bc = &batched_perf.circuit;
    let occupancy = if bc.batched_steps > 0 {
        bc.batch_lane_steps as f64 / (bc.batched_steps as f64 * BATCH_LANES as f64)
    } else {
        0.0
    };
    println!(
        "\nbit-identical: {identical}   mode speedup: {mode_speedup:.2}x ({ref_wall:.2}s -> {fast_wall:.2}s)"
    );
    println!(
        "batched bit-identical: {batched_identical}   batched speedup: {batched_speedup:.2}x \
         ({fast_wall:.2}s -> {batched_wall:.2}s)   lane occupancy: {occupancy:.3}   \
         scalar fallbacks: {}",
        bc.scalar_fallbacks
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"table2_reproduction\",\n",
            "  \"corners\": {},\n",
            "  \"samples_per_corner\": {},\n",
            "  \"seed\": {},\n",
            "  \"bit_identical_reference_vs_fast\": {},\n",
            "  \"mode_speedup\": {:.3},\n",
            "  \"reference_mode\": {},\n",
            "  \"after\": {},\n",
            "  \"bit_identical_batched_vs_fast\": {},\n",
            "  \"batched_speedup\": {:.3},\n",
            "  \"batched\": {{\"wall_s\": {:.3}, \"lane_width\": {}, \"occupancy\": {:.4}, ",
            "\"scalar_fallbacks\": {}, \"batched_steps\": {}, \"batch_lane_steps\": {}}}\n",
            "}}\n"
        ),
        ref_results.len(),
        args.samples,
        args.seed,
        identical,
        mode_speedup,
        json_mode(&ref_perf),
        json_mode(&fast_perf),
        batched_identical,
        batched_speedup,
        batched_wall,
        BATCH_LANES,
        occupancy,
        bc.scalar_fallbacks,
        bc.batched_steps,
        bc.batch_lane_steps,
    );
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join("BENCH_hotpath.json");
    std::fs::write(&path, json).expect("write BENCH_hotpath.json");
    println!("wrote {}", path.display());

    if !identical {
        eprintln!("error: fast-mode results diverged from reference mode");
        std::process::exit(1);
    }
    if !batched_identical {
        eprintln!("error: batched results diverged from the scalar fast mode");
        std::process::exit(1);
    }
}
