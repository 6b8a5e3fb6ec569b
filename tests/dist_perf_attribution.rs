//! Per-worker hot-path counters are exact even in loopback mode, where
//! the workers compute concurrently in one process: summed over the
//! workers, they equal the process-wide delta over the campaign.
//!
//! This is its own test binary, holding one test, so that nothing else
//! simulates in the process while the global counters are read.

use issa::circuit::PerfSnapshot;
use issa::core::campaign::CampaignCorner;
use issa::core::montecarlo::{run_mc, McConfig};
use issa::dist::coordinator::{serve_campaign, ServeOptions};
use issa::dist::proto::WorkerPerf;
use issa::dist::scheduler::SchedulerConfig;
use issa::dist::worker::WorkerOptions;
use issa::prelude::*;
use std::net::TcpListener;
use std::time::Duration;

fn corner(name: &str, duty: f64, batch_lanes: usize) -> CampaignCorner {
    CampaignCorner {
        name: name.into(),
        cfg: McConfig {
            batch_lanes,
            ..McConfig::smoke(
                SaKind::Nssa,
                Workload::new(duty, ReadSequence::AllZeros),
                Environment::nominal(),
                1e8,
                8,
            )
        },
    }
}

#[test]
fn worker_perf_sums_to_the_global_delta_exactly() {
    // Scalar and batched corners, so both the per-transient flush and
    // the batched-round counters are exercised.
    let corners = [
        corner("scalar-80r0", 0.8, 0),
        corner("scalar-50r0", 0.5, 0),
        corner("batched-80r0", 0.8, 4),
        corner("batched-20r0", 0.2, 4),
    ];
    let worker = |name: &str| WorkerOptions {
        name: name.into(),
        ..WorkerOptions::default()
    };
    let circuit_before = issa::circuit::perf::snapshot();
    let sense_before = issa::core::perf::sense_calls();
    let report = serve_campaign(
        TcpListener::bind("127.0.0.1:0").expect("bind loopback"),
        &corners,
        &ServeOptions {
            scheduler: SchedulerConfig {
                unit_samples: 4,
                ..SchedulerConfig::default()
            },
            poll: Duration::from_millis(10),
            loopback: vec![worker("w1"), worker("w2")],
            ..ServeOptions::default()
        },
    )
    .expect("serve completes");
    // The coordinator's merges re-assemble records without solving, so
    // every counted transient ran inside some worker's unit.
    let global = WorkerPerf {
        circuit: issa::circuit::perf::snapshot().delta_since(&circuit_before),
        sense_calls: issa::core::perf::sense_calls() - sense_before,
    };

    assert!(!report.campaign.partial);
    assert_eq!(report.sched.duplicates + report.sched.speculated, 0);
    let sum = report
        .workers
        .iter()
        .fold(WorkerPerf::default(), |acc, w| acc.saturating_add(&w.perf));
    assert!(global.circuit.batched_steps > 0 && global.sense_calls > 0);
    // The wire does not carry the batched-mode diagnostics (batched
    // rounds, lane steps, scalar fallbacks); every other counter must
    // match exactly.
    let carried = WorkerPerf {
        circuit: PerfSnapshot {
            batched_steps: 0,
            batch_lane_steps: 0,
            scalar_fallbacks: 0,
            ..global.circuit
        },
        ..global
    };
    assert_eq!(sum, carried, "worker perf must partition the global delta");
    assert!(
        report.workers.iter().all(|w| w.units > 0),
        "both workers computed: {:?}",
        report.workers
    );
    for c in &corners {
        assert_eq!(
            report.campaign.result(&c.name).expect("corner completes"),
            &run_mc(&c.cfg).unwrap()
        );
    }
}
