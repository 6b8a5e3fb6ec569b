//! Distributed campaign end-to-end, in loopback mode: in-process workers
//! speaking the real TCP protocol to a real coordinator. The acceptance
//! contract throughout is *bit-identity* — any worker count, any lease
//! churn, any scripted crash or wire fault must merge to exactly the
//! result a single-process [`run_mc`] produces.

use issa::circuit::cancel::CancelCause;
use issa::circuit::faultinject::{FaultKind, FaultPlan};
use issa::core::campaign::{run_campaign, CampaignCorner, CampaignOptions, CornerOutcome};
use issa::core::montecarlo::{run_mc, FailureKind, McConfig, McPhase};
use issa::dist::coordinator::{serve_campaign, DistReport, ServeOptions};
use issa::dist::frame::{FrameStream, WireFault, WireFaultPlan};
use issa::dist::proto::{campaign_fingerprint, Msg, UnitAssignment, PROTO_VERSION};
use issa::dist::scheduler::SchedulerConfig;
use issa::dist::worker::{run_worker, WorkerOptions};
use issa::dist::DistError;
use issa::prelude::*;
use issa::SaError;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SAMPLES: usize = 8;

fn base_cfg(duty: f64) -> McConfig {
    McConfig::smoke(
        SaKind::Nssa,
        Workload::new(duty, ReadSequence::AllZeros),
        Environment::nominal(),
        1e8,
        SAMPLES,
    )
}

fn corner(name: &str, cfg: McConfig) -> CampaignCorner {
    CampaignCorner {
        name: name.into(),
        cfg,
    }
}

fn temp_ckpt(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("issa-dist-{}-{tag}-{n}.ckpt", std::process::id()))
}

/// Small units and tight timers so tests exercise rebalancing without
/// slow-timer waits.
fn test_scheduler() -> SchedulerConfig {
    SchedulerConfig {
        unit_samples: 2,
        lease_timeout: Duration::from_secs(20),
        retry_backoff: Duration::from_millis(30),
        ..SchedulerConfig::default()
    }
}

fn worker(name: &str) -> WorkerOptions {
    WorkerOptions {
        name: name.into(),
        reconnect_backoff: Duration::from_millis(25),
        ..WorkerOptions::default()
    }
}

fn serve(corners: &[CampaignCorner], opts: &ServeOptions) -> DistReport {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    serve_campaign(listener, corners, opts).expect("serve starts")
}

/// The headline contract: a three-worker distributed campaign over two
/// corners merges to exactly the single-process result for every corner,
/// and every sample is attributed to exactly one worker.
#[test]
fn three_loopback_workers_merge_bit_identically() {
    let corners = [
        corner("nssa-80r0", base_cfg(0.8)),
        corner("nssa-50r0", base_cfg(0.5)),
    ];
    let report = serve(
        &corners,
        &ServeOptions {
            scheduler: test_scheduler(),
            poll: Duration::from_millis(10),
            loopback: vec![worker("w1"), worker("w2"), worker("w3")],
            ..ServeOptions::default()
        },
    );

    assert!(!report.campaign.partial);
    assert_eq!(report.campaign.cancelled, None);
    for c in &corners {
        let reference = run_mc(&c.cfg).unwrap();
        assert_eq!(
            report.campaign.result(&c.name).expect("corner completes"),
            &reference,
            "corner {:?} must be bit-identical to the local run",
            c.name
        );
    }

    // Conservation: each phase record merged exactly once, across however
    // many workers contributed.
    let delay_counts: usize = corners.iter().map(|c| c.cfg.delay_samples).sum();
    let merged: u64 = report.workers.iter().map(|w| w.samples).sum();
    assert_eq!(merged as usize, 2 * SAMPLES + delay_counts);
    assert!(report.workers.len() >= 3, "all three workers handshaked");
    assert!(
        report
            .workers
            .iter()
            .all(|w| w.units == 0 || w.perf.circuit.newton_iterations > 0),
        "workers that merged units must report hot-path perf counters"
    );
}

/// Kill a worker mid-campaign while it holds a lease: the coordinator
/// must notice the dropped connection, retry the unit on the surviving
/// worker, and still merge the bit-identical result.
#[test]
fn worker_death_mid_unit_is_reassigned_bit_identically() {
    let corners = [corner("corner", base_cfg(0.8))];
    let reference = run_mc(&corners[0].cfg).unwrap();

    let dying = WorkerOptions {
        die_after_assignments: Some(1),
        ..worker("doomed")
    };
    let survivor = WorkerOptions {
        // Let the doomed worker take (and die holding) the first unit.
        start_delay: Duration::from_millis(150),
        ..worker("survivor")
    };
    let report = serve(
        &corners,
        &ServeOptions {
            scheduler: test_scheduler(),
            poll: Duration::from_millis(10),
            loopback: vec![dying, survivor],
            ..ServeOptions::default()
        },
    );

    assert!(
        report.sched.retries >= 1,
        "the doomed worker's lease must have been revoked and retried"
    );
    assert!(!report.campaign.partial);
    assert_eq!(
        report.campaign.result("corner").expect("completes"),
        &reference
    );
}

/// Wire faults — dropped, bit-flipped, duplicated, and truncated frames —
/// cost reconnects and retries, never correctness.
#[test]
fn wire_faults_are_survived_bit_identically() {
    let corners = [corner("corner", base_cfg(0.8))];
    let reference = run_mc(&corners[0].cfg).unwrap();

    // Sequence numbers count every outgoing worker frame (hello=0,
    // first request=1, ...). Which message each later fault lands on
    // depends on heartbeat timing — irrelevant: every class must be
    // survivable wherever it strikes.
    let faults = WireFaultPlan::new(vec![
        (1, WireFault::Drop),
        (4, WireFault::FlipBit { byte: 13, bit: 2 }),
        (7, WireFault::Duplicate),
        (10, WireFault::TruncateTo(9)),
    ]);
    let faulty = WorkerOptions {
        wire_faults: Some(faults.clone()),
        // A dropped frame is only noticed at the read deadline; keep it
        // short so the test turns around quickly.
        read_timeout: Duration::from_millis(400),
        ..worker("faulty")
    };
    let report = serve(
        &corners,
        &ServeOptions {
            scheduler: SchedulerConfig {
                // Every reconnect revokes the in-flight lease; leave
                // headroom so faults cannot exhaust a unit's attempts.
                max_unit_attempts: 8,
                ..test_scheduler()
            },
            poll: Duration::from_millis(10),
            worker_timeout: Duration::from_secs(2),
            loopback: vec![faulty],
            ..ServeOptions::default()
        },
    );

    assert!(faults.frames_sent() > 10, "all scheduled faults fired");
    assert!(
        report.workers.len() >= 2,
        "wire faults must have forced at least one re-handshake"
    );
    assert_eq!(report.sched.quarantined_units, 0);
    assert!(!report.campaign.partial);
    assert_eq!(
        report.campaign.result("corner").expect("completes"),
        &reference
    );
}

/// Interop with the single-process engine's durability: a checkpoint
/// written by an aborted local `run_campaign` is resumed by the
/// *distributed* coordinator, finishing bit-identically and cleaning up.
#[test]
fn serve_resumes_a_single_process_checkpoint_bit_identically() {
    let corners = [corner("corner", base_cfg(0.8))];
    let reference = run_mc(&corners[0].cfg).unwrap();
    let path = temp_ckpt("local-to-dist");

    let aborted = run_campaign(
        &corners,
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            flush_every: 1,
            abort_after: Some(3),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert!(aborted.partial);
    assert!(path.exists());

    let report = serve(
        &corners,
        &ServeOptions {
            scheduler: test_scheduler(),
            poll: Duration::from_millis(10),
            checkpoint: Some(path.clone()),
            flush_every: 1,
            loopback: vec![worker("w1"), worker("w2")],
            ..ServeOptions::default()
        },
    );

    assert!(report.campaign.resumed_records >= 3);
    assert!(!report.campaign.partial);
    assert_eq!(
        report.campaign.result("corner").expect("completes"),
        &reference
    );
    assert!(
        !path.exists(),
        "a fully completed campaign removes its checkpoint"
    );
}

/// Coordinator restart: a distributed run aborted mid-corner leaves a
/// checkpoint that a *fresh* coordinator resumes to the bit-identical
/// final result — the in-test analogue of kill -9 on the serve process.
#[test]
fn aborted_serve_resumes_bit_identically() {
    let corners = [corner("corner", base_cfg(0.8))];
    let reference = run_mc(&corners[0].cfg).unwrap();
    let path = temp_ckpt("dist-to-dist");

    let aborted = serve(
        &corners,
        &ServeOptions {
            scheduler: test_scheduler(),
            poll: Duration::from_millis(10),
            checkpoint: Some(path.clone()),
            flush_every: 1,
            abort_after_units: Some(2),
            loopback: vec![worker("w1")],
            ..ServeOptions::default()
        },
    );
    assert!(aborted.campaign.partial);
    assert_eq!(aborted.campaign.cancelled, Some(CancelCause::Interrupt));
    assert!(path.exists(), "an aborted serve leaves its checkpoint");

    let resumed = serve(
        &corners,
        &ServeOptions {
            scheduler: test_scheduler(),
            poll: Duration::from_millis(10),
            checkpoint: Some(path.clone()),
            flush_every: 1,
            loopback: vec![worker("w1"), worker("w2")],
            ..ServeOptions::default()
        },
    );

    assert!(resumed.campaign.resumed_records >= 2);
    assert!(!resumed.campaign.partial);
    assert_eq!(
        resumed.campaign.result("corner").expect("completes"),
        &reference
    );
    assert!(!path.exists());
}

/// A `StallSteps`-injected sample trips its step budget on a *worker*,
/// and the quarantine record that comes back over the wire is exactly
/// the one the local watchdog produces.
#[test]
fn stalled_sample_quarantine_matches_local_run_bit_identically() {
    let plan = Arc::new(FaultPlan::new().transient(5, 2, FaultKind::StallSteps(2_000_000)));
    let cfg = McConfig {
        fault_plan: Some(plan),
        sample_step_budget: Some(1_000_000),
        max_failure_frac: 0.2,
        ..base_cfg(0.8)
    };
    let reference = run_mc(&cfg).unwrap();
    assert_eq!(reference.failures.len(), 1, "fixture: sample 5 must stall");

    let corners = [corner("corner", cfg)];
    let report = serve(
        &corners,
        &ServeOptions {
            scheduler: test_scheduler(),
            poll: Duration::from_millis(10),
            loopback: vec![worker("w1"), worker("w2")],
            ..ServeOptions::default()
        },
    );

    let result = report.campaign.result("corner").expect("completes");
    assert_eq!(result, &reference);
    assert_eq!(result.failures[0].kind, FailureKind::TimedOut);
    assert_eq!(result.failures[0].index, 5);
}

/// When every lease attempt dies, the unit is quarantined as `TimedOut`
/// failures and the corner fails through the ordinary failure-budget
/// machinery — no special distributed error path, no hang.
#[test]
fn exhausted_retries_quarantine_through_the_failure_budget() {
    let cfg = McConfig {
        max_failure_frac: 1.0,
        ..McConfig::smoke(
            SaKind::Nssa,
            Workload::new(0.8, ReadSequence::AllZeros),
            Environment::nominal(),
            1e8,
            2,
        )
    };
    let corners = [corner("corner", cfg)];

    // Two workers, each scripted to die on its first assignment; two
    // attempts allowed. One unit covers both samples, so the unit dies
    // twice and is quarantined with nobody left to compute anything.
    let report = serve(
        &corners,
        &ServeOptions {
            scheduler: SchedulerConfig {
                unit_samples: 2,
                max_unit_attempts: 2,
                retry_backoff: Duration::from_millis(20),
                ..test_scheduler()
            },
            poll: Duration::from_millis(10),
            loopback: vec![
                WorkerOptions {
                    die_after_assignments: Some(1),
                    ..worker("doomed-1")
                },
                WorkerOptions {
                    die_after_assignments: Some(1),
                    start_delay: Duration::from_millis(50),
                    ..worker("doomed-2")
                },
            ],
            ..ServeOptions::default()
        },
    );

    assert_eq!(report.sched.quarantined_units, 1);
    assert!(report.sched.retries >= 1);
    let outcome = &report
        .campaign
        .corners
        .iter()
        .find(|c| c.name == "corner")
        .expect("corner reported")
        .outcome;
    match outcome {
        CornerOutcome::Failed(SaError::FailureBudgetExceeded {
            failed,
            total,
            failures,
        }) => {
            assert_eq!((*failed, *total), (2, 2));
            assert!(failures.iter().all(|f| f.kind == FailureKind::TimedOut
                && f.phase == McPhase::Offset
                && f.error.contains("quarantined after")));
        }
        other => panic!("expected a failure-budget error, got {other:?}"),
    }
    assert!(report.campaign.partial);
}

/// Speculative re-execution: a scripted straggler holds a lease idle
/// while a fast worker drains the rest of the phase; with
/// `speculate_after` armed, the idle fast worker receives a duplicate
/// copy of the straggler's unit, first result wins, and the merged
/// campaign is still bit-identical to the local run.
#[test]
fn speculation_absorbs_a_straggler_bit_identically() {
    let corners = [corner("corner", base_cfg(0.8))];
    let reference = run_mc(&corners[0].cfg).unwrap();

    let straggler = WorkerOptions {
        // Long enough that the fast worker is provably idle and the
        // speculation threshold has passed, short against lease_timeout
        // so the lease itself never expires.
        unit_delay: Duration::from_millis(600),
        ..worker("straggler")
    };
    let fast = WorkerOptions {
        start_delay: Duration::from_millis(60),
        ..worker("fast")
    };
    let report = serve(
        &corners,
        &ServeOptions {
            scheduler: SchedulerConfig {
                speculate_after: Some(Duration::from_millis(150)),
                ..test_scheduler()
            },
            poll: Duration::from_millis(10),
            loopback: vec![straggler, fast],
            ..ServeOptions::default()
        },
    );

    assert!(
        report.sched.speculated >= 1,
        "the idle fast worker must have been handed a speculative copy"
    );
    // The losing copy is absorbed idempotently — as a `Duplicate` if it
    // lands while the phase is still open, or ignored as `Unknown` if
    // the speculative result already completed the phase. Either way it
    // must never count as a retry or quarantine.
    assert_eq!(report.sched.quarantined_units, 0);
    assert!(!report.campaign.partial);
    assert_eq!(
        report.campaign.result("corner").expect("completes"),
        &reference,
        "speculation is scheduling, not physics: the result must be bit-identical"
    );
}

/// Flaky-worker quarantine end to end: a crash-looping worker (same name
/// every reconnect, dies holding a lease every session) accumulates
/// lease-revocation score until its re-handshake is rejected with its
/// record in the reason; a healthy worker then completes the campaign
/// bit-identically.
#[test]
fn crash_looping_worker_is_quarantined_and_campaign_completes() {
    let corners = vec![corner("corner", base_cfg(0.8))];
    let reference = run_mc(&corners[0].cfg).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener addr");

    // The controller thread crash-loops a worker named "flapper" until
    // the coordinator turns it away, then brings up a healthy worker so
    // the campaign can finish. Sequencing the healthy worker *after* the
    // rejection makes the quarantine deterministic: until then the
    // flapper is the only compute and every unit it touches is revoked.
    let thread_corners = corners.clone();
    let controller = std::thread::spawn(move || {
        let mut deaths = 0u32;
        let reason = loop {
            let opts = WorkerOptions {
                die_after_assignments: Some(1),
                connect_attempts: 400,
                reconnect_backoff: Duration::from_millis(10),
                ..WorkerOptions {
                    name: "flapper".into(),
                    ..WorkerOptions::default()
                }
            };
            match run_worker(addr, &thread_corners, &opts) {
                Ok(stats) if stats.died => deaths += 1,
                Ok(_) => break None, // campaign ended before quarantine
                Err(DistError::Rejected(reason)) => break Some(reason),
                Err(other) => panic!("unexpected worker error: {other}"),
            }
        };
        let healthy = WorkerOptions {
            connect_attempts: 400,
            reconnect_backoff: Duration::from_millis(10),
            ..WorkerOptions {
                name: "healthy".into(),
                ..WorkerOptions::default()
            }
        };
        run_worker(addr, &thread_corners, &healthy).expect("healthy worker finishes");
        (deaths, reason)
    });

    let report = serve_campaign(
        listener,
        &corners,
        &ServeOptions {
            scheduler: SchedulerConfig {
                // Deaths burn unit attempts; leave headroom so the
                // crash loop cannot quarantine a *unit* before the
                // coordinator quarantines the *worker*.
                max_unit_attempts: 16,
                ..test_scheduler()
            },
            poll: Duration::from_millis(10),
            worker_timeout: Duration::from_secs(2),
            flaky_threshold: 2.0,
            flaky_halflife: Duration::from_secs(600),
            ..ServeOptions::default()
        },
    )
    .expect("serve completes");
    let (deaths, reason) = controller.join().expect("controller thread");

    // At least two deaths cross the 2.0 threshold; a death can slip in
    // one extra handshake if it reconnects inside the coordinator's
    // poll interval, before the revocation is scored.
    assert!(
        (2..=4).contains(&deaths),
        "the threshold of 2.0 is crossed after two scored revocations, got {deaths}"
    );
    let reason = reason.expect("the flapper must have been rejected, not drained");
    assert!(
        reason.contains("flapper")
            && reason.contains("quarantined as flaky")
            && reason.contains("lease revocations"),
        "the rejection must carry the worker's record: {reason:?}"
    );
    assert_eq!(report.flaky_rejected, vec!["flapper".to_owned()]);
    assert!(!report.campaign.partial);
    assert_eq!(
        report.campaign.result("corner").expect("completes"),
        &reference,
        "quarantine rebalances work; it must not perturb the result"
    );
}

/// A bare protocol client: hand-shakes, then asks until it is handed a
/// unit. The lease is held for as long as the returned stream is open.
fn lease_one(
    addr: SocketAddr,
    corners: &[CampaignCorner],
    name: &str,
) -> (FrameStream<TcpStream>, UnitAssignment) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut frames = FrameStream::new(stream);
    let mut call = |msg: Msg| {
        frames.send(&msg.to_bytes()).expect("send");
        Msg::from_bytes(&frames.recv().expect("reply")).expect("decodes")
    };
    let worker_id = match call(Msg::Hello {
        proto: PROTO_VERSION,
        campaign_fp: campaign_fingerprint(corners),
        name: name.into(),
    }) {
        Msg::Welcome { worker_id } => worker_id,
        other => panic!("handshake answered {other:?}"),
    };
    loop {
        match call(Msg::Request { worker_id }) {
            Msg::Assign(a) => return (frames, a),
            Msg::Wait { .. } => {}
            other => panic!("request answered {other:?}"),
        }
    }
}

/// Corners do not wait for one another: with two corners and two
/// workers, the second worker's first request gets the second corner's
/// offset unit while the first worker still holds the first corner's —
/// and the merged campaign is still bit-identical to the local runs.
#[test]
fn two_corners_offset_units_are_leased_at_once_and_merge_bit_identically() {
    let corners = vec![
        corner("nssa-80r0", base_cfg(0.8)),
        corner("nssa-50r0", base_cfg(0.5)),
    ];
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener addr");
    let serve_corners = corners.clone();
    let server = std::thread::spawn(move || {
        serve_campaign(
            listener,
            &serve_corners,
            &ServeOptions {
                // One unit per phase: each corner's offsets are a single
                // lease.
                scheduler: SchedulerConfig {
                    unit_samples: SAMPLES,
                    ..test_scheduler()
                },
                poll: Duration::from_millis(10),
                ..ServeOptions::default()
            },
        )
        .expect("serve completes")
    });

    // Two bare clients take a lease each and hold it.
    let (first_conn, first) = lease_one(addr, &corners, "holder-1");
    let (second_conn, second) = lease_one(addr, &corners, "holder-2");
    for (a, name) in [(&first, "nssa-80r0"), (&second, "nssa-50r0")] {
        assert_eq!(a.corner, name, "units go out in campaign order");
        assert_eq!(a.phase, McPhase::Offset);
        assert_eq!((a.start, a.end), (0, SAMPLES));
    }

    // The holders hang up, which revokes their leases; real workers
    // finish the campaign.
    drop((first_conn, second_conn));
    let workers: Vec<_> = ["w1", "w2"]
        .into_iter()
        .map(|name| {
            let corners = corners.clone();
            std::thread::spawn(move || run_worker(addr, &corners, &worker(name)))
        })
        .collect();
    let report = server.join().expect("coordinator thread");
    for w in workers {
        w.join().expect("worker thread").expect("worker finishes");
    }
    assert!(!report.campaign.partial);
    for c in &corners {
        assert_eq!(
            report.campaign.result(&c.name).expect("corner completes"),
            &run_mc(&c.cfg).unwrap(),
            "corner {:?} must be bit-identical to the local run",
            c.name
        );
    }
}

/// The abort hook stops every corner in flight at once: each corner not
/// finished by then reports partial — statistics over its completed
/// samples, or a cancellation when it has none — and the checkpoint
/// resumes bit-identically both under a fresh coordinator and under the
/// local engine, so checkpoints stay interchangeable in both directions.
#[test]
fn abort_leaves_several_corners_partial_and_resumes_anywhere() {
    let corners = [
        corner("nssa-80r0", base_cfg(0.8)),
        corner("nssa-50r0", base_cfg(0.5)),
        corner("nssa-20r0", base_cfg(0.2)),
        corner(
            "nssa-80r0-seed7",
            McConfig {
                seed: 7,
                ..base_cfg(0.8)
            },
        ),
    ];
    let path = temp_ckpt("multi-abort");
    let opts = |abort: Option<u64>| ServeOptions {
        // One unit per phase: two completed units finish at most one
        // corner, whichever two they are.
        scheduler: SchedulerConfig {
            unit_samples: SAMPLES,
            ..test_scheduler()
        },
        poll: Duration::from_millis(10),
        checkpoint: Some(path.clone()),
        flush_every: 1,
        abort_after_units: abort,
        loopback: vec![worker("w1"), worker("w2")],
        ..ServeOptions::default()
    };

    let aborted = serve(&corners, &opts(Some(2)));
    assert!(aborted.campaign.partial);
    assert_eq!(aborted.campaign.cancelled, Some(CancelCause::Interrupt));
    let stopped = aborted
        .campaign
        .corners
        .iter()
        .filter(|c| match &c.outcome {
            CornerOutcome::Completed(r) => r.partial,
            CornerOutcome::Failed(SaError::Cancelled { .. }) => true,
            CornerOutcome::Failed(_) | CornerOutcome::Skipped => false,
        })
        .count();
    assert!(stopped >= 2, "corners stopped in flight: {stopped}");
    assert!(path.exists(), "an aborted serve leaves its checkpoint");

    // Dist → local: the local engine finishes a copy of the checkpoint.
    let local_path = temp_ckpt("multi-abort-local");
    std::fs::copy(&path, &local_path).expect("copy checkpoint");
    let local = run_campaign(
        &corners,
        &CampaignOptions {
            checkpoint: Some(local_path.clone()),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert!(local.resumed_records >= SAMPLES);

    // Dist → dist: a fresh coordinator finishes the original.
    let resumed = serve(&corners, &opts(None));
    assert_eq!(resumed.campaign.resumed_records, local.resumed_records);
    for report in [&local, &resumed.campaign] {
        assert!(!report.partial);
        for c in &corners {
            assert_eq!(
                report.result(&c.name).expect("corner completes"),
                &run_mc(&c.cfg).unwrap(),
                "corner {:?} must resume bit-identically",
                c.name
            );
        }
    }
    assert!(!path.exists() && !local_path.exists());
}
