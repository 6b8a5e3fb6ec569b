//! End-to-end campaign service tests over a real TCP control plane:
//! completion and cache hits, cache-corruption quarantine + transparent
//! recompute, injected crash-loop supervision, drain-and-restart
//! resumption, and admission control — all asserted down to bit-identity
//! against uninterrupted single-process reference runs.
//!
//! The process-level SIGKILL soak (a service killed with `kill -9` and
//! restarted) lives in `scripts/ci.sh`; these tests cover the same
//! journal/checkpoint machinery in-process, where outcomes can be
//! asserted precisely.

#![allow(clippy::unwrap_used)]

use issa_core::campaign::{run_campaign, CampaignCorner, CampaignOptions, CampaignReport};
use issa_core::montecarlo::McConfig;
use issa_core::netlist::SaKind;
use issa_core::workload::{ReadSequence, Workload};
use issa_dist::control::{parse, ControlRequest, Json, LineReader, NextLine};
use issa_dist::service::{
    run_service, ServiceHost, ServiceOptions, ServiceSummary, SubmissionInfo,
};
use issa_ptm45::Environment;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "issa-service-test-{}-{tag}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The test host: `params` = `{"tag": ..., "samples": ..., "corners": ...}`
/// (tag names the corners, so distinct tags are distinct fingerprints),
/// and completion writes a `digest.txt` capturing every result down to
/// the f64 bit pattern — the byte-identity witness.
struct TestHost;

fn host_corners(params: &Json) -> Result<Vec<CampaignCorner>, String> {
    let tag = params
        .get("tag")
        .and_then(Json::as_str)
        .ok_or_else(|| "params needs a string 'tag'".to_owned())?;
    let samples = params
        .get("samples")
        .and_then(Json::as_usize)
        .filter(|n| *n > 0)
        .ok_or_else(|| "params needs a positive 'samples'".to_owned())?;
    let count = params.get("corners").and_then(Json::as_usize).unwrap_or(1);
    Ok((0..count)
        .map(|k| CampaignCorner {
            name: format!("svc/{tag} corner {k}"),
            cfg: McConfig::smoke(
                if k % 2 == 0 {
                    SaKind::Nssa
                } else {
                    SaKind::Issa
                },
                Workload::new(0.8, ReadSequence::AllZeros),
                Environment::nominal(),
                0.0,
                samples,
            ),
        })
        .collect())
}

/// Every statistic and every per-sample value, bit-exact — the same
/// digest the uninterrupted reference run produces iff the service's
/// supervised/resumed/cached path changed nothing.
fn digest(report: &CampaignReport) -> String {
    let mut out = String::new();
    for corner in &report.corners {
        out.push_str(&corner.name);
        out.push(' ');
        match report.result(&corner.name) {
            Some(r) => {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for v in r.offsets.iter().chain(&r.delays) {
                    for b in v.to_bits().to_le_bytes() {
                        h ^= u64::from(b);
                        h = h.wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
                out.push_str(&format!(
                    "n{} mu{:016x} sigma{:016x} delay{:016x} samples{h:016x}\n",
                    r.offsets.len(),
                    r.mu.to_bits(),
                    r.sigma.to_bits(),
                    r.mean_delay.to_bits()
                ));
            }
            None => out.push_str("missing\n"),
        }
    }
    out
}

impl ServiceHost for TestHost {
    fn corners(&self, params: &Json) -> Result<Vec<CampaignCorner>, String> {
        host_corners(params)
    }

    fn completed(&self, info: &SubmissionInfo, report: &CampaignReport) -> Vec<String> {
        std::fs::write(info.results_dir.join("digest.txt"), digest(report)).unwrap();
        vec!["digest.txt".to_owned()]
    }
}

/// The digest an uninterrupted single-process run of `params` produces.
fn reference_digest(params: &Json) -> String {
    let corners = host_corners(params).unwrap();
    let report = run_campaign(&corners, &CampaignOptions::default()).unwrap();
    digest(&report)
}

fn test_params(tag: &str, samples: usize, corners: usize) -> Json {
    Json::Obj(vec![
        ("tag".to_owned(), Json::str(tag)),
        ("samples".to_owned(), Json::num_usize(samples)),
        ("corners".to_owned(), Json::num_usize(corners)),
    ])
}

fn service_opts(dir: &Path) -> ServiceOptions {
    ServiceOptions {
        dir: dir.to_path_buf(),
        max_concurrent: 1,
        restart_backoff: Duration::from_millis(10),
        flush_every: 1,
        ..ServiceOptions::default()
    }
}

/// Starts a service incarnation on an ephemeral port; the join handle
/// yields its summary after a `shutdown` verb drains it.
fn start_service(opts: &ServiceOptions) -> (SocketAddr, std::thread::JoinHandle<ServiceSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = opts.clone();
    let handle = std::thread::spawn(move || {
        run_service(listener, Arc::new(TestHost), &opts).expect("service must not error")
    });
    (addr, handle)
}

/// One raw line round trip (the line need not be a valid request).
fn roundtrip_line(addr: SocketAddr, line: &str) -> Json {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = LineReader::new(stream);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match reader.next_line().unwrap() {
            NextLine::Line(bytes) => return parse(std::str::from_utf8(&bytes).unwrap()).unwrap(),
            NextLine::Idle => assert!(Instant::now() < deadline, "no response within 60 s"),
            other => panic!("unexpected read outcome {other:?}"),
        }
    }
}

fn request(addr: SocketAddr, req: &ControlRequest) -> Json {
    roundtrip_line(addr, &req.to_line())
}

fn submit(addr: SocketAddr, tenant: &str, params: Json) -> String {
    let response = request(
        addr,
        &ControlRequest::Submit {
            tenant: tenant.to_owned(),
            params,
            crash_after: None,
            crash_attempts: 0,
        },
    );
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "submit refused: {}",
        response.render()
    );
    response
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned()
}

/// Polls `fetch` until the submission is terminal; returns the final
/// fetch response.
fn wait_done(addr: SocketAddr, id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let fetched = request(addr, &ControlRequest::Fetch { id: id.to_owned() });
        assert_eq!(fetched.get("ok").and_then(Json::as_bool), Some(true));
        if fetched.get("done").and_then(Json::as_bool) == Some(true) {
            return fetched;
        }
        assert!(Instant::now() < deadline, "submission {id} never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn shutdown_and_join(
    addr: SocketAddr,
    handle: std::thread::JoinHandle<ServiceSummary>,
) -> ServiceSummary {
    let response = request(addr, &ControlRequest::Shutdown);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    handle.join().unwrap()
}

fn read_digest(fetched: &Json) -> String {
    let dir = fetched.get("results_dir").and_then(Json::as_str).unwrap();
    std::fs::read_to_string(Path::new(dir).join("digest.txt")).unwrap()
}

#[test]
fn completion_cache_hit_and_drain_match_the_reference_run() {
    let dir = temp_dir("complete");
    let (addr, handle) = start_service(&service_opts(&dir));
    let params = test_params("complete", 6, 2);

    let first = submit(addr, "alice", params.clone());
    let fetched = wait_done(addr, &first);
    assert_eq!(
        fetched.get("state").and_then(Json::as_str),
        Some("completed")
    );
    assert_eq!(
        fetched.get("cache_hit").and_then(Json::as_bool),
        Some(false)
    );

    // Same params again: must be served from the cache, with artifacts
    // regenerated byte-identically in its own results directory.
    let second = submit(addr, "bob", params.clone());
    let refetched = wait_done(addr, &second);
    assert_eq!(
        refetched.get("state").and_then(Json::as_str),
        Some("completed")
    );
    assert_eq!(
        refetched.get("cache_hit").and_then(Json::as_bool),
        Some(true),
        "duplicate fingerprint must hit the cache: {}",
        refetched.render()
    );

    let expected = reference_digest(&params);
    assert_eq!(read_digest(&fetched), expected, "first run diverged");
    assert_eq!(read_digest(&refetched), expected, "cache replay diverged");

    let summary = shutdown_and_join(addr, handle);
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.parked, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_cache_entry_is_quarantined_and_recomputed_bit_identically() {
    let dir = temp_dir("corrupt");
    let params = test_params("corrupt", 5, 1);

    // Incarnation 1: populate the cache.
    let (addr, handle) = start_service(&service_opts(&dir));
    let first = submit(addr, "alice", params.clone());
    let fetched = wait_done(addr, &first);
    let expected = read_digest(&fetched);
    assert_eq!(expected, reference_digest(&params));
    shutdown_and_join(addr, handle);

    // Flip one byte in the (single) cache entry.
    let cache_dir = dir.join("cache");
    let entry = std::fs::read_dir(&cache_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .expect("a cache entry must exist");
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&entry, bytes).unwrap();

    // Incarnation 2: the same submission must detect the corruption,
    // quarantine the entry (renamed aside, reported by health), and
    // transparently recompute to the identical digest.
    let (addr, handle) = start_service(&service_opts(&dir));
    let second = submit(addr, "alice", params);
    let refetched = wait_done(addr, &second);
    assert_eq!(
        refetched.get("state").and_then(Json::as_str),
        Some("completed")
    );
    assert_eq!(
        refetched.get("cache_hit").and_then(Json::as_bool),
        Some(false),
        "a corrupt entry must not be served as a hit"
    );
    assert_eq!(read_digest(&refetched), expected, "recompute diverged");

    let health = request(addr, &ControlRequest::Health);
    let quarantined = health
        .get("cache_quarantined")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(quarantined >= 1, "health must report the quarantine");
    let renamed = std::fs::read_dir(&cache_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".ckpt.quarantined-"))
        .count();
    assert_eq!(renamed, 1, "the corrupt entry must be renamed aside");
    shutdown_and_join(addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_crashes_restart_from_checkpoint_and_converge() {
    let dir = temp_dir("crash");
    // A wide backoff makes the crashes=2 window reliably observable.
    let opts = ServiceOptions {
        restart_backoff: Duration::from_millis(150),
        ..service_opts(&dir)
    };
    let (addr, handle) = start_service(&opts);
    let params = test_params("crash", 7, 1);

    // Panic the runner after 2 fresh samples, on the first two attempts.
    let response = request(
        addr,
        &ControlRequest::Submit {
            tenant: "alice".to_owned(),
            params: params.clone(),
            crash_after: Some(2),
            crash_attempts: 2,
        },
    );
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let id = response
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();

    // `crashes` counts *consecutive* panics and resets on success, so
    // observe the supervision mid-flight: after the second injected
    // panic the submission sits in a (long) backoff window with
    // crashes=2 before the third, clean attempt completes it.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut max_crashes = 0u64;
    let fetched = loop {
        let status = request(
            addr,
            &ControlRequest::Status {
                id: Some(id.clone()),
            },
        );
        let Some(Json::Arr(campaigns)) = status.get("campaigns") else {
            panic!("status must list campaigns: {}", status.render());
        };
        let entry = &campaigns[0];
        max_crashes = max_crashes.max(entry.get("crashes").and_then(Json::as_u64).unwrap());
        if entry.get("state").and_then(Json::as_str) == Some("completed") {
            break wait_done(addr, &id);
        }
        assert!(Instant::now() < deadline, "submission never finished");
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(
        max_crashes, 2,
        "both injected panics must surface as supervised restarts"
    );

    // Two panics and two checkpoint resumes later, the digest is still
    // the uninterrupted run's.
    assert_eq!(read_digest(&fetched), reference_digest(&params));
    shutdown_and_join(addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_looping_submissions_are_quarantined() {
    let dir = temp_dir("loop");
    let opts = ServiceOptions {
        crash_loop_limit: 2,
        ..service_opts(&dir)
    };
    let (addr, handle) = start_service(&opts);

    let response = request(
        addr,
        &ControlRequest::Submit {
            tenant: "alice".to_owned(),
            params: test_params("loop", 5, 1),
            crash_after: Some(1),
            crash_attempts: 99, // crashes every attempt: a true crash loop
        },
    );
    let id = response
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    let fetched = wait_done(addr, &id);
    assert_eq!(
        fetched.get("state").and_then(Json::as_str),
        Some("quarantined"),
        "a submission beyond the crash-loop limit must be quarantined: {}",
        fetched.render()
    );
    assert!(
        fetched
            .get("reason")
            .and_then(Json::as_str)
            .is_some_and(|r| !r.is_empty()),
        "quarantine must carry a reason"
    );
    let summary = shutdown_and_join(addr, handle);
    assert_eq!(summary.completed, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn drain_parks_running_campaigns_and_a_restart_resumes_bit_identically() {
    let dir = temp_dir("drain");
    let params = test_params("drain", 48, 1);

    // Incarnation 1: shut down while the campaign is mid-flight. The
    // drain flushes its checkpoint and parks it for the next start.
    let (addr, handle) = start_service(&service_opts(&dir));
    let id = submit(addr, "alice", params.clone());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = request(
            addr,
            &ControlRequest::Status {
                id: Some(id.clone()),
            },
        );
        let Some(Json::Arr(campaigns)) = status.get("campaigns") else {
            panic!("status must list campaigns");
        };
        let state = campaigns[0].get("state").and_then(Json::as_str).unwrap();
        if state == "running" {
            break;
        }
        assert!(Instant::now() < deadline, "submission never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    let summary = shutdown_and_join(addr, handle);
    // The campaign may (rarely, on a fast machine) finish before the
    // drain lands; either way the restart below must converge.
    assert_eq!(summary.completed + summary.parked, 1);

    // Incarnation 2: journal replay requeues the parked campaign, the
    // checkpoint restores every flushed sample, and the final digest is
    // byte-identical to an uninterrupted run.
    let (addr, handle) = start_service(&service_opts(&dir));
    let fetched = wait_done(addr, &id);
    assert_eq!(
        fetched.get("state").and_then(Json::as_str),
        Some("completed")
    );
    assert_eq!(read_digest(&fetched), reference_digest(&params));
    let summary = shutdown_and_join(addr, handle);
    assert_eq!(summary.completed + summary.parked, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn admission_control_rejects_explicitly_and_garbage_is_refused() {
    let dir = temp_dir("admission");
    let opts = ServiceOptions {
        tenant_quota: 1,
        max_queue: 2,
        ..service_opts(&dir)
    };
    let (addr, handle) = start_service(&opts);

    // A long-running campaign occupies alice's entire quota...
    let id = submit(addr, "alice", test_params("admission a", 64, 1));
    let refused = request(
        addr,
        &ControlRequest::Submit {
            tenant: "alice".to_owned(),
            params: test_params("admission b", 6, 1),
            crash_after: None,
            crash_attempts: 0,
        },
    );
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        refused.get("rejected").and_then(Json::as_bool),
        Some(true),
        "quota refusals must be marked as admission rejections: {}",
        refused.render()
    );

    // ...and garbage on the control plane gets a clean error without
    // poisoning the connection or the service.
    let garbage = roundtrip_line(addr, "{\"verb\":\"reboot\"}");
    assert_eq!(garbage.get("ok").and_then(Json::as_bool), Some(false));
    let truncated = roundtrip_line(addr, "{\"verb\":\"submit\",\"tenant\":\"x");
    assert_eq!(truncated.get("ok").and_then(Json::as_bool), Some(false));

    // Cancelling alice's campaign frees her quota for a new submission,
    // and never counted against bob's in the first place.
    let cancelled = request(addr, &ControlRequest::Cancel { id: id.clone() });
    assert_eq!(cancelled.get("ok").and_then(Json::as_bool), Some(true));
    let fetched = wait_done(addr, &id);
    assert_eq!(
        fetched.get("state").and_then(Json::as_str),
        Some("cancelled")
    );
    let other = submit(addr, "bob", test_params("admission c", 4, 1));
    wait_done(addr, &other);
    let again = submit(addr, "alice", test_params("admission d", 4, 1));
    wait_done(addr, &again);

    shutdown_and_join(addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_idle_service_returns_promptly_after_shutdown() {
    let dir = temp_dir("prompt");
    let (addr, handle) = start_service(&service_opts(&dir));
    let health = request(addr, &ControlRequest::Health);
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));

    // No client stays connected, so nothing is left to wait for once
    // the shutdown reply is out.
    let start = Instant::now();
    let summary = shutdown_and_join(addr, handle);
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "run_service took {took:?} to return after shutdown"
    );
    assert_eq!(summary.completed + summary.parked, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_idle_client_does_not_hold_up_shutdown() {
    let dir = temp_dir("idle-client");
    let (addr, handle) = start_service(&service_opts(&dir));
    // A client that connects and never sends a line: its handler sits
    // in a blocking read, which the drain must wake.
    let idle = TcpStream::connect(addr).unwrap();
    let health = request(addr, &ControlRequest::Health);
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));

    let start = Instant::now();
    let response = request(addr, &ControlRequest::Shutdown);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let summary = handle.join().unwrap();
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "run_service took {took:?} to return after shutdown with an idle client"
    );
    assert_eq!(summary.completed + summary.parked, 0);
    drop(idle);
    std::fs::remove_dir_all(&dir).unwrap();
}
