//! The benchmark's own tests: its declared names, the metrics every
//! workload emits, and that the output check trips on injected faults.
//!
//! Workload runs use `--samples 2`, so each takes seconds rather than the
//! measured runs' 25, and each runs in its own directory so
//! their cross-run records cannot meet.

use issa_dist::control::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["service_table2", "dist_table2", "tail_1e9"];

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("BENCHMARK.json {key} is not a list: {other:?}"),
    }
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).expect("string field")
}

/// `(name, unit)` of every metric of one BENCHMARK.json list.
fn declared(key: &str) -> Vec<(String, String)> {
    let doc = benchmark_json();
    entries(&doc, key)
        .iter()
        .map(|m| (field(m, "name").to_owned(), field(m, "unit").to_owned()))
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_name_is_well_formed_and_used_once() {
    let doc = benchmark_json();
    let mut seen = std::collections::BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for entry in entries(&doc, key) {
            let name = field(entry, "name");
            assert!(well_formed(name), "{key} name {name:?} is malformed");
            assert!(seen.insert(name.to_owned()), "name {name:?} is used twice");
        }
    }
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(!well_formed("bad name"));
    assert!(!well_formed(".leading-dot"));
}

/// Runs one workload in a fresh directory; returns the exit code and the
/// parsed result line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (i32, Json) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{workload}-{}-{}",
        u8::from(trace),
        extra.join("").trim_start_matches('-')
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--samples", "2"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line {last:?} is not JSON ({e}); stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.code().unwrap_or(-1), result)
}

fn assert_emits_exactly(workload: &str, trace: bool) {
    let (code, result) = run(workload, trace, &[]);
    assert_eq!(code, 0, "{workload}: {}", result.render());
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| (name.clone(), field(m, "unit").to_owned()))
        .collect();
    assert_eq!(got, want, "{workload} trace={trace}");
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
    }
}

#[test]
fn service_emits_every_metric_with_its_unit() {
    assert_emits_exactly("service_table2", false);
    assert_emits_exactly("service_table2", true);
}

#[test]
fn dist_emits_every_metric_with_its_unit() {
    assert_emits_exactly("dist_table2", false);
    assert_emits_exactly("dist_table2", true);
}

#[test]
fn tail_emits_every_metric_with_its_unit() {
    assert_emits_exactly("tail_1e9", false);
    assert_emits_exactly("tail_1e9", true);
}

fn assert_check_trips(workload: &str, injection: &str) {
    let (code, result) = run(workload, false, &[injection]);
    assert_ne!(code, 0, "{workload} {injection}: {}", result.render());
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    let failed = result.get("failed").and_then(Json::as_u64).unwrap_or(0);
    assert!(failed >= 1, "{workload} {injection}: no failure counted");
    let success = result
        .get("metrics")
        .and_then(|m| m.get("success_frac"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .expect("success_frac");
    assert!(
        success < 1.0,
        "{workload} {injection}: success_frac {success}"
    );
}

#[test]
fn a_corrupted_digest_fails_the_output_check() {
    for workload in WORKLOADS {
        assert_check_trips(workload, "--corrupt-digest");
    }
}

#[test]
fn a_forced_cache_miss_fails_the_output_check() {
    for workload in WORKLOADS {
        assert_check_trips(workload, "--force-miss");
    }
}
