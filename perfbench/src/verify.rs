//! The output and exact-count checks.
//!
//! Every campaign a run computes is recorded as a digest of its result
//! bits plus its deterministic work counts. A record is checked three
//! ways:
//!
//! - against `reference.txt`, committed with the benchmark, when the run
//!   uses the reference inputs (the default seed and sample count);
//! - against the record an earlier run of the same workload and seed
//!   left in the checkout's store — digest and every count must repeat
//!   exactly;
//! - for the two Table II workloads, against the other workload's record
//!   of the same seed: the scalar and the batched distributed paths must
//!   produce bit-identical results.

use crate::common::{Counts, Ctx, Report};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;

const REFERENCE: &str = include_str!("../reference.txt");

/// One campaign's record: digest plus exact counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    pub digest: String,
    pub counts: BTreeMap<String, u64>,
}

/// Parses `<k> digest <hex>` / `<k> count <name> <value>` lines.
fn parse_records<'a>(lines: impl Iterator<Item = &'a str>) -> BTreeMap<usize, Record> {
    let mut out: BTreeMap<usize, Record> = BTreeMap::new();
    for line in lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(k) = fields.first().and_then(|k| k.parse::<usize>().ok()) else {
            continue;
        };
        match fields.get(1..) {
            Some(["digest", hex]) => out.entry(k).or_default().digest = (*hex).to_owned(),
            Some(["count", name, value]) => {
                if let Ok(v) = value.parse() {
                    out.entry(k)
                        .or_default()
                        .counts
                        .insert((*name).to_owned(), v);
                }
            }
            _ => {}
        }
    }
    out
}

fn render_record(k: usize, rec: &Record) -> String {
    let mut s = format!("{k} digest {}\n", rec.digest);
    for (name, v) in &rec.counts {
        let _ = writeln!(s, "{k} count {name} {v}");
    }
    s
}

/// The committed reference records of one workload.
fn reference(workload: &str) -> BTreeMap<usize, Record> {
    parse_records(REFERENCE.lines().filter_map(|l| {
        let (w, rest) = l.split_once(' ')?;
        (w == workload).then_some(rest)
    }))
}

fn store_path(ctx: &Ctx, workload: &str) -> PathBuf {
    ctx.store
        .join(format!("{workload}-seed{}-s{}.txt", ctx.seed, ctx.samples))
}

/// Counts that differ from `expected`, by name.
fn count_diffs(
    label: &str,
    counts: &BTreeMap<String, u64>,
    expected: &BTreeMap<String, u64>,
) -> Vec<String> {
    counts
        .iter()
        .filter_map(|(name, got)| {
            let want = expected.get(name)?;
            (got != want).then(|| format!("{label}: count {name} = {got}, expected {want}"))
        })
        .collect()
}

/// Checks a run's campaign records and stores them for later runs.
/// Returns the campaigns whose digest failed a check.
pub fn check_records(
    ctx: &Ctx,
    workload: &str,
    records: &BTreeMap<usize, Record>,
    report: &mut Report,
) -> BTreeSet<usize> {
    let mut bad = BTreeSet::new();
    let mut compared = 0usize;
    if ctx.reference_inputs() {
        let reference = reference(workload);
        for (k, rec) in records {
            let Some(want) = reference.get(k) else {
                continue;
            };
            compared += 1;
            if rec.digest != want.digest {
                report.problem(format!(
                    "{workload} campaign {k}: digest differs from the committed reference"
                ));
                bad.insert(*k);
            }
            // A change may legitimately do less work for the same bits, so
            // a count that moved against the reference is reported, not
            // failed; non-repetition within one build is (below).
            for p in count_diffs(
                &format!("{workload} campaign {k} vs reference"),
                &rec.counts,
                &want.counts,
            ) {
                report.note(p);
                report.reference_count_diffs += 1;
            }
        }
        if compared == 0 && !records.is_empty() {
            report.note(format!(
                "{workload}: reference.txt has no record for this run"
            ));
        }
    }

    let path = store_path(ctx, workload);
    let earlier = std::fs::read_to_string(&path)
        .map(|s| parse_records(s.lines()))
        .unwrap_or_default();
    let mut fresh = String::new();
    for (k, rec) in records {
        match earlier.get(k) {
            Some(prev) => {
                if rec.digest != prev.digest {
                    report.problem(format!(
                        "{workload} campaign {k}: digest differs from an earlier run of this seed"
                    ));
                    bad.insert(*k);
                }
                for p in count_diffs(
                    &format!("{workload} campaign {k} vs earlier run"),
                    &rec.counts,
                    &prev.counts,
                ) {
                    report.problem(p);
                }
            }
            None => fresh.push_str(&render_record(*k, rec)),
        }
    }
    // A run with injected faults leaves no record for later runs.
    if !fresh.is_empty() && !ctx.inject.any() {
        let _ = std::fs::create_dir_all(&ctx.store);
        let mut all = std::fs::read_to_string(&path).unwrap_or_default();
        all.push_str(&fresh);
        if let Err(e) = std::fs::write(&path, all) {
            report.problem(format!("cannot store records at {}: {e}", path.display()));
        }
    }

    // Scalar and batched-distributed Table II runs must agree bit for bit.
    let twin = match workload {
        "service_table2" => Some("dist_table2"),
        "dist_table2" => Some("service_table2"),
        _ => None,
    };
    if let Some(twin) = twin {
        let theirs = std::fs::read_to_string(store_path(ctx, twin))
            .map(|s| parse_records(s.lines()))
            .unwrap_or_default();
        for (k, rec) in records {
            if let Some(other) = theirs.get(k) {
                if other.digest != rec.digest {
                    report.problem(format!(
                        "{workload} campaign {k}: digest differs from {twin} for the same seed"
                    ));
                    bad.insert(*k);
                }
            }
        }
    }
    bad
}

/// Converts named counts into a record.
pub fn record(digest: String, counts: &Counts) -> Record {
    Record {
        digest,
        counts: counts.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_the_line_format() {
        let mut counts = BTreeMap::new();
        counts.insert("circuit.transients".to_owned(), 42);
        let rec = Record {
            digest: "00ff,1234".into(),
            counts,
        };
        let text = render_record(3, &rec);
        let parsed = parse_records(text.lines());
        assert_eq!(parsed.get(&3), Some(&rec));
    }

    #[test]
    fn count_diffs_name_every_changed_count() {
        let a: BTreeMap<String, u64> = [("x".to_owned(), 1), ("y".to_owned(), 2)].into();
        let b: BTreeMap<String, u64> = [("x".to_owned(), 1), ("y".to_owned(), 3)].into();
        let diffs = count_diffs("c", &a, &b);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("count y = 2, expected 3"), "{diffs:?}");
        assert!(count_diffs("c", &a, &a).is_empty());
    }
}
