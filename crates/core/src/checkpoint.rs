//! Durable campaign checkpoints: versioned, CRC-validated, atomically
//! written snapshots of Monte Carlo campaign state.
//!
//! A checkpoint captures, per corner, every completed per-sample result
//! (offset and delay values as exact `f64` bits), every quarantined
//! failure, and a fingerprint of the corner's configuration. Because each
//! Monte Carlo sample is a pure function of `(config, index)`, restoring a
//! checkpoint and computing only the missing samples reproduces the
//! uninterrupted result bit for bit ([`crate::montecarlo::run_mc_controlled`]).
//!
//! # File format
//!
//! Line-oriented UTF-8 text, trailing CRC:
//!
//! ```text
//! ISSA-CKPT 1
//! corner <escaped-name> <fingerprint:016x>
//! o <index> <f64-bits:016x>
//! w <index> <f64-bits:016x>
//! d <index> <f64-bits:016x>
//! f <o|d> <index> <kind> <attempts> <seed:016x> <escaped-corner> <escaped-error>
//! end
//! crc <crc32:08x>
//! ```
//!
//! `w` records carry the per-sample importance log-weights of a tail-mode
//! campaign ([`crate::tail`]) as exact `f64` bits. They annotate `o`
//! records rather than standing alone: a restore missing some (or all) of
//! them recomputes the absent weights from the seed tree bit-identically,
//! so pre-tail checkpoints of tail configs stay resumable.
//!
//! Strings are escaped so every record is a single space-separated line
//! (`\` → `\\`, space → `\s`, newline → `\n`, tab → `\t`). The `crc` line
//! covers every preceding byte; a truncated or bit-flipped file is
//! rejected loudly ([`CheckpointError::Truncated`],
//! [`CheckpointError::CrcMismatch`]) rather than half-loaded.
//!
//! # Atomicity
//!
//! [`Checkpoint::save`] publishes through [`crate::durable::write_atomic`]
//! (sibling temp file, `fsync`, rename, directory `fsync`) — a crash
//! mid-write leaves either the old complete checkpoint or the new
//! complete checkpoint, never a torn one.

use crate::durable::{write_atomic, Fnv64};
use crate::montecarlo::{FailureKind, McConfig, McPhase, McResume, SampleFailure};
use std::fmt;
use std::path::Path;

pub use crate::durable::{crc32, sweep_stale_temps, IoFault, IoFaultKind, IoFaultPlan, SavePolicy};

/// Magic first line of every checkpoint file (name + format version).
const MAGIC: &str = "ISSA-CKPT 1";

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem error (message carries the OS detail).
    Io(String),
    /// The file ends before its `crc` trailer — an interrupted write of a
    /// non-atomic copy, or an empty file.
    Truncated,
    /// The trailing CRC does not match the file contents.
    CrcMismatch {
        /// CRC recorded in the trailer.
        stored: u32,
        /// CRC computed over the file contents.
        computed: u32,
    },
    /// The magic/version line is not one this build understands.
    UnsupportedVersion {
        /// The first line actually found.
        found: String,
    },
    /// A structurally invalid record.
    Malformed {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::Truncated => {
                write!(f, "checkpoint file is truncated (missing CRC trailer)")
            }
            CheckpointError::CrcMismatch { stored, computed } => write!(
                f,
                "checkpoint CRC mismatch: stored {stored:08x}, computed {computed:08x}"
            ),
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint version: {found:?}")
            }
            CheckpointError::Malformed { line, reason } => {
                write!(f, "malformed checkpoint at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// One corner's checkpointed state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CornerCheckpoint {
    /// Campaign-level corner name (e.g. `"table2/NSSA 80r0 aged"`).
    pub name: String,
    /// Fingerprint of the corner's [`McConfig`] at save time
    /// ([`config_fingerprint`]). A resume under a different configuration
    /// is refused — restored samples would silently mean something else.
    pub fingerprint: u64,
    /// The restored per-sample state.
    pub resume: McResume,
}

/// A whole campaign snapshot: one entry per corner that has produced any
/// results so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Per-corner state, in campaign order.
    pub corners: Vec<CornerCheckpoint>,
}

impl Checkpoint {
    /// Looks up a corner's checkpoint by name.
    #[must_use]
    pub fn corner(&self, name: &str) -> Option<&CornerCheckpoint> {
        self.corners.iter().find(|c| c.name == name)
    }

    /// Total restored records across all corners.
    #[must_use]
    pub fn records(&self) -> usize {
        self.corners.iter().map(|c| c.resume.records()).sum()
    }

    /// Serializes to the on-disk text format (including the CRC trailer).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut s = String::with_capacity(64 + 32 * self.records());
        s.push_str(MAGIC);
        s.push('\n');
        for c in &self.corners {
            s.push_str(&format!(
                "corner {} {:016x}\n",
                escape(&c.name),
                c.fingerprint
            ));
            for &(i, v) in &c.resume.offsets {
                s.push_str(&format!("o {i} {:016x}\n", v.to_bits()));
            }
            for &(i, v) in &c.resume.log_weights {
                s.push_str(&format!("w {i} {:016x}\n", v.to_bits()));
            }
            for &(i, v) in &c.resume.delays {
                s.push_str(&format!("d {i} {:016x}\n", v.to_bits()));
            }
            for fail in &c.resume.failures {
                s.push_str(&format!("f {}\n", failure_fields(fail)));
            }
            s.push_str("end\n");
        }
        let crc = crc32(s.as_bytes());
        s.push_str(&format!("crc {crc:08x}\n"));
        s.into_bytes()
    }

    /// Atomically writes the checkpoint to `path` through
    /// [`crate::durable::write_atomic`]. Transient failures are retried
    /// with backoff under [`SavePolicy::standard`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] once every attempt has failed. The
    /// previous checkpoint at `path` (if any) is intact whenever this
    /// returns an error — a failed save never publishes partial bytes.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_with(path, &SavePolicy::standard())
    }

    /// [`Checkpoint::save`] under an explicit retry policy and optional
    /// injected I/O faults.
    ///
    /// # Errors
    ///
    /// The last attempt's [`CheckpointError::Io`] after
    /// `policy.attempts` failures.
    pub fn save_with(&self, path: &Path, policy: &SavePolicy) -> Result<(), CheckpointError> {
        Ok(write_atomic(path, &self.to_bytes(), policy)?)
    }

    /// Parses the on-disk format, validating the magic line and CRC.
    ///
    /// # Errors
    ///
    /// Every way the file can be wrong maps to a distinct
    /// [`CheckpointError`] variant; nothing is half-loaded.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let text = std::str::from_utf8(bytes).map_err(|e| CheckpointError::Malformed {
            line: 0,
            reason: format!("not UTF-8: {e}"),
        })?;
        // Split off the trailer: the file must end in a newline (a torn
        // tail is a truncation) and the last line must be `crc X`.
        let Some(body_end) = text.strip_suffix('\n') else {
            return Err(CheckpointError::Truncated);
        };
        let Some(nl) = body_end.rfind('\n') else {
            return Err(CheckpointError::Truncated);
        };
        let (body, trailer) = body_end.split_at(nl + 1);
        let stored = trailer
            .strip_prefix("crc ")
            .and_then(|h| u32::from_str_radix(h.trim(), 16).ok())
            .ok_or(CheckpointError::Truncated)?;
        let computed = crc32(body.as_bytes());
        if stored != computed {
            return Err(CheckpointError::CrcMismatch { stored, computed });
        }

        let mut lines = body.lines().enumerate();
        match lines.next() {
            Some((_, line)) if line == MAGIC => {}
            Some((_, line)) => {
                return Err(CheckpointError::UnsupportedVersion {
                    found: line.to_owned(),
                })
            }
            None => return Err(CheckpointError::Truncated),
        }

        let mut corners: Vec<CornerCheckpoint> = Vec::new();
        let mut current: Option<CornerCheckpoint> = None;
        for (idx, line) in lines {
            let lineno = idx + 1;
            let malformed = |reason: String| CheckpointError::Malformed {
                line: lineno,
                reason,
            };
            let mut fields = line.split(' ');
            let tag = fields.next().unwrap_or("");
            match tag {
                "corner" => {
                    if let Some(done) = current.take() {
                        corners.push(done);
                    }
                    let name = unescape(
                        fields
                            .next()
                            .ok_or_else(|| malformed("corner without name".into()))?,
                    );
                    let fingerprint = parse_hex_u64(fields.next())
                        .ok_or_else(|| malformed("corner without fingerprint".into()))?;
                    current = Some(CornerCheckpoint {
                        name,
                        fingerprint,
                        resume: McResume::default(),
                    });
                }
                "o" | "d" | "w" => {
                    let corner = current
                        .as_mut()
                        .ok_or_else(|| malformed("record outside a corner section".into()))?;
                    let index: usize = fields
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| malformed("bad sample index".into()))?;
                    let bits = parse_hex_u64(fields.next())
                        .ok_or_else(|| malformed("bad f64 bits".into()))?;
                    let value = f64::from_bits(bits);
                    match tag {
                        "o" => corner.resume.offsets.push((index, value)),
                        "w" => corner.resume.log_weights.push((index, value)),
                        _ => corner.resume.delays.push((index, value)),
                    }
                }
                "f" => {
                    let corner = current
                        .as_mut()
                        .ok_or_else(|| malformed("record outside a corner section".into()))?;
                    let failure = parse_failure_fields(&mut fields).map_err(malformed)?;
                    corner.resume.failures.push(failure);
                }
                "end" => {
                    let done = current
                        .take()
                        .ok_or_else(|| malformed("end without a corner section".into()))?;
                    corners.push(done);
                }
                other => return Err(malformed(format!("unknown record tag {other:?}"))),
            }
        }
        if let Some(unterminated) = current {
            // The CRC already vouches for the bytes, so an unterminated
            // section means the *writer* was wrong, not the disk.
            return Err(CheckpointError::Malformed {
                line: 0,
                reason: format!("corner {:?} has no end record", unterminated.name),
            });
        }
        Ok(Checkpoint { corners })
    }

    /// Loads and validates a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read (including when
    /// it does not exist — callers that treat a missing file as "fresh
    /// start" should test existence first), plus every
    /// [`Checkpoint::from_bytes`] validation error.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

fn parse_hex_u64(field: Option<&str>) -> Option<u64> {
    u64::from_str_radix(field?, 16).ok()
}

/// Serializes a [`SampleFailure`] as the space-separated fields following
/// the `f ` tag: `<o|d> <index> <kind> <attempts> <seed:016x>
/// <escaped-corner> <escaped-error>`. Shared by the checkpoint format and
/// the `issa-dist` wire protocol so quarantined failures travel between
/// processes without a second codec.
#[must_use]
pub fn failure_fields(fail: &SampleFailure) -> String {
    let phase = match fail.phase {
        McPhase::Offset => 'o',
        McPhase::Delay => 'd',
    };
    format!(
        "{phase} {} {} {} {:016x} {} {}",
        fail.index,
        fail.kind,
        fail.recovery_attempts,
        fail.seed,
        escape(&fail.corner),
        escape(&fail.error)
    )
}

/// Parses the fields produced by [`failure_fields`] from a space-split
/// iterator positioned just past the `f` tag.
///
/// # Errors
///
/// A human-readable description of the first malformed field.
pub fn parse_failure_fields<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
) -> Result<SampleFailure, String> {
    let phase = match fields.next() {
        Some("o") => McPhase::Offset,
        Some("d") => McPhase::Delay,
        other => return Err(format!("bad failure phase {other:?}")),
    };
    let index: usize = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "bad failure index".to_owned())?;
    let kind = match fields.next() {
        Some("solver") => FailureKind::Solver,
        Some("panic") => FailureKind::Panic,
        Some("timed-out") => FailureKind::TimedOut,
        other => return Err(format!("bad failure kind {other:?}")),
    };
    let recovery_attempts: u64 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "bad recovery attempts".to_owned())?;
    let seed = parse_hex_u64(fields.next()).ok_or_else(|| "bad seed".to_owned())?;
    let corner = unescape(
        fields
            .next()
            .ok_or_else(|| "missing corner label".to_owned())?,
    );
    let error = unescape(
        fields
            .next()
            .ok_or_else(|| "missing error text".to_owned())?,
    );
    Ok(SampleFailure {
        index,
        seed,
        corner,
        phase,
        kind,
        error,
        recovery_attempts,
    })
}

/// Escapes a string into a single space-free token — the record escaping
/// shared by the checkpoint format and the `issa-dist` wire protocol.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    if out.is_empty() {
        // An empty token would vanish between the separators.
        out.push_str("\\e");
    }
    out
}

/// Reverses [`escape`]. Unknown escapes decode to the escaped character
/// itself, so decoding never fails.
#[must_use]
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('e') => {}
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// FNV-1a fingerprint of a corner configuration. Thread count and batch
/// lane count are normalized out (results are independent of both by
/// construction), so a campaign checkpointed at `--threads 8` or
/// `--batch-lanes 8` resumes cleanly at any other setting. Everything
/// else — sizing, models, probes, seeds, sample counts — participates:
/// any change that could alter a sample's value changes the fingerprint
/// and refuses the stale checkpoint.
#[must_use]
pub fn config_fingerprint(name: &str, cfg: &McConfig) -> u64 {
    let normalized = McConfig {
        threads: 0,
        batch_lanes: 0,
        ..cfg.clone()
    };
    let mut h = Fnv64::default();
    h.update(name.as_bytes());
    h.update(format!("{normalized:?}").as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "issa-ckpt-test-{}-{tag}-{n}.ckpt",
            std::process::id()
        ))
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            corners: vec![
                CornerCheckpoint {
                    name: "table2/NSSA 80r0 aged".into(),
                    fingerprint: 0xdead_beef_cafe_f00d,
                    resume: McResume {
                        offsets: vec![(0, 1.25e-3), (3, -4.5e-3), (7, f64::MIN_POSITIVE)],
                        log_weights: vec![(7, -std::f64::consts::LN_2)],
                        delays: vec![(0, 14.2e-12)],
                        failures: vec![SampleFailure {
                            index: 5,
                            seed: 0x1554_2017,
                            corner: "Nssa 80r0 25°C/1.00V t=1.0e8s".into(),
                            phase: McPhase::Offset,
                            kind: FailureKind::TimedOut,
                            error: "analysis cancelled at t=1e-9s\n(per-sample step budget)".into(),
                            recovery_attempts: 3,
                        }],
                    },
                },
                CornerCheckpoint {
                    name: "empty corner".into(),
                    fingerprint: 1,
                    resume: McResume::default(),
                },
            ],
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let ckpt = sample_checkpoint();
        let loaded = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(ckpt, loaded);
        // f64 values survive as exact bits, not as decimal approximations.
        assert_eq!(
            loaded.corners[0].resume.offsets[2].1.to_bits(),
            f64::MIN_POSITIVE.to_bits()
        );
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let path = temp_path("roundtrip");
        let ckpt = sample_checkpoint();
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(ckpt, loaded);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let bytes = sample_checkpoint().to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 2] {
            let err = Checkpoint::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::CrcMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corrupted_byte_is_rejected_by_the_crc() {
        let mut bytes = sample_checkpoint().to_bytes();
        // Flip a bit in the middle of a value record (not in the trailer).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, CheckpointError::CrcMismatch { .. }),
            "expected CRC mismatch, got {err}"
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let text = "ISSA-CKPT 99\nend\n";
        let with_crc = format!("{text}crc {:08x}\n", crc32(text.as_bytes()));
        let err = Checkpoint::from_bytes(with_crc.as_bytes()).unwrap_err();
        assert!(matches!(err, CheckpointError::UnsupportedVersion { .. }));
    }

    #[test]
    fn malformed_record_is_rejected_with_line_number() {
        let text = "ISSA-CKPT 1\nbogus record here\n";
        let with_crc = format!("{text}crc {:08x}\n", crc32(text.as_bytes()));
        match Checkpoint::from_bytes(with_crc.as_bytes()).unwrap_err() {
            CheckpointError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Malformed, got {other}"),
        }
    }

    #[test]
    fn escape_round_trips_hostile_strings() {
        for s in [
            "",
            " ",
            "\\",
            "a b\tc\nd",
            "trailing\\",
            "°C — unicode",
            "\\s literal",
        ] {
            assert_eq!(unescape(&escape(s)), s, "string {s:?}");
            assert!(!escape(s).contains(' '), "escaped form must be space-free");
        }
    }

    #[test]
    fn fingerprint_ignores_threads_but_not_physics() {
        let base = McConfig::smoke(
            crate::netlist::SaKind::Nssa,
            crate::workload::Workload::new(0.8, crate::workload::ReadSequence::AllZeros),
            issa_ptm45::Environment::nominal(),
            1e8,
            8,
        );
        let fp = config_fingerprint("c", &base);
        let threaded = McConfig {
            threads: 8,
            ..base.clone()
        };
        assert_eq!(fp, config_fingerprint("c", &threaded));
        let batched = McConfig {
            batch_lanes: 8,
            ..base.clone()
        };
        assert_eq!(fp, config_fingerprint("c", &batched));
        let different_seed = McConfig {
            seed: base.seed + 1,
            ..base.clone()
        };
        assert_ne!(fp, config_fingerprint("c", &different_seed));
        assert_ne!(fp, config_fingerprint("other name", &base));
    }

    #[test]
    fn save_is_atomic_against_the_previous_file() {
        // Overwriting an existing checkpoint goes through the temp+rename
        // path; the destination is never empty in between.
        let path = temp_path("atomic");
        let a = sample_checkpoint();
        a.save(&path).unwrap();
        let b = Checkpoint::default();
        b.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded, b);
    }
}
