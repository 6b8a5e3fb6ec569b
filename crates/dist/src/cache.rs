//! Content-addressed result cache: completed campaign checkpoints keyed
//! by the campaign fingerprint ([`crate::proto::campaign_fingerprint`]).
//!
//! A cache entry is a plain `ISSA-CKPT` file holding *every* record of a
//! finished campaign. Serving a hit means staging a copy of that file as
//! the new submission's checkpoint and letting
//! [`issa_core::campaign::run_campaign`] resume it — zero samples left
//! to compute, and the merge path is the same code an interrupted run
//! uses, so a cached result is bit-identical to a recomputed one by
//! construction.
//!
//! Trust is re-earned on every read: [`ResultCache::lookup`] re-runs the
//! full checkpoint validation (CRC, format), re-derives each corner's
//! config fingerprint, and re-counts records against the submitted
//! configuration. Anything wrong — a flipped bit, a fingerprint
//! collision, a truncated entry — quarantines the file (renamed aside,
//! never deleted: it is evidence) and reports a miss, so the campaign is
//! transparently recomputed and the bad entry replaced.

use issa_core::campaign::CampaignCorner;
use issa_core::checkpoint::{config_fingerprint, Checkpoint, CheckpointError, CornerCheckpoint};
use issa_core::durable::{write_atomic, SavePolicy};
use issa_core::montecarlo::{McConfig, McPhase};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// What [`ResultCache::lookup`] found under a fingerprint.
#[derive(Debug, PartialEq, Eq)]
pub enum CacheLookup {
    /// A verified, complete entry exists; [`ResultCache::stage`] it.
    Hit,
    /// No entry under this fingerprint.
    Miss,
    /// An entry existed but failed verification and was renamed aside.
    /// Semantically a miss — the caller recomputes — but the incident is
    /// surfaced so the service can count it in health output.
    Quarantined {
        /// Where the corrupt entry now lives.
        renamed_to: PathBuf,
        /// What the verification found.
        reason: String,
    },
}

/// Size and age bounds for [`ResultCache::evict`]. `None` disables that
/// bound; the default is unbounded (today's behaviour).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvictionPolicy {
    /// Total bytes of *live* entries allowed; oldest-modified entries go
    /// first once the sum exceeds this. Quarantined files are evidence,
    /// not cache capacity — they are exempt from the size budget.
    pub max_bytes: Option<u64>,
    /// Maximum age (by modification time) of any cache file. Unlike the
    /// size bound this *does* apply to quarantined files: evidence is
    /// kept for inspection, not forever.
    pub max_age: Option<Duration>,
}

impl EvictionPolicy {
    /// True when neither bound is set (eviction is a no-op).
    #[must_use]
    pub fn is_unbounded(&self) -> bool {
        self.max_bytes.is_none() && self.max_age.is_none()
    }
}

/// What one [`ResultCache::evict`] pass removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionReport {
    /// Live entries removed (size or age bound).
    pub evicted_entries: usize,
    /// Quarantined files removed (age bound only).
    pub evicted_quarantined: usize,
    /// Total bytes freed across both kinds.
    pub bytes_freed: u64,
}

/// Point-in-time occupancy of the cache directory (health output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Live entries.
    pub entries: usize,
    /// Bytes held by live entries.
    pub bytes: u64,
    /// Quarantined files.
    pub quarantined: usize,
    /// Bytes held by quarantined files.
    pub quarantined_bytes: u64,
}

/// A directory of completed campaign checkpoints keyed by fingerprint.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Directory creation failure.
    pub fn open(dir: &Path) -> std::io::Result<ResultCache> {
        std::fs::create_dir_all(dir)?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The canonical entry path for a fingerprint.
    #[must_use]
    pub fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.ckpt"))
    }

    /// Quarantined siblings of a fingerprint's entry (health output).
    #[must_use]
    pub fn quarantined(&self) -> Vec<PathBuf> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut found: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.contains(".ckpt.quarantined-"))
            })
            .collect();
        found.sort();
        found
    }

    /// Verifies the entry under `fingerprint` against the submitted
    /// corners. Verification failures quarantine the entry (rename to
    /// `<fp>.ckpt.quarantined-<k>`) rather than serving or deleting it.
    #[must_use]
    pub fn lookup(&self, fingerprint: u64, corners: &[CampaignCorner]) -> CacheLookup {
        let path = self.entry_path(fingerprint);
        if !path.exists() {
            return CacheLookup::Miss;
        }
        let reason = match Checkpoint::load(&path) {
            Err(e) => e.to_string(),
            Ok(ckpt) => match verify_entry(&ckpt, corners) {
                None => return CacheLookup::Hit,
                Some(reason) => reason,
            },
        };
        let renamed_to = self.quarantine_target(fingerprint);
        match std::fs::rename(&path, &renamed_to) {
            Ok(()) => CacheLookup::Quarantined { renamed_to, reason },
            // Rename failed (e.g. read-only cache): still refuse to
            // serve the entry; the recompute will overwrite it.
            Err(e) => CacheLookup::Quarantined {
                renamed_to: path,
                reason: format!("{reason}; quarantine rename failed: {e}"),
            },
        }
    }

    /// Publishes a copy of the entry at `dest` so a submission can resume
    /// from it. The copy goes through [`write_atomic`], so a kill
    /// mid-stage leaves no file at `dest` and the restarted submission
    /// consults the cache again instead of resuming a torn checkpoint.
    ///
    /// # Errors
    ///
    /// Any read or write failure; `dest` is not created on error.
    pub fn stage(&self, fingerprint: u64, dest: &Path) -> std::io::Result<()> {
        let bytes = std::fs::read(self.entry_path(fingerprint))?;
        write_atomic(dest, &bytes, &SavePolicy::standard())
    }

    /// Installs a completed campaign's checkpoint file as the cache
    /// entry for `fingerprint`. The file is re-parsed and re-saved (via
    /// [`write_atomic`]) rather than copied, so only a
    /// currently-valid checkpoint can ever become an entry.
    ///
    /// # Errors
    ///
    /// Validation or write failure; no entry is published on error.
    pub fn install(&self, fingerprint: u64, completed: &Path) -> Result<(), CheckpointError> {
        let ckpt = Checkpoint::load(completed)?;
        ckpt.save(&self.entry_path(fingerprint))
    }

    /// Current occupancy: live entries vs quarantined evidence.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for file in self.files() {
            if file.quarantined {
                stats.quarantined += 1;
                stats.quarantined_bytes += file.len;
            } else {
                stats.entries += 1;
                stats.bytes += file.len;
            }
        }
        stats
    }

    /// Applies `policy` to the directory: first ages out any file (live
    /// or quarantined) whose modification time is older than `max_age`,
    /// then removes oldest-modified *live* entries until the live total
    /// fits `max_bytes`. Quarantined files never count toward the size
    /// budget (they are evidence, not capacity) but do age out.
    ///
    /// Removal failures are skipped, not fatal — a file that cannot be
    /// deleted is simply still there on the next pass.
    pub fn evict(&self, policy: &EvictionPolicy) -> EvictionReport {
        let mut report = EvictionReport::default();
        if policy.is_unbounded() {
            return report;
        }
        let mut files = self.files();
        if let Some(max_age) = policy.max_age {
            let now = SystemTime::now();
            files.retain(|file| {
                let expired = now
                    .duration_since(file.mtime)
                    .map(|age| age > max_age)
                    .unwrap_or(false);
                if expired && std::fs::remove_file(&file.path).is_ok() {
                    if file.quarantined {
                        report.evicted_quarantined += 1;
                    } else {
                        report.evicted_entries += 1;
                    }
                    report.bytes_freed += file.len;
                    return false;
                }
                true
            });
        }
        if let Some(max_bytes) = policy.max_bytes {
            let mut live: Vec<&CacheFile> = files.iter().filter(|f| !f.quarantined).collect();
            let mut total: u64 = live.iter().map(|f| f.len).sum();
            // Oldest first; name breaks mtime ties so the order is stable.
            live.sort_by(|a, b| (a.mtime, &a.path).cmp(&(b.mtime, &b.path)));
            for file in live {
                if total <= max_bytes {
                    break;
                }
                if std::fs::remove_file(&file.path).is_ok() {
                    report.evicted_entries += 1;
                    report.bytes_freed += file.len;
                    total -= file.len;
                }
            }
        }
        report
    }

    /// Every cache file with its metadata (missing metadata is skipped —
    /// the file raced an eviction or install).
    fn files(&self) -> Vec<CacheFile> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut files: Vec<CacheFile> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                let name = path.file_name()?.to_str()?;
                let quarantined = name.contains(".ckpt.quarantined-");
                if !quarantined && !name.ends_with(".ckpt") {
                    return None;
                }
                let meta = e.metadata().ok()?;
                Some(CacheFile {
                    quarantined,
                    len: meta.len(),
                    mtime: meta.modified().ok()?,
                    path,
                })
            })
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        files
    }

    fn quarantine_target(&self, fingerprint: u64) -> PathBuf {
        for k in 0.. {
            let candidate = self
                .dir
                .join(format!("{fingerprint:016x}.ckpt.quarantined-{k}"));
            if !candidate.exists() {
                return candidate;
            }
        }
        unreachable!("unbounded quarantine counter")
    }
}

/// One cache directory member, as eviction sees it.
struct CacheFile {
    path: PathBuf,
    len: u64,
    mtime: SystemTime,
    quarantined: bool,
}

/// Why a loaded entry cannot serve `corners`, or `None` if it can.
fn verify_entry(ckpt: &Checkpoint, corners: &[CampaignCorner]) -> Option<String> {
    for corner in corners {
        let Some(cc) = ckpt.corner(&corner.name) else {
            return Some(format!("entry is missing corner {:?}", corner.name));
        };
        let expected = config_fingerprint(&corner.name, &corner.cfg);
        if cc.fingerprint != expected {
            return Some(format!(
                "corner {:?} fingerprint {:016x} does not match submitted config {expected:016x}",
                corner.name, cc.fingerprint
            ));
        }
        if let Some(gap) = incomplete_reason(cc, &corner.cfg) {
            return Some(format!("corner {:?} is incomplete: {gap}", corner.name));
        }
    }
    None
}

/// A cache entry must account for every sample of every phase — either a
/// value or a quarantined failure. Anything short means a *partial*
/// checkpoint was installed, which the service never does; refuse it.
fn incomplete_reason(cc: &CornerCheckpoint, cfg: &McConfig) -> Option<String> {
    let offset_failures = cc
        .resume
        .failures
        .iter()
        .filter(|f| f.phase == McPhase::Offset)
        .count();
    let delay_failures = cc.resume.failures.len() - offset_failures;
    let offsets = cc.resume.offsets.len() + offset_failures;
    if offsets < cfg.samples {
        return Some(format!("{offsets}/{} offset samples", cfg.samples));
    }
    let want_delays = cfg.delay_samples.min(cfg.samples);
    let delays = cc.resume.delays.len() + delay_failures;
    if delays < want_delays {
        return Some(format!("{delays}/{want_delays} delay samples"));
    }
    None
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use issa_core::durable::crc32;
    use issa_core::montecarlo::McResume;
    use issa_core::netlist::SaKind;
    use issa_core::workload::{ReadSequence, Workload};
    use issa_ptm45::Environment;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("issa-cache-test-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn corner(samples: usize) -> CampaignCorner {
        CampaignCorner {
            name: "cache/test corner".into(),
            cfg: McConfig::smoke(
                SaKind::Nssa,
                Workload::new(0.8, ReadSequence::AllZeros),
                Environment::nominal(),
                0.0,
                samples,
            ),
        }
    }

    /// A synthetic *complete* checkpoint for `corner` (values are fake;
    /// the cache verifies structure, not physics).
    fn complete_ckpt(c: &CampaignCorner) -> Checkpoint {
        let samples = c.cfg.samples;
        let delays = c.cfg.delay_samples.min(samples);
        Checkpoint {
            corners: vec![CornerCheckpoint {
                name: c.name.clone(),
                fingerprint: config_fingerprint(&c.name, &c.cfg),
                resume: McResume {
                    offsets: (0..samples).map(|i| (i, i as f64 * 1e-4)).collect(),
                    delays: (0..delays).map(|i| (i, i as f64 * 1e-12)).collect(),
                    failures: Vec::new(),
                    log_weights: Vec::new(),
                },
            }],
        }
    }

    #[test]
    fn miss_then_install_then_hit_and_stage() {
        let dir = temp_dir("hit");
        let cache = ResultCache::open(&dir).unwrap();
        let c = corner(4);
        let corners = [c.clone()];
        let fp = 0x1234_5678_9abc_def0;
        assert_eq!(cache.lookup(fp, &corners), CacheLookup::Miss);

        let done = dir.join("campaign-done.ckpt");
        complete_ckpt(&c).save(&done).unwrap();
        cache.install(fp, &done).unwrap();
        assert_eq!(cache.lookup(fp, &corners), CacheLookup::Hit);

        let staged = dir.join("staged.ckpt");
        cache.stage(fp, &staged).unwrap();
        assert_eq!(
            std::fs::read(&staged).unwrap(),
            std::fs::read(cache.entry_path(fp)).unwrap()
        );
        assert!(!staged.with_extension("ckpt.tmp").exists());

        // Staging goes through a temp sibling: when the publish cannot
        // complete, nothing appears at the destination.
        let blocked = dir.join("blocked.ckpt");
        std::fs::create_dir(blocked.with_extension("ckpt.tmp")).unwrap();
        assert!(cache.stage(fp, &blocked).is_err());
        assert!(!blocked.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_served() {
        let dir = temp_dir("corrupt");
        let cache = ResultCache::open(&dir).unwrap();
        let c = corner(4);
        let corners = [c.clone()];
        let fp = 1;
        complete_ckpt(&c).save(&cache.entry_path(fp)).unwrap();

        // Flip one bit mid-file.
        let mut bytes = std::fs::read(cache.entry_path(fp)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(cache.entry_path(fp), &bytes).unwrap();

        match cache.lookup(fp, &corners) {
            CacheLookup::Quarantined { renamed_to, reason } => {
                assert!(renamed_to.exists(), "quarantined file kept as evidence");
                assert!(!cache.entry_path(fp).exists(), "entry slot is now empty");
                assert!(reason.contains("CRC"), "reason was {reason:?}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(cache.quarantined().len(), 1);
        // The slot now behaves as a miss: recompute + reinstall works.
        assert_eq!(cache.lookup(fp, &corners), CacheLookup::Miss);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_fingerprint_and_incomplete_entries_are_refused() {
        let dir = temp_dir("verify");
        let cache = ResultCache::open(&dir).unwrap();
        let c = corner(4);
        let fp = 2;

        // Entry built for a *different* config (one more sample) under
        // the same campaign fingerprint — a collision or a stale write.
        let other = corner(5);
        complete_ckpt(&other).save(&cache.entry_path(fp)).unwrap();
        // Same name, different cfg → per-corner fingerprint mismatch.
        match cache.lookup(fp, std::slice::from_ref(&c)) {
            CacheLookup::Quarantined { reason, .. } => {
                assert!(reason.contains("fingerprint"), "reason was {reason:?}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }

        // Incomplete entry: valid CRC, right fingerprint, missing records.
        let mut partial = complete_ckpt(&c);
        partial.corners[0].resume.offsets.pop();
        partial.save(&cache.entry_path(fp)).unwrap();
        match cache.lookup(fp, std::slice::from_ref(&c)) {
            CacheLookup::Quarantined { reason, .. } => {
                assert!(reason.contains("incomplete"), "reason was {reason:?}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(cache.quarantined().len(), 2, "distinct quarantine names");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Backdates a file's mtime by `secs` (eviction is mtime-driven).
    fn backdate(path: &Path, secs: u64) {
        let past = SystemTime::now() - Duration::from_secs(secs);
        let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        file.set_modified(past).unwrap();
    }

    #[test]
    fn size_eviction_drops_oldest_entries_first() {
        let dir = temp_dir("evict-size");
        let cache = ResultCache::open(&dir).unwrap();
        let c = corner(4);
        for fp in 1..=3u64 {
            complete_ckpt(&c).save(&cache.entry_path(fp)).unwrap();
            // Entry 1 is oldest, 3 newest.
            backdate(&cache.entry_path(fp), 1000 - fp * 100);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        let entry_len = stats.bytes / 3;

        // Budget for exactly two entries: the oldest (fp 1) must go.
        let report = cache.evict(&EvictionPolicy {
            max_bytes: Some(entry_len * 2),
            max_age: None,
        });
        assert_eq!(report.evicted_entries, 1);
        assert_eq!(report.bytes_freed, entry_len);
        assert!(!cache.entry_path(1).exists());
        assert!(cache.entry_path(2).exists() && cache.entry_path(3).exists());
        // Survivors still serve.
        assert_eq!(cache.lookup(3, std::slice::from_ref(&c)), CacheLookup::Hit);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantined_files_are_exempt_from_size_but_age_out() {
        let dir = temp_dir("evict-quarantine");
        let cache = ResultCache::open(&dir).unwrap();
        let c = corner(4);
        let corners = [c.clone()];

        // Produce one quarantined file and one fresh live entry.
        complete_ckpt(&c).save(&cache.entry_path(7)).unwrap();
        let mut bytes = std::fs::read(cache.entry_path(7)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(cache.entry_path(7), &bytes).unwrap();
        assert!(matches!(
            cache.lookup(7, &corners),
            CacheLookup::Quarantined { .. }
        ));
        complete_ckpt(&c).save(&cache.entry_path(7)).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.quarantined), (1, 1));

        // A zero-byte size budget removes every live entry but leaves the
        // quarantined evidence alone.
        let report = cache.evict(&EvictionPolicy {
            max_bytes: Some(0),
            max_age: None,
        });
        assert_eq!(report.evicted_entries, 1);
        assert_eq!(report.evicted_quarantined, 0);
        assert_eq!(cache.quarantined().len(), 1);

        // Age applies to quarantined files too.
        backdate(&cache.quarantined()[0], 5000);
        let report = cache.evict(&EvictionPolicy {
            max_bytes: None,
            max_age: Some(Duration::from_secs(60)),
        });
        assert_eq!(report.evicted_quarantined, 1);
        assert!(cache.quarantined().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unbounded_policy_is_a_no_op() {
        let dir = temp_dir("evict-noop");
        let cache = ResultCache::open(&dir).unwrap();
        let c = corner(4);
        complete_ckpt(&c).save(&cache.entry_path(9)).unwrap();
        backdate(&cache.entry_path(9), 100_000);
        assert_eq!(
            cache.evict(&EvictionPolicy::default()),
            EvictionReport::default()
        );
        assert_eq!(cache.stats().entries, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn install_refuses_invalid_source() {
        let dir = temp_dir("install");
        let cache = ResultCache::open(&dir).unwrap();
        let bad = dir.join("bad.ckpt");
        let text = "ISSA-CKPT 1\nend\n";
        // Valid CRC but malformed body (end without corner).
        std::fs::write(&bad, format!("{text}crc {:08x}\n", crc32(text.as_bytes()))).unwrap();
        assert!(cache.install(3, &bad).is_err());
        assert!(!cache.entry_path(3).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
