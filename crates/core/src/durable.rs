//! Durable files: the one atomic publish every on-disk writer in the
//! workspace goes through, and the checksums their formats share.
//!
//! # Atomic publish
//!
//! [`write_atomic`] writes the bytes to a sibling temp file named
//! `<file name>.tmp` (so `run.ckpt` stages as `run.ckpt.tmp`), `fsync`s
//! it, renames it over the target, and then `fsync`s the parent
//! directory. A crash at any point leaves either the old complete file
//! or the new complete file at the target, never a torn one; the
//! directory sync makes the rename itself survive power loss, not only
//! process death. A failed attempt removes its temp file, and attempts
//! are retried under a [`SavePolicy`], which can also script
//! [`IoFault`]s into each stage for tests and chaos drivers.
//!
//! # Checksums
//!
//! [`Crc32`] (IEEE 802.3, table-driven) frames checkpoints, journal
//! records, wire frames and traces; [`Fnv64`] (FNV-1a, 64-bit) derives
//! config, campaign and trace fingerprints. Both are incremental, so a
//! streaming reader and a one-shot writer compute the same value.

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The filesystem operation an [`IoFault`] breaks.
///
/// Each kind maps onto one stage of the atomic publish
/// (`create`+`write` → `fsync` → `rename` → directory `fsync`), so a
/// fault plan can break a save at any stage and tests can prove what the
/// target holds after every one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The data write fails outright (an I/O error from `write`).
    WriteError,
    /// Only part of the payload lands before the device reports it is
    /// full — the ENOSPC shape: a torn temp file exists on disk.
    ShortWrite,
    /// The durability barrier (`fsync`) fails.
    FsyncError,
    /// The atomic publish (`rename` over the target) fails.
    RenameError,
    /// The parent directory's `fsync` after the rename fails: the new
    /// file is complete at the target, but its name is not yet durable.
    DirSync,
}

impl fmt::Display for IoFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            IoFaultKind::WriteError => "write",
            IoFaultKind::ShortWrite => "short-write",
            IoFaultKind::FsyncError => "fsync",
            IoFaultKind::RenameError => "rename",
            IoFaultKind::DirSync => "dir-sync",
        };
        write!(f, "{name}")
    }
}

/// One scripted I/O fault: `kind` fires on save attempt number `at`
/// (0-based, counted across every [`write_atomic`] retry sharing the
/// plan). A transient fault fires exactly once; a `persistent` fault
/// fires on attempt `at` and every attempt after it, which is how tests
/// model a disk that never comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFault {
    /// 0-based global save-attempt number the fault first fires on.
    pub at: u64,
    /// Which stage of the save breaks.
    pub kind: IoFaultKind,
    /// `false`: fires once then heals. `true`: fires forever from `at`.
    pub persistent: bool,
}

#[derive(Debug, Default)]
struct IoPlanInner {
    /// Global save-attempt counter, shared by every clone of the plan.
    attempts: AtomicU64,
    faults: Vec<IoFault>,
}

/// A deterministic I/O fault plan, mirroring the dist layer's wire-fault
/// plan: faults are keyed by a global save-attempt sequence number, the
/// counter is shared across clones (the plan is an `Arc` inside), and a
/// transient fault fires exactly once no matter how many sinks or
/// retries share the plan. Default-off: no plan, no behaviour change.
#[derive(Debug, Clone, Default)]
pub struct IoFaultPlan {
    inner: Arc<IoPlanInner>,
}

impl IoFaultPlan {
    /// Builds a plan from scripted faults.
    #[must_use]
    pub fn new(faults: Vec<IoFault>) -> Self {
        IoFaultPlan {
            inner: Arc::new(IoPlanInner {
                attempts: AtomicU64::new(0),
                faults,
            }),
        }
    }

    /// Convenience: transient faults, each firing once at its attempt.
    #[must_use]
    pub fn transient(faults: &[(u64, IoFaultKind)]) -> Self {
        Self::new(
            faults
                .iter()
                .map(|&(at, kind)| IoFault {
                    at,
                    kind,
                    persistent: false,
                })
                .collect(),
        )
    }

    /// Convenience: one fault firing on every attempt from `at` onwards —
    /// the disk never recovers.
    #[must_use]
    pub fn persistent_from(at: u64, kind: IoFaultKind) -> Self {
        Self::new(vec![IoFault {
            at,
            kind,
            persistent: true,
        }])
    }

    /// Advances the shared attempt counter and returns the fault (if any)
    /// scripted for this attempt. Public so chaos harnesses can dry-run
    /// a schedule; each call consumes one attempt slot.
    pub fn next(&self) -> Option<IoFaultKind> {
        let n = self.inner.attempts.fetch_add(1, Ordering::SeqCst);
        self.inner
            .faults
            .iter()
            .find(|f| if f.persistent { n >= f.at } else { n == f.at })
            .map(|f| f.kind)
    }

    /// Save attempts consumed so far (test observability).
    #[must_use]
    pub fn attempts(&self) -> u64 {
        self.inner.attempts.load(Ordering::SeqCst)
    }
}

/// Retry policy for [`write_atomic`]: how many attempts a single logical
/// save is worth, how long to back off between them, and an optional
/// [`IoFaultPlan`] for tests and chaos drivers.
///
/// [`SavePolicy::standard`] (3 attempts, 10 ms initial backoff, no
/// faults) is what every writer uses unless a caller scripts faults: a
/// transient hiccup — NFS blip, momentary ENOSPC — is retried with
/// doubling backoff; a disk that stays broken surfaces as an error after
/// the last attempt so the caller can degrade instead of aborting.
#[derive(Debug, Clone, Default)]
pub struct SavePolicy {
    /// Total attempts (0 is treated as 1).
    pub attempts: u32,
    /// Sleep before retry `k` is `backoff * 2^(k-1)`.
    pub backoff: Duration,
    /// Scripted faults injected into each attempt (default: none).
    pub faults: Option<IoFaultPlan>,
}

impl SavePolicy {
    /// The production default: 3 attempts, 10 ms initial backoff.
    #[must_use]
    pub fn standard() -> Self {
        SavePolicy {
            attempts: 3,
            backoff: Duration::from_millis(10),
            faults: None,
        }
    }

    /// Replaces the fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: IoFaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// The temp sibling [`write_atomic`] stages `path` through:
/// `<file name>.tmp` in the same directory.
fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces the file at `path` with `bytes` under `policy`.
///
/// Every attempt runs the full sequence (create temp → write → fsync →
/// rename → directory fsync); a failed attempt removes its temp file so
/// retries and later saves start clean, and the target is only ever
/// replaced by a complete, synced file.
///
/// # Errors
///
/// The last attempt's I/O error after `policy.attempts` failures. The
/// target then holds a complete file: the previous one, or — when only
/// the directory sync failed — the new one.
pub fn write_atomic(path: &Path, bytes: &[u8], policy: &SavePolicy) -> io::Result<()> {
    let mut backoff = policy.backoff;
    let mut attempt = 1;
    loop {
        let fault = policy.faults.as_ref().and_then(IoFaultPlan::next);
        match write_attempt(path, bytes, fault) {
            Ok(()) => return Ok(()),
            Err(e) if attempt >= policy.attempts => return Err(e),
            Err(_) => {}
        }
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        backoff = backoff.saturating_mul(2);
        attempt += 1;
    }
}

/// One pass through the atomic publish, with at most one injected fault.
/// On any failure the temp file is removed so the directory never keeps
/// a torn sibling.
fn write_attempt(path: &Path, bytes: &[u8], fault: Option<IoFaultKind>) -> io::Result<()> {
    let tmp = temp_sibling(path);
    let injected = |stage: IoFaultKind, errno: io::ErrorKind| {
        io::Error::new(errno, format!("injected checkpoint {stage} fault"))
    };
    let result = (|| {
        let mut f = File::create(&tmp)?;
        match fault {
            Some(IoFaultKind::WriteError) => {
                return Err(injected(IoFaultKind::WriteError, io::ErrorKind::Other))
            }
            Some(IoFaultKind::ShortWrite) => {
                // Model ENOSPC: half the payload lands, then the device
                // reports full. The torn bytes are real — on disk, in the
                // temp file — which is what the cleanup below is for.
                f.write_all(&bytes[..bytes.len() / 2])?;
                f.sync_all()?;
                return Err(injected(
                    IoFaultKind::ShortWrite,
                    io::ErrorKind::StorageFull,
                ));
            }
            _ => f.write_all(bytes)?,
        }
        if fault == Some(IoFaultKind::FsyncError) {
            return Err(injected(IoFaultKind::FsyncError, io::ErrorKind::Other));
        }
        f.sync_all()?;
        drop(f);
        if fault == Some(IoFaultKind::RenameError) {
            return Err(injected(IoFaultKind::RenameError, io::ErrorKind::Other));
        }
        std::fs::rename(&tmp, path)?;
        if fault == Some(IoFaultKind::DirSync) {
            return Err(injected(IoFaultKind::DirSync, io::ErrorKind::Other));
        }
        sync_parent_dir(path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// The directory holding `path` (`.` for a bare file name).
#[must_use]
pub fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// `fsync`s the directory holding `path`, making a rename into it
/// durable. Directories cannot be opened for syncing off Unix; there
/// the rename's own guarantees are all there is.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if cfg!(unix) {
        File::open(parent_dir(path))?.sync_all()?;
    }
    Ok(())
}

/// Removes stale atomic-write temporaries (`*.ckpt.tmp`, `*.jrnl.tmp`)
/// stranded in `dir` by a crash that landed between temp-write and
/// rename. Call once at startup, *before* any writer targets the
/// directory — a sweep racing a live [`write_atomic`] could delete its
/// in-flight temp and burn a retry. Missing or unreadable directories
/// sweep nothing. Returns the paths removed, sorted, so callers can log
/// exactly what was reclaimed.
#[must_use]
pub fn sweep_stale_temps(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut removed = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let stale = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".ckpt.tmp") || n.ends_with(".jrnl.tmp"));
        if stale && path.is_file() && std::fs::remove_file(&path).is_ok() {
            removed.push(path);
        }
    }
    removed.sort();
    removed
}

/// Incremental CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`);
/// `Crc32::default()` is the CRC of no bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crc32 {
    /// The complement of the shift register (which starts all ones), so
    /// the default is the empty CRC and [`Crc32::finish`] is a read.
    inverted: u32,
}

/// Byte-at-a-time lookup table for [`Crc32`].
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
};

impl Crc32 {
    /// Folds `bytes` into the running CRC.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = !self.inverted;
        for &b in bytes {
            crc = CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.inverted = !crc;
    }

    /// The CRC of every byte fed so far.
    #[must_use]
    pub const fn finish(self) -> u32 {
        self.inverted
    }
}

/// One-shot [`Crc32`] of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(bytes);
    crc.finish()
}

/// Incremental 64-bit FNV-1a hash; `Fnv64::default()` starts from the
/// FNV offset basis.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64 {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fnv64 {
    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.state = h;
    }

    /// The hash of every byte fed so far.
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn fnv(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::default();
        h.update(bytes);
        h.finish()
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_crc_equals_one_shot_at_every_split() {
        let data = b"ISSA-CKPT 1\ncorner a 0000000000000001\nend\n";
        let whole = crc32(data);
        for split in 0..=data.len() {
            let mut crc = Crc32::default();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
        let mut split = Fnv64::default();
        split.update(b"foo");
        split.update(b"bar");
        assert_eq!(split.finish(), fnv(b"foobar"));
    }

    #[test]
    fn temp_sibling_appends_to_the_file_name() {
        assert_eq!(
            temp_sibling(Path::new("state/run.ckpt")),
            Path::new("state/run.ckpt.tmp")
        );
        assert_eq!(temp_sibling(Path::new("port")), Path::new("port.tmp"));
    }

    #[test]
    fn sweep_removes_only_stale_temps() {
        let dir = std::env::temp_dir().join(format!("issa-sweep-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stale_ckpt = dir.join("campaign.ckpt.tmp");
        let stale_jrnl = dir.join("service.jrnl.tmp");
        let keep_ckpt = dir.join("campaign.ckpt");
        let keep_other = dir.join("notes.tmp.txt");
        for p in [&stale_ckpt, &stale_jrnl, &keep_ckpt, &keep_other] {
            std::fs::write(p, b"x").unwrap();
        }
        let mut want = vec![stale_ckpt.clone(), stale_jrnl.clone()];
        want.sort();
        assert_eq!(sweep_stale_temps(&dir), want);
        assert!(!stale_ckpt.exists() && !stale_jrnl.exists());
        assert!(keep_ckpt.exists() && keep_other.exists());
        assert!(
            sweep_stale_temps(&dir).is_empty(),
            "second sweep is a no-op"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
