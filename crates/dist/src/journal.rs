//! Crash-safe append-only journal for service state, reusing the
//! `ISSA-CKPT` discipline: a text header, one CRC-framed record per
//! line, atomic compaction through `issa_core::durable`, and replay that
//! stops cleanly at a torn tail instead of trusting it.
//!
//! The journal answers one question after a SIGKILL: *which submissions
//! did the service accept, and how far did each get?* Records are
//! opaque strings to this module (the service encodes its own
//! `submit`/`state`/`done`/`shutdown` events); what the journal
//! guarantees is that a record, once [`Journal::append`] returns, is on
//! disk with a CRC — and that replay never yields a half-written one.
//!
//! ```text
//! ISSA-JRNL 1
//! <crc32:08x> <payload, checkpoint-escaped>
//! <crc32:08x> <payload, checkpoint-escaped>
//! ```
//!
//! The CRC covers the *escaped* payload bytes, so records are validated
//! before unescaping and a flipped bit anywhere in the line is caught.
//! A kill mid-append leaves at most one torn final line; replay
//! truncates it (reporting how many bytes were dropped) and the
//! follow-up [`Journal::compact`] rewrites the file without it.

use issa_core::checkpoint::{escape, unescape};
use issa_core::durable::{crc32, write_atomic, SavePolicy};
use std::io::Write;
use std::path::{Path, PathBuf};

/// First line of every journal file; the version is part of the magic.
pub const JOURNAL_MAGIC: &str = "ISSA-JRNL 1";

/// What [`Journal::replay`] recovered.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Replay {
    /// Valid records, in append order.
    pub records: Vec<String>,
    /// Bytes discarded from a torn or corrupt tail (0 on a clean file).
    /// The first bad line ends the replay: everything after it is
    /// untrusted, because append order is the only ordering we have.
    pub torn_bytes: usize,
}

/// An open journal, appending durably to its file.
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
    path: PathBuf,
}

impl Journal {
    /// Reads every valid record from `path`. A missing file replays to
    /// nothing; a file with a bad magic replays to nothing with its
    /// whole length reported torn (the compact that follows starts
    /// fresh rather than appending to an alien file).
    ///
    /// # Errors
    ///
    /// I/O errors other than `NotFound`.
    pub fn replay(path: &Path) -> std::io::Result<Replay> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
            Err(e) => return Err(e),
        };
        let text = String::from_utf8_lossy(&bytes);
        let mut replay = Replay::default();
        let mut consumed = 0usize;
        let mut lines = text.split_inclusive('\n');
        match lines.next() {
            Some(first) if first.trim_end_matches(['\r', '\n']) == JOURNAL_MAGIC => {
                consumed += first.len();
            }
            _ => {
                replay.torn_bytes = bytes.len();
                return Ok(replay);
            }
        }
        for line in lines {
            let body = line.trim_end_matches(['\r', '\n']);
            let Some(record) = decode_record(body) else {
                break;
            };
            replay.records.push(record);
            consumed += line.len();
        }
        replay.torn_bytes = bytes.len() - consumed;
        Ok(replay)
    }

    /// Atomically rewrites `path` to hold exactly `records` through
    /// [`write_atomic`] (the temp is a sibling `*.jrnl.tmp`, covered by
    /// the startup sweep).
    ///
    /// # Errors
    ///
    /// Any I/O failure; the previous journal file is left untouched.
    pub fn compact(path: &Path, records: &[String]) -> std::io::Result<()> {
        let mut body = String::with_capacity(64 * (records.len() + 1));
        body.push_str(JOURNAL_MAGIC);
        body.push('\n');
        for record in records {
            body.push_str(&encode_record(record));
            body.push('\n');
        }
        write_atomic(path, body.as_bytes(), &SavePolicy::standard())
    }

    /// Opens `path` (which must exist — create it with
    /// [`Journal::compact`] first) for durable appends.
    ///
    /// # Errors
    ///
    /// Any open failure.
    pub fn open_append(path: &Path) -> std::io::Result<Journal> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// The journal's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and fsyncs. When this returns, the record
    /// survives a SIGKILL — the service acks a submission only after
    /// its `submit` record passed through here (journal-then-ack).
    ///
    /// # Errors
    ///
    /// Any write or fsync failure.
    pub fn append(&mut self, record: &str) -> std::io::Result<()> {
        let mut line = encode_record(record);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

fn encode_record(record: &str) -> String {
    let escaped = escape(record);
    format!("{:08x} {escaped}", crc32(escaped.as_bytes()))
}

fn decode_record(line: &str) -> Option<String> {
    let (crc_hex, escaped) = line.split_once(' ')?;
    if crc_hex.len() != 8 {
        return None;
    }
    let stored = u32::from_str_radix(crc_hex, 16).ok()?;
    if stored != crc32(escaped.as_bytes()) {
        return None;
    }
    Some(unescape(escaped))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_jrnl(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "issa-journal-test-{}-{tag}-{n}.jrnl",
            std::process::id()
        ))
    }

    #[test]
    fn append_replay_round_trips() {
        let path = temp_jrnl("roundtrip");
        Journal::compact(&path, &[]).unwrap();
        let mut j = Journal::open_append(&path).unwrap();
        let records = [
            "submit c0001 tenant-a 0123456789abcdef {\"samples\":24}",
            "state c0001 running attempt=1",
            "weird payload with\nnewline\tand trailing space ",
            "done c0001 1 table2.csv",
        ];
        for r in &records {
            j.append(r).unwrap();
        }
        drop(j);
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.records, records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_trusted() {
        let path = temp_jrnl("torn");
        Journal::compact(&path, &["first".to_owned(), "second".to_owned()]).unwrap();
        // Simulate a kill mid-append: half a record, no newline.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"deadbeef thi");
        std::fs::write(&path, &bytes).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.records, ["first", "second"]);
        assert_eq!(replay.torn_bytes, "deadbeef thi".len());
        // Compaction drops the tail for good.
        Journal::compact(&path, &replay.records).unwrap();
        let clean = Journal::replay(&path).unwrap();
        assert_eq!(clean.torn_bytes, 0);
        assert_eq!(clean.records, ["first", "second"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_flipped_bit_in_a_record_is_rejected() {
        let path = temp_jrnl("flips");
        Journal::compact(&path, &["only-record payload".to_owned()]).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let start = JOURNAL_MAGIC.len() + 1;
        for byte in start..clean.len() - 1 {
            for bit in 0..8 {
                let mut corrupt = clean.clone();
                corrupt[byte] ^= 1 << bit;
                std::fs::write(&path, &corrupt).unwrap();
                let replay = Journal::replay(&path).unwrap();
                assert!(
                    replay.records.is_empty() || replay.records == ["only-record payload"],
                    "flip at byte {byte} bit {bit} yielded {:?}",
                    replay.records
                );
                // A corrupted record never decodes to something else.
                if !replay.records.is_empty() {
                    // The flip landed in trailing whitespace handling or
                    // was masked by CRC collision-free check — the only
                    // acceptable survival is the exact original.
                    assert_eq!(replay.records, ["only-record payload"]);
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_and_alien_magic_replay_empty() {
        let path = temp_jrnl("missing");
        assert_eq!(Journal::replay(&path).unwrap(), Replay::default());
        std::fs::write(&path, b"NOT A JOURNAL\nwhatever\n").unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert!(replay.records.is_empty());
        assert!(replay.torn_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }
}
