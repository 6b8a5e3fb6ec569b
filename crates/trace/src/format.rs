//! The `ISSA-TRC 1` on-disk trace format.
//!
//! A trace records what an SRAM macro was actually asked to do — one
//! `(cycle, op, address, data-word)` event per memory operation — so the
//! aging pipeline can stress devices with *measured* duty factors instead
//! of synthetic 0/1 mixes.
//!
//! # Layout
//!
//! The file is binary, little-endian, and CRC-trailed:
//!
//! ```text
//! offset  size  field
//! 0       11    magic line b"ISSA-TRC 1\n"
//! 11      4     rows     (u32) — array depth the addresses index
//! 15      4     width    (u32) — word width in bits (<= 64)
//! 19      8     events   (u64) — event record count
//! 27      21×n  events: cycle (u64), op (u8), address (u32), data (u64)
//! 27+21n  4     crc32 (IEEE) over every preceding byte
//! ```
//!
//! The event count in the header pins the exact file length, so any
//! truncation is detected *before* events are consumed; the CRC trailer
//! catches every bit flip. Writes go through the same atomic publish as
//! `issa-core`'s checkpoints ([`issa_core::durable`]): a crash never
//! publishes a torn trace, and a failed save leaves any previous trace at
//! the path intact.
//!
//! Readers stream: [`TraceReader`] yields events one at a time from a
//! buffered file handle, accumulating the CRC and fingerprint
//! incrementally, and verifies the trailer when the last event is
//! consumed — a multi-gigabyte trace is never materialized in memory.

use issa_core::durable::{crc32, write_atomic, Crc32, Fnv64, SavePolicy};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

/// First line of every trace file; the digit is the format version.
pub const MAGIC: &[u8] = b"ISSA-TRC 1\n";

/// Fixed byte length of one serialized event record.
pub const EVENT_LEN: usize = 8 + 1 + 4 + 8;

/// Byte length of the header (magic + rows + width + count).
pub const HEADER_LEN: usize = MAGIC.len() + 4 + 4 + 8;

/// Every way a trace file can be wrong, as a distinct variant — nothing
/// is ever half-loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Filesystem-level failure (including a missing file).
    Io(String),
    /// The file is shorter (or longer) than its header promises, or ends
    /// mid-record.
    Truncated,
    /// The CRC trailer does not match the bytes.
    CrcMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the file body.
        computed: u32,
    },
    /// The magic line names a version this reader does not speak.
    UnsupportedVersion {
        /// The first line actually found.
        found: String,
    },
    /// Structurally invalid content (bad op code, zero geometry,
    /// out-of-range address).
    Malformed {
        /// Byte offset of the offending record (0 for header problems).
        offset: u64,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "trace I/O error: {e}"),
            Self::Truncated => write!(f, "trace file is truncated"),
            Self::CrcMismatch { stored, computed } => write!(
                f,
                "trace CRC mismatch: stored {stored:08x}, computed {computed:08x}"
            ),
            Self::UnsupportedVersion { found } => {
                write!(f, "unsupported trace version: {found:?}")
            }
            Self::Malformed { offset, reason } => {
                write!(f, "malformed trace at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// What one trace event did to the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Word-wide read; `data` is the expected (stored) word.
    Read,
    /// Word-wide write of `data`.
    Write,
}

impl TraceOp {
    fn code(self) -> u8 {
        match self {
            Self::Read => 0,
            Self::Write => 1,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Read),
            1 => Some(Self::Write),
            _ => None,
        }
    }
}

/// One recorded memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle number the operation occurred on (cycles without an event
    /// are idle; activation duty falls out of the event/cycle ratio).
    pub cycle: u64,
    /// Read or write.
    pub op: TraceOp,
    /// Row address.
    pub address: u32,
    /// Data word, bit `j` in bit `j` (low `width` bits meaningful).
    pub data: u64,
}

impl TraceEvent {
    fn to_bytes(self) -> [u8; EVENT_LEN] {
        let mut b = [0u8; EVENT_LEN];
        b[0..8].copy_from_slice(&self.cycle.to_le_bytes());
        b[8] = self.op.code();
        b[9..13].copy_from_slice(&self.address.to_le_bytes());
        b[13..21].copy_from_slice(&self.data.to_le_bytes());
        b
    }

    fn from_bytes(b: &[u8; EVENT_LEN], offset: u64) -> Result<Self, TraceError> {
        let op = TraceOp::from_code(b[8]).ok_or_else(|| TraceError::Malformed {
            offset,
            reason: format!("unknown op code {}", b[8]),
        })?;
        let mut cycle = [0u8; 8];
        cycle.copy_from_slice(&b[0..8]);
        let mut address = [0u8; 4];
        address.copy_from_slice(&b[9..13]);
        let mut data = [0u8; 8];
        data.copy_from_slice(&b[13..21]);
        Ok(Self {
            cycle: u64::from_le_bytes(cycle),
            op,
            address: u32::from_le_bytes(address),
            data: u64::from_le_bytes(data),
        })
    }
}

/// A fully materialized trace (generation and tests; replay streams via
/// [`TraceReader`] instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Array depth the addresses index.
    pub rows: u32,
    /// Word width in bits (`<= 64`).
    pub width: u32,
    /// The recorded events, in cycle order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or `width` is not in `1..=64`.
    pub fn new(rows: u32, width: u32) -> Self {
        assert!(rows > 0, "trace needs at least one row");
        assert!((1..=64).contains(&width), "width {width} out of range");
        Self {
            rows,
            width,
            events: Vec::new(),
        }
    }

    /// Serializes to the on-disk format, including the CRC trailer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + EVENT_LEN * self.events.len() + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        for e in &self.events {
            out.extend_from_slice(&e.to_bytes());
        }
        out.extend_from_slice(&crc32(&out).to_le_bytes());
        out
    }

    /// Parses the on-disk format, validating magic, geometry, length and
    /// CRC.
    ///
    /// # Errors
    ///
    /// Every [`TraceError`] validation variant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut reader = TraceReader::from_reader(bytes, bytes.len() as u64)?;
        let mut events = Vec::with_capacity(reader.events_total() as usize);
        while let Some(e) = reader.next_event()? {
            events.push(e);
        }
        Ok(Self {
            rows: reader.rows(),
            width: reader.width(),
            events,
        })
    }

    /// The trace fingerprint: FNV-1a over the exact serialized bytes
    /// (header, events, and CRC trailer). Identical traces — and only
    /// identical traces — share a fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fnv64::default();
        f.update(&self.to_bytes());
        f.finish()
    }

    /// Atomically writes the trace to `path` through
    /// [`issa_core::durable::write_atomic`] — the same publish as
    /// `issa-core`'s checkpoints, so a crash never publishes a torn
    /// trace.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`]; the previous file at `path` (if any) is
    /// intact whenever this returns an error.
    pub fn save(&self, path: &Path) -> Result<(), TraceError> {
        Ok(write_atomic(
            path,
            &self.to_bytes(),
            &SavePolicy::standard(),
        )?)
    }

    /// Loads and fully validates a trace file.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be read, plus every
    /// [`Trace::from_bytes`] validation error.
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

/// Streaming trace reader: validates the header eagerly, yields events
/// one at a time, and verifies the CRC trailer when the stream drains.
pub struct TraceReader<R: Read> {
    src: R,
    rows: u32,
    width: u32,
    events_total: u64,
    remaining: u64,
    offset: u64,
    crc: Crc32,
    fnv: Fnv64,
    verified: bool,
}

impl TraceReader<BufReader<File>> {
    /// Opens a trace file, validating magic, geometry and exact length
    /// (the header's event count pins it) before any event is read.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on filesystem failure, [`TraceError::Truncated`]
    /// on a length mismatch, and the header validation errors of
    /// [`TraceReader::from_reader`].
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Self::from_reader(BufReader::new(file), len)
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps any byte source of known total length.
    ///
    /// # Errors
    ///
    /// Header validation: [`TraceError::Truncated`],
    /// [`TraceError::UnsupportedVersion`], [`TraceError::Malformed`].
    pub fn from_reader(mut src: R, total_len: u64) -> Result<Self, TraceError> {
        let mut head = [0u8; HEADER_LEN];
        read_exact_or_truncated(&mut src, &mut head)?;
        if &head[..MAGIC.len()] != MAGIC {
            let found = String::from_utf8_lossy(&head[..MAGIC.len()])
                .trim_end_matches('\n')
                .to_owned();
            return Err(TraceError::UnsupportedVersion { found });
        }
        let rows = u32::from_le_bytes([head[11], head[12], head[13], head[14]]);
        let width = u32::from_le_bytes([head[15], head[16], head[17], head[18]]);
        let mut count = [0u8; 8];
        count.copy_from_slice(&head[19..27]);
        let events_total = u64::from_le_bytes(count);
        if rows == 0 || !(1..=64).contains(&width) {
            return Err(TraceError::Malformed {
                offset: 0,
                reason: format!("invalid geometry rows={rows} width={width}"),
            });
        }
        // Checked: a corrupted count field can claim more events than any
        // file could hold; that's corruption, not an arithmetic panic.
        let expected = (EVENT_LEN as u64)
            .checked_mul(events_total)
            .and_then(|n| n.checked_add(HEADER_LEN as u64 + 4));
        if expected != Some(total_len) {
            return Err(TraceError::Truncated);
        }
        let mut crc = Crc32::default();
        crc.update(&head);
        let mut fnv = Fnv64::default();
        fnv.update(&head);
        Ok(Self {
            src,
            rows,
            width,
            events_total,
            remaining: events_total,
            offset: HEADER_LEN as u64,
            crc,
            fnv,
            verified: false,
        })
    }

    /// Array depth from the header.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Word width from the header.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Total event count from the header.
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    /// Next event, or `None` once the stream has drained *and* the CRC
    /// trailer verified.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] on a short read,
    /// [`TraceError::Malformed`] on an invalid record, and
    /// [`TraceError::CrcMismatch`] from the trailer check.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceError> {
        if self.remaining == 0 {
            if !self.verified {
                let mut trailer = [0u8; 4];
                read_exact_or_truncated(&mut self.src, &mut trailer)?;
                self.fnv.update(&trailer);
                let stored = u32::from_le_bytes(trailer);
                let computed = self.crc.finish();
                if stored != computed {
                    return Err(TraceError::CrcMismatch { stored, computed });
                }
                self.verified = true;
            }
            return Ok(None);
        }
        let mut buf = [0u8; EVENT_LEN];
        read_exact_or_truncated(&mut self.src, &mut buf)?;
        self.crc.update(&buf);
        self.fnv.update(&buf);
        let event = TraceEvent::from_bytes(&buf, self.offset)?;
        if event.address as u64 >= u64::from(self.rows) {
            return Err(TraceError::Malformed {
                offset: self.offset,
                reason: format!(
                    "address {} out of range (rows {})",
                    event.address, self.rows
                ),
            });
        }
        self.offset += EVENT_LEN as u64;
        self.remaining -= 1;
        Ok(Some(event))
    }

    /// The file fingerprint — available only after the stream drained
    /// and the CRC verified (i.e. [`TraceReader::next_event`] returned
    /// `Ok(None)`).
    pub fn fingerprint(&self) -> Option<u64> {
        self.verified.then_some(self.fnv.finish())
    }
}

fn read_exact_or_truncated<R: Read>(src: &mut R, buf: &mut [u8]) -> Result<(), TraceError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated
        } else {
            TraceError::Io(e.to_string())
        }
    })
}

/// Streams a trace file end to end, verifying length and CRC, and
/// returns its fingerprint without materializing the events.
///
/// # Errors
///
/// Every [`TraceError`] validation variant.
pub fn trace_fingerprint(path: &Path) -> Result<u64, TraceError> {
    let mut reader = TraceReader::open(path)?;
    while reader.next_event()?.is_some() {}
    reader.fingerprint().ok_or_else(|| TraceError::Malformed {
        offset: 0,
        reason: "fingerprint unavailable after drain".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new(16, 8);
        t.events.push(TraceEvent {
            cycle: 0,
            op: TraceOp::Write,
            address: 3,
            data: 0b1010_0110,
        });
        t.events.push(TraceEvent {
            cycle: 1,
            op: TraceOp::Read,
            address: 3,
            data: 0b1010_0110,
        });
        t.events.push(TraceEvent {
            cycle: 5,
            op: TraceOp::Read,
            address: 15,
            data: 0,
        });
        t
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let t = sample();
        let bytes = t.to_bytes();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), t);
        assert_eq!(Trace::from_bytes(&bytes).unwrap().to_bytes(), bytes);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let t = sample();
        let mut other = t.clone();
        other.events[1].data ^= 1;
        assert_ne!(t.fingerprint(), other.fingerprint());
        assert_eq!(t.fingerprint(), t.clone().fingerprint());
    }

    #[test]
    fn streaming_fingerprint_matches_in_memory() {
        let t = sample();
        let bytes = t.to_bytes();
        let mut r = TraceReader::from_reader(&bytes[..], bytes.len() as u64).unwrap();
        while r.next_event().unwrap().is_some() {}
        assert_eq!(r.fingerprint(), Some(t.fingerprint()));
    }

    #[test]
    fn bad_op_code_is_malformed() {
        let t = sample();
        let mut bytes = t.to_bytes();
        bytes[HEADER_LEN + 8] = 7; // first event's op
                                   // Recompute the CRC so the op check (not the CRC) fires.
        let body_len = bytes.len() - 4;
        let trailer = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&trailer);
        match Trace::from_bytes(&bytes) {
            Err(TraceError::Malformed { reason, .. }) => {
                assert!(reason.contains("op code"), "{reason}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_address_is_malformed() {
        let mut t = sample();
        t.events[2].address = 16; // rows = 16
        let bytes = t.to_bytes();
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Malformed { .. })
        ));
    }

    #[test]
    fn atomic_save_round_trips_and_cleans_temp() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("issa-trace-fmt-{}.trc", std::process::id()));
        let t = sample();
        t.save(&path).unwrap();
        assert!(!path.with_extension("trc.tmp").exists());
        let loaded = Trace::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded, t);
    }
}
