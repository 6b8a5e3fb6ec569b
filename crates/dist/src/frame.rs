//! Length-prefixed, CRC-checked frames — the transport discipline of the
//! distribution protocol, matching the checkpoint file's stance on
//! corruption: a truncated or bit-flipped frame is rejected loudly,
//! never half-parsed.
//!
//! # Wire format
//!
//! ```text
//! magic  4 bytes  b"ISDF"
//! len    4 bytes  u32 LE, payload length (<= MAX_FRAME_LEN)
//! crc    4 bytes  u32 LE, CRC-32 of the payload (issa_core::durable::crc32)
//! payload len bytes
//! ```
//!
//! # Fault injection
//!
//! [`WireFaultPlan`] perturbs *outgoing* frames — dropped, duplicated,
//! truncated, or bit-flipped — keyed by a global send sequence number so
//! each fault fires exactly once even across reconnects. This is the
//! transport-level sibling of [`issa_circuit::faultinject`]: the tests
//! prove the retry/reassignment machinery recovers from every fault
//! class without corrupting results.

use issa_core::durable::crc32;
use std::fmt;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"ISDF";

/// Hard ceiling on payload size (16 MiB). A length field above this is a
/// corrupted or hostile header, not a big message: the largest real
/// payload (a full unit result) is a few hundred KiB.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Bytes of header before the payload.
pub const HEADER_LEN: usize = 12;

/// Why a frame could not be read or validated.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying stream failure — including `UnexpectedEof` when the
    /// stream ends mid-frame (truncation) and timeouts on sockets with a
    /// read deadline.
    Io(std::io::Error),
    /// The first four bytes are not [`MAGIC`]: the stream is desynced or
    /// talking a different protocol.
    BadMagic([u8; 4]),
    /// The header's length field exceeds [`MAX_FRAME_LEN`].
    TooLarge(usize),
    /// The payload does not match the header's CRC.
    CrcMismatch {
        /// CRC recorded in the header.
        stored: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
}

impl FrameError {
    /// Whether this error is a socket read deadline expiring (the caller
    /// polls), as opposed to a real transport failure.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::BadMagic(found) => write!(f, "bad frame magic {found:02x?}"),
            FrameError::TooLarge(len) => {
                write!(f, "frame length {len} exceeds limit {MAX_FRAME_LEN}")
            }
            FrameError::CrcMismatch { stored, computed } => write!(
                f,
                "frame CRC mismatch: stored {stored:08x}, computed {computed:08x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes one frame (header + payload) into a fresh buffer.
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the payload exceeds [`MAX_FRAME_LEN`].
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(payload.len()));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .unwrap_or(u32::MAX)
            .to_le_bytes(),
    );
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Reads and validates one frame from a byte stream, returning its
/// payload.
///
/// # Errors
///
/// Every way the bytes can be wrong maps to a distinct [`FrameError`]
/// variant; a corrupted frame never yields a payload.
pub fn read_frame(stream: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header)?;
    let magic: [u8; 4] = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let stored = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    let computed = crc32(&payload);
    if stored != computed {
        return Err(FrameError::CrcMismatch { stored, computed });
    }
    Ok(payload)
}

/// One injected transport fault, applied to an outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// The frame is silently not sent (a lost packet / stalled peer: the
    /// receiver times out and the retry machinery takes over).
    Drop,
    /// The frame is sent twice back to back (a retransmit artefact: the
    /// receiver must reject or idempotently absorb the second copy).
    Duplicate,
    /// Only the first `n` bytes of the encoded frame are sent, then the
    /// byte stream continues with the *next* frame — the receiver's
    /// framing desyncs and must fail loudly, never misparse.
    TruncateTo(usize),
    /// One bit of the encoded frame is flipped (header or payload): the
    /// magic check or CRC must catch it.
    FlipBit {
        /// Byte offset within the encoded frame (out of range = no-op).
        byte: usize,
        /// Bit index within that byte (0–7).
        bit: u8,
    },
}

#[derive(Debug, Default)]
struct PlanInner {
    sent: AtomicU64,
    faults: Vec<(u64, WireFault)>,
}

/// A schedule of transport faults keyed by global send sequence number.
///
/// The sequence counter is shared by every [`FrameStream`] cloned from
/// the same plan and keeps counting across reconnects, so each scheduled
/// fault fires **exactly once** — a re-fired `Drop` after the resulting
/// reconnect would otherwise starve the session forever.
#[derive(Debug, Clone, Default)]
pub struct WireFaultPlan {
    inner: Arc<PlanInner>,
}

impl WireFaultPlan {
    /// A plan firing each `(send sequence, fault)` pair once. Sequence
    /// numbers count every [`FrameStream::send`] on streams sharing this
    /// plan, starting at 0.
    #[must_use]
    pub fn new(faults: Vec<(u64, WireFault)>) -> Self {
        WireFaultPlan {
            inner: Arc::new(PlanInner {
                sent: AtomicU64::new(0),
                faults,
            }),
        }
    }

    /// Total frames offered for sending so far (including dropped ones).
    #[must_use]
    pub fn frames_sent(&self) -> u64 {
        self.inner.sent.load(Ordering::Relaxed)
    }

    /// Advances the sequence counter and returns the fault scheduled for
    /// this send, if any.
    fn next(&self) -> Option<WireFault> {
        let seq = self.inner.sent.fetch_add(1, Ordering::Relaxed);
        self.inner
            .faults
            .iter()
            .find(|(at, _)| *at == seq)
            .map(|(_, f)| *f)
    }
}

/// A framed byte stream: [`send`](FrameStream::send) /
/// [`recv`](FrameStream::recv) of whole validated payloads, with
/// optional outgoing fault injection.
#[derive(Debug)]
pub struct FrameStream<S> {
    stream: S,
    faults: Option<WireFaultPlan>,
}

impl<S: Read + Write> FrameStream<S> {
    /// Wraps a stream with no fault injection.
    pub fn new(stream: S) -> Self {
        FrameStream {
            stream,
            faults: None,
        }
    }

    /// Wraps a stream, perturbing outgoing frames per `faults`.
    pub fn with_faults(stream: S, faults: Option<WireFaultPlan>) -> Self {
        FrameStream { stream, faults }
    }

    /// The wrapped stream (e.g. to set socket timeouts).
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Frames and sends one payload, applying any scheduled fault.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] for oversized payloads,
    /// [`FrameError::Io`] on write failure.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        let bytes = encode_frame(payload)?;
        match self.faults.as_ref().and_then(WireFaultPlan::next) {
            None => self.stream.write_all(&bytes)?,
            Some(WireFault::Drop) => {}
            Some(WireFault::Duplicate) => {
                self.stream.write_all(&bytes)?;
                self.stream.write_all(&bytes)?;
            }
            Some(WireFault::TruncateTo(n)) => {
                self.stream.write_all(&bytes[..n.min(bytes.len())])?;
            }
            Some(WireFault::FlipBit { byte, bit }) => {
                let mut corrupted = bytes;
                if let Some(b) = corrupted.get_mut(byte) {
                    *b ^= 1 << (bit & 7);
                }
                self.stream.write_all(&corrupted)?;
            }
        }
        self.stream.flush()?;
        Ok(())
    }

    /// Receives and validates one frame's payload.
    ///
    /// # Errors
    ///
    /// See [`read_frame`].
    pub fn recv(&mut self) -> Result<Vec<u8>, FrameError> {
        read_frame(&mut self.stream)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn round_trips_payloads() {
        for payload in [&b""[..], b"x", b"hello frame", &[0u8; 4096]] {
            let bytes = encode_frame(payload).unwrap();
            assert_eq!(bytes.len(), HEADER_LEN + payload.len());
            let decoded = read_frame(&mut &bytes[..]).unwrap();
            assert_eq!(decoded, payload);
        }
    }

    #[test]
    fn oversized_payload_is_refused_at_send() {
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            encode_frame(&big),
            Err(FrameError::TooLarge(n)) if n == MAX_FRAME_LEN + 1
        ));
    }

    #[test]
    fn fault_plan_fires_each_fault_once() {
        let plan = WireFaultPlan::new(vec![(1, WireFault::Drop)]);
        assert_eq!(plan.next(), None); // seq 0
        assert_eq!(plan.next(), Some(WireFault::Drop)); // seq 1
        assert_eq!(plan.next(), None); // seq 2: the fault never re-fires
        assert_eq!(plan.frames_sent(), 3);
    }

    #[test]
    fn fault_plan_counter_is_shared_across_clones() {
        let plan = WireFaultPlan::new(vec![(1, WireFault::Drop)]);
        let clone = plan.clone();
        assert_eq!(plan.next(), None);
        // The clone sees the advanced counter — the fault fires on it.
        assert_eq!(clone.next(), Some(WireFault::Drop));
        assert_eq!(plan.frames_sent(), 2);
    }
}
