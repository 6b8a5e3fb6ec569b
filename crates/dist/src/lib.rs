//! Distributed ISSA campaigns: a sharded coordinator/worker service that
//! fans a Monte Carlo campaign out across processes (or machines) and
//! merges the results **bit-identically** to a single-process run.
//!
//! # Why this is possible
//!
//! Every Monte Carlo sample is a pure function of `(config, index)`
//! (seed-tree `root(seed).child(index)`, see
//! [`issa_core::montecarlo`]). The in-process engine already exploits
//! that to make results thread-count invariant — *threads are
//! scheduling, not physics*. This crate extends the same argument to
//! processes: a worker computes each unit with literally the same sample
//! loop the in-process shards call ([`issa_core::batch::run_samples`],
//! which also makes the same lockstep-or-scalar route decision), the
//! coordinator merges the records by index into an
//! [`issa_core::montecarlo::McResume`], and the
//! final statistics are assembled by
//! [`issa_core::montecarlo::run_mc_controlled`] exactly as a resumed
//! local run would. Workers are scheduling, not physics.
//!
//! # Architecture
//!
//! - `acceptor` — the one blocking TCP accept loop that both the
//!   coordinator and the service serve their connections from.
//! - [`frame`] — length-prefixed, CRC-checked frames over any byte
//!   stream (the same corruption discipline as
//!   [`issa_core::checkpoint`]), plus transport-level fault injection.
//! - [`proto`] — the line-oriented text messages inside frames:
//!   handshake with a campaign config fingerprint, work requests, unit
//!   assignments, heartbeats, and per-sample results that reuse the
//!   checkpoint record format.
//! - [`scheduler`] — the pure lease state machine: work units with
//!   per-unit deadlines, bounded retries with exponential backoff,
//!   quarantine of units that exhaust their attempts, and the
//!   campaign-order choice of work across phases served at once.
//! - [`coordinator`] — [`coordinator::serve_campaign`]: accepts
//!   workers, serves every corner's ready phase at once, streams
//!   completed records into the campaign checkpoint (resumable, atomic),
//!   and merges.
//! - [`worker`] — [`worker::run_worker`]: connects, computes assigned
//!   units, heartbeats between samples, reconnects after faults.
//! - [`service`] — [`service::run_service`]: a long-lived supervised
//!   registry of concurrent campaigns behind a line-oriented JSON
//!   control plane ([`control`]), with admission control, a crash-safe
//!   state journal ([`journal`]), and an integrity-verified result
//!   cache ([`cache`]).

mod acceptor;
pub mod cache;
pub mod chaos;
pub mod control;
pub mod coordinator;
pub mod frame;
pub mod journal;
pub mod proto;
pub mod scheduler;
pub mod service;
pub mod worker;

use std::fmt;

/// Why a distributed campaign (or one worker session) failed.
#[derive(Debug)]
pub enum DistError {
    /// Socket-level failure (bind, connect, accept).
    Io(std::io::Error),
    /// A frame could not be read or validated.
    Frame(frame::FrameError),
    /// A frame decoded but its payload is not a valid protocol message,
    /// or a message arrived that the state machine cannot accept.
    Proto(String),
    /// The campaign refused to start (untrusted checkpoint, fingerprint
    /// mismatch) — same failure modes as a local campaign.
    Campaign(issa_core::campaign::CampaignError),
    /// The coordinator rejected this worker's handshake (protocol
    /// version or campaign fingerprint mismatch).
    Rejected(String),
    /// The connection died and the worker's retry policy was exhausted.
    ConnectionLost(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "distributed campaign I/O error: {e}"),
            DistError::Frame(e) => write!(f, "frame error: {e}"),
            DistError::Proto(msg) => write!(f, "protocol error: {msg}"),
            DistError::Campaign(e) => write!(f, "{e}"),
            DistError::Rejected(reason) => write!(f, "coordinator rejected worker: {reason}"),
            DistError::ConnectionLost(msg) => write!(f, "connection lost: {msg}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            DistError::Frame(e) => Some(e),
            DistError::Campaign(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<frame::FrameError> for DistError {
    fn from(e: frame::FrameError) -> Self {
        DistError::Frame(e)
    }
}

impl From<issa_core::campaign::CampaignError> for DistError {
    fn from(e: issa_core::campaign::CampaignError) -> Self {
        DistError::Campaign(e)
    }
}
