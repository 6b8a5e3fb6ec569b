//! Input-Switching Sense Amplifier (ISSA): run-time mitigation of
//! workload-dependent sense-amplifier aging.
//!
//! This crate is the reproduction of the paper's contribution (Kraak et
//! al., *Mitigation of Sense Amplifier Degradation Using Input Switching*,
//! DATE 2017). It builds on the workspace substrates:
//!
//! - [`issa_circuit`] — transient simulation of the SA cells;
//! - [`issa_ptm45`] — 45 nm device cards;
//! - [`issa_bti`] — atomistic BTI aging;
//! - [`issa_digital`] — the input-switching control block.
//!
//! # What it models
//!
//! - [`netlist`] — the standard latch-type sense amplifier (paper Fig. 1,
//!   "NSSA") and the input-switching variant with the extra crossed pass
//!   pair M3/M4 (Fig. 2, "ISSA"), as circuit-level netlists;
//! - [`workload`] — the six evaluation workloads (80r0r1, 80r0, 80r1,
//!   20r0r1, 20r0, 20r1) and their compilation through the control logic;
//! - [`stress`] — the mapping from a compiled workload to a per-transistor
//!   BTI stress condition;
//! - [`variation`] — Pelgrom-law time-zero Vth mismatch;
//! - [`probe`] — offset-voltage extraction (binary search on the input
//!   differential, each probe a regeneration transient) and sensing-delay
//!   measurement (SAenable 50 % → output 50 %);
//! - [`montecarlo`] — the 400-sample Monte Carlo analysis;
//! - [`spec`] — the offset-voltage *specification* solver (paper Eq. 3,
//!   failure rate 10⁻⁹ → ≈ 6.1 σ);
//! - [`tail`] — importance-sampled direct estimation of the 10⁻⁹ offset
//!   tail (mixture-shifted Pelgrom proposal, adaptive CI-driven stopping)
//!   as an alternative to the Gaussian extrapolation;
//! - [`overhead`] — the area/energy overhead accounting of Section IV-C;
//! - [`calib`] — every calibration constant, each tied to the paper value
//!   it anchors.
//!
//! # Quickstart
//!
//! ```
//! use issa_core::prelude::*;
//!
//! # fn main() -> Result<(), issa_core::SaError> {
//! let env = Environment::nominal();
//! // A fresh (unaged, no-mismatch) standard sense amplifier:
//! let sa = SaInstance::fresh(SaKind::Nssa, env);
//! // It senses a healthy 50 mV differential correctly in both directions:
//! assert_eq!(sa.sense(50e-3, &ProbeOptions::default())?, SenseOutcome::One);
//! assert_eq!(sa.sense(-50e-3, &ProbeOptions::default())?, SenseOutcome::Zero);
//! // And its input-referred offset is well under a millivolt:
//! let offset = sa.offset_voltage(&ProbeOptions::default())?;
//! assert!(offset.abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod calib;
pub mod campaign;
pub mod checkpoint;
pub mod driver;
pub mod durable;
pub mod lifetime;
pub mod metastability;
pub mod montecarlo;
pub mod netlist;
pub mod overhead;
pub mod perf;
pub mod probe;
pub mod spec;
pub mod stress;
pub mod stress_trace;
pub mod tail;
pub mod variation;
pub mod workload;

/// The workspace's one SplitMix64 mixer (defined in `rand`), for crates
/// that depend on `issa-core` alone.
pub use issa_num::rng::splitmix64;
pub use netlist::{SaDevice, SaInstance, SaKind, SaSizing};
pub use probe::{OffsetSearch, ProbeOptions, SenseOutcome};
pub use workload::{ReadSequence, Workload};

use std::fmt;

/// Convenient star-import surface for examples and integration tests.
pub mod prelude {
    pub use crate::montecarlo::{AgingMode, McConfig, McResult};
    pub use crate::netlist::{SaDevice, SaInstance, SaKind, SaSizing};
    pub use crate::probe::{OffsetSearch, ProbeOptions, SenseOutcome};
    pub use crate::spec::offset_spec;
    pub use crate::stress::{compile_workload, device_stress, StressModel};
    pub use crate::variation::MismatchModel;
    pub use crate::workload::{ReadSequence, Workload};
    pub use crate::SaError;
    pub use issa_bti::BtiParams;
    pub use issa_ptm45::Environment;
}

/// Errors from sense-amplifier analyses.
#[derive(Debug, Clone, PartialEq)]
pub enum SaError {
    /// The underlying circuit simulation failed.
    Circuit(issa_circuit::CircuitError),
    /// The SA did not resolve to a full logic level within the probe's
    /// simulation window (true metastability or a too-short window).
    Unresolved {
        /// Final differential between the internal nodes \[V\].
        differential: f64,
    },
    /// The offset search bracket did not contain a decision flip — the SA
    /// is stuck at one decision for every input in range (gross failure).
    OffsetOutOfRange {
        /// Search bracket half-width that was tried \[V\].
        vin_max: f64,
    },
    /// A required measurement signal never crossed its threshold.
    MissingCrossing {
        /// The signal that failed to cross.
        signal: String,
    },
    /// More Monte Carlo samples failed (after solver recovery) than
    /// [`McConfig::max_failure_frac`](montecarlo::McConfig::max_failure_frac)
    /// allows. Carries the full quarantine list so callers can report
    /// exactly which samples died and why.
    FailureBudgetExceeded {
        /// Distinct samples that failed.
        failed: usize,
        /// Total samples in the run.
        total: usize,
        /// Every quarantined sample, in index order.
        failures: Vec<montecarlo::SampleFailure>,
    },
    /// A campaign-level cancellation (deadline or interrupt) stopped the
    /// analysis before any sample completed — there are no statistics to
    /// report, not even partial ones.
    Cancelled {
        /// Samples that had completed when the cancellation landed.
        completed: usize,
        /// Samples the configuration asked for.
        total: usize,
    },
}

impl fmt::Display for SaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaError::Circuit(e) => write!(f, "circuit simulation failed: {e}"),
            SaError::Unresolved { differential } => write!(
                f,
                "sense amplifier did not resolve (final differential {differential:e} V)"
            ),
            SaError::OffsetOutOfRange { vin_max } => {
                write!(f, "no decision flip within ±{vin_max} V input range")
            }
            SaError::MissingCrossing { signal } => {
                write!(
                    f,
                    "signal '{signal}' never crossed its measurement threshold"
                )
            }
            SaError::FailureBudgetExceeded {
                failed,
                total,
                failures,
            } => {
                write!(
                    f,
                    "{failed} of {total} Monte Carlo samples failed, exceeding the failure budget"
                )?;
                for fail in failures {
                    write!(f, "\n  {fail}")?;
                }
                Ok(())
            }
            SaError::Cancelled { completed, total } => {
                write!(
                    f,
                    "analysis cancelled with {completed} of {total} samples completed"
                )
            }
        }
    }
}

impl std::error::Error for SaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SaError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<issa_circuit::CircuitError> for SaError {
    fn from(e: issa_circuit::CircuitError) -> Self {
        SaError::Circuit(e)
    }
}
