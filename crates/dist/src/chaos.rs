//! Seeded chaos composition: one `chaos_seed` deterministically derives
//! every fault the soak injects — solver faults, worker crash scripts,
//! wire faults, checkpoint I/O faults, and the coordinator-kill delay.
//!
//! # Why the *solver* plans must be shared, not just seeded
//!
//! A transient solver fault is recovered by the engine's retry ladder,
//! and the recovered sample value is deterministic **given the plan**
//! but differs (at ~1e-6) from the value the unfaulted solve produces.
//! A chaos run can therefore only be byte-compared against a reference
//! run that carries the *identical* [`FaultPlan`] in its `McConfig` —
//! which also keeps the config fingerprint (and hence the distributed
//! handshake) in agreement across coordinator, workers, and the local
//! reference. Everything here is a pure function of its arguments so
//! every process sharing the seed rebuilds the same plans bit for bit.
//!
//! Transport faults, scripted worker deaths, checkpoint I/O faults, and
//! the SIGKILL point, by contrast, are *scheduling* perturbations: the
//! engine's contract is that they are invisible in the output, so they
//! only need to be reproducible, not shared.

use crate::frame::{WireFault, WireFaultPlan};
use crate::worker::WorkerOptions;
use issa_circuit::faultinject::{FaultKind, FaultPlan};
use issa_core::durable::{IoFaultKind, IoFaultPlan};
use issa_core::splitmix64;
use std::sync::Arc;
use std::time::Duration;

/// Name shared by the scripted crash-loop workers, so their lease
/// revocations accumulate on one flakiness record and the quarantine
/// machinery (keyed by worker *name*) can trip mid-soak.
pub const FLAKY_NAME: &str = "chaos-flaky";

/// How many same-name crash-scripted workers [`worker_fleet`] adds on
/// top of the healthy fleet. With one revocation per scripted death,
/// the last one's handshake lands on a score of `FLAKY_DEATHS - 1`.
pub const FLAKY_DEATHS: u64 = 4;

/// Flakiness threshold for a chaos coordinator: low enough that the
/// [`FLAKY_DEATHS`]-strong crash loop is quarantined before it drains,
/// high enough that a wire-faulted worker's couple of reconnect
/// revocations never trip it.
pub const FLAKY_THRESHOLD: f64 = (FLAKY_DEATHS - 1) as f64;

/// A SplitMix64 stream ([`splitmix64`] of `state`, `state + GAMMA`, …):
/// tiny, seedable, and identical on every platform — the derivation
/// backbone for all chaos schedules. Distinct `stream`
/// values give independent sequences from one seed.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

/// SplitMix64's golden-ratio state increment.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

impl ChaosRng {
    /// A stream of pseudo-random words fully determined by
    /// `(seed, stream)`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        ChaosRng {
            state: seed ^ stream.wrapping_mul(GAMMA),
        }
    }

    /// Next word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let word = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        word
    }

    /// Uniform-enough value in `0..n` (`n` = 0 yields 0). The modulo
    /// bias is irrelevant for fault scheduling.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// The deterministic solver-fault plan for one corner, shared verbatim
/// by coordinator, workers, and the clean reference run (see the module
/// docs for why sharing is load-bearing). Roughly every other corner
/// gets one or two *transient* faults — always transient: the ladder
/// recovers them, so the corner still completes and the comparison is
/// byte-for-byte. `None` means this corner runs fault-free.
#[must_use]
pub fn solver_plan(chaos_seed: u64, corner_index: usize, samples: usize) -> Option<Arc<FaultPlan>> {
    const KINDS: [FaultKind; 3] = [
        FaultKind::NonConvergence,
        FaultKind::Singular,
        FaultKind::NanResidual,
    ];
    let mut rng = ChaosRng::new(chaos_seed, 0x0050_1ee0 ^ corner_index as u64);
    if samples == 0 || rng.below(2) == 0 {
        return None;
    }
    let mut plan = FaultPlan::new();
    let faults = 1 + rng.below(2);
    for _ in 0..faults {
        let sample = rng.below(samples as u64) as usize;
        let timestep = rng.below(4);
        let kind = KINDS[rng.below(KINDS.len() as u64) as usize];
        plan = plan.transient(sample, timestep, kind);
    }
    Some(Arc::new(plan))
}

/// A transient-only checkpoint I/O fault schedule. Transient-only is
/// deliberate: a persistent fault would degrade the coordinator to
/// checkpoint-less mode, and the soak's kill-and-resume leg depends on
/// the checkpoint surviving. Faults are spaced further apart than the
/// save policy's retry budget so every flush eventually lands.
#[must_use]
pub fn io_plan(chaos_seed: u64) -> IoFaultPlan {
    const KINDS: [IoFaultKind; 4] = [
        IoFaultKind::WriteError,
        IoFaultKind::ShortWrite,
        IoFaultKind::FsyncError,
        IoFaultKind::RenameError,
    ];
    let mut rng = ChaosRng::new(chaos_seed, 0x0010_fa17);
    let first = 1 + rng.below(3);
    let second = first + 4 + rng.below(4);
    IoFaultPlan::transient(&[
        (first, KINDS[rng.below(4) as usize]),
        (second, KINDS[rng.below(4) as usize]),
    ])
}

/// The chaos worker fleet: `healthy` well-behaved workers (one of them
/// a scripted straggler so speculation has something to duplicate, one
/// carrying seeded wire faults), plus [`FLAKY_DEATHS`] crash-scripted
/// workers sharing [`FLAKY_NAME`] whose staggered one-assignment deaths
/// walk that name's flakiness score up to the quarantine threshold.
///
/// At least two healthy fast workers always remain, so the campaign
/// finishes no matter how the scripted failures land.
#[must_use]
pub fn worker_fleet(chaos_seed: u64, healthy: usize) -> Vec<WorkerOptions> {
    let healthy = healthy.max(3);
    let mut rng = ChaosRng::new(chaos_seed, 0x000f_1ee7);
    let mut fleet: Vec<WorkerOptions> = (0..healthy)
        .map(|i| WorkerOptions {
            name: format!("chaos-w{i}"),
            start_delay: Duration::from_millis(rng.below(80)),
            ..WorkerOptions::default()
        })
        .collect();
    // The straggler: holds each lease idle long enough to look stuck,
    // so a chaos coordinator with a small `speculate_after` duplicates
    // its units onto idle peers (first result wins, bit-identically).
    fleet[healthy - 1].unit_delay = Duration::from_millis(400 + rng.below(200));
    // The wire-faulted worker: a few scripted transport faults early in
    // its session — each fires exactly once, so the reconnect machinery
    // absorbs them without starving.
    let base = 2 + rng.below(4);
    fleet[0].wire_faults = Some(WireFaultPlan::new(vec![
        (base, WireFault::Drop),
        (base + 3 + rng.below(3), WireFault::Duplicate),
        (
            base + 9 + rng.below(4),
            WireFault::FlipBit {
                byte: 4 + rng.below(8) as usize,
                bit: (rng.below(8)) as u8,
            },
        ),
    ]));
    // The crash loop: staggered entries under one name, each dying with
    // a lease held after its first assignment.
    for k in 0..FLAKY_DEATHS {
        fleet.push(WorkerOptions {
            name: FLAKY_NAME.to_owned(),
            start_delay: Duration::from_millis(k * 250 + rng.below(100)),
            die_after_assignments: Some(1),
            ..WorkerOptions::default()
        });
    }
    fleet
}

/// Extra pause between "the checkpoint has content" and the SIGKILL, so
/// the kill lands at a seed-dependent (but reproducible) point in the
/// campaign rather than always right after the first flush.
#[must_use]
pub fn kill_delay(chaos_seed: u64) -> Duration {
    Duration::from_millis(50 + ChaosRng::new(chaos_seed, 0x006b_1111).below(400))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_stream_is_pinned() {
        // Every chaos schedule derives from this stream; these words
        // must never change, or recorded soaks stop reproducing.
        let mut rng = ChaosRng::new(1, 0);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [
                0x910a_2dec_8902_5cc1,
                0xbeeb_8da1_658e_ec67,
                0xf893_a2ee_fb32_555e,
                0x71c1_8690_ee42_c90b
            ]
        );
    }

    #[test]
    fn derivations_are_pure_functions_of_the_seed() {
        for seed in [0u64, 1, 0xdead_beef] {
            for corner in 0..6 {
                assert_eq!(
                    solver_plan(seed, corner, 40),
                    solver_plan(seed, corner, 40),
                    "solver plan must be reproducible"
                );
            }
            let a = worker_fleet(seed, 3);
            let b = worker_fleet(seed, 3);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(format!("{x:?}"), format!("{y:?}"));
            }
            assert_eq!(kill_delay(seed), kill_delay(seed));
        }
        // And genuinely seed-dependent, not constant.
        let plans: Vec<_> = (0..16).map(|c| solver_plan(7, c, 40)).collect();
        assert!(plans.iter().any(Option::is_some));
        assert!(plans.iter().any(Option::is_none));
    }

    #[test]
    fn solver_plans_are_transient_and_in_range() {
        for seed in 0..8u64 {
            for corner in 0..8 {
                let Some(plan) = solver_plan(seed, corner, 24) else {
                    continue;
                };
                assert!(!plan.faults().is_empty());
                for f in plan.faults() {
                    assert!(!f.persistent, "chaos solver faults must be recoverable");
                    assert!(f.sample < 24, "fault targets a sample that never runs");
                    assert!(f.timestep < 4);
                }
            }
        }
        assert!(solver_plan(3, 0, 0).is_none(), "no samples, no faults");
    }

    #[test]
    fn io_plans_are_transient_and_spaced_past_the_retry_budget() {
        for seed in 0..16u64 {
            let plan = io_plan(seed);
            // Consume the schedule: with the standard 3-attempt policy a
            // transient fault at op N must not be followed by another
            // within its retry window.
            let mut fault_ops = Vec::new();
            for op in 0..32u64 {
                if plan.next().is_some() {
                    fault_ops.push(op);
                }
            }
            assert_eq!(fault_ops.len(), 2, "two one-shot faults per plan");
            assert!(
                fault_ops[1] - fault_ops[0] >= 3,
                "faults inside one retry window would defeat the save policy: {fault_ops:?}"
            );
        }
    }

    #[test]
    fn fleet_keeps_healthy_workers_and_scripts_the_crash_loop() {
        let fleet = worker_fleet(42, 4);
        let healthy: Vec<_> = fleet
            .iter()
            .filter(|w| w.die_after_assignments.is_none() && w.unit_delay.is_zero())
            .collect();
        assert!(
            healthy.len() >= 2,
            "at least two fast healthy workers must remain"
        );
        let flaky: Vec<_> = fleet.iter().filter(|w| w.name == FLAKY_NAME).collect();
        assert_eq!(flaky.len(), FLAKY_DEATHS as usize);
        assert!(flaky
            .iter()
            .all(|w| w.die_after_assignments == Some(1) && w.reconnect));
        assert_eq!(
            fleet.iter().filter(|w| w.wire_faults.is_some()).count(),
            1,
            "exactly one wire-faulted worker"
        );
        assert_eq!(
            fleet.iter().filter(|w| !w.unit_delay.is_zero()).count(),
            1,
            "exactly one straggler"
        );
        // Minimum fleet floor holds even when asked for fewer.
        assert!(worker_fleet(1, 0).len() >= 3 + FLAKY_DEATHS as usize);
    }
}
