//! The lease state machine: pure, clock-injected scheduling of one
//! phase's work units across workers, and of several phases served at
//! once ([`assign_in_order`]).
//!
//! A *unit* is a contiguous sample-index range of one corner's phase.
//! Units move through `Ready → Leased → Done`, with two detours:
//!
//! - **Retry** — a lease expires (per-unit deadline) or its worker dies;
//!   the unit backs off exponentially (`retry_backoff · 2^(attempt-1)`)
//!   and becomes assignable again, preferentially to a different worker.
//! - **Quarantine** — a unit that exhausts
//!   [`SchedulerConfig::max_unit_attempts`] is abandoned; the
//!   coordinator synthesizes a `TimedOut`
//!   [`SampleFailure`](issa_core::montecarlo::SampleFailure) per index
//!   so the corner's existing `max_failure_frac` budget decides whether
//!   the campaign survives.
//!
//! Results are **idempotent**: every sample is a pure function of
//! `(config, index)`, so a late or duplicate result for an
//! already-completed unit is acknowledged and discarded — whichever
//! worker's copy arrived first is bit-identical to every other copy.
//!
//! All methods take `now: Instant` instead of reading a clock, so every
//! timing path is deterministic under test.

use std::time::{Duration, Instant};

/// Scheduling knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Samples per work unit. Smaller units rebalance and retry more
    /// cheaply; larger units amortize per-unit round trips and keep the
    /// offset search warm-started across more consecutive samples.
    pub unit_samples: usize,
    /// Lease attempts before a unit is quarantined.
    pub max_unit_attempts: u32,
    /// Per-unit deadline: a lease older than this is revoked and the
    /// unit retried. Must exceed the worst-case unit compute time or
    /// healthy slow units will churn (their late results still merge
    /// idempotently, but the work is duplicated).
    pub lease_timeout: Duration,
    /// Base of the exponential retry backoff.
    pub retry_backoff: Duration,
    /// Straggler threshold for speculative re-execution. When a worker
    /// asks for work, no unit of any served phase is assignable (the
    /// campaign is down to its in-flight tail), and some lease is older
    /// than this, the idle worker gets a *duplicate* lease on such a unit
    /// (earliest phase first, then the oldest lease within it). The
    /// existing idempotent first-result-wins merge makes speculation
    /// invisible to the output — both copies are bit-identical — it only
    /// trades duplicate compute for tail latency. `None` (the default)
    /// disables speculation entirely.
    pub speculate_after: Option<Duration>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            unit_samples: 16,
            max_unit_attempts: 4,
            lease_timeout: Duration::from_secs(60),
            retry_backoff: Duration::from_millis(100),
            speculate_after: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitState {
    Ready,
    Backoff { until: Instant },
    Leased { worker: u64, deadline: Instant },
    Done,
    Quarantined,
}

#[derive(Debug, Clone)]
struct Unit {
    id: u64,
    start: usize,
    end: usize,
    state: UnitState,
    attempts: u32,
    last_worker: Option<u64>,
    /// Worker holding a speculative duplicate lease on this unit, while
    /// the primary lease in `state` is still live. At most one
    /// speculative copy per lease.
    spec_worker: Option<u64>,
}

/// How an arriving result was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// First result for this unit: merge its records.
    Fresh,
    /// The unit was already completed (or quarantined) — discard the
    /// records, acknowledge anyway (results are idempotent).
    Duplicate,
    /// No such unit in this phase (a stale result from a previous
    /// phase's id space) — discard and acknowledge.
    Unknown,
}

/// Counters describing how hard the scheduler had to fight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Lease revocations (expiry or worker death) that led to a retry.
    pub retries: u64,
    /// Retried units that were subsequently leased to a *different*
    /// worker than the one that lost them.
    pub reassigned: u64,
    /// Units abandoned after exhausting their attempts.
    pub quarantined_units: u64,
    /// Results discarded as duplicates or stale.
    pub duplicates: u64,
    /// Speculative duplicate leases issued against stragglers.
    pub speculated: u64,
}

impl SchedStats {
    /// Element-wise sum, for aggregating across phases.
    #[must_use]
    pub fn saturating_add(&self, other: &SchedStats) -> SchedStats {
        SchedStats {
            retries: self.retries.saturating_add(other.retries),
            reassigned: self.reassigned.saturating_add(other.reassigned),
            quarantined_units: self
                .quarantined_units
                .saturating_add(other.quarantined_units),
            duplicates: self.duplicates.saturating_add(other.duplicates),
            speculated: self.speculated.saturating_add(other.speculated),
        }
    }
}

/// The lease state machine for one phase of one corner.
#[derive(Debug)]
pub struct PhaseScheduler {
    units: Vec<Unit>,
    cfg: SchedulerConfig,
    /// Counters for this phase.
    pub stats: SchedStats,
    /// Quarantined `(unit id, start, end, attempts)` tuples not yet
    /// drained by the coordinator.
    quarantine: Vec<(u64, usize, usize, u32)>,
    /// Worker ids whose leases were revoked (expiry or death), not yet
    /// drained — the coordinator's flaky-worker scoring input.
    revoked: Vec<u64>,
}

impl PhaseScheduler {
    /// Builds a scheduler over the given `(start, end)` ranges, with
    /// unit ids `base_id, base_id + 1, …` in order. Ranges already fully
    /// satisfied (by a checkpoint resume) should simply not be passed.
    #[must_use]
    pub fn new(ranges: &[(usize, usize)], base_id: u64, cfg: &SchedulerConfig) -> Self {
        let units = ranges
            .iter()
            .enumerate()
            .map(|(k, &(start, end))| Unit {
                id: base_id + k as u64,
                start,
                end,
                state: UnitState::Ready,
                attempts: 0,
                last_worker: None,
                spec_worker: None,
            })
            .collect();
        PhaseScheduler {
            units,
            cfg: cfg.clone(),
            stats: SchedStats::default(),
            quarantine: Vec::new(),
            revoked: Vec::new(),
        }
    }

    /// Splits `pending` sample indices (sorted) into contiguous ranges of
    /// at most `unit_samples`, breaking at gaps — the canonical unit
    /// decomposition. Deterministic in the pending set alone, so a
    /// restarted coordinator rebuilds compatible units.
    #[must_use]
    pub fn ranges_of(pending: &[usize], unit_samples: usize) -> Vec<(usize, usize)> {
        let chunk = unit_samples.max(1);
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        for &i in pending {
            match ranges.last_mut() {
                Some(&mut (start, ref mut end)) if *end == i && i - start < chunk => *end = i + 1,
                _ => ranges.push((i, i + 1)),
            }
        }
        ranges
    }

    /// Expires overdue leases. Call before every assignment decision.
    pub fn tick(&mut self, now: Instant) {
        for k in 0..self.units.len() {
            if let UnitState::Leased { worker, deadline } = self.units[k].state {
                if now >= deadline {
                    self.release(k, worker, now);
                }
            }
        }
    }

    /// Revokes every lease held by a dead worker (connection lost or
    /// heartbeat timeout). A dead *speculative* copy just clears the
    /// slot — the primary lease is unaffected and the unit may be
    /// re-speculated.
    pub fn worker_dead(&mut self, worker: u64, now: Instant) {
        for k in 0..self.units.len() {
            if self.units[k].spec_worker == Some(worker) {
                self.units[k].spec_worker = None;
            }
            if matches!(self.units[k].state, UnitState::Leased { worker: w, .. } if w == worker) {
                self.release(k, worker, now);
            }
        }
    }

    /// A lease came back: retry with backoff, or quarantine when the
    /// attempt budget is spent.
    fn release(&mut self, k: usize, worker: u64, now: Instant) {
        let unit = &mut self.units[k];
        unit.last_worker = Some(worker);
        unit.spec_worker = None;
        self.revoked.push(worker);
        if unit.attempts >= self.cfg.max_unit_attempts {
            unit.state = UnitState::Quarantined;
            self.stats.quarantined_units += 1;
            self.quarantine
                .push((unit.id, unit.start, unit.end, unit.attempts));
        } else {
            // attempts is >= 1 here (the unit was leased at least once).
            let exp = unit.attempts.saturating_sub(1).min(16);
            unit.state = UnitState::Backoff {
                until: now + self.cfg.retry_backoff * 2u32.saturating_pow(exp),
            };
            self.stats.retries += 1;
        }
    }

    /// Leases the first assignable unit in unit order, skipping units
    /// `worker` itself lost when `require_other` is set.
    fn lease_fresh(
        &mut self,
        worker: u64,
        now: Instant,
        require_other: bool,
    ) -> Option<(u64, usize, usize)> {
        for unit in &mut self.units {
            let assignable = match unit.state {
                UnitState::Ready => true,
                UnitState::Backoff { until } => now >= until,
                _ => false,
            };
            if !assignable || (require_other && unit.last_worker == Some(worker)) {
                continue;
            }
            if unit.attempts > 0 && unit.last_worker != Some(worker) {
                self.stats.reassigned += 1;
            }
            unit.attempts += 1;
            unit.spec_worker = None;
            unit.state = UnitState::Leased {
                worker,
                deadline: now + self.cfg.lease_timeout,
            };
            return Some((unit.id, unit.start, unit.end));
        }
        None
    }

    /// With speculation armed, a duplicate lease for `worker` on this
    /// phase's oldest straggling unit: the faster copy's result lands
    /// first and the slower one merges as a duplicate, so the tail no
    /// longer waits on one slow host.
    fn lease_speculative(&mut self, worker: u64, now: Instant) -> Option<(u64, usize, usize)> {
        let threshold = self.cfg.speculate_after?;
        let mut straggler: Option<(usize, Instant)> = None;
        for (k, unit) in self.units.iter().enumerate() {
            let UnitState::Leased {
                worker: holder,
                deadline,
            } = unit.state
            else {
                continue;
            };
            // The lease's age is exact: it was issued lease_timeout
            // before its deadline.
            let leased_at = deadline - self.cfg.lease_timeout;
            if holder == worker
                || unit.spec_worker.is_some()
                || now.saturating_duration_since(leased_at) < threshold
            {
                continue;
            }
            if straggler.is_none_or(|(_, oldest)| leased_at < oldest) {
                straggler = Some((k, leased_at));
            }
        }
        let (k, _) = straggler?;
        let unit = &mut self.units[k];
        unit.spec_worker = Some(worker);
        self.stats.speculated += 1;
        Some((unit.id, unit.start, unit.end))
    }

    /// Whether `unit_id` is one of this phase's units (ids are contiguous
    /// from the base id).
    #[must_use]
    pub(crate) fn owns(&self, unit_id: u64) -> bool {
        self.units
            .first()
            .is_some_and(|u| (u.id..u.id + self.units.len() as u64).contains(&unit_id))
    }

    /// Marks a unit's result received.
    pub fn apply_result(&mut self, unit_id: u64) -> Applied {
        match self.units.iter_mut().find(|u| u.id == unit_id) {
            None => {
                self.stats.duplicates += 1;
                Applied::Unknown
            }
            Some(unit) => match unit.state {
                UnitState::Done | UnitState::Quarantined => {
                    // A quarantined unit's failures may already be merged;
                    // the late result stays discarded so the merge is a
                    // function of scheduler state, not arrival order.
                    self.stats.duplicates += 1;
                    Applied::Duplicate
                }
                _ => {
                    unit.state = UnitState::Done;
                    Applied::Fresh
                }
            },
        }
    }

    /// Whether every unit is done or quarantined.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.units
            .iter()
            .all(|u| matches!(u.state, UnitState::Done | UnitState::Quarantined))
    }

    /// Drains quarantined `(unit id, start, end, attempts)` tuples for
    /// the coordinator to convert into `TimedOut` sample failures.
    pub fn drain_quarantined(&mut self) -> Vec<(u64, usize, usize, u32)> {
        std::mem::take(&mut self.quarantine)
    }

    /// Drains the worker ids whose leases were revoked (one entry per
    /// revocation) since the last drain — the coordinator feeds these
    /// into its per-worker flakiness scores.
    pub fn drain_revoked(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.revoked)
    }
}

/// Picks work for a requesting worker across phases served at once,
/// given in campaign order; returns the chosen phase's position and the
/// lease `(unit id, start, end)`, or `None` when nothing is assignable.
///
/// The order of preference:
///
/// 1. a fresh (ready, or past its retry backoff) unit the worker has not
///    itself lost, first in campaign order, then unit order;
/// 2. such a unit the worker did lose — better the same worker than an
///    idle one;
/// 3. only when no phase has a fresh unit left, and speculation is
///    armed, a duplicate lease on a straggler: the earliest phase that
///    has one, its oldest lease.
///
/// Every phase's expired leases are revoked first.
pub fn assign_in_order(
    phases: &mut [&mut PhaseScheduler],
    worker: u64,
    now: Instant,
) -> Option<(usize, u64, usize, usize)> {
    for phase in phases.iter_mut() {
        phase.tick(now);
    }
    for require_other in [true, false] {
        for (k, phase) in phases.iter_mut().enumerate() {
            if let Some((id, start, end)) = phase.lease_fresh(worker, now, require_other) {
                return Some((k, id, start, end));
            }
        }
    }
    phases.iter_mut().enumerate().find_map(|(k, phase)| {
        phase
            .lease_speculative(worker, now)
            .map(|(id, start, end)| (k, id, start, end))
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    /// One phase alone through [`assign_in_order`].
    fn next(s: &mut PhaseScheduler, worker: u64, now: Instant) -> Option<(u64, usize, usize)> {
        assign_in_order(&mut [s], worker, now).map(|(_, id, start, end)| (id, start, end))
    }

    fn cfg() -> SchedulerConfig {
        SchedulerConfig {
            unit_samples: 4,
            max_unit_attempts: 2,
            lease_timeout: Duration::from_millis(100),
            retry_backoff: Duration::from_millis(20),
            speculate_after: None,
        }
    }

    #[test]
    fn ranges_split_at_gaps_and_chunk_size() {
        assert_eq!(
            PhaseScheduler::ranges_of(&[0, 1, 2, 3, 4, 5], 4),
            vec![(0, 4), (4, 6)]
        );
        assert_eq!(
            PhaseScheduler::ranges_of(&[0, 1, 3, 4], 4),
            vec![(0, 2), (3, 5)]
        );
        assert_eq!(PhaseScheduler::ranges_of(&[], 4), vec![]);
        assert_eq!(PhaseScheduler::ranges_of(&[7], 1), vec![(7, 8)]);
    }

    #[test]
    fn assigns_all_units_then_waits_then_completes() {
        let mut s = PhaseScheduler::new(&[(0, 4), (4, 8)], 10, &cfg());
        let now = Instant::now();
        assert_eq!(next(&mut s, 1, now), Some((10, 0, 4)));
        assert_eq!(next(&mut s, 2, now), Some((11, 4, 8)));
        assert_eq!(next(&mut s, 3, now), None);
        assert_eq!(s.apply_result(10), Applied::Fresh);
        assert_eq!(s.apply_result(11), Applied::Fresh);
        assert!(s.is_complete());
        assert_eq!(next(&mut s, 3, now), None);
        assert_eq!(s.stats, SchedStats::default());
    }

    #[test]
    fn expired_lease_is_retried_on_another_worker() {
        let mut s = PhaseScheduler::new(&[(0, 4)], 0, &cfg());
        let t0 = Instant::now();
        assert_eq!(next(&mut s, 1, t0), Some((0, 0, 4)));
        // The periodic tick notices the expired lease; past the backoff,
        // another worker inherits the unit.
        s.tick(t0 + Duration::from_millis(150));
        let t1 = t0 + Duration::from_millis(200);
        assert_eq!(next(&mut s, 2, t1), Some((0, 0, 4)));
        assert_eq!(s.stats.retries, 1);
        assert_eq!(s.stats.reassigned, 1);
        assert_eq!(s.apply_result(0), Applied::Fresh);
        assert!(s.is_complete());
    }

    #[test]
    fn dead_workers_lease_is_released_immediately_with_backoff() {
        let mut s = PhaseScheduler::new(&[(0, 4)], 0, &cfg());
        let t0 = Instant::now();
        assert_eq!(next(&mut s, 1, t0), Some((0, 0, 4)));
        s.worker_dead(1, t0);
        // Still backing off: the dead worker's unit is not instantly
        // rescheduled (give a flapping peer time to settle).
        assert_eq!(next(&mut s, 2, t0), None);
        let t1 = t0 + Duration::from_millis(25);
        assert_eq!(next(&mut s, 2, t1), Some((0, 0, 4)));
    }

    #[test]
    fn retried_unit_prefers_a_different_worker() {
        let mut s = PhaseScheduler::new(&[(0, 4), (4, 8)], 0, &cfg());
        let t0 = Instant::now();
        assert_eq!(next(&mut s, 1, t0), Some((0, 0, 4)));
        s.worker_dead(1, t0);
        let t1 = t0 + Duration::from_millis(25);
        // Worker 1 comes back: it gets the *fresh* unit, not the one it
        // just lost.
        assert_eq!(next(&mut s, 1, t1), Some((1, 4, 8)));
        // But when only its lost unit remains, it may take it back.
        assert_eq!(next(&mut s, 1, t1), Some((0, 0, 4)));
    }

    #[test]
    fn attempts_exhausted_quarantines_the_unit() {
        let mut s = PhaseScheduler::new(&[(0, 4)], 7, &cfg());
        let mut now = Instant::now();
        for _ in 0..2 {
            assert_eq!(next(&mut s, 1, now), Some((7, 0, 4)));
            s.worker_dead(1, now);
            now += Duration::from_secs(1);
        }
        assert!(s.is_complete(), "exhausted unit must quarantine");
        assert_eq!(s.stats.quarantined_units, 1);
        assert_eq!(s.stats.retries, 1);
        assert_eq!(s.drain_quarantined(), vec![(7, 0, 4, 2)]);
        assert!(s.drain_quarantined().is_empty(), "drain is one-shot");
        // A very late result for the quarantined unit stays discarded.
        assert_eq!(s.apply_result(7), Applied::Duplicate);
    }

    #[test]
    fn duplicate_and_stale_results_are_discarded() {
        let mut s = PhaseScheduler::new(&[(0, 4)], 0, &cfg());
        let now = Instant::now();
        assert_eq!(next(&mut s, 1, now), Some((0, 0, 4)));
        assert_eq!(s.apply_result(0), Applied::Fresh);
        assert_eq!(s.apply_result(0), Applied::Duplicate);
        assert_eq!(s.apply_result(99), Applied::Unknown);
        assert_eq!(s.stats.duplicates, 2);
    }

    #[test]
    fn speculation_duplicates_the_oldest_straggler_once() {
        let mut c = cfg();
        c.lease_timeout = Duration::from_secs(60);
        c.speculate_after = Some(Duration::from_millis(50));
        let mut s = PhaseScheduler::new(&[(0, 4), (4, 8)], 0, &c);
        let t0 = Instant::now();
        assert_eq!(next(&mut s, 1, t0), Some((0, 0, 4)));
        let t1 = t0 + Duration::from_millis(10);
        assert_eq!(next(&mut s, 2, t1), Some((1, 4, 8)));
        // Too young to speculate: the idle worker waits.
        assert_eq!(next(&mut s, 3, t1), None);
        // Past the threshold, worker 3 gets a duplicate lease on the
        // oldest straggler (unit 0, leased at t0).
        let t2 = t0 + Duration::from_millis(60);
        assert_eq!(next(&mut s, 3, t2), Some((0, 0, 4)));
        assert_eq!(s.stats.speculated, 1);
        // One speculative copy per unit: the next idle worker gets unit
        // 1's copy (also past the threshold), then waits.
        assert_eq!(next(&mut s, 4, t2), Some((1, 4, 8)));
        assert_eq!(s.stats.speculated, 2);
        assert_eq!(next(&mut s, 5, t2), None);
        // First result wins; the duplicate is discarded.
        assert_eq!(s.apply_result(0), Applied::Fresh);
        assert_eq!(s.apply_result(0), Applied::Duplicate);
        assert_eq!(s.apply_result(1), Applied::Fresh);
        assert!(s.is_complete());
        // Speculation never consumed retry budget or counted as a retry.
        assert_eq!(s.stats.retries, 0);
        assert_eq!(s.stats.quarantined_units, 0);
    }

    #[test]
    fn speculation_never_targets_the_holder_and_heals_on_spec_death() {
        let mut c = cfg();
        c.lease_timeout = Duration::from_secs(60);
        c.speculate_after = Some(Duration::ZERO);
        let mut s = PhaseScheduler::new(&[(0, 4)], 0, &c);
        let t0 = Instant::now();
        assert_eq!(next(&mut s, 1, t0), Some((0, 0, 4)));
        // The lease holder itself never speculates on its own unit.
        assert_eq!(next(&mut s, 1, t0), None);
        assert_eq!(next(&mut s, 2, t0), Some((0, 0, 4)));
        // The speculative worker dies: the slot clears, the primary lease
        // survives, and a new idle worker may re-speculate.
        s.worker_dead(2, t0);
        assert!(
            s.drain_revoked().is_empty(),
            "spec death is not a revocation"
        );
        assert_eq!(next(&mut s, 3, t0), Some((0, 0, 4)));
        assert_eq!(s.stats.speculated, 2);
    }

    #[test]
    fn speculation_off_by_default_and_revocations_drain() {
        let mut s = PhaseScheduler::new(&[(0, 4)], 0, &cfg());
        let t0 = Instant::now();
        assert_eq!(next(&mut s, 1, t0), Some((0, 0, 4)));
        // Default config: an idle worker always waits on the tail.
        assert_eq!(next(&mut s, 2, t0), None);
        // Lease expiry and worker death both drain as revocations
        // attributed to the worker that lost the lease.
        s.tick(t0 + Duration::from_millis(150));
        assert_eq!(s.drain_revoked(), vec![1]);
        let t1 = t0 + Duration::from_millis(200);
        assert_eq!(next(&mut s, 2, t1), Some((0, 0, 4)));
        s.worker_dead(2, t1);
        assert_eq!(s.drain_revoked(), vec![2]);
        assert!(s.drain_revoked().is_empty(), "drain is one-shot");
    }

    #[test]
    fn a_later_phases_fresh_unit_beats_speculating_on_an_earlier_one() {
        let mut c = cfg();
        c.lease_timeout = Duration::from_secs(60);
        c.speculate_after = Some(Duration::from_millis(50));
        let mut first = PhaseScheduler::new(&[(0, 4)], 0, &c);
        let mut second = PhaseScheduler::new(&[(0, 4), (4, 8)], 10, &c);
        let t0 = Instant::now();
        // Campaign order: worker 1 takes the earlier phase's only unit.
        assert_eq!(
            assign_in_order(&mut [&mut first, &mut second], 1, t0),
            Some((0, 0, 0, 4))
        );
        // Long past the threshold, worker 1's lease is a straggler, yet
        // worker 2 gets the later phase's fresh units first.
        let t1 = t0 + Duration::from_secs(1);
        assert_eq!(
            assign_in_order(&mut [&mut first, &mut second], 2, t1),
            Some((1, 10, 0, 4))
        );
        assert_eq!(
            assign_in_order(&mut [&mut first, &mut second], 2, t1),
            Some((1, 11, 4, 8))
        );
        assert_eq!(first.stats.speculated, 0);
        // No fresh unit left anywhere: now worker 3 speculates, on the
        // earliest phase's straggler.
        assert_eq!(
            assign_in_order(&mut [&mut first, &mut second], 3, t1),
            Some((0, 0, 0, 4))
        );
        assert_eq!(first.stats.speculated, 1);
        assert_eq!(second.stats.speculated, 0);
        // Results route by unit id: each phase owns only its own range.
        assert!(first.owns(0) && !first.owns(10));
        assert!(second.owns(10) && second.owns(11) && !second.owns(12));
    }

    #[test]
    fn a_units_loser_takes_another_phases_fresh_unit_first() {
        let mut first = PhaseScheduler::new(&[(0, 4)], 0, &cfg());
        let mut second = PhaseScheduler::new(&[(0, 4)], 10, &cfg());
        let t0 = Instant::now();
        assert_eq!(
            assign_in_order(&mut [&mut first, &mut second], 1, t0),
            Some((0, 0, 0, 4))
        );
        first.worker_dead(1, t0);
        // Past the backoff, worker 1 is steered to the later phase rather
        // than back to the unit it just lost.
        let t1 = t0 + Duration::from_millis(25);
        assert_eq!(
            assign_in_order(&mut [&mut first, &mut second], 1, t1),
            Some((1, 10, 0, 4))
        );
        assert_eq!(
            assign_in_order(&mut [&mut first, &mut second], 1, t1),
            Some((0, 0, 0, 4))
        );
        assert_eq!(assign_in_order(&mut [&mut first, &mut second], 1, t1), None);
    }

    #[test]
    fn result_from_a_revoked_lease_still_lands() {
        // Worker 1's lease expires, worker 2 inherits, then worker 1's
        // late result arrives first: it is accepted (bit-identical to
        // what worker 2 would send), and worker 2's copy is discarded.
        let mut s = PhaseScheduler::new(&[(0, 4)], 0, &cfg());
        let t0 = Instant::now();
        assert_eq!(next(&mut s, 1, t0), Some((0, 0, 4)));
        s.tick(t0 + Duration::from_millis(150));
        let t1 = t0 + Duration::from_millis(200);
        assert_eq!(next(&mut s, 2, t1), Some((0, 0, 4)));
        assert_eq!(s.apply_result(0), Applied::Fresh);
        assert_eq!(s.apply_result(0), Applied::Duplicate);
        assert!(s.is_complete());
    }
}
