//! Importance-sampled tail estimation of the offset-voltage spec.
//!
//! The paper's `fr = 1e-9` spec is a Gaussian *extrapolation*: fit μ/σ to
//! 400 Monte Carlo offsets and solve Eq. 3 ≈ 6.1 σ out. Observing that
//! tail directly with plain Monte Carlo would need ~10⁹ transient solves
//! per corner. This module estimates it directly with a few hundred:
//!
//! 1. **Pilot** — the first [`McConfig::samples`] indices run exactly as
//!    the classic engine draws them (bit-identical; they double as the
//!    unweighted evidence for the proposal fit).
//! 2. **Proposal** — [`resolve_proposal`] least-squares-fits the offset
//!    against the pilot's standardized per-device Pelgrom draws and
//!    shifts the proposal *mean* along the fitted sensitivity direction,
//!    far enough out to land on the extrapolated failure boundary. The
//!    two-sided spec has two boundaries at different distances once aging
//!    shifts the offset mean, so each side gets its own magnitude in
//!    *slope* units (`λ± = (spec ∓ μ̂) / |β|`, not offset-σ units — an
//!    imperfect fit must still land its cluster *on* the boundary).
//!    Post-pilot samples draw from a defensive three-component mixture
//!    `m·N(0,I) + (1−m)/2·q₊ + (1−m)/2·q₋` in standardized coordinates
//!    (component chosen per *sample* from a dedicated seed-tree child,
//!    the delta applied additively per device in
//!    [`montecarlo::build_sample`]). Each shifted component re-centers
//!    the projection onto the fitted direction at its boundary *and*
//!    widens it to [`TailConfig::width`] σ — the fit only locates a
//!    nonlinear boundary to within ~a σ, and the widening keeps real
//!    sample density on the boundary when the center misses it, where a
//!    pure point shift would collapse the tail ESS. A shift along one
//!    direction — not a full variance scale — is essential in a
//!    ~dozen-dimensional mismatch space: its likelihood ratio depends
//!    only on the scalar projection `u·z`, so weights of samples near
//!    the failure boundary stay comparable instead of degenerating with
//!    the χ² radius. Only the mismatch density changes
//!    — trap and aging draws replay the same RNG streams — so the exact
//!    log-likelihood ratio is computed in closed form by
//!    [`tail_log_weight`] without a single circuit solve, and the
//!    defensive mixture bounds every weight by `1/m`.
//! 3. **Adaptive stopping** — the corner driver
//!    ([`crate::driver::CornerRun`], behind [`run_tail_mc`],
//!    `run_campaign` and the distributed coordinator) grows the sample set in
//!    deterministic, seed-indexed blocks and stops when the relative CI
//!    half-width of the weighted `(1−fr)`-quantile of `|offset|` meets
//!    [`TailConfig::ci_rel_target`] *and* the tail effective sample size
//!    clears [`TailConfig::min_tail_ess`] (the delta-method band at an
//!    extreme order statistic is spuriously tight when only a handful of
//!    weighted samples sit in the tail — plain-MC runs would false-stop
//!    without this guard).
//!
//! Every sample stays a pure function of `(cfg, index)` and the stopping
//! rule is evaluated only at block boundaries over the full index set, so
//! tail results are invariant to thread count, lane width, worker count,
//! and checkpoint resume splits.

use crate::montecarlo::{McConfig, McControl, McResult, McResume};
use crate::netlist::{SaDevice, SaInstance};
use crate::SaError;
use issa_num::rng::SeedSequence;
use issa_num::stats::Summary;
use issa_num::wstats;
use rand::Rng;
use std::collections::HashMap;

/// Seed-tree child index of the per-sample mixture-component draw. Device
/// streams use child indices `0..devices` (single digits), so this cannot
/// collide with them.
const TAIL_COMPONENT_CHILD: u64 = 0x7a11_5eed;

/// The resolved importance-sampling proposal: two mean shifts of the
/// standardized per-device mismatch draws — one per side of the
/// two-sided `|offset|` spec — applied per post-pilot sample according
/// to its mixture-component draw.
#[derive(Debug, Clone, PartialEq)]
pub struct TailProposal {
    /// Per-device mean shift of the component aimed at the `+spec`
    /// boundary, in standardized (z) units, aligned with
    /// [`SaInstance::devices`] order.
    pub shift: Vec<f64>,
    /// Per-device mean shift of the component aimed at the `−spec`
    /// boundary (its entries point the other way along the fitted
    /// direction, with its own magnitude: the boundaries sit at
    /// different distances once aging shifts the offset mean). Both
    /// vectors all-zero means the proposal is degenerate and every
    /// sample draws nominally with weight 1.
    pub neg: Vec<f64>,
    /// Sample indices below this bound are pilot samples: always nominal,
    /// always weight 1.
    pub pilot: usize,
}

impl TailProposal {
    /// Euclidean norm of the positive-side shift — how many σ out that
    /// component is centered along the fitted failure direction.
    #[must_use]
    pub fn magnitude(&self) -> f64 {
        self.shift.iter().map(|s| s * s).sum::<f64>().sqrt()
    }

    /// Euclidean norm of the negative-side shift.
    #[must_use]
    pub fn neg_magnitude(&self) -> f64 {
        self.neg.iter().map(|s| s * s).sum::<f64>().sqrt()
    }

    fn is_degenerate(&self) -> bool {
        self.shift.iter().all(|&s| s == 0.0) && self.neg.iter().all(|&s| s == 0.0)
    }

    /// The unit failure direction plus both side magnitudes
    /// `(u, λ₊, λ₋)`. The two shift vectors are antiparallel by
    /// construction; the unit vector comes from whichever side is
    /// nonzero (callers have already excluded the degenerate case).
    fn direction(&self) -> (Vec<f64>, f64, f64) {
        let lam_pos = self.magnitude();
        let lam_neg = self.neg_magnitude();
        let unit: Vec<f64> = if lam_pos > 0.0 {
            self.shift.iter().map(|s| s / lam_pos).collect()
        } else {
            self.neg.iter().map(|s| -s / lam_neg).collect()
        };
        (unit, lam_pos, lam_neg)
    }
}

/// Configuration of the importance-sampled tail-estimation mode.
///
/// User-facing configs carry `resolved: None`; the corner driver
/// ([`crate::driver::CornerRun`]) or a distribution worker installs the resolved
/// proposal before running weighted rounds. [`McConfig::samples`] is the
/// pilot size; the adaptive rounds extend the index set beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct TailConfig {
    /// Stop when the relative 95 % CI half-width of the fr-quantile is at
    /// most this (e.g. 0.1 = ±10 %).
    pub ci_rel_target: f64,
    /// Samples added per adaptive round. The stopping rule is evaluated
    /// only at these deterministic block boundaries, which is what makes
    /// the result invariant to threads/lanes/workers.
    pub block_samples: usize,
    /// Hard cap on the total sample count (pilot + tail blocks). The run
    /// reports `converged: false` when the cap lands first.
    pub max_samples: usize,
    /// Mixture weight of the *nominal* component in the defensive
    /// proposal (0.5 default). Bounds every importance weight by
    /// `1/mix_nominal`.
    pub mix_nominal: f64,
    /// Minimum Kish effective sample size at or beyond the estimated
    /// quantile before the CI is trusted (guards against the delta-method
    /// band collapsing on a couple of extreme order statistics).
    pub min_tail_ess: f64,
    /// Standard deviation of each shifted component *along the shift
    /// direction* (orthogonal directions stay at 1). The pilot fit only
    /// locates the failure boundary to within ~a σ when the response is
    /// nonlinear; widening the component along the shift keeps real
    /// sample density at the boundary even when the fitted center misses
    /// it by a couple of σ, at a modest ESS cost when it doesn't.
    pub width: f64,
    /// The resolved proposal (`None` until the pilot fit runs).
    pub resolved: Option<TailProposal>,
}

impl Default for TailConfig {
    fn default() -> Self {
        Self {
            ci_rel_target: 0.1,
            block_samples: 64,
            max_samples: 4096,
            mix_nominal: 0.5,
            min_tail_ess: 8.0,
            width: 2.0,
            resolved: None,
        }
    }
}

/// Tail-estimation summary attached to a weighted [`McResult`].
#[derive(Debug, Clone, Copy)]
pub struct TailSummary {
    /// Positive-side proposal shift magnitude `|μ₊|` in standardized
    /// units (0 when the pilot fit was degenerate and the run fell back
    /// to nominal draws).
    pub shift: f64,
    /// Pilot size (indices below it are nominal, weight 1).
    pub pilot: usize,
    /// Kish effective sample size of the whole weighted set.
    pub ess: f64,
    /// Kish effective sample size at or beyond the estimated quantile.
    pub tail_ess: f64,
    /// Lower 95 % confidence bound on the spec \[V\].
    pub spec_lo: f64,
    /// Upper 95 % confidence bound on the spec \[V\] (`INFINITY` when the
    /// data cannot bound the quantile from above).
    pub spec_hi: f64,
    /// Relative CI half-width `(hi − lo) / (2·spec)` (NaN when
    /// unbounded).
    pub rel_ci_half: f64,
    /// Surviving weighted samples the estimate used.
    pub samples_used: usize,
    /// Whether the stopping rule (CI target *and* tail-ESS floor) is met.
    pub converged: bool,
    /// Adaptive rounds the driver ran after the pilot (0 when the result
    /// was assembled directly from a resolved config).
    pub rounds: u32,
}

impl PartialEq for TailSummary {
    fn eq(&self, other: &Self) -> bool {
        // Bit-compare the floats: NaN (unbounded CI) must equal itself so
        // resumed runs compare equal to uninterrupted ones.
        self.shift.to_bits() == other.shift.to_bits()
            && self.pilot == other.pilot
            && self.ess.to_bits() == other.ess.to_bits()
            && self.tail_ess.to_bits() == other.tail_ess.to_bits()
            && self.spec_lo.to_bits() == other.spec_lo.to_bits()
            && self.spec_hi.to_bits() == other.spec_hi.to_bits()
            && self.rel_ci_half.to_bits() == other.rel_ci_half.to_bits()
            && self.samples_used == other.samples_used
            && self.converged == other.converged
            && self.rounds == other.rounds
    }
}

/// The concrete per-device z-space delta the chosen shifted component
/// applies to sample `index`: `None` for the classic engine, pilot
/// indices, nominal-component samples, and degenerate (zero-shift)
/// proposals. The shifted components re-center *and widen* the draw's
/// projection onto the fitted failure direction — `t' = λ_s + width·t`
/// where `t = u·z` and `λ_s` is the chosen side's signed magnitude —
/// while leaving orthogonal coordinates untouched, so the delta is
/// `(λ_s + (width−1)·t)·u`. A pure function of `(cfg, index)` —
/// `sample_seq` must be `root(cfg.seed).child(index)`.
pub(crate) fn proposal_shift_for(
    cfg: &McConfig,
    sample_seq: &SeedSequence,
    index: usize,
) -> Option<Vec<f64>> {
    let tail = cfg.tail.as_ref()?;
    let proposal = tail.resolved.as_ref()?;
    if index < proposal.pilot || proposal.is_degenerate() {
        return None;
    }
    let u: f64 = sample_seq.child(TAIL_COMPONENT_CHILD).rng().gen();
    if u < tail.mix_nominal {
        return None;
    }
    let pos = u < tail.mix_nominal + (1.0 - tail.mix_nominal) / 2.0;
    let (unit, lam_pos, lam_neg) = proposal.direction();
    let center = if pos { lam_pos } else { -lam_neg };
    let sa = SaInstance::fresh(cfg.kind, cfg.env);
    let z = standardized_draws(cfg, sa.devices(), index);
    let t: f64 = unit.iter().zip(&z).map(|(u, z)| u * z).sum();
    let along = center + (tail.width - 1.0) * t;
    Some(unit.iter().map(|u| along * u).collect())
}

/// The exact log importance weight `log p(x) − log q(x)` of sample
/// `index`: the nominal mismatch density over the defensive shifted
/// mixture, replayed in closed form from the seed tree (one Gaussian draw
/// per device, no circuit solves). Each shifted component only alters the
/// draw's projection `t' = u·z'` onto the fitted failure direction — its
/// density along `t'` is `N(λ_s, width²)` against the nominal `N(0, 1)`,
/// orthogonal coordinates cancel exactly — so the ratio is a function of
/// one scalar and weights stay comparable across the orthogonal mismatch
/// dimensions. Returns 0 (weight 1) for pilot indices, unresolved or
/// zero-shift proposals; bounded below by `ln(mix_nominal)` everywhere.
#[must_use]
pub fn tail_log_weight(cfg: &McConfig, index: usize) -> f64 {
    let Some(tail) = &cfg.tail else { return 0.0 };
    let Some(proposal) = &tail.resolved else {
        return 0.0;
    };
    if index < proposal.pilot || proposal.is_degenerate() {
        return 0.0;
    }
    let sample_seq = SeedSequence::root(cfg.seed).child(index as u64);
    let applied = proposal_shift_for(cfg, &sample_seq, index);
    // Replay each device's nominal standardized draw exactly as
    // build_sample makes it (same child stream, first normal draw), add
    // the applied component delta to recover the *sampled* coordinates
    // z', and project onto the fitted direction.
    let sa = SaInstance::fresh(cfg.kind, cfg.env);
    let z = standardized_draws(cfg, sa.devices(), index);
    let (unit, lam_pos, lam_neg) = proposal.direction();
    let t: f64 = unit
        .iter()
        .enumerate()
        .map(|(k, u)| u * (z[k] + applied.as_ref().map_or(0.0, |d| d[k])))
        .sum();
    // q = m·p + (1−m)/2·(p₊ + p₋) with log(p±(z')/p(z')) =
    // t'²/2 − (t' ∓ λ±)²/(2·width²) − ln width ⇒ log(q/p) =
    // logsumexp(ln m, h + a₊, h + a₋), h = ln((1−m)/2) − ln width.
    let s = tail.width.max(f64::MIN_POSITIVE);
    let half = ((1.0 - tail.mix_nominal) / 2.0).ln() - s.ln();
    let a = tail.mix_nominal.ln();
    let b = half + t * t / 2.0 - (t - lam_pos).powi(2) / (2.0 * s * s);
    let c = half + t * t / 2.0 - (t + lam_neg).powi(2) / (2.0 * s * s);
    let hi = a.max(b).max(c);
    -(hi + ((a - hi).exp() + (b - hi).exp() + (c - hi).exp()).ln())
}

/// Replays the standardized mismatch draws `z = Δ/σ` of sample `index`
/// (0 for zero-σ devices) — the coordinates both the proposal fit and
/// the likelihood ratio are expressed in.
fn standardized_draws(cfg: &McConfig, devices: &[SaDevice], index: usize) -> Vec<f64> {
    let sample_seq = SeedSequence::root(cfg.seed).child(index as u64);
    devices
        .iter()
        .enumerate()
        .map(|(k, &device)| {
            let mut rng = sample_seq.child(k as u64).rng();
            let sigma = cfg.mismatch.sigma_for(device, &cfg.sizing);
            let draw = cfg.mismatch.sample(device, &cfg.sizing, &mut rng);
            if sigma > 0.0 {
                draw / sigma
            } else {
                0.0
            }
        })
        .collect()
}

/// Solves the `d×d` system `g·x = b` by Gaussian elimination with partial
/// pivoting (fixed operation order, so bit-deterministic for a fixed
/// input). Returns `None` when a pivot vanishes.
fn solve_dense(g: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let d = b.len();
    for col in 0..d {
        let mut pivot = col;
        for row in col + 1..d {
            if g[row][col].abs() > g[pivot][col].abs() {
                pivot = row;
            }
        }
        let lead = g[pivot][col].abs();
        if lead.is_nan() || lead <= 1e-300 {
            return None;
        }
        g.swap(col, pivot);
        b.swap(col, pivot);
        let (pivot_rows, below) = g.split_at_mut(col + 1);
        let lead_row = &pivot_rows[col];
        let b_col = b[col];
        for (grow, brow) in below.iter_mut().zip(b[col + 1..].iter_mut()) {
            let f = grow[col] / lead_row[col];
            for (gk, lk) in grow[col..].iter_mut().zip(&lead_row[col..]) {
                *gk -= f * lk;
            }
            *brow -= f * b_col;
        }
    }
    let mut x = vec![0.0; d];
    for col in (0..d).rev() {
        let mut acc = b[col];
        for (gk, xk) in g[col][col + 1..].iter().zip(&x[col + 1..]) {
            acc -= gk * xk;
        }
        x[col] = acc / g[col][col];
    }
    Some(x)
}

/// Fits the proposal from the pilot: regress the observed offsets against
/// the replayed standardized per-device draws (ordinary least squares
/// with intercept and a tiny ridge for conditioning), take the fitted
/// gradient as the failure *direction*, and size each side's shift to
/// its own extrapolated boundary distance in slope units —
/// `λ₊ = (spec − μ̂)/|β|` toward `+spec`, `λ₋ = (spec + μ̂)/|β|` toward
/// `−spec`, each clamped to [2, 12] — so both shifted components are
/// centered on their boundary. Slope units matter: the fit is imperfect
/// (aged corners respond nonlinearly), and dividing by the total offset
/// σ̂ instead of the explained slope `|β|` would center the clusters
/// short of the boundary by `1/√R²`.
///
/// `pilot_offsets` is the `(index, offset)` set in any order — indices
/// at or beyond [`McConfig::samples`] are ignored, duplicates collapse,
/// and the fit runs over the index-sorted survivors, so every caller
/// (local resume, distribution coordinator) resolves the bit-identical
/// proposal from the same sample set. Degenerate pilots (too few
/// samples, zero variance, singular fit) yield an all-zero shift: the
/// run then draws nominally with weight 1 and honestly never converges.
#[must_use]
pub fn resolve_proposal(cfg: &McConfig, pilot_offsets: &[(usize, f64)]) -> TailProposal {
    let sa = SaInstance::fresh(cfg.kind, cfg.env);
    let devices = sa.devices();
    let d = devices.len();
    let zero = TailProposal {
        shift: vec![0.0; d],
        neg: vec![0.0; d],
        pilot: cfg.samples,
    };
    let mut pairs: Vec<(usize, f64)> = pilot_offsets
        .iter()
        .copied()
        .filter(|&(i, _)| i < cfg.samples)
        .collect();
    pairs.sort_by_key(|&(i, _)| i);
    pairs.dedup_by_key(|p| p.0);
    let n = pairs.len();
    if n < d + 2 {
        return zero;
    }
    let values: Vec<f64> = pairs.iter().map(|&(_, v)| v).collect();
    let stats = Summary::of(&values);
    if stats.std.is_nan() || stats.std <= 0.0 {
        return zero;
    }
    // Columns: devices with nonzero mismatch spread (constant-zero
    // columns would make the normal equations singular).
    let active: Vec<usize> = (0..d)
        .filter(|&k| cfg.mismatch.sigma_for(devices[k], &cfg.sizing) > 0.0)
        .collect();
    let da = active.len();
    if da == 0 || n < da + 2 {
        return zero;
    }
    let rows: Vec<Vec<f64>> = pairs
        .iter()
        .map(|&(i, _)| {
            let z = standardized_draws(cfg, devices, i);
            active.iter().map(|&k| z[k]).collect()
        })
        .collect();
    // Center columns and targets (absorbs the intercept), then solve the
    // ridge-stabilized normal equations (ZᵀZ + εI)β = Zᵀy.
    let col_mean: Vec<f64> = (0..da)
        .map(|c| rows.iter().map(|r| r[c]).sum::<f64>() / n as f64)
        .collect();
    let mut g = vec![vec![0.0; da]; da];
    let mut b = vec![0.0; da];
    for (row, &(_, y)) in rows.iter().zip(&pairs) {
        let yc = y - stats.mean;
        for c in 0..da {
            let zc = row[c] - col_mean[c];
            b[c] += zc * yc;
            for c2 in 0..da {
                g[c][c2] += zc * (row[c2] - col_mean[c2]);
            }
        }
    }
    let trace: f64 = (0..da).map(|c| g[c][c]).sum();
    let ridge = 1e-9 * (trace / da as f64).max(f64::MIN_POSITIVE);
    for (c, row) in g.iter_mut().enumerate() {
        row[c] += ridge;
    }
    let Some(beta) = solve_dense(&mut g, &mut b) else {
        return zero;
    };
    let norm = beta.iter().map(|v| v * v).sum::<f64>().sqrt();
    if !norm.is_finite() || norm <= 0.0 {
        return zero;
    }
    // Per-side distance to the extrapolated failure boundary, in slope
    // units — the fit only has to *reach* the tail, not get the spec
    // right, but it must reach it along the direction it can steer.
    let spec = crate::spec::offset_spec(stats.mean, stats.std, cfg.failure_rate);
    let lam_pos = ((spec - stats.mean) / norm).clamp(2.0, 12.0);
    let lam_neg = ((spec + stats.mean) / norm).clamp(2.0, 12.0);
    let mut shift = vec![0.0; d];
    let mut neg = vec![0.0; d];
    for (c, &k) in active.iter().enumerate() {
        let u = beta[c] / norm;
        shift[k] = lam_pos * u;
        neg[k] = -lam_neg * u;
    }
    TailProposal {
        shift,
        neg,
        pilot: cfg.samples,
    }
}

/// Returns `cfg` with the given proposal shifts installed (pilot =
/// `cfg.samples`) — how a distribution worker reconstructs the effective
/// round config from the exact shift bits the coordinator shipped.
/// No-op when the config has no tail mode.
#[must_use]
pub fn with_resolved(cfg: &McConfig, shift: &[f64], neg: &[f64]) -> McConfig {
    let mut out = cfg.clone();
    if let Some(tail) = out.tail.as_mut() {
        tail.resolved = Some(TailProposal {
            shift: shift.to_vec(),
            neg: neg.to_vec(),
            pilot: cfg.samples,
        });
    }
    out
}

/// The weighted-statistics evaluation [`run_mc_controlled`](crate::montecarlo::run_mc_controlled) swaps in for
/// tail-mode runs.
pub(crate) struct TailEvaluation {
    /// Self-normalized weighted mean of the offsets \[V\].
    pub mu: f64,
    /// Self-normalized weighted standard deviation \[V\].
    pub sigma: f64,
    /// Delta-method 95 % half-width on the weighted mean \[V\].
    pub mu_ci95: f64,
    /// Weighted `(1−fr)` quantile of `|offset|` — the directly-estimated
    /// spec \[V\].
    pub spec: f64,
    /// The summary attached to the result.
    pub summary: TailSummary,
}

/// Computes the weighted estimators over the surviving offsets of a
/// tail-mode run. Log-weights restored from a checkpoint are preferred;
/// missing ones are recomputed from the seed tree — bit-identical either
/// way. Returns `None` for non-tail configs (the caller falls back to
/// the classic estimators).
pub(crate) fn evaluate_weighted(
    cfg: &McConfig,
    indexed_offsets: &[(usize, f64)],
    resume: Option<&McResume>,
) -> Option<TailEvaluation> {
    let tail = cfg.tail.as_ref()?;
    let proposal = tail.resolved.as_ref()?;
    if indexed_offsets.is_empty() {
        return None;
    }
    let stored: HashMap<usize, f64> = resume
        .map(|r| r.log_weights.iter().copied().collect())
        .unwrap_or_default();
    let log_w: Vec<f64> = indexed_offsets
        .iter()
        .map(|&(i, _)| {
            stored
                .get(&i)
                .copied()
                .unwrap_or_else(|| tail_log_weight(cfg, i))
        })
        .collect();
    let weights = wstats::weights_from_log(&log_w);
    let values: Vec<f64> = indexed_offsets.iter().map(|&(_, v)| v).collect();
    let ws = wstats::weighted_summary(&values, &weights)?;
    let mu_ci95 = wstats::weighted_mean_ci95_half(&values, &weights).unwrap_or(f64::NAN);
    let pairs: Vec<(f64, f64)> = values
        .iter()
        .zip(&weights)
        .map(|(&v, &w)| (v.abs(), w))
        .collect();
    let q = wstats::tail_quantile_ci(&pairs, cfg.failure_rate, wstats::Z_95)?;
    let rel = q.rel_half_width();
    let converged = rel.is_some_and(|r| r <= tail.ci_rel_target) && q.tail_ess >= tail.min_tail_ess;
    Some(TailEvaluation {
        mu: ws.mean,
        sigma: ws.std,
        mu_ci95,
        spec: q.value,
        summary: TailSummary {
            shift: proposal.magnitude(),
            pilot: proposal.pilot,
            ess: ws.ess,
            tail_ess: q.tail_ess,
            spec_lo: q.lo,
            spec_hi: q.hi.unwrap_or(f64::INFINITY),
            rel_ci_half: rel.unwrap_or(f64::NAN),
            samples_used: values.len(),
            converged,
            rounds: 0,
        },
    })
}

/// Runs one corner in process through the corner driver
/// ([`crate::driver`]): in tail mode pilot → proposal fit → weighted
/// blocks until the stopping rule (or the sample cap, or a cancellation)
/// lands → the delay phase, each phase one [`run_mc_controlled`](crate::montecarlo::run_mc_controlled) call.
///
/// Configs without tail mode (or with an already-resolved proposal) make
/// the one classic [`run_mc_controlled`](crate::montecarlo::run_mc_controlled) call, so this is a drop-in
/// superset of the classic entry point. The delay phase measures at most
/// [`McConfig::delay_samples`] of the *pilot* indices — delay statistics
/// stay over nominal draws and need no weighting.
///
/// # Errors
///
/// Exactly [`run_mc_controlled`](crate::montecarlo::run_mc_controlled)'s: a failure budget overrun in any
/// phase, or a cancellation before any offset sample completed.
pub fn run_tail_mc(cfg: &McConfig, ctl: &McControl<'_>) -> Result<McResult, SaError> {
    crate::campaign::run_single(cfg, ctl)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::montecarlo::build_sample;
    use crate::netlist::SaKind;
    use crate::workload::{ReadSequence, Workload};
    use issa_ptm45::Environment;

    fn tail_cfg(samples: usize, tail: TailConfig) -> McConfig {
        McConfig {
            tail: Some(tail),
            ..McConfig::smoke(
                SaKind::Nssa,
                Workload::new(0.8, ReadSequence::AllZeros),
                Environment::nominal(),
                0.0,
                samples,
            )
        }
    }

    fn device_count(cfg: &McConfig) -> usize {
        SaInstance::fresh(cfg.kind, cfg.env).devices().len()
    }

    /// A proposal shifting every device equally, with total magnitude λ.
    fn uniform_shift(cfg: &McConfig, lambda: f64) -> Vec<f64> {
        let d = device_count(cfg);
        vec![lambda / (d as f64).sqrt(); d]
    }

    fn resolved(samples: usize, lambda: f64) -> McConfig {
        let base = tail_cfg(samples, TailConfig::default());
        let shift = uniform_shift(&base, lambda);
        let neg: Vec<f64> = shift.iter().map(|s| -s).collect();
        with_resolved(&base, &shift, &neg)
    }

    #[test]
    fn pilot_indices_draw_nominally_and_carry_weight_one() {
        let shifted = resolved(4, 6.0);
        let classic = McConfig {
            tail: None,
            ..shifted.clone()
        };
        for i in 0..4 {
            let a = build_sample(&classic, i);
            let b = build_sample(&shifted, i);
            for &device in a.devices() {
                assert_eq!(
                    a.delta_vth(device).to_bits(),
                    b.delta_vth(device).to_bits(),
                    "pilot sample {i} must be bit-identical"
                );
            }
            assert_eq!(tail_log_weight(&shifted, i), 0.0);
        }
    }

    #[test]
    fn zero_shift_proposal_is_the_nominal_engine() {
        let cfg = resolved(2, 0.0);
        for i in 0..8 {
            assert_eq!(tail_log_weight(&cfg, i), 0.0);
            let seq = SeedSequence::root(cfg.seed).child(i as u64);
            assert!(proposal_shift_for(&cfg, &seq, i).is_none());
        }
    }

    #[test]
    fn shifted_weights_are_defensively_bounded() {
        let cfg = resolved(2, 6.0);
        let mut saw = [false; 2];
        for i in 2..60 {
            let lw = tail_log_weight(&cfg, i);
            // Defensive mixture: w ≤ 1/m = 2 exactly.
            assert!(lw <= (2.0f64).ln() + 1e-12, "weight bound violated: {lw}");
            let seq = SeedSequence::root(cfg.seed).child(i as u64);
            if let Some(shift) = proposal_shift_for(&cfg, &seq, i) {
                saw[usize::from(shift[0] > 0.0)] = true;
                assert!(lw != 0.0, "shifted sample must reweight");
            }
        }
        assert!(
            saw[0] && saw[1],
            "both shift components must appear: {saw:?}"
        );
    }

    #[test]
    fn shifted_samples_move_along_the_shift_direction() {
        let cfg = resolved(1, 6.0);
        let classic = McConfig {
            tail: None,
            ..cfg.clone()
        };
        let mut saw_shifted = false;
        for i in 1..40 {
            let seq = SeedSequence::root(cfg.seed).child(i as u64);
            let Some(shift) = proposal_shift_for(&cfg, &seq, i) else {
                // Nominal-component samples stay bit-identical.
                let a = build_sample(&classic, i);
                let b = build_sample(&cfg, i);
                for &device in a.devices() {
                    assert_eq!(a.delta_vth(device).to_bits(), b.delta_vth(device).to_bits());
                }
                continue;
            };
            saw_shifted = true;
            let a = build_sample(&classic, i);
            let b = build_sample(&cfg, i);
            for (k, &device) in a.devices().iter().enumerate() {
                let sigma = cfg.mismatch.sigma_for(device, &cfg.sizing);
                let expect = a.delta_vth(device) + shift[k] * sigma;
                assert!(
                    (b.delta_vth(device) - expect).abs() < 1e-18,
                    "device {k}: shifted draw must be nominal + μ·σ"
                );
            }
        }
        assert!(saw_shifted);
    }

    #[test]
    fn log_weight_is_a_pure_replay() {
        let cfg = resolved(2, 4.5);
        for i in 0..12 {
            assert_eq!(
                tail_log_weight(&cfg, i).to_bits(),
                tail_log_weight(&cfg, i).to_bits()
            );
        }
    }

    #[test]
    fn proposal_fit_recovers_a_planted_linear_direction() {
        let cfg = tail_cfg(40, TailConfig::default());
        let sa = SaInstance::fresh(cfg.kind, cfg.env);
        let devices = sa.devices();
        // Plant a known gradient and synthesize offsets from the replayed
        // pilot draws: y = 1 mV + Σ c_k·z_k.
        let planted: Vec<f64> = (0..devices.len())
            .map(|k| 1e-3 * ((k % 3) as f64 - 1.0) + 2e-4 * k as f64)
            .collect();
        let offsets: Vec<(usize, f64)> = (0..cfg.samples)
            .map(|i| {
                let z = standardized_draws(&cfg, devices, i);
                let y: f64 = 1e-3 + z.iter().zip(&planted).map(|(zi, ci)| zi * ci).sum::<f64>();
                (i, y)
            })
            .collect();
        let p = resolve_proposal(&cfg, &offsets);
        assert_eq!(p.pilot, 40);
        let lambda = p.magnitude();
        assert!((2.0..=12.0).contains(&lambda), "magnitude {lambda}");
        let lam_neg = p.neg_magnitude();
        assert!((2.0..=12.0).contains(&lam_neg), "neg magnitude {lam_neg}");
        // The fitted direction must align with the planted gradient, and
        // the negative-side component must point the other way.
        let pnorm = planted.iter().map(|v| v * v).sum::<f64>().sqrt();
        let dot: f64 = p
            .shift
            .iter()
            .zip(&planted)
            .map(|(s, c)| s * c)
            .sum::<f64>()
            / (lambda * pnorm);
        assert!(dot.abs() > 0.999, "direction cosine {dot}");
        let dot_neg: f64 =
            p.neg.iter().zip(&p.shift).map(|(a, b)| a * b).sum::<f64>() / (lambda * lam_neg);
        assert!(dot_neg < -0.999, "sides must be antiparallel: {dot_neg}");
        // Bit-deterministic for a fixed pilot, input order irrelevant.
        let mut shuffled = offsets.clone();
        shuffled.reverse();
        let q = resolve_proposal(&cfg, &shuffled);
        for (a, b) in p.shift.iter().zip(&q.shift) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in p.neg.iter().zip(&q.neg) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn degenerate_pilots_fall_back_to_zero_shift() {
        let cfg = tail_cfg(8, TailConfig::default());
        // Too few samples for the ~dozen-device fit.
        let few: Vec<(usize, f64)> = (0..8).map(|i| (i, i as f64 * 1e-3)).collect();
        assert_eq!(resolve_proposal(&cfg, &few).magnitude(), 0.0);
        // Zero variance.
        let cfg40 = tail_cfg(40, TailConfig::default());
        let flat: Vec<(usize, f64)> = (0..40).map(|i| (i, 1e-3)).collect();
        assert_eq!(resolve_proposal(&cfg40, &flat).magnitude(), 0.0);
        assert_eq!(resolve_proposal(&cfg40, &[]).magnitude(), 0.0);
    }

    #[test]
    fn with_resolved_installs_exact_shift_bits() {
        let cfg = tail_cfg(16, TailConfig::default());
        let shift = uniform_shift(&cfg, 5.5);
        let neg = uniform_shift(&cfg, -7.25);
        let eff = with_resolved(&cfg, &shift, &neg);
        let t = eff.tail.unwrap().resolved.unwrap();
        assert_eq!(t.pilot, 16);
        for (a, b) in t.shift.iter().zip(&shift) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in t.neg.iter().zip(&neg) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Non-tail configs pass through untouched.
        let plain = McConfig {
            tail: None,
            ..cfg.clone()
        };
        assert!(with_resolved(&plain, &shift, &neg).tail.is_none());
    }

    #[test]
    fn solve_dense_inverts_a_known_system() {
        let mut g = vec![
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ];
        let mut b = vec![6.0, 10.0, 8.0];
        let x = solve_dense(&mut g, &mut b).unwrap();
        // Residual check against the original system.
        let g0 = [[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]];
        for (row, &rhs) in g0.iter().zip(&[6.0, 10.0, 8.0]) {
            let lhs: f64 = row.iter().zip(&x).map(|(a, xi)| a * xi).sum();
            assert!((lhs - rhs).abs() < 1e-12);
        }
        let mut singular = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let mut rhs = vec![1.0, 2.0];
        assert!(solve_dense(&mut singular, &mut rhs).is_none());
    }
}
