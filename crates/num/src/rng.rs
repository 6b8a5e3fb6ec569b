//! Deterministic seed fan-out and sampling distributions.
//!
//! Reproducibility requirements for the Monte Carlo experiments:
//!
//! 1. Every experiment takes a single `u64` seed and is bit-for-bit
//!    reproducible from it.
//! 2. Sample *i* of a Monte Carlo run must not depend on how many samples
//!    are drawn in total (so shrinking/growing a run keeps the common
//!    prefix identical). This is achieved by deriving an independent child
//!    seed per sample with [`SeedSequence`] instead of drawing all samples
//!    from one stream.
//!
//! The distributions the aging and variation models need (normal,
//! exponential, Poisson, log-uniform) are implemented here on top of any
//! [`rand::Rng`], since `rand` 0.8 without `rand_distr` only provides
//! uniform sampling.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 step: the de-facto standard seed scrambler, used to derive
/// statistically independent child seeds from a parent seed plus a
/// stream index. Defined once, in `rand`.
pub use rand::splitmix64;

/// Hierarchical seed derivation.
///
/// A `SeedSequence` identifies a node in a seed tree: `root(seed)` is the
/// root, and [`SeedSequence::child`] descends one level. Each node can mint
/// an [`StdRng`] whose stream is independent of its siblings'.
///
/// # Example
///
/// ```
/// use issa_num::rng::SeedSequence;
/// use rand::Rng;
///
/// let root = SeedSequence::root(42);
/// let mut a = root.child(0).rng();
/// let mut b = root.child(1).rng();
/// // Sibling streams differ...
/// assert_ne!(a.gen::<u64>(), b.gen::<u64>());
/// // ...and the same path is reproducible.
/// let mut a2 = SeedSequence::root(42).child(0).rng();
/// assert_eq!(a2.gen::<u64>(), SeedSequence::root(42).child(0).rng().gen::<u64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedSequence {
    state: u64,
}

impl SeedSequence {
    /// Creates the root of a seed tree.
    pub fn root(seed: u64) -> Self {
        Self {
            state: splitmix64(seed),
        }
    }

    /// Derives the `index`-th child node.
    pub fn child(&self, index: u64) -> Self {
        Self {
            state: splitmix64(self.state ^ splitmix64(index.wrapping_add(0xA5A5_5A5A_DEAD_BEEF))),
        }
    }

    /// The 64-bit seed value at this node.
    pub fn seed(&self) -> u64 {
        self.state
    }

    /// Mints a [`StdRng`] seeded from this node.
    pub fn rng(&self) -> StdRng {
        // Expand the 64-bit node state into the 32-byte StdRng seed.
        let mut bytes = [0u8; 32];
        let mut s = self.state;
        for chunk in bytes.chunks_mut(8) {
            s = splitmix64(s);
            chunk.copy_from_slice(&s.to_le_bytes());
        }
        StdRng::from_seed(bytes)
    }
}

/// Draws a standard normal variate via the Marsaglia polar method.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws from `N(mean, std²)`.
///
/// # Panics
///
/// Panics if `std` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    assert!(std >= 0.0, "standard deviation must be non-negative");
    mean + std * standard_normal(rng)
}

/// Draws from the exponential distribution with the given `mean` (= 1/λ).
///
/// # Panics
///
/// Panics if `mean` is not positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// Draws from the Poisson distribution with rate `lambda`.
///
/// Uses Knuth's product method for small rates and a normal approximation
/// with continuity correction above `lambda = 64` (trap populations rarely
/// exceed a few tens, so the exact branch dominates in practice).
///
/// # Panics
///
/// Panics if `lambda` is negative or non-finite.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda >= 0.0 && lambda.is_finite(), "invalid Poisson rate");
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 64.0 {
        let limit = (-lambda).exp();
        let mut product: f64 = rng.gen();
        let mut count = 0u64;
        while product > limit {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    } else {
        let x = normal(rng, lambda, lambda.sqrt());
        x.round().max(0.0) as u64
    }
}

/// Draws from the log-uniform distribution over `[lo, hi]`: the logarithm of
/// the result is uniform.
///
/// This is the distribution of trap capture/emission time constants in a
/// flat capture/emission-time (CET) map spanning several decades.
///
/// # Panics
///
/// Panics if `lo` or `hi` is not positive or `lo > hi`.
pub fn log_uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    assert!(lo > 0.0 && hi > 0.0, "log-uniform bounds must be positive");
    assert!(lo <= hi, "log-uniform bounds out of order");
    if lo == hi {
        return lo;
    }
    let u: f64 = rng.gen();
    (lo.ln() + u * (hi.ln() - lo.ln())).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunningStats;

    #[test]
    fn splitmix_is_deterministic_and_scrambles() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // Consecutive inputs should differ in many bits (avalanche).
        let d = (splitmix64(7) ^ splitmix64(8)).count_ones();
        assert!(d > 16, "only {d} differing bits");
    }

    #[test]
    fn seed_sequence_children_are_independent() {
        let root = SeedSequence::root(123);
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(root.child(i).seed()), "collision at {i}");
        }
    }

    #[test]
    fn seed_sequence_same_path_same_stream() {
        let a: Vec<u64> = {
            let mut r = SeedSequence::root(9).child(3).child(1).rng();
            (0..8).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SeedSequence::root(9).child(3).child(1).rng();
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SeedSequence::root(1).rng();
        let mut s = RunningStats::new();
        for _ in 0..20_000 {
            s.push(normal(&mut rng, 3.0, 2.0));
        }
        assert!((s.mean() - 3.0).abs() < 0.06, "mean {}", s.mean());
        assert!(
            (s.sample_std() - 2.0).abs() < 0.06,
            "std {}",
            s.sample_std()
        );
    }

    #[test]
    fn exponential_moments() {
        let mut rng = SeedSequence::root(2).rng();
        let mut s = RunningStats::new();
        for _ in 0..20_000 {
            s.push(exponential(&mut rng, 0.5));
        }
        assert!((s.mean() - 0.5).abs() < 0.02);
        assert!(s.min() >= 0.0);
    }

    #[test]
    fn poisson_moments_small_rate() {
        let mut rng = SeedSequence::root(3).rng();
        let mut s = RunningStats::new();
        for _ in 0..20_000 {
            s.push(poisson(&mut rng, 4.0) as f64);
        }
        assert!((s.mean() - 4.0).abs() < 0.1, "mean {}", s.mean());
        assert!((s.sample_variance() - 4.0).abs() < 0.3);
    }

    #[test]
    fn poisson_large_rate_uses_normal_branch() {
        let mut rng = SeedSequence::root(4).rng();
        let mut s = RunningStats::new();
        for _ in 0..5_000 {
            s.push(poisson(&mut rng, 400.0) as f64);
        }
        assert!((s.mean() - 400.0).abs() < 2.0);
    }

    #[test]
    fn poisson_zero_rate() {
        let mut rng = SeedSequence::root(5).rng();
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn log_uniform_bounds_and_log_mean() {
        let mut rng = SeedSequence::root(6).rng();
        let mut s = RunningStats::new();
        for _ in 0..20_000 {
            let x = log_uniform(&mut rng, 1e-6, 1e6);
            assert!((1e-6..=1e6).contains(&x));
            s.push(x.ln());
        }
        // log is uniform over [ln(1e-6), ln(1e6)] => mean ln = 0.
        assert!(s.mean().abs() < 0.2, "log-mean {}", s.mean());
    }

    #[test]
    fn log_uniform_degenerate_interval() {
        let mut rng = SeedSequence::root(7).rng();
        assert_eq!(log_uniform(&mut rng, 2.5, 2.5), 2.5);
    }
}
