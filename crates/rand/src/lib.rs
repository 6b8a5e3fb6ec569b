//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *tiny* slice of the `rand` 0.8 API it actually uses:
//! [`RngCore`], [`Rng::gen`] / [`Rng::gen_range`], [`SeedableRng`], and
//! [`rngs::StdRng`].
//!
//! `StdRng` here is xoshiro256++ (not `rand`'s ChaCha12), so streams are
//! **not** bit-compatible with the upstream crate — they don't need to be:
//! every consumer in this workspace seeds through
//! `issa_num::rng::SeedSequence` and only relies on determinism and
//! statistical quality, both of which xoshiro256++ provides. The
//! generator is deliberately simple, allocation-free, and fast.

/// The SplitMix64 output function: advances `state` by the golden-ratio
/// increment and scrambles it. The workspace's one definition — the seed
/// expansion of [`SeedableRng::seed_from_u64`], `issa_num`'s seed tree
/// and the chaos schedules all call it.
#[inline]
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64's state increment (2⁶⁴ / φ): a SplitMix64 *stream* is
/// `splitmix64(s), splitmix64(s + GOLDEN_GAMMA), …`.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be drawn uniformly from a half-open `lo..hi` range.
pub trait SampleUniform: PartialOrd + Copy {
    /// Draws uniformly from `[lo, hi)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Types that can be drawn from their "standard" distribution
/// (`[0, 1)` for floats, the full domain for integers and bool).
pub trait SampleStandard {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl SampleStandard for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl SampleStandard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl SampleStandard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of resolution (the standard
    /// `bits >> 11` construction).
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleUniform for f64 {
    #[inline]
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        let u = f64::sample(rng);
        // lo + u*(hi-lo) can round to hi for u just under 1 when the range
        // is tiny; clamp to keep the half-open contract.
        let v = lo + u * (hi - lo);
        if v >= hi {
            // Nudge back inside the range.
            f64::from_bits(hi.to_bits() - 1)
        } else {
            v
        }
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u128;
                debug_assert!(span > 0, "empty range");
                // Multiply-shift rejection-free mapping is fine for the
                // statistical tests in this workspace.
                let r = rng.next_u64() as u128;
                lo + ((r * span) >> 64) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing sampling interface, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws from the standard distribution of `T`.
    #[inline]
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from the half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T: SampleUniform>(&mut self, range: core::ops::Range<T>) -> T {
        assert!(range.start < range.end, "cannot sample empty range");
        T::sample_range(self, range.start, range.end)
    }

    /// Draws `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of an RNG from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64` via SplitMix64 expansion.
    fn seed_from_u64(state: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng, GOLDEN_GAMMA};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn ensure_nonzero(&mut self) {
            if self.s == [0; 4] {
                // The all-zero state is the one fixed point of xoshiro;
                // remap it to an arbitrary nonzero state.
                self.s = [
                    0x9E37_79B9_7F4A_7C15,
                    0x6A09_E667_F3BC_C909,
                    0xBB67_AE85_84CA_A73B,
                    0x3C6E_F372_FE94_F82B,
                ];
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            let mut rng = Self { s };
            rng.ensure_nonzero();
            rng
        }

        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64(sm);
                sm = sm.wrapping_add(GOLDEN_GAMMA);
            }
            let mut rng = Self { s };
            rng.ensure_nonzero();
            rng
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{splitmix64, Rng, SeedableRng};

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::from_seed([7; 32]);
        let mut b = StdRng::from_seed([7; 32]);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::from_seed([1; 32]);
        let mut b = StdRng::from_seed([2; 32]);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn f64_standard_is_unit_interval() {
        let mut r = StdRng::seed_from_u64(42);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = r.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&x));
            let k: usize = r.gen_range(0..3);
            assert!(k < 3);
        }
    }

    #[test]
    fn splitmix64_matches_the_reference_value() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = StdRng::from_seed([0; 32]);
        assert_ne!(r.gen::<u64>(), 0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(0);
        let _: f64 = r.gen_range(1.0..1.0);
    }
}
