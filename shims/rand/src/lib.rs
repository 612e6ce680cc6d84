//! Offline shim for the `rand` crate (0.8 API subset).
//!
//! The build environment cannot reach crates.io, so this crate implements the
//! slice of `rand` the workspace actually uses — [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], and [`Rng::gen_range`] / [`Rng::gen_bool`]
//! over integer ranges — on top of a self-contained xoshiro256\*\* generator
//! seeded through SplitMix64.  All call sites in the workspace construct the
//! generator from an explicit `u64` seed, so no OS entropy source is needed
//! and every run is reproducible.

#![forbid(unsafe_code)]

/// Low-level source of randomness, mirroring `rand_core::RngCore`.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic construction from a seed, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (via SplitMix64 expansion).
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing convenience methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value uniformly from the given range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: distributions::uniform::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        // 53 random bits give a uniform f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Uniform sampling support, mirroring `rand::distributions`.
pub mod distributions {
    /// Range sampling traits, mirroring `rand::distributions::uniform`.
    pub mod uniform {
        use crate::RngCore;

        /// A range that can produce uniform samples of `T`.
        pub trait SampleRange<T> {
            /// Draws one uniform sample from the range.
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
        }

        // Lemire-style unbiased bounded sampling on u64 widths.
        pub(crate) fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Rejection sampling over the largest multiple of `bound`.
            let zone = u64::MAX - (u64::MAX % bound) - 1;
            loop {
                let v = rng.next_u64();
                if v <= zone {
                    return v % bound;
                }
            }
        }

        macro_rules! impl_int_range {
            ($($t:ty),*) => {$(
                impl SampleRange<$t> for core::ops::Range<$t> {
                    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                        assert!(self.start < self.end, "cannot sample empty range");
                        let span = (self.end as u64).wrapping_sub(self.start as u64);
                        self.start.wrapping_add(bounded_u64(rng, span) as $t)
                    }
                }

                impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
                    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                        let (start, end) = (*self.start(), *self.end());
                        assert!(start <= end, "cannot sample empty range");
                        let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                        if span == 0 {
                            // Full-width inclusive range.
                            return rng.next_u64() as $t;
                        }
                        start.wrapping_add(bounded_u64(rng, span) as $t)
                    }
                }
            )*};
        }

        impl_int_range!(u8, u16, u32, u64, usize);

        macro_rules! impl_float_range {
            ($($t:ty),*) => {$(
                impl SampleRange<$t> for core::ops::Range<$t> {
                    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                        assert!(self.start < self.end, "cannot sample empty range");
                        let unit = (rng.next_u64() >> 11) as $t * (1.0 / (1u64 << 53) as $t);
                        self.start + unit * (self.end - self.start)
                    }
                }

                impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
                    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                        let (start, end) = (*self.start(), *self.end());
                        assert!(start <= end, "cannot sample empty range");
                        let unit = (rng.next_u64() >> 11) as $t * (1.0 / (1u64 << 53) as $t);
                        start + unit * (end - start)
                    }
                }
            )*};
        }

        impl_float_range!(f32, f64);
    }
}

/// Concrete generators, mirroring `rand::rngs`.
pub mod rngs {
    use crate::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256\*\* seeded via
    /// SplitMix64 (deterministic, fast, and statistically strong enough for
    /// synthetic workload generation — not cryptographic).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0usize..1000), b.gen_range(0usize..1000));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0u64..=5);
            assert!(y <= 5);
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn gen_bool_is_roughly_calibrated() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((25_000..35_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn unsized_rng_references_work() {
        fn sample<R: super::Rng + ?Sized>(rng: &mut R) -> usize {
            rng.gen_range(0..10)
        }
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sample(&mut rng) < 10);
    }
}
