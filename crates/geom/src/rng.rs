//! Small deterministic PRNG (xoshiro256++) so the workspace builds with no
//! external dependencies.
//!
//! The workspace needs randomness in three places — synthetic dataset
//! generation, weight initialization, and randomized tests — none of which
//! need cryptographic strength, but all of which need *reproducibility*
//! (every figure harness and test seeds explicitly). The API deliberately
//! mirrors the tiny subset of the `rand` crate the code used before the
//! offline-build migration: `StdRng::seed_from_u64`, `gen_range` over
//! float/integer ranges, and distinct-index sampling.
//!
//! # Example
//!
//! ```
//! use edgepc_geom::rng::StdRng;
//!
//! let mut a = StdRng::seed_from_u64(7);
//! let mut b = StdRng::seed_from_u64(7);
//! let x = a.gen_range(0.0f32..1.0);
//! assert_eq!(x, b.gen_range(0.0f32..1.0));
//! assert!((0.0..1.0).contains(&x));
//! ```

/// Deterministic xoshiro256++ generator seeded from a single `u64` via
/// SplitMix64 (the reference seeding procedure, so distinct seeds give
/// well-separated streams).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, 1)` with 24 bits of precision (all an `f32` mantissa
    /// holds).
    pub fn next_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` by widening multiply (bias is
    /// negligible for the bounds used here, all far below 2^32).
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform draw from a range, matching `rand`'s `Rng::gen_range`:
    /// half-open and inclusive ranges over `f32`, `f64`, and `usize`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `n` distinct indices drawn uniformly from `0..len`, in random order
    /// (a partial Fisher-Yates shuffle; the `rand` equivalent is
    /// `seq::index::sample`).
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn sample_indices(&mut self, len: usize, n: usize) -> Vec<usize> {
        assert!(n <= len, "cannot sample {n} distinct indices from 0..{len}");
        let mut pool: Vec<usize> = (0..len).collect();
        for i in 0..n {
            let j = i + self.below((len - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(n);
        pool
    }
}

/// A range a [`StdRng`] can sample uniformly. Implemented for the range
/// shapes the workspace actually uses.
pub trait UniformRange {
    /// The element type produced.
    type Output;
    /// Draws one uniform value.
    fn sample(self, rng: &mut StdRng) -> Self::Output;
}

impl UniformRange for std::ops::Range<f32> {
    type Output = f32;
    fn sample(self, rng: &mut StdRng) -> f32 {
        assert!(
            self.start < self.end,
            "empty range {}..{}",
            self.start,
            self.end
        );
        self.start + (self.end - self.start) * rng.next_f32()
    }
}

impl UniformRange for std::ops::RangeInclusive<f32> {
    type Output = f32;
    fn sample(self, rng: &mut StdRng) -> f32 {
        let (a, b) = (*self.start(), *self.end());
        assert!(a <= b, "empty range {a}..={b}");
        // The closed upper end matters only for degenerate ranges; sampling
        // the half-open interval is indistinguishable at f32 resolution.
        a + (b - a) * rng.next_f32()
    }
}

impl UniformRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(
            self.start < self.end,
            "empty range {}..{}",
            self.start,
            self.end
        );
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

impl UniformRange for std::ops::Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut StdRng) -> usize {
        assert!(
            self.start < self.end,
            "empty range {}..{}",
            self.start,
            self.end
        );
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl UniformRange for std::ops::RangeInclusive<usize> {
    type Output = usize;
    fn sample(self, rng: &mut StdRng) -> usize {
        let (a, b) = (*self.start(), *self.end());
        assert!(a <= b, "empty range {a}..={b}");
        a + rng.below((b - a + 1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert!((0..10).any(|_| a.next_u64() != b.next_u64()));
    }

    #[test]
    fn float_ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.gen_range(-2.0f32..3.0);
            assert!((-2.0..3.0).contains(&x));
            let y = rng.gen_range(-0.5f32..=0.5);
            assert!((-0.5..=0.5).contains(&y));
        }
    }

    #[test]
    fn usize_ranges_respect_bounds_and_hit_ends() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.gen_range(0..=4usize)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all of 0..=4 should appear: {seen:?}"
        );
    }

    #[test]
    fn next_f32_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 10_000;
        let mean: f32 = (0..n).map(|_| rng.next_f32()).sum::<f32>() / n as f32;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(6);
        let idx = rng.sample_indices(100, 30);
        assert_eq!(idx.len(), 30);
        let set: std::collections::BTreeSet<_> = idx.iter().collect();
        assert_eq!(set.len(), 30, "indices must be distinct");
        assert!(idx.iter().all(|&i| i < 100));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_panics() {
        let _ = StdRng::seed_from_u64(0).sample_indices(3, 4);
    }
}
