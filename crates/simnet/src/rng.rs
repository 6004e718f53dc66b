//! Deterministic randomness for simulations.
//!
//! Every source of randomness in the framework flows through [`SimRng`],
//! seeded explicitly, so that all experiments (and all paper tables) are
//! reproducible.

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded deterministic random number generator.
///
/// # Examples
///
/// ```
/// use pdn_simnet::SimRng;
///
/// let mut a = SimRng::seed(7);
/// let mut b = SimRng::seed(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng(rand::rngs::StdRng);

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        SimRng(rand::rngs::StdRng::seed_from_u64(seed))
    }

    /// Derives an independent child generator labeled by `stream`.
    ///
    /// Two children with different labels produce uncorrelated streams; the
    /// same label always yields the same child. Useful to give each node or
    /// experiment phase its own stream without global ordering effects.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.0.gen::<u64>();
        SimRng::seed(base ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform value in `range`.
    pub fn range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        self.0.gen_range(range)
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.0.gen::<f64>()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.0.gen_bool(p)
    }

    /// Picks a uniformly random element of `items`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        items.choose(&mut self.0)
    }

    /// Picks an index according to non-negative `weights`.
    ///
    /// Returns `None` if `weights` is empty or sums to zero.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }

    /// Shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        items.shuffle(&mut self.0);
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// Used for inter-arrival times (viewer churn, request arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.f64(); // avoid ln(0)
        -mean * u.ln()
    }
}

/// SplitMix64's output finalizer: a bijective avalanche of `z`, so inputs
/// that differ in one bit give unrelated outputs. Callers build `z` from a
/// base seed and an index (SplitMix64 proper feeds it `state + γ·n`).
#[inline]
pub fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalizer_matches_splitmix64_reference() {
        // SplitMix64 seeded with 0: its first output finalizes 0 + γ.
        assert_eq!(
            splitmix64_finalize(0x9E37_79B9_7F4A_7C15),
            0xE220_A839_7B1D_CDAF
        );
    }

    #[test]
    fn determinism() {
        let mut a = SimRng::seed(42);
        let mut b = SimRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_stable_and_distinct() {
        let mut root1 = SimRng::seed(1);
        let mut root2 = SimRng::seed(1);
        let mut c1 = root1.fork(5);
        let mut c2 = root2.fork(5);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut root3 = SimRng::seed(1);
        let mut other = root3.fork(6);
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(0);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn choose_weighted_respects_zeros() {
        let mut r = SimRng::seed(9);
        for _ in 0..200 {
            let i = r.choose_weighted(&[0.0, 3.0, 0.0]).unwrap();
            assert_eq!(i, 1);
        }
        assert_eq!(r.choose_weighted(&[]), None);
        assert_eq!(r.choose_weighted(&[0.0, 0.0]), None);
    }

    #[test]
    fn empty_or_weightless_choices_are_none() {
        let mut r = SimRng::seed(4);
        assert_eq!(r.choose::<u8>(&[]), None);
        assert_eq!(r.choose_weighted(&[]), None);
        assert_eq!(r.choose_weighted(&[0.0, -1.0]), None);
        for _ in 0..32 {
            assert_eq!(r.choose_weighted(&[0.0, 2.5, -3.0]), Some(1));
        }
    }

    #[test]
    fn exp_is_positive_with_roughly_right_mean() {
        let mut r = SimRng::seed(11);
        let n = 5000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| r.exp(mean)).sum();
        let observed = sum / n as f64;
        assert!(observed > 3.5 && observed < 4.5, "observed mean {observed}");
    }
}
