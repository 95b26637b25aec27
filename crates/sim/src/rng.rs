//! Seeded randomness for reproducible experiments.
//!
//! The simulator itself is fully deterministic; randomness only enters
//! through explicit knobs (process-arrival jitter, workload generation).
//! Centralizing RNG construction behind a seed keeps every figure
//! regeneration bit-reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic RNG with convenience helpers for the workload
/// generators.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    pub fn seeded(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream, e.g. one per rank, so adding a
    /// consumer does not perturb the draws other consumers see.
    pub fn stream(&self, stream: u64) -> Self {
        // SplitMix64 over (seed-derived state, stream) gives well-spread
        // child seeds without correlations between adjacent streams.
        let mut z = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let mut clone = self.clone();
        let base: u64 = clone.inner.random();
        SimRng::seeded(base ^ z)
    }

    #[inline]
    pub fn u64(&mut self, bound: u64) -> u64 {
        self.inner.random_range(0..bound.max(1))
    }

    #[inline]
    pub fn f64(&mut self) -> f64 {
        self.inner.random()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.u64(1_000_000), b.u64(1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..64).filter(|_| a.u64(1 << 40) == b.u64(1 << 40)).count();
        assert!(same < 4);
    }

    #[test]
    fn child_streams_are_independent_of_sibling_count() {
        let root = SimRng::seeded(7);
        let mut s3a = root.stream(3);
        let mut s3b = root.stream(3);
        assert_eq!(s3a.u64(u64::MAX), s3b.u64(u64::MAX));
        let mut s4 = root.stream(4);
        assert_ne!(root.stream(3).u64(u64::MAX), s4.u64(u64::MAX));
    }
}
