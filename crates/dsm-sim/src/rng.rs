//! A tiny deterministic PRNG for seeded test inputs and fault plans.
//!
//! The workspace builds with no external dependencies, so randomized
//! components (fault plans, property tests, OS-noise stagger) share this
//! splitmix64 generator instead of the `rand` crate. Streams are fully
//! determined by the seed, stable across platforms, and cheap to fork.

/// A splitmix64 pseudo-random generator.
///
/// Not cryptographic; statistically solid for simulation inputs and the
/// recommended seeder for xoshiro-family generators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift range reduction (Lemire); the slight modulo bias
        // of simpler schemes is irrelevant here but this is just as cheap.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform signed value in `[lo, hi]` (inclusive).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// True with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// An independent generator derived from this one's seed and `tag`
    /// (substreams for per-entity randomness that stays stable when other
    /// entities draw more or fewer values).
    pub fn fork(&self, tag: u64) -> SplitMix64 {
        let mut g = SplitMix64::new(self.state ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64(); // decorrelate from the parent's next draw
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        let mut c = SplitMix64::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut g = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = g.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit in 1000 draws");
    }

    #[test]
    fn range_i64_is_inclusive() {
        let mut g = SplitMix64::new(3);
        let (mut lo_hit, mut hi_hit) = (false, false);
        for _ in 0..2000 {
            let v = g.range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            lo_hit |= v == -3;
            hi_hit |= v == 3;
        }
        assert!(lo_hit && hi_hit);
    }

    #[test]
    fn chance_tracks_probability() {
        let mut g = SplitMix64::new(11);
        let hits = (0..10_000).filter(|_| g.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
        assert!(!(0..100).any(|_| g.chance(0.0)));
        assert!((0..100).all(|_| g.chance(1.0)));
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let g = SplitMix64::new(5);
        let mut f1 = g.fork(1);
        let mut f1b = g.fork(1);
        let mut f2 = g.fork(2);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }
}
