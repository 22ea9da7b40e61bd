//! The crate's tiny deterministic generator.
//!
//! SplitMix64 (Steele et al.) — well-distributed, seedable, and free of
//! external dependencies. Fault schedules and the link channel (corruption
//! and drops) all draw from private instances of this one generator so every
//! injected event is exactly reproducible from its seed.

/// SplitMix64 state.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator (the XOR keeps seed 0 from degenerating).
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next raw 64-bit draw.
    pub(crate) fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub(crate) fn uniform(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let mut c = SplitMix64::new(8);
        let same: Vec<u64> = (0..32).map(|_| a.next()).collect();
        assert_eq!(same, (0..32).map(|_| b.next()).collect::<Vec<_>>());
        assert_ne!(same, (0..32).map(|_| c.next()).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
