//! SplitMix64 — the workspace's one seeded stream generator.
//!
//! Std-only, allocation-free, and fully determined by its seed. Every
//! seed-derived schedule draws from it: [`FaultPlan::from_seed`] and
//! [`IoFaultPlan::from_seed`], the `lb-serve` network-fault plans, client
//! backoff jitter and soak job mix, and the `lb-chaos` hostile instances.
//! The same seed always replays the same stream, which is what makes
//! every fuzz failure and fault storm a one-line reproducer.
//!
//! (The workload generators behind the experiments use `rand`'s `StdRng`
//! instead; its stream is pinned separately by the committed
//! `BENCH_wcoj.json` op counts.)
//!
//! [`FaultPlan::from_seed`]: crate::fault::FaultPlan::from_seed
//! [`IoFaultPlan::from_seed`]: crate::fault::IoFaultPlan::from_seed

/// A seeded SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a stream from a seed. Distinct seeds give independent-looking
    /// streams; the zero seed is fine.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform in `lo..=hi` (inclusive).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        debug_assert!(!items.is_empty());
        let i = self.below(items.len() as u64) as usize;
        // lb-lint: allow(no-panic) -- invariant: callers pass non-empty slices (debug-asserted)
        &items[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(seed: u64, n: usize) -> Vec<u64> {
        let mut r = Rng::new(seed);
        (0..n).map(|_| r.next_u64()).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(first(42, 8), first(42, 8));
        assert_ne!(first(42, 8), first(43, 8));
    }

    /// Pins the stream itself, not just its self-consistency: every
    /// seed-derived fault plan, soak mix and replay seed depends on these
    /// exact values.
    #[test]
    fn golden_stream() {
        assert_eq!(
            first(0, 4),
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec
            ]
        );
        assert_eq!(
            first(0x5eed, 4),
            [
                0x09f1_fd9d_03f0_a9b4,
                0x5532_7416_1bbf_8475,
                0x5d5b_ca46_96b3_43b3,
                0x70d2_9b6c_7d22_528d
            ]
        );
    }

    #[test]
    fn bounds_respected() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
        }
        assert_eq!(r.below(0), 0);
        assert!(!r.chance(0));
        assert!(r.chance(100));
    }
}
