//! Seeded deterministic perturbation source for schedule exploration.
//!
//! The simulator's engine always dispatches the minimum-clock processor, so
//! the interleaving of virtually-concurrent execution segments is a pure
//! function of the virtual timeline. That makes the canonical schedule
//! deterministic — and also means the sync layer only ever sees one
//! interleaving per `(policy, workload)` pair. [`Prng`] is the entropy
//! source behind the perturbation mode ([`crate::Machine`]'s sync-boundary
//! jitter, the runtime's wake-order shuffles and same-timestamp
//! tie-breaks): a tiny SplitMix64 generator whose whole state is its seed,
//! so any schedule it produces replays bit-exactly from the `(policy,
//! seed)` pair alone.

/// One SplitMix64 step: advances `state` and returns the next value. The
/// step of [`Prng`], and the seeding stream of the apps' input generators.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic SplitMix64 pseudo-random generator.
///
/// Not statistically fancy, but fast, seedable from a single `u64`, and —
/// the property the schedule-perturbation checker depends on — fully
/// replayable: two `Prng`s built from the same seed produce identical
/// streams forever.
#[derive(Debug, Clone)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// Creates a generator from `seed`. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        // Pre-mix so nearby seeds (0, 1, 2, ...) diverge immediately.
        let mut p = Prng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        };
        p.next_u64();
        p
    }

    /// Next raw 64-bit value (SplitMix64 step).
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform value in `[0, n)`; returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Multiply-shift reduction; bias is irrelevant for perturbation.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// True with probability `num / den` (saturating at 1).
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den.max(1)) < num
    }

    /// Fisher–Yates shuffle of `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::new(0);
        let mut b = Prng::new(1);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn below_is_in_range() {
        let mut p = Prng::new(7);
        for n in [1u64, 2, 3, 10, 1000] {
            for _ in 0..50 {
                assert!(p.below(n) < n);
            }
        }
        assert_eq!(p.below(0), 0);
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_stable() {
        let mut p = Prng::new(99);
        let mut v: Vec<u32> = (0..16).collect();
        p.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<u32>>());
        // Replays identically.
        let mut p2 = Prng::new(99);
        let mut v2: Vec<u32> = (0..16).collect();
        p2.shuffle(&mut v2);
        assert_eq!(v, v2);
    }

    #[test]
    fn chance_extremes() {
        let mut p = Prng::new(3);
        assert!((0..32).all(|_| p.chance(1, 1)));
        assert!((0..32).all(|_| !p.chance(0, 4)));
    }
}
