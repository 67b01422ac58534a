//! The harness's draws. Every generator here draws from the simulator's
//! frozen xorshift64* ([`ChaosRng`]), so a failing case reproduces from
//! nothing but a seed number. Changing that algorithm invalidates every
//! recorded seed; don't.

use mptcp_sim::ChaosRng;

/// The draws the program and fault-plan generators make, each from
/// [`ChaosRng::below`].
pub(crate) trait Draw {
    /// Uniform integer in `[lo, hi]` (inclusive).
    fn range_i64(&mut self, lo: i64, hi: i64) -> i64;

    /// True with probability `percent`/100.
    fn chance(&mut self, percent: u64) -> bool;

    /// Uniformly picks one element of a non-empty slice.
    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T;
}

impl Draw for ChaosRng {
    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_stay_in_bounds() {
        let mut r = ChaosRng::new(3);
        for _ in 0..1000 {
            let v = r.range_i64(-5, 5);
            assert!((-5..=5).contains(&v));
        }
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(r.pick(&items)));
        }
    }

    #[test]
    fn algorithm_is_frozen() {
        // Recorded output of xorshift64* seed 1: changing the algorithm
        // breaks every recorded repro seed, so this test pins it.
        let mut r = ChaosRng::new(1);
        assert_eq!(r.next_u64(), 0x47E4_CE4B_896C_DD1D, "first output changed");
        let mut zero = ChaosRng::new(0);
        assert_ne!(zero.next_u64(), zero.next_u64(), "seed 0 is remapped");
    }
}
