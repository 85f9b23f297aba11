//! The d-choice generalization of the MultiCounter.
//!
//! Algorithm 1 samples two cells; sampling `d` generalizes the classic
//! balanced-allocation family:
//!
//! * `d = 1` — pure random placement. The gap between bins *diverges*
//!   (Θ(√(t log m / m)) after t balls); the paper cites this as the
//!   reason stale/contended executions are dangerous: too much staleness
//!   degrades two-choice toward one-choice. It is our negative control.
//! * `d = 2` — Algorithm 1 (use [`MultiCounter`](crate::MultiCounter)
//!   for the optimized implementation).
//! * `d > 2` — marginally tighter balance (gap `log log m / log d + O(1)`
//!   sequentially) for proportionally more read traffic per increment.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::counter::RelaxedCounter;
use crate::rng::{with_thread_rng, Rng64};
use dlz_pq::CachePadded;

/// A relaxed counter that increments the smallest of `d` sampled cells.
///
/// # Example
/// ```
/// use dlz_core::{DChoiceCounter, RelaxedCounter};
/// use dlz_core::rng::Xoshiro256;
///
/// let c = DChoiceCounter::new(16, 4, 123);
/// let mut rng = Xoshiro256::new(9);
/// for _ in 0..1000 {
///     c.increment_with(&mut rng);
/// }
/// assert_eq!(c.read_exact(), 1000);
/// ```
#[derive(Debug)]
pub struct DChoiceCounter {
    cells: Box<[CachePadded<AtomicU64>]>,
    d: usize,
}

impl DChoiceCounter {
    /// Creates a counter with `m` cells and `d` choices per increment.
    /// The `_seed` parameter is kept for API symmetry with the builder
    /// and reseeds the calling thread's convenience RNG.
    ///
    /// # Panics
    /// If `m == 0` or `d == 0`.
    pub fn new(m: usize, d: usize, seed: u64) -> Self {
        assert!(m >= 1, "need at least one cell");
        assert!(d >= 1, "need at least one choice");
        crate::rng::reseed_thread_rng(seed);
        DChoiceCounter {
            cells: (0..m)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            d,
        }
    }

    /// Number of cells.
    pub fn num_counters(&self) -> usize {
        self.cells.len()
    }

    /// Number of choices per increment.
    pub fn choices(&self) -> usize {
        self.d
    }

    /// One d-choice increment with an explicit generator.
    #[inline]
    pub fn increment_with(&self, rng: &mut impl Rng64) {
        let m = self.cells.len() as u64;
        let mut best = rng.bounded(m) as usize;
        let mut best_v = self.cells[best].load(Ordering::Relaxed);
        for _ in 1..self.d {
            let k = rng.bounded(m) as usize;
            let v = self.cells[k].load(Ordering::Relaxed);
            if v < best_v {
                best = k;
                best_v = v;
            }
        }
        self.cells[best].fetch_add(1, Ordering::Relaxed);
    }

    /// One relaxed read with an explicit generator.
    #[inline]
    pub fn read_with(&self, rng: &mut impl Rng64) -> u64 {
        let m = self.cells.len() as u64;
        let i = rng.bounded(m) as usize;
        self.cells[i].load(Ordering::Relaxed).saturating_mul(m)
    }

    /// Max minus min over cells.
    pub fn max_gap(&self) -> u64 {
        let mut min = u64::MAX;
        let mut max = 0u64;
        for c in self.cells.iter() {
            let v = c.load(Ordering::Relaxed);
            min = min.min(v);
            max = max.max(v);
        }
        max.saturating_sub(min)
    }

    /// Snapshot of every cell.
    pub fn cell_values(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

impl RelaxedCounter for DChoiceCounter {
    fn increment(&self) {
        with_thread_rng(|rng| self.increment_with(rng));
    }

    fn read(&self) -> u64 {
        with_thread_rng(|rng| self.read_with(rng))
    }

    fn read_exact(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn conservation_holds_for_all_d() {
        for d in 1..=4 {
            let c = DChoiceCounter::new(16, d, 1);
            let mut rng = Xoshiro256::new(d as u64);
            for _ in 0..5_000 {
                c.increment_with(&mut rng);
            }
            assert_eq!(c.read_exact(), 5_000, "d={d}");
        }
    }

    #[test]
    fn single_choice_is_visibly_worse_than_two_choice() {
        // The core phenomenon of the whole literature: with m=64 and
        // 200k balls, one-choice gap is Θ(√(t/m · log m)) ≈ 100+,
        // two-choice stays ~log log m. Compare with a huge margin.
        let m = 64;
        let t = 200_000u64;
        let one = DChoiceCounter::new(m, 1, 2);
        let two = DChoiceCounter::new(m, 2, 2);
        let mut rng1 = Xoshiro256::new(10);
        let mut rng2 = Xoshiro256::new(10);
        for _ in 0..t {
            one.increment_with(&mut rng1);
            two.increment_with(&mut rng2);
        }
        assert!(
            one.max_gap() >= 4 * two.max_gap(),
            "one-choice gap {} not >> two-choice gap {}",
            one.max_gap(),
            two.max_gap()
        );
        assert!(two.max_gap() <= 20, "two-choice gap {}", two.max_gap());
    }

    #[test]
    fn more_choices_never_hurt_much() {
        let m = 64;
        let four = DChoiceCounter::new(m, 4, 3);
        let mut rng = Xoshiro256::new(11);
        for _ in 0..100_000 {
            four.increment_with(&mut rng);
        }
        assert!(four.max_gap() <= 16, "4-choice gap {}", four.max_gap());
    }

    #[test]
    #[should_panic(expected = "at least one choice")]
    fn zero_choices_rejected() {
        let _ = DChoiceCounter::new(8, 0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = DChoiceCounter::new(0, 2, 0);
    }

    #[test]
    fn accessors() {
        let c = DChoiceCounter::new(8, 3, 0);
        assert_eq!(c.num_counters(), 8);
        assert_eq!(c.choices(), 3);
        assert_eq!(c.cell_values().len(), 8);
        assert_eq!(c.max_gap(), 0);
    }
}
