//! The sharded ("striped") counter — the classic industrial baseline.
//!
//! One padded cell per thread (or per stripe), increments go to the
//! caller's own cell: perfect increment scalability with **no**
//! coordination at all. The price is on the read side: an exact read
//! must sum all `m` cells (O(m), and not linearizable under concurrent
//! increments), and there is no cheap single-cell read with a bounded
//! error — a single cell says nothing about the total because stripes
//! are only balanced if thread activity happens to be.
//!
//! This is precisely the trade-off that motivates the MultiCounter: the
//! two-choice rule buys a *provable O(m log m) bound on single-sample
//! reads* (Lemma 6.8) for the cost of two extra loads per increment.
//! The `fig1a` binary and the `counter-*` scenarios pit all three
//! designs against each other.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::counter::RelaxedCounter;
use crate::rng::Rng64;
use dlz_pq::CachePadded;

/// A striped counter: increments hit a per-thread stripe.
///
/// # Example
/// ```
/// use dlz_core::{ShardedCounter, RelaxedCounter};
/// let c = ShardedCounter::new(8);
/// c.increment();
/// assert_eq!(c.read_exact(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedCounter {
    cells: Box<[CachePadded<AtomicU64>]>,
    /// Round-robin stripe assignment for threads.
    next_stripe: AtomicUsize,
}

thread_local! {
    /// Cached stripe index per (thread, counter-instance is ignored:
    /// one slot is fine because stripes are interchangeable).
    static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

impl ShardedCounter {
    /// Creates a counter with `m` stripes.
    ///
    /// # Panics
    /// If `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "ShardedCounter needs at least one stripe");
        ShardedCounter {
            cells: (0..m)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            next_stripe: AtomicUsize::new(0),
        }
    }

    /// Number of stripes.
    pub fn num_stripes(&self) -> usize {
        self.cells.len()
    }

    /// This thread's stripe (assigned round-robin on first use).
    #[inline]
    fn my_stripe(&self) -> usize {
        STRIPE.with(|s| {
            let mut idx = s.get();
            if idx == usize::MAX {
                idx = self.next_stripe.fetch_add(1, Ordering::Relaxed);
                s.set(idx);
            }
            idx % self.cells.len()
        })
    }

    /// Increment on an explicit stripe (for deterministic tests).
    #[inline]
    pub fn increment_stripe(&self, stripe: usize) {
        self.cells[stripe % self.cells.len()].fetch_add(1, Ordering::Relaxed);
    }

    /// A *single-sample* read, for apples-to-apples comparison with the
    /// MultiCounter: one random cell times `m`. Unlike the
    /// MultiCounter, nothing bounds its error — stripes can be
    /// arbitrarily skewed (e.g. one hot thread) — which is the point
    /// the comparison makes.
    pub fn read_sample_with(&self, rng: &mut impl Rng64) -> u64 {
        let m = self.cells.len() as u64;
        let i = rng.bounded(m) as usize;
        self.cells[i].load(Ordering::Relaxed).saturating_mul(m)
    }

    /// Max minus min over stripes (unbounded in general).
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
}

impl RelaxedCounter for ShardedCounter {
    #[inline]
    fn increment(&self) {
        let stripe = self.my_stripe();
        self.cells[stripe].fetch_add(1, Ordering::Relaxed);
    }

    /// Exact read by summation — O(m) and racy under concurrency, like
    /// `LongAdder.sum()`.
    fn read(&self) -> u64 {
        self.read_exact()
    }

    fn read_exact(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use std::sync::Arc;

    #[test]
    fn conservation_under_concurrency() {
        const THREADS: u64 = 4;
        const PER: u64 = 50_000;
        let c = Arc::new(ShardedCounter::new(8));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..PER {
                        c.increment();
                    }
                });
            }
        });
        assert_eq!(c.read_exact(), THREADS * PER);
    }

    #[test]
    fn stripes_can_be_arbitrarily_skewed() {
        // A single hot stripe: the exact read is fine, but the
        // single-sample read has unbounded error — the failure mode the
        // MultiCounter's two-choice rule eliminates.
        let c = ShardedCounter::new(8);
        for _ in 0..10_000 {
            c.increment_stripe(3);
        }
        assert_eq!(c.read_exact(), 10_000);
        assert_eq!(c.max_gap(), 10_000);
        let mut rng = Xoshiro256::new(1);
        let mut worst = 0u64;
        for _ in 0..64 {
            let s = c.read_sample_with(&mut rng);
            worst = worst.max(s.abs_diff(10_000));
        }
        // Samples are either 0 (7/8 chance) or 80_000: error is Θ(total),
        // vastly beyond the MultiCounter's m·log m.
        assert!(worst >= 10_000);
    }

    #[test]
    fn explicit_stripe_wraps() {
        let c = ShardedCounter::new(4);
        c.increment_stripe(0);
        c.increment_stripe(4); // wraps to stripe 0
        assert_eq!(c.read_exact(), 2);
        assert_eq!(c.num_stripes(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one stripe")]
    fn zero_stripes_rejected() {
        let _ = ShardedCounter::new(0);
    }
}
