//! The MultiCounter — Algorithm 1 of the paper, and its d-choice
//! generalization.
//!
//! ```text
//! function Read()
//!     i <- random(1, m)
//!     return m * Counters[i].read()
//!
//! function Increment()
//!     i <- random(1, m); j <- random(1, m)
//!     vi <- Counters[i].read(); vj <- Counters[j].read()
//!     Counters[argmin(vi, vj)].increment()
//! ```
//!
//! The increment's choice step is written once (`choose`): it samples
//! `d` cells one after another, draw then load, and keeps a later draw
//! only on a strictly smaller value. `d = 2` is Algorithm 1; `d = 1` is
//! random placement, whose gap diverges (Θ(√(t log m / m)) after `t`
//! balls) — the negative control the paper cites for unbounded
//! staleness; `d > 2` buys a marginally tighter sequential gap
//! (`log log m / log d + O(1)`) with more read traffic per increment.
//! Every increment — plain, weighted, or Section 8's clock tick
//! ([`increment_sampled`](MultiCounter::increment_sampled)) — is that
//! step plus one `fetch_add`.
//!
//! In a concurrent execution the reads and the increment are separate
//! atomic steps: the values may be stale by the time the `fetch_add`
//! lands, which is exactly the relaxation Section 6 of the paper
//! analyzes. Nothing in this implementation re-synchronizes them —
//! doing so (e.g. with a lock) would destroy both the scalability and
//! the model.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::counter::RelaxedCounter;
use crate::rng::{with_thread_rng, Rng64};
use dlz_pq::CachePadded;

/// Relaxed approximate counter over `m` distributed atomic cells, each
/// increment going to the smallest of `d` sampled cells.
///
/// See the module-level docs for the algorithm and the crate docs for
/// the guarantees.
///
/// # Example
/// ```
/// use dlz_core::{MultiCounter, RelaxedCounter};
/// use dlz_core::rng::Xoshiro256;
///
/// let c = MultiCounter::new(16);
/// let mut rng = Xoshiro256::new(1);
/// for _ in 0..1000 {
///     c.increment_with(&mut rng);
/// }
/// assert_eq!(c.read_exact(), 1000);
/// assert!(c.max_gap() <= 16); // two-choice keeps cells tightly balanced
/// ```
#[derive(Debug)]
pub struct MultiCounter {
    cells: Box<[CachePadded<AtomicU64>]>,
    d: usize,
}

impl MultiCounter {
    /// Algorithm 1: `m` cells (all zero), two choices per increment.
    pub fn new(m: usize) -> Self {
        Self::with_choices(m, 2)
    }

    /// `m` cells (all zero), `d` choices per increment.
    ///
    /// ```
    /// use dlz_core::{MultiCounter, RelaxedCounter};
    /// use dlz_core::rng::Xoshiro256;
    ///
    /// let c = MultiCounter::with_choices(16, 4);
    /// let mut rng = Xoshiro256::new(9);
    /// for _ in 0..1000 {
    ///     c.increment_with(&mut rng);
    /// }
    /// assert_eq!(c.read_exact(), 1000);
    /// ```
    ///
    /// # Panics
    /// If `m == 0` or `d == 0`.
    pub fn with_choices(m: usize, d: usize) -> Self {
        assert!(m >= 1, "MultiCounter needs at least one cell");
        assert!(d >= 1, "MultiCounter needs at least one choice");
        MultiCounter {
            cells: (0..m)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            d,
        }
    }

    /// Number of distributed cells (the paper's `m`).
    #[inline]
    pub fn num_counters(&self) -> usize {
        self.cells.len()
    }

    /// Number of choices per increment (2 for Algorithm 1).
    pub fn choices(&self) -> usize {
        self.d
    }

    /// The choice step: draws an index and loads that cell, `d` times,
    /// keeping a later draw only on a strictly smaller value (ties go to
    /// the earlier draw; the paper allows any tie-break). Returns the
    /// first probe's value and the target cell.
    ///
    /// Relaxed loads suffice: each cell is an independent monotone word
    /// and the algorithm is defined on (possibly stale) per-cell values
    /// — there is no cross-cell invariant for stronger orderings to
    /// protect.
    #[inline]
    fn choose(&self, rng: &mut impl Rng64) -> (u64, usize) {
        let m = self.cells.len() as u64;
        let first = rng.bounded(m) as usize;
        let sample = self.cells[first].load(Ordering::Relaxed);
        let (mut target, mut best) = (first, sample);
        for _ in 1..self.d {
            let k = rng.bounded(m) as usize;
            let v = self.cells[k].load(Ordering::Relaxed);
            if v < best {
                (target, best) = (k, v);
            }
        }
        (sample, target)
    }

    /// One increment using the supplied generator.
    #[inline]
    pub fn increment_with(&self, rng: &mut impl Rng64) {
        self.add_with(rng, 1);
    }

    /// A weighted increment: adds `weight` to the cell that looked
    /// smallest. This is the weighted process of Theorem 7.1 (there
    /// with Exp(1) weights); practically it turns the structure into a
    /// relaxed *metric* counter (bytes, latencies, ...) whose sampled
    /// reads stay within `O(w_max · m log m)` of the true total for
    /// bounded weights.
    #[inline]
    pub fn add_with(&self, rng: &mut impl Rng64, weight: u64) {
        let (_, target) = self.choose(rng);
        self.cells[target].fetch_add(weight, Ordering::Relaxed);
    }

    /// One increment that also returns a relaxed read: `m` times the
    /// first probe's value, loaded before the update. The probe is a
    /// uniform cell, so this is, word for word, Algorithm 1's `Read()`
    /// linearized just before this increment — what Section 8's clock
    /// needs from a tick, at the cost of one increment.
    #[inline]
    pub fn increment_sampled(&self, rng: &mut impl Rng64) -> u64 {
        let (sample, target) = self.choose(rng);
        self.cells[target].fetch_add(1, Ordering::Relaxed);
        sample.saturating_mul(self.cells.len() as u64)
    }

    /// One relaxed read using the supplied generator:
    /// `m * Counters[random i]`.
    #[inline]
    pub fn read_with(&self, rng: &mut impl Rng64) -> u64 {
        let m = self.cells.len() as u64;
        let i = rng.bounded(m) as usize;
        self.cells[i].load(Ordering::Relaxed).saturating_mul(m)
    }

    /// Snapshot of every cell (diagnostics; racy under concurrency).
    pub fn cell_values(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Max minus min over all cells — the "gap" the paper's Theorem 6.1
    /// bounds by `O(log m)`.
    pub fn max_gap(&self) -> u64 {
        let values = self.cell_values();
        let (min, max) = (values.iter().min(), values.iter().max());
        max.unwrap_or(&0) - min.unwrap_or(&0)
    }

    /// Maximum deviation of `m * cell` from the true total — the read
    /// error bound of Lemma 6.8 (`O(m log m)` w.h.p.).
    pub fn max_read_error(&self) -> u64 {
        let values = self.cell_values();
        let total: u64 = values.iter().sum();
        let m = values.len() as u64;
        values
            .iter()
            .map(|&v| (v.saturating_mul(m)).abs_diff(total))
            .max()
            .unwrap_or(0)
    }
}

impl RelaxedCounter for MultiCounter {
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
    use std::sync::Arc;

    #[test]
    fn conservation_single_thread() {
        let c = MultiCounter::new(32);
        let mut rng = Xoshiro256::new(7);
        for _ in 0..10_000 {
            c.increment_with(&mut rng);
        }
        assert_eq!(c.read_exact(), 10_000);
        assert_eq!(c.cell_values().iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn single_cell_degenerates_to_exact() {
        let c = MultiCounter::new(1);
        let mut rng = Xoshiro256::new(1);
        for _ in 0..500 {
            c.increment_with(&mut rng);
        }
        assert_eq!(c.read_with(&mut rng), 500);
        assert_eq!(c.max_gap(), 0);
    }

    #[test]
    fn choice_step_is_algorithm_1() {
        // The oracle: from any state `h`, with `i`, `j` the generator's
        // next two draws, every form adds to `h[i] <= h[j] ? i : j`,
        // and the sampled form returns `m·h[i]`.
        let m = 8u64;
        for seed in 0..64 {
            let c = MultiCounter::new(m as usize);
            let mut rng = Xoshiro256::new(seed);
            for k in 0..600u64 {
                let h = c.cell_values();
                let mut shadow = rng.clone();
                let (i, j) = (shadow.bounded(m) as usize, shadow.bounded(m) as usize);
                let weight = if k % 3 == 1 { 1 + k % 7 } else { 1 };
                match k % 3 {
                    0 => c.increment_with(&mut rng),
                    1 => c.add_with(&mut rng, weight),
                    _ => assert_eq!(c.increment_sampled(&mut rng), m * h[i], "seed {seed}"),
                }
                let mut expect = h.clone();
                expect[if h[i] <= h[j] { i } else { j }] += weight;
                assert_eq!(c.cell_values(), expect, "seed {seed}, op {k}");
            }
        }
    }

    #[test]
    fn single_thread_digests_are_pinned() {
        // Cells and `read_with` results of 20k seeded ops, folded into
        // one word each; the constants were recorded from the separate
        // two-choice and d-choice types this one replaces.
        const FNV: u64 = 0xcbf2_9ce4_8422_2325;
        let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(0x100_0000_01b3);
        let digest = |c: MultiCounter, weighted: bool| {
            let mut rng = Xoshiro256::new(2018);
            let mut reads = FNV;
            for k in 0..20_000u64 {
                if k % 4 == 3 {
                    reads = fold(reads, c.read_with(&mut rng));
                } else if weighted {
                    c.add_with(&mut rng, 1 + k % 3);
                } else {
                    c.increment_with(&mut rng);
                }
            }
            (c.cell_values().into_iter().fold(FNV, fold), reads)
        };
        assert_eq!(
            [
                digest(MultiCounter::new(8), true),
                digest(MultiCounter::new(8), false),
                digest(MultiCounter::with_choices(8, 1), false),
                digest(MultiCounter::with_choices(16, 4), false),
            ],
            [
                (0x53dd_0d2a_e3b6_0ebd, 0x21dc_18eb_77f8_b845),
                (0x93c2_ade6_e6b2_4a79, 0xa302_f60e_9bed_67e5),
                (0xc5b0_dfc2_e709_d329, 0x3597_8330_302d_817d),
                (0x3000_c798_e6fb_68df, 0x82c7_6eaf_39f6_1565),
            ]
        );
    }

    #[test]
    fn two_choice_balances_tightly() {
        // Sequential two-choice: gap should be O(log m) — use a generous
        // constant. With m=64 and 100k balls, gap > 20 would be
        // astronomically unlikely (theory: ~log2 log2 m + O(1) above avg).
        let c = MultiCounter::new(64);
        let mut rng = Xoshiro256::new(42);
        for _ in 0..100_000 {
            c.increment_with(&mut rng);
        }
        assert_eq!(c.read_exact(), 100_000);
        assert!(c.max_gap() <= 20, "gap {} too large", c.max_gap());
    }

    #[test]
    fn conservation_holds_for_all_d() {
        for d in 1..=4 {
            let c = MultiCounter::with_choices(16, d);
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
        let one = MultiCounter::with_choices(m, 1);
        let two = MultiCounter::with_choices(m, 2);
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
        let four = MultiCounter::with_choices(m, 4);
        let mut rng = Xoshiro256::new(11);
        for _ in 0..100_000 {
            four.increment_with(&mut rng);
        }
        assert!(four.max_gap() <= 16, "4-choice gap {}", four.max_gap());
    }

    #[test]
    #[should_panic(expected = "at least one choice")]
    fn zero_choices_rejected() {
        let _ = MultiCounter::with_choices(8, 0);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = MultiCounter::with_choices(0, 2);
    }

    #[test]
    fn accessors() {
        let c = MultiCounter::with_choices(8, 3);
        assert_eq!(c.num_counters(), 8);
        assert_eq!(c.choices(), 3);
        assert_eq!(c.cell_values().len(), 8);
        assert_eq!(c.max_gap(), 0);
    }

    #[test]
    fn read_error_bounded_by_m_log_m() {
        let m = 64u64;
        let c = MultiCounter::new(m as usize);
        let mut rng = Xoshiro256::new(3);
        for _ in 0..50_000 {
            c.increment_with(&mut rng);
        }
        // Lemma 6.8: |m*x_i - total| = O(m log m). Generous constant 4.
        let bound = 4 * m * (m as f64).ln() as u64;
        assert!(
            c.max_read_error() <= bound,
            "error {} exceeds bound {}",
            c.max_read_error(),
            bound
        );
    }

    #[test]
    fn read_scales_by_m() {
        let c = MultiCounter::new(4);
        let mut rng = Xoshiro256::new(9);
        for _ in 0..400 {
            c.increment_with(&mut rng);
        }
        // Every cell is close to 100, so every read is close to 400.
        for _ in 0..50 {
            let r = c.read_with(&mut rng);
            assert!(r.is_multiple_of(4));
            assert!((300..=500).contains(&r), "read {r}");
        }
    }

    #[test]
    fn concurrent_increments_conserve_total() {
        const THREADS: usize = 4;
        const PER: u64 = 25_000;
        let c = Arc::new(MultiCounter::new(64));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    let mut rng = Xoshiro256::new(1000 + t as u64);
                    for _ in 0..PER {
                        c.increment_with(&mut rng);
                    }
                });
            }
        });
        // Increments are atomic fetch_adds: none can be lost.
        assert_eq!(c.read_exact(), THREADS as u64 * PER);
    }

    #[test]
    fn concurrent_gap_stays_bounded() {
        // The paper's Theorem 6.1 (with m >= C n). 2 threads, m = 64:
        // gap should stay O(log m); allow a generous constant.
        const THREADS: usize = 2;
        const PER: u64 = 100_000;
        let c = Arc::new(MultiCounter::new(64));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    let mut rng = Xoshiro256::new(2000 + t as u64);
                    for _ in 0..PER {
                        c.increment_with(&mut rng);
                    }
                });
            }
        });
        assert!(c.max_gap() <= 40, "gap {}", c.max_gap());
    }

    #[test]
    fn weighted_adds_conserve_and_balance() {
        let m = 32;
        let c = MultiCounter::new(m);
        let mut rng = Xoshiro256::new(17);
        let mut total = 0u64;
        // Weights in 1..=16 (bounded): gap should stay O(w_max * log m).
        for _ in 0..100_000 {
            let w = 1 + rng.bounded(16);
            c.add_with(&mut rng, w);
            total += w;
        }
        assert_eq!(c.read_exact(), total);
        let bound = 16.0 * 4.0 * (m as f64).ln();
        assert!(
            (c.max_gap() as f64) <= bound,
            "weighted gap {} exceeds {bound}",
            c.max_gap()
        );
    }

    #[test]
    fn add_with_weight_one_equals_increment() {
        let a = MultiCounter::new(8);
        let b = MultiCounter::new(8);
        let mut ra = Xoshiro256::new(23);
        let mut rb = Xoshiro256::new(23);
        for _ in 0..5_000 {
            a.increment_with(&mut ra);
            b.add_with(&mut rb, 1);
        }
        assert_eq!(a.cell_values(), b.cell_values());
    }

    #[test]
    fn concurrent_weighted_adds_conserve() {
        let c = std::sync::Arc::new(MultiCounter::new(16));
        let total: u64 = std::thread::scope(|s| {
            let hs: Vec<_> = (0..4u64)
                .map(|t| {
                    let c = std::sync::Arc::clone(&c);
                    s.spawn(move || {
                        let mut rng = Xoshiro256::new(31 + t);
                        let mut sum = 0u64;
                        for _ in 0..20_000 {
                            let w = 1 + rng.bounded(8);
                            c.add_with(&mut rng, w);
                            sum += w;
                        }
                        sum
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(c.read_exact(), total);
    }

    #[test]
    fn convenience_api_uses_thread_rng() {
        crate::rng::reseed_thread_rng(77);
        let c = MultiCounter::new(16);
        for _ in 0..100 {
            c.increment();
        }
        assert_eq!(c.read_exact(), 100);
        let _ = c.read();
    }
}
