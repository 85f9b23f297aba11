//! The MultiCounter — Algorithm 1 of the paper, verbatim.
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
//! In a concurrent execution the two reads and the increment are three
//! separate atomic steps: the values may be stale by the time the
//! `fetch_add` lands, which is exactly the relaxation Section 6 of the
//! paper analyzes. Nothing in this implementation re-synchronizes them —
//! doing so (e.g. with a lock) would destroy both the scalability and
//! the model.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::counter::RelaxedCounter;
use crate::rng::{with_thread_rng, Rng64};
use dlz_pq::CachePadded;

/// Relaxed approximate counter over `m` distributed atomic cells.
///
/// Construct via [`MultiCounter::builder`]. See the module-level docs
/// for the algorithm and the crate docs for the guarantees.
///
/// # Example
/// ```
/// use dlz_core::{MultiCounter, RelaxedCounter};
/// use dlz_core::rng::Xoshiro256;
///
/// let c = MultiCounter::builder().counters(16).build();
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
}

impl MultiCounter {
    /// Starts building a MultiCounter.
    pub fn builder() -> MultiCounterBuilder {
        MultiCounterBuilder::default()
    }

    /// Creates a counter with `m` cells directly (all zero).
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "MultiCounter needs at least one cell");
        MultiCounter {
            cells: (0..m)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Number of distributed cells (the paper's `m`).
    #[inline]
    pub fn num_counters(&self) -> usize {
        self.cells.len()
    }

    /// One two-choice increment using the supplied generator.
    #[inline]
    pub fn increment_with(&self, rng: &mut impl Rng64) {
        let m = self.cells.len() as u64;
        let i = rng.bounded(m) as usize;
        let j = rng.bounded(m) as usize;
        // The paper's two sequential reads. Relaxed suffices: each cell
        // is an independent monotone word and the algorithm is defined
        // on (possibly stale) per-cell values — there is no cross-cell
        // invariant for stronger orderings to protect.
        let vi = self.cells[i].load(Ordering::Relaxed);
        let vj = self.cells[j].load(Ordering::Relaxed);
        // Tie broken toward `i` (the paper allows arbitrary tie-breaks).
        let target = if vi <= vj { i } else { j };
        self.cells[target].fetch_add(1, Ordering::Relaxed);
    }

    /// Like [`increment_with`](Self::increment_with) but reports the
    /// choices made — used by the distributional-linearizability checker
    /// and by tests that pin down the algorithm's exact behaviour.
    pub fn increment_traced(&self, rng: &mut impl Rng64) -> IncrementTrace {
        let m = self.cells.len() as u64;
        let i = rng.bounded(m) as usize;
        let j = rng.bounded(m) as usize;
        let vi = self.cells[i].load(Ordering::Relaxed);
        let vj = self.cells[j].load(Ordering::Relaxed);
        let chosen = if vi <= vj { i } else { j };
        let value_after = self.cells[chosen].fetch_add(1, Ordering::Relaxed) + 1;
        IncrementTrace {
            i,
            j,
            vi,
            vj,
            chosen,
            value_after,
        }
    }

    /// A weighted two-choice increment: adds `weight` to the cell that
    /// looked smaller. This is the weighted process of Theorem 7.1
    /// (there with Exp(1) weights); practically it turns the structure
    /// into a relaxed *metric* counter (bytes, latencies, ...) whose
    /// sampled reads stay within `O(w_max · m log m)` of the true total
    /// for bounded weights.
    #[inline]
    pub fn add_with(&self, rng: &mut impl Rng64, weight: u64) {
        let m = self.cells.len() as u64;
        let i = rng.bounded(m) as usize;
        let j = rng.bounded(m) as usize;
        let vi = self.cells[i].load(Ordering::Relaxed);
        let vj = self.cells[j].load(Ordering::Relaxed);
        let target = if vi <= vj { i } else { j };
        self.cells[target].fetch_add(weight, Ordering::Relaxed);
    }

    /// Convenience weighted add using the thread-local generator.
    pub fn add(&self, weight: u64) {
        with_thread_rng(|rng| self.add_with(rng, weight));
    }

    /// Splits an increment into its *read phase* (this call: draws the
    /// two indices and reads both cells) and its *update phase*
    /// ([`PendingIncrement::commit`]). Between the two calls, arbitrary
    /// other operations may run — this is exactly the adversary's power
    /// in the paper's model (Section 6.1), so tests can build worst-case
    /// interleavings like the batch stampede deterministically against
    /// the real structure.
    pub fn begin_increment(&self, rng: &mut impl Rng64) -> PendingIncrement {
        let m = self.cells.len() as u64;
        let i = rng.bounded(m) as usize;
        let j = rng.bounded(m) as usize;
        let vi = self.cells[i].load(Ordering::Relaxed);
        let vj = self.cells[j].load(Ordering::Relaxed);
        PendingIncrement { i, j, vi, vj }
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

    /// Value of a single cell.
    pub fn cell(&self, i: usize) -> u64 {
        self.cells[i].load(Ordering::Relaxed)
    }

    /// Max minus min over all cells — the "gap" the paper's Theorem 6.1
    /// bounds by `O(log m)`.
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

/// The read phase of a split increment: stale values captured at
/// [`MultiCounter::begin_increment`] time, waiting for their update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingIncrement {
    /// First sampled index.
    pub i: usize,
    /// Second sampled index.
    pub j: usize,
    /// Value of cell `i` at read time (possibly stale by commit time).
    pub vi: u64,
    /// Value of cell `j` at read time (possibly stale by commit time).
    pub vj: u64,
}

impl PendingIncrement {
    /// The update phase: increments the cell that *looked* smaller at
    /// read time, exactly as Algorithm 1 does when the scheduler delays
    /// a thread between its reads and its write. Returns the chosen
    /// index and whether the choice was "wrong" at commit time (the
    /// chosen cell had strictly larger value than the alternative — the
    /// corrupted-step event of the analysis).
    pub fn commit(self, counter: &MultiCounter) -> (usize, bool) {
        let chosen = if self.vi <= self.vj { self.i } else { self.j };
        let other = if chosen == self.i { self.j } else { self.i };
        let wrong = counter.cell(chosen) > counter.cell(other);
        counter.cells[chosen].fetch_add(1, Ordering::Relaxed);
        (chosen, wrong)
    }
}

/// Everything one two-choice increment did (for checkers and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementTrace {
    /// First sampled index.
    pub i: usize,
    /// Second sampled index.
    pub j: usize,
    /// Value read from cell `i`.
    pub vi: u64,
    /// Value read from cell `j`.
    pub vj: u64,
    /// Index actually incremented.
    pub chosen: usize,
    /// Cell value immediately after the increment.
    pub value_after: u64,
}

/// Builder for [`MultiCounter`].
///
/// Either set the cell count directly with [`counters`], or derive it
/// from a thread count and the paper's ratio `C = m / n` with
/// [`ratio`] + [`threads`]. The analysis requires `m ≥ Cn` for a large
/// constant `C`; in practice small constants already balance well
/// (the paper's own experiments use `C ∈ [1, 8]`).
///
/// [`counters`]: MultiCounterBuilder::counters
/// [`ratio`]: MultiCounterBuilder::ratio
/// [`threads`]: MultiCounterBuilder::threads
#[derive(Debug, Clone, Default)]
pub struct MultiCounterBuilder {
    counters: Option<usize>,
    ratio: Option<usize>,
    threads: Option<usize>,
    seed: Option<u64>,
}

impl MultiCounterBuilder {
    /// Sets the number of cells `m` explicitly.
    pub fn counters(mut self, m: usize) -> Self {
        self.counters = Some(m);
        self
    }

    /// Sets the ratio `C = m / n`; combine with [`threads`](Self::threads).
    pub fn ratio(mut self, c: usize) -> Self {
        self.ratio = Some(c);
        self
    }

    /// Sets the thread count `n` used with [`ratio`](Self::ratio).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Reseeds the *calling thread's* generator, so that subsequent
    /// convenience-API calls from this thread are deterministic. Threads
    /// spawned later are unaffected (they get their own seeds); use the
    /// `*_with` APIs for full determinism across threads.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Builds the counter.
    ///
    /// # Panics
    /// If neither `counters` nor (`ratio` and `threads`) was given, or if
    /// the resulting cell count is zero.
    pub fn build(self) -> MultiCounter {
        let m = match (self.counters, self.ratio, self.threads) {
            (Some(m), _, _) => m,
            (None, Some(c), Some(n)) => c * n,
            _ => panic!("MultiCounterBuilder: set .counters(m) or .ratio(c).threads(n)"),
        };
        if let Some(seed) = self.seed {
            crate::rng::reseed_thread_rng(seed);
        }
        MultiCounter::new(m)
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
    fn traced_increment_is_faithful() {
        let c = MultiCounter::new(8);
        let mut rng = Xoshiro256::new(5);
        // Replaying the same RNG stream must give identical choices.
        let mut shadow = Xoshiro256::new(5);
        for _ in 0..1000 {
            let before = c.cell_values();
            let t = c.increment_traced(&mut rng);
            let i = shadow.bounded(8) as usize;
            let j = shadow.bounded(8) as usize;
            assert_eq!((t.i, t.j), (i, j));
            assert_eq!(t.vi, before[i]);
            assert_eq!(t.vj, before[j]);
            let expect = if t.vi <= t.vj { t.i } else { t.j };
            assert_eq!(t.chosen, expect);
            assert_eq!(c.cell(t.chosen), before[t.chosen] + 1);
            assert_eq!(t.value_after, before[t.chosen] + 1);
        }
    }

    #[test]
    fn read_scales_by_m() {
        let c = MultiCounter::new(4);
        // Force a known state: bump each cell by hand through traces.
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
    fn builder_forms() {
        assert_eq!(
            MultiCounter::builder().counters(10).build().num_counters(),
            10
        );
        assert_eq!(
            MultiCounter::builder()
                .ratio(4)
                .threads(3)
                .build()
                .num_counters(),
            12
        );
    }

    #[test]
    #[should_panic(expected = "MultiCounterBuilder")]
    fn builder_requires_configuration() {
        let _ = MultiCounter::builder().build();
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
    fn phased_increment_equals_plain_when_uninterleaved() {
        let a = MultiCounter::new(8);
        let b = MultiCounter::new(8);
        let mut rng_a = Xoshiro256::new(21);
        let mut rng_b = Xoshiro256::new(21);
        for _ in 0..2_000 {
            a.increment_with(&mut rng_a);
            let p = b.begin_increment(&mut rng_b);
            let (_, wrong) = p.commit(&b);
            assert!(!wrong, "no interleaving, no wrong choices");
        }
        assert_eq!(a.cell_values(), b.cell_values());
    }

    #[test]
    fn stampede_interleaving_biases_toward_wrong_bins() {
        // The Section 6.1 worked example, on the real structure: all n
        // "threads" read together, then commit one after another. Late
        // committers act on stale values; some must pick the bin that
        // is by then the more loaded one.
        let m = 16;
        let n = 16; // deliberately m = n: maximal staleness pressure
        let c = MultiCounter::new(m);
        let mut rng = Xoshiro256::new(33);
        let mut wrong_total = 0u64;
        for _batch in 0..2_000 {
            let pending: Vec<PendingIncrement> =
                (0..n).map(|_| c.begin_increment(&mut rng)).collect();
            for p in pending {
                let (_, wrong) = p.commit(&c);
                wrong_total += u64::from(wrong);
            }
        }
        assert!(
            wrong_total > 0,
            "stampedes must produce some stale (wrong) updates"
        );
        // Yet conservation and (coarse) balance survive — the theorem's
        // robustness claim in miniature.
        assert_eq!(c.read_exact(), 2_000 * n as u64);
        assert!(
            c.max_gap() <= 8 * (m as f64).ln() as u64 + 8,
            "gap {}",
            c.max_gap()
        );
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
