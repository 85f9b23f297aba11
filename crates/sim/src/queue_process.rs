//! The MultiQueue rank process (Section 7 / reference \[3\]).
//!
//! Balls labeled 0, 1, 2, ... are inserted sequentially into `m` bins
//! chosen uniformly at random; each bin is a FIFO of increasing labels
//! (a sequential priority queue). Removals take the lower-labeled of
//! two random bins' heads. The quality measure is the *rank* of the
//! removed label among all labels still present: 0 means the true
//! minimum was removed; Theorem 7.1 says the rank is O(m) in
//! expectation and O(m log m) w.h.p.
//!
//! [`QueueProcess`] implements the sequential process with exact rank
//! queries (Fenwick tree over the label space) and, mirroring
//! [`Rule::Async`](crate::Rule::Async), a *stale*
//! removal variant where the two heads are observed `s` removals in the
//! past — the concurrent MultiQueue's ReadMin staleness.

use std::collections::VecDeque;

use dlz_core::rng::{Rng64, Xoshiro256};

use crate::fenwick::Fenwick;

/// The sequential (optionally stale-read) MultiQueue process.
#[derive(Debug, Clone)]
pub struct QueueProcess {
    /// Each bin is a FIFO of labels in increasing order.
    bins: Vec<VecDeque<u64>>,
    /// Presence bitmap over labels, for O(log b) rank queries.
    present: Fenwick,
    /// Per-bin history of popped labels (needed for stale head lookup).
    pop_log: VecDeque<(u32, u64)>,
    /// Capacity of the pop log = max staleness supported.
    max_staleness: usize,
    next_label: u64,
    live: usize,
    rng: Xoshiro256,
}

impl QueueProcess {
    /// `m` bins; up to `capacity` insertions will ever be made; stale
    /// removals may look back at most `max_staleness` removals.
    ///
    /// # Panics
    /// If `m == 0`.
    pub fn new(m: usize, capacity: usize, max_staleness: usize, seed: u64) -> Self {
        assert!(m > 0, "need at least one bin");
        QueueProcess {
            bins: vec![VecDeque::new(); m],
            present: Fenwick::new(capacity),
            pop_log: VecDeque::with_capacity(max_staleness + 1),
            max_staleness,
            next_label: 0,
            live: 0,
            rng: Xoshiro256::new(seed),
        }
    }

    /// Number of elements currently present.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Inserts the next label into a uniformly random bin.
    ///
    /// # Panics
    /// If the configured capacity is exhausted.
    pub fn insert(&mut self) -> u64 {
        let label = self.next_label;
        assert!(
            (label as usize) < self.present.len(),
            "QueueProcess capacity exhausted"
        );
        self.next_label += 1;
        let m = self.bins.len() as u64;
        let b = self.rng.bounded(m) as usize;
        // Labels increase monotonically, so push_back keeps bins sorted.
        self.bins[b].push_back(label);
        self.present.add(label as usize, 1);
        self.live += 1;
        label
    }

    /// Head of bin `b` as observed `s` removals ago (`None` = empty then).
    fn stale_head(&self, b: usize, s: usize) -> Option<u64> {
        // If bin b had pops within the lookback window, its head at the
        // read point was the oldest such popped label; otherwise it is
        // the current head.
        let s = s.min(self.pop_log.len());
        for &(pb, label) in self.pop_log.iter().rev().take(s).rev() {
            if pb as usize == b {
                return Some(label);
            }
        }
        self.bins[b].front().copied()
    }

    /// Removes via two-choice on heads observed `s` removals ago and
    /// returns `(label, rank)` where `rank` counts the smaller labels
    /// still present at removal time. Returns `None` if both sampled
    /// bins appear empty (the caller may retry — matching the
    /// MultiQueue's redraw) or if the structure is empty.
    fn remove_stale(&mut self, s: usize) -> Option<(u64, usize)> {
        assert!(
            s <= self.max_staleness,
            "staleness {s} exceeds configured max {}",
            self.max_staleness
        );
        if self.live == 0 {
            return None;
        }
        let m = self.bins.len() as u64;
        let i = self.rng.bounded(m) as usize;
        let j = self.rng.bounded(m) as usize;
        let hi = self.stale_head(i, s);
        let hj = self.stale_head(j, s);
        let chosen = match (hi, hj) {
            (None, None) => return None,
            (Some(_), None) => i,
            (None, Some(_)) => j,
            (Some(a), Some(b)) => {
                if a <= b {
                    i
                } else {
                    j
                }
            }
        };
        // DeleteMin on the chosen bin's *current* head (as the real
        // structure would). The bin may have emptied since the stale
        // read; treat that like the MultiQueue does — retry.
        let label = self.bins[chosen].pop_front()?;
        let rank = self.present.prefix(label as usize) as usize;
        self.present.add(label as usize, -1);
        self.live -= 1;
        if self.max_staleness > 0 {
            self.pop_log.push_back((chosen as u32, label));
            if self.pop_log.len() > self.max_staleness {
                self.pop_log.pop_front();
            }
        }
        Some((label, rank))
    }

    /// Removes with retries until an element is returned (or the
    /// structure is empty): hides the redraw loop.
    pub fn remove_retrying(&mut self, s: usize) -> Option<(u64, usize)> {
        while self.live > 0 {
            if let Some(out) = self.remove_stale(s) {
                return Some(out);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_drain_returns_everything() {
        let mut p = QueueProcess::new(4, 1000, 0, 1);
        for _ in 0..1000 {
            p.insert();
        }
        assert_eq!(p.live(), 1000);
        let mut labels = Vec::new();
        while let Some((l, _)) = p.remove_retrying(0) {
            labels.push(l);
        }
        labels.sort_unstable();
        assert_eq!(labels, (0..1000u64).collect::<Vec<_>>());
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn ranks_are_zero_with_one_bin() {
        // m = 1: both choices see the single bin; removal is the true
        // minimum every time.
        let mut p = QueueProcess::new(1, 500, 0, 2);
        for _ in 0..500 {
            p.insert();
        }
        while let Some((_, rank)) = p.remove_retrying(0) {
            assert_eq!(rank, 0);
        }
    }

    #[test]
    fn sequential_rank_is_o_of_m() {
        // Theorem (from [3]): expected rank O(m). Prefill b = 100m,
        // remove half, check mean and max rank.
        let m = 16;
        let b = 100 * m;
        let mut p = QueueProcess::new(m, b, 0, 3);
        for _ in 0..b {
            p.insert();
        }
        let mut sum = 0usize;
        let mut max = 0usize;
        let removals = b / 2;
        for _ in 0..removals {
            let (_, rank) = p.remove_retrying(0).unwrap();
            sum += rank;
            max = max.max(rank);
        }
        let mean = sum as f64 / removals as f64;
        assert!(mean <= 2.0 * m as f64, "mean rank {mean}");
        // whp bound O(m log m); generous constant 4.
        let bound = 4.0 * (m as f64) * (m as f64).ln();
        assert!((max as f64) <= bound, "max rank {max} > {bound}");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn stale_heads_reconstruct_history() {
        let m = 4;
        let mut p = QueueProcess::new(m, 100, 10, 4);
        for _ in 0..50 {
            p.insert();
        }
        // Record heads before each removal, then validate stale_head.
        let heads_now: Vec<Option<u64>> = (0..m).map(|b| p.bins[b].front().copied()).collect();
        // staleness 0 == current heads
        for b in 0..m {
            assert_eq!(p.stale_head(b, 0), heads_now[b]);
        }
        // Do 5 removals; staleness 5 should reproduce the old heads for
        // bins that were popped, and current heads otherwise.
        let mut popped_bins = Vec::new();
        for _ in 0..5 {
            let before: Vec<_> = (0..m).map(|b| p.bins[b].front().copied()).collect();
            if let Some((label, _)) = p.remove_stale(0) {
                let b = (0..m)
                    .find(|&b| before[b] == Some(label))
                    .expect("popped label was some bin's head");
                popped_bins.push(b);
            }
        }
        for b in 0..m {
            let expect = heads_now[b];
            if popped_bins.contains(&b) || p.bins[b].front().copied() == expect {
                assert_eq!(p.stale_head(b, 5), expect, "bin {b}");
            }
        }
    }

    #[test]
    fn stale_removals_still_bounded_in_m_ge_cn_regime() {
        // Staleness n−1 = 7 with m = 64 = 8n: ranks stay O(m log m).
        let m = 64;
        let b = 50 * m;
        let mut p = QueueProcess::new(m, b, 8, 5);
        for _ in 0..b {
            p.insert();
        }
        let mut max = 0usize;
        for _ in 0..(b / 2) {
            let (_, rank) = p.remove_retrying(7).unwrap();
            max = max.max(rank);
        }
        let bound = 6.0 * (m as f64) * (m as f64).ln();
        assert!((max as f64) <= bound, "max rank {max} > {bound}");
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn capacity_overflow_panics() {
        let mut p = QueueProcess::new(2, 3, 0, 6);
        for _ in 0..4 {
            p.insert();
        }
    }

    #[test]
    #[should_panic(expected = "exceeds configured max")]
    fn excess_staleness_panics() {
        let mut p = QueueProcess::new(2, 10, 2, 7);
        p.insert();
        let _ = p.remove_stale(3);
    }
}
