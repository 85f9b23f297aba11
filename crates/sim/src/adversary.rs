//! The asynchronous stale-read process under an oblivious adversary —
//! the paper's model of the concurrent MultiCounter (Section 6.1).
//!
//! The paper rephrases the concurrent process via the principle of
//! deferred decisions: *"at the time when the update is scheduled, the
//! thread generates two uniform random indices i and j, and is given
//! values v_i and v_j for the two corresponding bins, read at previous
//! (possibly different) points in time."* The adversary fixes, for each
//! operation, how far in the past those reads happened (its contention
//! ℓ); the only constraint is that at most `n` operations are active at
//! once, so staleness within a schedule is bounded by a function of
//! `n`.
//!
//! [`AsyncTwoChoice`] implements exactly that: each step draws fresh
//! indices, looks up the bins' values *s steps ago* (s chosen by the
//! [`Schedule`]), and increments the apparent minimum. Historical
//! values are reconstructed exactly from a ring buffer of recent
//! placements — `x_b(t−s) = x_b(t) − (# placements into b during the
//! last s steps)`.

use std::collections::VecDeque;

use dlz_core::rng::{Rng64, Xoshiro256};

use crate::bins::BinState;
use crate::process::BallsProcess;

/// How the oblivious adversary delays updates relative to reads.
///
/// Staleness is measured in completed update steps between an
/// operation's reads and its update — the paper's contention ℓ.
/// An oblivious adversary cannot react to coin flips, so any *fixed or
/// independently randomized* staleness sequence is a legal schedule;
/// these are the named ones used in the paper and the benchmarks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// No concurrency: reads happen at update time (classical process).
    Sequential,
    /// The paper's worst-case illustration: batches of `n` threads all
    /// read simultaneously, then update one after another. The k-th
    /// updater of a batch acts on information k steps old.
    BatchStampede {
        /// Batch size = number of threads `n`.
        n: usize,
    },
    /// Every operation's staleness drawn uniformly from `0..=max`.
    UniformDelay {
        /// Maximum staleness.
        max: usize,
    },
    /// Steady-state pipeline of `n` threads: every operation acts on
    /// information exactly `n − 1` steps old.
    RoundRobin {
        /// Number of threads.
        n: usize,
    },
}

impl Schedule {
    /// Upper bound on staleness this schedule can produce.
    pub fn max_staleness(&self) -> usize {
        match *self {
            Schedule::Sequential => 0,
            Schedule::BatchStampede { n } => n.saturating_sub(1),
            Schedule::UniformDelay { max } => max,
            Schedule::RoundRobin { n } => n.saturating_sub(1),
        }
    }

    /// Staleness of the `t`-th operation.
    fn staleness(&self, t: u64, rng: &mut impl Rng64) -> usize {
        match *self {
            Schedule::Sequential => 0,
            Schedule::BatchStampede { n } => (t % n as u64) as usize,
            Schedule::UniformDelay { max } => rng.bounded(max as u64 + 1) as usize,
            Schedule::RoundRobin { n } => n.saturating_sub(1),
        }
    }
}

/// The asynchronous two-choice process of Theorem 6.1.
#[derive(Debug, Clone)]
pub struct AsyncTwoChoice {
    bins: BinState,
    rng: Xoshiro256,
    schedule: Schedule,
    /// Bin indices of the most recent `max_staleness` placements,
    /// oldest first.
    recent: VecDeque<u32>,
    steps: u64,
    /// Steps on which the operation picked the bin that was *actually*
    /// more loaded at update time (a "wrong" choice caused by staleness)
    wrong_choices: u64,
}

impl AsyncTwoChoice {
    /// `m` bins under `schedule`, deterministic seed.
    pub fn new(m: usize, schedule: Schedule, seed: u64) -> Self {
        AsyncTwoChoice {
            bins: BinState::new(m),
            rng: Xoshiro256::new(seed),
            schedule,
            recent: VecDeque::with_capacity(schedule.max_staleness() + 1),
            steps: 0,
            wrong_choices: 0,
        }
    }

    /// The schedule in force.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// How many updates inserted into the bin that was more loaded at
    /// update time — the "corrupted" steps of the analysis.
    pub fn wrong_choices(&self) -> u64 {
        self.wrong_choices
    }

    /// The weight bin `b` had `s` completed steps ago.
    fn stale_weight(&self, b: usize, s: usize) -> f64 {
        let recent_hits = self
            .recent
            .iter()
            .rev()
            .take(s)
            .filter(|&&x| x as usize == b)
            .count();
        self.bins.weight(b) - recent_hits as f64
    }

    fn step_impl(&mut self) {
        let m = self.bins.len() as u64;
        let s = self.schedule.staleness(self.steps, &mut self.rng);
        // Deferred decisions: indices drawn now, values read s steps ago.
        let i = self.rng.bounded(m) as usize;
        let j = self.rng.bounded(m) as usize;
        let vi = self.stale_weight(i, s);
        let vj = self.stale_weight(j, s);
        let target = if vi <= vj { i } else { j };
        // Bookkeeping for the analysis: was that the wrong bin *now*?
        let other = if target == i { j } else { i };
        if self.bins.weight(target) > self.bins.weight(other) {
            self.wrong_choices += 1;
        }
        self.bins.add(target, 1.0);
        let cap = self.schedule.max_staleness();
        if cap > 0 {
            self.recent.push_back(target as u32);
            if self.recent.len() > cap {
                self.recent.pop_front();
            }
        }
        self.steps += 1;
    }
}

impl BallsProcess for AsyncTwoChoice {
    fn step(&mut self) {
        self.step_impl();
    }

    fn bins(&self) -> &BinState {
        &self.bins
    }

    fn steps_done(&self) -> u64 {
        self.steps
    }
}

/// The asynchronous **weighted** two-choice process: stale reads *and*
/// Exp(1) increments — the exact setting of Theorem 7.1, where the
/// MultiQueue's timestamp gaps between consecutive head elements are
/// modeled as exponential weights.
#[derive(Debug, Clone)]
pub struct AsyncWeightedTwoChoice {
    bins: BinState,
    rng: Xoshiro256,
    schedule: Schedule,
    /// (bin, weight) of the most recent placements, oldest first.
    recent: VecDeque<(u32, f64)>,
    steps: u64,
}

impl AsyncWeightedTwoChoice {
    /// `m` bins under `schedule`, deterministic seed.
    pub fn new(m: usize, schedule: Schedule, seed: u64) -> Self {
        AsyncWeightedTwoChoice {
            bins: BinState::new(m),
            rng: Xoshiro256::new(seed),
            schedule,
            recent: VecDeque::with_capacity(schedule.max_staleness() + 1),
            steps: 0,
        }
    }

    /// The schedule in force.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// The weight bin `b` had `s` completed steps ago.
    fn stale_weight(&self, b: usize, s: usize) -> f64 {
        let recent_weight: f64 = self
            .recent
            .iter()
            .rev()
            .take(s)
            .filter(|&&(x, _)| x as usize == b)
            .map(|&(_, w)| w)
            .sum();
        self.bins.weight(b) - recent_weight
    }

    fn step_impl(&mut self) {
        let m = self.bins.len() as u64;
        let s = self.schedule.staleness(self.steps, &mut self.rng);
        let i = self.rng.bounded(m) as usize;
        let j = self.rng.bounded(m) as usize;
        let vi = self.stale_weight(i, s);
        let vj = self.stale_weight(j, s);
        let target = if vi <= vj { i } else { j };
        // Exp(1) by inversion.
        let w = -(1.0 - self.rng.uniform_f64()).ln();
        self.bins.add(target, w);
        let cap = self.schedule.max_staleness();
        if cap > 0 {
            self.recent.push_back((target as u32, w));
            if self.recent.len() > cap {
                self.recent.pop_front();
            }
        }
        self.steps += 1;
    }
}

impl BallsProcess for AsyncWeightedTwoChoice {
    fn step(&mut self) {
        self.step_impl();
    }

    fn bins(&self) -> &BinState {
        &self.bins
    }

    fn steps_done(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_schedule_matches_classic_two_choice() {
        use crate::process::DChoice;
        // With staleness 0 the async process *is* the classic process:
        // same seed → identical trajectories.
        let mut a = AsyncTwoChoice::new(32, Schedule::Sequential, 9);
        let mut c = DChoice::new(32, 2, 9);
        a.run(50_000);
        c.run(50_000);
        assert_eq!(a.bins().weights(), c.bins().weights());
        assert_eq!(a.wrong_choices(), 0);
    }

    #[test]
    fn sequential_weighted_schedule_matches_classic_weighted_two_choice() {
        // Staleness 0 draws nothing extra: the async weighted process is
        // the classic one, draw for draw — two uniform bins, the lighter
        // one (ties to the first) gets an Exp(1) weight by inversion.
        for seed in 0..4 {
            let mut a = AsyncWeightedTwoChoice::new(64, Schedule::Sequential, seed);
            a.run(200_000);
            let (mut bins, mut rng) = (BinState::new(64), Xoshiro256::new(seed));
            for _ in 0..200_000 {
                let i = rng.bounded(64) as usize;
                let j = rng.bounded(64) as usize;
                let target = if bins.weight(i) <= bins.weight(j) {
                    i
                } else {
                    j
                };
                bins.add(target, -(1.0 - rng.uniform_f64()).ln());
            }
            assert_eq!(a.bins().weights(), bins.weights(), "seed {seed}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn stale_weight_reconstruction_is_exact() {
        // Brute-force check: replay the process and compare stale values
        // against an explicitly stored history of snapshots.
        let m = 8;
        let sched = Schedule::RoundRobin { n: 5 };
        let mut p = AsyncTwoChoice::new(m, sched, 3);
        let mut snapshots: Vec<Vec<f64>> = vec![p.bins().weights().to_vec()];
        for _ in 0..2_000 {
            p.step();
            snapshots.push(p.bins().weights().to_vec());
        }
        // After t steps, stale_weight(b, s) must equal snapshot[t - s][b]
        let t = snapshots.len() - 1;
        for s in 0..=4usize {
            for b in 0..m {
                assert_eq!(
                    p.stale_weight(b, s),
                    snapshots[t - s][b],
                    "bin {b} staleness {s}"
                );
            }
        }
    }

    #[test]
    fn gap_stays_logarithmic_with_m_ge_cn() {
        // Theorem 6.1 regime: m = 8·n. Gap should stay O(log m) even
        // under the stampede schedule.
        let n = 8;
        let m = 64;
        let mut p = AsyncTwoChoice::new(m, Schedule::BatchStampede { n }, 7);
        p.run(500_000);
        assert!(
            p.bins().gap() <= 4.0 * (m as f64).ln(),
            "gap {} too large",
            p.bins().gap()
        );
    }

    #[test]
    fn staleness_produces_wrong_choices() {
        // With heavy staleness, some updates must land on the currently
        // more loaded bin — the phenomenon Section 6.1 discusses.
        let mut p = AsyncTwoChoice::new(16, Schedule::UniformDelay { max: 64 }, 5);
        p.run(100_000);
        assert!(p.wrong_choices() > 0);
        // ...but still a small fraction at this staleness/bin ratio.
        assert!((p.wrong_choices() as f64) < 0.5 * 100_000.0);
    }

    #[test]
    fn more_staleness_means_worse_balance() {
        let run = |sched| {
            let mut p = AsyncTwoChoice::new(32, sched, 11);
            p.run(300_000);
            p.bins().gap()
        };
        let g0 = run(Schedule::Sequential);
        let g_heavy = run(Schedule::UniformDelay { max: 512 });
        assert!(
            g_heavy >= g0,
            "staleness should not improve balance: {g0} vs {g_heavy}"
        );
    }

    #[test]
    fn weighted_async_total_tracks_t() {
        let mut p = AsyncWeightedTwoChoice::new(64, Schedule::BatchStampede { n: 8 }, 13);
        p.run(100_000);
        // E[W] = 1: total within a few σ = √t of t.
        assert!((p.bins().total() - 100_000.0).abs() < 5.0 * (100_000f64).sqrt());
        assert_eq!(p.steps_done(), 100_000);
    }

    #[test]
    fn weighted_async_gap_bounded_in_regime() {
        // Theorem 7.1's setting: m = 8n, exponential weights, stale
        // reads. The potential argument gives gap O(log m) again
        // (weighted constants are larger — allow slack).
        let m = 64;
        let mut p = AsyncWeightedTwoChoice::new(m, Schedule::BatchStampede { n: 8 }, 7);
        p.run(400_000);
        assert!(
            p.bins().gap() <= 10.0 * (m as f64).ln(),
            "weighted gap {} too large",
            p.bins().gap()
        );
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn weighted_stale_reconstruction_consistent() {
        let m = 8;
        let sched = Schedule::RoundRobin { n: 4 };
        let mut p = AsyncWeightedTwoChoice::new(m, sched, 3);
        let mut snapshots: Vec<Vec<f64>> = vec![p.bins().weights().to_vec()];
        for _ in 0..500 {
            p.step();
            snapshots.push(p.bins().weights().to_vec());
        }
        let t = snapshots.len() - 1;
        for s in 0..=3usize {
            for b in 0..m {
                let got = p.stale_weight(b, s);
                let want = snapshots[t - s][b];
                assert!(
                    (got - want).abs() < 1e-9,
                    "bin {b} staleness {s}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn max_staleness_accessor() {
        assert_eq!(Schedule::Sequential.max_staleness(), 0);
        assert_eq!(Schedule::BatchStampede { n: 8 }.max_staleness(), 7);
        assert_eq!(Schedule::UniformDelay { max: 3 }.max_staleness(), 3);
        assert_eq!(Schedule::RoundRobin { n: 4 }.max_staleness(), 3);
    }
}
