//! The classical sequential allocation processes.
//!
//! These are the reference points of the paper's analysis:
//!
//! * [`DChoice`] — greedy d-choice [Azar et al.]: gap
//!   `log log m / log d + O(1)` above average, *independent of t*, for
//!   `d ≥ 2` (`d = 2` is two-choice). At `d = 1` it is random
//!   placement: gap `Θ(√(t log m / m))`, divergent in t. The paper cites
//!   this divergence (\[25\]) as why unbounded staleness would be fatal.
//! * [`OnePlusBeta`] — with probability β place two-choice, else random
//!   [Peres–Talwar–Wieder]: gap `O(log m / β)`. The analysis shows a
//!   good(γ) concurrent operation majorizes a (1+β) step with β = 2γ,
//!   which is how Theorem 6.1 inherits the O(log m) bound.
//!
//! Theorem 7.1's weighted setting — two-choice with Exp(1) increments,
//! the generalization MultiQueues need (the timestamp differences
//! between consecutive head elements are approximately exponential) —
//! is [`AsyncWeightedTwoChoice`](crate::AsyncWeightedTwoChoice); at
//! [`Schedule::Sequential`](crate::Schedule::Sequential) it is the
//! classical sequential process, draw for draw.

use dlz_core::rng::{Rng64, Xoshiro256};

use crate::bins::BinState;

/// Common driver interface for all allocation processes.
pub trait BallsProcess {
    /// Performs one insertion step.
    fn step(&mut self);

    /// The current bin state.
    fn bins(&self) -> &BinState;

    /// Number of steps performed.
    fn steps_done(&self) -> u64;

    /// Runs `k` steps.
    fn run(&mut self, k: u64) {
        for _ in 0..k {
            self.step();
        }
    }
}

macro_rules! common_impl {
    ($ty:ident) => {
        impl BallsProcess for $ty {
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
    };
}

/// Greedy d-choice: insert into the least loaded of `d` uniform bins.
#[derive(Debug, Clone)]
pub struct DChoice {
    bins: BinState,
    rng: Xoshiro256,
    steps: u64,
    d: usize,
}

impl DChoice {
    /// `m` bins, `d ≥ 1` choices, deterministic seed.
    pub fn new(m: usize, d: usize, seed: u64) -> Self {
        assert!(d >= 1, "need at least one choice");
        DChoice {
            bins: BinState::new(m),
            rng: Xoshiro256::new(seed),
            steps: 0,
            d,
        }
    }

    fn step_impl(&mut self) {
        let m = self.bins.len() as u64;
        let mut best = self.rng.bounded(m) as usize;
        for _ in 1..self.d {
            let k = self.rng.bounded(m) as usize;
            if self.bins.weight(k) < self.bins.weight(best) {
                best = k;
            }
        }
        self.bins.add(best, 1.0);
        self.steps += 1;
    }
}
common_impl!(DChoice);

/// The (1+β)-choice process: coin(β) → two-choice, else random.
#[derive(Debug, Clone)]
pub struct OnePlusBeta {
    bins: BinState,
    rng: Xoshiro256,
    steps: u64,
    beta: f64,
}

impl OnePlusBeta {
    /// `m` bins, mixing parameter `β ∈ [0, 1]`, deterministic seed.
    pub fn new(m: usize, beta: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&beta), "beta must be in [0,1]");
        OnePlusBeta {
            bins: BinState::new(m),
            rng: Xoshiro256::new(seed),
            steps: 0,
            beta,
        }
    }

    /// The mixing parameter.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    fn step_impl(&mut self) {
        let m = self.bins.len() as u64;
        let target = if self.rng.coin(self.beta) {
            let i = self.rng.bounded(m) as usize;
            let j = self.rng.bounded(m) as usize;
            if self.bins.weight(i) <= self.bins.weight(j) {
                i
            } else {
                j
            }
        } else {
            self.rng.bounded(m) as usize
        };
        self.bins.add(target, 1.0);
        self.steps += 1;
    }
}
common_impl!(OnePlusBeta);

/// The exact per-rank probability vector of the (1+β) process (Section
/// 6.2): `p_i = (1−β)/m + β·(2(m−i)+1)/m²` for the i-th *least* loaded
/// bin, i ∈ 1..=m.
pub fn one_plus_beta_probabilities(m: usize, beta: f64) -> Vec<f64> {
    (1..=m)
        .map(|i| (1.0 - beta) / m as f64 + beta * (2.0 * (m - i) as f64 + 1.0) / (m * m) as f64)
        .collect()
}

/// The per-rank probability vector of a good(γ) concurrent operation
/// (proof of Lemma 6.4): with probability ρ ≥ 1/2 + γ the op hits the
/// less loaded of its two choices; `p_i = ρ·2(m−i)/m² + 1/m² +
/// (1−ρ)·2(i−1)/m²`.
pub fn good_op_probabilities(m: usize, rho: f64) -> Vec<f64> {
    let m2 = (m * m) as f64;
    (1..=m)
        .map(|i| {
            rho * 2.0 * (m - i) as f64 / m2 + 1.0 / m2 + (1.0 - rho) * 2.0 * (i - 1) as f64 / m2
        })
        .collect()
}

/// Checks that `p` majorizes `q`: every prefix sum of `p` is ≥ the
/// corresponding prefix sum of `q` (both vectors ordered by bin rank,
/// least loaded first). This is the comparison Lemma 6.4 rests on.
pub fn majorizes(p: &[f64], q: &[f64]) -> bool {
    assert_eq!(p.len(), q.len());
    let mut sp = 0.0;
    let mut sq = 0.0;
    for (a, b) in p.iter().zip(q) {
        sp += a;
        sq += b;
        // Tolerate floating-point slop on the boundary.
        if sp + 1e-12 < sq {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_choice_gap_is_log_log_small() {
        let mut p = DChoice::new(128, 2, 1);
        p.run(500_000);
        assert_eq!(p.steps_done(), 500_000);
        assert_eq!(p.bins().total(), 500_000.0);
        // Theory: max − μ ≈ log2 log2 m + O(1) ≈ 3; full gap a bit more.
        assert!(p.bins().gap() <= 12.0, "gap {}", p.bins().gap());
    }

    #[test]
    fn single_choice_diverges_relative_to_two_choice() {
        let m = 64;
        let t = 400_000;
        let mut one = DChoice::new(m, 1, 2);
        let mut two = DChoice::new(m, 2, 2);
        one.run(t);
        two.run(t);
        assert!(
            one.bins().gap() >= 5.0 * two.bins().gap(),
            "single {} vs two {}",
            one.bins().gap(),
            two.bins().gap()
        );
    }

    #[test]
    fn more_choices_tighter_gap() {
        let m = 128;
        let t = 200_000;
        let mut d2 = DChoice::new(m, 2, 3);
        let mut d8 = DChoice::new(m, 8, 3);
        d2.run(t);
        d8.run(t);
        assert!(d8.bins().gap() <= d2.bins().gap() + 1.0);
    }

    #[test]
    fn one_plus_beta_interpolates() {
        let m = 64;
        let t = 200_000;
        let mut b0 = OnePlusBeta::new(m, 0.0, 4); // pure random
        let mut b5 = OnePlusBeta::new(m, 0.5, 4);
        let mut b1 = OnePlusBeta::new(m, 1.0, 4); // pure two-choice
        b0.run(t);
        b5.run(t);
        b1.run(t);
        assert!(b1.bins().gap() <= b5.bins().gap());
        assert!(b5.bins().gap() <= b0.bins().gap());
        assert!(b1.bins().gap() <= 12.0);
    }

    #[test]
    fn weighted_process_total_is_near_t() {
        use crate::{AsyncWeightedTwoChoice, Schedule};
        let mut w = AsyncWeightedTwoChoice::new(64, Schedule::Sequential, 5);
        w.run(100_000);
        // E[W] = 1, so total ≈ t within a few sigma (σ = √t).
        let total = w.bins().total();
        assert!((total - 100_000.0).abs() < 5.0 * (100_000.0f64).sqrt());
        // Gap O(log m) for the weighted process too.
        assert!(w.bins().gap() <= 40.0, "gap {}", w.bins().gap());
    }

    #[test]
    fn probability_vectors_sum_to_one() {
        for (m, beta) in [(8usize, 0.3), (64, 0.7), (128, 1.0)] {
            let q = one_plus_beta_probabilities(m, beta);
            assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        for (m, rho) in [(8usize, 0.5), (64, 0.7), (128, 1.0)] {
            let p = good_op_probabilities(m, rho);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lemma_6_4_majorization() {
        // A good(γ) op (ρ = 1/2 + γ) majorizes the (1+β) process with
        // β = 2γ — the exact claim proven in Lemma 6.4.
        for m in [4usize, 16, 64, 256] {
            for gamma in [0.05, 0.1, 0.2, 0.5] {
                let rho = 0.5 + gamma;
                let beta = 2.0 * gamma;
                let p = good_op_probabilities(m, rho);
                let q = one_plus_beta_probabilities(m, beta);
                assert!(
                    majorizes(&p, &q),
                    "majorization fails for m={m}, gamma={gamma}"
                );
            }
        }
    }

    #[test]
    fn majorization_fails_when_rho_too_small() {
        // Sanity: with ρ < 1/2 + β/2 the comparison must fail for some
        // prefix (the vectors cross).
        let m = 64;
        let p = good_op_probabilities(m, 0.5); // γ = 0
        let q = one_plus_beta_probabilities(m, 0.5); // β = 0.5 > 2γ
        assert!(!majorizes(&p, &q));
    }
}
