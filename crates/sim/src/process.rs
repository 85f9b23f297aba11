//! The allocation process of the paper's analysis: one balls-into-bins
//! process, [`Allocation`], whose step is chosen by a [`Rule`].
//!
//! Section 6 proves Theorem 6.1 through a chain of processes, and each
//! link is one rule:
//!
//! * [`Rule::DChoice`] — greedy d-choice [Azar et al.]: gap
//!   `log log m / log d + O(1)` above average, *independent of t*, for
//!   `d ≥ 2` (`d = 2` is two-choice). At `d = 1` it is random
//!   placement: gap `Θ(√(t log m / m))`, divergent in t. The paper cites
//!   this divergence (\[25\]) as why unbounded staleness would be fatal.
//! * [`Rule::Async`] — the paper's concurrency model (Section 6.1). By
//!   the principle of deferred decisions, *"at the time when the update
//!   is scheduled, the thread generates two uniform random indices i
//!   and j, and is given values v_i and v_j for the two corresponding
//!   bins, read at previous (possibly different) points in time."* The
//!   oblivious adversary fixes, through a [`Schedule`], how many steps
//!   old those reads are (its contention ℓ). Historical values are
//!   reconstructed exactly from a ring of recent placements:
//!   `x_b(t−s) = x_b(t) − (weight placed into b during the last s
//!   steps)`.
//! * [`Rule::OnePlusBeta`] — with probability β place two-choice, else
//!   random [Peres–Talwar–Wieder]: gap `O(log m / β)`. Lemma 6.4 shows a
//!   good(γ) concurrent operation majorizes a (1+β) step with β = 2γ,
//!   which is how Theorem 6.1 inherits the O(log m) bound.
//! * [`Rule::Corrupted`] — the reduction at the heart of the proof
//!   (Section 6.3): Lemma 6.6 shows at most `n` of any `Cn` consecutive
//!   operations are bad, so it suffices that two-choice with an ε = 1/C
//!   fraction of steps inserting into the **more** loaded bin, in any
//!   order ([`CorruptionPattern`]), keeps an O(log m) gap.
//! * [`Rule::AsyncWeighted`] — Theorem 7.1's setting: stale reads and
//!   Exp(1) increments, the generalization MultiQueues need (the
//!   timestamp differences between consecutive head elements are
//!   approximately exponential). At [`Schedule::Sequential`] it is the
//!   classical weighted two-choice process, draw for draw.

use std::collections::VecDeque;

use dlz_core::rng::{Rng64, Xoshiro256};

use crate::bins::BinState;

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
        /// Batch size = number of threads `n ≥ 1`.
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
            Schedule::BatchStampede { n } | Schedule::RoundRobin { n } => n.saturating_sub(1),
            Schedule::UniformDelay { max } => max,
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

/// When the adversary corrupts a step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorruptionPattern {
    /// Each step independently corrupted with probability ε.
    Iid {
        /// Corruption probability ε ∈ [0, 1].
        eps: f64,
    },
    /// Deterministic bursts: in every window of `period` steps, the
    /// first `burst` are corrupted (the adversary schedules all its bad
    /// steps back-to-back — the worst case of Lemma 6.7).
    Burst {
        /// Window length (the paper's `Cn`), at least 1.
        period: u64,
        /// Corrupted steps per window (the paper's `n`), at most `period`.
        burst: u64,
    },
    /// Never corrupt (control).
    None,
}

impl CorruptionPattern {
    fn is_corrupted(&self, t: u64, rng: &mut impl Rng64) -> bool {
        match *self {
            CorruptionPattern::Iid { eps } => rng.coin(eps),
            CorruptionPattern::Burst { period, burst } => t % period < burst,
            CorruptionPattern::None => false,
        }
    }

    /// Long-run fraction of corrupted steps.
    pub fn rate(&self) -> f64 {
        match *self {
            CorruptionPattern::Iid { eps } => eps,
            CorruptionPattern::Burst { period, burst } => burst as f64 / period as f64,
            CorruptionPattern::None => 0.0,
        }
    }
}

/// What one step of an [`Allocation`] does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Insert into the least loaded of `d ≥ 1` uniform bins.
    DChoice {
        /// Number of choices.
        d: usize,
    },
    /// With probability β two-choice, else one uniform bin.
    OnePlusBeta {
        /// Mixing parameter β ∈ [0, 1].
        beta: f64,
    },
    /// Two-choice on bin values read as many steps ago as `schedule`
    /// says (Theorem 6.1).
    Async {
        /// The adversary's staleness schedule.
        schedule: Schedule,
    },
    /// [`Rule::Async`] with Exp(1) increments (Theorem 7.1).
    AsyncWeighted {
        /// The adversary's staleness schedule.
        schedule: Schedule,
    },
    /// Two-choice where a corrupted step inserts into the **more**
    /// loaded of its two choices.
    Corrupted {
        /// When the adversary corrupts a step.
        pattern: CorruptionPattern,
    },
}

impl Rule {
    /// How many past placements a step may need to look back over.
    fn window(&self) -> usize {
        match *self {
            Rule::Async { schedule } | Rule::AsyncWeighted { schedule } => schedule.max_staleness(),
            _ => 0,
        }
    }
}

/// The balls-into-bins process: `m` bins, a [`Rule`] and a seeded
/// generator.
#[derive(Debug, Clone)]
pub struct Allocation {
    bins: BinState,
    rng: Xoshiro256,
    rule: Rule,
    /// (bin, weight) of the most recent `rule.window()` placements,
    /// oldest first.
    recent: VecDeque<(u32, f64)>,
    steps: u64,
    wrong_choices: u64,
    corrupted_steps: u64,
}

impl Allocation {
    /// `m` bins under `rule`, deterministic seed.
    ///
    /// # Panics
    /// If `m == 0`, or a parameter of `rule` is out of range: `d = 0`,
    /// β or ε outside [0, 1], a `BatchStampede` of `n = 0`, a `Burst`
    /// of `period = 0` or with `burst > period`.
    pub fn new(m: usize, rule: Rule, seed: u64) -> Self {
        match rule {
            Rule::DChoice { d } => assert!(d >= 1, "d-choice needs d >= 1, got {d}"),
            Rule::OnePlusBeta { beta } => {
                assert!(
                    (0.0..=1.0).contains(&beta),
                    "beta must be in [0, 1], got {beta}"
                )
            }
            Rule::Async { schedule } | Rule::AsyncWeighted { schedule } => {
                if let Schedule::BatchStampede { n } = schedule {
                    assert!(n >= 1, "batch stampede needs n >= 1, got {n}");
                }
            }
            Rule::Corrupted { pattern } => match pattern {
                CorruptionPattern::Iid { eps } => {
                    assert!(
                        (0.0..=1.0).contains(&eps),
                        "eps must be in [0, 1], got {eps}"
                    )
                }
                CorruptionPattern::Burst { period, burst } => {
                    assert!(period >= 1, "burst period must be >= 1, got {period}");
                    assert!(burst <= period, "burst {burst} exceeds its period {period}");
                }
                CorruptionPattern::None => {}
            },
        }
        Allocation {
            bins: BinState::new(m),
            rng: Xoshiro256::new(seed),
            rule,
            recent: VecDeque::with_capacity(rule.window() + 1),
            steps: 0,
            wrong_choices: 0,
            corrupted_steps: 0,
        }
    }

    /// The rule in force.
    pub fn rule(&self) -> Rule {
        self.rule
    }

    /// The current bin state.
    pub fn bins(&self) -> &BinState {
        &self.bins
    }

    /// Number of steps performed.
    pub fn steps_done(&self) -> u64 {
        self.steps
    }

    /// How many steps inserted into the bin that was more loaded at
    /// update time than the step's other choice — the "wrong" choices
    /// staleness (or corruption) causes.
    pub fn wrong_choices(&self) -> u64 {
        self.wrong_choices
    }

    /// How many steps the [`CorruptionPattern`] corrupted.
    pub fn corrupted_steps(&self) -> u64 {
        self.corrupted_steps
    }

    /// Runs `k` steps.
    pub fn run(&mut self, k: u64) {
        for _ in 0..k {
            self.step();
        }
    }

    /// The weights bins `a` and `b` had `s` completed steps ago, read
    /// in one pass over the ring.
    pub(crate) fn stale_weights(&self, a: usize, b: usize, s: usize) -> (f64, f64) {
        let (mut placed_a, mut placed_b) = (0.0, 0.0);
        for &(x, w) in self.recent.iter().rev().take(s) {
            if x as usize == a {
                placed_a += w;
            }
            if x as usize == b {
                placed_b += w;
            }
        }
        (
            self.bins.weight(a) - placed_a,
            self.bins.weight(b) - placed_b,
        )
    }

    /// Performs one insertion step. Its draws come in a fixed order: the
    /// rule's own draw (β-coin, staleness or corruption), then the bin
    /// indices, then the Exp(1) weight.
    pub fn step(&mut self) {
        let m = self.bins.len() as u64;
        let (choices, s, corrupt) = match self.rule {
            Rule::DChoice { d } => (d, 0, false),
            Rule::OnePlusBeta { beta } => (if self.rng.coin(beta) { 2 } else { 1 }, 0, false),
            Rule::Async { schedule } | Rule::AsyncWeighted { schedule } => {
                (2, schedule.staleness(self.steps, &mut self.rng), false)
            }
            Rule::Corrupted { pattern } => (2, 0, pattern.is_corrupted(self.steps, &mut self.rng)),
        };
        // Deferred decisions: indices drawn now, values read s steps
        // ago; the lightest wins, ties to the earlier draw.
        let mut lo = self.rng.bounded(m) as usize;
        let mut hi = lo;
        for _ in 1..choices {
            let k = self.rng.bounded(m) as usize;
            let (vk, vlo) = self.stale_weights(k, lo, s);
            if vk < vlo {
                (lo, hi) = (k, lo);
            } else {
                hi = k;
            }
        }
        let (target, other) = if corrupt { (hi, lo) } else { (lo, hi) };
        self.corrupted_steps += corrupt as u64;
        if self.bins.weight(target) > self.bins.weight(other) {
            self.wrong_choices += 1;
        }
        let w = match self.rule {
            // Exp(1) by inversion.
            Rule::AsyncWeighted { .. } => -(1.0 - self.rng.uniform_f64()).ln(),
            _ => 1.0,
        };
        self.bins.add(target, w);
        let window = self.rule.window();
        if window > 0 {
            self.recent.push_back((target as u32, w));
            if self.recent.len() > window {
                self.recent.pop_front();
            }
        }
        self.steps += 1;
    }
}

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
        let mut p = Allocation::new(128, Rule::DChoice { d: 2 }, 1);
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
        let mut one = Allocation::new(m, Rule::DChoice { d: 1 }, 2);
        let mut two = Allocation::new(m, Rule::DChoice { d: 2 }, 2);
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
    fn weighted_process_total_is_near_t() {
        // Fresh reads; the stale-read case is
        // adversary::tests::weighted_async_total_tracks_t.
        let mut w = Allocation::new(
            64,
            Rule::AsyncWeighted {
                schedule: Schedule::Sequential,
            },
            5,
        );
        w.run(100_000);
        assert_eq!(w.steps_done(), 100_000);
        // E[W] = 1, so total ≈ t within a few sigma (σ = √t).
        let total = w.bins().total();
        assert!((total - 100_000.0).abs() < 5.0 * (100_000.0f64).sqrt());
        // Gap O(log m) for the weighted process too.
        assert!(w.bins().gap() <= 40.0, "gap {}", w.bins().gap());
    }

    #[test]
    fn more_choices_tighter_gap() {
        let m = 128;
        let t = 200_000;
        let mut d2 = Allocation::new(m, Rule::DChoice { d: 2 }, 3);
        let mut d8 = Allocation::new(m, Rule::DChoice { d: 8 }, 3);
        d2.run(t);
        d8.run(t);
        assert!(d8.bins().gap() <= d2.bins().gap() + 1.0);
    }

    #[test]
    fn one_plus_beta_interpolates() {
        let m = 64;
        let t = 200_000;
        let mut b0 = Allocation::new(m, Rule::OnePlusBeta { beta: 0.0 }, 4); // pure random
        let mut b5 = Allocation::new(m, Rule::OnePlusBeta { beta: 0.5 }, 4);
        let mut b1 = Allocation::new(m, Rule::OnePlusBeta { beta: 1.0 }, 4); // pure two-choice
        b0.run(t);
        b5.run(t);
        b1.run(t);
        assert!(b1.bins().gap() <= b5.bins().gap());
        assert!(b5.bins().gap() <= b0.bins().gap());
        assert!(b1.bins().gap() <= 12.0);
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

    #[test]
    fn out_of_range_rule_parameters_are_rejected_at_construction() {
        let beta = |beta| Rule::OnePlusBeta { beta };
        let stampede = |n| Schedule::BatchStampede { n };
        let burst = |period, burst| Rule::Corrupted {
            pattern: CorruptionPattern::Burst { period, burst },
        };
        let iid = |eps| Rule::Corrupted {
            pattern: CorruptionPattern::Iid { eps },
        };
        let message = |rule| {
            let panic = std::panic::catch_unwind(|| Allocation::new(8, rule, 1)).unwrap_err();
            *panic.downcast::<String>().unwrap()
        };
        assert_eq!(
            message(Rule::DChoice { d: 0 }),
            "d-choice needs d >= 1, got 0"
        );
        assert_eq!(message(beta(1.5)), "beta must be in [0, 1], got 1.5");
        assert_eq!(message(beta(-0.1)), "beta must be in [0, 1], got -0.1");
        let n0 = "batch stampede needs n >= 1, got 0";
        assert_eq!(
            message(Rule::Async {
                schedule: stampede(0)
            }),
            n0
        );
        assert_eq!(
            message(Rule::AsyncWeighted {
                schedule: stampede(0)
            }),
            n0
        );
        assert_eq!(message(burst(0, 0)), "burst period must be >= 1, got 0");
        assert_eq!(message(burst(4, 5)), "burst 5 exceeds its period 4");
        assert_eq!(message(iid(1.25)), "eps must be in [0, 1], got 1.25");
        assert_eq!(message(iid(f64::NAN)), "eps must be in [0, 1], got NaN");
        // The edges of each range are legal and step without a panic.
        let schedule = stampede(1);
        for rule in [
            beta(0.0),
            Rule::Async { schedule },
            burst(1, 1),
            burst(4, 0),
            iid(1.0),
        ] {
            Allocation::new(8, rule, 1).run(16);
        }
    }
}
