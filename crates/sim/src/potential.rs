//! Potential-function tracking and the paper's analysis constants.
//!
//! The proof of Theorem 6.1 tracks Γ(t) = Φ(t) + Ψ(t) with
//! Φ = Σ exp(α·y_i), Ψ = Σ exp(−α·y_i) and shows E[Γ(t)] ≤ e²·(8c/α)·m
//! for all t (Lemma 6.7). [`PotentialTrace`] samples Γ along a process
//! run so tests and benches can verify the O(m) ceiling empirically;
//! [`PaperConstants`] packages the constants chain of Section 6.3
//! (γ → β → ε → α, and the threshold C).

use crate::process::Allocation;

/// The constant chain of the paper's analysis, derived from the
/// good-operation bias γ.
///
/// * Lemma 6.3: operations with contention ≤ Cn are good(γ) with
///   γ = 1/5.
/// * Lemma 6.4: a good(γ) op majorizes the (1+β) process with β = 2γ,
///   and applies Theorem 2.9 of \[25\] with ε = β/12 = γ/6.
/// * Lemma 6.5 fixes λ = 1, S = 1 and α = min(λ/2, ε/(6S)).
/// * Lemma 6.7 needs C ≥ 1 + 36/ε (the paper quotes C ≥ 1024,
///   m ≥ 4096·n as a sufficient setting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperConstants {
    /// Good-operation bias γ.
    pub gamma: f64,
    /// (1+β) mixing parameter β = 2γ.
    pub beta: f64,
    /// Drift parameter ε = β/12 = γ/6.
    pub eps: f64,
    /// Potential exponent α = min(1/2, ε/6).
    pub alpha: f64,
    /// Ratio threshold C ≥ 1 + 36/ε from Lemma 6.7.
    pub c_threshold: f64,
}

impl PaperConstants {
    /// Derives all constants from γ.
    ///
    /// # Panics
    /// If γ ∉ (0, 1/2].
    pub fn from_gamma(gamma: f64) -> Self {
        assert!(
            gamma > 0.0 && gamma <= 0.5,
            "gamma must be in (0, 1/2], got {gamma}"
        );
        let beta = 2.0 * gamma;
        let eps = beta / 12.0;
        let alpha = (0.5f64).min(eps / 6.0);
        let c_threshold = 1.0 + 36.0 / eps;
        PaperConstants {
            gamma,
            beta,
            eps,
            alpha,
            c_threshold,
        }
    }

    /// The paper's instantiation: γ = 1/5 from Lemma 6.3.
    pub fn lemma_6_3() -> Self {
        Self::from_gamma(0.2)
    }
}

/// Samples Γ(t) (and the gap) every `sample_every` steps of a process.
#[derive(Debug, Clone)]
pub struct PotentialTrace {
    /// Potential exponent α.
    pub alpha: f64,
    /// Sampling period in steps.
    pub sample_every: u64,
    /// (step, Γ(step)) samples.
    pub gamma: Vec<(u64, f64)>,
    /// (step, gap(step)) samples.
    pub gap: Vec<(u64, f64)>,
}

impl PotentialTrace {
    /// Creates an empty trace.
    pub fn new(alpha: f64, sample_every: u64) -> Self {
        assert!(sample_every > 0, "sampling period must be positive");
        PotentialTrace {
            alpha,
            sample_every,
            gamma: Vec::new(),
            gap: Vec::new(),
        }
    }

    /// Runs `process` for `steps` steps, sampling along the way
    /// (including a final sample at the end).
    pub fn run(&mut self, process: &mut Allocation, steps: u64) {
        let mut done = 0;
        while done < steps {
            let chunk = self.sample_every.min(steps - done);
            process.run(chunk);
            done += chunk;
            let t = process.steps_done();
            self.gamma.push((t, process.bins().gamma(self.alpha)));
            self.gap.push((t, process.bins().gap()));
        }
    }

    /// Largest sampled Γ.
    pub fn max_gamma(&self) -> f64 {
        self.gamma.iter().map(|&(_, g)| g).fold(0.0, f64::max)
    }

    /// Mean sampled Γ.
    pub fn mean_gamma(&self) -> f64 {
        if self.gamma.is_empty() {
            return 0.0;
        }
        self.gamma.iter().map(|&(_, g)| g).sum::<f64>() / self.gamma.len() as f64
    }

    /// Largest sampled gap.
    pub fn max_gap(&self) -> f64 {
        self.gap.iter().map(|&(_, g)| g).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Rule;

    #[test]
    fn constants_chain_matches_paper() {
        let c = PaperConstants::lemma_6_3();
        assert!((c.gamma - 0.2).abs() < 1e-12);
        assert!((c.beta - 0.4).abs() < 1e-12);
        assert!((c.eps - 0.4 / 12.0).abs() < 1e-12);
        assert!((c.alpha - (0.4 / 12.0) / 6.0).abs() < 1e-12);
        // C ≥ 1 + 36/ε = 1 + 36·30 = 1081 — same magnitude as the
        // paper's quoted sufficient constant 1024.
        assert!((c.c_threshold - 1081.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "gamma must be in")]
    fn bad_gamma_rejected() {
        let _ = PaperConstants::from_gamma(0.0);
    }

    #[test]
    fn gamma_stays_linear_in_m_for_two_choice() {
        // Lemma 6.7's conclusion, checked empirically on the sequential
        // process: sup_t Γ(t) = O(m). With α = 0.5 and two-choice, the
        // constant is small; allow 10·m + slack.
        let m = 128;
        let mut p = Allocation::new(m, Rule::DChoice { d: 2 }, 3);
        let mut trace = PotentialTrace::new(0.5, 10_000);
        trace.run(&mut p, 500_000);
        assert_eq!(p.steps_done(), 500_000);
        assert!(
            trace.max_gamma() <= 10.0 * m as f64,
            "max Γ {} not O(m)",
            trace.max_gamma()
        );
        assert!(trace.mean_gamma() >= 2.0 * m as f64 * 0.5); // Γ ≥ ~2m at balance... loose floor
    }

    #[test]
    fn trace_samples_at_requested_cadence() {
        let mut p = Allocation::new(8, Rule::DChoice { d: 2 }, 4);
        let mut trace = PotentialTrace::new(0.25, 100);
        trace.run(&mut p, 1000);
        assert_eq!(trace.gamma.len(), 10);
        assert_eq!(trace.gamma.last().unwrap().0, 1000);
        assert_eq!(trace.gap.len(), 10);
        assert!(trace.max_gap() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sampling_period_rejected() {
        let _ = PotentialTrace::new(0.5, 0);
    }
}
