//! Quantitative relaxations: the completed LTS with transition costs.
//!
//! Steps 1–2 of the paper's construction (Section 5): complete the LTS
//! so every method is enabled in every state, and attach a cost that is
//! zero exactly on the legal transitions. The judge reads the per-step
//! costs themselves, so no path cost (step 3) is accumulated. Step 4
//! (the probability distribution on costs) is *empirical* in this
//! crate: see [`CostDistribution`] and the
//! [`checker`](crate::spec::checker).

use crate::spec::lts::SequentialSpec;

/// A completed, cost-annotated LTS (`LTSc(S)` plus `cost`) over the
/// states, labels and initial state of its [`SequentialSpec`].
///
/// Laws (checked by the property tests in this module and relied on by
/// the checker):
///
/// * `apply` is total — completion means every label is enabled.
/// * `apply(q, l).1 == 0.0` **iff** the underlying spec allows `q →l`.
/// * Costs are non-negative.
pub trait QuantitativeRelaxation: SequentialSpec {
    /// Applies `label` unconditionally in place, returning the
    /// transition cost (0 iff legal in the base specification). The
    /// checker replays long histories through this.
    fn apply_mut(&self, state: &mut Self::State, label: &Self::Label) -> f64;

    /// By-value form of [`apply_mut`](Self::apply_mut): the successor
    /// state and the transition cost.
    fn apply(&self, state: &Self::State, label: &Self::Label) -> (Self::State, f64) {
        let mut next = state.clone();
        let cost = self.apply_mut(&mut next, label);
        (next, cost)
    }
}

/// Empirical distribution of per-step costs (step 4 of the paper's
/// construction, measured on a concrete execution).
#[derive(Debug, Clone, Default)]
pub struct CostDistribution {
    samples: Vec<f64>,
}

impl CostDistribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from raw samples.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        CostDistribution { samples }
    }

    /// Records one cost sample.
    pub fn push(&mut self, cost: f64) {
        self.samples.push(cost);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().cloned().fold(0.0, f64::max)
    }

    /// The q-quantile (0 ≤ q ≤ 1) by nearest-rank; 0 if empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("costs are finite"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Fraction of samples strictly above `threshold` — the empirical
    /// tail `P(cost > threshold)` that the paper's w.h.p. bounds cap.
    pub fn tail_mass(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|&&c| c > threshold).count() as f64 / self.samples.len() as f64
    }

    /// Raw samples (read-only).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &CostDistribution) {
        self.samples.extend_from_slice(&other.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    enum Op {
        Put(u64),
        Get(u64),
    }

    /// An exact FIFO completed by depth: a get that does not return the
    /// first element costs how deep the returned one was.
    struct Depth;

    impl SequentialSpec for Depth {
        type State = Vec<u64>;
        type Label = Op;

        fn initial(&self) -> Vec<u64> {
            Vec::new()
        }

        fn step(&self, s: &Vec<u64>, l: &Op) -> Option<Vec<u64>> {
            let mut s = s.clone();
            match *l {
                Op::Put(v) => s.push(v),
                Op::Get(v) if s.first() == Some(&v) => {
                    s.remove(0);
                }
                Op::Get(_) => return None,
            }
            Some(s)
        }
    }

    impl QuantitativeRelaxation for Depth {
        fn apply_mut(&self, s: &mut Vec<u64>, l: &Op) -> f64 {
            match *l {
                Op::Put(v) => {
                    s.push(v);
                    0.0
                }
                Op::Get(v) => match s.iter().position(|&x| x == v) {
                    Some(p) => {
                        s.remove(p);
                        p as f64
                    }
                    None => f64::INFINITY,
                },
            }
        }
    }

    /// The per-step costs of a label path, through `apply_mut`.
    fn costs(labels: &[Op]) -> Vec<f64> {
        let mut state = Depth.initial();
        labels
            .iter()
            .map(|l| Depth.apply_mut(&mut state, l))
            .collect()
    }

    #[test]
    fn legal_transitions_cost_zero() {
        let path = [Op::Put(1), Op::Put(2), Op::Get(1), Op::Get(2)];
        assert_eq!(costs(&path), vec![0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn illegal_transitions_cost_positive() {
        let path = [Op::Put(1), Op::Put(2), Op::Get(2), Op::Get(1), Op::Get(1)];
        assert_eq!(costs(&path)[..4], [0.0, 0.0, 1.0, 0.0]);
        assert!(costs(&path)[4].is_infinite(), "an absent element");
    }

    #[test]
    fn distribution_summary() {
        let d = CostDistribution::from_samples(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.len(), 5);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        assert_eq!(d.max(), 4.0);
        assert_eq!(d.quantile(0.5), 2.0);
        assert_eq!(d.quantile(1.0), 4.0);
        assert!((d.tail_mass(2.5) - 0.4).abs() < 1e-12);
        assert_eq!(d.tail_mass(100.0), 0.0);
    }

    #[test]
    fn distribution_quantiles_by_nearest_rank() {
        let d = CostDistribution::from_samples((1..=100).rev().map(|i| i as f64).collect());
        assert_eq!(d.len(), 100);
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(0.5), 50.0);
        assert_eq!(d.quantile(0.99), 99.0);
        assert_eq!(d.quantile(1.0), 100.0);
        assert_eq!(d.max(), 100.0);
        assert!((d.mean() - 50.5).abs() < 1e-12);
        assert!((d.tail_mass(90.0) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn distribution_edge_cases() {
        let d = CostDistribution::new();
        assert!(d.is_empty());
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.max(), 0.0);
        assert_eq!(d.quantile(0.9), 0.0);
        assert_eq!(d.tail_mass(0.0), 0.0);
        let mut a = CostDistribution::from_samples(vec![1.0]);
        a.merge(&CostDistribution::from_samples(vec![3.0]));
        assert_eq!(a.len(), 2);
        assert_eq!(a.max(), 3.0);
    }
}
