//! Declarative sweep grids — the paper's curves as one artifact.
//!
//! The paper's claims are functions, not points: throughput and rank
//! cost *versus* thread count, skew and choice policy. A [`SweepSpec`]
//! holds a base [`Scenario`] plus a list of axes (threads, choice
//! policy, op mix, key/priority skew, client population and arrival
//! shape, seed) and expands
//! the cartesian grid into concrete [`SweepCell`]s, each naming its
//! grid coordinates (`queue-balanced/t=8/policy=sticky(s=16)`).
//! [`engine::run_sweep`](crate::engine::run_sweep) executes the cells
//! and returns per-cell [`RunReport`](crate::RunReport)s with the
//! coordinates embedded, so one JSON array covers the whole grid.
//!
//! An axis left empty does not vary: the base scenario's value is used
//! and no coordinate is recorded. A spec with every axis empty is the
//! 1×1 grid — the single-run path is just a degenerate sweep.
//!
//! # Example
//!
//! ```
//! use dlz_core::PolicyCfg;
//! use dlz_workload::{Budget, Family, OpMix, Scenario, SweepSpec};
//!
//! let base = Scenario::builder("queue-balanced", Family::Queue)
//!     .budget(Budget::OpsPerWorker(1_000))
//!     .mix(OpMix::new(50, 50, 0))
//!     .build();
//! let spec = SweepSpec::new(base)
//!     .threads(&[2, 4, 8])
//!     .policies(&[PolicyCfg::TwoChoice, PolicyCfg::Sticky { ops: 16 }]);
//! let cells = spec.cells();
//! assert_eq!(cells.len(), 6);
//! assert_eq!(cells[0].name, "queue-balanced/t=2/policy=two-choice");
//! assert_eq!(cells[0].scenario.threads, 2);
//! ```

use dlz_core::PolicyCfg;

use crate::clients::ArrivalShape;
use crate::dist::Dist;
use crate::op::OpMix;
use crate::scenario::Scenario;

/// Display (and grid-key) order of the axes. Expansion nests in a
/// fixed outer→inner order (seed, shape, clients, keys, priorities,
/// mix, policy, threads — threads varies fastest), but cell names and
/// grid coordinates always list axes in this order.
const AXIS_ORDER: [&str; 8] = [
    "t", "policy", "mix", "keys", "prio", "clients", "shape", "seed",
];

/// A base scenario plus the axes to sweep. Empty axes do not vary.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    base: Scenario,
    threads: Vec<usize>,
    policies: Vec<PolicyCfg>,
    mixes: Vec<OpMix>,
    keys: Vec<Dist>,
    priorities: Vec<Dist>,
    clients: Vec<usize>,
    shapes: Vec<ArrivalShape>,
    seeds: Vec<u64>,
}

/// One concrete point of an expanded sweep grid.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Cell name: the base scenario name plus one `axis=value` segment
    /// per swept axis, e.g. `queue-balanced/t=8/policy=sticky(s=16)`.
    pub name: String,
    /// The swept coordinates as `(axis, value-label)` pairs, in the
    /// fixed display order (`t`, `policy`, `mix`, `keys`, `prio`,
    /// `clients`, `shape`, `seed`); empty for a 1×1 grid.
    pub coords: Vec<(String, String)>,
    /// The fully concrete scenario for this cell (base values with the
    /// cell's coordinates applied; the name stays the base name).
    pub scenario: Scenario,
}

impl SweepSpec {
    /// A sweep over `base` with no axes yet (a 1×1 grid).
    pub fn new(base: Scenario) -> Self {
        SweepSpec {
            base,
            threads: Vec::new(),
            policies: Vec::new(),
            mixes: Vec::new(),
            keys: Vec::new(),
            priorities: Vec::new(),
            clients: Vec::new(),
            shapes: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// The base scenario the axes are applied to.
    pub fn base(&self) -> &Scenario {
        &self.base
    }

    /// Sweep the worker-thread count (`t=` coordinate).
    ///
    /// # Panics
    /// If any value is zero — the grid coordinate must describe what
    /// actually runs, so invalid counts are rejected, not clamped.
    pub fn threads(mut self, values: &[usize]) -> Self {
        assert!(
            values.iter().all(|&v| v >= 1),
            "sweep threads values must be >= 1, got {values:?}"
        );
        self.threads = values.to_vec();
        self
    }

    /// Sweep the choice policy (`policy=` coordinate; queue backends).
    pub fn policies(mut self, values: &[PolicyCfg]) -> Self {
        self.policies = values.to_vec();
        self
    }

    /// Sweep the operation mix (`mix=` coordinate).
    pub fn mixes(mut self, values: &[OpMix]) -> Self {
        self.mixes = values.to_vec();
        self
    }

    /// Sweep the key distribution (`keys=` coordinate — skew axis).
    pub fn keys(mut self, values: &[Dist]) -> Self {
        self.keys = values.to_vec();
        self
    }

    /// Sweep the priority distribution (`prio=` coordinate — skew axis).
    pub fn priorities(mut self, values: &[Dist]) -> Self {
        self.priorities = values.to_vec();
        self
    }

    /// Sweep the simulated-client population (`clients=` coordinate).
    /// `0` means the plain per-worker driver (no client frontend).
    pub fn clients(mut self, values: &[usize]) -> Self {
        self.clients = values.to_vec();
        self
    }

    /// Sweep the per-client arrival shape (`shape=` coordinate; only
    /// meaningful for cells with `clients > 0`).
    pub fn arrival_shapes(mut self, values: &[ArrivalShape]) -> Self {
        self.shapes = values.to_vec();
        self
    }

    /// Sweep the base RNG seed (`seed=` coordinate — repetitions or
    /// accumulating checkpoints).
    pub fn seeds(mut self, values: &[u64]) -> Self {
        self.seeds = values.to_vec();
        self
    }

    /// Number of cells the grid expands to (product of non-empty axes).
    pub fn len(&self) -> usize {
        [
            self.threads.len(),
            self.policies.len(),
            self.mixes.len(),
            self.keys.len(),
            self.priorities.len(),
            self.clients.len(),
            self.shapes.len(),
            self.seeds.len(),
        ]
        .iter()
        .map(|&n| n.max(1))
        .product()
    }

    /// `true` only for the degenerate case of a zero-cell grid — which
    /// cannot happen (empty axes fall back to the base value), so this
    /// always returns `false`; it exists for `len`/`is_empty` symmetry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian grid into concrete cells.
    ///
    /// Nesting order (outer→inner): seed, shape, clients, keys,
    /// priorities, mix, policy, threads — so the threads axis varies
    /// fastest and a `keys × threads` sweep groups naturally by skew.
    /// The expansion is fully deterministic.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = vec![SweepCell {
            name: String::new(),
            coords: Vec::new(),
            scenario: self.base.clone(),
        }];
        cells = apply_axis(
            cells,
            &self.seeds,
            "seed",
            |s, &v| s.seed = v,
            |v| v.to_string(),
        );
        cells = apply_axis(
            cells,
            &self.shapes,
            "shape",
            |s, &v| s.arrival_shape = v,
            |v| v.label(),
        );
        cells = apply_axis(
            cells,
            &self.clients,
            "clients",
            |s, &v| s.clients = v,
            |v| v.to_string(),
        );
        cells = apply_axis(cells, &self.keys, "keys", |s, &v| s.keys = v, |v| v.label());
        cells = apply_axis(
            cells,
            &self.priorities,
            "prio",
            |s, &v| s.priorities = v,
            |v| v.label(),
        );
        cells = apply_axis(cells, &self.mixes, "mix", |s, &v| s.mix = v, |v| v.label());
        cells = apply_axis(
            cells,
            &self.policies,
            "policy",
            |s, &v| s.choice_policy = v,
            |v| v.label(),
        );
        cells = apply_axis(
            cells,
            &self.threads,
            "t",
            |s, &v| s.threads = v,
            |v| v.to_string(),
        );
        for cell in &mut cells {
            cell.coords
                .sort_by_key(|(k, _)| AXIS_ORDER.iter().position(|a| a == k).unwrap_or(usize::MAX));
            cell.name = cell_name(&self.base.name, &cell.coords);
        }
        cells
    }
}

/// The canonical cell name: base scenario name plus `axis=value`
/// segments in `AXIS_ORDER`.
fn cell_name(base: &str, coords: &[(String, String)]) -> String {
    let mut name = base.to_string();
    for (k, v) in coords {
        name.push('/');
        name.push_str(k);
        name.push('=');
        name.push_str(v);
    }
    name
}

/// Multiplies `cells` by one axis: each existing cell is cloned once
/// per axis value with the value applied and the coordinate recorded.
/// An empty axis leaves the cells untouched (the base value rules).
fn apply_axis<T>(
    cells: Vec<SweepCell>,
    values: &[T],
    key: &str,
    set: impl Fn(&mut Scenario, &T),
    label: impl Fn(&T) -> String,
) -> Vec<SweepCell> {
    if values.is_empty() {
        return cells;
    }
    let mut out = Vec::with_capacity(cells.len() * values.len());
    for cell in cells {
        for v in values {
            let mut next = cell.clone();
            set(&mut next.scenario, v);
            next.coords.push((key.to_string(), label(v)));
            out.push(next);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Budget, Family};

    fn base() -> Scenario {
        Scenario::builder("sweep-base", Family::Queue)
            .threads(4)
            .budget(Budget::OpsPerWorker(100))
            .mix(OpMix::new(50, 50, 0))
            .seed(7)
            .build()
    }

    #[test]
    fn empty_spec_is_a_one_by_one_grid() {
        let spec = SweepSpec::new(base());
        assert_eq!(spec.len(), 1);
        assert!(!spec.is_empty());
        let cells = spec.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].name, "sweep-base");
        assert!(cells[0].coords.is_empty());
        assert_eq!(cells[0].scenario.threads, 4);
        assert_eq!(cells[0].scenario.name, "sweep-base");
    }

    #[test]
    fn cartesian_expansion_counts_and_names() {
        let spec = SweepSpec::new(base())
            .threads(&[2, 8])
            .policies(&[PolicyCfg::TwoChoice, PolicyCfg::Sticky { ops: 16 }])
            .mixes(&[OpMix::new(50, 50, 0)]);
        assert_eq!(spec.len(), 4);
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        // Policy is outer, threads inner; names list t first regardless.
        let names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "sweep-base/t=2/policy=two-choice/mix=50-50-0",
                "sweep-base/t=8/policy=two-choice/mix=50-50-0",
                "sweep-base/t=2/policy=sticky(s=16)/mix=50-50-0",
                "sweep-base/t=8/policy=sticky(s=16)/mix=50-50-0",
            ]
        );
        // Coordinates are applied to the concrete scenarios.
        assert_eq!(cells[1].scenario.threads, 8);
        assert_eq!(cells[1].scenario.choice_policy, PolicyCfg::TwoChoice);
        assert_eq!(
            cells[2].scenario.choice_policy,
            PolicyCfg::Sticky { ops: 16 }
        );
        // The scenario name stays the base name; the grid lives in coords.
        assert!(cells.iter().all(|c| c.scenario.name == "sweep-base"));
        assert!(cells.iter().all(|c| c.coords.len() == 3));
    }

    #[test]
    fn single_value_axis_still_tags_its_coordinate() {
        let cells = SweepSpec::new(base()).threads(&[8]).cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].name, "sweep-base/t=8");
        assert_eq!(cells[0].coords, vec![("t".into(), "8".into())]);
        assert_eq!(cells[0].scenario.threads, 8);
    }

    #[test]
    fn skew_and_seed_axes_expand() {
        let spec = SweepSpec::new(base())
            .keys(&[
                Dist::Uniform { n: 1 << 10 },
                Dist::Zipf {
                    n: 1 << 10,
                    theta: 0.9,
                },
            ])
            .priorities(&[Dist::Monotonic])
            .seeds(&[1, 2, 3]);
        assert_eq!(spec.len(), 2 * 3);
        let cells = spec.cells();
        assert_eq!(cells.len(), 6);
        // Seed is the outermost axis.
        assert_eq!(cells[0].scenario.seed, 1);
        assert_eq!(cells[5].scenario.seed, 3);
        assert_eq!(
            cells[0].name,
            "sweep-base/keys=uniform(1024)/prio=monotonic/seed=1"
        );
        assert!(cells
            .iter()
            .any(|c| matches!(c.scenario.keys, Dist::Zipf { .. })));
    }

    #[test]
    fn client_and_shape_axes_expand_between_skew_and_seed() {
        let spec = SweepSpec::new(base())
            .clients(&[0, 100_000])
            .arrival_shapes(&[
                ArrivalShape::Poisson { rate: 50.0 },
                ArrivalShape::Periodic { rate: 50.0 },
            ])
            .seeds(&[1]);
        assert_eq!(spec.len(), 4);
        let cells = spec.cells();
        assert_eq!(
            cells[0].name,
            "sweep-base/clients=0/shape=poisson(50/s)/seed=1"
        );
        assert_eq!(
            cells[3].name,
            "sweep-base/clients=100000/shape=periodic(50/s)/seed=1"
        );
        assert_eq!(cells[3].scenario.clients, 100_000);
        assert_eq!(
            cells[3].scenario.arrival_shape,
            ArrivalShape::Periodic { rate: 50.0 }
        );
        // Shape is outer to clients in expansion order.
        assert_eq!(cells[1].scenario.clients, 100_000);
        assert_eq!(
            cells[1].scenario.arrival_shape,
            ArrivalShape::Poisson { rate: 50.0 }
        );
    }

    #[test]
    fn expansion_is_deterministic() {
        let spec = SweepSpec::new(base())
            .threads(&[1, 2, 4])
            .policies(&[PolicyCfg::DChoice { d: 4 }]);
        let a = spec.cells();
        let b = spec.cells();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.coords, y.coords);
            assert_eq!(x.scenario.threads, y.scenario.threads);
        }
    }
}
