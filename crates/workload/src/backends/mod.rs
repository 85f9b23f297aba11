//! Backend adapters: every structure family in the workspace behind the
//! unified [`Backend`] interface.
//!
//! What a worker accumulates privately goes back to its backend when
//! the worker is **dropped**, not in `finish()`: the stamped log
//! through its [`ThreadLog`](dlz_core::spec::ThreadLog), a counter's
//! bracketed read deviations through its per-worker sampler. The engine
//! drops a worker whose thread panicked outside the unwind, so a dead
//! worker's completed operations are judged and conserved like everyone
//! else's.
//!
//! A queue or FIFO rank exists only where [`dlz_core::spec::judge`]
//! replayed a recorded history: without one, their reports carry the
//! kind's metric name and scalar facts but no samples.

pub mod counter;
pub mod fifo;
pub mod queue;
pub mod stm;

pub use counter::CounterBackend;
pub use fifo::{LockedFifoBackend, RelaxedFifoBackend};
pub use queue::{ConcurrentPqBackend, MultiQueueBackend};
pub use stm::StmBackend;

use dlz_core::DeleteMode;

use crate::backend::Backend;
use crate::op::OpCounts;
use crate::scenario::{Family, Scenario};

/// The conservation law of every structure that holds items: each one
/// inserted (prefill included) was removed or is still there.
fn conserved(what: &str, counts: &OpCounts, residual: u64) -> Result<(), String> {
    let inserted = counts.inserted();
    if inserted == counts.removes + residual {
        Ok(())
    } else {
        Err(format!(
            "{what} lost items: {inserted} inserted != {} removed + {residual} residual",
            counts.removes
        ))
    }
}

/// `true` if the scenario asks for a tuned MultiQueue configuration
/// (a non-default choice policy or batching).
fn tuned(scenario: &Scenario) -> bool {
    !scenario.choice_policy.is_default() || scenario.batch > 1
}

/// The default backend roster for a scenario: every structure of the
/// scenario's family, sized for its thread count. This is what the
/// `scenarios` binary runs and what the integration tests sweep.
pub fn roster(scenario: &Scenario) -> Vec<Box<dyn Backend>> {
    let n = scenario.threads;
    match scenario.family {
        Family::Counter => vec![
            Box::new(CounterBackend::exact()),
            Box::new(CounterBackend::sharded(n.max(2))),
            Box::new(CounterBackend::multicounter((4 * n).max(8))),
            Box::new(CounterBackend::dchoice((4 * n).max(8), 4)),
        ],
        Family::Queue => {
            let m = (4 * n).max(8);
            let mut backends: Vec<Box<dyn Backend>> = vec![
                Box::new(MultiQueueBackend::heap(m, DeleteMode::Strict)),
                Box::new(ConcurrentPqBackend::coarse()),
            ];
            // Scenarios with an active policy/batch dimension also run
            // the tuned hot-path configuration, so one report carries
            // the before/after comparison.
            if tuned(scenario) {
                backends.push(Box::new(MultiQueueBackend::heap_policy(
                    m,
                    DeleteMode::Strict,
                    scenario.choice_policy,
                    scenario.batch,
                )));
            }
            backends
        }
        Family::Fifo => {
            let m = (4 * n).max(8);
            vec![
                Box::new(RelaxedFifoBackend::new(m)),
                Box::new(LockedFifoBackend::new()),
            ]
        }
        Family::Stm => {
            let slots = 1 << 16;
            vec![
                Box::new(StmBackend::exact(slots)),
                Box::new(StmBackend::relaxed(slots, n)),
            ]
        }
    }
}

/// The roster for one cell of a **policy sweep**: only the backend that
/// actually acts on the scenario's `choice_policy` (the policy-driven
/// MultiQueue), so every cell along the policy axis runs the same
/// backend set and every report's policy label is truthful. Works for
/// the default policy too (`heap_policy` with two-choice is the
/// comparable baseline point), unlike [`roster`], which adds a tuned
/// variant only when the policy deviates and would tag
/// policy-oblivious backends with the swept label.
///
/// Returns an empty vector for non-queue families (no backend acts on
/// a policy there).
pub fn policy_roster(scenario: &Scenario) -> Vec<Box<dyn Backend>> {
    if scenario.family != Family::Queue {
        return Vec::new();
    }
    let m = (4 * scenario.threads).max(8);
    vec![Box::new(MultiQueueBackend::heap_policy(
        m,
        DeleteMode::Strict,
        scenario.choice_policy,
        scenario.batch,
    ))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::WorkerCfg;
    use crate::op::{Op, OpKind};
    use dlz_core::PolicyCfg;

    /// One worker alternating update / remove for `n` ops over keys and
    /// priorities `0..n`, finished and dropped: the queue and FIFO
    /// backends' unit-test driver.
    pub(super) fn drive(backend: &dyn Backend, n: u64, record_history: bool) -> OpCounts {
        let cfg = WorkerCfg {
            id: 0,
            threads: 1,
            seed: 7,
            record_history,
            quality_every: 0,
        };
        let mut counts = OpCounts::default();
        let mut w = backend.worker(cfg);
        for k in 0..n {
            let kind = if k % 2 == 0 {
                OpKind::Update
            } else {
                OpKind::Remove
            };
            let ok = w.execute(&Op {
                kind,
                key: k,
                priority: k,
                weight: 1,
            });
            match (kind, ok) {
                (OpKind::Update, _) => counts.updates += 1,
                (OpKind::Remove, true) => counts.removes += 1,
                (OpKind::Remove, false) => counts.removes_empty += 1,
                _ => {}
            }
        }
        w.finish();
        counts
    }

    #[test]
    fn roster_covers_every_family_with_two_plus_backends() {
        for s in Scenario::catalog() {
            let r = roster(&s);
            assert!(r.len() >= 2, "{}: roster too small", s.name);
            for b in &r {
                assert_eq!(b.family(), s.family, "{}", b.name());
            }
            // One exact baseline beside the MultiQueue, plus one tuned
            // MultiQueue when the scenario deviates.
            if s.family == Family::Queue {
                let m = (4 * s.threads).max(8);
                let names: Vec<String> = r.iter().map(|b| b.name()).collect();
                let mut want = vec![format!("multiqueue-heap(m={m},strict)"), "coarse-pq".into()];
                if tuned(&s) {
                    want.push(format!(
                        "multiqueue-heap(m={m},strict,{},b={})",
                        s.choice_policy.label(),
                        s.batch
                    ));
                }
                assert_eq!(names, want, "{}", s.name);
            }
        }
    }

    #[test]
    fn policy_roster_is_uniform_across_the_policy_axis() {
        let mut s = Scenario::named("queue-balanced").expect("catalog");
        // One backend for the default and a deviating policy alike —
        // no ragged series along the axis — and it acts on the policy.
        s.choice_policy = PolicyCfg::TwoChoice;
        let default_names: Vec<String> = policy_roster(&s).iter().map(|b| b.name()).collect();
        s.choice_policy = PolicyCfg::Sticky { ops: 16 };
        let sticky_names: Vec<String> = policy_roster(&s).iter().map(|b| b.name()).collect();
        let m = (4 * s.threads).max(8);
        assert_eq!(default_names, [format!("multiqueue-heap(m={m},strict)")]);
        assert_eq!(
            sticky_names,
            [format!(
                "multiqueue-heap(m={m},strict,sticky(s=16),b={})",
                s.batch
            )]
        );
        // Non-queue families have no policy-acting backend.
        let c = Scenario::named("counter-read-heavy").expect("catalog");
        assert!(policy_roster(&c).is_empty());
    }
}
