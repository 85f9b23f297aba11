//! Backend adapters: every structure family in the workspace behind the
//! unified [`Backend`] interface.

pub mod counter;
pub mod fifo;
pub mod queue;
pub mod stm;

pub use counter::{AnyCounter, CounterBackend};
pub use fifo::{LockedFifoBackend, RelaxedFifoBackend};
pub use queue::{ConcurrentPqBackend, MultiQueueBackend};
pub use stm::StmBackend;

use dlz_core::DeleteMode;

use crate::backend::Backend;
use crate::scenario::{Family, Scenario};

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
            Box::new(CounterBackend::dchoice((4 * n).max(8), 4, scenario.seed)),
        ],
        Family::Queue => {
            let m = (4 * n).max(8);
            let mut backends: Vec<Box<dyn Backend>> = vec![
                Box::new(MultiQueueBackend::heap(m, DeleteMode::Strict)),
                Box::new(MultiQueueBackend::heap(m, DeleteMode::TryLock)),
                Box::new(ConcurrentPqBackend::coarse()),
                Box::new(ConcurrentPqBackend::locked_heap()),
            ];
            // Scenarios with an active policy/batch dimension also run
            // the tuned hot-path configurations, so one report carries
            // the before/after comparison.
            if tuned(scenario) {
                backends.push(Box::new(MultiQueueBackend::heap_policy(
                    m,
                    DeleteMode::Strict,
                    scenario.choice_policy,
                    scenario.batch,
                )));
                backends.push(Box::new(MultiQueueBackend::heap_policy(
                    m,
                    DeleteMode::TryLock,
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

/// The roster for one cell of a **policy sweep**: only backends that
/// actually act on the scenario's `choice_policy` (the policy-driven
/// MultiQueue in both delete modes), so every cell along the policy
/// axis runs the same backend set and every report's policy label is
/// truthful. Works for the default policy too (`heap_policy` with
/// two-choice is the comparable baseline point), unlike [`roster`],
/// which adds tuned variants only when the policy deviates and would
/// tag policy-oblivious backends with the swept label.
///
/// Returns an empty vector for non-queue families (no backend acts on
/// a policy there).
pub fn policy_roster(scenario: &Scenario) -> Vec<Box<dyn Backend>> {
    if scenario.family != Family::Queue {
        return Vec::new();
    }
    let m = (4 * scenario.threads).max(8);
    vec![
        Box::new(MultiQueueBackend::heap_policy(
            m,
            DeleteMode::Strict,
            scenario.choice_policy,
            scenario.batch,
        )),
        Box::new(MultiQueueBackend::heap_policy(
            m,
            DeleteMode::TryLock,
            scenario.choice_policy,
            scenario.batch,
        )),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlz_core::PolicyCfg;

    #[test]
    fn roster_covers_every_family_with_two_plus_backends() {
        for s in Scenario::catalog() {
            let r = roster(&s);
            assert!(r.len() >= 2, "{}: roster too small", s.name);
            for b in &r {
                assert_eq!(b.family(), s.family, "{}", b.name());
            }
        }
    }

    #[test]
    fn policy_roster_is_uniform_across_the_policy_axis() {
        let mut s = Scenario::named("queue-balanced").expect("catalog");
        // Same backend set (by count and delete modes) for the default
        // and a deviating policy — no ragged series along the axis.
        s.choice_policy = PolicyCfg::TwoChoice;
        let default_names: Vec<String> = policy_roster(&s).iter().map(|b| b.name()).collect();
        s.choice_policy = PolicyCfg::Sticky { ops: 16 };
        let sticky_names: Vec<String> = policy_roster(&s).iter().map(|b| b.name()).collect();
        assert_eq!(default_names.len(), 2);
        assert_eq!(sticky_names.len(), 2);
        // Every backend in a policy cell really acts on the policy.
        for n in &sticky_names {
            assert!(n.contains("sticky(s=16)"), "{n}");
        }
        // Non-queue families have no policy-acting backend.
        let c = Scenario::named("counter-read-heavy").expect("catalog");
        assert!(policy_roster(&c).is_empty());
    }
}
