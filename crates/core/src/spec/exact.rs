//! An exact linearizability checker (Wing & Gong style).
//!
//! Distributional linearizability (Definition 5.2) exists because the
//! relaxed structures are **not** linearizable with respect to their
//! exact sequential specifications. This module makes that contrast
//! testable: a small-history decision procedure for classical
//! linearizability [Herlihy & Wing 1990], via the Wing–Gong
//! backtracking search — try every operation whose invocation precedes
//! the earliest response among the not-yet-linearized operations, and
//! recurse on states the specification accepts.
//!
//! Exponential in the worst case, as the problem demands (it is
//! NP-complete); intended for histories of up to a few dozen
//! operations, which is plenty to exhibit non-linearizability of a
//! relaxed structure and to sanity-check exact ones.

use crate::spec::history::History;
use crate::spec::lts::SequentialSpec;

/// Outcome of an exact linearizability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Linearizability {
    /// A witness order exists: indices into `history.events` in
    /// linearization order.
    Linearizable(Vec<usize>),
    /// No legal linearization order exists.
    NotLinearizable,
}

impl Linearizability {
    /// `true` for the positive outcome.
    pub fn is_linearizable(&self) -> bool {
        matches!(self, Linearizability::Linearizable(_))
    }
}

/// Decides whether `history` is linearizable with respect to the exact
/// specification `spec`, using invoke/response stamps for the
/// real-time order (update stamps are ignored — that is the point:
/// linearizability quantifies over *all* orders inside the intervals).
///
/// Worst-case exponential; keep histories small (≲ 30 operations).
pub fn check_linearizable<S>(spec: &S, history: &History<S::Label>) -> Linearizability
where
    S: SequentialSpec,
    S::State: Clone,
{
    let n = history.events.len();
    let mut used = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let state = spec.initial();
    if search(spec, history, &mut used, &mut order, state) {
        Linearizability::Linearizable(order)
    } else {
        Linearizability::NotLinearizable
    }
}

fn search<S>(
    spec: &S,
    history: &History<S::Label>,
    used: &mut [bool],
    order: &mut Vec<usize>,
    state: S::State,
) -> bool
where
    S: SequentialSpec,
    S::State: Clone,
{
    let n = history.events.len();
    if order.len() == n {
        return true;
    }
    // Real-time constraint: an operation may be linearized next only if
    // no *unlinearized* operation responded before it was invoked.
    let min_resp = history
        .events
        .iter()
        .enumerate()
        .filter(|(i, _)| !used[*i])
        .map(|(_, e)| e.response)
        .min()
        .expect("some unused event remains");
    for i in 0..n {
        if used[i] || history.events[i].invoke > min_resp {
            continue;
        }
        if let Some(next) = spec.step(&state, &history.events[i].label) {
            used[i] = true;
            order.push(i);
            if search(spec, history, used, order, next) {
                return true;
            }
            order.pop();
            used[i] = false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::history::Event;
    use crate::spec::specs::{CounterOp, CounterSpec, PqOp, PqSpec};

    fn ev<L>(label: L, invoke: u64, response: u64) -> Event<L> {
        Event {
            thread: 0,
            label,
            invoke,
            update: invoke, // unused by the exact checker
            response,
        }
    }

    #[test]
    fn sequential_exact_history_is_linearizable() {
        let h = History {
            events: vec![
                ev(CounterOp::Inc, 0, 1),
                ev(CounterOp::Read { returned: 1 }, 2, 3),
                ev(CounterOp::Inc, 4, 5),
                ev(CounterOp::Read { returned: 2 }, 6, 7),
            ],
        };
        let out = check_linearizable(&CounterSpec, &h);
        assert_eq!(out, Linearizability::Linearizable(vec![0, 1, 2, 3]));
    }

    #[test]
    fn overlap_allows_reordering() {
        // Read overlapping an Inc may return either 0 or 1.
        for returned in [0u64, 1] {
            let h = History {
                events: vec![
                    ev(CounterOp::Inc, 0, 10),
                    ev(CounterOp::Read { returned }, 1, 9),
                ],
            };
            assert!(
                check_linearizable(&CounterSpec, &h).is_linearizable(),
                "returned {returned} should be legal under overlap"
            );
        }
    }

    #[test]
    fn stale_read_after_response_is_not_linearizable() {
        // Inc completes (response 1) strictly before the read begins
        // (invoke 2), so the read MUST see 1; returning 0 is a
        // linearizability violation — exactly the kind of output a
        // relaxed counter can produce.
        let h = History {
            events: vec![
                ev(CounterOp::Inc, 0, 1),
                ev(CounterOp::Read { returned: 0 }, 2, 3),
            ],
        };
        assert_eq!(
            check_linearizable(&CounterSpec, &h),
            Linearizability::NotLinearizable
        );
    }

    #[test]
    fn pq_out_of_order_delete_not_linearizable() {
        // Both inserts completed before the deletes started, so a
        // delete-min returning the larger element first cannot be
        // linearized — the MultiQueue's signature behaviour.
        let h = History {
            events: vec![
                ev(PqOp::Insert { priority: 1 }, 0, 1),
                ev(PqOp::Insert { priority: 2 }, 2, 3),
                ev(PqOp::DeleteMin { removed: 2 }, 4, 5),
                ev(PqOp::DeleteMin { removed: 1 }, 6, 7),
            ],
        };
        assert_eq!(
            check_linearizable(&PqSpec, &h),
            Linearizability::NotLinearizable
        );
        // ... but the same history IS distributionally linearizable to
        // the relaxed PQ process, with a rank-1 cost on the first
        // delete — the paper's Definition 5.2 in one test.
        let out = crate::spec::checker::check_distributional(&PqSpec, &h);
        assert!(out.is_linearizable());
        assert_eq!(out.costs.max(), 1.0);
    }

    #[test]
    fn pq_overlapping_deletes_can_commute() {
        // When the two deletes overlap each other, either order is a
        // valid linearization.
        let h = History {
            events: vec![
                ev(PqOp::Insert { priority: 1 }, 0, 1),
                ev(PqOp::Insert { priority: 2 }, 2, 3),
                ev(PqOp::DeleteMin { removed: 2 }, 4, 10),
                ev(PqOp::DeleteMin { removed: 1 }, 5, 9),
            ],
        };
        assert!(check_linearizable(&PqSpec, &h).is_linearizable());
    }

    #[test]
    fn witness_order_is_reported() {
        let h = History {
            events: vec![
                // Read of 1 overlaps both incs; witness must place
                // exactly one inc before it.
                ev(CounterOp::Inc, 0, 10),
                ev(CounterOp::Inc, 0, 10),
                ev(CounterOp::Read { returned: 1 }, 0, 10),
            ],
        };
        match check_linearizable(&CounterSpec, &h) {
            Linearizability::Linearizable(order) => {
                let read_pos = order.iter().position(|&i| i == 2).unwrap();
                assert_eq!(read_pos, 1, "read must sit between the incs");
            }
            other => panic!("expected linearizable, got {other:?}"),
        }
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h: History<CounterOp> = History::new();
        assert!(check_linearizable(&CounterSpec, &h).is_linearizable());
    }

    #[test]
    fn real_multiqueue_produces_nonlinearizable_histories() {
        // Drive a real MultiQueue single-threadedly (sequential
        // intervals!) until the checker catches an out-of-order
        // dequeue: the structure is demonstrably not linearizable to
        // the exact PQ spec, which is why Definition 5.2 exists.
        use crate::queue::{MqHandle, MultiQueue, PolicyCfg};
        use crate::spec::history::StampClock;

        let mut found_violation = false;
        'outer: for seed in 0..50u64 {
            let mq: MultiQueue<u64> = MultiQueue::new(4);
            let clock = StampClock::new();
            let mut h = MqHandle::with_policy(&mq, seed, PolicyCfg::TwoChoice.build());
            let mut events = Vec::new();
            for p in 0..6u64 {
                let inv = clock.stamp();
                h.insert(p, p);
                let resp = clock.stamp();
                events.push(ev_at(PqOp::Insert { priority: p }, inv, resp));
            }
            for _ in 0..6 {
                let inv = clock.stamp();
                if let Some((p, _)) = h.dequeue() {
                    let resp = clock.stamp();
                    events.push(ev_at(PqOp::DeleteMin { removed: p }, inv, resp));
                }
            }
            let h = History { events };
            if !check_linearizable(&PqSpec, &h).is_linearizable() {
                // And yet distributionally linearizable:
                let out = crate::spec::checker::check_distributional(&PqSpec, &h);
                assert!(out.is_linearizable());
                found_violation = true;
                break 'outer;
            }
        }
        assert!(
            found_violation,
            "50 seeds of a 4-queue MultiQueue should exhibit non-linearizability"
        );
    }

    fn ev_at<L>(label: L, invoke: u64, response: u64) -> Event<L> {
        Event {
            thread: 0,
            label,
            invoke,
            update: invoke,
            response,
        }
    }
}
