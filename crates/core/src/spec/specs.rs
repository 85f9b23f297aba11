//! Concrete specifications and their canonical relaxations: counter,
//! priority queue, FIFO queue.
//!
//! Each type implements both [`SequentialSpec`] (the exact structure,
//! which declares its state, labels and initial state) and
//! [`QuantitativeRelaxation`] (the completed LTS with the cost function
//! the paper uses for it, written once as an in-place update):
//!
//! | structure | cost of a relaxed step |
//! |---|---|
//! | counter read | `\|returned − true count\|` |
//! | pq delete-min | rank of the removed priority among those present |
//! | fifo dequeue | queue position of the removed element |

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::spec::lts::SequentialSpec;
use crate::spec::relaxation::QuantitativeRelaxation;

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

/// Labels of the counter specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterOp {
    /// An increment (always exact: the fetch-and-add really happened).
    Inc,
    /// A read that returned `returned`.
    Read {
        /// The value the concurrent read returned.
        returned: u64,
    },
}

/// The counter specification: state = number of increments so far.
///
/// As a [`QuantitativeRelaxation`], a read costs `|returned − count|` —
/// the deviation Lemma 6.8 bounds by `O(m log m)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterSpec;

impl SequentialSpec for CounterSpec {
    type State = u64;
    type Label = CounterOp;

    fn initial(&self) -> u64 {
        0
    }

    fn step(&self, state: &u64, label: &CounterOp) -> Option<u64> {
        match label {
            CounterOp::Inc => Some(state + 1),
            CounterOp::Read { returned } if returned == state => Some(*state),
            CounterOp::Read { .. } => None,
        }
    }
}

impl QuantitativeRelaxation for CounterSpec {
    fn apply_mut(&self, state: &mut u64, label: &CounterOp) -> f64 {
        match label {
            CounterOp::Inc => {
                *state += 1;
                0.0
            }
            CounterOp::Read { returned } => returned.abs_diff(*state) as f64,
        }
    }
}

// ---------------------------------------------------------------------
// Priority queue
// ---------------------------------------------------------------------

/// Labels of the priority-queue specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PqOp {
    /// Insert of priority `priority`.
    Insert {
        /// The inserted priority.
        priority: u64,
    },
    /// A delete-min that removed `removed`.
    DeleteMin {
        /// The priority the concurrent delete-min returned.
        removed: u64,
    },
}

/// Priority-queue specification: state = multiset of priorities.
///
/// As a [`QuantitativeRelaxation`], a delete-min costs the *rank* of the
/// removed priority (number of strictly smaller priorities present) —
/// the quantity Theorem 7.1 bounds by O(m) in expectation. Removing a
/// priority that is not present costs `+∞` (the mapping of Definition
/// 5.2 fails; the checker flags it).
#[derive(Debug, Clone, Copy, Default)]
pub struct PqSpec;

/// Multiset of priorities with counts.
pub type PqState = BTreeMap<u64, usize>;

fn pq_insert(state: &PqState, p: u64) -> PqState {
    let mut s = state.clone();
    *s.entry(p).or_insert(0) += 1;
    s
}

fn pq_remove(state: &PqState, p: u64) -> Option<PqState> {
    let mut s = state.clone();
    match s.get_mut(&p) {
        Some(c) if *c > 1 => {
            *c -= 1;
            Some(s)
        }
        Some(_) => {
            s.remove(&p);
            Some(s)
        }
        None => None,
    }
}

impl SequentialSpec for PqSpec {
    type State = PqState;
    type Label = PqOp;

    fn initial(&self) -> PqState {
        BTreeMap::new()
    }

    fn step(&self, state: &PqState, label: &PqOp) -> Option<PqState> {
        match label {
            PqOp::Insert { priority } => Some(pq_insert(state, *priority)),
            PqOp::DeleteMin { removed } => {
                // Exact spec: only the true minimum may be removed.
                let (&min, _) = state.iter().next()?;
                if min == *removed {
                    pq_remove(state, *removed)
                } else {
                    None
                }
            }
        }
    }
}

impl QuantitativeRelaxation for PqSpec {
    fn apply_mut(&self, state: &mut PqState, label: &PqOp) -> f64 {
        match label {
            PqOp::Insert { priority } => {
                *state.entry(*priority).or_insert(0) += 1;
                0.0
            }
            PqOp::DeleteMin { removed } => {
                // Rank before removal: elements strictly smaller.
                // (O(rank-range) via the ordered map; far cheaper than
                // cloning the multiset.)
                match state.get_mut(removed) {
                    None => f64::INFINITY,
                    Some(c) => {
                        if *c > 1 {
                            *c -= 1;
                        } else {
                            state.remove(removed);
                        }
                        let rank: usize = state.range(..*removed).map(|(_, c)| *c).sum();
                        rank as f64
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// FIFO queue
// ---------------------------------------------------------------------

/// Labels of the FIFO-queue specification. Elements are identified by a
/// caller-chosen id (e.g. the enqueue timestamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoOp {
    /// Enqueue of element `id`.
    Enqueue {
        /// Unique element identity.
        id: u64,
    },
    /// A dequeue that returned element `id`.
    Dequeue {
        /// The identity the concurrent dequeue returned.
        id: u64,
    },
}

/// FIFO specification: state = the queue contents in order.
///
/// As a [`QuantitativeRelaxation`], a dequeue costs the position of the
/// removed element (0 = head = exact FIFO).
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoSpec;

impl SequentialSpec for FifoSpec {
    type State = VecDeque<u64>;
    type Label = FifoOp;

    fn initial(&self) -> VecDeque<u64> {
        VecDeque::new()
    }

    fn step(&self, state: &VecDeque<u64>, label: &FifoOp) -> Option<VecDeque<u64>> {
        match label {
            FifoOp::Enqueue { id } => {
                let mut s = state.clone();
                s.push_back(*id);
                Some(s)
            }
            FifoOp::Dequeue { id } => {
                if *state.front()? == *id {
                    let mut s = state.clone();
                    s.pop_front();
                    Some(s)
                } else {
                    None
                }
            }
        }
    }
}

impl QuantitativeRelaxation for FifoSpec {
    fn apply_mut(&self, state: &mut VecDeque<u64>, label: &FifoOp) -> f64 {
        match label {
            FifoOp::Enqueue { id } => {
                state.push_back(*id);
                0.0
            }
            FifoOp::Dequeue { id } => match state.iter().position(|x| x == id) {
                Some(pos) => {
                    state.remove(pos);
                    pos as f64
                }
                None => f64::INFINITY,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INC: CounterOp = CounterOp::Inc;
    fn read(returned: u64) -> CounterOp {
        CounterOp::Read { returned }
    }
    fn ins(priority: u64) -> PqOp {
        PqOp::Insert { priority }
    }
    fn del(removed: u64) -> PqOp {
        PqOp::DeleteMin { removed }
    }
    fn enq(id: u64) -> FifoOp {
        FifoOp::Enqueue { id }
    }
    fn deq(id: u64) -> FifoOp {
        FifoOp::Dequeue { id }
    }

    /// Membership in the exact specification: a fold over `step`.
    fn accepts<S: SequentialSpec>(spec: &S, labels: &[S::Label]) -> bool {
        labels
            .iter()
            .try_fold(spec.initial(), |q, l| spec.step(&q, l))
            .is_some()
    }

    /// The per-step costs of a label path, through `apply` and through
    /// the checker's in-place `apply_mut`, which must agree.
    fn costs<R: QuantitativeRelaxation>(rel: &R, labels: &[R::Label]) -> Vec<f64> {
        let (mut by_value, mut in_place) = (rel.initial(), rel.initial());
        let mut out = Vec::new();
        for l in labels {
            let (next, cost) = rel.apply(&by_value, l);
            by_value = next;
            assert_eq!(rel.apply_mut(&mut in_place, l), cost);
            out.push(cost);
        }
        out
    }

    #[test]
    fn counter_exact_spec() {
        assert!(accepts(&CounterSpec, &[INC, read(1), INC, read(2)]));
        assert!(!accepts(&CounterSpec, &[read(1)]));
    }

    #[test]
    fn counter_relaxation_costs_deviation() {
        // True count 2: reading 5 costs 3, reading 2 is exact.
        let costs = costs(&CounterSpec, &[INC, INC, read(5), read(2)]);
        assert_eq!(costs, vec![0.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn pq_exact_spec_only_removes_min() {
        assert!(accepts(&PqSpec, &[ins(5), ins(3), del(3), del(5)]));
        assert!(!accepts(&PqSpec, &[ins(5), ins(3), del(5)]));
        assert!(!accepts(&PqSpec, &[del(1)]));
    }

    #[test]
    fn pq_relaxation_costs_rank() {
        // Removing 30 from {10, 20, 30} costs its rank 2; then ranks 0.
        let path = [ins(10), ins(20), ins(30), del(30), del(10), del(20)];
        assert_eq!(costs(&PqSpec, &path), vec![0.0, 0.0, 0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn pq_relaxation_duplicates_and_absent() {
        // The third removal of 7 finds it absent: cost ∞.
        let costs = costs(&PqSpec, &[ins(7), ins(7), del(7), del(7), del(7)]);
        assert_eq!(&costs[..4], &[0.0, 0.0, 0.0, 0.0]);
        assert!(costs[4].is_infinite());
    }

    #[test]
    fn fifo_relaxation_costs_position() {
        // Dequeuing 2 from [1, 2, 3] costs its position 1; then 0.
        let path = [enq(1), enq(2), enq(3), deq(2), deq(1), deq(3)];
        assert_eq!(costs(&FifoSpec, &path), vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn fifo_exact_spec_is_fifo() {
        assert!(accepts(&FifoSpec, &[enq(1), enq(2), deq(1), deq(2)]));
        assert!(!accepts(&FifoSpec, &[enq(1), enq(2), deq(2)]));
    }

    #[test]
    fn relaxation_cost_zero_iff_legal() {
        // The fundamental cost law, checked on the PQ spec across a
        // deterministic workload.
        let spec = PqSpec;
        let mut state = spec.initial();
        for l in [ins(4), ins(2), del(4), del(2)] {
            let legal = spec.step(&state, &l).is_some();
            let (next, cost) = spec.apply(&state, &l);
            assert_eq!(legal, cost == 0.0, "law violated at {l:?}");
            state = next;
        }
    }
}
