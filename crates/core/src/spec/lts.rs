//! Sequential specifications as labeled transition systems.
//!
//! Definition 5.1 of the paper: a sequential specification `S` (a
//! prefix-closed set of histories over a method alphabet Σ) induces
//! `LTS(S) = (Q, Σ, →, q0)` whose states are equivalence classes of
//! histories. We represent the LTS directly by its state type and
//! transition function — the equivalence classes of a data structure's
//! histories *are* its abstract states (a counter value, a multiset of
//! priorities, ...), so this loses nothing and is executable.

/// A sequential specification, presented as a deterministic LTS.
pub trait SequentialSpec {
    /// Abstract state (`[s]_S` in the paper — e.g. the counter value).
    type State: Clone;
    /// Method labels with input and output values (Σ).
    type Label: Clone;

    /// The initial state `q0 = [ε]_S`.
    fn initial(&self) -> Self::State;

    /// `Some(q')` if `q →label q'` is a legal transition of `LTS(S)`,
    /// `None` if the labeled method (with its baked-in output) is not
    /// allowed by the sequential specification in state `q`.
    fn step(&self, state: &Self::State, label: &Self::Label) -> Option<Self::State>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::specs::{CounterOp, CounterSpec};

    const INC: CounterOp = CounterOp::Inc;

    fn read(returned: u64) -> CounterOp {
        CounterOp::Read { returned }
    }

    /// The states a label path visits (initial included), or `None` as
    /// soon as a transition is illegal.
    fn trace(labels: &[CounterOp]) -> Option<Vec<u64>> {
        let mut states = vec![CounterSpec.initial()];
        for l in labels {
            states.push(CounterSpec.step(states.last()?, l)?);
        }
        Some(states)
    }

    /// Membership in the specification: `u ∈ S` iff `q0 →u` (the remark
    /// after Definition 5.1).
    fn accepts(labels: &[CounterOp]) -> bool {
        trace(labels).is_some()
    }

    #[test]
    fn accepts_legal_histories() {
        assert!(accepts(&[INC, INC, read(2)]));
        assert!(accepts(&[]));
    }

    #[test]
    fn rejects_illegal_histories() {
        assert!(!accepts(&[INC, read(5)]));
    }

    #[test]
    fn prefix_closure_holds_by_construction() {
        // If a sequence is accepted, every prefix is accepted: this is
        // guaranteed by the step-by-step definition; spot-check it.
        let seq = [INC, read(1), INC, read(2)];
        assert!(accepts(&seq));
        for k in 0..seq.len() {
            assert!(accepts(&seq[..k]));
        }
    }

    #[test]
    fn trace_returns_every_state() {
        assert_eq!(trace(&[INC, INC]), Some(vec![0, 1, 2]));
    }
}
