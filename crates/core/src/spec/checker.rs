//! Replaying recorded histories through a quantitative relaxation.
//!
//! This is the executable side of Definition 5.2: given a history of a
//! concurrent structure `D` (with update-point stamps) and the relaxed
//! sequential process `R` (a [`QuantitativeRelaxation`]), construct the
//! mapping — replay in stamp order — and report the empirical cost
//! distribution. If the mapping fails (an infinite-cost transition, a
//! malformed stamp discipline, a real-time violation), the outcome says
//! so and where.

use crate::spec::artifact::{ArtifactHistory, HistoryArtifact};
use crate::spec::history::History;
use crate::spec::relaxation::{CostDistribution, QuantitativeRelaxation};
use crate::spec::specs::{CounterOp, CounterSpec, FifoOp, FifoSpec, PqOp, PqSpec};

/// Result of replaying a history against a relaxation.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Per-step costs, in replay (update-stamp) order.
    pub costs: CostDistribution,
    /// `true` iff the stamp discipline held (`invoke ≤ update ≤
    /// response`, unique stamps).
    pub well_formed: bool,
    /// `true` iff update order respected real-time order of
    /// non-overlapping operations.
    pub real_time_ok: bool,
    /// Indices (in replay order) of transitions with infinite cost —
    /// places where the concurrent output cannot be mapped onto the
    /// relaxed process at all (e.g. dequeue of an absent element).
    pub unmappable: Vec<usize>,
}

impl ReplayOutcome {
    /// The structure is distributionally linearizable *on this
    /// execution* with the measured cost distribution: every operation
    /// mapped, stamps were sound, real time respected.
    pub fn is_linearizable(&self) -> bool {
        self.well_formed && self.real_time_ok && self.unmappable.is_empty()
    }
}

/// Replays `history` through `relaxation` in update-stamp order.
///
/// The caller does *not* need to pre-sort the history.
pub fn check_distributional<R>(relaxation: &R, history: &History<R::Label>) -> ReplayOutcome
where
    R: QuantitativeRelaxation,
    R::Label: Clone,
{
    let well_formed = history.well_formed();
    let real_time_ok = history.respects_real_time();
    let labels = history.labels_in_update_order();

    let mut state = relaxation.initial();
    let mut costs = CostDistribution::new();
    let mut unmappable = Vec::new();
    for (idx, label) in labels.iter().enumerate() {
        let cost = relaxation.apply_mut(&mut state, label);
        if cost.is_infinite() {
            unmappable.push(idx);
        } else {
            costs.push(cost);
        }
    }

    ReplayOutcome {
        costs,
        well_formed,
        real_time_ok,
        unmappable,
    }
}

/// Replays a [`HistoryArtifact`] through its kind's canonical
/// relaxation.
pub fn replay_artifact(artifact: &HistoryArtifact) -> ReplayOutcome {
    match &artifact.history {
        ArtifactHistory::Pq(h) => check_distributional(&PqSpec, h),
        ArtifactHistory::Counter(h) => check_distributional(&CounterSpec, h),
        ArtifactHistory::Fifo(h) => check_distributional(&FifoSpec, h),
    }
}

/// Generous constants over a queue history's `factor · queues` rank
/// scale and a counter history's `m·ln m` deviation scale ([`envelope`]).
const RANK_BOUND_C: f64 = 30.0;
const DEVIATION_BOUND_C: f64 = 4.0;

/// The structure kinds a verdict can be about.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Priority queues: dequeue ranks.
    Pq,
    /// Counters: read deviations.
    Counter,
    /// FIFO queues: dequeue positions.
    Fifo,
}

/// What a kind's metric samples must meet: a bound, held against their
/// mean or against their largest value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// The metric: `dequeue_rank`, `read_deviation` or `dequeue_position`.
    pub metric: &'static str,
    /// The absolute bound; infinite when none is claimed.
    pub bound: f64,
    by_max: bool,
}

impl Envelope {
    /// `true` iff `costs` sit inside the envelope. No samples under a
    /// mean bound verified nothing and are *not* within; an envelope
    /// that claims no bound has nothing to exceed.
    pub fn holds(&self, costs: &[f64]) -> bool {
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        match (self.bound, self.by_max) {
            (f64::INFINITY, _) => true,
            (bound, true) => costs.iter().all(|&c| c <= bound),
            (bound, false) => !costs.is_empty() && mean <= bound,
        }
    }
}

/// The one envelope rule, for [`judge`] and for the workload backends'
/// online samples: the **mean** dequeue rank against `RANK_BOUND_C ·
/// factor · queues` for a policy's rank factor (Theorem 7.1 bounds the
/// expectation; an infinite factor claims no bound), the **largest**
/// read deviation against `DEVIATION_BOUND_C · factor` for the `m·ln m`
/// scale (Lemma 6.8 holds w.h.p.; a factor of 0 is the exact counter,
/// whose reads must not deviate at all), nothing for FIFO positions.
pub fn envelope(kind: Kind, factor: f64, queues: usize) -> Envelope {
    let (metric, bound, by_max) = match kind {
        Kind::Pq if factor.is_finite() => {
            ("dequeue_rank", RANK_BOUND_C * factor * queues as f64, false)
        }
        Kind::Pq => ("dequeue_rank", f64::INFINITY, false),
        Kind::Counter => ("read_deviation", DEVIATION_BOUND_C * factor, true),
        Kind::Fifo => ("dequeue_position", f64::INFINITY, false),
    };
    Envelope {
        metric,
        bound,
        by_max,
    }
}

impl HistoryArtifact {
    /// The samples the kind's metric summarizes: the finite replay costs
    /// of exactly the ops it names — delete-mins, reads or dequeues, not
    /// the inserts, increments or enqueues that always cost 0.
    /// `outcome` must be this artifact's [`replay_artifact`].
    pub fn metric_costs(&self, outcome: &ReplayOutcome) -> Vec<f64> {
        match &self.history {
            ArtifactHistory::Pq(h) => kept(h, outcome, |l| matches!(l, PqOp::DeleteMin { .. })),
            ArtifactHistory::Counter(h) => {
                kept(h, outcome, |l| matches!(l, CounterOp::Read { .. }))
            }
            ArtifactHistory::Fifo(h) => kept(h, outcome, |l| matches!(l, FifoOp::Dequeue { .. })),
        }
    }
}

/// The costs of the labels `keep` names: the mappable labels, in replay
/// order, paired with the outcome's costs (one each).
fn kept<L: Clone>(h: &History<L>, outcome: &ReplayOutcome, keep: impl Fn(&L) -> bool) -> Vec<f64> {
    let labels = h.labels_in_update_order();
    labels
        .iter()
        .enumerate()
        .filter(|(i, _)| outcome.unmappable.binary_search(i).is_err())
        .zip(outcome.costs.samples())
        .filter_map(|((_, l), &cost)| keep(l).then_some(cost))
        .collect()
}

/// What [`judge`] found in one history.
#[derive(Debug)]
pub struct Verdict {
    /// Name of the kind's cost metric ([`Envelope::metric`]).
    pub metric: &'static str,
    /// Events in the judged history.
    pub events: usize,
    /// The replay: mapping verdict and every step's cost.
    pub outcome: ReplayOutcome,
    /// The samples the metric summarizes
    /// ([`HistoryArtifact::metric_costs`]).
    pub costs: Vec<f64>,
    /// The absolute envelope bound the artifact's metadata selects;
    /// infinite when it claims none (FIFO histories, policies without a
    /// rank factor).
    pub bound: f64,
    /// `true` iff the costs sit inside the envelope ([`Envelope::holds`]).
    pub within: bool,
}

/// The one judge of recorded histories: everything a verdict depends on
/// is in the artifact, so the engine judging a run in-process and
/// `histcheck` judging its exported file long after compute the same
/// numbers from the same function.
///
/// Replays the artifact ([`replay_artifact`]), takes the metric's
/// samples ([`HistoryArtifact::metric_costs`]) and holds them against
/// the kind's [`envelope`] for the artifact's `envelope_factor` and
/// `queues`.
pub fn judge(artifact: &HistoryArtifact) -> Verdict {
    let outcome = replay_artifact(artifact);
    let costs = artifact.metric_costs(&outcome);
    let kind = match &artifact.history {
        ArtifactHistory::Pq(_) => Kind::Pq,
        ArtifactHistory::Counter(_) => Kind::Counter,
        ArtifactHistory::Fifo(_) => Kind::Fifo,
    };
    let envelope = envelope(kind, artifact.envelope_factor, artifact.queues.unwrap_or(0));
    Verdict {
        metric: envelope.metric,
        events: artifact.len(),
        outcome,
        within: envelope.holds(&costs),
        costs,
        bound: envelope.bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::history::{Event, History, Recorder};
    use crate::spec::specs::{CounterOp, FifoOp, PqOp};

    fn ev<L>(label: L, stamp: u64) -> Event<L> {
        Event {
            thread: 0,
            label,
            invoke: stamp * 10,
            update: stamp * 10 + 1,
            response: stamp * 10 + 2,
        }
    }

    #[test]
    fn exact_counter_history_has_zero_costs() {
        let h = History {
            events: vec![
                ev(CounterOp::Inc, 0),
                ev(CounterOp::Read { returned: 1 }, 1),
                ev(CounterOp::Inc, 2),
                ev(CounterOp::Read { returned: 2 }, 3),
            ],
        };
        let out = check_distributional(&CounterSpec, &h);
        assert!(out.is_linearizable());
        assert_eq!(out.costs.max(), 0.0);
        assert_eq!(out.costs.len(), 4);
    }

    #[test]
    fn relaxed_counter_reads_cost_their_deviation() {
        let h = History {
            events: vec![
                ev(CounterOp::Inc, 0),
                ev(CounterOp::Inc, 1),
                ev(CounterOp::Read { returned: 6 }, 2), // true 2, cost 4
            ],
        };
        let out = check_distributional(&CounterSpec, &h);
        assert!(out.is_linearizable());
        assert_eq!(out.costs.max(), 4.0);
    }

    #[test]
    fn unsorted_history_is_sorted_by_checker() {
        // Same history, events supplied out of order.
        let h = History {
            events: vec![
                ev(CounterOp::Read { returned: 2 }, 3),
                ev(CounterOp::Inc, 0),
                ev(CounterOp::Inc, 2),
                ev(CounterOp::Read { returned: 1 }, 1),
            ],
        };
        let out = check_distributional(&CounterSpec, &h);
        assert!(out.is_linearizable());
        assert_eq!(out.costs.max(), 0.0);
    }

    #[test]
    fn unmappable_operations_are_flagged() {
        let h = History {
            events: vec![
                ev(PqOp::Insert { priority: 1 }, 0),
                ev(PqOp::DeleteMin { removed: 99 }, 1), // never inserted
            ],
        };
        let out = check_distributional(&PqSpec, &h);
        assert!(!out.is_linearizable());
        assert_eq!(out.unmappable, vec![1]);
    }

    #[test]
    fn malformed_stamps_are_flagged() {
        let h = History {
            events: vec![Event {
                thread: 0,
                label: CounterOp::Inc,
                invoke: 10,
                update: 5, // before invoke
                response: 20,
            }],
        };
        let out = check_distributional(&CounterSpec, &h);
        assert!(!out.well_formed);
        assert!(!out.is_linearizable());
    }

    #[test]
    fn end_to_end_with_recorder_and_multicounter() {
        use crate::counter::MultiCounter;
        use crate::rng::Xoshiro256;

        // Record a single-threaded MultiCounter execution and judge it:
        // it maps onto the relaxed counter with bounded costs.
        let m = 8usize;
        let mc = MultiCounter::new(m);
        let rec = Recorder::new();
        let mut log = rec.log(0);
        let mut rng = Xoshiro256::new(7);
        for _ in 0..500 {
            log.record(|stamps| {
                mc.increment_with(&mut rng);
                Some((CounterOp::Inc, stamps.fetch_increment()))
            });
        }
        // A few relaxed reads interleaved at the end.
        for _ in 0..20 {
            log.record(|stamps| {
                let v = mc.read_with(&mut rng);
                Some((CounterOp::Read { returned: v }, stamps.fetch_increment()))
            });
        }
        drop(log);
        let scale = m as f64 * (m as f64).ln();
        let v = rec
            .judge(|h| HistoryArtifact::counter(h, scale))
            .expect("a recorded history");
        assert!(v.outcome.is_linearizable());
        assert_eq!(
            (v.metric, v.events, v.costs.len()),
            ("read_deviation", 520, 20)
        );
        assert_eq!(v.bound, DEVIATION_BOUND_C * scale);
        assert!(
            v.within,
            "max {:?} vs bound {}",
            v.outcome.costs.max(),
            v.bound
        );
        // Judged once: the artifact is kept, the events are gone.
        assert_eq!(rec.take_artifact().expect("kept").len(), 520);
        assert!(rec.judge(|h| HistoryArtifact::counter(h, scale)).is_none());
    }

    #[test]
    fn the_envelope_is_read_off_the_artifact_alone() {
        // (A bounded queue history inside its envelope, an unbounded
        // policy and an exceeded counter bound are driven through
        // `histcheck` in crates/bench/tests/histcheck_cli.rs.)
        let pq = |queues| {
            let h = History {
                events: vec![
                    ev(PqOp::Insert { priority: 1 }, 0),
                    ev(PqOp::Insert { priority: 2 }, 1),
                    ev(PqOp::DeleteMin { removed: 2 }, 2), // rank 1
                ],
            };
            judge(&HistoryArtifact::pq(h, "p", 2.0, queues))
        };
        // Mean rank 1 against 30 · 2 · 4; inserts are not samples.
        let v = pq(4);
        assert_eq!((v.metric, v.bound, v.within), ("dequeue_rank", 240.0, true));
        assert_eq!(v.costs, vec![1.0]);
        assert!(!pq(0).within, "a bound of 0 is exceeded");
        // No samples verified nothing.
        let empty = judge(&HistoryArtifact::pq(History::new(), "p", 1.0, 4));
        assert!(!empty.within && empty.events == 0);

        // Counters are judged on their reads' largest deviation; scale 0
        // is the exact counter, which may not deviate at all.
        let counter = |returned, scale| {
            let h = History {
                events: vec![ev(CounterOp::Inc, 0), ev(CounterOp::Read { returned }, 1)],
            };
            judge(&HistoryArtifact::counter(h, scale))
        };
        assert!(counter(1, 0.0).within && !counter(2, 0.0).within);
        let v = counter(9, 2.0);
        assert_eq!((v.costs.clone(), v.bound, v.within), (vec![8.0], 8.0, true));

        let fifo = judge(&HistoryArtifact::fifo(History {
            events: vec![ev(FifoOp::Enqueue { id: 1 }, 0)],
        }));
        assert_eq!(fifo.metric, "dequeue_position");
        assert!(fifo.bound.is_infinite() && fifo.within);
    }

    /// `k` inserts, then one removal of the element of rank `r`.
    fn k_then_one<L>(k: u64, put: impl Fn(u64) -> L, take: L) -> History<L> {
        let mut events: Vec<_> = (0..k).map(|i| ev(put(i), i)).collect();
        events.push(ev(take, k));
        History { events }
    }

    #[test]
    fn a_verdict_samples_only_the_ops_its_metric_names() {
        let (k, r) = (9, 4);
        let mean = |costs: &[f64]| costs.iter().sum::<f64>() / costs.len() as f64;

        let pq = k_then_one(
            k,
            |priority| PqOp::Insert { priority },
            PqOp::DeleteMin { removed: r },
        );
        let v = judge(&HistoryArtifact::pq(pq, "p", 1.0, 4));
        assert_eq!(
            (v.costs.clone(), mean(&v.costs)),
            (vec![r as f64], r as f64)
        );
        assert!(v.within, "rank {r} against {}", v.bound);

        let fifo = k_then_one(k, |id| FifoOp::Enqueue { id }, FifoOp::Dequeue { id: r });
        let v = judge(&HistoryArtifact::fifo(fifo));
        assert_eq!(
            (v.costs.clone(), mean(&v.costs)),
            (vec![r as f64], r as f64)
        );

        // Counters sampled their reads alone before; nothing changes.
        let counter = k_then_one(k, |_| CounterOp::Inc, CounterOp::Read { returned: k + r });
        let v = judge(&HistoryArtifact::counter(counter, 1.0));
        assert_eq!((v.costs, v.bound, v.within), (vec![r as f64], 4.0, true));
    }

    #[test]
    fn samples_stay_with_their_labels_past_an_unmappable_op() {
        let h = History {
            events: vec![
                ev(PqOp::Insert { priority: 5 }, 0),
                ev(PqOp::Insert { priority: 7 }, 1),
                ev(PqOp::Insert { priority: 9 }, 2),
                ev(PqOp::DeleteMin { removed: 99 }, 3), // never inserted
                ev(PqOp::Insert { priority: 1 }, 4),
                ev(PqOp::DeleteMin { removed: 7 }, 5), // rank 2: 1 and 5
                ev(PqOp::DeleteMin { removed: 1 }, 6), // rank 0
            ],
        };
        let v = judge(&HistoryArtifact::pq(h, "p", 1.0, 4));
        assert_eq!(v.outcome.unmappable, vec![3]);
        assert_eq!(v.costs, vec![2.0, 0.0]);
    }
}
