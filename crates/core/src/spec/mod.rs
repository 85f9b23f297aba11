//! Distributional linearizability, executable (Section 5 of the paper).
//!
//! The paper defines a randomized quantitative relaxation of a sequential
//! specification `S` in four steps:
//!
//! 1. **Completion** — extend `LTS(S)` with transitions from any state by
//!    any method ([`lts`], [`relaxation`]).
//! 2. **Cost function** — `cost(q, m, q') = 0` iff the transition is
//!    legal in `LTS(S)` ([`relaxation::QuantitativeRelaxation::apply`]).
//! 3. **Path cost** — a monotone accumulation of step costs. The judge
//!    reads the per-step costs directly (their mean or their maximum
//!    against a bound), so no path cost is computed.
//! 4. **Probability distribution** — a distribution over the costs
//!    incurred at each step. We *measure* it instead of assuming it:
//!    the [`checker`] replays recorded concurrent histories through the
//!    completed LTS and reports the empirical [`relaxation::CostDistribution`].
//!
//! A concurrent structure `D` is *distributionally linearizable* to the
//! relaxed process `R` (Definition 5.2) if every concurrent schedule
//! admits a mapping of completed operations of `D` onto transitions of
//! `R` preserving outputs and the order of non-overlapping operations.
//! Our recorded histories construct that mapping explicitly: each
//! operation carries an *update stamp* drawn inside its atomic update
//! step, so stamp order is a legal linearization order (stamps lie
//! within operation intervals), and replaying in stamp order yields the
//! sequential path whose costs Definition 5.2 talks about.
//!
//! The path from operations to a verdict exists once. A
//! [`history::Recorder`] owns the stamp counter (the workspace's one
//! fetch-and-add word, [`ExactCounter`](crate::ExactCounter)), the
//! per-thread logs and
//! their salvage when a thread dies; [`artifact`] packages what it
//! recorded with the metadata that selects its envelope, in a versioned
//! serialized form (`.histjsonl`); and [`checker::judge`] reads replay,
//! cost samples, bound and within/vacuous decision off the artifact
//! alone. Which ops' costs are a metric's samples
//! ([`HistoryArtifact::metric_costs`]) and which bound they must meet
//! ([`checker::envelope`], also held against the backends' online
//! samples) are each decided once, in [`checker`]. The workload backends judging a run in-process and
//! `histcheck` judging the exported file long afterwards therefore call
//! the same function on the same data — the offline numbers equal the
//! in-process ones by construction.

pub mod artifact;
pub mod checker;
#[cfg(test)]
mod exact;
pub mod history;
pub mod lts;
pub mod relaxation;
pub mod specs;

pub use artifact::{ArtifactError, ArtifactHistory, HistoryArtifact};
pub use checker::{
    check_distributional, envelope, judge, replay_artifact, Envelope, Kind, ReplayOutcome, Verdict,
};
pub use history::{Event, History, Recorder, ThreadLog};
pub use lts::SequentialSpec;
pub use relaxation::{CostDistribution, QuantitativeRelaxation};
pub use specs::{CounterOp, CounterSpec, FifoOp, FifoSpec, PqOp, PqSpec};
