//! # dlz-core — the paper's data structures and correctness framework
//!
//! Core crate of the reproduction of *"Distributionally Linearizable
//! Data Structures"* (Alistarh, Brown, Kopinsky, Li, Nadiradze — SPAA
//! 2018, arXiv:1804.01018).
//!
//! ## What the paper contributes, and where it lives here
//!
//! | Paper | Here |
//! |---|---|
//! | Algorithm 1 (MultiCounter) | [`MultiCounter`] |
//! | Algorithm 2 (MultiQueue) | [`MultiQueue`], [`RelaxedFifo`] |
//! | Section 5 (distributional linearizability) | [`spec`] |
//! | Section 8 (relaxed timestamps) | [`clock`] |
//!
//! ## The MultiCounter in one paragraph
//!
//! `m` cache-padded atomic counters stand in for one logical counter.
//! An increment samples two cells uniformly, reads both, and atomically
//! increments whichever *looked* smaller; a read samples one cell and
//! multiplies by `m`. Sequentially this is the classic two-choice
//! balanced-allocation process, whose max-minus-average gap is
//! `O(log log m)`; concurrently the reads can be stale and the paper's
//! central theorem (6.1) shows the process still keeps an `O(log m)`
//! gap — hence reads deviate from the true count by `O(m log m)` —
//! under any oblivious schedule, provided `m ≥ C·n` for a large
//! constant `C`.
//!
//! ## Guarantees, precisely
//!
//! The structures here are **not** linearizable to their exact
//! sequential specifications — that is the point. They are
//! *distributionally linearizable* (Definition 5.2): every execution
//! maps onto a path of a relaxed sequential process whose per-step
//! costs (read deviation, dequeue rank) are random variables with
//! bounded tails. The [`spec`] module makes the definition executable:
//! record a history with update-point stamps, replay it through the
//! completed LTS, get the empirical cost distribution.
//!
//! ## Example
//!
//! ```
//! use dlz_core::{MultiCounter, RelaxedCounter};
//!
//! let c = MultiCounter::builder().counters(32).seed(1).build();
//! std::thread::scope(|s| {
//!     for _ in 0..2 {
//!         s.spawn(|| {
//!             for _ in 0..10_000 {
//!                 c.increment();
//!             }
//!         });
//!     }
//! });
//! assert_eq!(c.read_exact(), 20_000);       // increments are never lost
//! let err = (c.read() as i64 - 20_000).unsigned_abs();
//! assert!(err <= 32 * c.max_gap() + 32);    // reads are m·(cell), cell within gap of mean
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod counter;
pub mod json;
pub mod queue;
pub mod rng;
pub mod spec;

pub use clock::{Clock, FaaClock, ManualClock, MonotonicNanoClock, MultiCounterClock};
pub use counter::{
    DChoiceCounter, ExactCounter, MultiCounter, MultiCounterBuilder, PendingIncrement,
    RelaxedCounter, ShardedCounter,
};
pub use dlz_pq::ContentionStats;
pub use queue::{
    ChoiceOp, DeleteMode, MqHandle, MqOpTimeout, MultiQueue, MultiQueueBuilder, Policy, PolicyCfg,
    RelaxedFifo, SalvageOutcome, Stamped,
};
