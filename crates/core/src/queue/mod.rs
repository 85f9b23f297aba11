//! Relaxed concurrent queues (Section 7 of the paper).
//!
//! * [`MultiQueue`] — Algorithm 2: `m` lock-protected sequential
//!   priority queues; a [`Policy`] decides which queue each operation
//!   touches (fresh two-choice sampling by default).
//! * [`MqHandle`] — the operational surface: per-thread RNG + policy
//!   state, the five generic operations, and the orthogonal
//!   [`stamped`](MqHandle::stamped) history mode.
//! * [`policy`] — the choice process: one [`Policy`] type (best of `d`
//!   hints per dequeue, camps of `s` same-kind ops), built from the
//!   declarative [`PolicyCfg`] (two-choice, d-choice, sticky).
//! * [`RelaxedFifo`] — the queue-like façade: priorities are timestamps
//!   drawn from a [`Clock`](crate::clock::Clock), so dequeues return an
//!   element among the roughly O(m log m) oldest (Theorem 7.1).

mod multiqueue;
pub mod policy;
mod relaxed_fifo;

pub use multiqueue::{
    DeleteMode, MqHandle, MqOpTimeout, MultiQueue, MultiQueueBuilder, SalvageOutcome, Stamped,
};
pub use policy::{ChoiceOp, Policy, PolicyCfg};
pub use relaxed_fifo::RelaxedFifo;
