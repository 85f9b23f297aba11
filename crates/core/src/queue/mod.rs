//! Relaxed concurrent queues (Section 7 of the paper).
//!
//! * [`MultiQueue`] — Algorithm 2: `m` lock-protected sequential
//!   priority queues; a [`Policy`] decides which queue each operation
//!   touches (fresh two-choice sampling by default). Section 7.1's
//!   relaxed FIFO is the same structure with clock-tick priorities
//!   drawn from an [`ExactCounter`](crate::ExactCounter).
//! * [`MqHandle`] — the one operational surface: per-thread RNG +
//!   policy state, insert / dequeue and their batch and deadline-bounded
//!   forms, and the orthogonal [`stamped`](MqHandle::stamped) history
//!   mode (a stamped single insert / dequeue). Every operation runs on
//!   one.
//! * [`policy`] — the choice process: one [`Policy`] type (best of `d`
//!   hints per dequeue, camps of `s` same-kind ops), built from the
//!   declarative [`PolicyCfg`] (two-choice, d-choice, sticky).

mod multiqueue;
pub mod policy;

pub use multiqueue::{
    DeleteMode, MqHandle, MqOpTimeout, MultiQueue, MultiQueueBuilder, SalvageOutcome, Stamped,
};
pub use policy::{ChoiceOp, Policy, PolicyCfg};
