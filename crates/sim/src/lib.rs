//! # dlz-sim — the paper's load-balancing processes, executable
//!
//! Section 6 of *Distributionally Linearizable Data Structures* (SPAA
//! 2018) analyzes the MultiCounter by reducing it to a balls-into-bins
//! process with stale, adversarially scheduled information. This crate
//! implements every process appearing in that analysis so the theorems
//! can be checked numerically and the figures regenerated:
//!
//! * [`process`] — the one allocation process, [`Allocation`], and
//!   the [`Rule`] that picks its step: greedy d-choice (two-choice at
//!   d = 2, the divergent single-choice control at d = 1), the
//!   (1+β)-choice process of Peres–Talwar–Wieder, the paper's
//!   concurrency model of stale reads under an oblivious adversary's
//!   [`Schedule`] (Section 6.1), the ε-corrupted process at the heart
//!   of the proof ([`CorruptionPattern`], Section 6.3), and the
//!   exponentially-weighted stale process used for MultiQueues
//!   (Theorem 7.1).
//! * [`queue_process`] — the sequential MultiQueue rank process of
//!   Alistarh et al. \[3\], with exact rank tracking via a Fenwick tree,
//!   plus its stale-read variant.
//! * [`potential`] — the potential functions Φ, Ψ, Γ of the analysis
//!   and the constants (β, ε, α) the paper derives.
//! * [`bins`], [`fenwick`] — shared substrate.
//! * [`wheel`] — a hierarchical timer wheel (the binning idiom applied
//!   to virtual time) scheduling the workload layer's simulated-client
//!   arrivals deterministically.

#![warn(missing_docs)]

pub mod bins;
pub mod fenwick;
pub mod potential;
pub mod process;
pub mod queue_process;
pub mod wheel;

// Tests of the stale-read rules (Section 6.1, Theorem 7.1) and of the
// corrupted rule (Section 6.3), beside `process`'s own.
mod adversary;
mod corrupted;

pub use bins::BinState;
pub use fenwick::Fenwick;
pub use potential::{PaperConstants, PotentialTrace};
pub use process::{Allocation, CorruptionPattern, Rule, Schedule};
pub use queue_process::QueueProcess;
pub use wheel::TimerWheel;
