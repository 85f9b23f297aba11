//! # dlz-sim — the paper's load-balancing processes, executable
//!
//! Section 6 of *Distributionally Linearizable Data Structures* (SPAA
//! 2018) analyzes the MultiCounter by reducing it to a balls-into-bins
//! process with stale, adversarially scheduled information. This crate
//! implements every process appearing in that analysis so the theorems
//! can be checked numerically and the figures regenerated:
//!
//! * [`process`] — the classical sequential processes: greedy
//!   d-choice (two-choice at d = 2, the divergent single-choice control
//!   at d = 1), the (1+β)-choice process of Peres–Talwar–Wieder, and the
//!   exponentially-weighted variant used for MultiQueues (Theorem 7.1).
//! * [`adversary`] — the paper's concurrency model (Section 6.1):
//!   operations read bin values at one time and update at a later time
//!   chosen by an oblivious adversary; random choices are deferred to
//!   update time. Includes the batch-stampede schedule the paper uses
//!   to show adversarial bias.
//! * [`corrupted`] — the ε-corrupted process at the heart of the proof:
//!   an adversarially chosen fraction of steps insert into the *more*
//!   loaded bin.
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

pub mod adversary;
pub mod bins;
pub mod corrupted;
pub mod fenwick;
pub mod potential;
pub mod process;
pub mod queue_process;
pub mod wheel;

pub use adversary::{AsyncTwoChoice, AsyncWeightedTwoChoice, Schedule};
pub use bins::BinState;
pub use corrupted::{CorruptedTwoChoice, CorruptionPattern};
pub use fenwick::Fenwick;
pub use potential::{PaperConstants, PotentialTrace};
pub use process::{BallsProcess, DChoice, OnePlusBeta};
pub use queue_process::QueueProcess;
pub use wheel::TimerWheel;
