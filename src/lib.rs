//! # distlin — Distributionally Linearizable Data Structures
//!
//! A Rust reproduction of *"Distributionally Linearizable Data
//! Structures"* (Alistarh, Brown, Kopinsky, Li, Nadiradze — SPAA 2018,
//! arXiv:1804.01018): relaxed concurrent data structures whose deviation
//! from the sequential specification is a random variable with provable
//! tail bounds, rather than a deterministic relaxation factor.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`core`] ([`dlz_core`]) — the paper's contributions: the
//!   [`MultiCounter`](dlz_core::MultiCounter) (Algorithm 1), the
//!   [`MultiQueue`](dlz_core::MultiQueue) (Algorithm 2), and the
//!   executable distributional-linearizability framework (Section 5).
//! * [`pq`] ([`dlz_pq`]) — the priority-queue substrate: the binary
//!   heap and the lock-based linearizable queues Algorithm 2 builds
//!   on.
//! * [`sim`] ([`dlz_sim`]) — the analysis objects of Section 6 as code:
//!   sequential, (1+β), adversarial stale-read and ε-corrupted
//!   load-balancing processes, with potential-function tracking.
//! * [`stm`] ([`dlz_stm`]) — a from-scratch TL2 software transactional
//!   memory whose global clock can be swapped for a MultiCounter — the
//!   relaxed clock of Section 8.
//! * [`workload`] ([`dlz_workload`]) — the scenario/traffic-generation
//!   subsystem: declarative workloads (op mixes, Zipf/uniform/monotone
//!   distributions, open/closed/bursty arrivals) driven concurrently
//!   against any backend above through one `Backend` trait, with
//!   latency histograms and per-backend quality metrics (read
//!   deviation, dequeue rank) wired to the checker.
//!
//! ## Quickstart
//!
//! ```
//! use distlin::core::{MultiCounter, RelaxedCounter};
//!
//! // A relaxed counter over 64 cache-padded atomic cells.
//! let counter = MultiCounter::new(64);
//! for _ in 0..10_000 {
//!     counter.increment();
//! }
//! // Reads are approximate: a random cell times the number of cells.
//! let approx = counter.read();
//! let exact = counter.read_exact();
//! assert_eq!(exact, 10_000);
//! // The paper bounds |approx - exact| by O(m log m) w.h.p.
//! assert!((approx as i64 - exact as i64).unsigned_abs() < 64 * 64);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! binaries that regenerate every figure of the paper.

pub use dlz_core as core;
pub use dlz_pq as pq;
pub use dlz_sim as sim;
pub use dlz_stm as stm;
pub use dlz_workload as workload;
