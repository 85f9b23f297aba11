//! # dlz-workload — scenario-driven traffic generation for every
//! backend in the workspace
//!
//! The paper's guarantees are *distributional*: rank error and read
//! deviation are random variables whose tails depend on the workload —
//! arrival pattern, op mix, contention, skew. One synthetic loop cannot
//! exercise that; this crate makes workloads first-class:
//!
//! * [`Scenario`] — a declarative workload: thread count, op budget or
//!   duration, [`OpMix`], key/priority/weight [`Dist`]ributions
//!   (uniform, Zipf, monotone), a closed loop or a simulated-client
//!   population with an [`ArrivalShape`], prefill, seed. A named
//!   [`Scenario::catalog`] ships ≥ 6 presets.
//! * [`Backend`] — the single interface every structure implements:
//!   relaxed counters, the MultiQueue, the exact one-lock `dlz-pq`
//!   queue, and the TL2 STM
//!   (see [`backends`]).
//! * [`engine::run`] — the concurrent driver: barrier start, sharded
//!   metrics, deterministic fixed-op or wall-clock budgets.
//! * [`SweepSpec`] / [`engine::run_sweep`] — declarative sweep grids:
//!   a base scenario × axes (threads, choice policy, mix, skew,
//!   clients, arrival shape, seed) expanded into named cells
//!   (`queue-balanced/t=8/policy=sticky(s=16)`), executed cell by cell,
//!   one grid-tagged [`RunReport`] per (cell × backend).
//! * [`metrics`] — log-bucketed latency histogram (p50/p99/p999 at ~3%
//!   resolution) merged from per-worker shards.
//! * [`clients`] — the simulated-client traffic frontend: a
//!   hierarchical timer wheel schedules 100k–1M open-loop clients over
//!   the worker pool, each with its own seeded [`ArrivalShape`]
//!   (Poisson, periodic, bursty, diurnal, flash crowd) and op-mix
//!   stream; latency is measured from *intended* arrival and split
//!   into queueing + service, defeating coordinated omission.
//! * Quality wiring — counter backends sample read deviation against
//!   the exact sum (Lemma 6.8's metric); with `record_history` on,
//!   counter, queue and FIFO backends record a stamped history through
//!   `dlz_core::spec::Recorder` and report what `dlz_core::spec::judge`
//!   finds in it (exact deviations, ranks and positions against the
//!   envelope). A queue or FIFO rank comes from the judge alone: without
//!   a history those reports carry no samples. STM backends report
//!   abort breakdowns and verify the paper's array-sum safety law.
//! * [`RunReport`] — machine-readable results
//!   ([`RunReport::to_json`]).
//!
//! ## Example
//!
//! ```
//! use dlz_workload::{engine, backends::CounterBackend, Budget, Family, OpMix, Scenario};
//!
//! let scenario = Scenario::builder("demo", Family::Counter)
//!     .threads(2)
//!     .budget(Budget::OpsPerWorker(10_000))
//!     .mix(OpMix::new(90, 0, 10))
//!     .seed(7)
//!     .build();
//! let backend = CounterBackend::multicounter(32);
//! let report = engine::run(&scenario, &backend);
//! assert!(report.verified());          // no increment was lost
//! assert_eq!(report.total_ops(), 20_000);
//! println!("{}", report.to_json());    // throughput, p50/p99, deviation
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod backends;
pub mod clients;
pub mod dist;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod op;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use backend::{Backend, QualityReport, QualitySummary, Worker, WorkerCfg};
pub use clients::{ArrivalShape, ClientReport, ClientStats};
pub use dist::{Dist, Sampler};
pub use engine::{run, run_sweep, run_sweep_shared};
pub use faults::{Fault, FaultPlan, WorkerFaults};
pub use metrics::{
    IntervalSnapshot, LatencySummary, LogHistogram, TelemetrySample, TelemetrySeries, WorkerMetrics,
};
pub use op::{Op, OpCounts, OpKind, OpMix};
pub use report::{FaultReport, RunReport, WorkerOutcome};
pub use scenario::{Budget, Family, Scenario, ScenarioBuilder};
pub use sweep::{SweepCell, SweepSpec};
