//! # dlz-bench — figure regeneration harness
//!
//! Shared machinery for the binaries that regenerate every figure of
//! the paper (see `src/bin/`):
//!
//! * [`tables`] — aligned-column table output.
//! * [`config`] — tiny CLI configuration shared by all binaries
//!   (`--threads 1,2,4`, `--duration-ms 300`, `--quick`, ...).
//!
//! The figure binaries (`fig1a`, `fig1b`, `fig1cde`, `mq_rank`) are
//! thin wrappers over the `dlz-workload` scenario engine; the
//! `scenarios` binary runs the whole named catalog and emits JSON:
//!
//! ```text
//! cargo run -p dlz-bench --release --bin scenarios -- --list
//! cargo run -p dlz-bench --release --bin fig1a -- --threads 1,2,4 --duration-ms 500
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod tables;

pub use config::Config;
pub use tables::Table;
