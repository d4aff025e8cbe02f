//! # txproc-bench
//!
//! Benchmark harness and experiment report generator for the PODS'99
//! transactional-process-management reproduction.
//!
//! * [`scenarios`] — the paper's schedules (Figures 4, 7, 9) as histories
//!   and the CIM scenario (Figure 1) deployed as an executable workload,
//! * [`experiments`] — experiments E1–E17 (see `EXPERIMENTS.md`): each
//!   regenerates one figure/result of the paper or one extrapolated
//!   measurement, and self-assesses against the paper's claim,
//! * [`tables`] — text-table rendering for the `report` binary,
//! * [`perf`] — the scheduler perf trajectory (`txproc bench`): scalability
//!   runs written to `BENCH_scheduler.json` (E19).
//!
//! Run `cargo run -p txproc-bench --bin report` for the full report, or
//! `cargo bench` for the Criterion microbenchmarks (one per figure plus the
//! performance studies).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod perf;
pub mod scenarios;
pub mod tables;

pub use experiments::{all_ids, run_experiment};
pub use tables::{render_experiment, ExperimentResult, Table};
