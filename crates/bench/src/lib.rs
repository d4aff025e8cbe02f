//! # txproc-bench
//!
//! Experiment suite, `txproc` CLI and Criterion microbenchmarks for the
//! PODS'99 transactional-process-management reproduction.
//!
//! * [`scenarios`] — the paper's schedules (Figures 4, 7, 9) as histories
//!   and the CIM scenario (Figure 1) deployed as an executable workload,
//! * [`experiments`] — experiments E1–E17, E21, E22 and E25 (see
//!   `EXPERIMENTS.md`): each regenerates one figure/result of the paper or
//!   one extrapolated study and self-assesses against its claim. All are
//!   deterministic — no pass condition reads a wall clock — and the
//!   `every_experiment_passes` test runs the lot,
//! * [`tables`] — text-table rendering for the `report` binary.
//!
//! Run `cargo run -p txproc-bench --bin report` for the full report, or
//! `cargo bench` for the Criterion microbenchmarks (one per figure plus the
//! performance studies). Nothing here times a run end to end: that is the
//! repository benchmark's job (`BENCHMARK.json`, `benchmark/`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod scenarios;
pub mod tables;

pub use experiments::{all_ids, run_experiment};
pub use tables::{render_experiment, ExperimentResult, Table};
