//! # txproc-sim
//!
//! Deterministic discrete-event simulation substrate and synthetic workload
//! generation for the transactional-process-management experiments.
//!
//! * [`clock`] — virtual time and a deterministic event queue,
//! * [`workload`] — seeded generation of processes with guaranteed
//!   termination, service pools with physical programs, and a conflict
//!   structure controlled by `conflict_density`,
//! * [`metrics`] — counters and latency statistics collected per run,
//! * [`scenario`] — named adversarial workload shapes with machine-checked
//!   acceptance envelopes, shared by the benchmark and the gauntlet.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod metrics;
pub mod scenario;
pub mod workload;

pub use clock::{EventQueue, SimTime};
pub use metrics::{Metrics, RuntimeMetrics, ShardMetrics};
pub use scenario::{Envelope, Scenario};
pub use workload::{generate, try_generate, Workload, WorkloadConfig, WorkloadError};
