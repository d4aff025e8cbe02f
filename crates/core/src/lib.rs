//! # txproc-core
//!
//! Formal model and decision procedures for **concurrency control and
//! recovery in transactional process management**, reproducing
//! H. Schuldt, G. Alonso, H.-J. Schek (PODS 1999).
//!
//! The paper extends the unified theory of concurrency control and recovery
//! [SWY93, AVA⁺94, VHYBS98] to *transactional processes* — partially ordered
//! invocations of transactional services that are compensatable, pivot, or
//! retriable, with preference-ordered alternative execution paths in the
//! style of flexible transactions [ELLR90, ZNBB94]. Its central result is a
//! single correctness criterion, **prefix-reducibility of completed process
//! schedules (PRED)**, which simultaneously guarantees serializability and
//! process-recoverability (Theorem 1).
//!
//! ## Layout
//!
//! | module | paper element |
//! |---|---|
//! | [`ids`] | identifiers for services, processes, activities; the sorted id table `IdIndex` |
//! | [`activity`] | Â and termination guarantees (Defs 1–4) |
//! | [`conflict`] | commutativity / conflicts with perfect closure (Def 6) |
//! | [`process`] | the process model `P = (A, ≪, ◁)` (Def 5) |
//! | [`flex`] | well-formed flex structure, guaranteed termination |
//! | [`state`] | per-process execution machine, completions 𝒞(P) |
//! | [`spec`] | catalog + conflicts + process registry |
//! | [`schedule`] | process schedules and histories (Def 7) |
//! | [`serializability`] | conflict graphs (§3.2) |
//! | [`completion`] | completed process schedules S̃ (Def 8) |
//! | [`reduction`] | reducibility RED (Def 9) |
//! | [`pred`] | prefix-reducibility PRED (Def 10) |
//! | [`pred_incremental`] | incremental event-by-event PRED certifier |
//! | [`recoverability`] | Proc-REC (Def 11), Theorem 1, SOT discussion |
//! | [`protocol`] | the online scheduling protocol (Lemmas 1–3, §3.5) |
//! | [`trace`] | structured decision tracing (event journal, sinks, explain) |
//! | [`wal`] | durable write-ahead journal (framed records, fsync policies) |
//! | [`telemetry`] | phase-duration histograms, phase timers, Prometheus/JSON export |
//! | [`weak`] | strong vs. weak orders (§3.6) |
//! | [`fixtures`] | the paper's running examples, ready made |
//!
//! ## Quick start
//!
//! ```
//! use txproc_core::fixtures;
//! use txproc_core::pred::check_pred;
//! use txproc_core::schedule::Schedule;
//!
//! // Figure 4(a)'s interleaving of the paper's processes P₁ and P₂:
//! let fx = fixtures::paper_world();
//! let mut s = Schedule::new();
//! s.execute(fx.a(1, 1))
//!     .execute(fx.a(2, 1))
//!     .execute(fx.a(2, 2))
//!     .execute(fx.a(2, 3))
//!     .execute(fx.a(1, 2))
//!     .execute(fx.a(2, 4))
//!     .execute(fx.a(1, 3));
//! let report = check_pred(&fx.spec, &s).unwrap();
//! // Example 6: the schedule is reducible — but Example 8: not PRED.
//! assert!(report.reducible());
//! assert!(!report.pred);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activity;
mod bits;
pub mod completion;
pub mod compose;
pub mod conflict;
pub mod domains;
pub mod dot;
pub mod error;
pub mod fixtures;
pub mod flex;
pub mod ids;
pub mod order;
pub mod pred;
pub mod pred_incremental;
pub mod process;
pub mod protocol;
pub mod recoverability;
pub mod reduction;
pub mod schedule;
pub mod serializability;
pub mod spec;
pub mod state;
pub mod telemetry;
pub mod trace;
pub mod wal;
pub mod weak;

pub use activity::{Catalog, Termination};
pub use conflict::{ConflictMatrix, ConflictOracle};
pub use domains::{naive_components, DomainPartition, UnionFind};
pub use error::{ModelError, ScheduleError};
pub use ids::{ActivityId, GlobalActivityId, ProcessId, ServiceId};
pub use pred::{check_pred, is_pred};
pub use pred_incremental::{check_pred_incremental, IncrementalPred, StepVerdict};
pub use process::{Process, ProcessBuilder};
pub use schedule::{Event, Schedule};
pub use spec::Spec;
pub use telemetry::{Phase, Registry, Snapshot, Telemetry};
pub use trace::{Journal, NoopSink, TraceEvent, TraceRecord, TraceSink};
pub use wal::{DurabilityPolicy, MemWal, WalRecord, WalWriter};
