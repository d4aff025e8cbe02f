//! # txproc-engine
//!
//! A WISE-style **transactional process scheduler** (the system the PODS'99
//! paper's conclusion describes): it executes processes with guaranteed
//! termination over simulated transactional subsystems while keeping the
//! emitted history prefix-reducible (PRED) — the paper's unified
//! concurrency-control-and-recovery criterion.
//!
//! * [`policy`] — scheduling policies: the paper's PRED protocol
//!   (Lemmas 1–3, §3.5) and three baselines (serial, conservative
//!   process-level locking, and an *unsafe* concurrency-control-only
//!   scheduler that demonstrates why recovery must be considered jointly),
//! * [`concurrent`] — the scheduler step (admission control, the Lemma 2/3
//!   completion gates, certification, failure injection, alternative
//!   execution paths, compensation, deferred 2PC commits, cascading aborts,
//!   the journal, metrics) and its wall-clock driver: conflict-domain shards
//!   stepped by an event-driven worker pool (stress-tested for PRED),
//! * [`engine`] — the same step on a virtual clock: a deterministic
//!   discrete-event loop over one shard holding every process,
//! * [`recovery`] — scheduler crash recovery (§3.3, Definition 8): one
//!   shard restored from the durable state, every live process aborted,
//!   and the shard run as an event worker runs it until the completions
//!   are done.
//!
//! [`RunBuilder`] is the one entry point for a run (either driver, with
//! tracing / phase telemetry / WAL journaling composed) and
//! [`Recovery`] the one for recovery; [`run`], [`run_concurrent`] and
//! [`recover`] are their no-option shorthands. The two drivers and recovery
//! all run one implementation of the protocol's transitions.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
mod certify;
pub mod concurrent;
pub mod durability;
pub mod engine;
pub mod policy;
pub mod recovery;

// The journal replay the scripted tests in `concurrent` hold a shard's
// decisions to, shared with the integration tests.
#[cfg(test)]
#[allow(dead_code)]
#[path = "../tests/support/protocol_replay.rs"]
mod protocol_replay;
#[cfg(test)]
#[path = "../../core/tests/support/scan_protocol.rs"]
mod scan_protocol;

pub use builder::{RunBuilder, RunOutcome};
pub use concurrent::{run_concurrent, ConcurrentConfig, ConcurrentResult, ShardMode};
pub use engine::{run, Engine, RunConfig, RunResult};
pub use policy::{Policy, PolicyKind};
pub use recovery::{recover, CrashImage, Recovery, RecoveryError, RecoveryReport, RecoverySource};
