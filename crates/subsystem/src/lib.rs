//! # txproc-subsystem
//!
//! Simulated **transactional subsystems** for transactional process
//! management (§2.3 of the PODS'99 paper): the substrate the process
//! scheduler coordinates.
//!
//! The paper assumes subsystems that provide (i) atomic service invocations,
//! (ii) either compensation of committed services or two-phase-commit
//! participation, and (iii) — for the weak orders of §3.6 — commit-order
//! serializability. This crate builds exactly that substrate:
//!
//! * [`kv`] — the physical data model: keyed integer stores mutated by small
//!   operation programs whose read/write sets materialize conflicts,
//! * [`subsystem`] — the resource manager: local transactions with write
//!   locks and undo, 2PC participation (prepare / commit /
//!   abort of in-doubt transactions) and commit-order constraints,
//! * [`deploy`] — the mapping from catalog services to subsystems and
//!   programs, with a soundness check of the declared conflict relation,
//! * [`agent`] — the transactional coordination agent wrapping a subsystem:
//!   atomic invocations, derived compensation programs (Definition 2),
//!   deferred commits, failure injection,
//! * [`tpc`] — the 2PC coordinator releasing deferred commits atomically
//!   (§3.5), with a decision log and in-doubt resolution for crash recovery.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agent;
pub mod deploy;
pub mod error;
pub mod kv;
pub mod subsystem;
pub mod tpc;

pub use agent::{Agent, CommitMode, InvocationId, InvokeOutcome};
pub use deploy::{Deployment, ServiceSite};
pub use error::SubsystemError;
pub use kv::{Key, KvOp, Program, Value};
pub use subsystem::{ReturnValues, Subsystem, SubsystemId, TxId, TxStatus};
pub use tpc::{Coordinator, Decision, Participant};
