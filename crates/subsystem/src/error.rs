//! Errors of the simulated transactional subsystems.

use crate::kv::Key;
use crate::subsystem::TxId;
use std::fmt;

/// Subsystem-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubsystemError {
    /// The key is write-locked by another transaction; the caller should
    /// wait and retry.
    KeyLocked {
        /// The contended key.
        key: Key,
        /// The lock holder.
        holder: TxId,
    },
    /// Unknown or already-terminated transaction.
    UnknownTx(TxId),
    /// Operation requires a prepared transaction.
    NotPrepared(TxId),
    /// A transaction was asked to commit out of its declared commit order.
    CommitOrderViolation {
        /// The transaction that must commit first.
        must_commit_first: TxId,
        /// The transaction that attempted to commit.
        attempted: TxId,
    },
    /// The subsystem deliberately aborted the transaction (failure
    /// injection).
    InjectedAbort,
}

impl fmt::Display for SubsystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubsystemError::KeyLocked { key, holder } => {
                write!(f, "key {key} locked by {holder:?}")
            }
            SubsystemError::UnknownTx(t) => write!(f, "unknown transaction {t:?}"),
            SubsystemError::NotPrepared(t) => write!(f, "transaction {t:?} is not prepared"),
            SubsystemError::CommitOrderViolation {
                must_commit_first,
                attempted,
            } => write!(
                f,
                "transaction {attempted:?} must wait for {must_commit_first:?} (commit order)"
            ),
            SubsystemError::InjectedAbort => write!(f, "transaction aborted (injected failure)"),
        }
    }
}

impl std::error::Error for SubsystemError {}
