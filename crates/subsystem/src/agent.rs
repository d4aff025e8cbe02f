//! Transactional coordination agents (§2.3).
//!
//! An agent wraps a subsystem and lifts its local transactions to the
//! service abstraction the process scheduler needs:
//!
//! * **atomic service invocations** — a service's program runs inside one
//!   local transaction; it either commits or leaves no trace,
//! * **compensation** — for compensatable services, the agent captures the
//!   forward invocation's before-images and synthesizes the compensating
//!   program so that `⟨a, a⁻¹⟩` is effect-free (Definition 2): the
//!   operation-level inverse of what ran, derived from the undo log while
//!   the transaction is still open (the subsystem keeps none once it
//!   finishes), stored once in the agent's arena of inverse operations and
//!   run in place from there,
//! * **deferred commit** — non-compensatable services can execute under 2PC
//!   prepare, staying in doubt until the scheduler releases them (§3.5),
//! * **failure injection** — the caller decides per invocation whether the
//!   subsystem aborts it, modelling pivot failures and transient retriable
//!   aborts (Definitions 3 and 4).

use crate::error::SubsystemError;
use crate::kv::{Key, KvOp, Program};
use crate::subsystem::{ReturnValues, Subsystem, SubsystemId, TxId, TxStatus, UndoOp};
use txproc_core::ids::ServiceId;

/// Identifier of one service invocation at an agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InvocationId(pub u64);

/// How the invocation's local transaction terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitMode {
    /// Commit at the subsystem immediately.
    Immediate,
    /// Prepare only; the scheduler releases the commit later via 2PC.
    Deferred,
}

/// Outcome of a service invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeOutcome {
    /// The invocation committed.
    Committed {
        /// Handle for later compensation.
        invocation: InvocationId,
        /// The values the service read.
        returns: ReturnValues,
    },
    /// The invocation executed and is prepared (in doubt).
    Prepared {
        /// Handle for release/abort.
        invocation: InvocationId,
        /// The values the service read.
        returns: ReturnValues,
    },
    /// The invocation aborted atomically (no effects).
    Aborted,
    /// A key is locked by another (prepared) transaction; retry later.
    Busy {
        /// The contended key.
        key: Key,
    },
}

#[derive(Debug, Clone)]
struct InvocationRecord {
    service: ServiceId,
    tx: TxId,
    /// Where the compensating program, derived from before-images in
    /// reverse write order, lies in [`Agent::inverses`].
    inverse: (usize, usize),
    compensated: bool,
}

/// A transactional coordination agent wrapping one subsystem.
#[derive(Debug, Clone)]
pub struct Agent {
    /// The wrapped subsystem.
    pub subsystem: Subsystem,
    /// Every invocation that ran, indexed by its (dense) id; an aborted
    /// prepared one is gone.
    invocations: Vec<Option<InvocationRecord>>,
    /// The operations of every invocation's compensating program, one range
    /// per invocation, stored once and run in place.
    inverses: Vec<KvOp>,
}

impl Agent {
    /// Wraps a subsystem.
    pub fn new(subsystem: Subsystem) -> Self {
        Self {
            subsystem,
            invocations: Vec::new(),
            inverses: Vec::new(),
        }
    }

    /// The wrapped subsystem's id.
    pub fn id(&self) -> SubsystemId {
        self.subsystem.id
    }

    /// Invokes a service program.
    ///
    /// `inject_abort` simulates the subsystem aborting the transaction
    /// (pivot failure / transient retriable failure): the program executes
    /// and rolls back, leaving no trace.
    pub fn invoke(
        &mut self,
        service: ServiceId,
        program: &Program,
        mode: CommitMode,
        inject_abort: bool,
    ) -> Result<InvokeOutcome, SubsystemError> {
        let (tx, returns) = match self.subsystem.execute(program) {
            Ok(x) => x,
            Err(SubsystemError::KeyLocked { key, .. }) => return Ok(InvokeOutcome::Busy { key }),
            Err(e) => return Err(e),
        };
        if inject_abort {
            self.subsystem.abort(tx)?;
            return Ok(InvokeOutcome::Aborted);
        }
        // Derive the compensating program from the undo log, in reverse
        // write order, while the transaction is still open: `Set` restores
        // the before-image, `Add` applies the negated delta (so concurrent
        // commuting adds compensate correctly).
        let start = self.inverses.len();
        let undo = self.subsystem.tx_undo(tx).expect("open transaction");
        self.inverses.extend(undo.iter().rev().map(|&u| match u {
            UndoOp::Restore(key, before) => KvOp::Set(key, before.unwrap_or(0)),
            UndoOp::Sub(key, d) => KvOp::Add(key, -d),
        }));
        let invocation = InvocationId(self.invocations.len() as u64);
        self.invocations.push(Some(InvocationRecord {
            service,
            tx,
            inverse: (start, self.inverses.len()),
            compensated: false,
        }));
        match mode {
            CommitMode::Immediate => {
                self.subsystem.commit(tx)?;
                Ok(InvokeOutcome::Committed {
                    invocation,
                    returns,
                })
            }
            CommitMode::Deferred => {
                self.subsystem.prepare(tx)?;
                Ok(InvokeOutcome::Prepared {
                    invocation,
                    returns,
                })
            }
        }
    }

    /// Releases a deferred (prepared) invocation: 2PC phase 2 commit.
    pub fn release(&mut self, invocation: InvocationId) -> Result<(), SubsystemError> {
        let tx = self.tx_of(invocation)?;
        self.subsystem.commit_prepared(tx)
    }

    /// Aborts a deferred (prepared) invocation.
    pub fn abort_prepared(&mut self, invocation: InvocationId) -> Result<(), SubsystemError> {
        let tx = self.tx_of(invocation)?;
        self.subsystem.abort(tx)?;
        self.invocations[invocation.0 as usize] = None;
        Ok(())
    }

    fn record(&self, invocation: InvocationId) -> Option<&InvocationRecord> {
        self.invocations.get(invocation.0 as usize)?.as_ref()
    }

    fn tx_of(&self, invocation: InvocationId) -> Result<TxId, SubsystemError> {
        self.record(invocation)
            .map(|r| r.tx)
            .ok_or(SubsystemError::UnknownTx(TxId(u64::MAX)))
    }

    /// Executes the compensating activity of a committed invocation
    /// (Definition 2). Runs as its own atomic transaction; compensating
    /// activities are retriable, so a `Busy` outcome should be retried by
    /// the caller.
    pub fn compensate(
        &mut self,
        invocation: InvocationId,
    ) -> Result<InvokeOutcome, SubsystemError> {
        let record = self
            .record(invocation)
            .ok_or(SubsystemError::UnknownTx(TxId(u64::MAX)))?;
        if record.compensated {
            return Err(SubsystemError::UnknownTx(record.tx));
        }
        if self.subsystem.tx_status(record.tx) != Some(TxStatus::Committed) {
            return Err(SubsystemError::NotPrepared(record.tx));
        }
        let (start, end) = record.inverse;
        let inverse = &self.inverses[start..end];
        let (tx, returns) = match self.subsystem.execute_ops(inverse) {
            Ok(x) => x,
            Err(SubsystemError::KeyLocked { key, .. }) => return Ok(InvokeOutcome::Busy { key }),
            Err(e) => return Err(e),
        };
        self.subsystem.commit(tx)?;
        if let Some(Some(record)) = self.invocations.get_mut(invocation.0 as usize) {
            record.compensated = true;
        }
        Ok(InvokeOutcome::Committed {
            invocation,
            returns,
        })
    }

    /// The service an invocation executed.
    pub fn service_of(&self, invocation: InvocationId) -> Option<ServiceId> {
        self.record(invocation).map(|r| r.service)
    }

    /// Declares a commit-order constraint between two invocations (weak
    /// order support, §3.6).
    pub fn order_invocations(
        &mut self,
        first: InvocationId,
        second: InvocationId,
    ) -> Result<(), SubsystemError> {
        let (a, b) = (self.tx_of(first)?, self.tx_of(second)?);
        self.subsystem.order_commits(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txproc_core::activity::Catalog;

    fn setup() -> (Agent, ServiceId, ServiceId) {
        let mut cat = Catalog::new();
        let (write, _) = cat.compensatable("write");
        let pivot = cat.pivot("pivot");
        let agent = Agent::new(Subsystem::new(SubsystemId(0), "s0"));
        (agent, write, pivot)
    }

    #[test]
    fn committed_invocation_applies_effects() {
        let (mut agent, write, _) = setup();
        let out = agent
            .invoke(
                write,
                &Program::set(Key(1), 7),
                CommitMode::Immediate,
                false,
            )
            .unwrap();
        assert!(matches!(out, InvokeOutcome::Committed { .. }));
        assert_eq!(agent.subsystem.peek(Key(1)), Some(7));
    }

    #[test]
    fn injected_abort_leaves_no_trace() {
        let (mut agent, write, _) = setup();
        let out = agent
            .invoke(write, &Program::set(Key(1), 7), CommitMode::Immediate, true)
            .unwrap();
        assert_eq!(out, InvokeOutcome::Aborted);
        assert_eq!(agent.subsystem.peek(Key(1)), None);
    }

    #[test]
    fn compensation_is_effect_free() {
        // Definition 2: ⟨a, a⁻¹⟩ leaves the state as if nothing ran.
        let (mut agent, write, _) = setup();
        // Pre-existing state.
        let seed = agent
            .invoke(
                write,
                &Program::set(Key(1), 10),
                CommitMode::Immediate,
                false,
            )
            .unwrap();
        let _ = seed;
        let out = agent
            .invoke(
                write,
                &Program::set(Key(1), 99).then(KvOp::Add(Key(2), 5)),
                CommitMode::Immediate,
                false,
            )
            .unwrap();
        let InvokeOutcome::Committed { invocation, .. } = out else {
            panic!("expected commit");
        };
        assert_eq!(agent.subsystem.peek(Key(1)), Some(99));
        assert_eq!(agent.subsystem.peek(Key(2)), Some(5));
        let comp = agent.compensate(invocation).unwrap();
        assert!(matches!(comp, InvokeOutcome::Committed { .. }));
        assert_eq!(agent.subsystem.peek(Key(1)), Some(10));
        assert_eq!(agent.subsystem.peek(Key(2)), Some(0));
    }

    #[test]
    fn double_compensation_rejected() {
        let (mut agent, write, _) = setup();
        let out = agent
            .invoke(
                write,
                &Program::set(Key(1), 1),
                CommitMode::Immediate,
                false,
            )
            .unwrap();
        let InvokeOutcome::Committed { invocation, .. } = out else {
            panic!()
        };
        agent.compensate(invocation).unwrap();
        assert!(agent.compensate(invocation).is_err());
    }

    #[test]
    fn deferred_invocation_prepares_and_releases() {
        let (mut agent, _, pivot) = setup();
        let out = agent
            .invoke(pivot, &Program::set(Key(1), 1), CommitMode::Deferred, false)
            .unwrap();
        let InvokeOutcome::Prepared { invocation, .. } = out else {
            panic!("expected prepared");
        };
        // In doubt: a conflicting invocation is Busy.
        let busy = agent
            .invoke(
                pivot,
                &Program::set(Key(1), 2),
                CommitMode::Immediate,
                false,
            )
            .unwrap();
        assert!(matches!(busy, InvokeOutcome::Busy { .. }));
        agent.release(invocation).unwrap();
        assert_eq!(agent.subsystem.peek(Key(1)), Some(1));
    }

    #[test]
    fn deferred_invocation_can_abort() {
        let (mut agent, _, pivot) = setup();
        let out = agent
            .invoke(pivot, &Program::set(Key(1), 1), CommitMode::Deferred, false)
            .unwrap();
        let InvokeOutcome::Prepared { invocation, .. } = out else {
            panic!()
        };
        agent.abort_prepared(invocation).unwrap();
        assert_eq!(agent.subsystem.peek(Key(1)), None);
    }

    #[test]
    fn compensation_of_uncommitted_invocation_rejected() {
        let (mut agent, _, pivot) = setup();
        let out = agent
            .invoke(pivot, &Program::set(Key(1), 1), CommitMode::Deferred, false)
            .unwrap();
        let InvokeOutcome::Prepared { invocation, .. } = out else {
            panic!()
        };
        assert!(agent.compensate(invocation).is_err());
    }

    #[test]
    fn service_of_round_trips() {
        let (mut agent, write, _) = setup();
        let out = agent
            .invoke(
                write,
                &Program::set(Key(1), 1),
                CommitMode::Immediate,
                false,
            )
            .unwrap();
        let InvokeOutcome::Committed { invocation, .. } = out else {
            panic!()
        };
        assert_eq!(agent.service_of(invocation), Some(write));
    }

    #[test]
    fn weak_order_between_invocations() {
        let (mut agent, write, _) = setup();
        // Two add-invocations on the same key commute physically but we
        // still constrain their commit order.
        let a = agent
            .invoke(write, &Program::add(Key(1), 1), CommitMode::Deferred, false)
            .unwrap();
        let b = agent
            .invoke(write, &Program::add(Key(2), 1), CommitMode::Deferred, false)
            .unwrap();
        let (
            InvokeOutcome::Prepared { invocation: ia, .. },
            InvokeOutcome::Prepared { invocation: ib, .. },
        ) = (a, b)
        else {
            panic!()
        };
        agent.order_invocations(ia, ib).unwrap();
        assert!(agent.release(ib).is_err());
        agent.release(ia).unwrap();
        agent.release(ib).unwrap();
    }
}
