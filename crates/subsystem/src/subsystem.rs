//! A simulated transactional subsystem (§2.3): a resource manager with
//! atomic local transactions, write locks, a durable log, two-phase commit
//! participation (prepare / commit / abort of in-doubt transactions), and
//! optional commit-order serializability for weak orders (§3.6, \[BBG89\]).

use crate::error::SubsystemError;
use crate::kv::{Key, KvOp, Program, Value};
use std::collections::BTreeMap;

/// Identifier of a subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubsystemId(pub u32);

/// Identifier of a local transaction within one subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

/// Lifecycle of a local transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxStatus {
    /// Running.
    #[default]
    Active,
    /// Voted yes in 2PC; in doubt until commit/abort.
    Prepared,
    /// Durably committed.
    Committed,
    /// Rolled back.
    Aborted,
}

/// Durable log records (used by the crash-recovery simulation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction began.
    Begin(TxId),
    /// A write with its before-image.
    Write {
        /// Writing transaction.
        tx: TxId,
        /// Written key.
        key: Key,
        /// Value before the write (None: key absent).
        before: Option<Value>,
        /// Value after the write.
        after: Value,
    },
    /// Transaction prepared (2PC vote yes).
    Prepare(TxId),
    /// Transaction committed.
    Commit(TxId),
    /// Transaction aborted.
    Abort(TxId),
}

/// One undo-log entry. `Add` operations use operation-based undo so that
/// concurrent additive transactions (which commute) roll back correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UndoOp {
    /// Restore a before-image (undo of `Set`).
    Restore(Key, Option<Value>),
    /// Subtract a delta (undo of `Add`).
    Sub(Key, Value),
}

/// Lock state of one key.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LockState {
    /// Held exclusively (a `Set` writer).
    Exclusive(TxId),
    /// Held additively by commuting `Add` writers.
    Additive(Vec<TxId>),
}

#[derive(Debug, Clone, Default)]
struct TxState {
    /// Undo log in write order.
    undo: Vec<UndoOp>,
    /// Keys locked by this transaction.
    locks: Vec<Key>,
    /// Values read (returned to the caller).
    reads: Vec<(Key, Value)>,
    status: TxStatus,
}

impl TxState {
    fn new() -> Self {
        Self {
            undo: Vec::new(),
            locks: Vec::new(),
            reads: Vec::new(),
            status: TxStatus::Active,
        }
    }
}

/// Return value of a service invocation: the values read, in program order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReturnValues(pub Vec<(Key, Value)>);

/// A simulated transactional subsystem.
#[derive(Debug, Clone)]
pub struct Subsystem {
    /// Subsystem identifier.
    pub id: SubsystemId,
    /// Human-readable name (e.g. `"PDM"`).
    pub name: String,
    store: BTreeMap<Key, Value>,
    locks: BTreeMap<Key, LockState>,
    /// Every transaction begun, indexed by its (dense) id.
    txs: Vec<TxState>,
    /// Commit-order constraints `(first, second)` (weak order, §3.6).
    commit_order: Vec<(TxId, TxId)>,
    log: Vec<LogRecord>,
    /// Whether the subsystem supports commit-order serializability.
    pub supports_commit_order: bool,
    crashed: bool,
}

impl Subsystem {
    /// Creates a subsystem.
    pub fn new(id: SubsystemId, name: impl Into<String>) -> Self {
        Self {
            id,
            name: name.into(),
            store: BTreeMap::new(),
            locks: BTreeMap::new(),
            txs: Vec::new(),
            commit_order: Vec::new(),
            log: Vec::new(),
            supports_commit_order: true,
            crashed: false,
        }
    }

    /// The undo log of a transaction, in write order. Used by agents to
    /// derive compensation programs.
    pub fn tx_undo(&self, tx: TxId) -> Option<&[UndoOp]> {
        self.tx(tx).map(|t| t.undo.as_slice())
    }

    fn tx(&self, tx: TxId) -> Option<&TxState> {
        self.txs.get(tx.0 as usize)
    }

    fn tx_mut(&mut self, tx: TxId) -> &mut TxState {
        &mut self.txs[tx.0 as usize]
    }

    /// Reads a committed value (outside any transaction).
    pub fn peek(&self, key: Key) -> Option<Value> {
        self.store.get(&key).copied()
    }

    /// Raw store snapshot (testing / metrics).
    pub fn snapshot(&self) -> &BTreeMap<Key, Value> {
        &self.store
    }

    /// The durable log.
    pub fn log(&self) -> &[LogRecord] {
        &self.log
    }

    /// Begins a local transaction.
    pub fn begin(&mut self) -> Result<TxId, SubsystemError> {
        self.check_up()?;
        let tx = TxId(self.txs.len() as u64);
        self.txs.push(TxState::new());
        self.log.push(LogRecord::Begin(tx));
        Ok(tx)
    }

    fn check_up(&self) -> Result<(), SubsystemError> {
        if self.crashed {
            Err(SubsystemError::Crashed)
        } else {
            Ok(())
        }
    }

    /// Acquires a lock on `key` for `tx`. `Add` writers share an additive
    /// lock (their operations commute); `Set` writers need exclusivity.
    fn acquire_lock(&mut self, tx: TxId, key: Key, additive: bool) -> Result<(), SubsystemError> {
        let newly = match self.locks.get_mut(&key) {
            None => {
                self.locks.insert(
                    key,
                    if additive {
                        LockState::Additive(vec![tx])
                    } else {
                        LockState::Exclusive(tx)
                    },
                );
                true
            }
            Some(LockState::Exclusive(holder)) => {
                if *holder != tx {
                    return Err(SubsystemError::KeyLocked {
                        key,
                        holder: *holder,
                    });
                }
                false
            }
            Some(LockState::Additive(holders)) => {
                if additive || (holders.len() == 1 && holders[0] == tx) {
                    if additive {
                        if holders.contains(&tx) {
                            false
                        } else {
                            holders.push(tx);
                            true
                        }
                    } else {
                        // Upgrade the sole additive holder to exclusive.
                        *self.locks.get_mut(&key).expect("present") = LockState::Exclusive(tx);
                        false
                    }
                } else {
                    return Err(SubsystemError::KeyLocked {
                        key,
                        holder: holders[0],
                    });
                }
            }
        };
        if newly {
            self.tx_mut(tx).locks.push(key);
        }
        Ok(())
    }

    fn release_locks(&mut self, tx: TxId, locks: Vec<Key>) {
        for key in locks {
            let remove = match self.locks.get_mut(&key) {
                Some(LockState::Exclusive(holder)) => *holder == tx,
                Some(LockState::Additive(holders)) => {
                    holders.retain(|&h| h != tx);
                    holders.is_empty()
                }
                None => false,
            };
            if remove {
                self.locks.remove(&key);
            }
        }
    }

    fn active_tx(&mut self, tx: TxId) -> Result<&mut TxState, SubsystemError> {
        match self.txs.get_mut(tx.0 as usize) {
            Some(t) if t.status == TxStatus::Active => Ok(t),
            _ => Err(SubsystemError::UnknownTx(tx)),
        }
    }

    /// Executes one program operation inside a transaction.
    pub fn apply(&mut self, tx: TxId, op: KvOp) -> Result<(), SubsystemError> {
        self.check_up()?;
        self.active_tx(tx)?;
        let key = op.key();
        if op.is_write() {
            self.acquire_lock(tx, key, matches!(op, KvOp::Add(..)))?;
            let before = self.store.get(&key).copied();
            let (after, undo) = match op {
                KvOp::Add(_, d) => (before.unwrap_or(0) + d, UndoOp::Sub(key, d)),
                KvOp::Set(_, v) => (v, UndoOp::Restore(key, before)),
                KvOp::Read(_) => unreachable!("writes only"),
            };
            self.store.insert(key, after);
            self.tx_mut(tx).undo.push(undo);
            self.log.push(LogRecord::Write {
                tx,
                key,
                before,
                after,
            });
        } else {
            // Reads see the current (possibly own-uncommitted) state; the
            // scheduler above prevents dirty cross-process reads.
            let v = self.store.get(&key).copied().unwrap_or(0);
            self.tx_mut(tx).reads.push((key, v));
        }
        Ok(())
    }

    /// Runs a full program inside a fresh transaction *without* committing;
    /// returns the transaction and its read values. On a lock conflict the
    /// transaction rolls back and the error is returned.
    pub fn execute(&mut self, program: &Program) -> Result<(TxId, ReturnValues), SubsystemError> {
        let tx = self.begin()?;
        for &op in &program.ops {
            if let Err(e) = self.apply(tx, op) {
                self.abort(tx).ok();
                return Err(e);
            }
        }
        let reads = ReturnValues(std::mem::take(&mut self.tx_mut(tx).reads));
        Ok((tx, reads))
    }

    /// Declares a commit-order constraint: `first` must commit before
    /// `second` (weak order, §3.6).
    pub fn order_commits(&mut self, first: TxId, second: TxId) -> Result<(), SubsystemError> {
        self.check_up()?;
        if !self.supports_commit_order {
            return Err(SubsystemError::NotPrepared(second));
        }
        self.commit_order.push((first, second));
        Ok(())
    }

    fn commit_blocked_by(&self, tx: TxId) -> Option<TxId> {
        self.commit_order.iter().find_map(|&(first, second)| {
            if second == tx {
                match self.tx(first).map(|t| t.status) {
                    Some(TxStatus::Active) | Some(TxStatus::Prepared) => Some(first),
                    _ => None,
                }
            } else {
                None
            }
        })
    }

    /// Commits an active transaction (one-phase).
    pub fn commit(&mut self, tx: TxId) -> Result<(), SubsystemError> {
        self.check_up()?;
        self.active_tx(tx)?;
        if let Some(first) = self.commit_blocked_by(tx) {
            return Err(SubsystemError::CommitOrderViolation {
                must_commit_first: first,
                attempted: tx,
            });
        }
        self.finish_commit(tx);
        Ok(())
    }

    fn finish_commit(&mut self, tx: TxId) {
        let st = self.tx_mut(tx);
        st.status = TxStatus::Committed;
        let locks = std::mem::take(&mut st.locks);
        self.release_locks(tx, locks);
        self.log.push(LogRecord::Commit(tx));
    }

    /// Rolls back an active or prepared transaction.
    pub fn abort(&mut self, tx: TxId) -> Result<(), SubsystemError> {
        self.check_up()?;
        let status = self.tx(tx).map(|t| t.status);
        if !matches!(status, Some(TxStatus::Active | TxStatus::Prepared)) {
            return Err(SubsystemError::UnknownTx(tx));
        }
        let st = self.tx_mut(tx);
        st.status = TxStatus::Aborted;
        let undo = std::mem::take(&mut st.undo);
        let locks = std::mem::take(&mut st.locks);
        // Undo in reverse write order.
        for op in undo.into_iter().rev() {
            match op {
                UndoOp::Restore(key, Some(v)) => {
                    self.store.insert(key, v);
                }
                UndoOp::Restore(key, None) => {
                    self.store.remove(&key);
                }
                UndoOp::Sub(key, d) => {
                    let v = self.store.get(&key).copied().unwrap_or(0) - d;
                    self.store.insert(key, v);
                }
            }
        }
        self.release_locks(tx, locks);
        self.log.push(LogRecord::Abort(tx));
        Ok(())
    }

    /// 2PC phase 1: prepares an active transaction (vote yes). The
    /// transaction keeps its locks and stays in doubt.
    pub fn prepare(&mut self, tx: TxId) -> Result<(), SubsystemError> {
        self.check_up()?;
        self.active_tx(tx)?.status = TxStatus::Prepared;
        self.log.push(LogRecord::Prepare(tx));
        Ok(())
    }

    /// 2PC phase 2: commits a prepared transaction.
    pub fn commit_prepared(&mut self, tx: TxId) -> Result<(), SubsystemError> {
        self.check_up()?;
        match self.tx(tx).map(|t| t.status) {
            Some(TxStatus::Prepared) => {}
            _ => return Err(SubsystemError::NotPrepared(tx)),
        }
        if let Some(first) = self.commit_blocked_by(tx) {
            return Err(SubsystemError::CommitOrderViolation {
                must_commit_first: first,
                attempted: tx,
            });
        }
        self.finish_commit(tx);
        Ok(())
    }

    /// Status of a transaction.
    pub fn tx_status(&self, tx: TxId) -> Option<TxStatus> {
        self.tx(tx).map(|t| t.status)
    }

    /// Simulates a crash: all active transactions roll back, prepared
    /// transactions stay in doubt (their locks held), committed state
    /// survives.
    pub fn crash(&mut self) {
        let actives: Vec<TxId> = self
            .txs
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == TxStatus::Active)
            .map(|(t, _)| TxId(t as u64))
            .collect();
        for tx in actives {
            self.abort(tx).ok();
        }
        self.crashed = true;
    }

    /// Restarts after a crash; returns the in-doubt (prepared) transactions
    /// that the 2PC coordinator must resolve.
    pub fn recover(&mut self) -> Vec<TxId> {
        self.crashed = false;
        self.txs
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == TxStatus::Prepared)
            .map(|(t, _)| TxId(t as u64))
            .collect()
    }

    /// Whether the subsystem is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub() -> Subsystem {
        Subsystem::new(SubsystemId(0), "test")
    }

    #[test]
    fn execute_and_commit_applies_effects() {
        let mut s = sub();
        let (tx, _) = s.execute(&Program::set(Key(1), 42)).unwrap();
        s.commit(tx).unwrap();
        assert_eq!(s.peek(Key(1)), Some(42));
    }

    #[test]
    fn abort_rolls_back_in_reverse_order() {
        let mut s = sub();
        let (t0, _) = s.execute(&Program::set(Key(1), 1)).unwrap();
        s.commit(t0).unwrap();
        let p = Program::set(Key(1), 2).then(KvOp::Set(Key(1), 3));
        let (tx, _) = s.execute(&p).unwrap();
        assert_eq!(s.peek(Key(1)), Some(3));
        s.abort(tx).unwrap();
        assert_eq!(s.peek(Key(1)), Some(1));
    }

    #[test]
    fn reads_return_current_values() {
        let mut s = sub();
        let (t0, _) = s.execute(&Program::add(Key(5), 7)).unwrap();
        s.commit(t0).unwrap();
        let (tx, reads) = s.execute(&Program::read(Key(5))).unwrap();
        s.commit(tx).unwrap();
        assert_eq!(reads.0, vec![(Key(5), 7)]);
    }

    #[test]
    fn write_lock_blocks_second_writer() {
        let mut s = sub();
        let (t1, _) = s.execute(&Program::set(Key(1), 1)).unwrap();
        let err = s.execute(&Program::set(Key(1), 2)).unwrap_err();
        assert!(matches!(err, SubsystemError::KeyLocked { holder, .. } if holder == t1));
        s.commit(t1).unwrap();
        // After commit, the lock is free.
        let (t2, _) = s.execute(&Program::set(Key(1), 2)).unwrap();
        s.commit(t2).unwrap();
        assert_eq!(s.peek(Key(1)), Some(2));
    }

    #[test]
    fn prepared_transaction_holds_locks_until_resolution() {
        let mut s = sub();
        let (t1, _) = s.execute(&Program::set(Key(1), 1)).unwrap();
        s.prepare(t1).unwrap();
        assert!(matches!(
            s.execute(&Program::set(Key(1), 2)).unwrap_err(),
            SubsystemError::KeyLocked { .. }
        ));
        s.commit_prepared(t1).unwrap();
        assert_eq!(s.tx_status(t1), Some(TxStatus::Committed));
        assert!(s.execute(&Program::set(Key(1), 2)).is_ok());
    }

    #[test]
    fn prepared_transaction_can_abort() {
        let mut s = sub();
        let (t1, _) = s.execute(&Program::set(Key(1), 1)).unwrap();
        s.prepare(t1).unwrap();
        s.abort(t1).unwrap();
        assert_eq!(s.peek(Key(1)), None);
        assert_eq!(s.tx_status(t1), Some(TxStatus::Aborted));
    }

    #[test]
    fn commit_prepared_requires_prepare() {
        let mut s = sub();
        let (t1, _) = s.execute(&Program::set(Key(1), 1)).unwrap();
        assert!(matches!(
            s.commit_prepared(t1).unwrap_err(),
            SubsystemError::NotPrepared(_)
        ));
    }

    #[test]
    fn commit_order_enforced() {
        // Weak order: t2 executes in parallel but cannot commit before t1.
        let mut s = sub();
        let (t1, _) = s.execute(&Program::add(Key(1), 1)).unwrap();
        let (t2, _) = s.execute(&Program::add(Key(1), 1)).unwrap();
        s.order_commits(t1, t2).unwrap();
        assert!(matches!(
            s.commit(t2).unwrap_err(),
            SubsystemError::CommitOrderViolation { .. }
        ));
        s.commit(t1).unwrap();
        s.commit(t2).unwrap();
        assert_eq!(s.peek(Key(1)), Some(2));
    }

    #[test]
    fn crash_rolls_back_actives_keeps_prepared_in_doubt() {
        let mut s = sub();
        let (t1, _) = s.execute(&Program::set(Key(1), 1)).unwrap();
        s.prepare(t1).unwrap();
        let (_t2, _) = s.execute(&Program::set(Key(2), 2)).unwrap();
        s.crash();
        assert!(s.is_crashed());
        assert!(matches!(s.begin().unwrap_err(), SubsystemError::Crashed));
        let in_doubt = s.recover();
        assert_eq!(in_doubt, vec![t1]);
        // The active transaction's effects are gone.
        assert_eq!(s.peek(Key(2)), None);
        // The prepared transaction is resolvable.
        s.commit_prepared(t1).unwrap();
        assert_eq!(s.peek(Key(1)), Some(1));
    }

    #[test]
    fn log_records_written() {
        let mut s = sub();
        let (t1, _) = s.execute(&Program::set(Key(1), 1)).unwrap();
        s.commit(t1).unwrap();
        assert!(matches!(s.log()[0], LogRecord::Begin(_)));
        assert!(s.log().iter().any(|r| matches!(r, LogRecord::Write { .. })));
        assert!(matches!(s.log().last(), Some(LogRecord::Commit(_))));
    }

    #[test]
    fn double_commit_rejected() {
        let mut s = sub();
        let (t1, _) = s.execute(&Program::set(Key(1), 1)).unwrap();
        s.commit(t1).unwrap();
        assert!(s.commit(t1).is_err());
        assert!(s.abort(t1).is_err());
    }

    #[test]
    fn own_writes_visible_to_own_reads() {
        let mut s = sub();
        let p = Program::set(Key(1), 5).then(KvOp::Read(Key(1)));
        let (tx, reads) = s.execute(&p).unwrap();
        s.commit(tx).unwrap();
        assert_eq!(reads.0, vec![(Key(1), 5)]);
    }
}
