//! A simulated transactional subsystem (§2.3): a resource manager with
//! atomic local transactions, write locks, two-phase commit participation (prepare / commit / abort of in-doubt transactions), and
//! optional commit-order serializability for weak orders (§3.6, \[BBG89\]).
//!
//! A finished (committed or aborted) transaction keeps only its status. Its
//! undo, lock and read buffers go back, emptied, to a spare list that the
//! next transaction begins from, so [`Subsystem::tx_undo`] answers for
//! active and prepared transactions only. Held locks live in a small table
//! of the keys of active and prepared transactions, and an additive lock's
//! holder list is recycled like the buffers: in steady state a transaction
//! allocates nothing but its status entry.

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

/// The buffers of an active or prepared transaction. A finished one hands
/// them back to [`Subsystem::spare`], emptied.
#[derive(Debug, Clone, Default)]
struct TxState {
    /// Undo log in write order.
    undo: Vec<UndoOp>,
    /// Keys locked by this transaction.
    locks: Vec<Key>,
    /// Values read (returned to the caller).
    reads: Vec<(Key, Value)>,
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
    /// Held locks, scanned linearly: only the keys of active and prepared
    /// transactions are in it.
    locks: Vec<(Key, LockState)>,
    /// The status of every transaction begun, indexed by its (dense) id.
    txs: Vec<TxStatus>,
    /// The buffers of the active and prepared transactions.
    open: Vec<(TxId, TxState)>,
    /// Emptied buffers of finished transactions, and emptied holder lists
    /// of released additive locks, for the next ones to fill. A list, not
    /// one scratch transaction: weak orders (§3.6) keep two open at once.
    spare: Vec<TxState>,
    spare_holders: Vec<Vec<TxId>>,
    /// Commit-order constraints `(first, second)` (weak order, §3.6).
    commit_order: Vec<(TxId, TxId)>,
    /// Whether the subsystem supports commit-order serializability.
    pub supports_commit_order: bool,
}

impl Subsystem {
    /// Creates a subsystem.
    pub fn new(id: SubsystemId, name: impl Into<String>) -> Self {
        Self {
            id,
            name: name.into(),
            store: BTreeMap::new(),
            locks: Vec::new(),
            txs: Vec::new(),
            open: Vec::new(),
            spare: Vec::new(),
            spare_holders: Vec::new(),
            commit_order: Vec::new(),
            supports_commit_order: true,
        }
    }

    /// The undo log of an active or prepared transaction, in write order
    /// (`None` for a finished or unknown one). Used by agents to derive
    /// compensation programs before they commit.
    pub fn tx_undo(&self, tx: TxId) -> Option<&[UndoOp]> {
        let (_, st) = self.open.iter().find(|(t, _)| *t == tx)?;
        Some(&st.undo)
    }

    fn open_tx_mut(&mut self, tx: TxId) -> &mut TxState {
        let (_, st) = (self.open.iter_mut().find(|(t, _)| *t == tx)).expect("open transaction");
        st
    }

    /// Reads a committed value (outside any transaction).
    pub fn peek(&self, key: Key) -> Option<Value> {
        self.store.get(&key).copied()
    }

    /// Raw store snapshot (testing / metrics).
    pub fn snapshot(&self) -> &BTreeMap<Key, Value> {
        &self.store
    }

    /// Begins a local transaction in spare buffers.
    fn begin(&mut self) -> TxId {
        let tx = TxId(self.txs.len() as u64);
        self.txs.push(TxStatus::Active);
        let st = self.spare.pop().unwrap_or_default();
        self.open.push((tx, st));
        tx
    }

    /// Ends an open transaction with `status`, first rolling its writes
    /// back if it aborts: releases its locks and hands its buffers back,
    /// emptied.
    fn finish(&mut self, tx: TxId, status: TxStatus) {
        self.txs[tx.0 as usize] = status;
        let at = (self.open.iter().position(|(t, _)| *t == tx)).expect("open transaction");
        let (_, mut st) = self.open.swap_remove(at);
        if status == TxStatus::Aborted {
            // Undo in reverse write order.
            for &op in st.undo.iter().rev() {
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
        }
        self.release_locks(tx, &st.locks);
        st.undo.clear();
        st.locks.clear();
        st.reads.clear();
        self.spare.push(st);
    }

    /// Acquires a lock on `key` for `tx`. `Add` writers share an additive
    /// lock (their operations commute); `Set` writers need exclusivity.
    fn acquire_lock(&mut self, tx: TxId, key: Key, additive: bool) -> Result<(), SubsystemError> {
        let Some(at) = self.locks.iter().position(|(k, _)| *k == key) else {
            let lock = if additive {
                let mut holders = self.spare_holders.pop().unwrap_or_default();
                holders.push(tx);
                LockState::Additive(holders)
            } else {
                LockState::Exclusive(tx)
            };
            self.locks.push((key, lock));
            self.open_tx_mut(tx).locks.push(key);
            return Ok(());
        };
        let lock = &mut self.locks[at].1;
        match lock {
            LockState::Exclusive(holder) if *holder != tx => {
                return Err(SubsystemError::KeyLocked {
                    key,
                    holder: *holder,
                });
            }
            LockState::Exclusive(_) => {}
            LockState::Additive(holders) if additive => {
                if !holders.contains(&tx) {
                    holders.push(tx);
                    self.open_tx_mut(tx).locks.push(key);
                }
            }
            LockState::Additive(holders) => {
                // Shared with another writer, exclusivity waits; the holder
                // named is never the requester itself.
                if let Some(&holder) = holders.iter().find(|&&h| h != tx) {
                    return Err(SubsystemError::KeyLocked { key, holder });
                }
                // Upgrade the sole additive holder to exclusive.
                let mut holders = std::mem::take(holders);
                holders.clear();
                self.spare_holders.push(holders);
                *lock = LockState::Exclusive(tx);
            }
        }
        Ok(())
    }

    fn release_locks(&mut self, tx: TxId, keys: &[Key]) {
        for key in keys {
            let Some(at) = self.locks.iter().position(|(k, _)| k == key) else {
                continue;
            };
            let remove = match &mut self.locks[at].1 {
                LockState::Exclusive(holder) => *holder == tx,
                LockState::Additive(holders) => {
                    holders.retain(|&h| h != tx);
                    holders.is_empty()
                }
            };
            if remove {
                if let (_, LockState::Additive(holders)) = self.locks.swap_remove(at) {
                    self.spare_holders.push(holders);
                }
            }
        }
    }

    fn check_active(&self, tx: TxId) -> Result<(), SubsystemError> {
        match self.txs.get(tx.0 as usize) {
            Some(TxStatus::Active) => Ok(()),
            _ => Err(SubsystemError::UnknownTx(tx)),
        }
    }

    /// Executes one program operation inside a transaction.
    pub fn apply(&mut self, tx: TxId, op: KvOp) -> Result<(), SubsystemError> {
        self.check_active(tx)?;
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
            self.open_tx_mut(tx).undo.push(undo);
        } else {
            // Reads see the current (possibly own-uncommitted) state; the
            // scheduler above prevents dirty cross-process reads.
            let v = self.store.get(&key).copied().unwrap_or(0);
            self.open_tx_mut(tx).reads.push((key, v));
        }
        Ok(())
    }

    /// Runs a full program inside a fresh transaction *without* committing;
    /// returns the transaction and its read values. On a lock conflict the
    /// transaction rolls back and the error is returned.
    pub fn execute(&mut self, program: &Program) -> Result<(TxId, ReturnValues), SubsystemError> {
        self.execute_ops(&program.ops)
    }

    /// [`Subsystem::execute`] over a slice of operations.
    pub(crate) fn execute_ops(
        &mut self,
        ops: &[KvOp],
    ) -> Result<(TxId, ReturnValues), SubsystemError> {
        let tx = self.begin();
        for &op in ops {
            if let Err(e) = self.apply(tx, op) {
                self.abort(tx).ok();
                return Err(e);
            }
        }
        let reads = ReturnValues(self.open_tx_mut(tx).reads.drain(..).collect());
        Ok((tx, reads))
    }

    /// Declares a commit-order constraint: `first` must commit before
    /// `second` (weak order, §3.6).
    pub fn order_commits(&mut self, first: TxId, second: TxId) -> Result<(), SubsystemError> {
        if !self.supports_commit_order {
            return Err(SubsystemError::NotPrepared(second));
        }
        self.commit_order.push((first, second));
        Ok(())
    }

    fn commit_blocked_by(&self, tx: TxId) -> Option<TxId> {
        self.commit_order.iter().find_map(|&(first, second)| {
            if second == tx {
                match self.tx_status(first) {
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
        self.check_active(tx)?;
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
        self.finish(tx, TxStatus::Committed);
    }

    /// Rolls back an active or prepared transaction.
    pub fn abort(&mut self, tx: TxId) -> Result<(), SubsystemError> {
        if !matches!(
            self.tx_status(tx),
            Some(TxStatus::Active | TxStatus::Prepared)
        ) {
            return Err(SubsystemError::UnknownTx(tx));
        }
        self.finish(tx, TxStatus::Aborted);
        Ok(())
    }

    /// 2PC phase 1: prepares an active transaction (vote yes). The
    /// transaction keeps its locks and stays in doubt.
    pub fn prepare(&mut self, tx: TxId) -> Result<(), SubsystemError> {
        self.check_active(tx)?;
        self.txs[tx.0 as usize] = TxStatus::Prepared;
        Ok(())
    }

    /// 2PC phase 2: commits a prepared transaction.
    pub fn commit_prepared(&mut self, tx: TxId) -> Result<(), SubsystemError> {
        if self.tx_status(tx) != Some(TxStatus::Prepared) {
            return Err(SubsystemError::NotPrepared(tx));
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
        self.txs.get(tx.0 as usize).copied()
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
    fn shared_additive_lock_names_another_holder() {
        // t1 and t2 share an additive lock; t1 asking for exclusivity must
        // be told about t2, not about itself.
        let mut s = sub();
        let (t1, _) = s.execute(&Program::add(Key(1), 1)).unwrap();
        let (t2, _) = s.execute(&Program::add(Key(1), 2)).unwrap();
        let err = s.apply(t1, KvOp::Set(Key(1), 9)).unwrap_err();
        assert_eq!(
            err,
            SubsystemError::KeyLocked {
                key: Key(1),
                holder: t2
            }
        );
        // Alone again, t1 upgrades to exclusive and t2 is refused.
        s.commit(t2).unwrap();
        s.apply(t1, KvOp::Set(Key(1), 9)).unwrap();
        let err = s.execute(&Program::add(Key(1), 1)).unwrap_err();
        assert!(matches!(err, SubsystemError::KeyLocked { holder, .. } if holder == t1));
        s.commit(t1).unwrap();
        assert_eq!(s.peek(Key(1)), Some(9));
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
    fn tx_status_follows_each_transition() {
        let mut s = sub();
        let (t1, _) = s.execute(&Program::set(Key(1), 1)).unwrap();
        assert_eq!(s.tx_status(t1), Some(TxStatus::Active));
        s.commit(t1).unwrap();
        assert_eq!(s.tx_status(t1), Some(TxStatus::Committed));
        let (t2, _) = s.execute(&Program::set(Key(1), 2)).unwrap();
        s.prepare(t2).unwrap();
        assert_eq!(s.tx_status(t2), Some(TxStatus::Prepared));
        s.abort(t2).unwrap();
        assert_eq!(s.tx_status(t2), Some(TxStatus::Aborted));
        assert_eq!(s.tx_status(TxId(2)), None);
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
