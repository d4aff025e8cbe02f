//! Property tests for the subsystem substrate: Definition 2's contract —
//! the pair ⟨a, a⁻¹⟩ must be effect-free — holds for arbitrary programs,
//! transaction rollback restores the observable state, and a long-lived
//! agent, whose transactions reuse each other's buffers, behaves like a
//! reference that allocates every transaction afresh.

use proptest::prelude::*;
use txproc_subsystem::agent::{Agent, CommitMode, InvocationId, InvokeOutcome};
use txproc_subsystem::kv::{Key, KvOp, Program};
use txproc_subsystem::subsystem::{Subsystem, SubsystemId, TxId};

fn op_strategy() -> impl Strategy<Value = KvOp> {
    let key = (0u64..6).prop_map(Key);
    prop_oneof![
        (key.clone(), -50i64..50).prop_map(|(k, d)| KvOp::Add(k, d)),
        (key.clone(), -50i64..50).prop_map(|(k, v)| KvOp::Set(k, v)),
        key.prop_map(KvOp::Read),
    ]
}

fn program_strategy() -> impl Strategy<Value = Program> {
    proptest::collection::vec(op_strategy(), 1..6).prop_map(|ops| Program { ops })
}

/// Observable state: every key's readable value (absent keys read as 0).
fn observe(sub: &Subsystem) -> Vec<(Key, i64)> {
    (0..6)
        .map(|k| (Key(k), sub.peek(Key(k)).unwrap_or(0)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ⟨a, a⁻¹⟩ is effect-free (Definition 2): after invoking a program and
    /// compensating it, the observable state equals the initial one.
    #[test]
    fn invoke_then_compensate_is_effect_free(
        seed in program_strategy(),
        prog in program_strategy(),
    ) {
        let mut catalog = txproc_core::activity::Catalog::new();
        let (svc, _) = catalog.compensatable("w");
        let mut agent = Agent::new(Subsystem::new(SubsystemId(0), "t"));
        // Arbitrary pre-existing state.
        let out = agent.invoke(svc, &seed, CommitMode::Immediate, false).unwrap();
        prop_assert!(matches!(out, InvokeOutcome::Committed { .. }), "unexpected outcome");
        let before = observe(&agent.subsystem);
        let out = agent.invoke(svc, &prog, CommitMode::Immediate, false).unwrap();
        let InvokeOutcome::Committed { invocation, .. } = out else {
            panic!("unexpected outcome");
        };
        let out = agent.compensate(invocation).unwrap();
        prop_assert!(matches!(out, InvokeOutcome::Committed { .. }), "unexpected outcome");
        prop_assert_eq!(before, observe(&agent.subsystem));
    }

    /// Aborting a transaction restores the observable state exactly.
    #[test]
    fn abort_restores_state(seed in program_strategy(), prog in program_strategy()) {
        let mut sub = Subsystem::new(SubsystemId(0), "t");
        if let Ok((tx, _)) = sub.execute(&seed) {
            sub.commit(tx).unwrap();
        }
        let before = observe(&sub);
        match sub.execute(&prog) {
            Ok((tx, _)) => {
                sub.abort(tx).unwrap();
                prop_assert_eq!(before, observe(&sub));
            }
            Err(_) => {
                // Lock conflict with itself is impossible in a fresh tx;
                // execute() rolls back internally on failure anyway.
                prop_assert_eq!(before, observe(&sub));
            }
        }
    }

    /// Injected aborts leave no trace (atomicity of service invocations).
    #[test]
    fn injected_abort_is_atomic(seed in program_strategy(), prog in program_strategy()) {
        let mut catalog = txproc_core::activity::Catalog::new();
        let svc = catalog.pivot("p");
        let mut agent = Agent::new(Subsystem::new(SubsystemId(0), "t"));
        let _ = agent.invoke(svc, &seed, CommitMode::Immediate, false).unwrap();
        let before = observe(&agent.subsystem);
        let out = agent.invoke(svc, &prog, CommitMode::Immediate, true).unwrap();
        prop_assert_eq!(out, InvokeOutcome::Aborted);
        prop_assert_eq!(before, observe(&agent.subsystem));
    }

    /// Prepared-then-aborted transactions are atomic too (2PC abort path).
    #[test]
    fn prepared_abort_is_atomic(prog in program_strategy()) {
        let mut catalog = txproc_core::activity::Catalog::new();
        let svc = catalog.pivot("p");
        let mut agent = Agent::new(Subsystem::new(SubsystemId(0), "t"));
        let before = observe(&agent.subsystem);
        match agent.invoke(svc, &prog, CommitMode::Deferred, false).unwrap() {
            InvokeOutcome::Prepared { invocation, .. } => {
                agent.abort_prepared(invocation).unwrap();
                prop_assert_eq!(before, observe(&agent.subsystem));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// Commuting additive transactions produce the same sum in any commit
    /// order (the additive lock mode is sound).
    #[test]
    fn concurrent_adds_commute(d1 in -50i64..50, d2 in -50i64..50, first_commits_first in any::<bool>()) {
        let run = |order_flip: bool| -> i64 {
            let mut sub = Subsystem::new(SubsystemId(0), "t");
            let (t1, _) = sub.execute(&Program::add(Key(0), d1)).unwrap();
            let (t2, _) = sub.execute(&Program::add(Key(0), d2)).unwrap();
            if order_flip {
                sub.commit(t2).unwrap();
                sub.commit(t1).unwrap();
            } else {
                sub.commit(t1).unwrap();
                sub.commit(t2).unwrap();
            }
            sub.peek(Key(0)).unwrap_or(0)
        };
        prop_assert_eq!(run(first_commits_first), run(!first_commits_first));
    }

    /// One of two concurrent adds may also abort; the other's effect
    /// survives intact (operation-based undo).
    #[test]
    fn concurrent_add_abort_is_isolated(d1 in -50i64..50, d2 in -50i64..50) {
        let mut sub = Subsystem::new(SubsystemId(0), "t");
        let (t1, _) = sub.execute(&Program::add(Key(0), d1)).unwrap();
        let (t2, _) = sub.execute(&Program::add(Key(0), d2)).unwrap();
        sub.abort(t1).unwrap();
        sub.commit(t2).unwrap();
        prop_assert_eq!(sub.peek(Key(0)).unwrap_or(0), d2);
    }
}

/// One call on a long-lived agent. An index picks an invocation among
/// those made so far, or one past them (an unknown invocation).
#[derive(Debug, Clone)]
enum Call {
    Invoke {
        program: Program,
        deferred: bool,
        inject_abort: bool,
    },
    Release(usize),
    AbortPrepared(usize),
    Compensate(usize),
}

fn call_strategy() -> impl Strategy<Value = Call> {
    prop_oneof![
        4 => (program_strategy(), any::<bool>(), (0u8..7).prop_map(|x| x == 0)).prop_map(
            |(program, deferred, inject_abort)| Call::Invoke {
                program,
                deferred,
                inject_abort,
            }
        ),
        1 => any::<usize>().prop_map(Call::Release),
        1 => any::<usize>().prop_map(Call::AbortPrepared),
        2 => any::<usize>().prop_map(Call::Compensate),
    ]
}

/// The reference: a subsystem and its agent written plainly, every
/// transaction's buffers allocated fresh.
mod model {
    use std::collections::BTreeMap;
    use txproc_subsystem::agent::{InvocationId, InvokeOutcome};
    use txproc_subsystem::kv::{Key, KvOp};
    use txproc_subsystem::subsystem::{ReturnValues, TxId, TxStatus};
    use txproc_subsystem::SubsystemError;

    enum Lock {
        Exclusive(u64),
        Additive(Vec<u64>),
    }

    enum Undo {
        Restore(Key, Option<i64>),
        Sub(Key, i64),
    }

    struct Invocation {
        tx: u64,
        inverse: Vec<KvOp>,
        compensated: bool,
    }

    #[derive(Default)]
    pub struct Agent {
        pub store: BTreeMap<Key, i64>,
        locks: BTreeMap<Key, Lock>,
        pub status: Vec<TxStatus>,
        /// Undo list and locked keys of each active or prepared transaction.
        open: BTreeMap<u64, (Vec<Undo>, Vec<Key>)>,
        invocations: Vec<Option<Invocation>>,
    }

    impl Agent {
        pub fn invocations(&self) -> usize {
            self.invocations.len()
        }

        fn finish(&mut self, tx: u64, status: TxStatus) {
            let (undo, keys) = self.open.remove(&tx).expect("open");
            if status == TxStatus::Aborted {
                for u in undo.into_iter().rev() {
                    match u {
                        Undo::Restore(k, Some(v)) => {
                            self.store.insert(k, v);
                        }
                        Undo::Restore(k, None) => {
                            self.store.remove(&k);
                        }
                        Undo::Sub(k, d) => {
                            *self.store.entry(k).or_insert(0) -= d;
                        }
                    }
                }
            }
            for k in keys {
                let free = match self.locks.get_mut(&k).expect("held") {
                    Lock::Exclusive(_) => true,
                    Lock::Additive(hs) => {
                        hs.retain(|&h| h != tx);
                        hs.is_empty()
                    }
                };
                if free {
                    self.locks.remove(&k);
                }
            }
            self.status[tx as usize] = status;
        }

        /// Runs `ops` in a new transaction; on a lock conflict rolls it
        /// back and names the key.
        fn execute(&mut self, ops: &[KvOp]) -> Result<(u64, Vec<(Key, i64)>), Key> {
            let tx = self.status.len() as u64;
            self.status.push(TxStatus::Active);
            self.open.insert(tx, (Vec::new(), Vec::new()));
            let mut reads = Vec::new();
            for &op in ops {
                let k = op.key();
                let before = self.store.get(&k).copied();
                let undo = match op {
                    KvOp::Read(_) => {
                        reads.push((k, before.unwrap_or(0)));
                        continue;
                    }
                    KvOp::Add(_, d) => Undo::Sub(k, d),
                    KvOp::Set(_, _) => Undo::Restore(k, before),
                };
                let additive = matches!(op, KvOp::Add(..));
                let newly = match self.locks.get_mut(&k) {
                    None => {
                        let lock = if additive {
                            Lock::Additive(vec![tx])
                        } else {
                            Lock::Exclusive(tx)
                        };
                        self.locks.insert(k, lock);
                        true
                    }
                    Some(Lock::Exclusive(h)) if *h == tx => false,
                    Some(Lock::Additive(hs)) if additive => {
                        let newly = !hs.contains(&tx);
                        if newly {
                            hs.push(tx);
                        }
                        newly
                    }
                    Some(Lock::Additive(hs)) if hs == &[tx] => {
                        self.locks.insert(k, Lock::Exclusive(tx));
                        false
                    }
                    Some(_) => {
                        self.finish(tx, TxStatus::Aborted);
                        return Err(k);
                    }
                };
                let (undo_list, keys) = self.open.get_mut(&tx).expect("open");
                if newly {
                    keys.push(k);
                }
                undo_list.push(undo);
                let after = match op {
                    KvOp::Add(_, d) => before.unwrap_or(0) + d,
                    KvOp::Set(_, v) => v,
                    KvOp::Read(_) => unreachable!("writes only"),
                };
                self.store.insert(k, after);
            }
            Ok((tx, reads))
        }

        pub fn invoke(&mut self, ops: &[KvOp], deferred: bool, inject: bool) -> InvokeOutcome {
            let (tx, reads) = match self.execute(ops) {
                Ok(x) => x,
                Err(key) => return InvokeOutcome::Busy { key },
            };
            if inject {
                self.finish(tx, TxStatus::Aborted);
                return InvokeOutcome::Aborted;
            }
            let undo = &self.open[&tx].0;
            let inverse = undo
                .iter()
                .rev()
                .map(|u| match *u {
                    Undo::Restore(k, before) => KvOp::Set(k, before.unwrap_or(0)),
                    Undo::Sub(k, d) => KvOp::Add(k, -d),
                })
                .collect();
            let invocation = InvocationId(self.invocations.len() as u64);
            self.invocations.push(Some(Invocation {
                tx,
                inverse,
                compensated: false,
            }));
            let returns = ReturnValues(reads);
            if deferred {
                self.status[tx as usize] = TxStatus::Prepared;
                InvokeOutcome::Prepared {
                    invocation,
                    returns,
                }
            } else {
                self.finish(tx, TxStatus::Committed);
                InvokeOutcome::Committed {
                    invocation,
                    returns,
                }
            }
        }

        fn tx_of(&self, i: usize) -> Result<u64, SubsystemError> {
            match self.invocations.get(i) {
                Some(Some(inv)) => Ok(inv.tx),
                _ => Err(SubsystemError::UnknownTx(TxId(u64::MAX))),
            }
        }

        pub fn release(&mut self, i: usize) -> Result<(), SubsystemError> {
            let tx = self.tx_of(i)?;
            if self.status[tx as usize] != TxStatus::Prepared {
                return Err(SubsystemError::NotPrepared(TxId(tx)));
            }
            self.finish(tx, TxStatus::Committed);
            Ok(())
        }

        pub fn abort_prepared(&mut self, i: usize) -> Result<(), SubsystemError> {
            let tx = self.tx_of(i)?;
            if !self.open.contains_key(&tx) {
                return Err(SubsystemError::UnknownTx(TxId(tx)));
            }
            self.finish(tx, TxStatus::Aborted);
            self.invocations[i] = None;
            Ok(())
        }

        pub fn compensate(&mut self, i: usize) -> Result<InvokeOutcome, SubsystemError> {
            let tx = self.tx_of(i)?;
            let inv = self.invocations[i].as_ref().expect("known");
            if inv.compensated {
                return Err(SubsystemError::UnknownTx(TxId(tx)));
            }
            if self.status[tx as usize] != TxStatus::Committed {
                return Err(SubsystemError::NotPrepared(TxId(tx)));
            }
            let inverse = inv.inverse.clone();
            let (ctx, reads) = match self.execute(&inverse) {
                Ok(x) => x,
                Err(key) => return Ok(InvokeOutcome::Busy { key }),
            };
            self.finish(ctx, TxStatus::Committed);
            self.invocations[i].as_mut().expect("known").compensated = true;
            Ok(InvokeOutcome::Committed {
                invocation: InvocationId(i as u64),
                returns: ReturnValues(reads),
            })
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One agent lives through a random sequence of immediate and deferred
    /// invocations, releases, prepared aborts, compensations and injected
    /// aborts. After every call its outcome, its store and the status of
    /// every transaction equal those of a reference that allocates every
    /// transaction afresh: no recycled buffer carries state into the next
    /// transaction.
    #[test]
    fn a_long_lived_agent_matches_a_fresh_reference(
        calls in proptest::collection::vec(call_strategy(), 1..60),
    ) {
        let mut catalog = txproc_core::activity::Catalog::new();
        let (svc, _) = catalog.compensatable("w");
        let mut agent = Agent::new(Subsystem::new(SubsystemId(0), "t"));
        let mut reference = model::Agent::default();
        for (step, call) in calls.iter().enumerate() {
            let pick = |i: usize| i % (reference.invocations() + 1);
            let id = |i: usize| InvocationId(pick(i) as u64);
            let (got, want) = match call {
                Call::Invoke { program, deferred, inject_abort } => {
                    let mode = if *deferred { CommitMode::Deferred } else { CommitMode::Immediate };
                    let got = agent.invoke(svc, program, mode, *inject_abort);
                    let want = reference.invoke(&program.ops, *deferred, *inject_abort);
                    (got, Ok(want))
                }
                Call::Release(i) => (
                    agent.release(id(*i)).map(|()| InvokeOutcome::Aborted),
                    reference.release(pick(*i)).map(|()| InvokeOutcome::Aborted),
                ),
                Call::AbortPrepared(i) => (
                    agent.abort_prepared(id(*i)).map(|()| InvokeOutcome::Aborted),
                    reference.abort_prepared(pick(*i)).map(|()| InvokeOutcome::Aborted),
                ),
                Call::Compensate(i) => (agent.compensate(id(*i)), reference.compensate(pick(*i))),
            };
            prop_assert_eq!(got, want, "step {}: {:?}", step, call);
            prop_assert_eq!(agent.subsystem.snapshot(), &reference.store, "step {}", step);
            for (tx, &status) in reference.status.iter().enumerate() {
                prop_assert_eq!(agent.subsystem.tx_status(TxId(tx as u64)), Some(status));
            }
        }
    }
}
