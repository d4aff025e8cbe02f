//! The protocol calls of a journalled run, replayed in the order the run
//! made them, with every journalled decision re-asked on the way. Shared by
//! the tests that hold those decisions to the scan reference and the
//! protocol's retirement to a count (each includes this file, and
//! `scan_protocol.rs` as `scan_protocol`, by path).

use crate::scan_protocol::{Holders, ScanProtocol};
use std::collections::{BTreeMap, BTreeSet};
use txproc_core::ids::{GlobalActivityId, ProcessId, ServiceId};
use txproc_core::protocol::{Admission, CompletionGate, DeferPolicy, ProtStatus, Protocol};
use txproc_core::schedule::Schedule;
use txproc_core::spec::Spec;
use txproc_core::state::ProcessState;
use txproc_core::trace::{AbortReason, TraceEvent, TraceRecord};

/// Decisions re-asked, by [`TraceEvent::kind`], plus `"victimless plan"`
/// and `"retired predecessor"` (an admission whose edges named one).
pub type Checked = BTreeMap<&'static str, usize>;

/// What a journal asks of a shard's protocol: the protocol itself, or the
/// scan reference, which has the same methods.
pub trait Decider<'a> {
    /// A fresh one that knows every process of `spec`.
    fn fresh(spec: &'a Spec) -> Self;
    fn status(&self, pid: ProcessId) -> ProtStatus;
    fn request(&mut self, pid: ProcessId, service: ServiceId) -> Admission;
    fn record_executed(
        &mut self,
        gid: GlobalActivityId,
        deferred: bool,
    ) -> Vec<(ProcessId, ProcessId)>;
    fn record_deferred_released(&mut self, gid: GlobalActivityId);
    fn record_compensated(&mut self, gid: GlobalActivityId);
    fn record_prepared_aborted(&mut self, gid: GlobalActivityId);
    fn mark_aborting(&mut self, pid: ProcessId);
    fn record_process_commit(&mut self, pid: ProcessId);
    fn record_process_abort(&mut self, pid: ProcessId);
    fn can_commit(&self, pid: ProcessId) -> Result<(), Vec<ProcessId>>;
    fn compensation_gate(&self, gid: GlobalActivityId) -> CompletionGate;
    fn forward_gate(&self, pid: ProcessId, service: ServiceId) -> CompletionGate;
    fn plan_abort(
        &self,
        pid: ProcessId,
        comps: &[GlobalActivityId],
        forward: &[ServiceId],
    ) -> Vec<ProcessId>;
}

/// Implements [`Decider`] by calling the type's own methods of the same name.
macro_rules! decider {
    ($ty:ident) => {
        impl<'a> Decider<'a> for $ty<'a> {
            fn fresh(spec: &'a Spec) -> Self {
                let mut d = $ty::new(spec, DeferPolicy::PrepareAndDefer);
                spec.processes().for_each(|p| d.register(p.id));
                d
            }
            fn status(&self, pid: ProcessId) -> ProtStatus {
                $ty::status(self, pid)
            }
            fn request(&mut self, pid: ProcessId, service: ServiceId) -> Admission {
                $ty::request(self, pid, service)
            }
            fn record_executed(
                &mut self,
                gid: GlobalActivityId,
                deferred: bool,
            ) -> Vec<(ProcessId, ProcessId)> {
                $ty::record_executed(self, gid, deferred)
            }
            fn record_deferred_released(&mut self, gid: GlobalActivityId) {
                $ty::record_deferred_released(self, gid)
            }
            fn record_compensated(&mut self, gid: GlobalActivityId) {
                $ty::record_compensated(self, gid)
            }
            fn record_prepared_aborted(&mut self, gid: GlobalActivityId) {
                $ty::record_prepared_aborted(self, gid)
            }
            fn mark_aborting(&mut self, pid: ProcessId) {
                $ty::mark_aborting(self, pid)
            }
            fn record_process_commit(&mut self, pid: ProcessId) {
                $ty::record_process_commit(self, pid)
            }
            fn record_process_abort(&mut self, pid: ProcessId) {
                $ty::record_process_abort(self, pid)
            }
            fn can_commit(&self, pid: ProcessId) -> Result<(), Vec<ProcessId>> {
                $ty::can_commit(self, pid)
            }
            fn compensation_gate(&self, gid: GlobalActivityId) -> CompletionGate {
                $ty::compensation_gate(self, gid)
            }
            fn forward_gate(&self, pid: ProcessId, service: ServiceId) -> CompletionGate {
                $ty::forward_gate(self, pid, service)
            }
            fn plan_abort(
                &self,
                pid: ProcessId,
                comps: &[GlobalActivityId],
                forward: &[ServiceId],
            ) -> Vec<ProcessId> {
                $ty::plan_abort(self, pid, comps, forward)
            }
        }
    };
}

decider!(Protocol);
decider!(ScanProtocol);

/// Replays the journal of one run into one fresh decider per shard and
/// re-asks every journalled admission, block, rejection, commit block,
/// completion gate and cascade plan there — including the order inside
/// `blockers`, `edges_added`, `wait_for` and `victims`. The reference never
/// retires a process, so `edges_added` is held to the edges among the
/// processes the shard still holds (`scan_protocol::Holders`). `locals[s]`
/// is shard `s`'s history; a record that names no shard is the engine's,
/// whose one history is `locals[0]`. `visit` sees the record's decider
/// after the record was applied. Returns the deciders.
pub fn replay<'a, D: Decider<'a>>(
    spec: &'a Spec,
    locals: &[Schedule],
    records: &[TraceRecord],
    what: &str,
    checked: &mut Checked,
    mut visit: impl FnMut(&D, &TraceRecord),
) -> Vec<D> {
    let shard = |rec: &TraceRecord| rec.shard.map_or(0, |s| s as usize);
    let mut shards: Vec<(D, Holders)> = locals
        .iter()
        .map(|_| (D::fresh(spec), Holders::default()))
        .collect();
    // The process state machines as of a journal record.
    let states_at = |rec: &TraceRecord| {
        let local = locals[shard(rec)].prefix(rec.history_len);
        local.replay(spec).unwrap().states
    };
    let mut aborting: BTreeSet<ProcessId> = BTreeSet::new();
    let mut prepared: BTreeMap<ProcessId, GlobalActivityId> = BTreeMap::new();
    // Initiator whose cascade plan the journal carried as a `GroupAbort`.
    let mut planned: Option<ProcessId> = None;
    // What the driver hands `plan_abort`: the initiator's completion.
    let plan = |d: &D, st: &ProcessState<'_>, pid: ProcessId| {
        let completion = st.completion();
        let comps: Vec<GlobalActivityId> = completion
            .compensations
            .iter()
            .map(|&a| GlobalActivityId::new(pid, a))
            .collect();
        let forward: Vec<_> = completion
            .forward
            .iter()
            .map(|&a| st.process().service(a))
            .collect();
        d.plan_abort(pid, &comps, &forward)
    };
    for rec in records {
        let at = format!("{what}, record {}: {}", rec.seq, rec.event);
        *checked.entry(rec.event.kind()).or_default() += 1;
        let (d, held) = &mut shards[shard(rec)];
        match &rec.event {
            TraceEvent::RequestAdmitted {
                gid,
                service,
                deferred,
                blockers,
                edges_added,
            } => {
                let pid = gid.process;
                if aborting.contains(&pid) {
                    // A forward-recovery step: gated, not requested.
                    let gate = d.forward_gate(pid, *service);
                    assert_eq!(gate, CompletionGate::Ready, "{at}");
                } else {
                    let expect = if *deferred {
                        Admission::AllowDeferred {
                            blockers: blockers.clone(),
                        }
                    } else {
                        Admission::Allow
                    };
                    assert_eq!(d.request(pid, *service), expect, "{at}");
                }
                let edges = d.record_executed(*gid, *deferred);
                held.executed(pid);
                if edges.len() > edges_added.len() {
                    *checked.entry("retired predecessor").or_default() += 1;
                }
                assert_eq!(&held.held(edges), edges_added, "{at}");
                if *deferred {
                    prepared.insert(pid, *gid);
                }
            }
            TraceEvent::RequestBlocked {
                gid,
                service,
                blockers,
            } => {
                let expect = Admission::Wait {
                    blockers: blockers.clone(),
                };
                assert_eq!(d.request(gid.process, *service), expect, "{at}");
            }
            TraceEvent::RequestRejected {
                gid,
                service,
                conflicting,
            } => {
                let expect = Admission::Reject {
                    conflicting: *conflicting,
                };
                assert_eq!(d.request(gid.process, *service), expect, "{at}");
            }
            TraceEvent::CommitReleased { gid } => {
                prepared.remove(&gid.process);
                d.record_deferred_released(*gid);
            }
            TraceEvent::CompensationStarted { gid, .. } => {
                assert_eq!(d.compensation_gate(*gid), CompletionGate::Ready, "{at}");
                d.record_compensated(*gid);
            }
            TraceEvent::CompletionBlocked { pid, wait_for } => {
                let st = &states_at(rec)[pid];
                let gate = match (st.next_compensation(), st.next_activity()) {
                    (Some(c), _) => d.compensation_gate(GlobalActivityId::new(*pid, c)),
                    (None, Some(a)) => d.forward_gate(*pid, st.process().service(a)),
                    (None, None) => panic!("{at}: no completion step to gate"),
                };
                assert_eq!(gate, CompletionGate::WaitFor(wait_for.clone()), "{at}");
            }
            TraceEvent::CommitBlocked { pid, wait_for } => {
                assert_eq!(d.can_commit(*pid), Err(wait_for.clone()), "{at}");
            }
            TraceEvent::ProcessCommitted { pid } => {
                assert_eq!(d.can_commit(*pid), Ok(()), "{at}");
                d.record_process_commit(*pid);
                held.terminated(|p| d.status(p) == ProtStatus::Active);
            }
            TraceEvent::GroupAbort {
                initiator: Some(pid),
                victims,
                ..
            } if !aborting.contains(pid) => {
                assert_eq!(&plan(d, &states_at(rec)[pid], *pid), victims, "{at}");
                planned = Some(*pid);
            }
            TraceEvent::AbortStarted { pid, reason } => {
                aborting.insert(*pid);
                // A definitive failure sends the state machine into its
                // completion directly; the driver tells the policy nothing.
                if *reason != AbortReason::Failure {
                    if *reason != AbortReason::Cascade && planned.take() != Some(*pid) {
                        // No `GroupAbort` journalled: the plan had no victim.
                        let victims = plan(d, &states_at(rec)[pid], *pid);
                        assert!(victims.is_empty(), "{at}");
                        *checked.entry("victimless plan").or_default() += 1;
                    }
                    if let Some(gid) = prepared.remove(pid) {
                        d.record_prepared_aborted(gid);
                    }
                    d.mark_aborting(*pid);
                }
            }
            TraceEvent::ProcessAborted { pid } => {
                d.record_process_abort(*pid);
                held.terminated(|p| d.status(p) == ProtStatus::Active);
                aborting.remove(pid);
            }
            _ => {}
        }
        visit(d, rec);
    }
    shards.into_iter().map(|(d, _)| d).collect()
}
