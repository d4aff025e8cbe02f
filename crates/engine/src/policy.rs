//! Scheduling policies: the paper's PRED protocol and the baselines it is
//! evaluated against.
//!
//! * [`Protocol`] — the protocol of Lemmas 1–3 / §3.5
//!   ([`txproc_core::protocol`]), a policy as it stands: serializability
//!   enforcement, deferment of non-compensatable activities behind active
//!   conflicting predecessors, commit ordering, cascading aborts honouring
//!   quasi-commits. It `debug_assert`s that no driver plans or gates the
//!   completion of a process that terminated.
//! * [`SerialPolicy`] — executes processes one at a time: trivially correct,
//!   zero parallelism. The lower bound.
//! * [`ConservativePolicy`] — process-level conflict locking (a static
//!   2PL-style scheduler): a process starts only when no live process holds
//!   any conflicting service. Correct, but conflicting processes never
//!   interleave.
//! * [`UnsafeCcPolicy`] — concurrency control only: serializability is
//!   enforced but every recovery-related obligation is ignored (no
//!   deferment, no commit ordering, no cascades). Under failures it emits
//!   non-PRED histories — the situation of §2.2 and Example 8 that the
//!   paper's unified treatment exists to prevent.

use std::collections::{BTreeMap, BTreeSet};
use txproc_core::ids::{GlobalActivityId, ProcessId, ServiceId};
use txproc_core::protocol::{Admission, CompletionGate, DeferPolicy, ProtStatus, Protocol};
use txproc_core::schedule::Event;
use txproc_core::spec::Spec;

/// Scheduler policy interface used by the engine.
pub trait Policy {
    /// A process was admitted.
    fn register(&mut self, pid: ProcessId);
    /// What a history event the driver recorded does here: an `Execute`
    /// adds an operation — or, `released`, commits a prepared one — and a
    /// `Compensate` undoes one; status changes are told by their own calls.
    /// Returns the dependency edges an execution added.
    fn record(&mut self, event: &Event, released: bool) -> Vec<(ProcessId, ProcessId)> {
        match *event {
            Event::Execute(g) if released => self.record_deferred_released(g),
            Event::Execute(g) => return self.record_executed(g, false),
            Event::Compensate(g) => self.record_compensated(g),
            Event::Abort(_) | Event::GroupAbort(_) | Event::Fail(_) | Event::Commit(_) => {}
        }
        Vec::new()
    }
    /// May `pid` execute `gid` (invoking `service`) now?
    fn request(&mut self, pid: ProcessId, gid: GlobalActivityId, service: ServiceId) -> Admission;
    /// A forward activity executed (`deferred`: prepared, commit deferred).
    /// Returns the serialization edges newly added by the execution, for
    /// decision tracing; policies without an explicit serialization order
    /// add none.
    fn record_executed(
        &mut self,
        _gid: GlobalActivityId,
        _deferred: bool,
    ) -> Vec<(ProcessId, ProcessId)> {
        Vec::new()
    }
    /// A deferred activity's subsystem commit was released.
    fn record_deferred_released(&mut self, _gid: GlobalActivityId) {}
    /// A deferred (prepared) activity was aborted before release: it leaves
    /// no effects.
    fn record_prepared_aborted(&mut self, _gid: GlobalActivityId) {}
    /// A compensating activity executed.
    fn record_compensated(&mut self, _gid: GlobalActivityId) {}
    /// May the process commit now (Definition 11.1)? `Err` names the
    /// processes it waits for. A process parked on a deferred activity asks
    /// the same before its release (Lemma 1.1). Policies without commit
    /// ordering always answer `Ok`.
    fn can_commit(&mut self, _pid: ProcessId) -> Result<(), Vec<ProcessId>> {
        Ok(())
    }
    /// The process committed.
    fn on_commit(&mut self, pid: ProcessId);
    /// Which dependents must cascade when `pid` aborts (victims in reverse
    /// dependency order). Policies without cascades name none.
    fn plan_abort(
        &mut self,
        _pid: ProcessId,
        _compensations: &[GlobalActivityId],
        _forward_services: &[ServiceId],
    ) -> Vec<ProcessId> {
        Vec::new()
    }
    /// The process aborted (completion finished).
    fn on_abort(&mut self, pid: ProcessId);
    /// The process's abort was initiated (its completion starts executing).
    fn on_abort_begin(&mut self, _pid: ProcessId) {}
    /// Gate for a compensation step of a completion (see
    /// [`CompletionGate`]). Policies without recovery obligations always
    /// answer [`CompletionGate::Ready`].
    fn compensation_gate(&self, _gid: GlobalActivityId) -> CompletionGate {
        CompletionGate::Ready
    }
    /// Gate for a forward-recovery step of a completion.
    fn forward_gate(&self, _pid: ProcessId, _service: ServiceId) -> CompletionGate {
        CompletionGate::Ready
    }
    /// Whether no process holds a record: a quiescent point, from which a
    /// process runs alone until a second one executes, and the step answers
    /// its calls itself ([`Protocol::alone`]). Policies that do not retire
    /// say no, and are asked every call.
    fn quiescent(&self) -> bool {
        false
    }
    /// The protocol state the policy decides by, if it is the paper's.
    #[cfg(test)]
    fn protocol(&self) -> Option<&Protocol<'_>> {
        None
    }
}

/// A completion is planned and gated only while its process is active: the
/// protocol answers these for a process it retired as for one without
/// records.
fn debug_assert_active(protocol: &Protocol<'_>, pid: ProcessId) {
    debug_assert_eq!(
        protocol.status(pid),
        ProtStatus::Active,
        "{pid}'s completion asked after it terminated"
    );
}

/// The paper's PRED scheduling protocol is a policy as it stands.
impl Policy for Protocol<'_> {
    fn register(&mut self, pid: ProcessId) {
        Protocol::register(self, pid);
    }
    fn request(&mut self, pid: ProcessId, _gid: GlobalActivityId, service: ServiceId) -> Admission {
        Protocol::request(self, pid, service)
    }
    fn record_executed(
        &mut self,
        gid: GlobalActivityId,
        deferred: bool,
    ) -> Vec<(ProcessId, ProcessId)> {
        Protocol::record_executed(self, gid, deferred)
    }
    fn record_deferred_released(&mut self, gid: GlobalActivityId) {
        Protocol::record_deferred_released(self, gid);
    }
    fn record_prepared_aborted(&mut self, gid: GlobalActivityId) {
        Protocol::record_prepared_aborted(self, gid);
    }
    fn record_compensated(&mut self, gid: GlobalActivityId) {
        Protocol::record_compensated(self, gid);
    }
    fn can_commit(&mut self, pid: ProcessId) -> Result<(), Vec<ProcessId>> {
        Protocol::can_commit(self, pid)
    }
    fn on_commit(&mut self, pid: ProcessId) {
        self.record_process_commit(pid);
    }
    fn plan_abort(
        &mut self,
        pid: ProcessId,
        compensations: &[GlobalActivityId],
        forward_services: &[ServiceId],
    ) -> Vec<ProcessId> {
        debug_assert_active(self, pid);
        Protocol::plan_abort(self, pid, compensations, forward_services)
    }
    fn on_abort(&mut self, pid: ProcessId) {
        self.record_process_abort(pid);
    }
    fn on_abort_begin(&mut self, pid: ProcessId) {
        self.mark_aborting(pid);
    }
    fn compensation_gate(&self, gid: GlobalActivityId) -> CompletionGate {
        debug_assert_active(self, gid.process);
        Protocol::compensation_gate(self, gid)
    }
    fn forward_gate(&self, pid: ProcessId, service: ServiceId) -> CompletionGate {
        debug_assert_active(self, pid);
        Protocol::forward_gate(self, pid, service)
    }
    fn quiescent(&self) -> bool {
        Protocol::quiescent(self)
    }
    #[cfg(test)]
    fn protocol(&self) -> Option<&Protocol<'_>> {
        Some(self)
    }
}

/// Serial execution: one process at a time, admission order.
#[derive(Debug, Default)]
pub struct SerialPolicy {
    order: Vec<ProcessId>,
    terminated: BTreeSet<ProcessId>,
}

impl SerialPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn head(&self) -> Option<ProcessId> {
        self.order
            .iter()
            .copied()
            .find(|p| !self.terminated.contains(p))
    }
}

impl Policy for SerialPolicy {
    fn register(&mut self, pid: ProcessId) {
        if !self.order.contains(&pid) {
            self.order.push(pid);
        }
    }
    fn request(
        &mut self,
        pid: ProcessId,
        _gid: GlobalActivityId,
        _service: ServiceId,
    ) -> Admission {
        match self.head() {
            Some(h) if h == pid => Admission::Allow,
            Some(h) => Admission::Wait { blockers: vec![h] },
            None => Admission::Allow,
        }
    }
    fn on_commit(&mut self, pid: ProcessId) {
        self.terminated.insert(pid);
    }
    fn on_abort(&mut self, pid: ProcessId) {
        self.terminated.insert(pid);
    }
}

/// Process-level conflict locking: a process acquires (logical) locks on all
/// services it may invoke before its first activity runs; conflicting
/// processes are serialized entirely.
pub struct ConservativePolicy<'a> {
    spec: &'a Spec,
    /// Lock sets of live processes.
    held: BTreeMap<ProcessId, Vec<ServiceId>>,
    /// Registered processes that have not acquired their locks yet.
    pending: BTreeSet<ProcessId>,
}

impl<'a> ConservativePolicy<'a> {
    /// Creates the policy over a spec.
    pub fn new(spec: &'a Spec) -> Self {
        Self {
            spec,
            held: BTreeMap::new(),
            pending: BTreeSet::new(),
        }
    }

    fn lock_set(&self, pid: ProcessId) -> Vec<ServiceId> {
        let process = self.spec.process(pid).expect("registered process");
        let mut set: Vec<ServiceId> = process.iter().map(|(id, _)| process.service(id)).collect();
        set.sort();
        set.dedup();
        set
    }

    fn conflicts_with_held(&self, pid: ProcessId, wanted: &[ServiceId]) -> Vec<ProcessId> {
        let oracle = self.spec.oracle();
        self.held
            .iter()
            .filter(|&(&other, _)| other != pid)
            .filter(|(_, theirs)| {
                wanted
                    .iter()
                    .any(|&w| theirs.iter().any(|&t| oracle.conflict(w, t)))
            })
            .map(|(&other, _)| other)
            .collect()
    }
}

impl Policy for ConservativePolicy<'_> {
    fn register(&mut self, pid: ProcessId) {
        self.pending.insert(pid);
    }
    fn request(
        &mut self,
        pid: ProcessId,
        _gid: GlobalActivityId,
        _service: ServiceId,
    ) -> Admission {
        if self.held.contains_key(&pid) {
            return Admission::Allow;
        }
        let wanted = self.lock_set(pid);
        let blockers = self.conflicts_with_held(pid, &wanted);
        if blockers.is_empty() {
            self.pending.remove(&pid);
            self.held.insert(pid, wanted);
            Admission::Allow
        } else {
            Admission::Wait { blockers }
        }
    }
    fn on_commit(&mut self, pid: ProcessId) {
        self.held.remove(&pid);
    }
    fn on_abort(&mut self, pid: ProcessId) {
        self.held.remove(&pid);
    }
}

/// Concurrency control without recovery: serializability only.
pub struct UnsafeCcPolicy<'a> {
    protocol: Protocol<'a>,
}

impl<'a> UnsafeCcPolicy<'a> {
    /// Creates the policy over a spec.
    pub fn new(spec: &'a Spec) -> Self {
        Self {
            // The inner protocol is only used for edge/cycle tracking.
            protocol: Protocol::new(spec, DeferPolicy::PrepareAndDefer),
        }
    }
}

impl Policy for UnsafeCcPolicy<'_> {
    fn register(&mut self, pid: ProcessId) {
        self.protocol.register(pid);
    }
    fn request(&mut self, pid: ProcessId, _gid: GlobalActivityId, service: ServiceId) -> Admission {
        match self.protocol.request(pid, service) {
            Admission::Reject { conflicting } => Admission::Reject { conflicting },
            // Ignore every recovery-related obligation.
            _ => Admission::Allow,
        }
    }
    fn record_executed(
        &mut self,
        gid: GlobalActivityId,
        _deferred: bool,
    ) -> Vec<(ProcessId, ProcessId)> {
        self.protocol.record_executed(gid, false)
    }
    fn record_compensated(&mut self, gid: GlobalActivityId) {
        self.protocol.record_compensated(gid);
    }
    fn on_commit(&mut self, pid: ProcessId) {
        self.protocol.record_process_commit(pid);
    }
    fn on_abort(&mut self, pid: ProcessId) {
        self.protocol.record_process_abort(pid);
    }
}

/// Selectable policy kind (run configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's PRED scheduler: protocol pre-filter (Lemmas 1–3) *plus*
    /// per-event certification of the completed prefix (§3.5: "the
    /// completed process schedule has always to be considered").
    Pred,
    /// Certified PRED, but non-compensatable activities wait instead of
    /// executing under deferred 2PC commit (ablation).
    PredWait,
    /// Protocol rules only, no prefix certification (ablation: the lemma
    /// obligations are necessary but not sufficient; this measures how often
    /// they fall short).
    PredProtocol,
    /// Serial execution.
    Serial,
    /// Process-level conflict locking.
    Conservative,
    /// Serializability without recovery obligations (unsafe baseline).
    UnsafeCc,
}

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build<'a>(self, spec: &'a Spec) -> Box<dyn Policy + Send + 'a> {
        match self {
            PolicyKind::Pred | PolicyKind::PredProtocol => {
                Box::new(Protocol::new(spec, DeferPolicy::PrepareAndDefer))
            }
            PolicyKind::PredWait => Box::new(Protocol::new(spec, DeferPolicy::DeferExecution)),
            PolicyKind::Serial => Box::new(SerialPolicy::new()),
            PolicyKind::Conservative => Box::new(ConservativePolicy::new(spec)),
            PolicyKind::UnsafeCc => Box::new(UnsafeCcPolicy::new(spec)),
        }
    }

    /// Whether the engine certifies every effect event against the completed
    /// prefix before emitting it.
    pub fn certified(self) -> bool {
        matches!(self, PolicyKind::Pred | PolicyKind::PredWait)
    }

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Pred => "pred",
            PolicyKind::PredWait => "pred-wait",
            PolicyKind::PredProtocol => "pred-protocol",
            PolicyKind::Serial => "serial",
            PolicyKind::Conservative => "conservative",
            PolicyKind::UnsafeCc => "unsafe-cc",
        }
    }

    /// All kinds.
    pub fn all() -> [PolicyKind; 6] {
        [
            PolicyKind::Pred,
            PolicyKind::PredWait,
            PolicyKind::PredProtocol,
            PolicyKind::Serial,
            PolicyKind::Conservative,
            PolicyKind::UnsafeCc,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txproc_core::fixtures;

    #[test]
    fn serial_policy_allows_only_head() {
        let fx = fixtures::paper_world();
        let mut p = SerialPolicy::new();
        p.register(ProcessId(1));
        p.register(ProcessId(2));
        let svc = fx.spec.service_of(fx.a(1, 1)).unwrap();
        assert_eq!(p.request(ProcessId(1), fx.a(1, 1), svc), Admission::Allow);
        assert!(matches!(
            p.request(ProcessId(2), fx.a(2, 1), svc),
            Admission::Wait { .. }
        ));
        p.on_commit(ProcessId(1));
        assert_eq!(p.request(ProcessId(2), fx.a(2, 1), svc), Admission::Allow);
    }

    #[test]
    fn conservative_policy_blocks_conflicting_process() {
        let fx = fixtures::paper_world();
        let mut p = ConservativePolicy::new(&fx.spec);
        p.register(ProcessId(1));
        p.register(ProcessId(2));
        let s1 = fx.spec.service_of(fx.a(1, 1)).unwrap();
        let s2 = fx.spec.service_of(fx.a(2, 1)).unwrap();
        assert_eq!(p.request(ProcessId(1), fx.a(1, 1), s1), Admission::Allow);
        // P₂ shares conflicting services with P₁ (Figure 4): blocked.
        assert!(matches!(
            p.request(ProcessId(2), fx.a(2, 1), s2),
            Admission::Wait { .. }
        ));
        p.on_abort(ProcessId(1));
        assert_eq!(p.request(ProcessId(2), fx.a(2, 1), s2), Admission::Allow);
    }

    #[test]
    fn conservative_policy_allows_disjoint_processes() {
        let fx = fixtures::cim_world();
        // Construction and production conflict (PDM pair): blocked. But a
        // process against itself re-requests freely.
        let mut p = ConservativePolicy::new(&fx.spec);
        let c = fx.construction.id;
        p.register(c);
        let svc = fx
            .spec
            .service_of(fx.construction_activity("design"))
            .unwrap();
        assert_eq!(
            p.request(c, fx.construction_activity("design"), svc),
            Admission::Allow
        );
        assert_eq!(
            p.request(c, fx.construction_activity("pdm_entry"), svc),
            Admission::Allow
        );
    }

    #[test]
    fn unsafe_cc_ignores_deferment_but_rejects_cycles() {
        let fx = fixtures::paper_world();
        let mut p = UnsafeCcPolicy::new(&fx.spec);
        p.register(ProcessId(1));
        p.register(ProcessId(2));
        let s23 = fx.spec.service_of(fx.a(2, 3)).unwrap();
        p.record_executed(fx.a(1, 1), false);
        p.record_executed(fx.a(2, 1), false);
        // The PRED policy would defer the pivot; unsafe-cc allows it.
        assert_eq!(p.request(ProcessId(2), fx.a(2, 3), s23), Admission::Allow);
        // But cycles are still rejected (it is a CC scheduler).
        p.record_executed(fx.a(2, 3), false);
        p.record_executed(fx.a(2, 4), false);
        let s12 = fx.spec.service_of(fx.a(1, 2)).unwrap();
        assert!(matches!(
            p.request(ProcessId(1), fx.a(1, 2), s12),
            Admission::Reject { .. }
        ));
    }

    #[test]
    fn policy_kind_builds_all() {
        let fx = fixtures::paper_world();
        let mut labels = BTreeSet::new();
        for kind in PolicyKind::all() {
            kind.build(&fx.spec);
            assert!(labels.insert(kind.label()), "{kind:?}: label not unique");
        }
    }
}
