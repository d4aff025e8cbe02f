//! Naive reference for `txproc_core::protocol::Protocol`: the scan
//! formulation of every Lemma 1–3 decision, over an operation log and an
//! edge list of its own. No index, no row, no cache — every answer rescans
//! the whole log — so it shares nothing with the protocol it checks but the
//! spec and the decision types.
//!
//! Test support, included by path (`protocol_properties.rs` here,
//! `indexed_scan_parity.rs` in the engine crate); not every includer calls
//! every method.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use txproc_core::ids::{GlobalActivityId, ProcessId, ServiceId};
use txproc_core::protocol::{Admission, CompletionGate, DeferPolicy, ProtStatus};
use txproc_core::spec::Spec;

#[derive(Debug, Clone)]
struct Rec {
    gid: GlobalActivityId,
    /// Base service.
    service: ServiceId,
    compensated: bool,
    stable: bool,
    deferred: bool,
}

/// The reference protocol: same calls, same answers, by scanning.
pub struct ScanProtocol<'a> {
    spec: &'a Spec,
    policy: DeferPolicy,
    ops: Vec<Rec>,
    edges: BTreeSet<(ProcessId, ProcessId)>,
    status: BTreeMap<ProcessId, ProtStatus>,
    deferred: BTreeMap<ProcessId, Vec<GlobalActivityId>>,
    aborting: BTreeSet<ProcessId>,
}

impl<'a> ScanProtocol<'a> {
    pub fn new(spec: &'a Spec, policy: DeferPolicy) -> Self {
        Self {
            spec,
            policy,
            ops: Vec::new(),
            edges: BTreeSet::new(),
            status: BTreeMap::new(),
            deferred: BTreeMap::new(),
            aborting: BTreeSet::new(),
        }
    }

    pub fn register(&mut self, pid: ProcessId) {
        self.status.insert(pid, ProtStatus::Active);
    }

    pub fn status(&self, pid: ProcessId) -> ProtStatus {
        self.status.get(&pid).copied().unwrap_or(ProtStatus::Active)
    }

    pub fn edges(&self) -> Vec<(ProcessId, ProcessId)> {
        self.edges.iter().copied().collect()
    }

    pub fn deferred_of(&self, pid: ProcessId) -> &[GlobalActivityId] {
        self.deferred.get(&pid).map_or(&[], Vec::as_slice)
    }

    fn is_active(&self, pid: ProcessId) -> bool {
        self.status(pid) == ProtStatus::Active
    }

    fn base_of(&self, gid: GlobalActivityId) -> ServiceId {
        self.spec
            .catalog
            .base(self.spec.service_of(gid).expect("validated activity"))
    }

    /// The edges out of `p`, ascending.
    fn successors(&self, p: ProcessId) -> impl Iterator<Item = ProcessId> + '_ {
        let out = (p, ProcessId(0))..=(p, ProcessId(u32::MAX));
        self.edges.range(out).map(|e| e.1)
    }

    /// Everything `from` reaches over one or more edges: DFS over the raw
    /// edge set.
    fn descendants(&self, from: ProcessId) -> BTreeSet<ProcessId> {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<ProcessId> = self.successors(from).collect();
        while let Some(p) = stack.pop() {
            if seen.insert(p) {
                stack.extend(self.successors(p));
            }
        }
        seen
    }

    /// The live operations among `ops` of processes other than `pid` that
    /// conflict with `service`.
    fn conflicting<'r>(
        &'r self,
        ops: &'r [Rec],
        pid: ProcessId,
        service: ServiceId,
    ) -> impl Iterator<Item = &'r Rec> + 'r {
        let oracle = self.spec.oracle();
        let live = move |r: &&Rec| r.gid.process != pid && !r.compensated;
        ops.iter()
            .filter(live)
            .filter(move |r| oracle.conflict(r.service, service))
    }

    /// Processes (≠ `pid`) with a live operation conflicting with `service`.
    fn predecessors(&self, pid: ProcessId, service: ServiceId) -> BTreeSet<ProcessId> {
        let holders = self.conflicting(&self.ops, pid, service);
        holders.map(|r| r.gid.process).collect()
    }

    pub fn request(&self, pid: ProcessId, service: ServiceId) -> Admission {
        let preds = self.predecessors(pid, service);
        let below = self.descendants(pid);
        for &pi in &preds {
            if !self.edges.contains(&(pi, pid)) && below.contains(&pi) {
                return Admission::Reject { conflicting: pi };
            }
        }
        let due: BTreeSet<ProcessId> = self
            .conflicting(&self.ops, pid, service)
            .filter(|r| !r.stable && self.aborting.contains(&r.gid.process))
            .map(|r| r.gid.process)
            .collect();
        if !due.is_empty() {
            let blockers = due.into_iter().collect();
            return Admission::Wait { blockers };
        }
        let base = self.spec.catalog.base(service);
        if self.spec.catalog.termination(base).is_compensatable() {
            return Admission::Allow;
        }
        let mut blockers = preds;
        blockers.extend(self.edges.iter().filter(|e| e.1 == pid).map(|e| e.0));
        let blockers: Vec<ProcessId> = blockers
            .into_iter()
            .filter(|&pi| self.is_active(pi))
            .collect();
        if blockers.is_empty() {
            return Admission::Allow;
        }
        match self.policy {
            DeferPolicy::PrepareAndDefer => Admission::AllowDeferred { blockers },
            DeferPolicy::DeferExecution => Admission::Wait { blockers },
        }
    }

    pub fn record_executed(
        &mut self,
        gid: GlobalActivityId,
        deferred: bool,
    ) -> Vec<(ProcessId, ProcessId)> {
        let pid = gid.process;
        self.status.entry(pid).or_insert(ProtStatus::Active);
        let service = self.base_of(gid);
        let compensatable = self.spec.catalog.termination(service).is_compensatable();
        let mut added = Vec::new();
        for pi in self.predecessors(pid, service) {
            if self.edges.insert((pi, pid)) {
                added.push((pi, pid));
            }
        }
        let stabilizes = !compensatable && !deferred;
        if stabilizes {
            for r in self.ops.iter_mut().filter(|r| r.gid.process == pid) {
                r.stable = true;
            }
        }
        self.ops.push(Rec {
            gid,
            service,
            compensated: false,
            stable: stabilizes,
            deferred,
        });
        if deferred {
            self.deferred.entry(pid).or_default().push(gid);
        }
        added
    }

    pub fn record_compensated(&mut self, gid: GlobalActivityId) {
        let mut records = self.ops.iter_mut().rev();
        if let Some(r) = records.find(|r| r.gid == gid && !r.compensated) {
            r.compensated = true;
        }
    }

    pub fn can_commit(&self, pid: ProcessId) -> Result<(), Vec<ProcessId>> {
        let into = self
            .edges
            .iter()
            .filter(|e| e.1 == pid && self.is_active(e.0));
        let blockers: Vec<ProcessId> = into.map(|e| e.0).collect();
        if blockers.is_empty() {
            Ok(())
        } else {
            Err(blockers)
        }
    }

    pub fn record_process_commit(&mut self, pid: ProcessId) {
        self.status.insert(pid, ProtStatus::Committed);
        for r in self.ops.iter_mut().filter(|r| r.gid.process == pid) {
            r.stable = !r.compensated;
        }
    }

    fn undefer(&mut self, gid: GlobalActivityId) {
        if let Some(list) = self.deferred.get_mut(&gid.process) {
            list.retain(|&g| g != gid);
            if list.is_empty() {
                self.deferred.remove(&gid.process);
            }
        }
    }

    pub fn record_prepared_aborted(&mut self, gid: GlobalActivityId) {
        for r in self.ops.iter_mut().filter(|r| r.gid == gid && r.deferred) {
            r.compensated = true;
            r.deferred = false;
        }
        self.undefer(gid);
    }

    pub fn record_deferred_released(&mut self, gid: GlobalActivityId) {
        if let Some(last) = self.ops.iter().rposition(|r| r.gid == gid) {
            for r in self.ops[..=last].iter_mut() {
                if r.gid == gid {
                    r.deferred = false;
                }
                if r.gid.process == gid.process && !r.compensated {
                    r.stable = true;
                }
            }
        }
        self.undefer(gid);
    }

    pub fn plan_abort(
        &self,
        pid: ProcessId,
        compensating: &[GlobalActivityId],
        forward_services: &[ServiceId],
    ) -> Vec<ProcessId> {
        let oracle = self.spec.oracle();
        let comps: Vec<ServiceId> = compensating.iter().map(|g| self.base_of(*g)).collect();
        let mut victims: BTreeSet<ProcessId> = BTreeSet::new();
        let mut frontier = vec![(pid, [comps, forward_services.to_vec()].concat())];
        while let Some((pi, services)) = frontier.pop() {
            for b in self.successors(pi) {
                if !self.is_active(b) || b == pid || victims.contains(&b) {
                    continue;
                }
                let mine = |r: &&Rec| r.gid.process == b && !r.compensated;
                let hit = self
                    .ops
                    .iter()
                    .filter(mine)
                    .any(|r| services.iter().any(|&s| oracle.conflict(r.service, s)));
                if hit {
                    victims.insert(b);
                    let theirs = self.ops.iter().filter(mine).filter(|r| !r.stable);
                    frontier.push((b, theirs.map(|r| r.service).collect()));
                }
            }
        }
        // Dependents first: repeatedly emit the highest-numbered victim that
        // reaches no other remaining victim.
        let mut remaining: Vec<(ProcessId, BTreeSet<ProcessId>)> = victims
            .into_iter()
            .map(|v| (v, self.descendants(v)))
            .collect();
        let mut ordered = Vec::new();
        while !remaining.is_empty() {
            let i = remaining
                .iter()
                .rposition(|(v, below)| !remaining.iter().any(|(u, _)| u != v && below.contains(u)))
                .unwrap_or(remaining.len() - 1);
            ordered.push(remaining.remove(i).0);
        }
        ordered
    }

    pub fn mark_aborting(&mut self, pid: ProcessId) {
        self.aborting.insert(pid);
    }

    /// Splits the owners of the gating records into waited-for (aborting)
    /// and to-cascade (running); a cascade takes precedence.
    fn gate<'r>(&self, gating: impl Iterator<Item = &'r Rec>) -> CompletionGate {
        let (mut wait, mut cascade) = (BTreeSet::new(), BTreeSet::new());
        for p in gating.map(|r| r.gid.process) {
            match self.status(p) {
                ProtStatus::Active if self.aborting.contains(&p) => wait.insert(p),
                ProtStatus::Active => cascade.insert(p),
                _ => false,
            };
        }
        if !cascade.is_empty() {
            CompletionGate::Cascade(cascade.into_iter().collect())
        } else if !wait.is_empty() {
            CompletionGate::WaitFor(wait.into_iter().collect())
        } else {
            CompletionGate::Ready
        }
    }

    pub fn compensation_gate(&self, gid: GlobalActivityId) -> CompletionGate {
        let Some(pos) = self.ops.iter().position(|r| r.gid == gid && !r.compensated) else {
            return CompletionGate::Ready;
        };
        let later = self.conflicting(&self.ops[pos + 1..], gid.process, self.ops[pos].service);
        self.gate(later.filter(|r| !r.stable))
    }

    pub fn forward_gate(&self, pid: ProcessId, service: ServiceId) -> CompletionGate {
        let holders = self.conflicting(&self.ops, pid, service);
        self.gate(holders.filter(|r| !r.stable))
    }

    pub fn record_process_abort(&mut self, pid: ProcessId) {
        self.status.insert(pid, ProtStatus::Aborted);
        self.aborting.remove(&pid);
        for r in self.ops.iter_mut().filter(|r| r.gid.process == pid) {
            if !r.compensated {
                r.stable = true;
            }
        }
        for gid in self.deferred.remove(&pid).unwrap_or_default() {
            if let Some(r) = self.ops.iter_mut().find(|r| r.gid == gid) {
                r.compensated = true;
            }
        }
    }
}
