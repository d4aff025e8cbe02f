//! Property tests for the scheduling protocol core: whatever sequence of
//! admitted operations is recorded, the dependency structure stays acyclic,
//! the commit/deferment bookkeeping stays consistent, and every answer is
//! the one the naive scan reference (`support/scan_protocol.rs`) gives. The
//! reference never retires a process; the protocol retires every holder at
//! a quiescent point, so the edges it reports are compared on the processes
//! it still holds (`scan_protocol::Holders`), every decision exactly.

#[path = "support/scan_protocol.rs"]
mod scan_protocol;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scan_protocol::{Holders, ScanProtocol};
use std::fmt::Debug;
use txproc_core::activity::Catalog;
use txproc_core::conflict::ConflictMatrix;
use txproc_core::fixtures::paper_world;
use txproc_core::ids::{ActivityId, GlobalActivityId, ProcessId, ServiceId};
use txproc_core::process::ProcessBuilder;
use txproc_core::protocol::{Admission, CompletionGate, DeferPolicy, ProtStatus, Protocol};
use txproc_core::serializability::ProcessGraph;
use txproc_core::spec::Spec;
use txproc_core::state::ProcessState;

/// The protocol and its naive reference fed the same calls. Every answer
/// either gives is compared with an explicit `assert_eq!` ([`Both::same`]),
/// so the differential also runs in release builds.
struct Both<'a> {
    rows: Protocol<'a>,
    scan: ScanProtocol<'a>,
    /// What the protocol must still hold.
    held: Holders,
    /// Context for a failing comparison.
    at: String,
}

impl<'a> Both<'a> {
    fn new(spec: &'a Spec, policy: DeferPolicy) -> Self {
        Self {
            rows: Protocol::new(spec, policy),
            scan: ScanProtocol::new(spec, policy),
            held: Holders::default(),
            at: String::new(),
        }
    }

    fn same<T: PartialEq + Debug>(&self, what: &str, rows: T, scan: T) -> T {
        assert_eq!(rows, scan, "{what} divergence ({})", self.at);
        rows
    }

    fn register(&mut self, pid: ProcessId) {
        self.rows.register(pid);
        self.scan.register(pid);
    }

    fn request(&mut self, pid: ProcessId, svc: ServiceId) -> Admission {
        let gates = (
            self.rows.forward_gate(pid, svc),
            self.scan.forward_gate(pid, svc),
        );
        self.same("forward_gate", gates.0, gates.1);
        let answers = (self.rows.request(pid, svc), self.scan.request(pid, svc));
        self.same("request", answers.0, answers.1)
    }

    fn record_executed(&mut self, gid: GlobalActivityId, deferred: bool) {
        let edges = (
            self.rows.record_executed(gid, deferred),
            self.scan.record_executed(gid, deferred),
        );
        self.held.executed(gid.process);
        self.same("edges_added", edges.0, self.held.held(edges.1));
    }

    /// After a termination: the protocol holds what the rule says.
    fn terminated(&mut self) {
        self.held
            .terminated(|p| self.scan.status(p) == ProtStatus::Active);
        self.same("holders", self.rows.holders(), self.held.pids());
    }

    /// The protocol's edges: the reference's among the holders.
    fn edges(&self) -> Vec<(ProcessId, ProcessId)> {
        let edges = self.rows.edges().collect();
        self.same("edges", edges, self.held.held(self.scan.edges()))
    }

    fn record_compensated(&mut self, gid: GlobalActivityId) {
        self.rows.record_compensated(gid);
        self.scan.record_compensated(gid);
    }

    fn record_deferred_released(&mut self, gid: GlobalActivityId) {
        self.rows.record_deferred_released(gid);
        self.scan.record_deferred_released(gid);
    }

    fn mark_aborting(&mut self, pid: ProcessId) {
        self.rows.mark_aborting(pid);
        self.scan.mark_aborting(pid);
    }

    fn commit(&mut self, pid: ProcessId) {
        self.rows.record_process_commit(pid);
        self.scan.record_process_commit(pid);
        self.terminated();
    }

    fn abort(&mut self, pid: ProcessId) {
        self.rows.record_process_abort(pid);
        self.scan.record_process_abort(pid);
        self.terminated();
    }

    fn can_commit(&self, pid: ProcessId) -> Result<(), Vec<ProcessId>> {
        let (rows, scan) = (self.rows.can_commit(pid), self.scan.can_commit(pid));
        self.same("can_commit", rows, scan)
    }

    fn compensation_gate(&self, gid: GlobalActivityId) -> CompletionGate {
        let gates = (
            self.rows.compensation_gate(gid),
            self.scan.compensation_gate(gid),
        );
        self.same("compensation_gate", gates.0, gates.1)
    }

    fn plan_abort(&self, pid: ProcessId, comps: &[GlobalActivityId]) -> Vec<ProcessId> {
        let victims = (
            self.rows.plan_abort(pid, comps, &[]),
            self.scan.plan_abort(pid, comps, &[]),
        );
        self.same("plan_abort", victims.0, victims.1)
    }

    /// Every read-only answer about one process, with what it executed. A
    /// retired process (terminated before the last quiescent point) is the
    /// one documented exception: the protocol no longer holds its records,
    /// so each compensation gate of it is `Ready` and its cascade plan is
    /// empty, where the reference, which keeps them, may name a later
    /// process that conflicts with it. Those answers are asserted instead.
    fn probe(&self, pid: ProcessId, executed: &[GlobalActivityId]) -> String {
        self.same("status", self.rows.status(pid), self.scan.status(pid));
        let deferred = (self.rows.deferred_of(pid), self.scan.deferred_of(pid));
        self.same("deferred_of", deferred.0, deferred.1.to_vec());
        let commit = self.can_commit(pid);
        if self.scan.status(pid) != ProtStatus::Active && !self.held.holds(pid) {
            let ready =
                |gid: &GlobalActivityId| self.rows.compensation_gate(*gid) == CompletionGate::Ready;
            assert!(
                executed.iter().all(ready),
                "{}: gate of retired {pid}",
                self.at
            );
            let victims = self.rows.plan_abort(pid, executed, &[]);
            assert_eq!(victims, [], "{}: plan of retired {pid}", self.at);
            return format!("{pid}: {commit:?} retired");
        }
        let gates: Vec<CompletionGate> = executed
            .iter()
            .map(|gid| self.compensation_gate(*gid))
            .collect();
        let victims = self.plan_abort(pid, executed);
        format!("{pid}: {commit:?} {gates:?} {victims:?}")
    }
}

/// What one randomized run answered.
struct Run {
    /// The admission given to every request, in order.
    log: Vec<(GlobalActivityId, Admission)>,
    /// Every answer, printed: must not depend on the registration order.
    transcript: Vec<String>,
}

/// Drives the protocol and the reference through a randomized lifecycle —
/// admissions, deferred commits, releases and, with `aborts`, compensations
/// and full process aborts — over the processes of `spec`, registered in
/// the order given (a process left out is first seen by `record_executed`).
/// A process parked on a deferred commit is released at its own turn, once
/// `can_commit` admits it (Lemma 1.1), as the engine's step releases it.
/// At every step each decision is compared (see [`Both`]) and the maintained
/// rows are rebuilt from scratch; the edges must stay acyclic.
fn drive(
    spec: &Spec,
    registered: &[ProcessId],
    (seed, policy, steps): (u64, DeferPolicy, usize),
    aborts: bool,
) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut both = Both::new(spec, policy);
    let processes: Vec<_> = spec.processes().collect();
    let mut states: Vec<ProcessState<'_>> = processes
        .iter()
        .map(|p| ProcessState::new(p, &spec.catalog).unwrap())
        .collect();
    let mut executed: Vec<Vec<GlobalActivityId>> = vec![Vec::new(); processes.len()];
    // Prefix of `executed[i]` that is stable (quasi-committed, §3.5) and can
    // no longer be compensated: a committed pivot or a released deferred
    // commit stabilizes everything before it.
    let mut stable_upto: Vec<usize> = vec![0; processes.len()];
    let mut deferred_at: Vec<Option<GlobalActivityId>> = vec![None; processes.len()];
    let mut terminated = vec![false; processes.len()];
    for &pid in registered {
        both.register(pid);
    }
    // A small world is probed whole at every step; a wide one around the
    // stepping process and across the row's word boundaries.
    let small = processes.len() <= 8;
    let (mut log, mut transcript) = (Vec::new(), Vec::new());
    for step in 0..steps {
        let live: Vec<usize> = (0..processes.len()).filter(|&i| !terminated[i]).collect();
        if live.is_empty() {
            break;
        }
        let i = live[rng.gen_range(0..live.len())];
        let pid = processes[i].id;
        both.at = format!("seed {seed}, step {step}");
        let n = processes.len();
        let probed = if small {
            (0..n).collect()
        } else {
            vec![i, (i + 23) % n, (i + 69) % n]
        };
        for j in probed {
            transcript.push(both.probe(processes[j].id, &executed[j]));
        }
        if small || step % 64 == 0 {
            both.rows.check_index_invariants();
        }
        // Occasionally abort a process outright instead of progressing it.
        if aborts && !executed[i].is_empty() && rng.gen_range(0..10u32) == 0 {
            both.mark_aborting(pid);
            // Compensate only what the protocol still considers undoable:
            // nothing before the stable boundary, and not the prepared but
            // unreleased deferred activity (it aborts at prepare instead).
            let comps: Vec<GlobalActivityId> = executed[i][stable_upto[i]..]
                .iter()
                .rev()
                .copied()
                .filter(|g| Some(*g) != deferred_at[i])
                .collect();
            transcript.push(format!("abort {pid}: {:?}", both.plan_abort(pid, &comps)));
            for gid in comps {
                if both.compensation_gate(gid) == CompletionGate::Ready {
                    both.record_compensated(gid);
                }
            }
            both.abort(pid);
        } else if let Some(gid) = deferred_at[i] {
            if both.can_commit(pid).is_ok() {
                // The deferred activity is the last the process executed.
                both.record_deferred_released(gid);
                states[i].apply_commit(gid.activity).unwrap();
                stable_upto[i] = executed[i].len();
                deferred_at[i] = None;
                transcript.push(format!("released {gid}"));
            }
            continue;
        } else if let Some(a) = states[i].next_activity() {
            let gid = GlobalActivityId::new(pid, a);
            let svc = processes[i].service(a);
            let admission = both.request(pid, svc);
            transcript.push(format!("request {gid}: {admission:?}"));
            log.push((gid, admission.clone()));
            match admission {
                Admission::Allow => {
                    both.record_executed(gid, false);
                    executed[i].push(gid);
                    if !spec.catalog.termination(svc).is_compensatable() {
                        // Committed pivot: quasi-commit stabilizes the prefix.
                        stable_upto[i] = executed[i].len();
                    }
                    states[i].apply_commit(a).unwrap();
                }
                Admission::AllowDeferred { .. } => {
                    both.record_executed(gid, true);
                    executed[i].push(gid);
                    deferred_at[i] = Some(gid);
                }
                Admission::Wait { .. } | Admission::Reject { .. } => {}
            }
            continue;
        } else if states[i].can_commit() && both.can_commit(pid).is_ok() {
            both.commit(pid);
        } else {
            continue;
        }
        terminated[i] = true;
        transcript.push(format!("terminated {pid}"));
    }
    both.rows.check_index_invariants();
    both.edges();
    // Retired or not, every edge the run induced is the reference's.
    let mut graph = ProcessGraph::new();
    for (a, b) in both.scan.edges() {
        graph.add_edge(a, b);
    }
    assert!(graph.is_acyclic(), "admitted executions closed a cycle");
    Run { log, transcript }
}

/// `n` processes `c ≪ c' ≪ pivot ≪ r`. The compensatable services are 23
/// self-conflicting ones picked by process number modulo 23 (and shifted by
/// the process's word for the second activity), so every conflict lane —
/// and with it edges, blockers and victims — spans the whole pid range of a
/// shard whose rows are several words wide, without the world being dense.
fn wide_world(n: u32) -> Spec {
    const LANES: usize = 23;
    let mut cat = Catalog::new();
    let comps: Vec<ServiceId> = (0..LANES)
        .map(|k| cat.compensatable(format!("c{k}")).0)
        .collect();
    let (pivot, tail) = (cat.pivot("p"), cat.retriable("r"));
    let mut conflicts = ConflictMatrix::new(&cat);
    for &c in &comps {
        conflicts.declare_self_conflict(&cat, c).unwrap();
    }
    conflicts.declare_conflict(&cat, pivot, comps[0]).unwrap();
    let processes: Vec<_> = (1..=n as usize)
        .map(|i| {
            let mut b = ProcessBuilder::new(ProcessId(i as u32), format!("W{i}"));
            let first = b.activity("a", comps[i % LANES]);
            let second = b.activity("b", comps[(i + i / 64 + 1) % LANES]);
            let (p, r) = (b.activity("p", pivot), b.activity("r", tail));
            b.chain(&[first, second, p, r]);
            b.build(&cat).unwrap()
        })
        .collect();
    let mut spec = Spec::new(cat, conflicts);
    for p in processes {
        spec.add_process(p);
    }
    spec
}

fn pids(spec: &Spec) -> Vec<ProcessId> {
    spec.processes().map(|p| p.id).collect()
}

/// Activity `k` (0-based) of process `p`.
fn act(p: u32, k: u32) -> GlobalActivityId {
    GlobalActivityId::new(ProcessId(p), ActivityId(k))
}

fn p(ids: &[u32]) -> Vec<ProcessId> {
    ids.iter().map(|&i| ProcessId(i)).collect()
}

/// Rows wider than one and than two words: the lifecycle over 70 and over
/// 140 processes agrees with the reference — closure, `plan_abort` order,
/// `can_commit` blockers — with edges across the word boundaries.
#[test]
fn wide_shards_agree_with_the_reference_across_word_boundaries() {
    for (n, steps) in [(70u32, 400usize), (140, 600)] {
        let spec = wide_world(n);
        for policy in [DeferPolicy::PrepareAndDefer, DeferPolicy::DeferExecution] {
            let run = drive(&spec, &pids(&spec), (7 + n as u64, policy, steps), true);
            for kind in ["Reject", "Cascade", "Err(", "abort "] {
                assert!(run.transcript.iter().any(|l| l.contains(kind)), "no {kind}");
            }
        }
    }
}

/// One chain across both word boundaries, P23 → P69 → P138 (all three start
/// with c0, which conflicts with itself) — and the last 76 processes
/// registered only after the first edge exists: a `register` after edges
/// keeps every row, the late process gets a fresh index (one of them widens
/// the rows), nothing recorded before it moves.
#[test]
fn late_registration_and_word_boundaries_keep_the_rows() {
    let spec = wide_world(140);
    let mut both = Both::new(&spec, DeferPolicy::PrepareAndDefer);
    let all = pids(&spec);
    all[..64].iter().for_each(|&pid| both.register(pid));
    both.record_executed(act(23, 0), false);
    both.record_executed(act(46, 0), false);
    let before: Vec<_> = both.rows.edges().collect();
    assert_eq!(before, [(ProcessId(23), ProcessId(46))]);
    all[64..].iter().for_each(|&pid| both.register(pid));
    both.rows.check_index_invariants();
    assert_eq!(both.rows.edges().collect::<Vec<_>>(), before);
    both.record_executed(act(69, 0), false);
    both.record_executed(act(138, 0), false);
    assert_eq!(both.can_commit(ProcessId(138)), Err(p(&[23, 46, 69])));
    let victims = both.plan_abort(ProcessId(23), &[act(23, 0)]);
    assert_eq!(victims, p(&[138, 69, 46]), "dependents first");
    // P23 asking for c0 again would close P46 → P23 (and two more).
    let c0 = spec.service_of(act(23, 0)).unwrap();
    let conflicting = ProcessId(46);
    assert_eq!(
        both.request(ProcessId(23), c0),
        Admission::Reject { conflicting }
    );
    // Aborting holders are waited for, running ones cascade — in every word.
    both.mark_aborting(ProcessId(138));
    let blockers = p(&[138]);
    assert_eq!(
        both.request(ProcessId(92), c0),
        Admission::Wait { blockers }
    );
    let gate = both.compensation_gate(act(23, 0));
    assert_eq!(gate, CompletionGate::Cascade(p(&[46, 69])));
    both.mark_aborting(ProcessId(46));
    both.mark_aborting(ProcessId(69));
    let gate = both.compensation_gate(act(23, 0));
    assert_eq!(gate, CompletionGate::WaitFor(p(&[46, 69, 138])));
    // Nothing conflicting ran after the last operation.
    let gate = both.compensation_gate(act(138, 0));
    assert_eq!(gate, CompletionGate::Ready);
    both.rows.check_index_invariants();
}

/// Dense indices follow the order of first appearance; answers must not.
/// Descending and shuffled registration, and a run that never registers two
/// processes in three (first seen by `record_executed`), produce the
/// ascending run's transcript, line for line.
#[test]
fn answers_do_not_depend_on_registration_order() {
    for (spec, steps) in [(paper_world().spec, 60usize), (wide_world(70), 250)] {
        let ascending = pids(&spec);
        let mut shuffled = ascending.clone();
        let mut rng = StdRng::seed_from_u64(3);
        for k in (1..shuffled.len()).rev() {
            shuffled.swap(k, rng.gen_range(0..k + 1));
        }
        let descending: Vec<ProcessId> = ascending.iter().rev().copied().collect();
        let partial: Vec<ProcessId> = ascending.iter().copied().step_by(3).collect();
        for seed in 0..3 {
            let run = (seed, DeferPolicy::PrepareAndDefer, steps);
            let expect = drive(&spec, &ascending, run, true).transcript;
            for order in [&descending, &shuffled, &partial] {
                let got = drive(&spec, order, run, true).transcript;
                assert_eq!(got, expect, "seed {seed}: registration order shows");
            }
        }
    }
    // Directed: one commit opening the releases of two dependents at once,
    // registered in descending order. P23 runs c0 then c1; P46 follows it on
    // c0, P24 on c1; both tails defer behind it, and both dependents may
    // commit — so release — once it committed.
    let spec = wide_world(70);
    let mut both = Both::new(&spec, DeferPolicy::PrepareAndDefer);
    pids(&spec).iter().rev().for_each(|&pid| both.register(pid));
    for gid in [act(23, 0), act(23, 1), act(46, 0), act(24, 0)] {
        both.record_executed(gid, false);
    }
    for q in [46, 24] {
        let (tail, blockers) = (spec.service_of(act(q, 3)).unwrap(), p(&[23]));
        assert_eq!(
            both.request(ProcessId(q), tail),
            Admission::AllowDeferred { blockers }
        );
        both.record_executed(act(q, 3), true);
    }
    both.commit(ProcessId(23));
    for q in [24, 46] {
        assert_eq!(both.can_commit(ProcessId(q)), Ok(()));
        assert_eq!(both.rows.deferred_of(ProcessId(q)), [act(q, 3)]);
    }
    both.rows.check_index_invariants();
}

/// `record_executed` derives its edges from the state at the record, not
/// at the admitting `request`: a mutating call between the two moves them.
/// Either way the edges are the reference's.
#[test]
fn record_executed_edges_follow_the_state_at_the_record() {
    let spec = wide_world(140);
    let mut both = Both::new(&spec, DeferPolicy::PrepareAndDefer);
    pids(&spec).iter().for_each(|&pid| both.register(pid));
    // P23, P46, … , P138 all start with the self-conflicting c0.
    let c0 = spec.service_of(act(23, 0)).unwrap();
    both.record_executed(act(23, 0), false);
    assert_eq!(both.request(ProcessId(46), c0), Admission::Allow);
    both.record_executed(act(46, 0), false);
    // A conflicting execution between request and record: the record
    // names P69 → P92, which the request could not see.
    assert_eq!(both.request(ProcessId(92), c0), Admission::Allow);
    both.record_executed(act(69, 0), false);
    both.record_executed(act(92, 0), false);
    let late = (ProcessId(69), ProcessId(92));
    assert!(both.rows.edges().any(|e| e == late));
    // So does any other mutating call, and a record for another activity.
    assert_eq!(both.request(ProcessId(115), c0), Admission::Allow);
    both.mark_aborting(ProcessId(70));
    both.record_executed(act(115, 0), false);
    assert_eq!(both.request(ProcessId(138), c0), Admission::Allow);
    both.record_executed(act(1, 0), false);
    both.rows.check_index_invariants();
}

/// Requests `gid` and records it when admitted, prepared if deferred.
fn exec(both: &mut Both<'_>, spec: &Spec, gid: GlobalActivityId) -> Admission {
    let admission = both.request(gid.process, spec.service_of(gid).unwrap());
    match admission {
        Admission::Allow => both.record_executed(gid, false),
        Admission::AllowDeferred { .. } => both.record_executed(gid, true),
        Admission::Wait { .. } | Admission::Reject { .. } => {}
    }
    admission
}

/// P3 runs alone and commits: a quiescent point, which retires it. P1's
/// a1_1 conflicts with P3's a3_1, but no process after the point can reach
/// P3, so P1 gets no edge from it and waits for nothing — the reference's
/// answers exactly, with the edge `P3 → P1` that only the reference keeps.
/// Only what is asked about P3 itself differs.
#[test]
fn a_process_after_a_quiescent_point_skips_the_retired_one() {
    let fx = paper_world();
    let mut both = Both::new(&fx.spec, DeferPolicy::PrepareAndDefer);
    pids(&fx.spec).iter().for_each(|&pid| both.register(pid));
    for gid in [fx.a(3, 1), fx.a(3, 2)] {
        assert_eq!(exec(&mut both, &fx.spec, gid), Admission::Allow);
    }
    both.commit(ProcessId(3));
    assert_eq!((both.rows.holders(), both.rows.records()), (vec![], 0));
    assert_eq!(exec(&mut both, &fx.spec, fx.a(1, 1)), Admission::Allow);
    assert_eq!(both.scan.edges(), [(ProcessId(3), ProcessId(1))]);
    assert_eq!(both.edges(), []);
    assert_eq!(both.can_commit(ProcessId(1)), Ok(()));
    // The documented exception: asked about the retired P3, the reference
    // would cascade P1; the protocol holds nothing of P3 and answers as for
    // a process without records.
    let a31 = fx.a(3, 1);
    let cascade = CompletionGate::Cascade(p(&[1]));
    assert_eq!(both.scan.compensation_gate(a31), cascade);
    assert_eq!(both.rows.compensation_gate(a31), CompletionGate::Ready);
    assert_eq!(both.scan.plan_abort(ProcessId(3), &[a31], &[]), p(&[1]));
    assert_eq!(both.rows.plan_abort(ProcessId(3), &[a31], &[]), []);
    // Later processes are ordered against P1 as before.
    assert_eq!(exec(&mut both, &fx.spec, fx.a(2, 1)), Admission::Allow);
    assert_eq!(both.edges(), [(ProcessId(1), ProcessId(2))]);
    assert_eq!(both.can_commit(ProcessId(2)), Err(p(&[1])));
    assert_eq!(both.rows.retirements(), 1);
    both.rows.check_index_invariants();
}

/// A cycle among processes that all came after a quiescent point is still
/// rejected. P1 runs c1 and commits alone; then P23 and P46 both run c0
/// (P23 → P46) and P46 runs c1, which conflicts with the retired P1 too.
/// P23 asking for c1 would close P46 → P23.
#[test]
fn a_cycle_after_a_quiescent_point_is_rejected() {
    let spec = wide_world(70);
    let mut both = Both::new(&spec, DeferPolicy::PrepareAndDefer);
    pids(&spec).iter().for_each(|&pid| both.register(pid));
    assert_eq!(exec(&mut both, &spec, act(1, 0)), Admission::Allow);
    both.commit(ProcessId(1));
    for gid in [act(23, 0), act(46, 0), act(46, 1)] {
        assert_eq!(exec(&mut both, &spec, gid), Admission::Allow);
    }
    assert_eq!(both.edges(), [(ProcessId(23), ProcessId(46))]);
    let conflicting = ProcessId(46);
    assert_eq!(
        exec(&mut both, &spec, act(23, 1)),
        Admission::Reject { conflicting }
    );
    assert_eq!(both.rows.holders(), p(&[23, 46]));
    both.rows.check_index_invariants();
}

/// P2's pivot defers behind P1. P1 commits first: P2 still holds records
/// and runs, so that is no quiescent point, and the edge that opened P2's
/// release is kept. P2's own commit is the quiescent point; P3, which
/// conflicts with P1's a1_1, then waits for neither.
#[test]
fn a_deferred_commit_whose_blocker_terminates_first_retires_with_it() {
    let fx = paper_world();
    let mut both = Both::new(&fx.spec, DeferPolicy::PrepareAndDefer);
    pids(&fx.spec).iter().for_each(|&pid| both.register(pid));
    for gid in [fx.a(1, 1), fx.a(2, 1), fx.a(2, 2)] {
        assert_eq!(exec(&mut both, &fx.spec, gid), Admission::Allow);
    }
    let blockers = p(&[1]);
    assert_eq!(
        exec(&mut both, &fx.spec, fx.a(2, 3)),
        Admission::AllowDeferred { blockers }
    );
    both.commit(ProcessId(1));
    assert_eq!(both.rows.holders(), p(&[1, 2]));
    assert_eq!(both.edges(), [(ProcessId(1), ProcessId(2))]);
    assert_eq!(both.can_commit(ProcessId(2)), Ok(()));
    both.record_deferred_released(fx.a(2, 3));
    for gid in [fx.a(2, 4), fx.a(2, 5)] {
        assert_eq!(exec(&mut both, &fx.spec, gid), Admission::Allow);
    }
    both.rows.check_index_invariants();
    both.commit(ProcessId(2));
    assert_eq!((both.rows.holders(), both.rows.records()), (vec![], 0));
    assert_eq!(exec(&mut both, &fx.spec, fx.a(3, 1)), Admission::Allow);
    assert_eq!(both.can_commit(ProcessId(3)), Ok(()));
    assert_eq!(
        both.scan.edges(),
        [(ProcessId(1), ProcessId(2)), (ProcessId(1), ProcessId(3))]
    );
    assert_eq!(both.edges(), []);
    both.rows.check_index_invariants();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Non-compensatable activities are only admitted immediately when no
    /// active conflicting predecessor exists (Lemma 1).
    #[test]
    fn non_compensatables_never_bypass_deferment(seed in 0u64..10_000) {
        let fx = paper_world();
        let run = (seed, DeferPolicy::PrepareAndDefer, 40);
        let log = drive(&fx.spec, &pids(&fx.spec), run, false).log;
        // In the paper world, a2_3 (P2's pivot) conflicts transitively with
        // P1 through a2_1; whenever P2 executed a2_1 after P1's a1_1 and P1
        // is still running, the pivot must not get a plain Allow afterwards.
        let mut p1_started = false;
        let mut p2_read_after_p1 = false;
        for (gid, admission) in &log {
            if *gid == fx.a(1, 1) && matches!(admission, Admission::Allow) {
                p1_started = true;
            }
            if *gid == fx.a(2, 1) && p1_started && matches!(admission, Admission::Allow) {
                p2_read_after_p1 = true;
            }
            if *gid == fx.a(2, 3) && p2_read_after_p1 {
                // P1 has at most 4 forward activities; if P1 terminated the
                // admission may be Allow. Otherwise it must defer.
                if log.iter().filter(|(g, a)| g.process == ProcessId(1)
                    && matches!(a, Admission::Allow | Admission::AllowDeferred { .. })).count() < 4
                {
                    prop_assert!(
                        !matches!(admission, Admission::Allow),
                        "pivot admitted plainly despite active conflicting predecessor"
                    );
                }
            }
        }
    }

    /// Every decision API (`request`, `can_commit`, `compensation_gate`,
    /// `forward_gate`, `plan_abort`) and every value a recording call
    /// returns is bit-identical to the scan reference at every step of a
    /// randomized lifecycle, with and without aborts, under both deferment
    /// policies; the maintained rows match a from-scratch rebuild
    /// throughout; the edges stay acyclic (`drive` asserts all three); and
    /// `DeferExecution` never prepares.
    #[test]
    fn indexed_decisions_match_scan_oracle(
        seed in 0u64..10_000,
        wait in any::<bool>(),
        aborts in any::<bool>(),
    ) {
        let policy = if wait {
            DeferPolicy::DeferExecution
        } else {
            DeferPolicy::PrepareAndDefer
        };
        let spec = paper_world().spec;
        let log = drive(&spec, &pids(&spec), (seed, policy, 60), aborts).log;
        prop_assert!(
            !wait || log.iter().all(|(_, a)| !matches!(a, Admission::AllowDeferred { .. })),
            "DeferExecution must never prepare"
        );
    }
}
