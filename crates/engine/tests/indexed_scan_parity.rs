//! The scan formulation of the Lemma 1–3 protocol as a test oracle: every
//! protocol decision a run journals must be the one the naive reference
//! (`txproc-core`'s `tests/support/scan_protocol.rs`) gives when it is asked
//! the same question in the same state.
//!
//! Each *decision* is held against it, as `certify_reference.rs` does for the
//! certifier: a run carries a journal; the journal names every call that
//! changed policy state, so replaying it drives the reference through the
//! run's own states, and every journalled admission, block, rejection,
//! commit block, completion gate and cascade plan is re-asked there —
//! including the order inside `blockers`, `edges_added`, `wait_for` and
//! `victims`.

#[path = "../../core/tests/support/scan_protocol.rs"]
mod scan_protocol;

use scan_protocol::ScanProtocol;
use std::collections::{BTreeMap, BTreeSet};
use txproc_core::ids::{GlobalActivityId, ProcessId};
use txproc_core::pred::check_pred;
use txproc_core::protocol::{Admission, CompletionGate, DeferPolicy};
use txproc_core::schedule::Schedule;
use txproc_core::state::ProcessState;
use txproc_core::trace::{AbortReason, Journal, TraceEvent, TraceRecord};
use txproc_engine::engine::RunConfig;
use txproc_engine::policy::PolicyKind;
use txproc_engine::RunBuilder;
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

/// 256 randomized workloads: seeds 0..256 sweeping conflict density and
/// failure probability so the runs exercise waits, deferred commits,
/// cascades and aborts, not just the happy path.
fn configs() -> impl Iterator<Item = WorkloadConfig> {
    let sweep = (0..256u64).map(|seed| WorkloadConfig {
        seed,
        processes: 4 + (seed % 3) as usize,
        conflict_density: [0.2, 0.5, 0.8][(seed % 3) as usize],
        failure_probability: [0.0, 0.15, 0.3][((seed / 3) % 3) as usize],
        ..WorkloadConfig::default()
    });
    // A few crowded worlds on top: closed completion gates and blocked
    // requests need more processes in each other's way than the sweep has.
    let crowded = (1000..1008u64).map(|seed| WorkloadConfig {
        seed,
        processes: 24,
        conflict_density: 0.8,
        failure_probability: 0.2,
        ..WorkloadConfig::default()
    });
    sweep.chain(crowded)
}

/// Decisions re-asked of the reference, by [`TraceEvent::kind`].
type Checked = BTreeMap<&'static str, usize>;

/// Replays the journal of one run into the reference and re-asks every
/// journalled decision there.
fn check_decisions(
    w: &Workload,
    history: &Schedule,
    records: &[TraceRecord],
    what: &str,
    checked: &mut Checked,
) {
    let spec = &w.spec;
    let mut reference = ScanProtocol::new(spec, DeferPolicy::PrepareAndDefer);
    spec.processes().for_each(|p| reference.register(p.id));
    // The process state machines as of a journal record.
    let states_at =
        |rec: &TraceRecord| history.prefix(rec.history_len).replay(spec).unwrap().states;
    let mut aborting: BTreeSet<ProcessId> = BTreeSet::new();
    let mut prepared: BTreeMap<ProcessId, GlobalActivityId> = BTreeMap::new();
    // Initiator whose cascade plan the journal carried as a `GroupAbort`.
    let mut planned: Option<ProcessId> = None;
    // What the engine hands `plan_abort`: the initiator's completion.
    let plan = |reference: &ScanProtocol<'_>, st: &ProcessState<'_>, pid: ProcessId| {
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
        reference.plan_abort(pid, &comps, &forward)
    };
    for rec in records {
        let at = format!("{what}, record {}: {}", rec.seq, rec.event);
        *checked.entry(rec.event.kind()).or_default() += 1;
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
                    let gate = reference.forward_gate(pid, *service);
                    assert_eq!(gate, CompletionGate::Ready, "{at}");
                } else {
                    let expect = if *deferred {
                        Admission::AllowDeferred {
                            blockers: blockers.clone(),
                        }
                    } else {
                        Admission::Allow
                    };
                    assert_eq!(reference.request(pid, *service), expect, "{at}");
                }
                let edges = reference.record_executed(*gid, *deferred);
                assert_eq!(&edges, edges_added, "{at}");
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
                assert_eq!(reference.request(gid.process, *service), expect, "{at}");
            }
            TraceEvent::RequestRejected {
                gid,
                service,
                conflicting,
            } => {
                let expect = Admission::Reject {
                    conflicting: *conflicting,
                };
                assert_eq!(reference.request(gid.process, *service), expect, "{at}");
            }
            TraceEvent::CommitReleased { gid } => {
                prepared.remove(&gid.process);
                reference.record_deferred_released(*gid);
            }
            TraceEvent::CompensationStarted { gid, .. } => {
                let gate = reference.compensation_gate(*gid);
                assert_eq!(gate, CompletionGate::Ready, "{at}");
                reference.record_compensated(*gid);
            }
            TraceEvent::CompletionBlocked { pid, wait_for } => {
                let st = &states_at(rec)[pid];
                let gate = match (st.next_compensation(), st.next_activity()) {
                    (Some(c), _) => reference.compensation_gate(GlobalActivityId::new(*pid, c)),
                    (None, Some(a)) => reference.forward_gate(*pid, st.process().service(a)),
                    (None, None) => panic!("{at}: no completion step to gate"),
                };
                assert_eq!(gate, CompletionGate::WaitFor(wait_for.clone()), "{at}");
            }
            TraceEvent::CommitBlocked { pid, wait_for } => {
                assert_eq!(reference.can_commit(*pid), Err(wait_for.clone()), "{at}");
            }
            TraceEvent::ProcessCommitted { pid } => {
                assert_eq!(reference.can_commit(*pid), Ok(()), "{at}");
                reference.record_process_commit(*pid);
            }
            TraceEvent::GroupAbort {
                initiator: Some(pid),
                victims,
                ..
            } if !aborting.contains(pid) => {
                assert_eq!(
                    &plan(&reference, &states_at(rec)[pid], *pid),
                    victims,
                    "{at}"
                );
                planned = Some(*pid);
            }
            TraceEvent::AbortStarted { pid, reason } => {
                aborting.insert(*pid);
                // A definitive failure sends the state machine into its
                // completion directly; the engine tells the policy nothing.
                if *reason == AbortReason::Failure {
                    continue;
                }
                if *reason != AbortReason::Cascade && planned.take() != Some(*pid) {
                    // No `GroupAbort` journalled: the plan had no victim.
                    assert!(
                        plan(&reference, &states_at(rec)[pid], *pid).is_empty(),
                        "{at}"
                    );
                    *checked.entry("victimless plan").or_default() += 1;
                }
                if let Some(gid) = prepared.remove(pid) {
                    reference.record_prepared_aborted(gid);
                }
                reference.mark_aborting(*pid);
            }
            TraceEvent::ProcessAborted { pid } => {
                reference.record_process_abort(*pid);
                aborting.remove(pid);
            }
            _ => {}
        }
    }
}

#[test]
fn journalled_protocol_decisions_agree_with_scan_reference() {
    let mut checked = Checked::new();
    for cfg in configs() {
        let w = generate(&cfg);
        // The uncertified protocol on every seed (nothing but Lemma 1–3
        // stands between a request and the history); the certified policy
        // on a stride, where the history must also be prefix-reducible
        // (`certify_reference.rs` holds each of its verdicts on this stride
        // against the batch reference).
        let certified = (cfg.seed % 16 == 0).then_some(PolicyKind::Pred);
        for policy in [Some(PolicyKind::PredProtocol), certified]
            .into_iter()
            .flatten()
        {
            let what = format!("{} seed {}", policy.label(), cfg.seed);
            let journal = Journal::new();
            let run = RunBuilder::new(&w)
                .config(RunConfig {
                    policy,
                    seed: cfg.seed,
                    ..RunConfig::default()
                })
                .sink(Box::new(journal.clone()))
                .run()
                .into_engine();
            check_decisions(&w, &run.history, &journal.take(), &what, &mut checked);
            if policy.certified() {
                let report = check_pred(&w.spec, &run.history).unwrap();
                assert!(report.pred, "{what}: history not prefix-reducible");
            }
        }
    }
    // The sweep must reach every kind of decision, or it pins nothing. (A
    // blocked commit is compared when one is journalled, but generated
    // processes end in a non-compensatable tail, which defers behind the
    // active predecessors a commit would wait for; `can_commit` is held
    // against the reference at every step of `protocol_properties`.)
    assert!(checked["request_admitted"] > 4_000, "{checked:?}");
    for kind in [
        "request_blocked",
        "request_rejected",
        "compensation_started",
        "completion_blocked",
        "group_abort",
        "victimless plan",
    ] {
        assert!(checked.contains_key(kind), "no {kind} in the sweep");
    }
}
