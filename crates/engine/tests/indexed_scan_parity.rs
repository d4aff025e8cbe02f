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
//! `victims`. The replay (`support/protocol_replay.rs`) is the one
//! `protocol_retire.rs` drives the protocol itself through.
//!
//! The reference never retires a process; the protocol retires every holder
//! at a quiescent point of its shard. So `edges_added` is compared on the
//! processes the rule says the shard still holds (`scan_protocol::Holders`),
//! every decision exactly. The engine interleaves and retires about once a
//! run; the 1- and 2-worker drivers run each process to its end, so they
//! retire after nearly every process.

#[path = "support/certify_replay.rs"]
#[allow(dead_code)]
mod certify_replay;
#[path = "support/protocol_replay.rs"]
#[allow(dead_code)]
mod protocol_replay;
#[path = "../../core/tests/support/scan_protocol.rs"]
mod scan_protocol;

use certify_replay::per_shard;
use protocol_replay::{replay, Checked};
use scan_protocol::ScanProtocol;
use txproc_core::domains::DomainPartition;
use txproc_core::pred::check_pred;
use txproc_core::schedule::Schedule;
use txproc_core::trace::{Journal, TraceRecord};
use txproc_engine::concurrent::ConcurrentConfig;
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

/// Replays the journal of one run into one reference per shard and re-asks
/// every journalled decision there (`protocol_replay::replay`).
fn check_decisions(
    w: &Workload,
    locals: &[Schedule],
    records: &[TraceRecord],
    what: &str,
    checked: &mut Checked,
) {
    replay::<ScanProtocol<'_>>(&w.spec, locals, records, what, checked, |_, _| {});
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
            let history = [run.history];
            check_decisions(&w, &history, &journal.take(), &what, &mut checked);
            if policy.certified() {
                let report = check_pred(&w.spec, &history[0]).unwrap();
                assert!(report.pred, "{what}: history not prefix-reducible");
            }
        }
        // The wall-clock driver at one and two workers, one shard per
        // conflict domain.
        let partition = DomainPartition::partition(&w.spec);
        for workers in [1, 2] {
            let what = format!("{workers}-worker seed {}", cfg.seed);
            let journal = Journal::new();
            let run = RunBuilder::new(&w)
                .concurrent(ConcurrentConfig {
                    policy: PolicyKind::PredProtocol,
                    seed: cfg.seed,
                    workers: Some(workers),
                    ..ConcurrentConfig::default()
                })
                .sink(Box::new(journal.clone()))
                .run();
            let locals = per_shard(&partition, run.history());
            check_decisions(&w, &locals, &journal.take(), &what, &mut checked);
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
        "retired predecessor",
    ] {
        assert!(checked.contains_key(kind), "no {kind} in the sweep");
    }
}
