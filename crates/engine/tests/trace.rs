//! Trace-subsystem contracts: journals are pinned where the driver is
//! deterministic, the no-op sink is observationally free, every decision
//! counter of `Metrics` is a fold of the journal, a recovery's journal folds
//! to its report, and the exports round-trip.

use std::collections::BTreeSet;
use txproc_core::activity::Catalog;
use txproc_core::conflict::ConflictMatrix;
use txproc_core::ids::{ActivityId, GlobalActivityId, ProcessId};
use txproc_core::process::ProcessBuilder;
use txproc_core::schedule::{render, Event, Schedule};
use txproc_core::spec::Spec;
use txproc_core::trace::{
    chrome_trace, from_jsonl, to_jsonl, AbortReason, Journal, TraceEvent, TraceRecord,
};
use txproc_core::wal::{encode_record, read_records, DurabilityPolicy, MemWal, WalWriter};
use txproc_engine::concurrent::ConcurrentConfig;
use txproc_engine::engine::{Engine, RunConfig};
use txproc_engine::recovery::{Recovery, RecoverySource};
use txproc_engine::{PolicyKind, RunBuilder};
use txproc_sim::metrics::Metrics;
use txproc_sim::workload::{generate, ArrivalModel, Workload, WorkloadConfig};
use txproc_subsystem::deploy::Deployment;
use txproc_subsystem::kv::{Key, Program};
use txproc_subsystem::subsystem::SubsystemId;

fn workload(seed: u64, processes: usize) -> Workload {
    generate(&WorkloadConfig {
        seed,
        processes,
        conflict_density: 0.4,
        failure_probability: 0.15,
        ..WorkloadConfig::default()
    })
}

/// Journals are pinned across commits, not only across reruns (a run equal
/// to a constant equals its rerun, on either driver): replays read journal
/// order and `history_len`. The digest (FNV-1a over the JSONL of each seed's
/// engine journal, then its one-worker concurrent journal) was computed at
/// the commit before every decision of the step went through one `note`,
/// and moved twice since, by decision. When a deadlock came to be broken as
/// soon as it is found, seed 30's engine run P6 no longer stepped its
/// blocked `a6_2` until a failure coin failed it, but was the deadlock
/// victim at history length 21 and cascaded P7 (one more record). When the
/// failure coin came to be drawn after certification, every injected
/// failure or retry of a certified run follows its `Execute`'s
/// `CertifyOutcome` (682 more records over both drivers), and in seed 58's
/// engine run P7's `a7_1` is refused at history length 14 where the coin
/// used to fail it uncertified. When a release's `Execute` came to commit
/// its activity at once, the engine lost the step that landed it and the
/// re-poll after each prepare, so a released or a prepared process no
/// longer went to the back of the run queue. Seeds 48 and 52 of the engine
/// half moved (the same 4 988 records; seed 48's history runs `a0_3`
/// before `a4_2`), and the one-worker half, which defers no commit, did not.
/// When a parked process came to release its own deferred commit, at its
/// own step, 12 seeds of the engine half moved: 9 histories (seed 12 drops
/// three retries of a refused release, and a rejection moves: 6 records
/// fewer) and 3 journals. The one-worker half did not move. When the
/// protocol came to retire every process at a quiescent point, 58 seeds of
/// the one-worker half moved and no record was added or lost: the worker
/// runs each process to its end, so every process follows a quiescent
/// point, and a `RequestAdmitted`'s `edges_added` no longer lists a
/// predecessor that terminated before it started. The engine half, which
/// interleaves and retires only at the end of a run, did not move.
#[test]
fn journals_pinned_over_64_seeds() {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut records = 0;
    for seed in 0..64u64 {
        let w = contended(seed);
        let engine = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let concurrent = ConcurrentConfig {
            seed,
            workers: Some(1),
            ..ConcurrentConfig::default()
        };
        for builder in [
            RunBuilder::new(&w).config(engine),
            RunBuilder::new(&w).concurrent(concurrent),
        ] {
            let journal = traced(builder).2;
            records += journal.len();
            for b in to_jsonl(&journal).bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(
        (records, digest),
        (10_173, 0xc13f_06df_5ac6_21ae),
        "got ({records}, {digest:#018x})"
    );
}

#[test]
fn traced_run_matches_untraced_history_and_metrics() {
    for seed in [4u64, 11] {
        let w = workload(seed, 6);
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let untraced = Engine::new(&w, cfg.clone()).run();
        let journal = Journal::new();
        let traced = RunBuilder::new(&w)
            .config(cfg)
            .sink(Box::new(journal.clone()))
            .run()
            .into_engine();
        assert_eq!(
            render(&untraced.history),
            render(&traced.history),
            "seed {seed}: tracing perturbed the schedule"
        );
        assert_eq!(
            untraced.metrics, traced.metrics,
            "seed {seed}: tracing perturbed the metrics"
        );
        assert!(!journal.is_empty(), "seed {seed}");
    }
}

#[test]
fn jsonl_and_chrome_exports_round_trip_on_fixture() {
    let w = workload(4, 4);
    let journal = Journal::new();
    let _ = RunBuilder::new(&w)
        .config(RunConfig::default())
        .sink(Box::new(journal.clone()))
        .run();
    let records = journal.snapshot();
    assert!(!records.is_empty());

    let jsonl = to_jsonl(&records);
    let parsed = from_jsonl(&jsonl).expect("journal parses back");
    assert_eq!(parsed.len(), records.len());
    assert_eq!(to_jsonl(&parsed), jsonl, "JSONL round-trip not stable");

    let chrome = chrome_trace(&records);
    assert!(chrome.contains("\"traceEvents\""));
    for pid in w.spec.processes().map(|p| p.id) {
        assert!(
            chrome.contains(&format!("\"tid\": {}", pid.0))
                || chrome.contains(&format!("\"tid\":{}", pid.0)),
            "missing lane for {pid}"
        );
    }
}

/// The decision counters of `Metrics` folded from a journal: an independent
/// copy of `Metrics::observe`, the oracle it is checked against. `waits`
/// counts the journalled blocked states only (the journal keeps a process's
/// distinct ones), and `retries` has no record (DESIGN.md
/// "Instrumentation") and stays 0.
fn fold(records: &[TraceRecord]) -> Metrics {
    let mut m = Metrics::new();
    for r in records {
        match &r.event {
            TraceEvent::ProcessCommitted { .. } => m.committed += 1,
            TraceEvent::ProcessAborted { .. } => m.aborted += 1,
            TraceEvent::RequestAdmitted {
                deferred: false, ..
            }
            | TraceEvent::CommitReleased { .. } => m.activities += 1,
            TraceEvent::CompensationStarted { .. } => m.compensations += 1,
            TraceEvent::CommitDeferred { .. } => m.deferred_commits += 1,
            TraceEvent::RequestBlocked { .. } | TraceEvent::CommitBlocked { .. } => m.waits += 1,
            TraceEvent::RequestRejected { .. } => m.rejections += 1,
            TraceEvent::AbortStarted { reason, .. } => {
                m.cascaded += u64::from(*reason == AbortReason::Cascade);
                m.rejections += u64::from(*reason == AbortReason::Deadlock);
            }
            TraceEvent::CertifyOutcome { ok: false, .. } => m.cert_failures += 1,
            _ => {}
        }
    }
    m
}

/// Asserts that a run's decision counters are the fold of its journal, and
/// its waits at least the journalled ones.
fn assert_folds(records: &[TraceRecord], m: &Metrics, at: &str) {
    let folded = fold(records);
    assert!(m.waits >= folded.waits, "{at}: {folded:?}");
    let counted = Metrics {
        committed: m.committed,
        aborted: m.aborted,
        activities: m.activities,
        compensations: m.compensations,
        deferred_commits: m.deferred_commits,
        rejections: m.rejections,
        cascaded: m.cascaded,
        cert_failures: m.cert_failures,
        ..Metrics::new()
    };
    assert_eq!(Metrics { waits: 0, ..folded }, counted, "{at}");
}

/// The policies the fold is checked under: certified, certified with waits,
/// the protocol alone, and no concurrency control.
const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Pred,
    PolicyKind::PredWait,
    PolicyKind::PredProtocol,
    PolicyKind::UnsafeCc,
];

/// A traced run's history, metrics and journal.
fn traced(builder: RunBuilder<'_>) -> (Schedule, Metrics, Vec<TraceRecord>) {
    let journal = Journal::new();
    let out = builder.sink(Box::new(journal.clone())).run();
    let (history, metrics) = (out.history().clone(), out.metrics().clone());
    (history, metrics, journal.snapshot())
}

fn contended(seed: u64) -> Workload {
    generate(&WorkloadConfig {
        seed,
        processes: 8,
        conflict_density: 0.6,
        failure_probability: 0.2,
        ..WorkloadConfig::default()
    })
}

#[test]
fn engine_journals_fold_to_metrics() {
    let (mut total, mut deadlocks) = (Metrics::new(), 0);
    for policy in POLICIES {
        for seed in 0..16u64 {
            let w = contended(seed);
            let cfg = RunConfig {
                policy,
                seed,
                ..RunConfig::default()
            };
            let (_, metrics, records) = traced(RunBuilder::new(&w).config(cfg));
            assert_folds(&records, &metrics, &format!("{policy:?}, seed {seed}"));
            total.merge(&metrics);
            let deadlock = |r: &&TraceRecord| {
                matches!(
                    r.event,
                    TraceEvent::AbortStarted {
                        reason: AbortReason::Deadlock,
                        ..
                    }
                )
            };
            deadlocks += records.iter().filter(deadlock).count();
        }
    }
    // Not vacuous: the engine drives the arms the concurrent driver rarely
    // reaches.
    assert!(total.deferred_commits > 0, "{total:?}");
    assert!(total.cascaded > 0, "{total:?}");
    assert!(total.cert_failures > 0, "{total:?}");
    assert!(deadlocks > 0 && total.waits > 0, "{deadlocks}: {total:?}");
}

#[test]
fn concurrent_journals_fold_to_metrics() {
    // Multi-worker interleavings are nondeterministic, so no bit-identity
    // across runs; the journal must fold to the metrics of the same run and
    // agree with its history.
    for (policy, workers) in POLICIES.into_iter().flat_map(|p| [(p, 1usize), (p, 2)]) {
        for seed in 0..8u64 {
            let w = contended(seed);
            let cfg = ConcurrentConfig {
                policy,
                seed,
                workers: Some(workers),
                ..ConcurrentConfig::default()
            };
            let (history, metrics, records) = traced(RunBuilder::new(&w).concurrent(cfg));
            let at = format!("{policy:?}, {workers} worker(s), seed {seed}");
            assert_folds(&records, &metrics, &at);
            let events = |f: fn(&Event) -> bool| history.events().iter().filter(|e| f(e)).count();
            let executes = events(|e| matches!(e, Event::Execute(_))) as u64;
            let compensates = events(|e| matches!(e, Event::Compensate(_))) as u64;
            assert_eq!(metrics.activities, executes, "{at}");
            assert_eq!(metrics.compensations, compensates, "{at}");
            // Journal sequence numbers are dense and ordered.
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.seq, i as u64, "{at}");
            }
        }
    }
}

#[test]
fn retired_shard_journal_precedes_the_next_shard() {
    // One worker, closed arrivals: the worker runs each shard to its last
    // termination within one visit and retires it there, so its history
    // events are one contiguous block, and the journal, in merged-history
    // order, is one contiguous block per shard, in visit order.
    let w = generate(&WorkloadConfig {
        seed: 9,
        processes: 24,
        clusters: 4,
        conflict_density: 0.4,
        failure_probability: 0.15,
        ..WorkloadConfig::default()
    });
    let journal = Journal::new();
    let result = RunBuilder::new(&w)
        .concurrent(ConcurrentConfig {
            seed: 9,
            workers: Some(1),
            ..ConcurrentConfig::default()
        })
        .sink(Box::new(journal.clone()))
        .run()
        .into_concurrent();
    let rt = result.metrics.runtime.as_ref().expect("runtime metrics");
    assert_eq!(rt.shards_live_peak, 1, "every shard retired in its visit");
    let shards: Vec<u32> = journal
        .snapshot()
        .iter()
        .map(|r| r.shard.expect("concurrent records carry their shard"))
        .collect();
    let mut blocks = shards.clone();
    blocks.dedup();
    let expected: Vec<u32> = (0..result.metrics.shards.len() as u32).collect();
    assert!(expected.len() >= 4, "multi-shard workload");
    assert_eq!(blocks, expected, "one journal block per shard, in order");
    // The order is the merge's doing, not small shards': some shard journals
    // more than the 16 records a shard once flushed to a shared sink lock
    // at a time (that batching is gone), and all of them in its own block.
    let longest = expected
        .iter()
        .map(|s| shards.iter().filter(|x| *x == s).count())
        .max();
    assert!(longest > Some(16), "a shard spans more than one batch");
}

/// A journal of many shards is in its merged history's order: a record sits
/// right after the last event its shard had emitted when it was noted, or
/// just before the shard's first event if it had emitted none. So each
/// record's `(shard, history_len)`, mapped to that event's position in the
/// merged history (shard `i` is conflict domain `i`), never goes down —
/// over `closed_contended`-shaped inputs under one and two workers, and
/// with staggered arrivals.
#[test]
fn a_multi_shard_journal_is_in_its_history_order() {
    let mut multi_shard = 0;
    for seed in 0..16u64 {
        let shape = |arrivals| WorkloadConfig {
            seed,
            processes: 96,
            conflict_density: 0.3,
            failure_probability: 0.1,
            arrivals,
            ..WorkloadConfig::default()
        };
        let closed = generate(&shape(ArrivalModel::Closed));
        let staggered = generate(&shape(ArrivalModel::staggered(96, 20)));
        for (w, workers, arrivals) in [
            (&closed, 1, "closed"),
            (&closed, 2, "closed"),
            (&staggered, 1, "staggered"),
        ] {
            let cfg = ConcurrentConfig {
                seed,
                workers: Some(workers),
                ..ConcurrentConfig::default()
            };
            let (history, metrics, records) = traced(RunBuilder::new(w).concurrent(cfg));
            let at = format!("seed {seed}, {workers} worker(s), {arrivals}");
            assert_folds(&records, &metrics, &at);
            let domains = w.partition().domains();
            let shard_of = |p: &ProcessId| domains.iter().position(|d| d.contains(p));
            // Where each shard's events sit in the merged history.
            let mut positions = vec![Vec::new(); domains.len()];
            for (i, e) in history.events().iter().enumerate() {
                positions[shard_of(&e.processes()[0]).expect("a member")].push(i);
            }
            let place = |r: &TraceRecord| {
                let events = &positions[r.shard.expect("a shard") as usize];
                match r.history_len.checked_sub(1) {
                    Some(last) => 2 * events[last] + 1,
                    None => events.first().map_or(usize::MAX, |&first| 2 * first),
                }
            };
            let places: Vec<usize> = records.iter().map(place).collect();
            let down = places.windows(2).position(|p| p[0] > p[1]);
            assert_eq!(down, None, "{at}: the journal goes back in the history");
            let shards: BTreeSet<Option<u32>> = records.iter().map(|r| r.shard).collect();
            multi_shard += usize::from(shards.len() > 1);
        }
    }
    assert_eq!(multi_shard, 48, "every journal spans several shards");
}

/// Recovery's journal is a view of its report: over the crash sweep's seeds
/// and every record boundary of their logs, the compensations, forward steps
/// and aborts it records are the ones the report counts, and every abort it
/// starts is for the one reason, `External`.
#[test]
fn recovery_journals_fold_to_their_reports() {
    let (mut victims, mut compensations) = (0, 0);
    for seed in 0..8u64 {
        let w = generate(&WorkloadConfig {
            failure_probability: 0.1,
            ..workload(seed, 6).config
        });
        let mem = MemWal::new();
        let writer = WalWriter::new(Box::new(mem.clone()), DurabilityPolicy::Buffered, seed);
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        RunBuilder::new(&w).config(cfg).durability(writer, 0).run();
        let log = mem.contents();
        let mut cut = 0;
        for record in read_records(&log).0 {
            cut += encode_record(&record).len();
            let journal = Journal::new();
            let report = Recovery::from(RecoverySource::WalBytes(log[..cut].to_vec()))
                .sink(Box::new(journal.clone()))
                .run(&w)
                .expect("a prefix of the log recovers");
            let records = journal.snapshot();
            let count =
                |f: &dyn Fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.event)).count();
            let at = format!("seed {seed} cut {cut}");
            let compensated = count(&|e| matches!(e, TraceEvent::CompensationStarted { .. }));
            let forward = |e: &TraceEvent| {
                matches!(
                    e,
                    TraceEvent::RequestAdmitted {
                        deferred: false,
                        ..
                    }
                )
            };
            let aborted = count(&|e| matches!(e, TraceEvent::ProcessAborted { .. }));
            assert_eq!(compensated, report.compensations, "{at}");
            assert_eq!(count(&forward), report.forward, "{at}");
            assert_eq!(aborted, report.aborted.len(), "{at}");
            let external = AbortReason::External;
            let other = |e: &TraceEvent| matches!(e, TraceEvent::AbortStarted { reason, .. } if *reason != external);
            assert_eq!(count(&other), 0, "{at}");
            victims += report.aborted.len();
            compensations += report.compensations;
        }
    }
    assert!(victims > 0 && compensations > 0, "not vacuous");
}

/// ROADMAP 1(iii) in recovery: a process whose own failure started its
/// completion is not marked aborting in the policy — the restore folds the
/// history through the step's calls, and the step marks only `Abort` events.
/// Its completion gated behind a process recovery aborts waits for that
/// process's compensation, and recovery ends without a cascade or a stall.
/// Example 8's shape: P₁ = a ≪ p ≪ r, P₂ = b ≪ q ≪ t, b conflicts with a;
/// the crash falls right after `a b fail(p)`.
#[test]
fn a_failure_started_completion_recovers_behind_an_aborting_process() {
    let mut cat = Catalog::new();
    let (a, p, r) = (cat.compensatable("a").0, cat.pivot("p"), cat.retriable("r"));
    let (b, q, t) = (cat.compensatable("b").0, cat.pivot("q"), cat.retriable("t"));
    let mut conflicts = ConflictMatrix::new(&cat);
    conflicts.declare_conflict(&cat, a, b).unwrap();
    let mut spec = Spec::new(cat, conflicts);
    let mut deployment = Deployment::new();
    for (id, services) in [(1, [a, p, r]), (2, [b, q, t])] {
        let mut builder = ProcessBuilder::new(ProcessId(id), format!("P{id}"));
        let chain = services.map(|s| builder.activity(format!("s{}", s.0), s));
        builder.chain(&chain);
        spec.add_process(builder.build(&spec.catalog).unwrap());
        for s in services {
            deployment.place(s, SubsystemId(0), Program::set(Key(u64::from(s.0)), 1));
        }
    }
    let config = WorkloadConfig {
        failure_probability: 0.5,
        ..WorkloadConfig::default()
    };
    let w = Workload::new(spec, deployment, config);
    let (p1, p2) = (ProcessId(1), ProcessId(2));
    let [a1, p1p] = [0, 1].map(|i| GlobalActivityId::new(p1, ActivityId(i)));
    let b2 = GlobalActivityId::new(p2, ActivityId(0));
    let shape = [Event::Execute(a1), Event::Execute(b2), Event::Fail(p1p)];
    let image = (0..1000)
        .find_map(|seed| {
            let mut engine = Engine::new(
                &w,
                RunConfig {
                    seed,
                    ..RunConfig::default()
                },
            );
            engine.run_until_history(3);
            (engine.history().events() == shape).then(|| engine.crash())
        })
        .expect("some seed runs a, b and fails p");
    let journal = Journal::new();
    let report = Recovery::from(RecoverySource::Image(image))
        .sink(Box::new(journal.clone()))
        .run(&w)
        .expect("recovers");
    assert_eq!(report.aborted, [p1, p2]);
    let tail = &report.history.events()[3..];
    assert_eq!(
        tail,
        [
            Event::Abort(p2),
            Event::Compensate(b2),
            Event::Compensate(a1)
        ]
    );
    let records = journal.snapshot();
    assert!(records.iter().any(|r| matches!(
        &r.event,
        TraceEvent::CompletionBlocked { pid, wait_for } if *pid == p1 && wait_for == &[p2]
    )));
    let started: Vec<_> = (records.iter())
        .filter_map(|r| match r.event {
            TraceEvent::AbortStarted { pid, reason } => Some((pid, reason)),
            _ => None,
        })
        .collect();
    assert_eq!(started, [(p2, AbortReason::External)], "no cascade");
}

/// Lemma 1.1 on the engine's journals: a deferred commit is released only
/// after every process its `CommitDeferred` named has terminated, which
/// certification alone does not enforce. Under `Pred` a release refused
/// certification is released later (seed 12 refuses one six times).
#[test]
fn a_deferred_commit_is_released_only_after_its_blockers_terminated() {
    use std::collections::{BTreeMap, BTreeSet};
    for policy in [PolicyKind::Pred, PolicyKind::PredProtocol] {
        let mut refused_then_released = 0;
        for seed in 0..64u64 {
            let w = contended(seed);
            let cfg = RunConfig {
                policy,
                seed,
                ..RunConfig::default()
            };
            let (mut terminated, mut deferred) = (BTreeSet::new(), BTreeMap::new());
            let mut refused = BTreeMap::new();
            for r in traced(RunBuilder::new(&w).config(cfg)).2 {
                match r.event {
                    TraceEvent::ProcessCommitted { pid } | TraceEvent::ProcessAborted { pid } => {
                        terminated.insert(pid);
                    }
                    TraceEvent::CommitDeferred { gid, blockers } => {
                        deferred.insert(gid, blockers);
                    }
                    TraceEvent::CertifyOutcome {
                        event: Event::Execute(gid),
                        ok: false,
                        ..
                    } if deferred.contains_key(&gid) => *refused.entry(gid).or_insert(0) += 1,
                    TraceEvent::CommitReleased { gid } => {
                        let early = deferred[&gid].iter().filter(|p| !terminated.contains(p));
                        let early: Vec<_> = early.collect();
                        assert!(
                            early.is_empty(),
                            "{policy:?}, seed {seed}: {gid} before {early:?}"
                        );
                        refused_then_released += refused.remove(&gid).unwrap_or(0);
                    }
                    _ => {}
                }
            }
        }
        let retried = refused_then_released > 0;
        assert!(
            retried || policy != PolicyKind::Pred,
            "no refused release retried"
        );
    }
}
