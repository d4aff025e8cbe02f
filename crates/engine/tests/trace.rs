//! Trace-subsystem contracts: journals are deterministic where the driver
//! is, the no-op sink is observationally free, every decision counter of
//! `Metrics` is a fold of the journal, a recovery's journal folds to its
//! report, and the exports round-trip.

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
use txproc_engine::RunBuilder;
use txproc_sim::metrics::Metrics;
use txproc_sim::workload::{generate, Workload, WorkloadConfig};
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

fn engine_journal(w: &Workload, seed: u64) -> String {
    let journal = Journal::new();
    let cfg = RunConfig {
        seed,
        ..RunConfig::default()
    };
    let _ = RunBuilder::new(w)
        .config(cfg)
        .sink(Box::new(journal.clone()))
        .run();
    to_jsonl(&journal.snapshot())
}

#[test]
fn engine_journals_are_bit_identical_across_runs() {
    for seed in [4u64, 7, 23] {
        let w = workload(seed, 6);
        let a = engine_journal(&w, seed);
        let b = engine_journal(&w, seed);
        assert!(!a.is_empty(), "seed {seed}: empty journal");
        assert_eq!(a, b, "seed {seed}: journals diverge");
    }
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

#[test]
fn concurrent_single_process_journal_is_deterministic() {
    let w = workload(5, 1);
    let run = || {
        let journal = Journal::new();
        let _ = RunBuilder::new(&w)
            .concurrent(ConcurrentConfig {
                seed: 5,
                ..ConcurrentConfig::default()
            })
            .sink(Box::new(journal.clone()))
            .run();
        to_jsonl(&journal.snapshot())
    };
    let a = run();
    assert!(!a.is_empty());
    assert_eq!(a, run(), "single-process concurrent journal diverges");
}

/// The counters of `Metrics` that exactly one decision record each
/// produces, folded from a journal. `waits`, `rejections` and `retries` have
/// no such record (DESIGN.md "Instrumentation") and stay 0.
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
            TraceEvent::AbortStarted { reason, .. } => {
                m.cascaded += u64::from(*reason == AbortReason::Cascade);
                m.abort_reasons.count(*reason);
            }
            TraceEvent::CertifyOutcome { ok: false, .. } => m.cert_failures += 1,
            _ => {}
        }
    }
    m
}

/// The same counters as the run kept them.
fn counted(m: &Metrics) -> Metrics {
    Metrics {
        committed: m.committed,
        aborted: m.aborted,
        activities: m.activities,
        compensations: m.compensations,
        deferred_commits: m.deferred_commits,
        cascaded: m.cascaded,
        abort_reasons: m.abort_reasons,
        cert_failures: m.cert_failures,
        ..Metrics::new()
    }
}

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
    let mut total = Metrics::new();
    for seed in 0..16u64 {
        let w = contended(seed);
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let (_, metrics, records) = traced(RunBuilder::new(&w).config(cfg));
        assert_eq!(fold(&records), counted(&metrics), "seed {seed}");
        total.merge(&metrics);
    }
    // Not vacuous: the engine drives the arms the concurrent driver rarely
    // reaches.
    assert!(total.deferred_commits > 0, "{total:?}");
    assert!(total.cascaded > 0, "{total:?}");
    assert!(total.cert_failures > 0, "{total:?}");
}

#[test]
fn concurrent_journals_fold_to_metrics() {
    // Multi-worker interleavings are nondeterministic, so no bit-identity
    // across runs; the journal must fold to the metrics of the same run and
    // agree with its history.
    for workers in [1usize, 2] {
        for seed in 0..8u64 {
            let w = contended(seed);
            let cfg = ConcurrentConfig {
                seed,
                workers: Some(workers),
                ..ConcurrentConfig::default()
            };
            let (history, metrics, records) = traced(RunBuilder::new(&w).concurrent(cfg));
            let at = format!("{workers} worker(s), seed {seed}");
            assert_eq!(fold(&records), counted(&metrics), "{at}");
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
    // termination within one visit and retires it there, flushing the trace
    // records the shard still buffers. So the journal is one contiguous block
    // per shard, in visit order — no shard's tail waits for the run's end.
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
    // The order is the retirement's doing, not small shards': some shard
    // flushed a full batch mid-run and still has its tail in its own block.
    let longest = expected
        .iter()
        .map(|s| shards.iter().filter(|x| *x == s).count())
        .max();
    assert!(longest > Some(16), "a shard spans more than one batch");
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
    let w = Workload {
        spec,
        deployment,
        config,
    };
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
