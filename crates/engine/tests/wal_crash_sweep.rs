//! Crash-point sweep over the durable write-ahead journal.
//!
//! The crash model: a crash truncates the log at an arbitrary byte offset;
//! everything else is volatile. For every truncation point — each record
//! boundary plus mid-record torn tails — the salvaged prefix must rebuild
//! into a crash image whose recovery yields a PRED, Proc-REC history with
//! every process terminated, no activity executed twice, and an idempotent
//! second recovery, and whose completion tail is a linearisation of the
//! reference `≪̃` (`support/tail_oracle.rs`). The sweep runs logs sealed per
//! event and logs sealed every 4 events, at 6 processes, and 16 cuts per log
//! at 32 — and logs of the concurrent driver at one and at two workers, which
//! are the same records through the same writer; every swept log shows each
//! 2PC decision before the `Execute` of its participants, so no cut can fall
//! between the two the wrong way round; `nightly_full_sweep` (ignored by
//! default, run by the nightly CI job) widens the seed range. What is not a
//! prefix of this workload's log is refused: one test per [`RebuildError`]
//! variant.

#[path = "support/tail_oracle.rs"]
mod tail_oracle;

use std::collections::BTreeSet;
use txproc_core::schedule::{render, Event, Op};
use txproc_core::serializability::{process_graph_linear, ProcessGraph};
use txproc_core::spec::Spec;
use txproc_core::wal::{
    encode_record, read_records, DurabilityPolicy, MemWal, WalRecord, WalWriter, WAL_VERSION,
};
use txproc_engine::concurrent::ConcurrentConfig;
use txproc_engine::durability::{rebuild_image, RebuildError};
use txproc_engine::engine::{Engine, RunConfig};
use txproc_engine::recovery::{
    recover, InvocationLogEntry, Recovery, RecoveryError, RecoverySource,
};
use txproc_engine::RunBuilder;
use txproc_sim::workload::{generate, Workload, WorkloadConfig};
use txproc_subsystem::agent::Agent;
use txproc_subsystem::kv::{Key, Value};

/// The process graph by definition — every cross-process pair probed — that
/// `process_graph_linear` must build through conflict rows.
fn process_graph_all_pairs(spec: &Spec, ops: &[Op]) -> ProcessGraph {
    let mut g = ProcessGraph::over(ops.iter().map(|o| o.gid.process));
    for (i, x) in ops.iter().enumerate() {
        for y in &ops[i + 1..] {
            if x.gid.process != y.gid.process && spec.oracle().conflict(x.service, y.service) {
                g.add_edge(x.gid.process, y.gid.process);
            }
        }
    }
    g
}

fn workload(seed: u64) -> Workload {
    generate(&WorkloadConfig {
        seed,
        processes: 6,
        conflict_density: 0.4,
        failure_probability: 0.1,
        ..WorkloadConfig::default()
    })
}

/// The benchmark's `durable_recovery` shape.
fn workload_32(seed: u64) -> Workload {
    generate(&WorkloadConfig {
        seed,
        processes: 32,
        conflict_density: 0.3,
        failure_probability: 0.1,
        ..WorkloadConfig::default()
    })
}

/// A finished epoch-16 run's log and `n` evenly spaced record boundaries.
fn logged_cuts(w: &Workload, n: usize) -> (Vec<u8>, Vec<usize>) {
    let (engine, mem) = wal_engine(w, 16);
    assert!(engine.run().stalled.is_empty(), "run stalled");
    let bytes = mem.contents();
    assert_decided_before_executed(&bytes, "32-process log");
    let at = boundaries(&bytes);
    let cuts = (1..=n).map(|k| at[(at.len() - 1) * k / n]).collect();
    (bytes, cuts)
}

fn wal_engine(w: &Workload, epoch: usize) -> (Engine<'_>, MemWal) {
    let mem = MemWal::new();
    let writer = WalWriter::new(
        Box::new(mem.clone()),
        DurabilityPolicy::Buffered,
        w.config.seed,
    );
    let cfg = RunConfig {
        seed: w.config.seed,
        epoch,
        ..RunConfig::default()
    };
    let engine = Engine::new(w, cfg).with_wal(writer);
    (engine, mem)
}

/// Byte offset of every record boundary in `bytes` (0 and EOF included).
fn boundaries(bytes: &[u8]) -> Vec<usize> {
    let (records, clean) = read_records(bytes);
    assert_eq!(clean, bytes.len(), "a finished run leaves no torn tail");
    let mut at = vec![0usize];
    for r in &records {
        at.push(at.last().unwrap() + encode_record(r).len());
    }
    assert_eq!(*at.last().unwrap(), bytes.len());
    at
}

/// The full sweep contract at one truncation offset: everything but
/// Proc-REC is asserted; the Proc-REC objections are returned.
fn check_cut(w: &Workload, bytes: &[u8], cut: usize, label: &str) -> usize {
    let (records, _) = read_records(&bytes[..cut]);
    let image = rebuild_image(w, &records)
        .unwrap_or_else(|e| panic!("{label} cut {cut}: rebuild failed: {e}"));
    let before = image.history.len();
    let report = recover(w, image).unwrap_or_else(|e| panic!("{label} cut {cut}: recover: {e}"));
    tail_oracle::assert_tail_linearises(
        &w.spec,
        before,
        &report.history,
        &format!("{label} cut {cut}"),
    );
    assert!(
        txproc_core::pred::is_pred(&w.spec, &report.history).unwrap(),
        "{label} cut {cut}: recovered history not PRED:\n{}",
        render(&report.history)
    );
    let replay = report.history.replay(&w.spec).unwrap();
    assert!(
        replay.active_processes().is_empty(),
        "{label} cut {cut}: processes left active"
    );
    // The process graph the serializability checks of a recovered history
    // build through conflict rows (`is_serializable`, `serialization_order`)
    // is the all-pairs one.
    assert_eq!(
        process_graph_linear(&w.spec, &replay.ops),
        process_graph_all_pairs(&w.spec, &replay.ops),
        "{label} cut {cut}"
    );
    // No effect applied twice: each activity executes/compensates at most
    // once in the recovered history.
    let mut executed = BTreeSet::new();
    let mut compensated = BTreeSet::new();
    for e in report.history.events() {
        match e {
            Event::Execute(g) => assert!(executed.insert(*g), "{label} cut {cut}: {g} twice"),
            Event::Compensate(g) => {
                assert!(compensated.insert(*g), "{label} cut {cut}: {g} comp twice")
            }
            _ => {}
        }
    }
    // Re-recovery of the post-recovery image is a no-op.
    let second = recover(w, report.image.clone()).expect("second recovery");
    assert_eq!(
        render(&second.history),
        render(&report.history),
        "{label} cut {cut}: re-recovery changed the history"
    );
    assert!(second.aborted.is_empty(), "{label} cut {cut}");
    assert_eq!(second.compensations, 0, "{label} cut {cut}");
    assert_eq!(second.forward, 0, "{label} cut {cut}");
    assert_eq!(second.resolved_groups, 0, "{label} cut {cut}");
    assert_eq!(second.aborted_prepared, 0, "{label} cut {cut}");
    txproc_core::recoverability::proc_rec_violations(&w.spec, &report.history)
        .unwrap()
        .len()
}

/// [`check_cut`] plus Proc-REC, which holds on every 6-process history.
fn check_cut_proc_rec(w: &Workload, bytes: &[u8], cut: usize, label: &str) {
    assert_eq!(
        check_cut(w, bytes, cut, label),
        0,
        "{label} cut {cut}: recovered history not Proc-REC"
    );
}

/// Every released invocation of the log was decided first: the `Decision`
/// naming it precedes its `Execute` event. (An `Execute` event record is
/// always a release — an immediate execution is its `Invocation` record —
/// and of the activity's latest prepared invocation.)
fn assert_decided_before_executed(bytes: &[u8], label: &str) {
    let mut prepared = std::collections::BTreeMap::new();
    let mut decided = BTreeSet::new();
    for r in read_records(bytes).0 {
        match r {
            WalRecord::Invocation {
                gid,
                subsystem,
                invocation,
                prepared: true,
            } => drop(prepared.insert(gid, (subsystem, invocation))),
            WalRecord::Decision { participants, .. } => decided.extend(participants),
            WalRecord::Event {
                event: Event::Execute(gid),
            } => assert!(
                decided.contains(&prepared[&gid]),
                "{label}: {gid} executed undecided"
            ),
            _ => {}
        }
    }
}

/// Sweeps a finished engine run's log.
fn sweep(seed: u64, epoch: usize, label: &str) {
    let w = workload(seed);
    let (engine, mem) = wal_engine(&w, epoch);
    let result = engine.run();
    assert!(result.stalled.is_empty(), "{label}: run stalled");
    sweep_log(&w, &mem.contents(), label);
}

/// Sweeps every record boundary and one torn mid-record offset per frame.
fn sweep_log(w: &Workload, bytes: &[u8], label: &str) {
    assert_decided_before_executed(bytes, label);
    let at = boundaries(bytes);
    for (i, &cut) in at.iter().enumerate() {
        check_cut_proc_rec(w, bytes, cut, label);
        // A torn tail mid-way into the following record truncates back to
        // this boundary and must recover identically.
        if let Some(&next) = at.get(i + 1) {
            let torn = cut + (next - cut) / 2;
            let (r1, c1) = read_records(&bytes[..torn]);
            let (r2, _) = read_records(&bytes[..cut]);
            assert_eq!(c1, cut, "{label}: torn cut {torn} salvages to {cut}");
            assert_eq!(r1, r2);
            if i % 8 == 0 {
                check_cut_proc_rec(w, bytes, torn, label);
            }
        }
    }
}

#[test]
fn wal_journaling_never_changes_the_run() {
    for seed in 0..8u64 {
        for epoch in [0usize, 4] {
            let w = workload(seed);
            let cfg = RunConfig {
                seed,
                epoch,
                ..RunConfig::default()
            };
            let plain = Engine::new(&w, cfg.clone()).run();
            let (engine, _mem) = wal_engine(&w, epoch);
            let logged = engine.run();
            assert_eq!(
                render(&plain.history),
                render(&logged.history),
                "seed {seed} epoch {epoch}: WAL changed the history"
            );
            assert_eq!(plain.metrics.makespan, logged.metrics.makespan);
            assert_eq!(plain.metrics.activities, logged.metrics.activities);
        }
    }
}

#[test]
fn full_log_rebuild_matches_the_crash_image() {
    for seed in 0..8u64 {
        for crash_at in [3usize, 9, 100_000] {
            let w = workload(seed);
            let (mut engine, mem) = wal_engine(&w, 0);
            engine.run_until_history(crash_at);
            let image = engine.crash();
            let (records, _) = read_records(&mem.contents());
            let rebuilt = rebuild_image(&w, &records).expect("rebuild");
            assert_eq!(
                render(&rebuilt.history),
                render(&image.history),
                "seed {seed} crash {crash_at}"
            );
            assert_eq!(rebuilt.invocation_log, image.invocation_log);
            assert_eq!(
                rebuilt.coordinator.log().len(),
                image.coordinator.log().len()
            );
            // The decisive equivalence: both images recover identically.
            let from_image = recover(&w, image).expect("recover image");
            let from_wal = recover(&w, rebuilt).expect("recover wal");
            assert_eq!(
                render(&from_image.history),
                render(&from_wal.history),
                "seed {seed} crash {crash_at}: recovery diverged"
            );
            assert_eq!(from_image.aborted, from_wal.aborted);
            assert_eq!(from_image.compensations, from_wal.compensations);
        }
    }
}

#[test]
fn crash_sweep_per_event_mode() {
    for seed in 0..8u64 {
        sweep(seed, 0, &format!("per-event seed {seed}"));
    }
}

#[test]
fn crash_sweep_sealed_every_4() {
    for seed in 0..8u64 {
        sweep(seed, 4, &format!("epoch seed {seed}"));
    }
}

/// The concurrent driver's log is the engine's: the same records, appended
/// in ticket order by however many workers. Over the same 8 seeds, at one and
/// at two workers (two conflict domains, so the second has a shard to own):
/// every cut recovers under the sweep's whole contract, a cut at any byte
/// inside a frame salvages to the frame's start, and the full log rebuilds to
/// the subsystems, invocation log and decisions the run ended with.
#[test]
fn crash_sweep_concurrent_driver() {
    for seed in 0..8u64 {
        for workers in [1usize, 2] {
            let label = format!("concurrent seed {seed} workers {workers}");
            let w = generate(&WorkloadConfig {
                clusters: 2,
                ..workload(seed).config
            });
            let mem = MemWal::new();
            let writer = WalWriter::new(Box::new(mem.clone()), DurabilityPolicy::Buffered, seed);
            let run = RunBuilder::new(&w)
                .concurrent(ConcurrentConfig {
                    seed,
                    workers: Some(workers),
                    epoch: 4,
                    ..ConcurrentConfig::default()
                })
                .durability(writer, 0)
                .run()
                .into_concurrent();
            let bytes = mem.contents();
            sweep_log(&w, &bytes, &label);
            for frame in boundaries(&bytes).windows(2) {
                for cut in frame[0]..frame[1] {
                    let torn = read_records(&bytes[frame[0]..cut]);
                    assert_eq!(torn, (Vec::new(), 0), "{label}: byte {cut}");
                }
            }

            let rebuilt = rebuild_image(&w, &read_records(&bytes).0).expect("rebuild");
            assert_eq!(render(&rebuilt.history), render(&run.history), "{label}");
            assert_eq!(rebuilt.coordinator.log(), run.coordinator.log(), "{label}");
            let by_handle = |log: &[InvocationLogEntry]| {
                let mut log = log.to_vec();
                log.sort_by_key(|e| (e.subsystem, e.invocation));
                log
            };
            assert_eq!(
                by_handle(&rebuilt.invocation_log),
                by_handle(&run.invocation_log),
                "{label}"
            );
            // An absent key reads as 0: the rollback of an injected failure,
            // which the log does not replay, can leave the one for the other.
            let values = |agent: &Agent| -> Vec<(Key, Value)> {
                let store = agent.subsystem.snapshot().iter();
                store
                    .map(|(&k, &v)| (k, v))
                    .filter(|kv| kv.1 != 0)
                    .collect()
            };
            for (sid, agent) in &run.agents {
                assert_eq!(values(&rebuilt.agents[sid]), values(agent), "{label}");
            }
        }
    }
}

/// The wider sweep: Proc-REC/PRED on recovered histories used to be asserted
/// at 6 processes only. The Proc-REC objections at 32 are printed, not
/// asserted: `PivotOrder` objected to about one recovered history in several
/// hundred while recovery ordered its own completion tail, and to none since
/// the step runs it (ROADMAP item 7(d), the benchmark's
/// `recover.proc_rec_objections`).
#[test]
fn crash_sweep_32_processes() {
    let mut objections = 0;
    for seed in 0..4u64 {
        let w = workload_32(seed);
        let (bytes, cuts) = logged_cuts(&w, 16);
        for cut in cuts {
            objections += check_cut(&w, &bytes, cut, &format!("32-process seed {seed}"));
        }
    }
    println!("crash_sweep_32_processes: {objections} Proc-REC objections over 64 recoveries");
}

/// Recovery begins its aborts in the order `complete` runs conflicting
/// forward recovery in (`completion::forward_ranks`, Definition 8.3(d)),
/// where two live processes have conflicting forward-recovery activities:
/// the victim list of this history, which has such a pair, is pinned, and
/// the `Abort` events recovery appends — one per victim not already
/// aborting — follow it.
#[test]
fn recovery_abort_order_is_pinned() {
    let w = workload_32(0);
    let (bytes, cuts) = logged_cuts(&w, 16);
    let (records, _) = read_records(&bytes[..cuts[14]]);
    let image = rebuild_image(&w, &records).expect("rebuild");
    let before = image.history.len();
    let report = recover(&w, image).expect("recover");
    let victims: Vec<u32> = report.aborted.iter().map(|p| p.0).collect();
    assert_eq!(victims, [8, 24, 27, 31, 10, 13, 19]);
    let aborts: Vec<u32> = report.history.events()[before..]
        .iter()
        .filter_map(|e| match e {
            Event::Abort(p) => Some(p.0),
            _ => None,
        })
        .collect();
    let begun = victims.iter().filter(|p| aborts.contains(p));
    assert_eq!(begun.copied().collect::<Vec<_>>(), aborts);
}

/// The records of a finished per-event run of `w`.
fn full_log(w: &Workload) -> Vec<WalRecord> {
    let (engine, mem) = wal_engine(w, 0);
    engine.run();
    read_records(&mem.contents()).0
}

#[test]
fn rebuild_refuses_another_version() {
    // A `Begin` that decodes but names a version other than this reader's:
    // the log is refused whole, not read on the guess that the rest matches.
    let w = workload(1);
    let mut records = full_log(&w);
    records[0] = WalRecord::Begin {
        version: WAL_VERSION + 1,
        seed: 1,
    };
    assert_eq!(
        rebuild_image(&w, &records).unwrap_err(),
        RebuildError::VersionMismatch {
            found: WAL_VERSION + 1
        }
    );
}

#[test]
fn recovery_refuses_a_version_2_log_but_takes_a_torn_begin_as_genesis() {
    // Version 2 framed JSON. Its `Begin` — these are the bytes that writer
    // produced for seed 7 — is length- and CRC-clean and does not decode, so
    // `read_records` salvages nothing; recovering "nothing" would be silent
    // loss of the whole history.
    let w = workload(7);
    let v2_begin: &[u8] = include_bytes!("fixtures/wal_v2_begin.bin");
    assert_eq!(read_records(v2_begin), (vec![], 0));
    let err = Recovery::from(RecoverySource::WalBytes(v2_begin.to_vec()))
        .run(&w)
        .unwrap_err();
    assert!(
        matches!(err, RecoveryError::Rebuild(RebuildError::ForeignLog)),
        "{err}"
    );
    // A crash inside the first write leaves a short frame, which is the
    // empty prefix of *this* format: genesis, as before — also for a cut
    // inside the old `Begin`, which no reader could tell from it.
    let begin = encode_record(&WalRecord::Begin {
        version: WAL_VERSION,
        seed: 7,
    });
    for torn in [&begin[..], v2_begin] {
        for cut in 0..torn.len() {
            let report = Recovery::from(RecoverySource::WalBytes(torn[..cut].to_vec()))
                .run(&w)
                .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert!(report.history.is_empty(), "cut at {cut}");
        }
    }
}

#[test]
fn rebuild_refuses_a_foreign_seed() {
    let records = full_log(&workload(1));
    assert_eq!(
        rebuild_image(&workload(2), &records).unwrap_err(),
        RebuildError::SeedMismatch {
            found: 1,
            expected: 2
        }
    );
}

#[test]
fn rebuild_refuses_an_invocation_on_an_unknown_subsystem() {
    let w = workload(1);
    let mut records = full_log(&w);
    let subsystem = records
        .iter_mut()
        .find_map(|r| match r {
            WalRecord::Invocation { subsystem, .. } => Some(subsystem),
            _ => None,
        })
        .expect("seed 1 invokes a service");
    *subsystem = u32::MAX;
    let err = rebuild_image(&w, &records).unwrap_err();
    assert!(
        matches!(&err, RebuildError::Inconsistent(msg) if msg.contains("unknown subsystem")),
        "{err}"
    );
}

#[test]
fn rebuild_refuses_a_headless_log() {
    // The header is what ties a log to a format and a workload; records that
    // do not start with exactly one were never checked against either. The
    // empty sequence — a cut inside the `Begin` frame — is still genesis.
    let w = workload(1);
    let records = full_log(&w);
    assert!(matches!(records[0], WalRecord::Begin { .. }));
    let err = rebuild_image(&w, &records[1..]).unwrap_err();
    assert!(
        matches!(&err, RebuildError::Inconsistent(msg) if msg.contains("not Begin")),
        "{err}"
    );
    let twice = [&records[..1], &records[..]].concat();
    let err = rebuild_image(&w, &twice).unwrap_err();
    assert!(
        matches!(&err, RebuildError::Inconsistent(msg) if msg.contains("second Begin")),
        "{err}"
    );
    let genesis = rebuild_image(&w, &[]).expect("an empty log is genesis");
    assert!(genesis.history.is_empty() && genesis.invocation_log.is_empty());
}

#[test]
fn rebuild_refuses_an_executed_but_undecided_release() {
    // The `Execute` event of a prepared invocation with no `Decision` naming
    // it (what a version-1 group commit cut inside its release window showed).
    // No current run writes this; rebuild must not fold it silently.
    let release = |r: &WalRecord| {
        matches!(
            r,
            WalRecord::Event {
                event: Event::Execute(_),
            }
        )
    };
    let (w, records, executed) = (0..8)
        .find_map(|seed| {
            let w = workload(seed);
            let records = full_log(&w);
            let executed = records.iter().position(release)?;
            Some((w, records, executed))
        })
        .expect("some seed releases a deferred commit");
    let decided = records[..executed]
        .iter()
        .rposition(|r| matches!(r, WalRecord::Decision { .. }))
        .expect("the release was decided first");
    assert!(rebuild_image(&w, &records[..=executed]).is_ok());
    let mut undecided = records[..decided].to_vec();
    undecided.push(records[executed].clone());
    let err = rebuild_image(&w, &undecided).expect_err("undecided release must not rebuild");
    assert!(
        matches!(&err, RebuildError::Inconsistent(msg) if msg.contains("before its release was decided")),
        "{err}"
    );
}

/// The full nightly sweep: 64 seeds per mode. Run with
/// `cargo test -p txproc-engine --test wal_crash_sweep -- --ignored`.
#[test]
#[ignore = "nightly: 64-seed sweep"]
fn nightly_full_sweep() {
    for seed in 0..64u64 {
        sweep(seed, 0, &format!("nightly per-event seed {seed}"));
        sweep(seed, 4, &format!("nightly epoch seed {seed}"));
    }
}
