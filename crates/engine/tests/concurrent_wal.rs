//! Concurrent-driver durability: the journal, appended in ticket order,
//! rebuilds to the exact merged history, the journal's seal cadence bounds
//! what a crash can lose on both drivers, and the unified recovery API
//! reads WALs from files and byte buffers interchangeably.

use txproc_core::pred::is_pred;
use txproc_core::recoverability::is_proc_rec;
use txproc_core::schedule::render;
use txproc_core::wal::{read_records, DurabilityPolicy, FileWal, MemWal, WalRecord, WalWriter};
use txproc_engine::concurrent::ConcurrentConfig;
use txproc_engine::durability::rebuild_image;
use txproc_engine::engine::{Engine, RunConfig};
use txproc_engine::recovery::{recover, Recovery, RecoverySource};
use txproc_engine::RunBuilder;
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

fn workload(seed: u64) -> Workload {
    generate(&WorkloadConfig {
        seed,
        processes: 6,
        clusters: 2,
        conflict_density: 0.4,
        failure_probability: 0.1,
        ..WorkloadConfig::default()
    })
}

/// A concurrent run journaled through the builder leaves a WAL that
/// rebuilds, read front to back like any log, to the exact merged history —
/// even with multiple workers racing to append — and that history passes
/// the same PRED / Proc-REC audits as the returned one.
#[test]
fn concurrent_wal_replays_to_the_merged_history() {
    for seed in 0..16u64 {
        for workers in [Some(1), Some(4)] {
            let w = workload(seed);
            let mem = MemWal::new();
            let writer = WalWriter::new(Box::new(mem.clone()), DurabilityPolicy::Buffered, seed);
            let cfg = ConcurrentConfig {
                seed,
                workers,
                epoch: 4,
                ..ConcurrentConfig::default()
            };
            let result = RunBuilder::new(&w)
                .concurrent(cfg)
                .durability(writer, 0)
                .run()
                .into_concurrent();

            let (records, clean) = read_records(&mem.contents());
            assert_eq!(clean, mem.len(), "seed {seed}: finish() lands whole frames");
            let replayed = rebuild_image(&w, &records).expect("rebuild").history;
            assert_eq!(
                render(&replayed),
                render(&result.history),
                "seed {seed} workers {workers:?}: WAL replay diverged from the run"
            );
            assert!(is_pred(&w.spec, &replayed).unwrap(), "seed {seed}: PRED");
            assert!(
                is_proc_rec(&w.spec, &replayed).unwrap(),
                "seed {seed}: Proc-REC"
            );
        }
    }
}

/// A finished 16-process run's log under `FsyncPerEpoch` with `epoch` as
/// the seal cadence, and how often the store was synced.
fn sealed_log(w: &Workload, concurrent: bool, epoch: usize) -> (Vec<WalRecord>, u64) {
    let mem = MemWal::new();
    let writer = WalWriter::new(Box::new(mem.clone()), DurabilityPolicy::FsyncPerEpoch, 5);
    let builder = RunBuilder::new(w).durability(writer, 0);
    let builder = if concurrent {
        builder.concurrent(ConcurrentConfig {
            seed: 5,
            workers: Some(1),
            epoch,
            ..ConcurrentConfig::default()
        })
    } else {
        builder.config(RunConfig {
            seed: 5,
            epoch,
            ..RunConfig::default()
        })
    };
    builder.run();
    let (records, clean) = read_records(&mem.contents());
    assert_eq!(clean, mem.len(), "finish() lands whole frames");
    (records, mem.syncs())
}

fn sixteen_processes() -> Workload {
    generate(&WorkloadConfig {
        seed: 5,
        processes: 16,
        conflict_density: 0.4,
        ..WorkloadConfig::default()
    })
}

/// `FsyncPerEpoch` group-syncs on both drivers at every epoch size: with
/// `epoch = 0` the journal is sealed after every event, exactly as with
/// `epoch = 1`. One sync — the one at the end of the run — would mean a
/// crash loses the whole log.
#[test]
fn fsync_per_epoch_syncs_during_the_run_on_both_drivers() {
    let w = sixteen_processes();
    for concurrent in [false, true] {
        let [per_event, one, sixteen] = [0, 1, 16].map(|epoch| sealed_log(&w, concurrent, epoch).1);
        let got = format!("concurrent {concurrent}: {per_event} / {one} / {sixteen} sync(s)");
        assert_eq!(per_event, one, "{got}: epoch 0 is epoch 1 for the log");
        assert!(1 < sixteen && sixteen < one, "{got}: epochs group syncs");
    }
}

/// The durability bound: under `FsyncPerEpoch` with `epoch = N` a crash
/// loses at most `max(N, 1)` history events, on both drivers. The writer
/// owns the cadence (`WalWriter::seal_every`), so this fails if sealing is
/// mutated away or made lazier, whichever driver feeds the writer.
#[test]
fn at_most_n_events_are_ever_unsealed_on_both_drivers() {
    let w = sixteen_processes();
    for concurrent in [false, true] {
        for epoch in [0usize, 1, 4, 16] {
            let what = format!("concurrent {concurrent} epoch {epoch}");
            let (records, syncs) = sealed_log(&w, concurrent, epoch);
            let bound = epoch.max(1);
            let (mut unsealed, mut events, mut seals) = (0, 0, 0u64);
            for r in &records {
                if let WalRecord::EpochSeal { epoch: number } = r {
                    assert_eq!(unsealed, bound, "{what}: seal {number} came early");
                    assert_eq!(*number, seals, "{what}: seals are numbered densely");
                    seals += 1;
                    unsealed = 0;
                } else if r.carries_event() {
                    unsealed += 1;
                    events += 1;
                    assert!(unsealed <= bound, "{what}: {unsealed} events unsealed");
                }
            }
            assert!(events > 3 * 16, "{what}: the run spans several epochs");
            assert_eq!(seals, (events / bound) as u64, "{what}");
            // Every seal is a sync, and `finish` syncs the tail after the
            // last one.
            assert_eq!(syncs, seals + 1, "{what}");
        }
    }
}

/// What the writer counts toward a seal is what replay turns into a history
/// event, on a real log of each driver. (That a writer nobody called
/// `seal_every` on — the benchmark's `wal.append.*` replay builds one —
/// appends no seal of its own is `writer_policies_drive_sync_cadence` in
/// `core::wal`.)
#[test]
fn the_writer_counts_exactly_the_records_replay_turns_into_events() {
    let w = sixteen_processes();
    let (engine_log, _) = sealed_log(&w, false, 4);
    let (shard_log, _) = sealed_log(&w, true, 4);
    for log in [engine_log, shard_log] {
        let carried = log.iter().filter(|r| r.carries_event()).count();
        let image = rebuild_image(&w, &log).expect("rebuild");
        assert_eq!(carried, image.history.len());
    }
}

/// Journaling must not perturb the concurrent run itself: under the
/// deterministic single-worker envelope, WAL-on and WAL-off runs are
/// bit-identical.
#[test]
fn concurrent_wal_journaling_never_changes_the_run() {
    for seed in 0..16u64 {
        let w = workload(seed);
        let cfg = ConcurrentConfig {
            seed,
            workers: Some(1),
            epoch: 4,
            ..ConcurrentConfig::default()
        };
        let plain = RunBuilder::new(&w)
            .concurrent(cfg.clone())
            .run()
            .into_concurrent();
        let mem = MemWal::new();
        let writer = WalWriter::new(Box::new(mem.clone()), DurabilityPolicy::Buffered, seed);
        let logged = RunBuilder::new(&w)
            .concurrent(cfg)
            .durability(writer, 0)
            .run()
            .into_concurrent();
        assert_eq!(
            plain.history.events(),
            logged.history.events(),
            "seed {seed}: journaling changed the history"
        );
        assert_eq!(plain.metrics.committed, logged.metrics.committed);
        assert_eq!(plain.metrics.aborted, logged.metrics.aborted);
    }
}

/// A log file read back and recovered through `RecoverySource::WalBytes`
/// agrees with recovering the image rebuilt from it by hand.
#[test]
fn recovery_of_a_file_log_agrees_with_its_rebuilt_image() {
    let dir = std::env::temp_dir().join(format!("txproc-wal-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for seed in 0..8u64 {
        let w = workload(seed);
        let path = dir.join(format!("seed-{seed}.wal"));
        let file = FileWal::create(&path).expect("create wal file");
        let writer = WalWriter::new(Box::new(file), DurabilityPolicy::FsyncPerEpoch, seed);
        let cfg = RunConfig {
            seed,
            epoch: 4,
            ..RunConfig::default()
        };
        let mut engine = Engine::new(&w, cfg).with_wal(writer);
        engine.run_until_history(7 + seed as usize);
        drop(engine.crash());

        let bytes = std::fs::read(&path).expect("read wal back");
        let (records, _) = read_records(&bytes);
        let by_hand = recover(&w, rebuild_image(&w, &records).expect("rebuild"))
            .expect("recover rebuilt image");
        let from_bytes = Recovery::from(RecoverySource::WalBytes(bytes))
            .run(&w)
            .expect("recover from bytes");
        assert_eq!(
            render(&by_hand.history),
            render(&from_bytes.history),
            "seed {seed}: WalBytes diverged"
        );
        assert_eq!(by_hand.aborted, from_bytes.aborted, "seed {seed}");
        assert!(is_pred(&w.spec, &from_bytes.history).unwrap());
        assert!(is_proc_rec(&w.spec, &from_bytes.history).unwrap());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
