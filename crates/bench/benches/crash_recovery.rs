//! E16/E29 benchmark: crash-recovery cost (group abort + completion) — of
//! a crash image alone; building the image is outside the timed region.
//! Three crash points of an 8-process run, and the half-log cut of a
//! journaled run at 32, 128 and 512 processes. E37's `wal_codec` group is
//! the log's codec alone: one frame of each record shape encoded and read
//! back, and `read_records` over one whole `durable_recovery`-shaped log.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use txproc_core::ids::{ActivityId, GlobalActivityId, ProcessId};
use txproc_core::schedule::Event;
use txproc_core::wal::{
    encode_record, read_records, DurabilityPolicy, MemWal, WalRecord, WalWriter, WAL_VERSION,
};
use txproc_engine::durability::rebuild_image;
use txproc_engine::engine::{Engine, RunConfig};
use txproc_engine::recovery::{recover, CrashImage};
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

fn workload(seed: u64, processes: usize, conflict_density: f64) -> Workload {
    generate(&WorkloadConfig {
        seed,
        processes,
        conflict_density,
        failure_probability: 0.1,
        ..WorkloadConfig::default()
    })
}

/// The log of a finished run (the benchmark's `durable_recovery` shape:
/// epoch 16, one seal per epoch).
fn journaled_log(w: &Workload) -> Vec<u8> {
    let mem = MemWal::new();
    let writer = WalWriter::new(
        Box::new(mem.clone()),
        DurabilityPolicy::FsyncPerEpoch,
        w.config.seed,
    );
    let cfg = RunConfig {
        seed: w.config.seed,
        epoch: 16,
        ..RunConfig::default()
    };
    Engine::new(w, cfg).with_wal(writer).run();
    mem.contents()
}

/// The image a crash leaves after the first half of a finished run's log.
fn half_log_image(w: &Workload) -> CrashImage {
    let (mut records, _) = read_records(&journaled_log(w));
    records.truncate(records.len() / 2);
    rebuild_image(w, &records).expect("a record prefix rebuilds")
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("crash_recovery");
    g.sample_size(20);
    let mut recover_image = |id: BenchmarkId, w: &Workload, image: CrashImage| {
        g.bench_with_input(id, &image, |b, image| {
            b.iter_batched(
                || image.clone(),
                |image| recover(w, image).expect("recovers"),
                BatchSize::SmallInput,
            )
        });
    };
    let w = workload(11, 8, 0.4);
    for crash_at in [4usize, 12, 24] {
        let mut engine = Engine::new(&w, RunConfig::default());
        engine.run_until_history(crash_at);
        recover_image(BenchmarkId::new("recover", crash_at), &w, engine.crash());
    }
    for processes in [32usize, 128, 512] {
        let w = workload(1, processes, 0.3);
        let image = half_log_image(&w);
        recover_image(BenchmarkId::new("recover_half_log", processes), &w, image);
    }
    g.finish();
}

/// One record of each shape the log can hold.
fn record_shapes() -> Vec<(&'static str, WalRecord)> {
    let gid = GlobalActivityId::new(ProcessId(17), ActivityId(3));
    let event = |event| WalRecord::Event { event };
    vec![
        (
            "begin",
            WalRecord::Begin {
                version: WAL_VERSION,
                seed: 1,
            },
        ),
        ("execute", event(Event::Execute(gid))),
        ("fail", event(Event::Fail(gid))),
        ("compensate", event(Event::Compensate(gid))),
        ("commit", event(Event::Commit(ProcessId(17)))),
        ("abort", event(Event::Abort(ProcessId(17)))),
        (
            "group_abort_4",
            event(Event::GroupAbort((4..8).map(ProcessId).collect())),
        ),
        (
            "invocation",
            WalRecord::Invocation {
                gid,
                subsystem: 2,
                invocation: 41,
                prepared: false,
            },
        ),
        (
            "prepared_aborted",
            WalRecord::PreparedAborted {
                subsystem: 2,
                invocation: 41,
            },
        ),
        (
            "decision_2",
            WalRecord::Decision {
                group: 9,
                commit: true,
                participants: vec![(2, 41), (0, 7)],
            },
        ),
        ("decision_applied", WalRecord::DecisionApplied { group: 9 }),
        ("epoch_seal", WalRecord::EpochSeal { epoch: 12 }),
    ]
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_codec");
    g.sample_size(20);
    for (shape, record) in record_shapes() {
        g.bench_with_input(BenchmarkId::new("encode", shape), &record, |b, record| {
            b.iter(|| encode_record(record))
        });
        let frame = encode_record(&record);
        g.bench_with_input(BenchmarkId::new("decode", shape), &frame, |b, frame| {
            b.iter(|| read_records(frame))
        });
    }
    let log = journaled_log(&workload(1, 32, 0.3));
    let records = read_records(&log).0.len();
    g.bench_with_input(BenchmarkId::new("read_log", records), &log, |b, log| {
        b.iter(|| read_records(log))
    });
    g.finish();
}

criterion_group!(benches, bench, bench_codec);
criterion_main!(benches);
