//! E16/E29 benchmark: crash-recovery cost (group abort + completion) — of
//! a crash image alone; building the image is outside the timed region.
//! Three crash points of an 8-process run, and the half-log cut of a
//! journaled run at 32, 128 and 512 processes.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use txproc_core::wal::{read_records, DurabilityPolicy, MemWal, WalWriter};
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

/// The image a crash leaves after the first half of a finished run's log
/// (the benchmark's `durable_recovery` shape: epoch 16, one seal per epoch).
fn half_log_image(w: &Workload) -> CrashImage {
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
    let (mut records, _) = read_records(&mem.contents());
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

criterion_group!(benches, bench);
criterion_main!(benches);
