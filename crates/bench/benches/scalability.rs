//! E17/E19 benchmark: scheduler cost vs number of concurrent processes.
//!
//! Covers the deterministic engine at 8–256 processes (pred-protocol vs
//! serial) and the concurrent driver at 8–64 processes. The larger
//! sizes exercise the indexed protocol hot path: per-decision cost must stay
//! O(degree), not O(live ops), for these to finish in sensible time.
//!
//! `scalability-catalog` records the catalog-size dependence of what a
//! sharded run pays outside its shards' own work: at 8, 64 and 512 clusters
//! (8 processes each, 12 services per cluster) it times `generate`,
//! `DomainPartition::partition` and a fresh `Protocol`'s first admission —
//! the first read of a service's conflict row, which every shard pays per
//! service and which must not grow with the catalog.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txproc_core::domains::DomainPartition;
use txproc_core::protocol::{DeferPolicy, Protocol};
use txproc_engine::concurrent::{run_concurrent, ConcurrentConfig};
use txproc_engine::engine::{run, RunConfig};
use txproc_engine::policy::PolicyKind;
use txproc_sim::workload::{generate, WorkloadConfig};

fn workload(n: usize) -> txproc_sim::workload::Workload {
    generate(&WorkloadConfig {
        seed: 3,
        processes: n,
        conflict_density: 0.3,
        failure_probability: 0.1,
        ..WorkloadConfig::default()
    })
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("scalability");
    for &n in &[8usize, 16, 32, 64, 128, 256] {
        // Large sizes are slow per iteration; fewer samples keep wall time sane.
        g.sample_size(if n >= 128 { 10 } else { 15 });
        let w = workload(n);
        g.bench_with_input(BenchmarkId::new("pred-protocol", n), &w, |b, w| {
            b.iter(|| {
                run(
                    w,
                    RunConfig {
                        policy: PolicyKind::PredProtocol,
                        ..RunConfig::default()
                    },
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("serial", n), &w, |b, w| {
            b.iter(|| {
                run(
                    w,
                    RunConfig {
                        policy: PolicyKind::Serial,
                        ..RunConfig::default()
                    },
                )
            })
        });
    }
    g.finish();

    // The concurrent driver end to end (wall clock, worker pool).
    let mut g = c.benchmark_group("scalability-concurrent");
    g.sample_size(10);
    for &n in &[8usize, 16, 32, 64] {
        let w = workload(n);
        g.bench_with_input(BenchmarkId::new("pred-protocol", n), &w, |b, w| {
            b.iter(|| {
                run_concurrent(
                    w,
                    ConcurrentConfig {
                        policy: PolicyKind::PredProtocol,
                        ..ConcurrentConfig::default()
                    },
                )
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("scalability-catalog");
    g.sample_size(10);
    for &clusters in &[8usize, 64, 512] {
        let config = WorkloadConfig {
            seed: 3,
            processes: 8 * clusters,
            clusters,
            services_per_kind: 4,
            subsystems: 2,
            conflict_density: 0.3,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        };
        g.bench_with_input(BenchmarkId::new("generate", clusters), &config, |b, c| {
            b.iter(|| generate(c))
        });
        let w = generate(&config);
        g.bench_with_input(BenchmarkId::new("partition", clusters), &w, |b, w| {
            b.iter(|| DomainPartition::partition(&w.spec))
        });
        let first = w.spec.processes().next().expect("a process");
        let (pid, service) = (
            first.id,
            first.service(first.iter().next().expect("an activity").0),
        );
        g.bench_with_input(BenchmarkId::new("first-touch-row", clusters), &w, |b, w| {
            b.iter(|| {
                let mut protocol = Protocol::new(&w.spec, DeferPolicy::PrepareAndDefer);
                protocol.register(pid);
                protocol.request(pid, service)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
