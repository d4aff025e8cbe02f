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
//!
//! `scalability-domains` runs the concurrent driver (`Pred`, 1 and
//! 2 workers) over 64, 512 and 2 048 clusters of 8 processes. A worker holds
//! scheduler state only for the domains it is running, so per-domain cost
//! must stay level along the curve; the 512-cluster run with telemetry on
//! adds the phase timers alone (the registry holds no per-shard state), so
//! it should sit just above the run without.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txproc_core::domains::DomainPartition;
use txproc_core::protocol::{DeferPolicy, Protocol};
use txproc_core::telemetry::Telemetry;
use txproc_engine::concurrent::{run_concurrent, ConcurrentConfig};
use txproc_engine::engine::{run, RunConfig};
use txproc_engine::policy::PolicyKind;
use txproc_engine::RunBuilder;
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

/// `clusters` independent clusters of 8 processes, 12 services each.
fn clustered(clusters: usize) -> WorkloadConfig {
    WorkloadConfig {
        seed: 3,
        processes: 8 * clusters,
        clusters,
        services_per_kind: 4,
        subsystems: 2,
        conflict_density: 0.3,
        failure_probability: 0.1,
        ..WorkloadConfig::default()
    }
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

    let mut g = c.benchmark_group("scalability-domains");
    g.sample_size(10);
    for &clusters in &[64usize, 512, 2048] {
        let w = generate(&clustered(clusters));
        for workers in [1usize, 2] {
            let cfg = ConcurrentConfig {
                workers: Some(workers),
                ..ConcurrentConfig::default()
            };
            let id = BenchmarkId::new(format!("workers-{workers}"), clusters);
            g.bench_with_input(id, &w, |b, w| b.iter(|| run_concurrent(w, cfg.clone())));
            if clusters == 512 {
                let id = BenchmarkId::new(format!("telemetry-workers-{workers}"), clusters);
                g.bench_with_input(id, &w, |b, w| {
                    b.iter(|| {
                        RunBuilder::new(w)
                            .concurrent(cfg.clone())
                            .telemetry(Telemetry::on())
                            .run()
                    })
                });
            }
        }
    }
    g.finish();

    let mut g = c.benchmark_group("scalability-catalog");
    g.sample_size(10);
    for &clusters in &[8usize, 64, 512] {
        let config = clustered(clusters);
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
