//! A workload partitions its spec into conflict domains once, when it is
//! built, and every run reads that partition: it must be the one a fresh
//! `DomainPartition::partition` and the naive pairwise oracle give for the
//! workload's own spec, on every shape the drivers and the benchmark run.

use txproc_bench::scenarios::{cim_workload, figure1_workload, paper_workload};
use txproc_core::domains::{naive_components, DomainPartition};
use txproc_sim::scenario::registry;
use txproc_sim::workload::{generate, try_generate, ArrivalModel, Workload, WorkloadConfig};

/// The stored partition is the spec's, by the union-find and by the oracle.
fn check(name: &str, w: &Workload) {
    let stored = w.partition().domains();
    assert_eq!(
        stored,
        DomainPartition::partition(&w.spec).domains(),
        "{name}"
    );
    // The oracle lists its components sorted; domain ids order them by
    // smallest member, which is the same order.
    assert_eq!(stored, naive_components(&w.spec), "{name}");
}

/// Many small tenants over the small catalog, as the benchmark's
/// `closed_disjoint` and `open_poisson` inputs are made: process `p` is in
/// cluster `p % clusters`, so a domain's pids stride by `clusters`.
fn tenants(seed: u64, processes: usize, clusters: usize, arrivals: ArrivalModel) -> Workload {
    generate(&WorkloadConfig {
        seed,
        processes,
        clusters,
        services_per_kind: 4,
        subsystems: 2,
        conflict_density: 0.3,
        failure_probability: 0.1,
        arrivals,
        ..WorkloadConfig::default()
    })
}

#[test]
fn a_workload_keeps_the_partition_of_its_spec() {
    for seed in [3, 7] {
        // The benchmark's four input shapes, at small scale.
        let pooled = |processes| {
            generate(&WorkloadConfig {
                seed,
                processes,
                conflict_density: 0.3,
                failure_probability: 0.1,
                ..WorkloadConfig::default()
            })
        };
        check("closed_contended", &pooled(96));
        check(
            "closed_disjoint",
            &tenants(seed, 256, 32, ArrivalModel::Closed),
        );
        let poisson = ArrivalModel::Poisson { mean_gap: 500 };
        check("open_poisson", &tenants(seed, 128, 2, poisson));
        check("durable_recovery", &pooled(32));
    }

    // 512 clusters, so each domain's pids are c, c + 512, …
    let strided = tenants(3, 1024, 512, ArrivalModel::Closed);
    assert!(strided.partition().domain_count() >= 512);
    check("512-cluster strided", &strided);

    for s in registry() {
        check(s.name, &try_generate(&s.disjoint_variant(3)).unwrap());
    }

    // Hand-built workloads: `Workload::new` over a fixture's spec.
    check("cim", &cim_workload(0.1).1);
    check("figure1", &figure1_workload(0.1).1);
    check("paper", &paper_workload(0.1).1);
}
