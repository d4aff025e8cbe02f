//! Property tests for the conflict-domain partitioner: the union-find
//! construction over service footprints must agree exactly with a naive
//! O(n²) pairwise-conflict + BFS connected-components oracle, and the
//! dynamic-merge path must coarsen the partition consistently.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use txproc_core::activity::Catalog;
use txproc_core::conflict::ConflictMatrix;
use txproc_core::domains::{naive_components, DomainPartition};
use txproc_core::ids::{ProcessId, ServiceId};
use txproc_core::process::ProcessBuilder;
use txproc_core::spec::Spec;

/// Builds a random world: `services` base services with a random symmetric
/// conflict relation (including self-conflicts), and `processes` chain
/// processes with random footprints.
fn random_spec(seed: u64, services: usize, processes: usize, conflict_density: f64) -> Spec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    let svcs: Vec<ServiceId> = (0..services)
        .map(|i| {
            // Mix service kinds so Catalog::base mapping is exercised.
            if i % 3 == 0 {
                cat.pivot(format!("s{i}"))
            } else {
                cat.compensatable(format!("s{i}")).0
            }
        })
        .collect();
    let mut matrix = ConflictMatrix::new(&cat);
    for i in 0..services {
        for j in i..services {
            if rng.gen_bool(conflict_density) {
                matrix.declare_conflict(&cat, svcs[i], svcs[j]).unwrap();
            }
        }
    }
    let mut spec = Spec::new(cat, matrix);
    for p in 0..processes {
        let mut b = ProcessBuilder::new(ProcessId(p as u32 + 1), format!("p{p}"));
        let len = rng.gen_range(1..=4usize);
        let acts: Vec<_> = (0..len)
            .map(|k| {
                let s = svcs[rng.gen_range(0..svcs.len())];
                b.activity(format!("a{k}"), s)
            })
            .collect();
        b.chain(&acts);
        spec.add_process(b.build(&spec.catalog).unwrap());
    }
    spec
}

/// A multi-tenant world: `clusters` disjoint groups of `per_cluster` base
/// services with conflicts declared only inside a group; process `p` draws
/// its footprint from cluster `p % clusters`. Processes are registered in
/// the order `order` gives (a permutation of `0..processes`).
fn clustered_spec(
    seed: u64,
    clusters: usize,
    per_cluster: usize,
    order: impl Iterator<Item = usize>,
) -> Spec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    let svcs: Vec<ServiceId> = (0..clusters * per_cluster)
        .map(|i| cat.compensatable(format!("s{i}")).0)
        .collect();
    let mut matrix = ConflictMatrix::new(&cat);
    for cluster in svcs.chunks(per_cluster) {
        for (i, &a) in cluster.iter().enumerate() {
            for &b in &cluster[i..] {
                if rng.gen_bool(0.25) {
                    matrix.declare_conflict(&cat, a, b).unwrap();
                }
            }
        }
    }
    let mut spec = Spec::new(cat, matrix);
    for p in order {
        // The footprint depends on the pid alone, not on registration order.
        let mut rng = StdRng::seed_from_u64(seed ^ (p as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15));
        let cluster = &svcs[(p % clusters) * per_cluster..][..per_cluster];
        let mut b = ProcessBuilder::new(ProcessId(p as u32), format!("p{p}"));
        let acts: Vec<_> = (0..rng.gen_range(1..=4usize))
            .map(|k| b.activity(format!("a{k}"), cluster[rng.gen_range(0..per_cluster)]))
            .collect();
        b.chain(&acts);
        spec.add_process(b.build(&spec.catalog).unwrap());
    }
    spec
}

/// The shape the sharded driver is run on: many clusters, a large catalog,
/// hundreds of small domains.
#[test]
fn many_cluster_partition_matches_naive_oracle() {
    for (seed, clusters, processes) in [(1u64, 64usize, 512usize), (2, 96, 640)] {
        let spec = clustered_spec(seed, clusters, 6, 0..processes);
        let part = DomainPartition::partition(&spec);
        let mut got: Vec<Vec<ProcessId>> = part.domains().to_vec();
        got.sort();
        assert_eq!(got, naive_components(&spec), "seed {seed}");
        assert!(part.domain_count() >= clusters, "seed {seed}");
        for members in part.domains() {
            let cluster = members[0].0 as usize % clusters;
            assert!(
                members.iter().all(|p| p.0 as usize % clusters == cluster),
                "seed {seed}: a domain mixes clusters"
            );
        }

        // Registration order is not an input of the partition.
        let reversed = clustered_spec(seed, clusters, 6, (0..processes).rev());
        let mut shuffled: Vec<usize> = (0..processes).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..processes).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let shuffled = clustered_spec(seed, clusters, 6, shuffled.into_iter());
        for other in [&reversed, &shuffled] {
            assert_eq!(
                DomainPartition::partition(other).domains(),
                part.domains(),
                "seed {seed}: partition depends on registration order"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn partition_matches_naive_oracle(
        seed in 0u64..1_000_000,
        services in 1usize..10,
        processes in 1usize..12,
        density_pct in 0u32..=100,
    ) {
        let spec = random_spec(seed, services, processes, f64::from(density_pct) / 100.0);
        let part = DomainPartition::partition(&spec);
        let naive = naive_components(&spec);

        let mut got: Vec<Vec<ProcessId>> = part.domains().to_vec();
        got.sort();
        prop_assert_eq!(&got, &naive, "partition disagrees with O(n²) oracle");

        // Dense ids, ordered by smallest member, covering every process.
        prop_assert_eq!(part.domain_count(), naive.len());
        prop_assert_eq!(part.process_count(), spec.process_count());
        let firsts: Vec<ProcessId> = part.domains().iter().map(|d| d[0]).collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        prop_assert_eq!(firsts, sorted, "domain ids not ordered by smallest member");
        for p in spec.processes() {
            let d = part.domain_of(p.id).expect("registered pid has a domain");
            prop_assert!(part.domains()[d as usize].contains(&p.id));
        }
    }

    #[test]
    fn dynamic_merge_coarsens_consistently(
        seed in 0u64..1_000_000,
        services in 1usize..8,
        processes in 2usize..10,
    ) {
        let spec = random_spec(seed, services, processes, 0.2);
        let mut part = DomainPartition::partition(&spec);
        let before = part.domain_count();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let a = ProcessId(rng.gen_range(0..processes) as u32 + 1);
        let b = ProcessId(rng.gen_range(0..processes) as u32 + 1);
        let distinct = !part.same_domain(a, b);
        let merged = part.merge(a, b);
        prop_assert_eq!(merged, distinct, "merge must report whether domains fused");
        prop_assert!(part.same_domain(a, b));
        prop_assert_eq!(
            part.domain_count(),
            if distinct { before - 1 } else { before }
        );
        // Labels stay dense and ordered by smallest member after relabel.
        let firsts: Vec<ProcessId> = part.domains().iter().map(|d| d[0]).collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        prop_assert_eq!(firsts, sorted);
        let total: usize = part.domains().iter().map(Vec::len).sum();
        prop_assert_eq!(total, processes);
    }
}
