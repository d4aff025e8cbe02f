//! Property tests for the workload generator: structural invariants hold
//! under arbitrary configurations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use txproc_core::flex::FlexAnalysis;
use txproc_sim::workload::{generate, zipf_sample, ArrivalModel, Workload, WorkloadConfig};

fn config_strategy() -> impl Strategy<Value = WorkloadConfig> {
    (
        0u64..500,
        1usize..10,
        (1usize..3, 1usize..3),
        0.0f64..1.0,
        1usize..4,
        1usize..12,
        1usize..5,
        0.0f64..1.0,
    )
        .prop_map(
            |(seed, processes, prefix, alt, depth, services, subsystems, density)| WorkloadConfig {
                seed,
                processes,
                prefix_len: (prefix.0, prefix.0 + prefix.1),
                alternative_probability: alt,
                max_depth: depth,
                services_per_kind: services,
                subsystems,
                conflict_density: density,
                ..WorkloadConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated process has guaranteed termination, every service is
    /// deployed, and the declared conflict matrix covers the physical
    /// conflicts.
    #[test]
    fn generated_workloads_are_well_formed(config in config_strategy()) {
        let w = generate(&config);
        prop_assert_eq!(w.spec.process_count(), config.processes);
        for p in w.spec.processes() {
            let analysis = FlexAnalysis::analyze(p, &w.spec.catalog);
            prop_assert!(
                analysis.has_guaranteed_termination(),
                "process {} lacks guaranteed termination",
                p.name
            );
            for (id, _) in p.iter() {
                prop_assert!(w.deployment.site(p.service(id)).is_some());
            }
        }
        let missing = w.deployment.validate_conflicts(&w.spec.catalog, &w.spec.conflicts);
        prop_assert!(missing.is_empty(), "undeclared conflicts: {missing:?}");
        for sid in w.deployment.subsystems() {
            prop_assert!((sid.0 as usize) < config.subsystems);
        }
    }

    /// Generation is a pure function of the configuration.
    #[test]
    fn generation_is_deterministic(config in config_strategy()) {
        let w1 = generate(&config);
        let w2 = generate(&config);
        let d1: Vec<String> = w1.spec.processes().map(|p| format!("{p:?}")).collect();
        let d2: Vec<String> = w2.spec.processes().map(|p| format!("{p:?}")).collect();
        prop_assert_eq!(d1, d2);
        let s1: Vec<_> = w1.deployment.services().map(|(s, site)| (s, site.clone())).collect();
        let s2: Vec<_> = w2.deployment.services().map(|(s, site)| (s, site.clone())).collect();
        prop_assert_eq!(s1, s2);
    }

    /// The Zipf sampler's empirical rank frequencies track the theoretical
    /// law `P(r) ∝ 1/(r+1)^s` within tolerance, across seeds, pool sizes
    /// and skews.
    #[test]
    fn zipf_empirical_matches_law(
        seed in 0u64..10_000,
        n in 2usize..24,
        s in 0.2f64..2.5,
    ) {
        const DRAWS: usize = 30_000;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; n];
        for _ in 0..DRAWS {
            counts[zipf_sample(&mut rng, n, s)] += 1;
        }
        let total: f64 = (0..n).map(|r| ((r + 1) as f64).powf(-s)).sum();
        for (r, &c) in counts.iter().enumerate() {
            let expected = ((r + 1) as f64).powf(-s) / total * DRAWS as f64;
            // Binomial std dev ≈ sqrt(expected); allow 6 sigma plus an
            // absolute slack for tiny tail probabilities.
            let slack = 6.0 * expected.sqrt() + 25.0;
            prop_assert!(
                (c as f64 - expected).abs() <= slack,
                "rank {r}: observed {c}, expected {expected:.1} ± {slack:.1} (n={n}, s={s})"
            );
        }
        // Skew really skews: rank 0 must strictly dominate the last rank.
        prop_assert!(counts[0] > counts[n - 1]);
    }

    /// `s = 0` consumes the RNG exactly like the uniform generator: the
    /// streams stay bit-identical draw after draw.
    #[test]
    fn zipf_zero_is_uniform_bit_identical(seed in 0u64..10_000, n in 1usize..64) {
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        for _ in 0..256 {
            prop_assert_eq!(zipf_sample(&mut a, n, 0.0), b.gen_range(0..n));
        }
        // And the generators themselves are left in identical states.
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }
}

/// FNV-1a over the `Debug` text of the catalog, every process and every
/// deployed site, plus the conflict relation read by probes (so the digest
/// does not depend on how the matrix stores it).
fn workload_digest(w: &Workload) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |text: String| {
        for b in text.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(format!("{:?}", w.spec.catalog));
    for p in w.spec.processes() {
        eat(format!("{p:?}"));
    }
    for (s, site) in w.deployment.services() {
        eat(format!("{s:?}{site:?}"));
    }
    let ids: Vec<_> = w.spec.catalog.iter().map(|(s, _)| s).collect();
    for &a in &ids {
        for &b in &ids {
            if w.spec.conflicts.conflict(&w.spec.catalog, a, b) {
                eat(format!("{a}#{b};"));
            }
        }
    }
    h
}

/// The generator's output is pinned: the shapes of the four benchmark
/// workloads, at small size, digest to what the generator produced before
/// conflicts were declared per key bucket (digests computed at that commit).
/// The 64-cluster shape reaches subsystem ids ≥ 100, where hot keys
/// (`subsystem · 10 000 + k`) and cold keys (`1 000 001…`) overlap.
#[test]
fn generated_workloads_are_pinned() {
    let pool = |seed, processes| WorkloadConfig {
        seed,
        processes,
        conflict_density: 0.3,
        failure_probability: 0.1,
        ..WorkloadConfig::default()
    };
    let tenants = |seed, processes, clusters, arrivals| WorkloadConfig {
        clusters,
        services_per_kind: 4,
        subsystems: 2,
        arrivals,
        ..pool(seed, processes)
    };
    let shapes = [
        ("closed_contended", pool(11, 24)),
        (
            "closed_disjoint",
            tenants(12, 256, 64, ArrivalModel::Closed),
        ),
        (
            "open_poisson",
            tenants(13, 128, 2, ArrivalModel::Poisson { mean_gap: 500 }),
        ),
        ("durable_recovery", pool(14, 32)),
    ];
    let got = shapes.map(|(name, config)| (name, workload_digest(&generate(&config))));
    let pinned = [
        ("closed_contended", 0x4486_b999_08a8_be32u64),
        ("closed_disjoint", 0x3d7c_f6c1_f94c_566b),
        ("open_poisson", 0x3855_4419_736c_6a04),
        ("durable_recovery", 0x91e3_0abc_231c_509b),
    ];
    assert_eq!(got, pinned, "got {got:#018x?}");
}
