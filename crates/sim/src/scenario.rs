//! Named adversarial scenarios with machine-checked acceptance envelopes.
//!
//! A [`Scenario`] is a [`WorkloadConfig`] shape (the seed varies per run)
//! plus an [`Envelope`]: the commit-rate floor, virtual-latency ceiling and
//! structural guards a correct scheduler must satisfy on that shape. The
//! correctness gauntlet (`txproc gauntlet`, `scenario_gauntlet.rs`,
//! experiment E22) replays every scenario over many seeds through the batch
//! PRED and Proc-REC checkers.

use crate::metrics::Metrics;
use crate::workload::{ArrivalModel, CrashStorm, TenantMix, WorkloadConfig};
use serde::{Deserialize, Serialize};

/// Acceptance envelope of a scenario: the floor/ceiling bounds a run's
/// [`Metrics`] must satisfy. PRED / Proc-REC violations are always
/// unacceptable, and the gauntlet checks the histories for them; the knobs
/// here are scenario-specific.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Commit-rate floor: `committed / processes` must be at least this.
    pub min_commit_rate: f64,
    /// Ceiling on the p95 end-to-end latency in *virtual ticks*. Checked on
    /// virtual-time (engine) runs only — wall-clock p95 depends on the host
    /// machine and would make the gauntlet flaky.
    pub max_p95_virtual: u64,
    /// Floor on compensations executed (asserts the scenario actually
    /// exercises the compensation machinery; 0 disables the guard).
    pub min_compensations: u64,
}

impl Envelope {
    /// Checks a run's metrics against the envelope. `virtual_time` selects
    /// whether the latency ceiling applies (engine runs) or not (wall-clock
    /// concurrent runs). Returns every breach, empty when the run passes.
    pub fn check(&self, m: &Metrics, processes: usize, virtual_time: bool) -> Vec<String> {
        let mut breaches = Vec::new();
        let rate = m.committed as f64 / processes.max(1) as f64;
        if rate < self.min_commit_rate {
            breaches.push(format!(
                "commit rate {rate:.3} below floor {:.3}",
                self.min_commit_rate
            ));
        }
        if virtual_time {
            if let Some(p95) = m.latency_percentile(0.95) {
                if p95 > self.max_p95_virtual {
                    breaches.push(format!(
                        "p95 latency {p95} above ceiling {}",
                        self.max_p95_virtual
                    ));
                }
            }
        }
        if m.compensations < self.min_compensations {
            breaches.push(format!(
                "{} compensations below floor {}",
                m.compensations, self.min_compensations
            ));
        }
        breaches
    }
}

/// A named adversarial workload shape with its acceptance envelope.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Scenario {
    /// Registry key (`zipf-hotspot`, `flash-crowd`, …).
    pub name: &'static str,
    /// One-line description for reports.
    pub summary: &'static str,
    /// The workload shape. `config.seed` is a placeholder — use
    /// [`Scenario::config_for_seed`] per run.
    pub config: WorkloadConfig,
    /// Acceptance bounds.
    pub envelope: Envelope,
}

impl Scenario {
    /// The scenario's config with the run seed substituted.
    pub fn config_for_seed(&self, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            ..self.config.clone()
        }
    }

    /// The scenario's shape with one cluster per process: processes become
    /// pairwise non-conflicting, so sharded and one-shard concurrent
    /// drivers must produce bit-equal commit/abort sets (the shard-mode
    /// determinism oracle). Structure knobs are preserved.
    pub fn disjoint_variant(&self, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            clusters: self.config.processes,
            ..self.config.clone()
        }
    }
}

/// All named scenarios, in registry order.
pub fn registry() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "zipf-hotspot",
            summary: "Zipf-skewed service popularity concentrates load on a \
                      few hot services over a tiny hot-key space",
            config: WorkloadConfig {
                processes: 24,
                services_per_kind: 12,
                subsystems: 3,
                hot_keys: 2,
                zipf_s: 1.5,
                conflict_density: 0.5,
                failure_probability: 0.05,
                ..WorkloadConfig::default()
            },
            // Measured (128 seeds): 0.17 engine / 0.22 concurrent commit
            // rate, engine p95 ≈ 190 ticks. Floors sit at roughly half the
            // worst observed mode so machine variance can't trip them.
            envelope: Envelope {
                min_commit_rate: 0.08,
                max_p95_virtual: 1_000,
                min_compensations: 0,
            },
        },
        Scenario {
            name: "flash-crowd",
            summary: "A quiet warm-up phase followed by every remaining \
                      process arriving in one burst",
            config: WorkloadConfig {
                processes: 32,
                arrivals: ArrivalModel::Burst {
                    quiet: 8,
                    quiet_gap: 40,
                },
                conflict_density: 0.4,
                failure_probability: 0.05,
                ..WorkloadConfig::default()
            },
            // Measured: 0.35 engine / 0.22 concurrent, engine p95 ≈ 120.
            envelope: Envelope {
                min_commit_rate: 0.10,
                max_p95_virtual: 1_000,
                min_compensations: 0,
            },
        },
        Scenario {
            name: "noisy-neighbor",
            summary: "One heavy tenant with long skewed sagas shares the \
                      cluster with three light tenants under Poisson arrivals",
            config: WorkloadConfig {
                processes: 24,
                arrivals: ArrivalModel::Poisson { mean_gap: 20 },
                tenants: vec![
                    TenantMix {
                        name: "heavy".into(),
                        weight: 1,
                        prefix_len: Some((6, 9)),
                        tail_len: Some((2, 3)),
                        alternative_probability: None,
                        zipf_s: Some(1.2),
                    },
                    TenantMix {
                        name: "light".into(),
                        weight: 3,
                        prefix_len: Some((1, 2)),
                        tail_len: Some((1, 1)),
                        alternative_probability: None,
                        zipf_s: None,
                    },
                ],
                conflict_density: 0.4,
                failure_probability: 0.05,
                ..WorkloadConfig::default()
            },
            // Measured: 0.46 engine / 0.27 concurrent, engine p95 ≈ 230.
            envelope: Envelope {
                min_commit_rate: 0.12,
                max_p95_virtual: 1_200,
                min_compensations: 0,
            },
        },
        Scenario {
            name: "long-sagas",
            summary: "Long compensatable chains with late pivots and deep \
                      alternative nesting",
            config: WorkloadConfig {
                processes: 16,
                prefix_len: (10, 16),
                tail_len: (2, 4),
                alternative_probability: 0.5,
                max_depth: 3,
                conflict_density: 0.3,
                // The stress here is structural (chain length, nesting
                // depth): a higher per-activity failure rate over 10-16
                // activities would drive the commit rate below 2% and make
                // the floor meaningless.
                failure_probability: 0.08,
                ..WorkloadConfig::default()
            },
            // Measured (128 seeds): 0.031 engine / 0.029 concurrent.
            envelope: Envelope {
                min_commit_rate: 0.015,
                max_p95_virtual: 1_500,
                min_compensations: 0,
            },
        },
        Scenario {
            name: "comp-heavy",
            summary: "Compensatable-heavy processes under a high failure \
                      rate: the abort path is the common path",
            config: WorkloadConfig {
                processes: 24,
                prefix_len: (5, 8),
                tail_len: (1, 1),
                alternative_probability: 0.2,
                conflict_density: 0.3,
                failure_probability: 0.35,
                ..WorkloadConfig::default()
            },
            // The abort path is the common path by design, so a commit-rate
            // floor would be noise; the envelope instead asserts the
            // compensation machinery actually runs (and, as everywhere,
            // that no PRED / Proc-REC violation appears).
            envelope: Envelope {
                min_commit_rate: 0.0,
                max_p95_virtual: 1_000,
                min_compensations: 10,
            },
        },
        Scenario {
            name: "crash-storm",
            summary: "Two of four subsystems fail almost every activity \
                      during a mid-run window (correlated crash mid-2PC)",
            config: WorkloadConfig {
                processes: 24,
                subsystems: 4,
                storm: Some(CrashStorm {
                    subsystems: 2,
                    window: (50, 250),
                    failure_probability: 0.9,
                }),
                conflict_density: 0.3,
                failure_probability: 0.05,
                ..WorkloadConfig::default()
            },
            // Measured: 0.39 engine / 0.12 concurrent (the storm covers the
            // whole run under wall-clock, so the concurrent rate is lower).
            envelope: Envelope {
                min_commit_rate: 0.05,
                max_p95_virtual: 1_500,
                min_compensations: 1,
            },
        },
    ]
}

/// Looks up a scenario by registry name.
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::try_generate;

    #[test]
    fn every_scenario_config_is_valid() {
        for s in registry() {
            for seed in [0, 1, 42] {
                try_generate(&s.config_for_seed(seed))
                    .unwrap_or_else(|e| panic!("{}: {e}", s.name));
                try_generate(&s.disjoint_variant(seed))
                    .unwrap_or_else(|e| panic!("{} (disjoint): {e}", s.name));
            }
        }
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
        assert_eq!(names.len(), 6);
        for n in names {
            assert!(find(n).is_some());
        }
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn envelope_check_reports_breaches() {
        let env = Envelope {
            min_commit_rate: 0.5,
            max_p95_virtual: 100,
            min_compensations: 2,
        };
        let mut m = Metrics::new();
        m.committed = 2;
        m.latencies = vec![50, 500];
        let breaches = env.check(&m, 10, true);
        assert_eq!(breaches.len(), 3, "{breaches:?}");
        // Wall-clock mode skips the latency ceiling.
        assert_eq!(env.check(&m, 10, false).len(), 2);
        // A passing run reports nothing.
        let mut ok = Metrics::new();
        ok.committed = 8;
        ok.compensations = 3;
        ok.latencies = vec![10, 20];
        assert!(env.check(&ok, 10, true).is_empty());
    }

    #[test]
    fn disjoint_variant_partitions_every_scenario() {
        use txproc_core::domains::DomainPartition;
        for s in registry() {
            let w = try_generate(&s.disjoint_variant(3)).unwrap();
            let part = DomainPartition::partition(&w.spec);
            assert_eq!(
                part.domain_count(),
                s.config.processes,
                "{}: disjoint variant must isolate every process",
                s.name
            );
        }
    }
}
