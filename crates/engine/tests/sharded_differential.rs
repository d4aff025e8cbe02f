//! Differential stress tests for the conflict-domain sharded driver.
//!
//! Three oracles, each over hundreds of seeds:
//!
//! 1. Whatever interleaving the OS produces, the ticket-merged global
//!    history of a sharded run must pass the batch PRED checker and carry
//!    zero Proc-REC violations — the same bar the virtual-time engine is
//!    held to.
//! 2. On workloads whose processes are pairwise non-conflicting (one
//!    cluster per process), scheduling decisions degenerate to the
//!    deterministic failure coins, so the sharded and single-lock drivers
//!    must produce bit-equal commit/abort sets.
//! 3. One worker is deterministic, so its merged histories are pinned by
//!    digest: a change that claims "same decisions" has to reproduce them.

use std::collections::BTreeSet;
use txproc_core::domains::DomainPartition;
use txproc_core::ids::ProcessId;
use txproc_core::schedule::{Event, Schedule};
use txproc_engine::{run_concurrent, ConcurrentConfig, ShardMode};
use txproc_sim::workload::{generate, WorkloadConfig};

fn outcome_sets(history: &Schedule) -> (BTreeSet<ProcessId>, BTreeSet<ProcessId>) {
    let mut committed = BTreeSet::new();
    let mut aborted = BTreeSet::new();
    for e in history.events() {
        match e {
            Event::Commit(p) => {
                committed.insert(*p);
            }
            Event::Abort(p) => {
                aborted.insert(*p);
            }
            Event::GroupAbort(ps) => {
                aborted.extend(ps.iter().copied());
            }
            _ => {}
        }
    }
    (committed, aborted)
}

/// Oracle 1: sharded merged histories are PRED and Proc-REC clean across
/// varied shapes (cluster counts, conflict densities, failure rates).
#[test]
fn sharded_histories_certified_over_256_seeds() {
    for seed in 0..256u64 {
        let processes = 3 + (seed % 4) as usize; // 3..=6
        let clusters = 1 + (seed % 3) as usize; // 1..=3
        let w = generate(&WorkloadConfig {
            seed,
            processes,
            clusters,
            conflict_density: (seed % 5) as f64 / 5.0,
            failure_probability: if seed % 2 == 0 { 0.2 } else { 0.0 },
            ..WorkloadConfig::default()
        });
        let result = run_concurrent(
            &w,
            ConcurrentConfig {
                seed,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(
            result.metrics.terminated() as usize,
            processes,
            "seed {seed}: not all processes terminated"
        );
        let report = txproc_core::pred::check_pred(&w.spec, &result.history)
            .unwrap_or_else(|e| panic!("seed {seed}: merged history illegal: {e:?}"));
        assert!(
            report.pred,
            "seed {seed}: merged sharded history not PRED (first violation at prefix {:?}):\n{}",
            report.first_violation,
            txproc_core::schedule::render(&result.history)
        );
        let violations = txproc_core::recoverability::proc_rec_violations(&w.spec, &result.history)
            .expect("legal history");
        assert!(
            violations.is_empty(),
            "seed {seed}: Proc-REC violations {violations:?} in:\n{}",
            txproc_core::schedule::render(&result.history)
        );
    }
}

/// Oracle 2: on shard-disjoint workloads the sharded and single-lock
/// drivers commit and abort exactly the same processes.
#[test]
fn sharded_matches_single_lock_on_disjoint_workloads_over_256_seeds() {
    for seed in 0..256u64 {
        let processes = 3 + (seed % 4) as usize;
        let w = generate(&WorkloadConfig {
            seed,
            processes,
            clusters: processes, // one cluster per process: fully disjoint
            conflict_density: 0.0,
            failure_probability: 0.25,
            ..WorkloadConfig::default()
        });
        assert_eq!(
            DomainPartition::partition(&w.spec).domain_count(),
            processes,
            "seed {seed}: workload not fully disjoint"
        );
        let cfg = ConcurrentConfig {
            seed,
            ..ConcurrentConfig::default()
        };
        let sharded = run_concurrent(&w, cfg.clone());
        let single = run_concurrent(
            &w,
            ConcurrentConfig {
                shards: ShardMode::Single,
                ..cfg
            },
        );
        assert_eq!(
            outcome_sets(&sharded.history),
            outcome_sets(&single.history),
            "seed {seed}: sharded vs single-lock outcome sets diverge"
        );
        assert_eq!(
            sharded.metrics.committed, single.metrics.committed,
            "seed {seed}: committed counts diverge"
        );
        assert_eq!(
            sharded.metrics.aborted, single.metrics.aborted,
            "seed {seed}: aborted counts diverge"
        );
        assert!(
            txproc_core::pred::is_pred(&w.spec, &sharded.history).unwrap(),
            "seed {seed}: sharded history not PRED"
        );
    }
}

/// Oracle 3: one worker is deterministic — same seed, same merged history —
/// so the histories themselves are pinned. The digest (FNV-1a over the
/// `Debug` text of all 256 histories) was computed at the commit before the
/// protocol read conflict-matrix rows and before event workers finished
/// their own shards: same admissions, same ticket-order merge.
#[test]
fn single_worker_histories_pinned_over_256_seeds() {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut events = 0;
    for seed in 0..256u64 {
        let w = generate(&WorkloadConfig {
            seed,
            processes: 48,
            clusters: 16,
            services_per_kind: 4,
            subsystems: 2,
            conflict_density: 0.3,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        });
        let result = run_concurrent(
            &w,
            ConcurrentConfig {
                seed,
                workers: Some(1),
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(result.metrics.terminated(), 48, "seed {seed}");
        events += result.history.len();
        for b in format!("{:?}", result.history.events()).bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(
        (events, digest),
        (72_007, 0x9545_98fe_91dc_6907),
        "got ({events}, {digest:#018x})"
    );
}
