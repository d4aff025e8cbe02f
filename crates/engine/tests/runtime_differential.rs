//! Differential stress tests of the event-driven runtime against itself
//! and against the virtual-time engine: the single-worker run is the
//! deterministic oracle.
//!
//! Three oracles:
//!
//! 1. On workloads whose processes are pairwise non-conflicting,
//!    scheduling decisions degenerate to the deterministic failure coins,
//!    so a multi-worker run, the single-worker run and the virtual-time
//!    engine — three clocks around one `Shard::step` — must produce
//!    bit-equal commit/abort sets over 256 seeds.
//! 2. With a single worker and closed arrivals the runtime has no
//!    scheduling nondeterminism left: repeated runs must produce
//!    bit-identical merged histories.
//! 3. Termination stress: abort-heavy workloads (failure probability 0.3,
//!    dense conflicts) must terminate at one and at two workers; a
//!    watchdog converts a hang into a test failure. What this can catch is
//!    the worker loop's own accounting (live counts, arrivals, shard
//!    hand-back). It cannot catch a lost re-queue: a worker owns its shard
//!    and runs each dequeued process until it blocks, so on closed
//!    workloads a process always finds its shard empty of live peers and
//!    never blocks — checked by mutation when the thread-per-process
//!    runtime was retired (neither dropping `finalize`'s generation bump
//!    nor dropping waiters on the floor changes any run of this file).

use std::collections::BTreeSet;
use txproc_core::domains::DomainPartition;
use txproc_core::ids::ProcessId;
use txproc_core::schedule::{Event, Schedule};
use txproc_engine::{run, run_concurrent, ConcurrentConfig, RunConfig};
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

/// Oracle 1: a multi-worker run and the virtual-time engine commit and abort
/// exactly the processes the single-worker run does on disjoint workloads,
/// over 256 seeds.
#[test]
fn multi_worker_matches_single_worker_on_disjoint_workloads_over_256_seeds() {
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
            workers: Some(1),
            ..ConcurrentConfig::default()
        };
        let single = run_concurrent(&w, cfg.clone());
        let multi = run_concurrent(
            &w,
            ConcurrentConfig {
                workers: Some(processes),
                ..cfg
            },
        );
        assert_eq!(
            outcome_sets(&multi.history),
            outcome_sets(&single.history),
            "seed {seed}: multi- vs single-worker outcome sets diverge"
        );
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let engine = run(&w, cfg);
        assert_eq!(
            outcome_sets(&engine.history),
            outcome_sets(&single.history),
            "seed {seed}: engine vs single-worker outcome sets diverge"
        );
        assert_eq!(
            multi.metrics.committed, single.metrics.committed,
            "seed {seed}: committed counts diverge"
        );
        assert_eq!(
            multi.metrics.aborted, single.metrics.aborted,
            "seed {seed}: aborted counts diverge"
        );
        assert!(
            txproc_core::pred::is_pred(&w.spec, &multi.history).unwrap(),
            "seed {seed}: multi-worker history not PRED"
        );
    }
}

/// Oracle 2: one worker + closed arrivals ⇒ the runtime is fully
/// deterministic — bit-identical histories across repeated runs, including
/// on conflict-heavy multi-domain workloads.
#[test]
fn single_worker_events_runtime_is_deterministic() {
    for seed in [0u64, 7, 21, 42] {
        let w = generate(&WorkloadConfig {
            seed,
            processes: 10,
            clusters: 3,
            conflict_density: 0.5,
            failure_probability: 0.2,
            ..WorkloadConfig::default()
        });
        let cfg = ConcurrentConfig {
            seed,
            workers: Some(1),
            ..ConcurrentConfig::default()
        };
        let first = run_concurrent(&w, cfg.clone());
        assert_eq!(first.metrics.terminated(), 10, "seed {seed}");
        for rep in 0..3 {
            let again = run_concurrent(&w, cfg.clone());
            assert_eq!(
                first.history.events(),
                again.history.events(),
                "seed {seed} rep {rep}: single-worker histories diverge"
            );
            assert_eq!(
                first.metrics.committed, again.metrics.committed,
                "seed {seed} rep {rep}"
            );
        }
    }
}

/// Oracle 3: abort-heavy workloads terminate at one and at two workers.
/// Runs under a watchdog, which reports a hang instead of hanging.
#[test]
fn events_runtime_terminates_under_abort_stress() {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        for seed in 0..24u64 {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 8,
                clusters: 2,
                conflict_density: 0.7,
                failure_probability: 0.3,
                ..WorkloadConfig::default()
            });
            for workers in [1, 2] {
                let result = run_concurrent(
                    &w,
                    ConcurrentConfig {
                        seed,
                        workers: Some(workers),
                        ..ConcurrentConfig::default()
                    },
                );
                assert_eq!(
                    result.metrics.terminated(),
                    8,
                    "seed {seed} workers {workers}"
                );
            }
        }
        tx.send(()).ok();
    });
    match rx.recv_timeout(std::time::Duration::from_secs(120)) {
        Ok(()) => handle.join().expect("stress runs clean"),
        Err(_) => panic!("events runtime hung on an abort-heavy workload"),
    }
}
