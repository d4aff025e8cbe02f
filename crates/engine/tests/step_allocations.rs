//! Heap allocations per history event of whole runs and of recoveries,
//! counted on the host-independent side: a wall-clock figure can hide
//! behind a slow machine, a count cannot.
//!
//! (a) Single-worker concurrent runs shaped like the benchmark's
//! `closed_contended` inputs (96 processes, conflict density 0.3, failures
//! 0.1, epoch 16; seeds 1–4), counted from `RunBuilder::new` to the run's
//! end. Before the subsystem's transactions recycled their buffers and the
//! process state machine allocated once, these runs made 10.36 allocations
//! per history event (23 921 over 2 309 events).
//!
//! (b) Recoveries of engine logs shaped like `durable_recovery`'s (32
//! processes, journalled under `FsyncPerEpoch` to a `MemWal`; seeds 1–8),
//! each log cut at eight lengths as the benchmark cuts it, counted over
//! `Recovery::from(RecoverySource::WalBytes(..)).run`. Before, 7.38
//! allocations per recovered-history event (`PARENT_RECOVERY`: 56 339 over
//! 7 631 events).
//!
//! The threshold of (a) was 50 % of its count. It is now 1.2 × 1.45
//! (`LONE_UNTOLD_RUN`), the count since the step answers a lone process's
//! policy calls itself and tells the protocol nothing of it (2.09 before,
//! when the protocol recorded every execution and retired it at the next
//! quiescent point; 2.85 before the step admitted a lone process's events
//! without calling the certifier, when the certifier answered them from its
//! own copy of the process's state machine; 3.20 before the scheduler moved
//! its per-process state into dense tables; 4.55 before the protocol
//! retired processes; 6.11 before a lone process's certification ran its
//! state machine only). That of (b) was 70 % of its count; it is now
//! 1.2 × 3.99 (`LONE_UNTOLD_RECOVERY`; 4.22 while the protocol recorded
//! every execution, 4.23 before the dense tables).

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counted;
use txproc_core::wal::{DurabilityPolicy, MemWal, WalWriter};
use txproc_engine::concurrent::ConcurrentConfig;
use txproc_engine::engine::RunConfig;
use txproc_engine::recovery::{Recovery, RecoverySource};
use txproc_engine::{PolicyKind, RunBuilder};
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

/// Allocations per history event of (a), measured with this test once the
/// step answered a lone process's policy calls itself.
const LONE_UNTOLD_RUN: f64 = 1.45;
/// Allocations per recovered-history event of (b), measured with this test
/// at the same change (7.38 before the subsystem and state-machine change).
const LONE_UNTOLD_RECOVERY: f64 = 3.99;
/// Log prefixes recovered per logged run, one in each eighth of the log.
const CUTS: usize = 8;

fn workload(seed: u64, processes: usize) -> Workload {
    generate(&WorkloadConfig {
        seed,
        processes,
        conflict_density: 0.3,
        failure_probability: 0.1,
        ..WorkloadConfig::default()
    })
}

#[test]
fn a_single_worker_run_allocates_at_most_half_of_before_per_event() {
    let (mut events, mut allocations) = (0u64, 0u64);
    for seed in 1..=4u64 {
        let w = workload(seed, 96);
        let (len, n) = counted(|| {
            RunBuilder::new(&w)
                .concurrent(ConcurrentConfig {
                    policy: PolicyKind::Pred,
                    seed,
                    epoch: 16,
                    workers: Some(1),
                    ..ConcurrentConfig::default()
                })
                .run()
                .history()
                .len()
        });
        events += len as u64;
        allocations += n;
    }
    let per_event = allocations as f64 / events as f64;
    println!("runs: {events} history events, {allocations} allocations, {per_event:.2} per event");
    assert!(events > 2_000, "{events} history events");
    assert!(
        per_event <= 1.2 * LONE_UNTOLD_RUN,
        "{per_event:.2} allocations per history event"
    );
}

#[test]
fn a_recovery_allocates_at_most_seventy_percent_of_before_per_event() {
    let seeds = 1..=8u64;
    let members = seeds.clone().count();
    let (mut events, mut allocations) = (0u64, 0u64);
    for (i, seed) in seeds.enumerate() {
        let w = workload(seed, 32);
        let mem = MemWal::new();
        let writer = WalWriter::new(Box::new(mem.clone()), DurabilityPolicy::FsyncPerEpoch, seed);
        RunBuilder::new(&w)
            .config(RunConfig {
                policy: PolicyKind::Pred,
                seed,
                epoch: 16,
                ..RunConfig::default()
            })
            .durability(writer, 0)
            .run();
        let log = mem.contents();
        // The benchmark's cuts: one in each eighth of the log, staggered
        // over the runs, the last run's last cut the whole log.
        for j in 0..CUTS {
            let at = log.len() * (j * members + i + 1) / (members * CUTS);
            let prefix = log[..at].to_vec();
            let (report, n) = counted(|| {
                Recovery::from(RecoverySource::WalBytes(prefix))
                    .run(&w)
                    .expect("a clean prefix of a finished run's log recovers")
            });
            events += report.history.len() as u64;
            allocations += n;
        }
    }
    let per_event = allocations as f64 / events as f64;
    println!(
        "recoveries: {events} recovered-history events, {allocations} allocations, \
         {per_event:.2} per event"
    );
    assert!(events > 5_000, "{events} recovered-history events");
    assert!(
        per_event <= 1.2 * LONE_UNTOLD_RECOVERY,
        "{per_event:.2} allocations per recovered-history event"
    );
}
