//! Heap allocations per certification, counted on the host-independent
//! side: a wall-clock figure can hide behind a slow machine, a count cannot.
//!
//! A single-worker concurrent run of 96 processes at conflict density 0.3
//! (the shape of the benchmark's `closed_contended` inputs) is journalled,
//! and its certifier calls are replayed per shard in the order the run made
//! them: before each recorded certification the shard's certifier absorbs
//! the history events emitted since (`record`), then plans the candidate
//! (`certify_keep`). Only `certify_keep` is counted. Once a certifier is
//! warm, a step refills the working copies the last event left behind, so
//! what it still allocates is amortized growth of its tables. Every domain
//! history of these runs is serial, so every certification is a lone
//! process's, answered by its state machine alone: 0.54 allocations per
//! call, against 2.05 when each ran the full derivation.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

#[path = "support/certify_replay.rs"]
mod certify_replay;

use certify_replay::{per_shard, replay};
use counting_alloc::counted;
use txproc_core::domains::DomainPartition;
use txproc_core::pred_incremental::IncrementalPred;
use txproc_core::trace::Journal;
use txproc_engine::concurrent::ConcurrentConfig;
use txproc_engine::{PolicyKind, RunBuilder};
use txproc_sim::workload::{generate, WorkloadConfig};

/// The bound on allocations per `certify_keep`: 1.1 × the 0.54 measured.
const ALLOCATIONS_PER_CALL: f64 = 0.6;

#[test]
fn a_warm_certifier_allocates_less_than_once_per_certification() {
    let (mut calls, mut allocations) = (0u64, 0u64);
    for seed in 1..=4u64 {
        let w = generate(&WorkloadConfig {
            seed,
            processes: 96,
            conflict_density: 0.3,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        });
        let journal = Journal::new();
        let out = RunBuilder::new(&w)
            .concurrent(ConcurrentConfig {
                policy: PolicyKind::Pred,
                seed,
                workers: Some(1),
                ..ConcurrentConfig::default()
            })
            .sink(Box::new(journal.clone()))
            .run();
        let partition = DomainPartition::partition(&w.spec);
        let locals = per_shard(&partition, out.history());
        let mut certifiers: Vec<_> = locals
            .iter()
            .map(|_| IncrementalPred::new(&w.spec))
            .collect();
        replay(
            &mut certifiers,
            &locals,
            &journal.take(),
            |inc, event, ok| {
                let (verdict, n) = counted(|| inc.certify_keep(event));
                assert_eq!(
                    verdict.expect("the run certified it").reducible,
                    ok,
                    "seed {seed}"
                );
                calls += 1;
                allocations += n;
            },
        );
    }
    let per_call = allocations as f64 / calls as f64;
    println!("certify_keep: {calls} calls, {allocations} allocations, {per_call:.2} per call");
    assert!(calls > 1_000, "{calls} certifications replayed");
    assert!(
        per_call <= ALLOCATIONS_PER_CALL,
        "{per_call:.2} allocations per certify_keep"
    );
}
