//! Heap allocations per certification, counted on the host-independent
//! side: a wall-clock figure can hide behind a slow machine, a count cannot.
//!
//! Engine runs shaped like the benchmark's `durable_recovery` inputs (32
//! processes, conflict density 0.3, failures 0.1, journalled under
//! `FsyncPerEpoch` with a seal every 16 events; seeds 1–4, the inputs of
//! `certify_flips.rs`) are journalled, and their certifier calls are
//! replayed in the order the engine made them: before each recorded
//! certification the certifier absorbs the history events emitted since
//! (`record`), then plans the candidate (`certify_keep`). Only
//! `certify_keep` is counted. Once a certifier is warm, a step refills the
//! working copies the last event left behind, so what it still allocates is
//! amortized growth of its tables. The engine interleaves the processes of
//! its one domain, so nearly every one of these certifications runs the
//! full derivation; the concurrent workloads' serial domain histories do
//! not reach the certifier at all (`certify_lone.rs`).

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counted;
use txproc_core::pred_incremental::IncrementalPred;
use txproc_core::trace::{Journal, TraceEvent};
use txproc_core::wal::{DurabilityPolicy, MemWal, WalWriter};
use txproc_engine::engine::RunConfig;
use txproc_engine::{PolicyKind, RunBuilder};
use txproc_sim::workload::{generate, WorkloadConfig};

/// Allocations per `certify_keep` over these runs, measured with this test
/// when every certification ran the full derivation from the first event.
const FULL_DERIVATION: f64 = 3.68;

#[test]
fn a_warm_certifier_allocates_at_most_a_tenth_more_than_measured() {
    let (mut calls, mut allocations) = (0u64, 0u64);
    for seed in 1..=4u64 {
        let w = generate(&WorkloadConfig {
            seed,
            processes: 32,
            conflict_density: 0.3,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        });
        let journal = Journal::new();
        let writer = WalWriter::new(
            Box::new(MemWal::new()),
            DurabilityPolicy::FsyncPerEpoch,
            seed,
        );
        let out = RunBuilder::new(&w)
            .config(RunConfig {
                policy: PolicyKind::Pred,
                seed,
                epoch: 16,
                ..RunConfig::default()
            })
            .sink(Box::new(journal.clone()))
            .durability(writer, 0)
            .run();
        let history = out.history().events();
        let mut inc = IncrementalPred::new(&w.spec);
        for rec in journal.take() {
            let TraceEvent::CertifyOutcome { event, ok, .. } = &rec.event else {
                continue;
            };
            while inc.len() < rec.history_len {
                inc.record(&history[inc.len()])
                    .expect("a recorded event is legal");
            }
            let (verdict, n) = counted(|| inc.certify_keep(event));
            let verdict = verdict.expect("the run certified it");
            assert_eq!(verdict.reducible, *ok, "seed {seed}");
            calls += 1;
            allocations += n;
        }
    }
    let per_call = allocations as f64 / calls as f64;
    println!("certify_keep: {calls} calls, {allocations} allocations, {per_call:.2} per call");
    assert!(calls > 500, "{calls} certifications replayed");
    assert!(
        per_call <= 1.1 * FULL_DERIVATION,
        "{per_call:.2} allocations per certify_keep"
    );
}
