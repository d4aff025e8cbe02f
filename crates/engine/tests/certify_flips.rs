//! Cancelled-set flips per certification, counted on the host-independent
//! side, over engine runs shaped like the benchmark's `durable_recovery`
//! inputs (32 processes, conflict density 0.3, failures 0.1, journalled under
//! `FsyncPerEpoch` with a seal every 16 events).
//!
//! Each run's certifier calls are replayed in the order the engine made
//! them: before each recorded certification the certifier absorbs the
//! history events emitted since (`record`), then plans the candidate
//! (`certify_keep`). A flip is one original operation entering or leaving a
//! cancelled set, forward or rolled back. A certifier that derives the
//! completion overlay's cancellations per verdict and undoes them afterwards
//! flipped 28 950 originals over the 602 calls of seeds 1–4 (48.1 per
//! `certify_keep`, and Kahn ran on 65 % of them); one that keeps them as
//! state moves only what each event changes.

use txproc_core::pred_incremental::IncrementalPred;
use txproc_core::trace::{Journal, TraceEvent};
use txproc_core::wal::{DurabilityPolicy, MemWal, WalWriter};
use txproc_engine::engine::RunConfig;
use txproc_engine::{PolicyKind, RunBuilder};
use txproc_sim::workload::{generate, WorkloadConfig};

/// Flips per `certify_keep` of the per-verdict fixpoint, over these runs.
const RESTORING_FIXPOINT_FLIPS_PER_CALL: f64 = 48.1;

#[test]
fn cancelled_set_flips_are_at_most_a_third_of_the_restoring_fixpoint() {
    let (mut calls, mut flips, mut kahn) = (0u64, 0u64, 0u64);
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
            let verdict = inc.certify_keep(event).expect("the run certified it");
            assert_eq!(verdict.reducible, *ok, "seed {seed}");
            calls += 1;
        }
        flips += inc.cancel_flips();
        kahn += inc.kahn_fallbacks();
    }
    let per_call = flips as f64 / calls as f64;
    let kahn_share = kahn as f64 / calls as f64;
    println!(
        "certify_keep: {calls} calls, {flips} cancelled-set flips, {per_call:.2} per call; \
         fallback Kahn on {kahn} ({:.1} %)",
        100.0 * kahn_share
    );
    assert!(calls > 500, "{calls} certifications replayed");
    assert!(
        per_call <= RESTORING_FIXPOINT_FLIPS_PER_CALL / 3.0,
        "{per_call:.2} flips per certify_keep"
    );
}
