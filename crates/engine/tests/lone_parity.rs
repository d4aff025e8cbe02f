//! Lone segments against the derivation they skip (DESIGN.md, certifier
//! invariant 7). The shipped certifier answers the events of a process
//! that runs alone after a quiescent point from its state machine, and
//! feeds its derivation only the events since the last quiescent point
//! once a second process appears. These oracles hold that to the
//! always-engaged derivation and to the batch reference.

#[path = "support/certify_replay.rs"]
mod certify_replay;

use certify_replay::{per_shard, replay};
use txproc_core::domains::DomainPartition;
use txproc_core::pred::check_pred;
use txproc_core::pred_incremental::{check_pred_incremental, IncrementalPred};
use txproc_core::schedule::Schedule;
use txproc_core::trace::Journal;
use txproc_engine::concurrent::ConcurrentConfig;
use txproc_engine::engine::RunConfig;
use txproc_engine::{PolicyKind, RunBuilder};
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

/// Replays every certification of one journalled run per shard on the
/// always-engaged reference (`workers`: `None` for the engine) and demands
/// the verdict the run acted on; returns (checked, refused).
fn check_run(w: &Workload, seed: u64, workers: Option<usize>) -> (u64, u64) {
    let journal = Journal::new();
    let run = RunBuilder::new(w).sink(Box::new(journal.clone()));
    let locals = match workers {
        None => {
            let cfg = RunConfig {
                seed,
                ..RunConfig::default()
            };
            vec![run.config(cfg).run().history().clone()]
        }
        Some(n) => {
            let cfg = ConcurrentConfig {
                seed,
                workers: Some(n),
                ..ConcurrentConfig::default()
            };
            let out = run.concurrent(cfg).run();
            per_shard(&DomainPartition::partition(&w.spec), out.history())
        }
    };
    let mut references: Vec<_> = (locals.iter())
        .map(|_| IncrementalPred::always_engaged(&w.spec))
        .collect();
    let (mut checked, mut refused) = (0, 0);
    replay(
        &mut references,
        &locals,
        &journal.take(),
        |inc, event, ok| {
            let verdict = inc.certify_keep(event).expect("the run certified it");
            assert_eq!(
                verdict.reducible, ok,
                "seed {seed}, workers {workers:?}: {event:?}"
            );
            checked += 1;
            refused += u64::from(!ok);
        },
    );
    (checked, refused)
}

/// Every certification of engine, 1-worker and 2-worker runs over 4, 6, 12
/// and 24 processes × density 0.3, 0.5 and 0.7 × seeds 0–63 × failure
/// probability 0 and 0.1 is the always-engaged reference's verdict.
#[test]
fn every_journalled_verdict_equals_the_engaged_reference() {
    let (mut checked, mut refused) = (0u64, 0u64);
    let grid = [4, 6, 12, 24].into_iter().flat_map(|processes| {
        [0.3, 0.5, 0.7]
            .into_iter()
            .flat_map(move |conflict_density| {
                [0.0, 0.1].into_iter().flat_map(move |failure_probability| {
                    (0..64u64).map(move |seed| WorkloadConfig {
                        seed,
                        processes,
                        conflict_density,
                        failure_probability,
                        ..WorkloadConfig::default()
                    })
                })
            })
    });
    for cfg in grid {
        let w = generate(&cfg);
        for workers in [None, Some(1), Some(2)] {
            let (c, r) = check_run(&w, cfg.seed, workers);
            checked += c;
            refused += r;
        }
    }
    println!("{checked} certifications equal the engaged reference's, {refused} refused");
    assert!(
        checked > 100_000 && refused > 0,
        "{checked} checked, {refused} refused"
    );
}

/// `check_pred_incremental` equals batch `check_pred`, prefix for prefix,
/// on the uncertified `PredProtocol` engine's histories: 4, 6 and 8
/// processes × density 0.5 and 0.7 × arrival gap 0, 10, 30 and 60 × seeds
/// 0–63. Staggered arrivals leave quiescent points, so these histories
/// hold lone segments, engagements after them, and non-reducible prefixes.
#[test]
fn incremental_equals_batch_on_protocol_histories_with_quiescent_points() {
    let (mut histories, mut not_pred) = (0, 0);
    for processes in [4, 6, 8] {
        for conflict_density in [0.5, 0.7] {
            for arrival_gap in [0, 10, 30, 60] {
                for seed in 0..64u64 {
                    let w = generate(&WorkloadConfig {
                        seed,
                        processes,
                        conflict_density,
                        ..WorkloadConfig::default()
                    });
                    let out = RunBuilder::new(&w)
                        .config(RunConfig {
                            policy: PolicyKind::PredProtocol,
                            seed,
                            arrival_gap,
                            ..RunConfig::default()
                        })
                        .run();
                    let history: &Schedule = out.history();
                    let batch = check_pred(&w.spec, history).expect("a legal history");
                    let incremental = check_pred_incremental(&w.spec, history).expect("legal");
                    assert_eq!(
                        incremental, batch,
                        "{processes} processes, density {conflict_density}, gap \
                         {arrival_gap}, seed {seed}"
                    );
                    histories += 1;
                    not_pred += usize::from(!batch.pred);
                }
            }
        }
    }
    println!("{histories} protocol histories, {not_pred} not PRED, all equal to batch");
    assert!(not_pred > 0, "no non-reducible prefix in the sweep");
}
