//! Property-based tests over the whole stack: random legal histories,
//! random workloads through the engine, and cross-validation of the two RED
//! deciders.

mod common;

use proptest::prelude::*;
use txproc::core::fixtures::paper_world;
use txproc::core::pred::{check_pred, is_pred};
use txproc::core::pred_incremental::{check_pred_incremental, IncrementalPred};
use txproc::core::recoverability::theorem1_holds;
use txproc::core::reduction::{reduce, reduce_exhaustive, ExhaustiveOutcome};
use txproc::core::serializability::is_serializable_committed;
use txproc::engine::engine::{run, RunConfig, RunResult};
use txproc::engine::policy::PolicyKind;
use txproc::sim::workload::{generate, Workload, WorkloadConfig};

// The bodies of the properties that the two inputs proptest once recorded as
// failures fit (`regression_*` below replays them), as plain functions of
// the drawn values.

fn history_satisfies_theorem1(seed: u64) -> TestCaseResult {
    let fx = paper_world();
    let s = common::random_history(&fx, seed, 40);
    prop_assert!(s.replay(&fx.spec).is_ok());
    prop_assert!(theorem1_holds(&fx.spec, &s).unwrap());
    Ok(())
}

fn red_deciders_agree_on(seed: u64) -> TestCaseResult {
    let fx = paper_world();
    let s = common::random_history(&fx, seed, 14);
    let completed = txproc::core::completion::complete(&fx.spec, &s).unwrap();
    if completed.ops.len() > 12 {
        // Keep the exhaustive search tractable.
        return Ok(());
    }
    let fast = reduce(&fx.spec, &completed).reducible;
    match reduce_exhaustive(&fx.spec, &completed, 400_000) {
        ExhaustiveOutcome::Reducible(_) => {
            prop_assert!(fast, "rewriter found a serial form, graph decider said no")
        }
        ExhaustiveOutcome::NotReducible => prop_assert!(
            !fast,
            "graph decider said reducible, exhaustive search disagrees"
        ),
        ExhaustiveOutcome::Inconclusive => {}
    }
    Ok(())
}

fn pred_history_is_committed_serializable(seed: u64) -> TestCaseResult {
    let fx = paper_world();
    let s = common::random_history(&fx, seed, 40);
    if is_pred(&fx.spec, &s).unwrap() {
        prop_assert!(is_serializable_committed(&fx.spec, &s).unwrap());
    }
    Ok(())
}

/// The certified engine's run of a random 5-process workload.
fn engine_run(seed: u64, density: f64, failures: f64) -> (Workload, RunResult) {
    let w = generate(&WorkloadConfig {
        seed,
        processes: 5,
        conflict_density: density,
        failure_probability: failures,
        ..WorkloadConfig::default()
    });
    let cfg = RunConfig {
        seed,
        ..RunConfig::default()
    };
    let r = run(&w, cfg);
    (w, r)
}

fn engine_history_is_pred(seed: u64, density: f64, failures: f64) -> TestCaseResult {
    let (w, r) = engine_run(seed, density, failures);
    prop_assert!(r.stalled.is_empty(), "stalled: {:?}", r.stalled);
    prop_assert_eq!(r.metrics.terminated(), 5);
    prop_assert!(
        is_pred(&w.spec, &r.history).unwrap(),
        "non-PRED history: {}",
        txproc::core::schedule::render(&r.history)
    );
    Ok(())
}

fn incremental_agrees_with_batch_on_engine_history(
    seed: u64,
    density: f64,
    failures: f64,
) -> TestCaseResult {
    let (w, r) = engine_run(seed, density, failures);
    let batch = check_pred(&w.spec, &r.history).unwrap();
    let incremental = check_pred_incremental(&w.spec, &r.history).unwrap();
    prop_assert_eq!(batch, incremental);
    Ok(())
}

fn incremental_agrees_with_exhaustive_on(seed: u64) -> TestCaseResult {
    let fx = paper_world();
    let s = common::random_history(&fx, seed, 10);
    let report = check_pred_incremental(&fx.spec, &s).unwrap();
    for cut in 0..=s.len() {
        let prefix = s.prefix(cut);
        let completed = txproc::core::completion::complete(&fx.spec, &prefix).unwrap();
        if completed.ops.len() > 12 {
            return Ok(());
        }
        match reduce_exhaustive(&fx.spec, &completed, 400_000) {
            ExhaustiveOutcome::Reducible(_) => prop_assert!(
                report.prefix_reducible[cut],
                "prefix {cut}: rewriter reduces, incremental certifier says no"
            ),
            ExhaustiveOutcome::NotReducible => prop_assert!(
                !report.prefix_reducible[cut],
                "prefix {cut}: incremental certifier says reducible, exhaustive search disagrees"
            ),
            ExhaustiveOutcome::Inconclusive => {}
        }
    }
    Ok(())
}

/// Recorded in the retired `properties.proptest-regressions` as `seed = 2085`
/// (the file kept the input, not which property it failed): every property
/// over one seeded paper-world history holds on it.
#[test]
fn regression_history_seed_2085() {
    history_satisfies_theorem1(2085).unwrap();
    red_deciders_agree_on(2085).unwrap();
    pred_history_is_committed_serializable(2085).unwrap();
    incremental_agrees_with_exhaustive_on(2085).unwrap();
}

/// Recorded as `seed = 351, density = 0.6400851459024242, failures = 0.0`:
/// both properties over an engine run of those three values hold on it.
#[test]
fn regression_engine_seed_351_density_0_64_no_failures() {
    let (seed, density, failures) = (351, 0.6400851459024242, 0.0);
    engine_history_is_pred(seed, density, failures).unwrap();
    incremental_agrees_with_batch_on_engine_history(seed, density, failures).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every random legal history replays cleanly and satisfies Theorem 1.
    #[test]
    fn random_histories_satisfy_theorem1(seed in 0u64..5000) {
        history_satisfies_theorem1(seed)?;
    }

    /// PRED is prefix-closed by construction: every prefix of a PRED history
    /// is PRED.
    #[test]
    fn pred_is_prefix_closed(seed in 0u64..5000, cut in 0usize..30) {
        let fx = paper_world();
        let s = common::random_history(&fx, seed, 40);
        if is_pred(&fx.spec, &s).unwrap() {
            let prefix = s.prefix(cut.min(s.len()));
            prop_assert!(is_pred(&fx.spec, &prefix).unwrap());
        }
    }

    /// The graph-based RED decider agrees with the literal rule-rewriting
    /// search on random completed schedules.
    #[test]
    fn red_deciders_agree(seed in 0u64..5000) {
        red_deciders_agree_on(seed)?;
    }

    /// PRED histories have serializable committed projections.
    #[test]
    fn pred_implies_committed_serializability(seed in 0u64..5000) {
        pred_history_is_committed_serializable(seed)?;
    }

    /// The certified engine always emits PRED histories and terminates every
    /// process, across random workloads.
    #[test]
    fn engine_emits_pred_histories(seed in 0u64..400, density in 0.0f64..0.8, failures in 0.0f64..0.4) {
        engine_history_is_pred(seed, density, failures)?;
    }

    /// Serial execution is always PRED regardless of workload.
    #[test]
    fn serial_engine_is_always_pred(seed in 0u64..400) {
        let w = generate(&WorkloadConfig {
            seed,
            processes: 4,
            conflict_density: 0.6,
            failure_probability: 0.3,
            ..WorkloadConfig::default()
        });
        let r = run(
            &w,
            RunConfig {
                policy: PolicyKind::Serial,
                seed,
                ..RunConfig::default()
            },
        );
        prop_assert!(is_pred(&w.spec, &r.history).unwrap());
    }

    /// Engine histories always replay as legal schedules (Definition 7.1).
    #[test]
    fn engine_histories_replay(seed in 0u64..400, kind_idx in 0usize..6) {
        let kind = PolicyKind::all()[kind_idx];
        let w = generate(&WorkloadConfig {
            seed,
            processes: 4,
            conflict_density: 0.4,
            failure_probability: 0.2,
            ..WorkloadConfig::default()
        });
        let r = run(&w, RunConfig { policy: kind, seed, ..RunConfig::default() });
        prop_assert!(r.history.replay(&w.spec).is_ok());
    }

    /// Differential oracle over engine-emitted histories: the incremental
    /// certifier's full report equals the batch reference on every random
    /// workload the certified engine produces.
    #[test]
    fn incremental_agrees_with_batch_on_engine_histories(
        seed in 0u64..400,
        density in 0.0f64..0.8,
        failures in 0.0f64..0.4,
    ) {
        incremental_agrees_with_batch_on_engine_history(seed, density, failures)?;
    }

    /// On small random histories the incremental certifier also agrees with
    /// the literal rule-rewriting search (`reduce_exhaustive`) prefix by
    /// prefix — a second, independently derived oracle.
    #[test]
    fn incremental_agrees_with_exhaustive_on_small_histories(seed in 0u64..5000) {
        incremental_agrees_with_exhaustive_on(seed)?;
    }

    /// The PRED report's prefix vector is consistent with its verdicts.
    #[test]
    fn pred_report_is_consistent(seed in 0u64..2000) {
        let fx = paper_world();
        let s = common::random_history(&fx, seed, 25);
        let report = check_pred(&fx.spec, &s).unwrap();
        prop_assert_eq!(report.prefix_reducible.len(), s.len() + 1);
        prop_assert_eq!(report.pred, report.prefix_reducible.iter().all(|&r| r));
        match report.first_violation {
            Some(k) => {
                prop_assert!(!report.prefix_reducible[k]);
                prop_assert!(report.prefix_reducible[..k].iter().all(|&r| r));
            }
            None => prop_assert!(report.pred),
        }
    }
}

/// The central differential oracle of the incremental certifier: across 256
/// random legal histories, drive [`IncrementalPred`] event by event and
/// demand that (a) every pure `certify` verdict, (b) every applied `record`
/// verdict, and (c) the final report agree exactly with the batch
/// `check_pred` reference. Deterministic (fixed seeds), so a failure is a
/// one-line repro.
#[test]
fn incremental_certifier_agrees_with_batch_event_by_event() {
    let fx = paper_world();
    for seed in 0..256u64 {
        let s = common::random_history(&fx, seed, 24);
        let batch = check_pred(&fx.spec, &s).unwrap();
        let mut inc = IncrementalPred::new(&fx.spec);
        for (i, event) in s.events().iter().enumerate() {
            let previewed = inc
                .certify(event)
                .unwrap_or_else(|e| panic!("seed {seed} event {i}: certify failed: {e}"));
            assert_eq!(
                previewed.reducible,
                batch.prefix_reducible[i + 1],
                "seed {seed} event {i}: certify disagrees with batch on prefix {}",
                i + 1
            );
            let applied = inc
                .record(event)
                .unwrap_or_else(|e| panic!("seed {seed} event {i}: record failed: {e}"));
            assert_eq!(
                previewed, applied,
                "seed {seed} event {i}: certify and record verdicts diverge"
            );
        }
        assert_eq!(
            inc.report(),
            batch,
            "seed {seed}: final incremental report diverges from batch:\n{}",
            txproc::core::schedule::render(&s)
        );
    }
}
