//! Correctness gauntlet over the named adversarial scenarios.
//!
//! Every scenario in the registry runs through both drivers — the
//! virtual-time engine and the conflict-domain sharded concurrent driver —
//! under the certified PRED policy, and every produced history must pass
//! the batch PRED checker with zero Proc-REC violations. The default run
//! covers a handful of seeds per scenario so `cargo test` stays fast; the
//! `#[ignore]`d full run sweeps 128 seeds per scenario and backs E22's
//! acceptance claim (`cargo test -p txproc-engine --test scenario_gauntlet
//! -- --ignored --nocapture`).
//!
//! Alongside the correctness bar, this file pins the determinism contract
//! (bit-identical histories per (scenario, seed); shard-mode-independent
//! outcomes on disjoint variants) and the concurrent driver's metrics
//! under open-system arrivals.

use std::collections::BTreeSet;
use txproc_core::ids::ProcessId;
use txproc_core::pred_incremental::check_pred_incremental;
use txproc_core::recoverability::proc_rec_violations;
use txproc_core::schedule::{Event, Schedule};
use txproc_engine::engine::{run, RunConfig};
use txproc_engine::policy::PolicyKind;
use txproc_engine::{run_concurrent, ConcurrentConfig, ShardMode};
use txproc_sim::scenario::{find, registry, Scenario};
use txproc_sim::workload::{generate, ArrivalModel, Workload};

fn certified_run_config(seed: u64) -> RunConfig {
    RunConfig {
        policy: PolicyKind::Pred,
        seed,
        ..RunConfig::default()
    }
}

fn certified_concurrent_config(seed: u64) -> ConcurrentConfig {
    ConcurrentConfig {
        policy: PolicyKind::Pred,
        seed,
        ..ConcurrentConfig::default()
    }
}

fn assert_certified(name: &str, seed: u64, mode: &str, w: &Workload, history: &Schedule) {
    let report = check_pred_incremental(&w.spec, history)
        .unwrap_or_else(|e| panic!("{name} seed {seed} [{mode}]: illegal history: {e:?}"));
    assert!(
        report.pred,
        "{name} seed {seed} [{mode}]: history not PRED (first violation at prefix {:?})",
        report.first_violation
    );
    let violations = proc_rec_violations(&w.spec, history).expect("legal history");
    assert!(
        violations.is_empty(),
        "{name} seed {seed} [{mode}]: Proc-REC violations {violations:?}"
    );
}

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

fn gauntlet(scenario: &Scenario, seeds: std::ops::Range<u64>, concurrent: bool) {
    for seed in seeds {
        let w = generate(&scenario.config_for_seed(seed));
        let r = run(&w, certified_run_config(seed));
        assert_certified(scenario.name, seed, "engine", &w, &r.history);
        assert_eq!(
            r.metrics.terminated() as usize,
            w.config.processes,
            "{} seed {seed}: engine left processes unterminated",
            scenario.name
        );
        if concurrent {
            let c = run_concurrent(&w, certified_concurrent_config(seed));
            assert_certified(scenario.name, seed, "concurrent", &w, &c.history);
            assert_eq!(
                c.metrics.terminated() as usize,
                w.config.processes,
                "{} seed {seed}: concurrent left processes unterminated",
                scenario.name
            );
        }
    }
}

/// Every scenario, both drivers, a handful of seeds: zero PRED / Proc-REC
/// violations. The fast always-on slice of the gauntlet.
#[test]
fn every_scenario_certified_on_both_drivers() {
    for scenario in registry() {
        gauntlet(&scenario, 0..4, true);
    }
}

/// The full 128-seed sweep behind E22's acceptance claim. Ignored by
/// default (minutes of wall time); CI's nightly/manual gauntlet job and
/// the bench harness run the same volume.
#[test]
#[ignore = "full 128-seed sweep; run with --ignored"]
fn every_scenario_certified_over_128_seeds() {
    for scenario in registry() {
        gauntlet(&scenario, 0..128, true);
    }
}

/// Determinism, part 1: generating and running a scenario twice at the
/// same seed yields bit-identical histories and metrics on the
/// virtual-time engine — generation and scheduling share no hidden state.
#[test]
fn engine_runs_are_bit_identical_per_scenario_seed() {
    for scenario in registry() {
        for seed in [0u64, 7, 19] {
            let (a, b) = (
                generate(&scenario.config_for_seed(seed)),
                generate(&scenario.config_for_seed(seed)),
            );
            let (ra, rb) = (
                run(&a, certified_run_config(seed)),
                run(&b, certified_run_config(seed)),
            );
            assert_eq!(
                ra.history, rb.history,
                "{} seed {seed}: histories diverged across generations",
                scenario.name
            );
            assert_eq!(ra.metrics.committed, rb.metrics.committed);
            assert_eq!(ra.metrics.aborted, rb.metrics.aborted);
            assert_eq!(ra.metrics.latencies, rb.metrics.latencies);
            assert_eq!(ra.metrics.makespan, rb.metrics.makespan);
        }
    }
}

/// Determinism, part 2: on the disjoint variant (one cluster per process,
/// so scheduling degenerates to the deterministic failure coins) the
/// sharded and single-lock concurrent drivers must produce bit-equal
/// commit/abort sets for every scenario shape — arrivals, storms and
/// tenant mixes included.
#[test]
fn shard_modes_agree_on_disjoint_scenario_variants() {
    for scenario in registry() {
        for seed in [2u64, 11] {
            let w = generate(&scenario.disjoint_variant(seed));
            let single = run_concurrent(
                &w,
                ConcurrentConfig {
                    shards: ShardMode::Single,
                    ..certified_concurrent_config(seed)
                },
            );
            let auto = run_concurrent(
                &w,
                ConcurrentConfig {
                    shards: ShardMode::Auto,
                    ..certified_concurrent_config(seed)
                },
            );
            assert_eq!(
                outcome_sets(&single.history),
                outcome_sets(&auto.history),
                "{} seed {seed}: shard modes disagree on disjoint variant",
                scenario.name
            );
        }
    }
}

/// Concurrent-driver metrics under open-system arrivals (satellite 3):
/// one latency sample per process, percentiles are ordered, and latencies
/// fit inside the makespan.
#[test]
fn concurrent_metrics_under_open_arrivals() {
    for name in ["flash-crowd", "noisy-neighbor"] {
        let scenario = find(name).unwrap();
        assert!(
            !matches!(scenario.config.arrivals, ArrivalModel::Closed),
            "{name} must use an open arrival model"
        );
        let w = generate(&scenario.config_for_seed(3));
        let c = run_concurrent(&w, certified_concurrent_config(3));
        let m = &c.metrics;
        assert_eq!(
            m.latencies.len(),
            w.config.processes,
            "{name}: one sample per process"
        );
        let (p50, p95) = (
            m.latency_percentile(0.5).unwrap(),
            m.latency_percentile(0.95).unwrap(),
        );
        assert!(p50 <= p95, "{name}: p50 {p50} > p95 {p95}");
        assert!(m.makespan > 0, "{name}: zero makespan");
        assert!(
            m.latencies.iter().all(|&l| l <= m.makespan),
            "{name}: latency sample beyond makespan"
        );
    }
}

/// The virtual-time engine under open arrivals: dispatches respect the
/// arrival schedule (makespan at least the last arrival), and every process
/// leaves one latency sample.
#[test]
fn engine_metrics_under_open_arrivals() {
    let scenario = find("noisy-neighbor").unwrap();
    let config = scenario.config_for_seed(5);
    let w = generate(&config);
    let last_arrival = *txproc_sim::workload::arrival_times(&config).last().unwrap();
    let r = run(&w, certified_run_config(5));
    let m = &r.metrics;
    assert!(
        m.makespan >= last_arrival,
        "makespan {} precedes the last arrival {last_arrival}",
        m.makespan
    );
    assert_eq!(m.latencies.len(), w.config.processes);
}
