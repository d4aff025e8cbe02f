//! Engine-level integration tests spanning crates: scheduler invariants,
//! crash recovery sweeps, the thread-per-process driver, and the CIM
//! scenario's specific guarantees.

use txproc::core::pred::is_pred;
use txproc::core::reduction::is_reducible;
use txproc::core::schedule::Event;
use txproc::engine::concurrent::{run_concurrent, ConcurrentConfig};
use txproc::engine::engine::{run, Engine, RunConfig};
use txproc::engine::policy::PolicyKind;
use txproc::engine::recovery::recover;
use txproc::sim::workload::{generate, WorkloadConfig};

fn workload(
    seed: u64,
    processes: usize,
    density: f64,
    failures: f64,
) -> txproc::sim::workload::Workload {
    generate(&WorkloadConfig {
        seed,
        processes,
        conflict_density: density,
        failure_probability: failures,
        ..WorkloadConfig::default()
    })
}

#[test]
fn certified_scheduler_is_pred_across_seeds() {
    for seed in 0..12 {
        let w = workload(seed, 6, 0.4, 0.2);
        let r = run(
            &w,
            RunConfig {
                seed,
                ..RunConfig::default()
            },
        );
        assert!(r.stalled.is_empty(), "seed {seed} stalled");
        assert!(
            is_pred(&w.spec, &r.history).unwrap(),
            "seed {seed} violated PRED"
        );
        assert_eq!(r.metrics.terminated(), 6, "seed {seed} lost processes");
    }
}

#[test]
fn crash_recovery_sweep_is_always_reducible() {
    let w = workload(21, 8, 0.3, 0.15);
    // First find how long a full run's history is.
    let full = run(&w, RunConfig::default());
    let len = full.history.len();
    for crash_at in (0..=len).step_by(3) {
        let mut engine = Engine::new(&w, RunConfig::default());
        engine.run_until_history(crash_at);
        let report = recover(&w, engine.crash()).expect("recovery succeeds");
        assert!(
            is_reducible(&w.spec, &report.history).unwrap(),
            "crash at {crash_at}: not reducible"
        );
        let replay = report.history.replay(&w.spec).unwrap();
        assert!(replay.active_processes().is_empty(), "crash at {crash_at}");
    }
}

#[test]
fn concurrent_driver_matches_invariants() {
    for seed in 0..3 {
        let w = workload(seed + 100, 5, 0.3, 0.15);
        let result = run_concurrent(
            &w,
            ConcurrentConfig {
                seed,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(result.metrics.terminated(), 5, "seed {seed}");
        assert!(
            is_pred(&w.spec, &result.history).unwrap(),
            "seed {seed}: concurrent history not PRED"
        );
    }
}

#[test]
fn unsafe_scheduler_violates_but_serial_never_does() {
    let mut unsafe_violations = 0;
    for seed in 0..12 {
        let w = workload(seed, 6, 0.6, 0.3);
        let unsafe_run = run(
            &w,
            RunConfig {
                policy: PolicyKind::UnsafeCc,
                seed,
                ..RunConfig::default()
            },
        );
        if !is_pred(&w.spec, &unsafe_run.history).unwrap_or(false) {
            unsafe_violations += 1;
        }
        let serial_run = run(
            &w,
            RunConfig {
                policy: PolicyKind::Serial,
                seed,
                ..RunConfig::default()
            },
        );
        assert!(
            is_pred(&w.spec, &serial_run.history).unwrap(),
            "seed {seed}: serial violated PRED"
        );
    }
    assert!(
        unsafe_violations > 0,
        "unsafe scheduler never violated — suspicious"
    );
}

#[test]
fn cim_production_never_starts_before_construction_outcome() {
    // §2.2: production (no inverse) must not run before the construction
    // test terminated. Under the PRED scheduler, in every run where the
    // test failed, the production pivot must not have committed earlier
    // than the failure.
    let (fx, w) = txproc::bench::scenarios::cim_workload(0.2);
    let mut exercised = 0;
    for seed in 0..80 {
        // Stagger arrivals so production reads the BOM the construction
        // process wrote (the paper's Figure 1 timeline).
        let r = run(
            &w,
            RunConfig {
                seed,
                arrival_gap: 70,
                ..RunConfig::default()
            },
        );
        assert!(is_pred(&w.spec, &r.history).unwrap(), "seed {seed}");
        let events = r.history.events();
        // The outcome of the construction's test activity: success or
        // definitive failure.
        let test_outcome = events.iter().position(|e| {
            matches!(e, Event::Execute(g) | Event::Fail(g)
                if *g == fx.construction_activity("test"))
        });
        let prod_pos = events.iter().position(
            |e| matches!(e, Event::Execute(g) if *g == fx.production_activity("production")),
        );
        // The §2.2 constraint applies when production read the BOM the
        // construction process wrote (pdm_entry before read_bom); if the
        // production process serialized first, it is independent.
        let pdm_pos = events.iter().position(
            |e| matches!(e, Event::Execute(g) if *g == fx.construction_activity("pdm_entry")),
        );
        let read_pos = events.iter().position(
            |e| matches!(e, Event::Execute(g) if *g == fx.production_activity("read_bom")),
        );
        let depends = matches!((pdm_pos, read_pos), (Some(w), Some(r)) if w < r);
        if let (Some(p), true) = (prod_pos, depends) {
            exercised += 1;
            let t = test_outcome.expect("production ran, so the test terminated first");
            assert!(
                p > t,
                "seed {seed}: production committed before the test outcome"
            );
        }
    }
    assert!(exercised > 0, "no run exercised the production case");
}

#[test]
fn deterministic_across_identical_configs() {
    let w = workload(7, 6, 0.4, 0.2);
    let r1 = run(&w, RunConfig::default());
    let r2 = run(&w, RunConfig::default());
    assert_eq!(r1.history, r2.history);
    assert_eq!(r1.metrics.makespan, r2.metrics.makespan);
    assert_eq!(r1.metrics.committed, r2.metrics.committed);
}

#[test]
fn arrival_gap_reduces_contention() {
    let w = workload(9, 8, 0.5, 0.0);
    let packed = run(
        &w,
        RunConfig {
            inject_failures: false,
            ..RunConfig::default()
        },
    );
    let staggered = run(
        &w,
        RunConfig {
            inject_failures: false,
            arrival_gap: 200,
            ..RunConfig::default()
        },
    );
    // With processes fully staggered, scheduling conflicts vanish.
    assert!(staggered.metrics.rejections <= packed.metrics.rejections);
    assert_eq!(staggered.metrics.committed + staggered.metrics.aborted, 8);
}
