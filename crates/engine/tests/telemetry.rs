//! Telemetry-subsystem contracts against real driver runs: a disabled
//! registry is observationally free (bit-identical schedules and metrics),
//! an enabled one captures every hot-path phase, and the Prometheus export
//! renders live output.

use txproc_core::schedule::render;
use txproc_core::telemetry::{prometheus_text, Phase, Telemetry};
use txproc_core::trace::NoopSink;
use txproc_engine::concurrent::ConcurrentConfig;
use txproc_engine::engine::{Engine, RunConfig};
use txproc_engine::RunBuilder;
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

fn workload(seed: u64, processes: usize) -> Workload {
    generate(&WorkloadConfig {
        seed,
        processes,
        conflict_density: 0.4,
        failure_probability: 0.15,
        ..WorkloadConfig::default()
    })
}

#[test]
fn disabled_telemetry_is_bit_identical_on_engine() {
    for seed in [4u64, 11] {
        let w = workload(seed, 6);
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let plain = Engine::new(&w, cfg.clone()).run();
        let off = RunBuilder::new(&w)
            .config(cfg)
            .telemetry(Telemetry::off())
            .run()
            .into_engine();
        assert_eq!(
            render(&plain.history),
            render(&off.history),
            "seed {seed}: a disabled registry perturbed the schedule"
        );
        assert_eq!(
            plain.metrics, off.metrics,
            "seed {seed}: a disabled registry perturbed the metrics"
        );
    }
}

#[test]
fn enabled_telemetry_does_not_perturb_engine_outcome() {
    // Phase timers read clocks but must not change scheduling decisions:
    // the virtual-time engine is deterministic, so history and metrics
    // stay bit-identical even with the registry live.
    for seed in [4u64, 11] {
        let w = workload(seed, 6);
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let plain = Engine::new(&w, cfg.clone()).run();
        let tele = Telemetry::on();
        let on = RunBuilder::new(&w)
            .config(cfg)
            .telemetry(tele.clone())
            .run()
            .into_engine();
        assert_eq!(render(&plain.history), render(&on.history), "seed {seed}");
        assert_eq!(plain.metrics, on.metrics, "seed {seed}");
        let snap = tele.snapshot().expect("enabled registry snapshots");
        // The engine interleaves processes, so the step asks the policy
        // about a process that does not run alone, and certifies its events.
        for phase in [Phase::Certify, Phase::Policy] {
            let p = snap.phase(phase).expect("phase accumulator present");
            assert!(p.count > 0, "seed {seed}: no {} intervals", p.phase);
        }
    }
}

#[test]
fn disabled_telemetry_is_bit_identical_on_single_process_concurrent() {
    // The concurrent driver is only deterministic with one process; that is
    // enough to pin the disabled path to zero observable effect.
    let w = workload(5, 1);
    let run = |tele: Telemetry| {
        let r = RunBuilder::new(&w)
            .concurrent(ConcurrentConfig {
                seed: 5,
                ..ConcurrentConfig::default()
            })
            .sink(Box::new(NoopSink))
            .telemetry(tele)
            .run()
            .into_concurrent();
        (render(&r.history), r.metrics.committed, r.metrics.aborted)
    };
    assert_eq!(
        run(Telemetry::off()),
        run(Telemetry::off()),
        "disabled concurrent runs diverge"
    );
}

/// The worker runs each process until it blocks, so every domain history
/// of this run is serial and every process runs alone: the step answers
/// its policy calls and certifications itself, and neither the `Policy`
/// nor the `Certify` phase has an interval. A shard whose processes
/// interleave times both as the engine does
/// (`concurrent.rs`, `a_lone_process_skips_the_certifier_which_absorbs_its_events_later`).
#[test]
fn enabled_telemetry_captures_concurrent_phases() {
    let w = workload(3, 8);
    let tele = Telemetry::on();
    let r = RunBuilder::new(&w)
        .concurrent(ConcurrentConfig {
            seed: 3,
            ..ConcurrentConfig::default()
        })
        .sink(Box::new(NoopSink))
        .telemetry(tele.clone())
        .run()
        .into_concurrent();
    assert!(r.metrics.committed + r.metrics.aborted > 0);
    let snap = tele.snapshot().expect("enabled registry snapshots");
    let p = snap
        .phase(Phase::QueueDelay)
        .expect("phase accumulator present");
    assert!(p.count > 0, "{}: no intervals recorded", p.phase);
    assert!(p.p50_ns <= p.p95_ns && p.p95_ns <= p.max_ns, "{}", p.phase);
    let count = |phase| snap.phase(phase).map_or(0, |p| p.count);
    assert_eq!(
        count(Phase::Certify),
        0,
        "a serial domain history called the certifier"
    );
    assert_eq!(
        count(Phase::Policy),
        0,
        "a serial domain history asked the policy"
    );
}

#[test]
fn prometheus_export_renders_a_live_run() {
    let w = workload(4, 6);
    let tele = Telemetry::on();
    let _ = RunBuilder::new(&w)
        .config(RunConfig {
            seed: 4,
            ..RunConfig::default()
        })
        .telemetry(tele.clone())
        .run();

    let snap = tele.snapshot().expect("snapshot");
    let prom = prometheus_text(&snap);
    assert!(prom.contains("# TYPE txproc_phase_duration_ns histogram"));
    assert!(prom.contains("txproc_phase_duration_ns_count{phase=\"certify\"}"));
    assert!(prom.contains("txproc_uptime_ns"));
}

/// The 2PC and compensation timers of `Shard::note` and the step, on
/// `durable_recovery`-shaped engine runs (32 processes, conflict density
/// 0.3, failures 0.1): each deferred commit is timed once, from its prepare
/// to its release or its process's abort, and each compensation once. A
/// compensation answered `Busy` would add an interval no counter shows; no
/// input reaches that arm.
#[test]
fn two_pc_and_compensation_intervals_match_their_counters() {
    for seed in 1..=6u64 {
        let w = generate(&WorkloadConfig {
            seed,
            processes: 32,
            conflict_density: 0.3,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        });
        let tele = Telemetry::on();
        let r = RunBuilder::new(&w)
            .config(RunConfig {
                seed,
                ..RunConfig::default()
            })
            .telemetry(tele.clone())
            .run()
            .into_engine();
        let snap = tele.snapshot().expect("enabled registry snapshots");
        let count = |phase| snap.phase(phase).map_or(0, |p| p.count);
        let (two_pc, compensations) = (count(Phase::TwoPc), count(Phase::Compensation));
        assert_eq!(two_pc, r.metrics.deferred_commits, "seed {seed}");
        assert_eq!(compensations, r.metrics.compensations, "seed {seed}");
        assert!(
            two_pc > 0 && compensations > 0,
            "seed {seed}: nothing timed"
        );
    }
}
