//! Differential oracle for the epoch path (ISSUE 9, satellite 1): an epoch
//! size of **1** must be bit-identical to the per-event path (`epoch = 0`)
//! on both drivers — same history, same metrics — because an epoch of one
//! *is* the per-event path: every batch boundary falls after exactly one
//! event, the plan cache replays what `certify` just planned, and the
//! group-commit rounds hold one participant each.
//!
//! The virtual-time engine is fully deterministic, so the oracle compares
//! complete [`Metrics`] values. The concurrent driver is pinned to the
//! events runtime with one worker and closed arrivals (the deterministic
//! configuration); its time-valued metrics are wall-clock, so the oracle
//! compares the history plus every deterministic counter.

use txproc_engine::concurrent::{run_concurrent, ConcurrentConfig, ShardMode};
use txproc_engine::engine::{run, RunConfig};
use txproc_sim::metrics::Metrics;
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

const SEEDS: u64 = 256;

fn workload(seed: u64) -> Workload {
    generate(&WorkloadConfig {
        seed,
        processes: 5,
        conflict_density: 0.5,
        failure_probability: 0.2,
        ..WorkloadConfig::default()
    })
}

/// The deterministic (non-wall-clock) counters of a metrics value.
fn counters(m: &Metrics) -> impl PartialEq + std::fmt::Debug {
    (
        (
            m.committed,
            m.aborted,
            m.activities,
            m.compensations,
            m.rejections,
            m.cert_failures,
        ),
        (
            m.waits,
            m.retries,
            m.deferred_commits,
            m.cascaded,
            m.violations,
            m.abort_reasons,
        ),
        (m.epoch_batches, m.epoch_events),
    )
}

#[test]
fn engine_epoch_one_is_bit_identical_to_per_event() {
    for seed in 0..SEEDS {
        let w = workload(seed);
        let base_cfg = RunConfig {
            seed,
            check_pred: true,
            ..RunConfig::default()
        };
        let per_event = run(&w, base_cfg.clone());
        let epoch_one = run(
            &w,
            RunConfig {
                epoch: 1,
                ..base_cfg
            },
        );
        assert_eq!(
            txproc_core::schedule::render(&per_event.history),
            txproc_core::schedule::render(&epoch_one.history),
            "seed {seed}: histories diverge"
        );
        assert_eq!(
            per_event.metrics, epoch_one.metrics,
            "seed {seed}: metrics diverge"
        );
        assert_eq!(epoch_one.pred_ok, Some(true), "seed {seed}");
    }
}

#[test]
fn concurrent_epoch_one_is_bit_identical_to_per_event() {
    // One worker + closed arrivals is the deterministic configuration of
    // the concurrent driver (see its module docs), so the two runs see the
    // same interleaving and only the epoch knob differs.
    for seed in 0..SEEDS {
        let w = workload(seed);
        let base_cfg = ConcurrentConfig {
            seed,
            shards: ShardMode::Auto,
            workers: Some(1),
            ..ConcurrentConfig::default()
        };
        let per_event = run_concurrent(&w, base_cfg.clone());
        let epoch_one = run_concurrent(
            &w,
            ConcurrentConfig {
                epoch: 1,
                ..base_cfg
            },
        );
        assert_eq!(
            txproc_core::schedule::render(&per_event.history),
            txproc_core::schedule::render(&epoch_one.history),
            "seed {seed}: histories diverge"
        );
        assert_eq!(
            counters(&per_event.metrics),
            counters(&epoch_one.metrics),
            "seed {seed}: deterministic counters diverge"
        );
    }
}

#[test]
fn epoch_sixteen_histories_stay_pred_on_both_drivers() {
    // Larger epochs are not bit-identical (group sizes differ) but every
    // safety property must hold: termination, PRED, and non-zero batch
    // accounting once epochs actually fill.
    for seed in 0..16 {
        let w = workload(seed);
        let engine = run(
            &w,
            RunConfig {
                seed,
                check_pred: true,
                epoch: 16,
                ..RunConfig::default()
            },
        );
        assert!(engine.stalled.is_empty(), "seed {seed}: stalled");
        assert_eq!(engine.pred_ok, Some(true), "seed {seed}: engine not PRED");
        assert!(
            engine.metrics.epoch_batches > 0,
            "seed {seed}: no epochs closed"
        );
        assert_eq!(
            engine.metrics.epoch_events,
            engine.history.len() as u64,
            "seed {seed}: every event belongs to exactly one epoch"
        );

        let conc = run_concurrent(
            &w,
            ConcurrentConfig {
                seed,
                epoch: 16,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(conc.metrics.terminated(), 5, "seed {seed}");
        assert!(
            txproc_core::pred::is_pred(&w.spec, &conc.history).unwrap(),
            "seed {seed}: concurrent epoch-16 history not PRED:\n{}",
            txproc_core::schedule::render(&conc.history)
        );
        assert_eq!(
            conc.metrics.epoch_events,
            conc.history.len() as u64,
            "seed {seed}: every event belongs to exactly one epoch"
        );
    }
}
