//! E18 benchmark: incremental vs. batch PRED certification.
//!
//! The batch certifier answers "is this extended prefix still PRED?" by
//! rebuilding the completed schedule and reducing it from scratch — O(n²)
//! per event, O(n³) to certify a whole history of n events. The incremental
//! certifier ([`txproc_core::pred_incremental::IncrementalPred`]) carries
//! the serialization closure, cancellation state and completion overlays
//! across events. This benchmark certifies entire engine-emitted histories
//! of growing length both ways; the gap must grow superlinearly with
//! history length (speedup curve in EXPERIMENTS.md E18).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txproc_core::pred::check_pred;
use txproc_core::pred_incremental::{check_pred_incremental, IncrementalPred};
use txproc_core::schedule::Event;
use txproc_engine::engine::{run, RunConfig};
use txproc_engine::policy::PolicyKind;
use txproc_sim::workload::{generate, WorkloadConfig};

/// Engine-emitted histories of growing length (uncertified protocol runs,
/// so certification cost is measured on realistic, conflict-rich inputs).
/// The last point has the shape of one `closed_contended` input of the
/// benchmark: 96 processes at density 0.3.
fn histories() -> Vec<(
    txproc_sim::workload::Workload,
    txproc_core::schedule::Schedule,
)> {
    [4usize, 8, 16, 24, 32, 48, 64]
        .into_iter()
        .map(|processes| (processes, 0.4))
        .chain([(96, 0.3)])
        .map(|(processes, conflict_density)| {
            let w = generate(&WorkloadConfig {
                seed: 1,
                processes,
                conflict_density,
                failure_probability: 0.1,
                ..WorkloadConfig::default()
            });
            let result = run(
                &w,
                RunConfig {
                    policy: PolicyKind::PredProtocol,
                    ..RunConfig::default()
                },
            );
            (w, result.history)
        })
        .collect::<Vec<_>>()
}

fn bench(c: &mut Criterion) {
    let inputs = histories();
    let mut g = c.benchmark_group("pred_incremental");
    for (w, history) in &inputs {
        let n = history.len();
        // Batch reference: per-prefix completion + reduction (check_pred).
        g.bench_with_input(BenchmarkId::new("batch", n), history, |b, h| {
            b.iter(|| check_pred(&w.spec, h).unwrap())
        });
        // Incremental: one certifier driven over the same events.
        g.bench_with_input(BenchmarkId::new("incremental", n), history, |b, h| {
            b.iter(|| check_pred_incremental(&w.spec, h).unwrap())
        });
        // Per-event certification at the frontier: the certifier holds the
        // history up to its last *effect* event; what the answer for that
        // genuine next event costs. (An effect event, so the probe appends
        // an operation — a trailing commit or abort touches none.)
        let events = history.events();
        let Some(at) = events
            .iter()
            .rposition(|e| matches!(e, Event::Execute(_) | Event::Compensate(_)))
        else {
            continue;
        };
        let mut inc = IncrementalPred::new(&w.spec);
        for e in &events[..at] {
            inc.record(e).unwrap();
        }
        let probe = &events[at];
        g.bench_function(BenchmarkId::new("per_event", n), |b| {
            b.iter(|| inc.certify(std::hint::black_box(probe)).unwrap())
        });
    }
    g.finish();

    // Sanity: both certifiers agree on every input (differential oracle).
    for (w, history) in &inputs {
        let batch = check_pred(&w.spec, history).unwrap();
        let incremental = check_pred_incremental(&w.spec, history).unwrap();
        assert_eq!(
            batch,
            incremental,
            "certifiers diverged on n={}",
            history.len()
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
