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

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use txproc_core::pred::check_pred;
use txproc_core::pred_incremental::{check_pred_incremental, IncrementalPred};
use txproc_core::schedule::{Event, Schedule};
use txproc_engine::engine::{run, RunConfig};
use txproc_engine::policy::PolicyKind;
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

/// Engine-emitted histories of growing length (uncertified protocol runs,
/// so certification cost is measured on realistic, conflict-rich inputs).
/// The last point has the shape of one `closed_contended` input of the
/// benchmark: 96 processes at density 0.3.
fn histories() -> Vec<(Workload, Schedule)> {
    [4usize, 8, 16, 24, 32, 48, 64]
        .into_iter()
        .map(|processes| (processes, 0.4))
        .chain([(96, 0.3)])
        .map(|(processes, conflict_density)| engine_history(processes, conflict_density))
        .collect::<Vec<_>>()
}

fn engine_history(processes: usize, conflict_density: f64) -> (Workload, Schedule) {
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
}

fn is_effect(e: &Event) -> bool {
    matches!(e, Event::Execute(_) | Event::Compensate(_))
}

/// One what-if at a frontier: the certifier holds `events[..at]`; what the
/// answer for `events[at]` costs.
fn what_if(g: &mut BenchmarkGroup<'_>, id: BenchmarkId, w: &Workload, events: &[Event], at: usize) {
    let mut inc = IncrementalPred::new(&w.spec);
    for e in &events[..at] {
        inc.record(e).unwrap();
    }
    g.bench_function(id, |b| {
        b.iter(|| inc.certify(std::hint::black_box(&events[at])).unwrap())
    });
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
        // Per-event certification at the frontier of the run: its last
        // *effect* event. (An effect event, so the probe appends an
        // operation — a trailing commit or abort touches none.)
        let events = history.events();
        if let Some(at) = events.iter().rposition(is_effect) {
            what_if(&mut g, BenchmarkId::new("per_event", n), w, events, at);
        }
    }
    g.finish();

    // The completion overlay: a what-if at the widest point of an engine
    // run — the last effect event with the most processes active before it —
    // so the overlay covers most of the input (E28).
    let mut g = c.benchmark_group("overlay");
    for (processes, conflict_density) in [32usize, 96, 256]
        .into_iter()
        .flat_map(|n| [(n, 0.3), (n, 0.6)])
    {
        let (w, history) = engine_history(processes, conflict_density);
        let events = history.events();
        let active = |i| {
            history
                .prefix(i)
                .replay(&w.spec)
                .unwrap()
                .active_processes()
        };
        let (widest, at) = (0..events.len())
            .filter(|&i| is_effect(&events[i]))
            .map(|i| (active(i).len(), i))
            .max()
            .expect("an effect event");
        let id = format!("{processes}p-d{conflict_density}-active{widest}");
        what_if(&mut g, BenchmarkId::new("per_event", id), &w, events, at);
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
