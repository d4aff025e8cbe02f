//! Certifications the protocol's rule answers without the certifier,
//! counted on the host-independent side. A process runs *alone* when no
//! other process executed an operation since every process before it
//! terminated (`Protocol::alone`); its effect events keep the completed
//! prefix reducible, so the step notes them admitted without calling the
//! certifier (DESIGN.md, certifier invariant 7). Every other certification
//! is one certifier call, one `Phase::Certify` interval.
//!
//! The single-worker concurrent driver runs each process until it blocks,
//! so on inputs shaped like the benchmark's `closed_contended` (96
//! processes, conflict density 0.3, failures 0.1) every domain history is
//! serial and the certifier is never called. The engine interleaves the
//! processes of a domain, so on `durable_recovery`-shaped inputs (the
//! `engine_ticks` runs) only the certifications before the second process
//! starts are answered alone; that share is printed, not bounded.

use txproc_core::telemetry::{Phase, Telemetry};
use txproc_core::trace::{Journal, TraceEvent};
use txproc_engine::concurrent::ConcurrentConfig;
use txproc_engine::engine::RunConfig;
use txproc_engine::RunBuilder;
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

/// Journalled certifications and the certifier calls among them.
#[derive(Default)]
struct Tally {
    certifications: u64,
    calls: u64,
}

impl Tally {
    /// Adds one run: its builder, journalled and with telemetry on.
    fn run(&mut self, run: RunBuilder<'_>) {
        let (journal, tele) = (Journal::new(), Telemetry::on());
        run.sink(Box::new(journal.clone()))
            .telemetry(tele.clone())
            .run();
        let records = journal.take();
        let outcomes = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::CertifyOutcome { .. }));
        self.certifications += outcomes.count() as u64;
        let snap = tele.snapshot().expect("enabled registry snapshots");
        self.calls += snap.phase(Phase::Certify).map_or(0, |p| p.count);
    }

    fn alone(&self) -> u64 {
        self.certifications - self.calls
    }

    fn share(&self) -> f64 {
        100.0 * self.alone() as f64 / self.certifications as f64
    }
}

fn workload(seed: u64, processes: usize) -> Workload {
    generate(&WorkloadConfig {
        seed,
        processes,
        conflict_density: 0.3,
        failure_probability: 0.1,
        ..WorkloadConfig::default()
    })
}

#[test]
fn a_single_worker_run_never_calls_the_certifier() {
    let mut worker = Tally::default();
    for seed in 1..=16u64 {
        let w = workload(seed, 96);
        worker.run(RunBuilder::new(&w).concurrent(ConcurrentConfig {
            seed,
            workers: Some(1),
            ..ConcurrentConfig::default()
        }));
    }
    println!(
        "single worker, closed_contended-shaped: {} of {} certifications alone ({:.1} %), \
         {} certifier calls",
        worker.alone(),
        worker.certifications,
        worker.share(),
        worker.calls
    );
    let mut engine = Tally::default();
    for seed in 1..=96u64 {
        let w = workload(seed, 32);
        engine.run(RunBuilder::new(&w).config(RunConfig {
            seed,
            ..RunConfig::default()
        }));
    }
    println!(
        "engine, engine_ticks inputs: {} of {} certifications alone ({:.2} %), \
         {} certifier calls",
        engine.alone(),
        engine.certifications,
        engine.share(),
        engine.calls
    );
    assert!(
        worker.certifications > 5_000,
        "{} certifications",
        worker.certifications
    );
    assert_eq!(worker.calls, 0, "a single-worker domain history is serial");
    assert!(engine.calls > 0, "the engine interleaves");
}
