//! Certifications the lone rule answers without the certifier, counted on
//! the host-independent side. A process runs *alone* when no other process
//! executed an operation since every process before it terminated; its
//! effect events keep the completed prefix reducible, so the step notes
//! them admitted without calling the certifier (DESIGN.md, certifier
//! invariant 7). Every other certification is one certifier call, one
//! `Phase::Certify` interval.
//!
//! The single-worker concurrent driver runs each process until it blocks,
//! so on inputs shaped like the benchmark's `closed_contended` (96
//! processes, conflict density 0.3, failures 0.1) every domain history is
//! serial and the certifier is never called. The engine interleaves the
//! processes of a domain, so on `durable_recovery`-shaped inputs (the
//! `engine_ticks` runs) only the certifications before the second process
//! starts are answered alone; that share is printed, not bounded, and the
//! certifications skipped are exactly those the rule read from a protocol
//! fed every event (`protocol_replay::alone`) calls lone.
//!
//! The worker's serial domains hold for every input, not only closed ones:
//! a process that runs alone is allowed every request, its commit is never
//! blocked and its certifications are answered by its own rule, so it never
//! waits; a process that used up its step budget goes back to the front of
//! the run queue, and arrivals join the back. Only a restore and the
//! scripted unit tests start a run with several live processes in a domain.
//! The second test pins that on open arrivals and heavy failures.

#[path = "support/protocol_replay.rs"]
mod protocol_replay;
#[path = "../../core/tests/support/scan_protocol.rs"]
mod scan_protocol;

use protocol_replay::Checked;
use std::collections::{BTreeMap, BTreeSet};
use txproc_core::domains::DomainPartition;
use txproc_core::protocol::Protocol;
use txproc_core::schedule::Schedule;
use txproc_core::telemetry::{Phase, Telemetry};
use txproc_core::trace::{Journal, TraceEvent, TraceRecord};
use txproc_engine::concurrent::ConcurrentConfig;
use txproc_engine::engine::RunConfig;
use txproc_engine::{RunBuilder, RunOutcome};
use txproc_sim::workload::{generate, ArrivalModel, Workload, WorkloadConfig};

/// Journalled certifications and the certifier calls among them.
#[derive(Default)]
struct Tally {
    certifications: u64,
    calls: u64,
}

impl Tally {
    /// Adds one run: its builder, journalled and with telemetry on. Returns
    /// the outcome and the journal.
    fn run(&mut self, run: RunBuilder<'_>) -> (RunOutcome, Vec<TraceRecord>) {
        let (journal, tele) = (Journal::new(), Telemetry::on());
        let outcome = run
            .sink(Box::new(journal.clone()))
            .telemetry(tele.clone())
            .run();
        let records = journal.take();
        let outcomes = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::CertifyOutcome { .. }));
        self.certifications += outcomes.count() as u64;
        let snap = tele.snapshot().expect("enabled registry snapshots");
        self.calls += snap.phase(Phase::Certify).map_or(0, |p| p.count);
        (outcome, records)
    }

    fn alone(&self) -> u64 {
        self.certifications - self.calls
    }

    fn share(&self) -> f64 {
        100.0 * self.alone() as f64 / self.certifications as f64
    }
}

/// The certifications of an engine journal at which the certifying process
/// runs alone in a protocol the journal replays every event into.
fn lone_by_rule(w: &Workload, history: &Schedule, records: &[TraceRecord]) -> u64 {
    let mut lone = 0;
    let visit = |d: &Protocol<'_>, rec: &TraceRecord| {
        if let TraceEvent::CertifyOutcome { event, .. } = &rec.event {
            lone += u64::from(protocol_replay::alone(d, event.processes()[0]));
        }
    };
    let locals = [history.clone()];
    let what = "engine";
    protocol_replay::replay(&w.spec, &locals, records, what, &mut Checked::new(), visit);
    lone
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
    let (mut engine, mut lone) = (Tally::default(), 0);
    for seed in 1..=96u64 {
        let w = workload(seed, 32);
        let (outcome, records) = engine.run(RunBuilder::new(&w).config(RunConfig {
            seed,
            ..RunConfig::default()
        }));
        lone += lone_by_rule(&w, outcome.history(), &records);
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
    assert_eq!(
        engine.alone(),
        lone,
        "the step skips what the rule calls lone"
    );
}

/// Asserts that in each conflict domain's projection of `history` every
/// process's events are contiguous: once another process of the domain has
/// an event, the earlier one has none left.
fn assert_serial_domains(domains: &DomainPartition, history: &Schedule, label: &str) {
    let (mut current, mut left) = (BTreeMap::new(), BTreeSet::new());
    for (at, event) in history.events().iter().enumerate() {
        for &p in event.processes() {
            let domain = domains.domain_of(p).expect("every process has a domain");
            match current.insert(domain, p) {
                Some(q) if q != p => assert!(left.insert(q), "{label}: {q} left twice"),
                _ => {}
            }
            assert!(!left.contains(&p), "{label}: {p} resumes at event {at}");
        }
    }
}

#[test]
fn open_arrivals_and_failures_keep_every_domain_history_serial() {
    for workers in [1, 2] {
        let (mut tally, mut aborted) = (Tally::default(), 0);
        for seed in 1..=6u64 {
            for (density, failures) in [(0.4, 0.15), (0.7, 0.3)] {
                let w = generate(&WorkloadConfig {
                    seed,
                    processes: 32,
                    conflict_density: density,
                    failure_probability: failures,
                    arrivals: ArrivalModel::Poisson { mean_gap: 50 },
                    ..WorkloadConfig::default()
                });
                let (outcome, _) = tally.run(RunBuilder::new(&w).concurrent(ConcurrentConfig {
                    seed,
                    workers: Some(workers),
                    ..ConcurrentConfig::default()
                }));
                let label = format!("{workers} workers, seed {seed}, failures {failures}");
                let m = outcome.metrics();
                aborted += m.aborted;
                assert_eq!((m.waits, m.deferred_commits), (0, 0), "{label}");
                let domains = DomainPartition::partition(&w.spec);
                assert_serial_domains(&domains, outcome.history(), &label);
            }
        }
        println!(
            "{workers} workers, Poisson arrivals: {} certifications, {aborted} aborts, \
             {} certifier calls",
            tally.certifications, tally.calls
        );
        assert!(aborted > 0, "{workers} workers: failures abort processes");
        assert!(
            tally.certifications > 1_000,
            "{} certifications",
            tally.certifications
        );
        assert_eq!(
            tally.calls, 0,
            "{workers} workers: a domain history is serial"
        );
    }
}
