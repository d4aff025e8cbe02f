//! Certifications a lone process's state machine answers, counted on the
//! host-independent side. A lone process is the only one with events since
//! a quiescent point (every process before it terminated); the certifier
//! runs its derivation only from the first event that names a second
//! process on (DESIGN.md, certifier invariant 7).
//!
//! The single-worker concurrent driver runs each process until it blocks,
//! so on inputs shaped like the benchmark's `closed_contended` (96
//! processes, conflict density 0.3, failures 0.1) every domain history is
//! serial and every certification is lone. The engine interleaves the
//! processes of a domain, so on `durable_recovery`-shaped inputs (the
//! `engine_ticks` runs) only the certifications before the second process
//! starts are lone; that share is printed, not bounded.

#[path = "support/certify_replay.rs"]
mod certify_replay;

use certify_replay::{per_shard, replay};
use txproc_core::domains::DomainPartition;
use txproc_core::pred_incremental::IncrementalPred;
use txproc_core::schedule::Schedule;
use txproc_core::spec::Spec;
use txproc_core::trace::Journal;
use txproc_engine::concurrent::ConcurrentConfig;
use txproc_engine::engine::RunConfig;
use txproc_engine::RunBuilder;
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

/// Certifications and the lone ones among them, over the replayed runs.
#[derive(Default)]
struct Tally {
    calls: u64,
    lone: u64,
}

impl Tally {
    fn replay(&mut self, spec: &Spec, locals: &[Schedule], journal: &Journal) {
        let mut certifiers: Vec<_> = locals.iter().map(|_| IncrementalPred::new(spec)).collect();
        replay(
            &mut certifiers,
            locals,
            &journal.take(),
            |inc, event, ok| {
                let before = inc.lone_verdicts();
                let verdict = inc.certify_keep(event).expect("the run certified it");
                assert_eq!(verdict.reducible, ok);
                self.calls += 1;
                self.lone += inc.lone_verdicts() - before;
            },
        );
    }

    fn share(&self) -> f64 {
        100.0 * self.lone as f64 / self.calls as f64
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
fn every_certification_of_a_single_worker_run_is_lone() {
    let mut worker = Tally::default();
    for seed in 1..=16u64 {
        let w = workload(seed, 96);
        let journal = Journal::new();
        let out = RunBuilder::new(&w)
            .concurrent(ConcurrentConfig {
                seed,
                workers: Some(1),
                ..ConcurrentConfig::default()
            })
            .sink(Box::new(journal.clone()))
            .run();
        let locals = per_shard(&DomainPartition::partition(&w.spec), out.history());
        worker.replay(&w.spec, &locals, &journal);
    }
    println!(
        "single worker, closed_contended-shaped: {} of {} certifications lone ({:.1} %)",
        worker.lone,
        worker.calls,
        worker.share()
    );
    let mut engine = Tally::default();
    for seed in 1..=96u64 {
        let w = workload(seed, 32);
        let journal = Journal::new();
        let out = RunBuilder::new(&w)
            .config(RunConfig {
                seed,
                ..RunConfig::default()
            })
            .sink(Box::new(journal.clone()))
            .run();
        engine.replay(&w.spec, &[out.history().clone()], &journal);
    }
    println!(
        "engine, engine_ticks inputs: {} of {} certifications lone ({:.1} %)",
        engine.lone,
        engine.calls,
        engine.share()
    );
    assert!(worker.calls > 5_000, "{} certifications", worker.calls);
    assert_eq!(
        worker.lone, worker.calls,
        "a single-worker domain history is serial"
    );
}
