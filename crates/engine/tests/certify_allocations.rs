//! Heap allocations per certification, counted on the host-independent
//! side: a wall-clock figure can hide behind a slow machine, a count cannot.
//!
//! A single-worker concurrent run of 96 processes at conflict density 0.3
//! (the shape of the benchmark's `closed_contended` inputs) is journalled,
//! and its certifier calls are replayed per shard in the order the run made
//! them: before each recorded certification the shard's certifier absorbs
//! the history events emitted since (`record`), then plans the candidate
//! (`certify_keep`). Only `certify_keep` is counted. Once a certifier is
//! warm, a step refills the working copies the last event left behind, so
//! what it still allocates is amortized growth of its tables.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counted;
use txproc_core::domains::DomainPartition;
use txproc_core::pred_incremental::IncrementalPred;
use txproc_core::schedule::{Event, Schedule};
use txproc_core::trace::{Journal, TraceEvent};
use txproc_engine::concurrent::ConcurrentConfig;
use txproc_engine::{PolicyKind, RunBuilder};
use txproc_sim::workload::{generate, WorkloadConfig};

/// The history's projection onto each conflict domain, i.e. each shard's
/// own history. A group abort is split along the domains of its members.
fn per_shard(partition: &DomainPartition, history: &Schedule) -> Vec<Schedule> {
    let domain = |pid| partition.domain_of(pid).expect("partitioned process") as usize;
    let mut out = vec![Schedule::new(); partition.domain_count()];
    for e in history.events() {
        match e {
            Event::Execute(g) | Event::Fail(g) | Event::Compensate(g) => {
                out[domain(g.process)].push(e.clone());
            }
            Event::Commit(p) | Event::Abort(p) => {
                out[domain(*p)].push(e.clone());
            }
            Event::GroupAbort(ps) => {
                for (d, local) in out.iter_mut().enumerate() {
                    let members: Vec<_> = ps.iter().copied().filter(|&p| domain(p) == d).collect();
                    if !members.is_empty() {
                        local.push(Event::GroupAbort(members));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn a_warm_certifier_allocates_at_most_four_times_per_certification() {
    let (mut calls, mut allocations) = (0u64, 0u64);
    for seed in 1..=4u64 {
        let w = generate(&WorkloadConfig {
            seed,
            processes: 96,
            conflict_density: 0.3,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        });
        let journal = Journal::new();
        let out = RunBuilder::new(&w)
            .concurrent(ConcurrentConfig {
                policy: PolicyKind::Pred,
                seed,
                workers: Some(1),
                ..ConcurrentConfig::default()
            })
            .sink(Box::new(journal.clone()))
            .run();
        let partition = DomainPartition::partition(&w.spec);
        let locals = per_shard(&partition, out.history());
        let mut certifiers: Vec<_> = locals
            .iter()
            .map(|_| IncrementalPred::new(&w.spec))
            .collect();
        for rec in journal.take() {
            let TraceEvent::CertifyOutcome { event, ok, .. } = &rec.event else {
                continue;
            };
            let s = rec.shard.expect("the concurrent driver names the shard") as usize;
            let (inc, local) = (&mut certifiers[s], locals[s].events());
            while inc.len() < rec.history_len {
                inc.record(&local[inc.len()])
                    .expect("a recorded event is legal");
            }
            let (verdict, n) = counted(|| inc.certify_keep(event));
            assert_eq!(
                verdict.expect("the run certified it").reducible,
                *ok,
                "seed {seed}"
            );
            calls += 1;
            allocations += n;
        }
    }
    let per_call = allocations as f64 / calls as f64;
    println!("certify_keep: {calls} calls, {allocations} allocations, {per_call:.2} per call");
    assert!(calls > 1_000, "{calls} certifications replayed");
    assert!(
        per_call <= 4.0,
        "{per_call:.2} allocations per certify_keep"
    );
}
