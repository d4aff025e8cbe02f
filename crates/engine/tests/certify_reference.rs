//! The batch certifier as a test oracle: every verdict the shipped §3.5
//! certification gate hands out must equal the from-scratch reference —
//! rebuild the completion of the extended prefix (Definition 8) and reduce
//! it (Definition 9).
//!
//! The reference used to ship as a run-time option, and two tests compared
//! whole runs under either certifier. This holds each *decision* against it
//! instead: a run carries a journal, and every
//! [`TraceEvent::CertifyOutcome`] names the candidate event, the verdict
//! and the frontier it was decided at — enough to recompute the verdict
//! from the final history alone, since a history only ever grows.

use txproc_core::completion::complete;
use txproc_core::reduction::reduce;
use txproc_core::schedule::Schedule;
use txproc_core::trace::{Journal, TraceEvent, TraceRecord};
use txproc_engine::concurrent::{ConcurrentConfig, ShardMode};
use txproc_engine::engine::RunConfig;
use txproc_engine::policy::PolicyKind;
use txproc_engine::RunBuilder;
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

/// Seeds 0..8 of the engine's old certifier differential (six processes,
/// density 0.5, failures 0.2) plus the every-16th-seed stride of the
/// `indexed_scan_parity` sweep (same density/failure schedule as there).
fn workloads() -> Vec<WorkloadConfig> {
    let small = (0..8u64).map(|seed| WorkloadConfig {
        seed,
        processes: 6,
        conflict_density: 0.5,
        failure_probability: 0.2,
        ..WorkloadConfig::default()
    });
    let stride = (0..256u64).step_by(16).map(|seed| WorkloadConfig {
        seed,
        processes: 4 + (seed % 3) as usize,
        conflict_density: [0.2, 0.5, 0.8][(seed % 3) as usize],
        failure_probability: [0.0, 0.15, 0.3][((seed / 3) % 3) as usize],
        ..WorkloadConfig::default()
    });
    small.chain(stride).collect()
}

/// Recomputes every journalled verdict on `history[..frontier - 1] + event`
/// and returns how many decisions (total, refused) were checked.
fn check_decisions(
    w: &Workload,
    history: &Schedule,
    records: &[TraceRecord],
    what: &str,
) -> (usize, usize) {
    let (mut total, mut refused) = (0, 0);
    for rec in records {
        let TraceEvent::CertifyOutcome {
            event,
            ok,
            frontier,
        } = &rec.event
        else {
            continue;
        };
        let mut candidate = history.prefix(frontier - 1);
        candidate.push(event.clone());
        let reference = complete(&w.spec, &candidate)
            .map(|completed| reduce(&w.spec, &completed).reducible)
            .unwrap_or(false);
        assert_eq!(
            *ok, reference,
            "{what}: verdict on {event:?} at frontier {frontier} diverges from complete + reduce"
        );
        total += 1;
        refused += usize::from(!ok);
    }
    (total, refused)
}

#[test]
fn certify_decisions_agree_with_batch_reference() {
    let (mut total, mut refused) = (0, 0);
    for wcfg in workloads() {
        let w = generate(&wcfg);
        let seed = wcfg.seed;
        for policy in [PolicyKind::Pred, PolicyKind::PredWait] {
            let what = format!("engine {} seed {seed}", policy.label());
            let journal = Journal::new();
            let run = RunBuilder::new(&w)
                .config(RunConfig {
                    policy,
                    seed,
                    ..RunConfig::default()
                })
                .sink(Box::new(journal.clone()))
                .run()
                .into_engine();
            assert!(run.stalled.is_empty(), "{what}: stalled");
            let (t, r) = check_decisions(&w, &run.history, &journal.take(), &what);
            total += t;
            refused += r;
        }
        // The concurrent driver through the same gate. One shard and one
        // worker: the shard segment is the merged history, so journalled
        // frontiers index it directly.
        let what = format!("concurrent seed {seed}");
        let journal = Journal::new();
        let run = RunBuilder::new(&w)
            .concurrent(ConcurrentConfig {
                seed,
                shards: ShardMode::Single,
                workers: Some(1),
                ..ConcurrentConfig::default()
            })
            .sink(Box::new(journal.clone()))
            .run()
            .into_concurrent();
        total += check_decisions(&w, &run.history, &journal.take(), &what).0;
    }
    // The sweep must reach both answers, or it pins nothing.
    assert!(total > 1_000, "only {total} decisions checked");
    assert!(refused > 0, "no refused certification in the sweep");
}
