//! Lone processes against the derivation they skip (DESIGN.md, certifier
//! invariant 7). The step admits an effect event of a process that runs
//! alone (`protocol_replay::alone` on a protocol fed every event) without
//! calling the certifier, which absorbs the skipped events on its next
//! call. These oracles hold every journalled verdict, the skipped ones
//! included, to a certifier fed every event from the first, and that
//! certifier to the batch reference.

#[path = "support/certify_replay.rs"]
mod certify_replay;
#[path = "support/protocol_replay.rs"]
mod protocol_replay;
#[path = "../../core/tests/support/scan_protocol.rs"]
mod scan_protocol;

use certify_replay::{per_shard, replay};
use protocol_replay::Checked;
use txproc_core::domains::DomainPartition;
use txproc_core::pred::check_pred;
use txproc_core::pred_incremental::{check_pred_incremental, IncrementalPred};
use txproc_core::protocol::Protocol;
use txproc_core::schedule::Schedule;
use txproc_core::trace::{Journal, TraceEvent, TraceRecord};
use txproc_engine::concurrent::ConcurrentConfig;
use txproc_engine::engine::RunConfig;
use txproc_engine::{PolicyKind, RunBuilder};
use txproc_sim::workload::{generate, ArrivalModel, Workload, WorkloadConfig};

/// What [`check_run`] counted.
#[derive(Default)]
struct Counts {
    checked: u64,
    refused: u64,
    /// Certifications answered alone after the shard's certifier had run.
    alone_after_certifier: u64,
}

/// How an input of the grid is run.
#[derive(Debug, Clone, Copy)]
enum Driver {
    /// The engine, with processes arriving this many ticks apart.
    Engine { gap: u64 },
    /// The concurrent driver with this many workers.
    Workers(usize),
}

/// Replays every certification of one journalled run per shard on a
/// certifier fed every event and demands the verdict the run acted on.
/// Whether the run answered it alone is read from the run's protocol,
/// replayed from the same journal.
fn check_run(w: &Workload, seed: u64, driver: Driver, counts: &mut Counts) {
    let journal = Journal::new();
    let locals = match driver {
        Driver::Engine { gap } => {
            let mut staggered = w.clone();
            staggered.config.arrivals = ArrivalModel::staggered(w.config.processes, gap);
            let run = RunBuilder::new(&staggered).sink(Box::new(journal.clone()));
            let cfg = RunConfig {
                seed,
                ..RunConfig::default()
            };
            vec![run.config(cfg).run().history().clone()]
        }
        Driver::Workers(n) => {
            let run = RunBuilder::new(w).sink(Box::new(journal.clone()));
            let cfg = ConcurrentConfig {
                seed,
                workers: Some(n),
                ..ConcurrentConfig::default()
            };
            let out = run.concurrent(cfg).run();
            per_shard(&DomainPartition::partition(&w.spec), out.history())
        }
    };
    let records = journal.take();
    let mut alone = Vec::new();
    let what = format!("seed {seed}, {driver:?}");
    let visit = |d: &Protocol<'_>, rec: &TraceRecord| {
        if let TraceEvent::CertifyOutcome { event, .. } = &rec.event {
            let pid = event.processes()[0];
            alone.push((rec.shard.unwrap_or(0), protocol_replay::alone(d, pid)));
        }
    };
    protocol_replay::replay(
        &w.spec,
        &locals,
        &records,
        &what,
        &mut Checked::new(),
        visit,
    );
    let mut references: Vec<_> = (locals.iter())
        .map(|_| IncrementalPred::new(&w.spec))
        .collect();
    let mut certifier_ran = vec![false; locals.len()];
    let mut alone = alone.into_iter();
    replay(&mut references, &locals, &records, |inc, event, ok| {
        let verdict = inc.certify_keep(event).expect("the run certified it");
        assert_eq!(verdict.reducible, ok, "{what}: {event:?}");
        let (shard, alone) = alone.next().expect("one answer per certification");
        let ran = &mut certifier_ran[shard as usize];
        counts.alone_after_certifier += u64::from(alone && *ran);
        *ran |= !alone;
        counts.checked += 1;
        counts.refused += u64::from(!ok);
    });
}

/// Every certification of engine, 1-worker and 2-worker runs over 4, 6, 12
/// and 24 processes × density 0.3, 0.5 and 0.7 × seeds 0–63 × failure
/// probability 0 and 0.1 is the verdict of a certifier fed every event, and
/// so is every certification of engine runs of the same inputs with
/// arrivals 30 ticks apart. Each worker runs a shard's processes one after another, and the
/// engine interleaves all of them when they arrive at once, so only the
/// staggered engine runs reach a process that runs alone after the
/// certifier has run.
#[test]
fn every_journalled_verdict_equals_the_full_derivation() {
    let mut counts = Counts::default();
    let grid = [4, 6, 12, 24].into_iter().flat_map(|processes| {
        [0.3, 0.5, 0.7]
            .into_iter()
            .flat_map(move |conflict_density| {
                [0.0, 0.1].into_iter().flat_map(move |failure_probability| {
                    (0..64u64).map(move |seed| WorkloadConfig {
                        seed,
                        processes,
                        conflict_density,
                        failure_probability,
                        ..WorkloadConfig::default()
                    })
                })
            })
    });
    for cfg in grid {
        let w = generate(&cfg);
        let drivers = [
            Driver::Engine { gap: 0 },
            Driver::Workers(1),
            Driver::Workers(2),
            Driver::Engine { gap: 30 },
        ];
        for driver in drivers {
            check_run(&w, cfg.seed, driver, &mut counts);
        }
    }
    let Counts {
        checked,
        refused,
        alone_after_certifier: late,
    } = counts;
    println!(
        "{checked} certifications equal the full derivation's, {refused} refused, \
         {late} answered alone after the shard's certifier had run"
    );
    // Vacuity guard: refusals, and lone processes after interleaved ones,
    // whose events the certifier absorbs on its next call.
    assert!(
        checked > 100_000 && refused > 0 && late > 0,
        "{checked} checked, {refused} refused, {late} alone after the certifier"
    );
}

/// `check_pred_incremental` equals batch `check_pred`, prefix for prefix,
/// on the uncertified `PredProtocol` engine's histories: 4, 6 and 8
/// processes × density 0.5 and 0.7 × arrival gap 0, 10, 30 and 60 × seeds
/// 0–63. Staggered arrivals leave quiescent points, so these histories
/// hold lone processes, interleavings after them, and non-reducible
/// prefixes.
#[test]
fn incremental_equals_batch_on_protocol_histories_with_quiescent_points() {
    let (mut histories, mut not_pred) = (0, 0);
    for processes in [4, 6, 8] {
        for conflict_density in [0.5, 0.7] {
            for gap in [0, 10, 30, 60] {
                for seed in 0..64u64 {
                    let w = generate(&WorkloadConfig {
                        seed,
                        processes,
                        conflict_density,
                        arrivals: ArrivalModel::staggered(processes, gap),
                        ..WorkloadConfig::default()
                    });
                    let out = RunBuilder::new(&w)
                        .config(RunConfig {
                            policy: PolicyKind::PredProtocol,
                            seed,
                            ..RunConfig::default()
                        })
                        .run();
                    let history: &Schedule = out.history();
                    let batch = check_pred(&w.spec, history).expect("a legal history");
                    let incremental = check_pred_incremental(&w.spec, history).expect("legal");
                    assert_eq!(
                        incremental, batch,
                        "{processes} processes, density {conflict_density}, gap \
                         {gap}, seed {seed}"
                    );
                    histories += 1;
                    not_pred += usize::from(!batch.pred);
                }
            }
        }
    }
    println!("{histories} protocol histories, {not_pred} not PRED, all equal to batch");
    assert!(not_pred > 0, "no non-reducible prefix in the sweep");
}
