//! Epoch independence: `RunConfig::epoch` / `ConcurrentConfig::epoch` is the
//! journal's seal cadence and nothing else, so for every `N` a run makes the
//! same decisions — same history, same metrics, same decision journal — and
//! writes the same WAL record stream once the `EpochSeal` records are
//! filtered out. Every run is also held to what the histories must be on
//! their own — PRED, every process terminated, nothing stalled — so a history
//! that is wrong the same way at every `N` fails here too.
//!
//! The virtual-time engine is fully deterministic, so the oracle compares
//! complete [`Metrics`] values. The concurrent driver is pinned to one worker
//! and closed arrivals (its deterministic configuration); its time-valued
//! metrics are wall-clock, so the oracle compares every deterministic counter.

use txproc_core::pred::is_pred;
use txproc_core::schedule::render;
use txproc_core::trace::{Journal, TraceRecord};
use txproc_core::wal::{read_records, DurabilityPolicy, MemWal, WalRecord, WalWriter};
use txproc_engine::concurrent::{ConcurrentConfig, ShardMode};
use txproc_engine::engine::RunConfig;
use txproc_engine::{RunBuilder, RunOutcome};
use txproc_sim::metrics::Metrics;
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

const SEEDS: u64 = 256;
const EPOCHS: [usize; 5] = [0, 1, 4, 16, 1000];

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
fn counts(m: &Metrics) -> String {
    let counters = (
        (
            m.committed,
            m.aborted,
            m.activities,
            m.compensations,
            m.rejections,
            m.cert_failures,
        ),
        (m.waits, m.retries, m.deferred_commits, m.cascaded),
    );
    format!("{counters:?}")
}

/// What one run decided and logged: history, metrics (as `shown`), decision
/// journal, and the WAL record stream without its seals.
type Observed = (String, String, Vec<TraceRecord>, Vec<WalRecord>);

/// Runs `builder` traced and journaled. Beside the observation: how many
/// seals the log held — the one thing the epoch may change — and the run's
/// outcome, for the driver's own safety assertions.
fn observed(
    seed: u64,
    builder: RunBuilder<'_>,
    shown: fn(&Metrics) -> String,
) -> (Observed, usize, RunOutcome) {
    let journal = Journal::new();
    let mem = MemWal::new();
    let writer = WalWriter::new(Box::new(mem.clone()), DurabilityPolicy::Buffered, seed);
    let out = builder
        .sink(Box::new(journal.clone()))
        .durability(writer, 0)
        .run();
    let (mut log, clean) = read_records(&mem.contents());
    assert_eq!(clean, mem.len(), "seed {seed}: torn log");
    let records = log.len();
    log.retain(|r| !matches!(r, WalRecord::EpochSeal { .. }));
    let seals = records - log.len();
    let history = render(out.history());
    let observation = (history, shown(out.metrics()), journal.snapshot(), log);
    (observation, seals, out)
}

/// Over every seed, the observation at each epoch equals the one at epoch 0,
/// and the log holds a seal per `max(epoch, 1)` events. `run` returns the
/// observation, the seal count and the history length, having asserted the
/// run safe.
fn assert_independent(run: impl Fn(&Workload, u64, usize) -> (Observed, (usize, usize))) {
    for seed in 0..SEEDS {
        let w = workload(seed);
        let (base, _) = run(&w, seed, EPOCHS[0]);
        for epoch in EPOCHS {
            let (at_epoch, (seals, events)) = run(&w, seed, epoch);
            assert_eq!(base, at_epoch, "seed {seed} epoch {epoch}");
            assert_eq!(seals, events / epoch.max(1), "seed {seed} epoch {epoch}");
        }
    }
}

/// Every process of the five terminated and the history is PRED.
fn assert_terminated_and_pred(w: &Workload, out: &RunOutcome, what: &str) {
    assert_eq!(out.metrics().terminated(), 5, "{what}");
    assert!(
        is_pred(&w.spec, out.history()).unwrap(),
        "{what}: history not PRED:\n{}",
        render(out.history())
    );
}

#[test]
fn engine_runs_are_independent_of_the_epoch() {
    assert_independent(|w, seed, epoch| {
        let cfg = RunConfig {
            seed,
            epoch,
            ..RunConfig::default()
        };
        let (observation, seals, out) =
            observed(seed, RunBuilder::new(w).config(cfg), |m| format!("{m:?}"));
        let engine = out.into_engine();
        assert!(
            engine.stalled.is_empty(),
            "seed {seed} epoch {epoch}: stalled"
        );
        let pred = is_pred(&w.spec, &engine.history).unwrap();
        assert!(pred, "seed {seed} epoch {epoch}");
        (observation, (seals, engine.history.len()))
    });
}

#[test]
fn concurrent_runs_are_independent_of_the_epoch() {
    // One worker + closed arrivals is the deterministic configuration of
    // the concurrent driver (see its module docs), so the runs see the same
    // interleaving and only the epoch differs.
    assert_independent(|w, seed, epoch| {
        let cfg = ConcurrentConfig {
            seed,
            shards: ShardMode::Auto,
            workers: Some(1),
            epoch,
            ..ConcurrentConfig::default()
        };
        let (observation, seals, out) = observed(seed, RunBuilder::new(w).concurrent(cfg), counts);
        assert_terminated_and_pred(w, &out, &format!("seed {seed} epoch {epoch}"));
        (observation, (seals, out.history().len()))
    });
}

#[test]
fn default_worker_concurrent_histories_stay_pred() {
    // The independence oracle pins one worker; real interleavings are not
    // comparable run to run, but each must still terminate and be PRED.
    for seed in 0..16 {
        let w = workload(seed);
        let cfg = ConcurrentConfig {
            seed,
            epoch: 16,
            ..ConcurrentConfig::default()
        };
        let (_, _, out) = observed(seed, RunBuilder::new(&w).concurrent(cfg), counts);
        assert_terminated_and_pred(&w, &out, &format!("seed {seed}"));
    }
}
