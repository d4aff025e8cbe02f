//! Scheduler perf trajectory: scalability scenarios over the virtual-time
//! engine and the concurrent driver, written to `BENCH_scheduler.json` so
//! later PRs can detect regressions (E19): wall-clock per full run at 8→256
//! processes and several conflict densities, per policy — `pred-protocol`
//! (the Lemma 1–3 rules alone), `pred` (plus certification) and `serial`.
//! (The protocol layer alone is the criterion group `protocol`; the scan
//! formulation E19 first measured it against is test support now.)

use crate::scenarios::{run_gauntlet, GauntletConfig, ScenarioReport};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use txproc_core::domains::DomainPartition;
use txproc_core::ids::ProcessId;
use txproc_core::pred_incremental::check_pred_incremental;
use txproc_core::recoverability::proc_rec_violations;
use txproc_core::schedule::{Event, Schedule};
use txproc_core::spec::Spec;
use txproc_core::telemetry::Telemetry;
use txproc_core::trace::{JsonlSink, NoopSink, RingSink, TraceSink};
use txproc_core::wal::{read_wal_file, DurabilityPolicy, FileWal, WalRecord, WalWriter};
use txproc_engine::concurrent::{run_concurrent, ConcurrentConfig, ShardMode};
use txproc_engine::durability::rebuild_image;
use txproc_engine::engine::{run, Engine, RunConfig};
use txproc_engine::policy::PolicyKind;
use txproc_engine::recovery::recover;
use txproc_engine::RunBuilder;
use txproc_sim::metrics::AbortReasons;
use txproc_sim::workload::{generate, ArrivalModel, Workload, WorkloadConfig};

/// Configuration of a scheduler bench run.
#[derive(Debug, Clone, Serialize)]
pub struct SchedulerBenchConfig {
    /// Smoke mode: minimal sizes, CI-friendly wall time.
    pub smoke: bool,
    /// Workload seed.
    pub seed: u64,
    /// Process counts to sweep.
    pub processes: Vec<usize>,
    /// Conflict densities to sweep.
    pub densities: Vec<f64>,
    /// Policies to compare.
    pub policies: Vec<PolicyKind>,
    /// Virtual time between arrivals (engine runs).
    pub arrival_gap: u64,
    /// Failure-injection probability.
    pub failure_probability: f64,
    /// Worker-pool override of the concurrent driver (`None` = auto:
    /// `min(cores, shards)`).
    pub workers: Option<usize>,
    /// In-flight process counts of the open-arrival sweep (Poisson
    /// arrivals; empty disables it).
    pub open_processes: Vec<usize>,
    /// Mean Poisson inter-arrival gap of the open sweep, in microseconds.
    pub open_mean_gap_us: u64,
    /// Shard topology for concurrent sweep entries.
    pub shards: ShardMode,
    /// Cluster count (disjoint tenants) of the dedicated sharding
    /// comparison workload; 0 disables the comparison sweep.
    pub sharding_clusters: usize,
    /// Process count of the sharding comparison workload (larger than the
    /// general concurrent cap: the single-vs-auto contrast is the point of
    /// that pair, and it grows with scale).
    pub sharding_processes: usize,
    /// Seeds per named scenario in the gauntlet section (0 skips it).
    pub gauntlet_seeds: u64,
    /// Epoch size of the dedicated epoch sweep (group certification and
    /// batch commit): the highest density is re-driven with this epoch under
    /// the Pred policy on both drivers, next to per-event baselines. 0
    /// disables the sweep.
    pub epoch: usize,
    /// Process count of the durability sweep (E26): the highest-density
    /// engine point re-driven with a file-backed WAL under each fsync
    /// policy, plus the recovery-time-vs-log-length rows. 0 disables it.
    pub durability_processes: usize,
}

impl SchedulerBenchConfig {
    /// The full trajectory: 8→256 processes, two densities, protocol-only
    /// vs certified vs serial.
    pub fn full() -> Self {
        Self {
            smoke: false,
            seed: 3,
            processes: vec![8, 16, 32, 64, 128, 256],
            densities: vec![0.3, 0.6],
            policies: vec![
                PolicyKind::PredProtocol,
                PolicyKind::Pred,
                PolicyKind::Serial,
            ],
            arrival_gap: 0,
            failure_probability: 0.1,
            workers: None,
            open_processes: vec![1_000, 10_000, 100_000],
            open_mean_gap_us: 20,
            shards: ShardMode::Auto,
            sharding_clusters: 8,
            sharding_processes: 128,
            gauntlet_seeds: 128,
            epoch: 16,
            durability_processes: 256,
        }
    }

    /// CI smoke mode: the same pipeline at token sizes. Keeps one 1k-process
    /// open-arrival point: a blocked process must stay a queue entry, and
    /// this is the cheapest regression guard for it.
    pub fn smoke() -> Self {
        Self {
            smoke: true,
            processes: vec![8, 32],
            densities: vec![0.3],
            policies: vec![PolicyKind::PredProtocol],
            open_processes: vec![1_000],
            open_mean_gap_us: 50,
            sharding_clusters: 4,
            sharding_processes: 16,
            gauntlet_seeds: 4,
            durability_processes: 16,
            ..Self::full()
        }
    }
}

/// One end-to-end run measurement.
#[derive(Debug, Clone, Serialize)]
pub struct BenchEntry {
    /// `engine` (virtual time) or `concurrent` (wall-clock worker pool).
    pub mode: &'static str,
    /// Policy label.
    pub policy: String,
    /// Processes in the workload.
    pub processes: usize,
    /// Conflict density of the workload.
    pub density: f64,
    /// Wall-clock milliseconds for the run.
    pub wall_ms: f64,
    /// Emitted history events.
    pub events: usize,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Committed processes.
    pub committed: u64,
    /// Aborted processes.
    pub aborted: u64,
    /// Makespan: virtual ticks for engine runs, wall-clock microseconds
    /// for concurrent runs.
    pub makespan: u64,
    /// Latency p50: virtual ticks (engine) or wall-clock µs (concurrent).
    pub latency_p50: Option<u64>,
    /// Latency p95: virtual ticks (engine) or wall-clock µs (concurrent).
    pub latency_p95: Option<u64>,
    /// Shard topology label (concurrent runs only).
    pub shard_mode: Option<String>,
    /// Scheduler shards the run used (0 for engine runs).
    pub shards: u64,
    /// Disjoint tenant clusters in the workload (1 = classic single pool).
    pub clusters: usize,
    /// Runtime label of concurrent entries (`events`, the worker pool);
    /// `None` for engine entries.
    pub runtime: Option<String>,
    /// Worker threads the pool used (0 for engine entries).
    pub workers: u64,
    /// Peak single-shard run-queue depth (concurrent runs; 0 elsewhere).
    pub run_queue_peak: u64,
    /// Peak concurrently in-flight processes (concurrent runs; 0 for
    /// engine entries).
    pub in_flight_peak: u64,
    /// Scheduling-delay p50 upper bucket edge, ns (concurrent runs).
    pub sched_delay_p50_ns: Option<u64>,
    /// Scheduling-delay p95 upper bucket edge, ns (concurrent runs).
    pub sched_delay_p95_ns: Option<u64>,
    /// Total virtual time processes spent blocked (engine runs; the
    /// concurrent driver has no virtual clock and reports 0).
    pub blocked_time_total: u64,
    /// Certification attempts answered "not PRED".
    pub cert_failures: u64,
    /// Abort initiations broken down by first cause.
    pub abort_reasons: AbortReasons,
    /// Epoch size the run used (0 = per-event path).
    pub epoch: usize,
    /// Durability-policy label of WAL-journaled runs (schema v8); `None`
    /// when the run wrote no WAL.
    pub durability: Option<String>,
}

/// One open-arrival (Poisson) sweep point: the worker pool carrying a large
/// in-flight population, with the merged history verified domain by domain
/// (E23).
#[derive(Debug, Clone, Serialize)]
pub struct OpenRunEntry {
    /// Processes in the workload.
    pub processes: usize,
    /// Disjoint tenant clusters of the workload.
    pub clusters: usize,
    /// Mean Poisson inter-arrival gap, µs.
    pub mean_gap_us: u64,
    /// Conflict density of the workload.
    pub density: f64,
    /// Scheduler shards the run used.
    pub shards: u64,
    /// Worker threads of the pool.
    pub workers: u64,
    /// Wall-clock milliseconds for the run (excludes verification).
    pub wall_ms: f64,
    /// Emitted history events.
    pub events: usize,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Committed processes.
    pub committed: u64,
    /// Aborted processes.
    pub aborted: u64,
    /// Peak concurrently in-flight (arrived, not terminated) processes.
    pub in_flight_peak: u64,
    /// Peak single-shard run-queue depth.
    pub run_queue_peak: u64,
    /// Scheduling-delay p50 upper bucket edge, ns.
    pub sched_delay_p50_ns: Option<u64>,
    /// Scheduling-delay p95 upper bucket edge, ns.
    pub sched_delay_p95_ns: Option<u64>,
    /// Fraction of worker wall-time spent stepping state machines.
    pub worker_utilization: f64,
    /// Conflict domains the history was verified over.
    pub domains_verified: usize,
    /// Domains whose projected history failed the PRED check (must be 0).
    pub pred_violations: u64,
    /// Domains whose projected history had Proc-REC violations (must be 0).
    pub proc_rec_violations: u64,
    /// Wall-clock milliseconds spent on the per-domain verification.
    pub verify_ms: f64,
}

/// One tracing-overhead measurement (E20): the same engine run driven with
/// different trace sinks attached.
#[derive(Debug, Clone, Serialize)]
pub struct TraceOverheadEntry {
    /// `none` (untraced baseline), `noop`, `ring-4096` or `jsonl-devnull`.
    pub sink: &'static str,
    /// Processes in the workload.
    pub processes: usize,
    /// Conflict density of the workload.
    pub density: f64,
    /// Median wall-clock milliseconds for the run.
    pub wall_ms: f64,
    /// Overhead relative to the untraced baseline, in percent.
    pub overhead_pct: f64,
}

/// One per-phase wall-time row of an instrumented run (schema v6): where a
/// driver's wall clock goes, split into the telemetry phases (certify, lock
/// wait/hold, queue delay, 2PC prepare→decide, compensation, policy).
#[derive(Debug, Clone, Serialize)]
pub struct PhaseBreakdownEntry {
    /// `engine` (virtual time) or `concurrent` (wall clock).
    pub mode: &'static str,
    /// Processes in the workload.
    pub processes: usize,
    /// Conflict density of the workload.
    pub density: f64,
    /// Phase name (snake_case, matches the Prometheus metric names).
    pub phase: String,
    /// Recorded intervals.
    pub count: u64,
    /// Total wall milliseconds across all intervals.
    pub total_ms: f64,
    /// p50 upper bucket edge, ns (log₂ resolution; 0 when empty).
    pub p50_ns: u64,
    /// p95 upper bucket edge, ns.
    pub p95_ns: u64,
    /// Max upper bucket edge, ns.
    pub max_ns: u64,
}

/// One telemetry-overhead measurement (E24): the same run driven with the
/// registry disabled vs enabled, min-of-N wall clock (same estimator as the
/// E20 trace-overhead rows). Acceptance: `overhead_pct <= 3.0` on the
/// closed sweep.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryOverheadEntry {
    /// `engine` or `concurrent`.
    pub mode: &'static str,
    /// Processes in the workload.
    pub processes: usize,
    /// Conflict density of the workload.
    pub density: f64,
    /// Min-of-N wall milliseconds with telemetry disabled.
    pub wall_ms_off: f64,
    /// Min-of-N wall milliseconds with telemetry enabled.
    pub wall_ms_on: f64,
    /// `(on - off) / off`, percent.
    pub overhead_pct: f64,
}

/// One fsync-policy throughput point (E26, schema v8): the highest-density
/// engine sweep point re-driven with a file-backed WAL under one
/// [`DurabilityPolicy`], against the unlogged run as the baseline. The
/// write-ahead appends sit on the run's critical path, so the ratio is the
/// real price of each durability level.
#[derive(Debug, Clone, Serialize)]
pub struct DurabilityBenchEntry {
    /// Durability-policy label (`buffered`, `fsync-1`, `fsync-epoch`, …).
    pub policy: String,
    /// Processes of the workload.
    pub processes: usize,
    /// Conflict density of the workload.
    pub density: f64,
    /// Epoch size of the run (fsync-epoch groups its syncs on this).
    pub epoch: usize,
    /// Emitted history events.
    pub events: usize,
    /// Wall-clock milliseconds for the run.
    pub wall_ms: f64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Records the run appended to the WAL.
    pub wal_records: usize,
    /// Bytes the WAL occupies on disk after the run.
    pub wal_bytes: u64,
    /// `events_per_sec / unlogged events_per_sec` — the durability tax.
    pub throughput_vs_unlogged: f64,
    /// Milliseconds to stream the run's full record sequence through a
    /// fresh file-backed writer under this policy — the durability layer
    /// in isolation, with the engine's compute out of the denominator.
    pub wal_only_ms: f64,
    /// Records per second through the isolated writer.
    pub wal_only_records_per_sec: f64,
    /// Fsyncs the isolated writer issued (policy-determined).
    pub wal_only_syncs: u64,
}

/// One recovery-time point (E26, schema v8): a crash image rebuilt from a
/// WAL prefix of the given length, then recovered (group abort +
/// completion replay). Snapshot rows show the log-tail shortcut: replay
/// starts at the newest snapshot instead of the log head.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryBenchEntry {
    /// Records in the replayed log prefix.
    pub log_records: usize,
    /// Bytes in the replayed log prefix.
    pub log_bytes: usize,
    /// Snapshot cadence the writing run used (0 = no snapshots).
    pub snapshot_every: usize,
    /// History events in the rebuilt image.
    pub history_events: usize,
    /// Milliseconds to rebuild the crash image from the log.
    pub rebuild_ms: f64,
    /// Milliseconds for PRED recovery (group abort + completions) on it.
    pub recover_ms: f64,
}

/// The full report written to `BENCH_scheduler.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Format tag.
    pub schema: &'static str,
    /// Unix timestamp of the run.
    pub created_unix: u64,
    /// The configuration that produced it.
    pub config: SchedulerBenchConfig,
    /// End-to-end entries (engine + concurrent driver).
    pub runs: Vec<BenchEntry>,
    /// Open-arrival sweep of the concurrent driver.
    pub open_runs: Vec<OpenRunEntry>,
    /// Named-scenario gauntlet results: every scenario over
    /// `config.gauntlet_seeds` seeds, engine + sharded concurrent, with
    /// PRED/Proc-REC verdicts and envelope checks.
    pub scenarios: Vec<ScenarioReport>,
    /// Tracing overhead per sink (E20).
    pub trace_overhead: Vec<TraceOverheadEntry>,
    /// Per-phase wall-time breakdown of an instrumented run per driver
    /// (schema v6).
    pub phases: Vec<PhaseBreakdownEntry>,
    /// Telemetry on-vs-off overhead per driver (E24; schema v6).
    pub telemetry_overhead: Vec<TelemetryOverheadEntry>,
    /// Fsync-policy throughput sweep (E26; schema v8).
    pub durability: Vec<DurabilityBenchEntry>,
    /// Recovery-time-vs-log-length rows (E26; schema v8).
    pub recovery: Vec<RecoveryBenchEntry>,
    /// Coverage notes (anything capped or skipped, never silent).
    pub notes: Vec<String>,
}

/// Bench workloads use longer processes than the defaults so protocol
/// decisions (not fixed engine overhead) dominate.
fn bench_workload(seed: u64, processes: usize, density: f64, failures: f64) -> Workload {
    generate(&WorkloadConfig {
        seed,
        processes,
        conflict_density: density,
        failure_probability: failures,
        prefix_len: (2, 5),
        tail_len: (1, 3),
        alternative_probability: 0.5,
        ..WorkloadConfig::default()
    })
}

fn engine_entry(
    cfg: &SchedulerBenchConfig,
    w: &Workload,
    policy: PolicyKind,
    epoch: usize,
) -> BenchEntry {
    engine_entry_wal(cfg, w, policy, epoch, None)
}

/// Engine entry, optionally journaled through a file-backed WAL
/// (`(policy, snapshot cadence, path)`). The WAL variant drives the run
/// through [`RunBuilder`], so the bench measures the same path users take.
fn engine_entry_wal(
    cfg: &SchedulerBenchConfig,
    w: &Workload,
    policy: PolicyKind,
    epoch: usize,
    wal: Option<(DurabilityPolicy, usize, &std::path::Path)>,
) -> BenchEntry {
    let run_cfg = RunConfig {
        policy,
        seed: cfg.seed,
        arrival_gap: cfg.arrival_gap,
        epoch,
        ..RunConfig::default()
    };
    let t = Instant::now();
    let r = match &wal {
        None => run(w, run_cfg),
        Some((dpolicy, snapshot_every, path)) => {
            let file = FileWal::create(path).expect("create bench WAL file");
            let writer = WalWriter::new(Box::new(file), *dpolicy, cfg.seed);
            RunBuilder::new(w)
                .config(run_cfg)
                .durability(writer, *snapshot_every)
                .run()
                .into_engine()
        }
    };
    let wall = t.elapsed();
    let events = r.history.events().len();
    BenchEntry {
        mode: "engine",
        policy: policy.label().to_string(),
        processes: w.spec.process_count(),
        density: w.config.conflict_density,
        wall_ms: wall.as_secs_f64() * 1e3,
        events,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        committed: r.metrics.committed,
        aborted: r.metrics.aborted,
        makespan: r.metrics.makespan,
        latency_p50: r.metrics.latency_percentile(0.5),
        latency_p95: r.metrics.latency_percentile(0.95),
        shard_mode: None,
        shards: 0,
        clusters: w.config.clusters.max(1),
        blocked_time_total: r.metrics.blocked_total(),
        cert_failures: r.metrics.cert_failures,
        abort_reasons: r.metrics.abort_reasons,
        runtime: None,
        workers: 0,
        run_queue_peak: 0,
        in_flight_peak: 0,
        sched_delay_p50_ns: None,
        sched_delay_p95_ns: None,
        epoch,
        durability: wal.map(|(dpolicy, _, _)| dpolicy.label()),
    }
}

fn concurrent_entry(
    cfg: &SchedulerBenchConfig,
    w: &Workload,
    policy: PolicyKind,
    shards: ShardMode,
    epoch: usize,
) -> BenchEntry {
    let t = Instant::now();
    let r = run_concurrent(
        w,
        ConcurrentConfig {
            policy,
            seed: cfg.seed,
            shards,
            workers: cfg.workers,
            epoch,
            ..ConcurrentConfig::default()
        },
    );
    let wall = t.elapsed();
    let events = r.history.events().len();
    let rt = r.metrics.runtime.as_ref();
    BenchEntry {
        mode: "concurrent",
        policy: policy.label().to_string(),
        processes: w.spec.process_count(),
        density: w.config.conflict_density,
        wall_ms: wall.as_secs_f64() * 1e3,
        events,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        committed: r.metrics.committed,
        aborted: r.metrics.aborted,
        makespan: r.metrics.makespan,
        latency_p50: r.metrics.latency_percentile(0.5),
        latency_p95: r.metrics.latency_percentile(0.95),
        shard_mode: Some(shards.label()),
        shards: r.metrics.shards.len() as u64,
        clusters: w.config.clusters.max(1),
        blocked_time_total: r.metrics.blocked_total(),
        cert_failures: r.metrics.cert_failures,
        abort_reasons: r.metrics.abort_reasons,
        runtime: rt.map(|m| m.runtime.clone()),
        workers: rt.map_or(0, |m| m.workers),
        run_queue_peak: rt.map_or(0, |m| m.run_queue_peak),
        in_flight_peak: rt.map_or(0, |m| m.in_flight_peak),
        sched_delay_p50_ns: rt.and_then(|m| m.delay_percentile_ns(0.5)),
        sched_delay_p95_ns: rt.and_then(|m| m.delay_percentile_ns(0.95)),
        epoch,
        durability: None,
    }
}

/// Verifies a concurrent history **domain by domain**: events are projected
/// onto the conflict domain of their process and each projection is checked
/// for PRED and Proc-REC separately. Sound and complete for these
/// workloads: the domain partition guarantees operations of different
/// domains never conflict, so cross-domain events commute freely — the full
/// history is PRED iff every domain projection is, and Proc-REC obligations
/// only ever relate conflicting (hence same-domain) pairs. The projection
/// turns the batch checkers' superlinear cost in history length into a sum
/// of small per-domain checks, which is what makes verifying a
/// 100k-process history feasible at all.
fn verify_by_domain(spec: &Spec, history: &Schedule) -> (u64, u64, usize) {
    let partition = DomainPartition::partition(spec);
    let mut per: BTreeMap<u32, Schedule> = BTreeMap::new();
    for e in history.events() {
        match e {
            Event::Execute(g) | Event::Fail(g) | Event::Compensate(g) => {
                if let Some(d) = partition.domain_of(g.process) {
                    per.entry(d).or_default().push(e.clone());
                }
            }
            Event::Commit(p) | Event::Abort(p) => {
                if let Some(d) = partition.domain_of(*p) {
                    per.entry(d).or_default().push(e.clone());
                }
            }
            // Group aborts are always domain-local (cascades follow
            // conflict edges), but split defensively all the same.
            Event::GroupAbort(ps) => {
                let mut by_domain: BTreeMap<u32, Vec<ProcessId>> = BTreeMap::new();
                for p in ps {
                    if let Some(d) = partition.domain_of(*p) {
                        by_domain.entry(d).or_default().push(*p);
                    }
                }
                for (d, members) in by_domain {
                    per.entry(d).or_default().group_abort(members);
                }
            }
        }
    }
    let mut pred_bad = 0u64;
    let mut proc_rec_bad = 0u64;
    let domains = per.len();
    for s in per.values() {
        pred_bad += match check_pred_incremental(spec, s) {
            Ok(report) => u64::from(!report.pred),
            Err(_) => 1,
        };
        proc_rec_bad += match proc_rec_violations(spec, s) {
            Ok(v) => u64::from(!v.is_empty()),
            Err(_) => 1,
        };
    }
    (pred_bad, proc_rec_bad, domains)
}

/// One open-arrival sweep point: Poisson arrivals at `cfg.open_mean_gap_us`
/// mean gap, clusters scaled as ≈ n/96 so the catalog (and the dense
/// conflict bitmap behind it) grows linearly while each conflict domain
/// stays small enough for per-domain verification.
pub(crate) fn open_run_entry(cfg: &SchedulerBenchConfig, n: usize) -> OpenRunEntry {
    let clusters = (n / 96).max(1);
    let density = cfg.densities.first().copied().unwrap_or(0.3);
    let w = generate(&WorkloadConfig {
        seed: cfg.seed,
        processes: n,
        clusters,
        services_per_kind: 4,
        subsystems: 2,
        conflict_density: density,
        failure_probability: cfg.failure_probability,
        arrivals: ArrivalModel::Poisson {
            mean_gap: cfg.open_mean_gap_us.max(1),
        },
        ..WorkloadConfig::default()
    });
    let t = Instant::now();
    let r = run_concurrent(
        &w,
        ConcurrentConfig {
            policy: PolicyKind::Pred,
            seed: cfg.seed,
            shards: cfg.shards,
            workers: cfg.workers,
            ..ConcurrentConfig::default()
        },
    );
    let wall = t.elapsed();
    let events = r.history.events().len();
    let tv = Instant::now();
    let (pred_bad, proc_rec_bad, domains) = verify_by_domain(&w.spec, &r.history);
    let verify_ms = tv.elapsed().as_secs_f64() * 1e3;
    let rt = r.metrics.runtime.as_ref();
    OpenRunEntry {
        processes: n,
        clusters,
        mean_gap_us: cfg.open_mean_gap_us.max(1),
        density,
        shards: r.metrics.shards.len() as u64,
        workers: rt.map_or(0, |m| m.workers),
        wall_ms: wall.as_secs_f64() * 1e3,
        events,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        committed: r.metrics.committed,
        aborted: r.metrics.aborted,
        in_flight_peak: rt.map_or(0, |m| m.in_flight_peak),
        run_queue_peak: rt.map_or(0, |m| m.run_queue_peak),
        sched_delay_p50_ns: rt.and_then(|m| m.delay_percentile_ns(0.5)),
        sched_delay_p95_ns: rt.and_then(|m| m.delay_percentile_ns(0.95)),
        worker_utilization: rt.map_or(0.0, |m| m.utilization()),
        domains_verified: domains,
        pred_violations: pred_bad,
        proc_rec_violations: proc_rec_bad,
        verify_ms,
    }
}

/// E20: the same engine run with different trace sinks. Minimum of several
/// repetitions: for a CPU-bound deterministic run the minimum is the noise
/// floor — every source of interference (scheduler hiccups, cache eviction
/// by neighbours) only ever adds time, so min-of-N is the robust estimator
/// of the true cost and a median at this scale can fake a few percent
/// either way.
pub fn trace_overhead_bench(cfg: &SchedulerBenchConfig) -> Vec<TraceOverheadEntry> {
    let density = cfg.densities.first().copied().unwrap_or(0.3);
    let n = cfg.processes.iter().copied().max().unwrap_or(8);
    let w = bench_workload(cfg.seed, n, density, cfg.failure_probability);
    let run_cfg = RunConfig {
        policy: PolicyKind::Pred,
        seed: cfg.seed,
        arrival_gap: cfg.arrival_gap,
        ..RunConfig::default()
    };
    let reps = if cfg.smoke { 7 } else { 9 };
    let min_ms = |mk: &dyn Fn() -> Box<dyn TraceSink>| -> f64 {
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                let _ = std::hint::black_box(
                    txproc_engine::RunBuilder::new(&w)
                        .config(run_cfg.clone())
                        .sink(mk())
                        .run(),
                );
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    // The untraced baseline is the public constructor (which installs the
    // no-op sink itself); `noop` measures the explicit sink path.
    let baseline = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let _ = std::hint::black_box(run(&w, run_cfg.clone()));
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    let mut out = vec![TraceOverheadEntry {
        sink: "none",
        processes: n,
        density,
        wall_ms: baseline,
        overhead_pct: 0.0,
    }];
    type MkSink<'a> = &'a dyn Fn() -> Box<dyn TraceSink>;
    let sinks: [(&'static str, MkSink<'_>); 3] = [
        ("noop", &|| Box::new(NoopSink)),
        ("ring-4096", &|| Box::new(RingSink::new(4096))),
        ("jsonl-devnull", &|| {
            Box::new(JsonlSink::new(std::io::sink()))
        }),
    ];
    for (name, mk) in sinks {
        let ms = min_ms(mk);
        out.push(TraceOverheadEntry {
            sink: name,
            processes: n,
            density,
            wall_ms: ms,
            overhead_pct: (ms - baseline) / baseline.max(1e-9) * 100.0,
        });
    }
    out
}

/// The per-phase breakdown of one instrumented run per driver, at the
/// largest closed sweep point: engine (virtual-time) and concurrent (wall
/// clock), Pred policy. The phase clocks are wall time in both drivers.
pub fn phase_breakdown_bench(cfg: &SchedulerBenchConfig) -> Vec<PhaseBreakdownEntry> {
    let density = cfg.densities.first().copied().unwrap_or(0.3);
    let n = cfg.processes.iter().copied().max().unwrap_or(8);
    let w = bench_workload(cfg.seed, n, density, cfg.failure_probability);
    let mut out = Vec::new();
    let mut push = |mode: &'static str, tele: &Telemetry| {
        let Some(snap) = tele.snapshot() else { return };
        for p in &snap.phases {
            out.push(PhaseBreakdownEntry {
                mode,
                processes: n,
                density,
                phase: p.phase.clone(),
                count: p.count,
                total_ms: p.total_ns as f64 / 1e6,
                p50_ns: p.p50_ns,
                p95_ns: p.p95_ns,
                max_ns: p.max_ns,
            });
        }
    };
    let tele = Telemetry::on();
    let _ = txproc_engine::RunBuilder::new(&w)
        .config(RunConfig {
            policy: PolicyKind::Pred,
            seed: cfg.seed,
            arrival_gap: cfg.arrival_gap,
            ..RunConfig::default()
        })
        .telemetry(tele.clone())
        .run();
    push("engine", &tele);
    let tele = Telemetry::on();
    let _ = txproc_engine::RunBuilder::new(&w)
        .concurrent(ConcurrentConfig {
            policy: PolicyKind::Pred,
            seed: cfg.seed,
            shards: cfg.shards,
            workers: cfg.workers,
            ..ConcurrentConfig::default()
        })
        .telemetry(tele.clone())
        .run();
    push("concurrent", &tele);
    out
}

/// E24: telemetry on-vs-off wall clock per driver at the largest closed
/// sweep point, min-of-N (the minimum is the noise floor for a CPU-bound
/// run — see [`trace_overhead_bench`]).
pub fn telemetry_overhead_bench(cfg: &SchedulerBenchConfig) -> Vec<TelemetryOverheadEntry> {
    let density = cfg.densities.first().copied().unwrap_or(0.3);
    let n = cfg.processes.iter().copied().max().unwrap_or(8);
    let w = bench_workload(cfg.seed, n, density, cfg.failure_probability);
    let reps = if cfg.smoke { 7 } else { 9 };
    let run_cfg = RunConfig {
        policy: PolicyKind::Pred,
        seed: cfg.seed,
        arrival_gap: cfg.arrival_gap,
        ..RunConfig::default()
    };
    let conc_cfg = ConcurrentConfig {
        policy: PolicyKind::Pred,
        seed: cfg.seed,
        shards: cfg.shards,
        workers: cfg.workers,
        ..ConcurrentConfig::default()
    };
    let min_ms = |f: &dyn Fn()| -> f64 {
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let mut out = Vec::new();
    for (mode, off, on) in [
        (
            "engine",
            &(|| {
                let _ = std::hint::black_box(run(&w, run_cfg.clone()));
            }) as &dyn Fn(),
            &(|| {
                let _ = std::hint::black_box(
                    txproc_engine::RunBuilder::new(&w)
                        .config(run_cfg.clone())
                        .telemetry(Telemetry::on())
                        .run(),
                );
            }) as &dyn Fn(),
        ),
        (
            "concurrent",
            &(|| {
                let _ = std::hint::black_box(run_concurrent(&w, conc_cfg.clone()));
            }) as &dyn Fn(),
            &(|| {
                let _ = std::hint::black_box(
                    txproc_engine::RunBuilder::new(&w)
                        .concurrent(conc_cfg.clone())
                        .telemetry(Telemetry::on())
                        .run(),
                );
            }) as &dyn Fn(),
        ),
    ] {
        let wall_off = min_ms(off);
        let wall_on = min_ms(on);
        out.push(TelemetryOverheadEntry {
            mode,
            processes: n,
            density,
            wall_ms_off: wall_off,
            wall_ms_on: wall_on,
            overhead_pct: (wall_on - wall_off) / wall_off.max(1e-9) * 100.0,
        });
    }
    out
}

/// Streams an already-recorded WAL sequence through a fresh file-backed
/// writer under `policy`, returning (wall ms, fsyncs issued). Epoch seals
/// go through [`WalWriter::seal_epoch`] so `FsyncPerEpoch` groups its
/// syncs exactly as it did during the original run.
fn replay_records_through(
    dir: &std::path::Path,
    policy: DurabilityPolicy,
    seed: u64,
    records: &[WalRecord],
) -> (f64, u64) {
    let path = dir.join(format!("isolated-{}.wal", policy.label()));
    let Ok(file) = FileWal::create(&path) else {
        return (f64::NAN, 0);
    };
    let t = Instant::now();
    let mut writer = WalWriter::new(Box::new(file), policy, seed);
    for record in records {
        match record {
            // `new` already appended the header.
            WalRecord::Begin { .. } => {}
            // `seal_epoch` appends the seal record itself.
            WalRecord::EpochSeal { epoch } => writer.seal_epoch(*epoch),
            other => writer.append(other),
        }
    }
    writer.finish();
    let syncs = writer.syncs();
    (t.elapsed().as_secs_f64() * 1e3, syncs)
}

/// E26: fsync-policy throughput sweep plus recovery-time-vs-log-length
/// rows, at the highest-density point with `cfg.durability_processes`
/// processes. WAL files live in (and are removed from) a temp directory of
/// this call's own — sweeps of one process may run side by side, as the
/// tests of one test binary do; the journaled [`BenchEntry`] rows are
/// appended to `runs`.
pub fn durability_bench(
    cfg: &SchedulerBenchConfig,
    runs: &mut Vec<BenchEntry>,
    notes: &mut Vec<String>,
) -> (Vec<DurabilityBenchEntry>, Vec<RecoveryBenchEntry>) {
    let n = cfg.durability_processes;
    if n == 0 {
        notes.push("durability sweep skipped (durability_processes = 0)".to_string());
        return (Vec::new(), Vec::new());
    }
    let density = cfg.densities.iter().copied().fold(0.3, f64::max);
    let epoch = cfg.epoch.max(1);
    let w = bench_workload(cfg.seed, n, density, cfg.failure_probability);
    static SWEEPS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "txproc-bench-wal-{}-{}",
        std::process::id(),
        SWEEPS.fetch_add(1, Ordering::Relaxed)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        notes.push(format!("durability sweep skipped: temp dir failed ({e})"));
        return (Vec::new(), Vec::new());
    }

    // Unlogged baseline: same workload, policy, and epoch, no WAL.
    let unlogged = engine_entry(cfg, &w, PolicyKind::Pred, epoch);
    let baseline_eps = unlogged.events_per_sec.max(1e-9);

    let policies = [
        DurabilityPolicy::Buffered,
        DurabilityPolicy::FsyncPerEpoch,
        DurabilityPolicy::FsyncEveryN(8),
        DurabilityPolicy::FsyncEveryN(1),
    ];
    // End-to-end pass: the engine run re-driven with the WAL on its
    // critical path. The record *content* is policy-independent (same
    // deterministic run), so the buffered file doubles as the replay
    // stream for the isolated pass below.
    let mut measured = Vec::new();
    for dpolicy in policies {
        let path = dir.join(format!("throughput-{}.wal", dpolicy.label()));
        let entry = engine_entry_wal(cfg, &w, PolicyKind::Pred, epoch, Some((dpolicy, 64, &path)));
        let wal_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let wal_records = read_wal_file(&path).map(|(r, _)| r.len()).unwrap_or(0);
        measured.push((dpolicy, entry, wal_records, wal_bytes));
    }
    let stream = read_wal_file(&dir.join("throughput-buffered.wal"))
        .map(|(r, _)| r)
        .unwrap_or_default();

    // Isolated pass: stream the same records through a fresh writer per
    // policy. End-to-end numbers dilute the fsync cost with engine compute;
    // this is the durability layer alone, where the policy *is* the cost.
    let mut durability = Vec::new();
    for (dpolicy, entry, wal_records, wal_bytes) in measured {
        let (wal_only_ms, wal_only_syncs) =
            replay_records_through(&dir, dpolicy, cfg.seed, &stream);
        durability.push(DurabilityBenchEntry {
            policy: dpolicy.label(),
            processes: n,
            density,
            epoch,
            events: entry.events,
            wall_ms: entry.wall_ms,
            events_per_sec: entry.events_per_sec,
            wal_records,
            wal_bytes,
            throughput_vs_unlogged: entry.events_per_sec / baseline_eps,
            wal_only_ms,
            wal_only_records_per_sec: stream.len() as f64 / (wal_only_ms / 1e3).max(1e-9),
            wal_only_syncs,
        });
        runs.push(entry);
    }
    let entry_of = |label: &str| durability.iter().find(|e| e.policy == label);
    if let (Some(group), Some(per_record)) = (entry_of("fsync-epoch"), entry_of("fsync-1")) {
        notes.push(format!(
            "durability (E26): WAL-only, fsync-epoch appends at {:.1}x the rate of fsync-1 \
             ({} vs {} fsyncs over {} records, n={n} d={density} epoch {epoch}; acceptance \
             floor 2x); end-to-end engine throughput ratio {:.2}x; buffered runs at {:.2}x \
             unlogged",
            group.wal_only_records_per_sec / per_record.wal_only_records_per_sec.max(1e-9),
            group.wal_only_syncs,
            per_record.wal_only_syncs,
            stream.len(),
            group.events_per_sec / per_record.events_per_sec.max(1e-9),
            entry_of("buffered").map_or(0.0, |e| e.events_per_sec) / baseline_eps,
        ));
    }

    // Recovery rows: one journaled run per snapshot cadence, crashed at the
    // durable end of its log, rebuilt from growing prefixes. Cutting the
    // record list (not raw bytes) keeps every prefix frame-aligned; the
    // crash-sweep tests own the torn-byte cases.
    let mut recovery = Vec::new();
    for snapshot_every in [0usize, 64] {
        let path = dir.join(format!("recovery-snap{snapshot_every}.wal"));
        let file = match FileWal::create(&path) {
            Ok(f) => f,
            Err(e) => {
                notes.push(format!("recovery rows skipped: WAL create failed ({e})"));
                continue;
            }
        };
        let writer = WalWriter::new(Box::new(file), DurabilityPolicy::Buffered, cfg.seed);
        let engine = Engine::new(
            &w,
            RunConfig {
                policy: PolicyKind::Pred,
                seed: cfg.seed,
                arrival_gap: cfg.arrival_gap,
                epoch,
                ..RunConfig::default()
            },
        )
        .with_wal(writer, snapshot_every);
        let _ = engine.run();
        let Ok((records, _)) = read_wal_file(&path) else {
            continue;
        };
        let total_bytes = std::fs::metadata(&path)
            .map(|m| m.len() as usize)
            .unwrap_or(0);
        for cut in [records.len() / 4, records.len() / 2, records.len()] {
            if cut == 0 {
                continue;
            }
            let prefix = &records[..cut];
            let t = Instant::now();
            let Ok(image) = rebuild_image(&w, prefix) else {
                continue;
            };
            let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
            let history_events = image.history.len();
            let t = Instant::now();
            let Ok(_report) = recover(&w, image) else {
                continue;
            };
            recovery.push(RecoveryBenchEntry {
                log_records: cut,
                log_bytes: total_bytes * cut / records.len().max(1),
                snapshot_every,
                history_events,
                rebuild_ms,
                recover_ms: t.elapsed().as_secs_f64() * 1e3,
            });
        }
    }
    if let Some(full) = recovery
        .iter()
        .filter(|r| r.snapshot_every == 0)
        .max_by_key(|r| r.log_records)
    {
        notes.push(format!(
            "recovery (E26): full-log rebuild+recover {:.2} ms over {} records; \
             snapshots every 64 events: {:.2} ms",
            full.rebuild_ms + full.recover_ms,
            full.log_records,
            recovery
                .iter()
                .filter(|r| r.snapshot_every == 64)
                .max_by_key(|r| r.log_records)
                .map(|r| r.rebuild_ms + r.recover_ms)
                .unwrap_or(f64::NAN),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    (durability, recovery)
}

/// Runs the full scheduler bench and assembles the report.
pub fn run_scheduler_bench(cfg: &SchedulerBenchConfig) -> BenchReport {
    let mut runs = Vec::new();
    let mut notes = Vec::new();
    for &density in &cfg.densities {
        for &n in &cfg.processes {
            let w = bench_workload(cfg.seed, n, density, cfg.failure_probability);
            for &policy in &cfg.policies {
                runs.push(engine_entry(cfg, &w, policy, 0));
                runs.push(concurrent_entry(cfg, &w, policy, cfg.shards, 0));
            }
        }
    }
    // Sharding comparison (E21 headline): the same multi-tenant workload —
    // disjoint clusters give the partitioner real domains to find — driven
    // once single-lock and once auto-sharded. The classic single-pool
    // workloads above birthday-collide into one giant conflict domain, so
    // they exercise the `shards` plumbing but cannot show parallel
    // admission; that coverage gap is what the clustered pair closes.
    if cfg.sharding_clusters > 1 {
        let n = cfg.sharding_processes;
        let density = cfg.densities.first().copied().unwrap_or(0.3);
        let w = generate(&WorkloadConfig {
            seed: cfg.seed,
            processes: n,
            clusters: cfg.sharding_clusters,
            conflict_density: density,
            failure_probability: cfg.failure_probability,
            prefix_len: (2, 5),
            tail_len: (1, 3),
            alternative_probability: 0.5,
            ..WorkloadConfig::default()
        });
        let single = concurrent_entry(cfg, &w, PolicyKind::Pred, ShardMode::Single, 0);
        let auto = concurrent_entry(cfg, &w, PolicyKind::Pred, ShardMode::Auto, 0);
        notes.push(format!(
            "sharding: {} processes, density {density}, {} clusters -> {} shards; auto vs single-lock speedup {:.2}x events/sec",
            n,
            cfg.sharding_clusters,
            auto.shards,
            auto.events_per_sec / single.events_per_sec.max(1e-9),
        ));
        runs.push(single);
        runs.push(auto);
    }
    // Epoch group-certification sweep (E25 headline): the highest-density
    // points re-driven with `cfg.epoch`-sized epochs under the Pred policy
    // on both drivers. When the main sweep's policy list did not already
    // produce per-event Pred baselines at those points (smoke mode), they
    // are driven here so the comparison is always in the report.
    if cfg.epoch > 0 {
        let density = cfg.densities.iter().copied().fold(0.0, f64::max);
        let is_pred_point = |e: &BenchEntry, mode: &str, n: usize, epoch: usize| {
            e.mode == mode
                && e.policy == PolicyKind::Pred.label()
                && e.processes == n
                && e.density == density
                && e.epoch == epoch
        };
        for &n in &cfg.processes {
            let w = bench_workload(cfg.seed, n, density, cfg.failure_probability);
            if !runs.iter().any(|e| is_pred_point(e, "engine", n, 0)) {
                runs.push(engine_entry(cfg, &w, PolicyKind::Pred, 0));
            }
            if !runs.iter().any(|e| is_pred_point(e, "concurrent", n, 0)) {
                runs.push(concurrent_entry(cfg, &w, PolicyKind::Pred, cfg.shards, 0));
            }
            runs.push(engine_entry(cfg, &w, PolicyKind::Pred, cfg.epoch));
            runs.push(concurrent_entry(
                cfg,
                &w,
                PolicyKind::Pred,
                cfg.shards,
                cfg.epoch,
            ));
        }
        for &n in &cfg.processes {
            let eps = |mode: &str, epoch: usize| {
                runs.iter()
                    .filter(|e| is_pred_point(e, mode, n, epoch))
                    .map(|e| e.events_per_sec)
                    .fold(f64::NAN, f64::max)
            };
            let eng = eps("engine", cfg.epoch) / eps("engine", 0);
            let conc = eps("concurrent", cfg.epoch) / eps("concurrent", 0);
            if eng.is_finite() && conc.is_finite() {
                notes.push(format!(
                    "epoch {}: d={density} n={n} pred events/sec vs per-event — \
                     engine {eng:.2}x, concurrent {conc:.2}x",
                    cfg.epoch
                ));
            }
        }
    }
    let open_runs: Vec<OpenRunEntry> = cfg
        .open_processes
        .iter()
        .map(|&n| open_run_entry(cfg, n))
        .collect();
    let trace_overhead = trace_overhead_bench(cfg);
    let phases = phase_breakdown_bench(cfg);
    let telemetry_overhead = telemetry_overhead_bench(cfg);
    if let Some(worst) = telemetry_overhead
        .iter()
        .max_by(|a, b| a.overhead_pct.total_cmp(&b.overhead_pct))
    {
        notes.push(format!(
            "telemetry overhead (E24): worst {:+.2}% ({}) at n={} d={} (budget 3%)",
            worst.overhead_pct, worst.mode, worst.processes, worst.density
        ));
    }
    let (durability, recovery) = durability_bench(cfg, &mut runs, &mut notes);
    let scenarios = if cfg.gauntlet_seeds > 0 {
        run_gauntlet(&GauntletConfig {
            seeds: cfg.gauntlet_seeds,
            workers: cfg.workers,
            ..GauntletConfig::full()
        })
    } else {
        notes.push("scenario gauntlet skipped (gauntlet_seeds = 0)".to_string());
        Vec::new()
    };
    BenchReport {
        // v12 is subtractive: the per-run `lock_wait_ms` / `lock_hold_ms`
        // columns are gone with the shard lock (a worker owns its shards).
        // v11 is subtractive: the `pred-scan` policy rows and the
        // `decision[]` indexed-vs-scan microbenchmark are gone with the
        // policy (the scan formulation is test support; the criterion group
        // `protocol` measures the layer alone).
        // v10 is subtractive: the thread-per-process runtime is gone, and
        // with it the `runtime_ratio` pairs, the thread baseline rows, the
        // per-run `wakeups`/`spurious_wakeups` counters, `open_runs[].runtime`
        // and the `certifier`/`runtime`/`concurrent_max_processes` config
        // keys (one certifier, one runtime). v9 dropped the `epoch_decision`
        // array: the `certify_epoch` batch API it measured is gone (E25).
        // v8 (additive over v7): the per-run `durability` field (null on
        // unlogged runs), the `durability` fsync-policy sweep, and the
        // `recovery` time-vs-log-length rows (E26). (v7 added the per-run `epoch`
        // field and the epoch sweep entries at the highest density (E25);
        // v6 added the `phases` per-phase wall-time breakdown per driver
        // and the `telemetry_overhead` on-vs-off rows; v5 added per-entry
        // runtime/worker/run-queue/scheduling-delay fields, the
        // `open_runs` Poisson sweep; v4 added the `scenarios` gauntlet
        // array; v3 added shard_mode/shards/clusters and lock contention
        // over v2.)
        schema: "txproc-bench-scheduler/v12",
        created_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        config: cfg.clone(),
        runs,
        open_runs,
        scenarios,
        trace_overhead,
        phases,
        telemetry_overhead,
        durability,
        recovery,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_produces_entries() {
        let mut cfg = SchedulerBenchConfig::smoke();
        cfg.processes = vec![6];
        cfg.gauntlet_seeds = 2;
        cfg.open_processes = vec![40];
        cfg.durability_processes = 6;
        let report = run_scheduler_bench(&cfg);
        // Per (density, n) point: engine + concurrent per policy; then the
        // single/auto sharding pair; then the epoch sweep (per-event Pred
        // baseline pair — smoke policies don't include Pred — plus the
        // epoch-16 pair); then the four WAL-journaled durability runs (v8).
        assert_eq!(report.runs.len(), 12);
        assert!(report.runs.iter().all(|e| e.events > 0));
        // v7: the epoch sweep drove both drivers at epoch 16 under Pred,
        // next to per-event baselines at the same point. (The durability
        // sweep adds four more epoch-16 engine runs.)
        let epoch_runs: Vec<_> = report
            .runs
            .iter()
            .filter(|e| e.epoch > 0 && e.durability.is_none())
            .collect();
        assert_eq!(epoch_runs.len(), 2);
        let epoch_modes: Vec<_> = epoch_runs.iter().map(|e| e.mode).collect();
        assert_eq!(epoch_modes, vec!["engine", "concurrent"]);
        assert!(epoch_runs
            .iter()
            .all(|e| e.epoch == 16 && e.policy == "pred"));
        assert!(report
            .runs
            .iter()
            .any(|e| e.mode == "engine" && e.policy == "pred" && e.epoch == 0));
        assert!(report.notes.iter().any(|n| n.starts_with("epoch 16:")));
        // Concurrent entries now carry wall-clock latency/makespan,
        // shard/lock observability and the runtime lane; engine entries
        // stay virtual-time.
        for e in &report.runs {
            if e.mode == "concurrent" {
                assert!(e.shard_mode.is_some());
                assert!(e.shards >= 1);
                assert!(e.makespan > 0, "wall-clock makespan missing");
                assert!(e.latency_p50.is_some() && e.latency_p95.is_some());
                assert_eq!(e.runtime.as_deref(), Some("events"));
                assert!(e.workers >= 1);
                assert!(e.in_flight_peak >= 1);
            } else {
                assert!(e.shard_mode.is_none());
                assert_eq!(e.shards, 0);
                assert!(e.runtime.is_none());
            }
        }
        // Open-arrival point: Poisson arrivals, verified per conflict
        // domain with zero violations.
        assert_eq!(report.open_runs.len(), 1);
        let open = &report.open_runs[0];
        assert_eq!(open.processes, 40);
        assert_eq!(open.committed + open.aborted, 40);
        assert!(open.domains_verified >= 1);
        assert_eq!(open.pred_violations, 0);
        assert_eq!(open.proc_rec_violations, 0);
        assert!(open.in_flight_peak >= 1);
        let pair: Vec<_> = report.runs.iter().filter(|e| e.clusters > 1).collect();
        assert_eq!(pair.len(), 2);
        assert_eq!(pair[0].shard_mode.as_deref(), Some("single"));
        assert_eq!(pair[1].shard_mode.as_deref(), Some("auto"));
        assert_eq!(pair[0].shards, 1);
        assert!(pair[1].shards > 1, "clustered workload found no domains");
        assert!(report.notes.iter().any(|n| n.starts_with("sharding:")));
        // E20 sinks: untraced baseline plus the three sink variants.
        let sinks: Vec<_> = report.trace_overhead.iter().map(|t| t.sink).collect();
        assert_eq!(sinks, vec!["none", "noop", "ring-4096", "jsonl-devnull"]);
        assert!(report.trace_overhead.iter().all(|t| t.wall_ms > 0.0));
        // v4: the scenario gauntlet section covers every registered
        // scenario in both modes with zero correctness violations.
        assert_eq!(report.scenarios.len(), 6);
        for s in &report.scenarios {
            assert_eq!(s.seeds, 2);
            let modes: Vec<_> = s.modes.iter().map(|m| m.mode).collect();
            assert_eq!(modes, vec!["engine", "concurrent"], "{}", s.name);
            for m in &s.modes {
                assert_eq!(m.pred_violations, 0, "{}/{}", s.name, m.mode);
                assert_eq!(m.proc_rec_violations, 0, "{}/{}", s.name, m.mode);
            }
        }
        // v6: per-phase breakdown for both drivers and the E24 telemetry
        // on-vs-off rows.
        let modes: Vec<_> = report
            .phases
            .iter()
            .map(|p| p.mode)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(modes, vec!["concurrent", "engine"]);
        assert!(report
            .phases
            .iter()
            .any(|p| p.mode == "engine" && p.phase == "certify" && p.count > 0));
        for p in &report.phases {
            assert!(p.p50_ns <= p.p95_ns && p.p95_ns <= p.max_ns, "{:?}", p);
        }
        assert_eq!(report.telemetry_overhead.len(), 2);
        assert!(report
            .telemetry_overhead
            .iter()
            .all(|t| t.wall_ms_off > 0.0 && t.wall_ms_on > 0.0));
        // v8 (E26): one durability row per fsync policy, journaled runs in
        // `runs` carrying their policy label, and recovery rows covering
        // both snapshot cadences with growing log prefixes.
        let dur: Vec<_> = report
            .durability
            .iter()
            .map(|d| d.policy.as_str())
            .collect();
        assert_eq!(dur, vec!["buffered", "fsync-epoch", "fsync-8", "fsync-1"]);
        assert!(report
            .durability
            .iter()
            .all(|d| d.events > 0 && d.wal_records > 0 && d.wal_bytes > 0));
        // The isolated pass replayed the same stream under every policy;
        // fsync-1 syncs once per record, fsync-epoch once per seal (+finish).
        assert!(report
            .durability
            .iter()
            .all(|d| d.wal_only_ms > 0.0 && d.wal_only_records_per_sec > 0.0));
        let syncs_of = |label: &str| {
            report
                .durability
                .iter()
                .find(|d| d.policy == label)
                .map(|d| d.wal_only_syncs)
                .unwrap()
        };
        assert_eq!(syncs_of("buffered"), 0);
        assert!(syncs_of("fsync-1") > syncs_of("fsync-8"));
        assert!(syncs_of("fsync-8") > syncs_of("fsync-epoch"));
        assert_eq!(
            report
                .runs
                .iter()
                .filter(|e| e.durability.is_some())
                .count(),
            4
        );
        assert!(!report.recovery.is_empty());
        assert!(report
            .recovery
            .iter()
            .all(|r| r.log_records > 0 && r.rebuild_ms >= 0.0));
        assert!(report.recovery.iter().any(|r| r.snapshot_every == 64));
        assert!(report
            .notes
            .iter()
            .any(|n| n.starts_with("durability (E26):")));
        assert!(report
            .notes
            .iter()
            .any(|n| n.starts_with("recovery (E26):")));
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("txproc-bench-scheduler/v12"));
        assert!(json.contains("throughput_vs_unlogged"));
        assert!(json.contains("wal_only_records_per_sec"));
        assert!(json.contains("snapshot_every"));
        assert!(json.contains("telemetry_overhead"));
        assert!(json.contains("\"phases\""));
        assert!(json.contains("abort_reasons"));
        assert!(json.contains("blocked_time_total"));
        assert!(json.contains("shard_mode"));
        assert!(json.contains("zipf-hotspot"));
        assert!(json.contains("envelope_breaches"));
        assert!(json.contains("open_runs"));
        assert!(json.contains("sched_delay_p95_ns"));
    }
}
