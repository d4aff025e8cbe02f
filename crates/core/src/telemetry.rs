//! Low-overhead runtime telemetry: a metrics registry of atomic counters,
//! gauges and log₂ histograms, plus scoped phase timers for the scheduler's
//! hot paths.
//!
//! The paper's claim is quantitative — the unified scheduler admits more
//! concurrency than locking at bounded decision cost — so the runtime must be
//! able to answer *where wall time goes*: certification vs. policy decisions
//! vs. run-queue residency vs. the 2PC prepare→decide gap vs. compensation. This module decomposes metrics the same way the
//! architecture decomposes (certifier / policy / shard / worker / 2PC), per
//! the level-by-level analyzability argument of multi-level transaction
//! control.
//!
//! Design mirrors [`crate::trace`]'s `NoopSink` discipline: a [`Telemetry`]
//! handle is either *off* (the default — every operation is one predictable
//! branch on an `Option`, no clock reads, no allocation) or *on* (an
//! `Arc<Registry>` of plain atomics; recording a phase duration is two
//! `fetch_add`s and one bucket increment, lock-free). Drivers thread the
//! handle through their hot paths and call [`Telemetry::phase_ns`] with
//! durations they already measure, or bracket new regions with
//! [`Telemetry::phase_start`] / [`Telemetry::phase_end`] (which read the
//! clock only when enabled).
//!
//! Exports: [`Registry::snapshot`] produces a consistent-at-quiescence
//! [`Snapshot`] that serializes to JSON (shim serde) and renders to the
//! Prometheus text exposition format via [`prometheus_text`].

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of log₂ histogram buckets. Matches
/// `txproc_sim::metrics::SCHED_DELAY_BUCKETS` — bucket 0 holds exact zeros,
/// bucket `i ≥ 1` holds values `v` with `⌊log₂ v⌋ = i`, and the last bucket
/// absorbs everything larger.
pub const HIST_BUCKETS: usize = 40;

/// Bucket index for a nanosecond value (log₂ bucketing, 0 stays in bucket 0).
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Upper edge (inclusive, in ns) of histogram bucket `i`: 0 for bucket 0,
/// `2^(i+1)` otherwise. The resolution quantiles are reported at.
#[inline]
pub fn bucket_edge(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << ((i + 1).min(63))
    }
}

/// The instrumented scheduler phases — one scoped timer per architectural
/// layer, so the per-phase wall breakdown decomposes the same way the system
/// does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// PRED certification: `IncrementalPred::certify`/`record` (or the batch
    /// checker) on one candidate event, including closure maintenance.
    Certify,
    /// Protocol policy decisions: `request` / `can_commit` / compensation and
    /// forward gates (Lemmas 1–3 admission logic).
    Policy,
    /// Run-queue residency: dequeue time minus enqueue time (events runtime).
    QueueDelay,
    /// Deferred-2PC gap: activity *prepared* → commit decided (released or
    /// aborted), the paper's §4 window.
    TwoPc,
    /// Compensation execution at the subsystem (backward recovery).
    Compensation,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 5] = [
        Phase::Certify,
        Phase::Policy,
        Phase::QueueDelay,
        Phase::TwoPc,
        Phase::Compensation,
    ];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case label (used in exports and the bench schema).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Certify => "certify",
            Phase::Policy => "policy",
            Phase::QueueDelay => "queue_delay",
            Phase::TwoPc => "two_pc",
            Phase::Compensation => "compensation",
        }
    }

    /// Dense index into the registry's phase table.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One phase's accumulator: sample count, summed nanoseconds, log₂ histogram.
#[derive(Debug)]
struct PhaseCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl PhaseCell {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// Instrument kind, for export typing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Counter,
    Gauge,
}

/// What identifies an instrument: name, label set, kind.
type InstrumentKey = (String, Vec<(String, String)>, Kind);

/// A monotone counter handle. Cheap to clone; a no-op when telemetry is off.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.cell {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge handle (last-set value wins). Cheap to clone; no-op when off.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(c) = &self.cell {
            c.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// The metrics registry: a fixed table of phase accumulators plus named,
/// labelled counters and gauges registered on demand. All hot-path writes are
/// relaxed atomics; registration takes a mutex and is expected per shard /
/// per worker, not per event. Instruments are keyed, so registering one is a
/// lookup whatever the number already registered (workers register their
/// shards' instruments mid-run), and a snapshot lists them in key order
/// whatever order the threads registered them in.
pub struct Registry {
    start: Instant,
    phases: [PhaseCell; Phase::COUNT],
    instruments: Mutex<BTreeMap<InstrumentKey, Arc<AtomicU64>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    fn new() -> Self {
        Self {
            start: Instant::now(),
            phases: std::array::from_fn(|_| PhaseCell::new()),
            instruments: Mutex::new(BTreeMap::new()),
        }
    }

    /// Record one `ns` sample for `phase`.
    #[inline]
    pub fn record_phase(&self, phase: Phase, ns: u64) {
        self.phases[phase.index()].record(ns);
    }

    fn instrument(&self, name: &str, labels: &[(&str, String)], kind: Kind) -> Arc<AtomicU64> {
        let labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let mut g = self.instruments.lock().expect("registry poisoned");
        Arc::clone(g.entry((name.to_string(), labels, kind)).or_default())
    }

    /// Consistent-at-quiescence snapshot of every instrument. Safe to call
    /// concurrently with writers (the sampler does); mid-flight reads may see
    /// a histogram one sample behind its count.
    pub fn snapshot(&self) -> Snapshot {
        let phases = Phase::ALL
            .iter()
            .map(|&p| {
                let cell = &self.phases[p.index()];
                let buckets: Vec<u64> = cell
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
                let count = cell.count.load(Ordering::Relaxed);
                PhaseSnapshot {
                    phase: p.name().to_string(),
                    count,
                    total_ns: cell.total_ns.load(Ordering::Relaxed),
                    p50_ns: hist_percentile(&buckets, 0.50).unwrap_or(0),
                    p95_ns: hist_percentile(&buckets, 0.95).unwrap_or(0),
                    max_ns: buckets
                        .iter()
                        .rposition(|&n| n > 0)
                        .map(bucket_edge)
                        .unwrap_or(0),
                    buckets,
                }
            })
            .collect();
        let instruments = self
            .instruments
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|((name, labels, kind), cell)| InstrumentSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                kind: match kind {
                    Kind::Counter => "counter".to_string(),
                    Kind::Gauge => "gauge".to_string(),
                },
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        Snapshot {
            wall_ns: self.start.elapsed().as_nanos() as u64,
            phases,
            instruments,
        }
    }
}

/// Percentile over a log₂ histogram, resolved to the bucket's upper edge.
/// `None` on an empty histogram. Monotone in `q` by construction.
pub fn hist_percentile(buckets: &[u64], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((total - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen > rank {
            return Some(bucket_edge(i));
        }
    }
    Some(bucket_edge(buckets.len() - 1))
}

/// The cheap, cloneable driver-facing handle: either off (default, near-zero
/// cost — one branch per call site, no clock reads) or on (shared
/// [`Registry`]).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    reg: Option<Arc<Registry>>,
}

impl Telemetry {
    /// A disabled handle. Every operation is a single `Option` branch.
    pub fn off() -> Self {
        Self { reg: None }
    }

    /// A fresh enabled handle with its own registry.
    pub fn on() -> Self {
        Self {
            reg: Some(Arc::new(Registry::new())),
        }
    }

    /// Whether a registry is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.reg.is_some()
    }

    /// The registry, when enabled (for samplers and exporters).
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.reg.as_ref()
    }

    /// Start a phase timer: reads the clock only when enabled. Pair with
    /// [`Telemetry::phase_end`].
    #[inline]
    pub fn phase_start(&self) -> Option<Instant> {
        if self.reg.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a timer opened by [`Telemetry::phase_start`].
    #[inline]
    pub fn phase_end(&self, phase: Phase, t0: Option<Instant>) {
        if let (Some(reg), Some(t0)) = (&self.reg, t0) {
            reg.record_phase(phase, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Record an externally measured duration for `phase` — the entry point
    /// for call sites that already compute the duration (run-queue
    /// residency).
    #[inline]
    pub fn phase_ns(&self, phase: Phase, ns: u64) {
        if let Some(reg) = &self.reg {
            reg.record_phase(phase, ns);
        }
    }

    /// Register (or look up) a labelled counter. Disabled handles return a
    /// no-op counter.
    pub fn counter(&self, name: &str, labels: &[(&str, String)]) -> Counter {
        Counter {
            cell: self
                .reg
                .as_ref()
                .map(|r| r.instrument(name, labels, Kind::Counter)),
        }
    }

    /// Register (or look up) a labelled gauge. Disabled handles return a
    /// no-op gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, String)]) -> Gauge {
        Gauge {
            cell: self
                .reg
                .as_ref()
                .map(|r| r.instrument(name, labels, Kind::Gauge)),
        }
    }

    /// Snapshot the registry (`None` when disabled).
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.reg.as_ref().map(|r| r.snapshot())
    }
}

/// Point-in-time state of one phase accumulator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSnapshot {
    /// Phase label ([`Phase::name`]).
    pub phase: String,
    /// Number of samples.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Median sample, at log₂-bucket resolution (upper edge).
    pub p50_ns: u64,
    /// 95th-percentile sample, at log₂-bucket resolution.
    pub p95_ns: u64,
    /// Upper edge of the highest non-empty bucket.
    pub max_ns: u64,
    /// The raw log₂ buckets ([`HIST_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

/// Point-in-time value of one named instrument.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstrumentSnapshot {
    /// Instrument name (unprefixed; exports prepend `txproc_`).
    pub name: String,
    /// Label set, e.g. `[("shard", "3")]`.
    pub labels: Vec<(String, String)>,
    /// `"counter"` or `"gauge"`.
    pub kind: String,
    /// Current value.
    pub value: u64,
}

/// A full registry snapshot: every phase and every named instrument, stamped
/// with wall time since the registry was created.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Nanoseconds since registry creation.
    pub wall_ns: u64,
    /// Per-phase accumulators, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseSnapshot>,
    /// Named counters and gauges, ordered by (name, labels, kind).
    pub instruments: Vec<InstrumentSnapshot>,
}

impl Snapshot {
    /// The phase entry by label, if present.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseSnapshot> {
        self.phases.iter().find(|p| p.phase == phase.name())
    }
}

fn label_str(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// Render a [`Snapshot`] in the Prometheus text exposition format (version
/// 0.0.4): `# TYPE` comments, `_bucket`/`_sum`/`_count` histogram triples
/// with cumulative `le` edges, and one sample line per instrument.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("# HELP txproc_uptime_ns Nanoseconds since the telemetry registry was created.\n");
    out.push_str("# TYPE txproc_uptime_ns gauge\n");
    out.push_str(&format!("txproc_uptime_ns {}\n", snap.wall_ns));

    out.push_str("# HELP txproc_phase_duration_ns Scheduler phase durations (log2 buckets).\n");
    out.push_str("# TYPE txproc_phase_duration_ns histogram\n");
    for p in &snap.phases {
        let mut cum = 0u64;
        for (i, &n) in p.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            out.push_str(&format!(
                "txproc_phase_duration_ns_bucket{{phase=\"{}\",le=\"{}\"}} {cum}\n",
                p.phase,
                bucket_edge(i)
            ));
        }
        out.push_str(&format!(
            "txproc_phase_duration_ns_bucket{{phase=\"{}\",le=\"+Inf\"}} {}\n",
            p.phase, p.count
        ));
        out.push_str(&format!(
            "txproc_phase_duration_ns_sum{{phase=\"{}\"}} {}\n",
            p.phase, p.total_ns
        ));
        out.push_str(&format!(
            "txproc_phase_duration_ns_count{{phase=\"{}\"}} {}\n",
            p.phase, p.count
        ));
    }

    let mut typed: Vec<&str> = Vec::new();
    for i in &snap.instruments {
        let full = format!("txproc_{}", i.name);
        if !typed.contains(&i.name.as_str()) {
            typed.push(&i.name);
            out.push_str(&format!("# TYPE {full} {}\n", i.kind));
        }
        out.push_str(&format!("{full}{} {}\n", label_str(&i.labels), i.value));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::off();
        assert!(!t.enabled());
        assert!(t.phase_start().is_none());
        t.phase_end(Phase::Certify, None);
        t.phase_ns(Phase::Policy, 1234);
        let c = t.counter("events_total", &[]);
        c.inc();
        assert_eq!(c.get(), 0);
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn bucketing_matches_log2_and_edges_are_monotone() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        for i in 1..HIST_BUCKETS {
            assert!(bucket_edge(i) > bucket_edge(i - 1));
        }
    }

    #[test]
    fn phase_records_land_in_snapshot() {
        let t = Telemetry::on();
        t.phase_ns(Phase::Certify, 100);
        t.phase_ns(Phase::Certify, 200);
        let t0 = t.phase_start();
        t.phase_end(Phase::Policy, t0);
        let snap = t.snapshot().unwrap();
        let cert = snap.phase(Phase::Certify).unwrap();
        assert_eq!(cert.count, 2);
        assert_eq!(cert.total_ns, 300);
        assert_eq!(cert.buckets.iter().sum::<u64>(), cert.count);
        assert_eq!(snap.phase(Phase::Policy).unwrap().count, 1);
        assert_eq!(snap.phase(Phase::TwoPc).unwrap().count, 0);
    }

    #[test]
    fn instruments_dedupe_by_name_and_labels() {
        let t = Telemetry::on();
        let a = t.counter("events_total", &[("shard", "0".to_string())]);
        let b = t.counter("events_total", &[("shard", "0".to_string())]);
        let other = t.counter("events_total", &[("shard", "1".to_string())]);
        a.inc();
        b.inc();
        other.add(5);
        let snap = t.snapshot().unwrap();
        let vals: Vec<u64> = snap
            .instruments
            .iter()
            .filter(|i| i.name == "events_total")
            .map(|i| i.value)
            .collect();
        assert_eq!(vals, vec![2, 5]);
        // Same name and labels, other kind: a different instrument.
        t.gauge("events_total", &[("shard", "0".to_string())])
            .set(9);
        assert_eq!(a.get(), 2);
        assert_eq!(t.snapshot().unwrap().instruments.len(), 3);
    }

    /// The three per-shard instruments the concurrent driver registers.
    fn register_shard(t: &Telemetry, shard: u32) {
        let label = [("shard", shard.to_string())];
        t.counter("events_total", &label).add(u64::from(shard));
        t.counter("committed_total", &label).inc();
        t.gauge("run_queue_depth", &label).set(u64::from(shard));
    }

    #[test]
    fn snapshot_order_is_independent_of_registration_order() {
        let forward = Telemetry::on();
        (0..64).for_each(|s| register_shard(&forward, s));
        let backward = Telemetry::on();
        (0..64).rev().for_each(|s| register_shard(&backward, s));
        // Two threads, released together, each registering its half of the
        // shards the way two workers do mid-run.
        let threaded = Telemetry::on();
        let gate = std::sync::Barrier::new(2);
        thread::scope(|scope| {
            for half in 0..2u32 {
                let (t, gate) = (&threaded, &gate);
                scope.spawn(move || {
                    gate.wait();
                    (0..64)
                        .filter(|s| s % 2 == half)
                        .for_each(|s| register_shard(t, s));
                });
            }
        });
        let expected = forward.snapshot().unwrap().instruments;
        assert_eq!(expected.len(), 3 * 64);
        assert_eq!(backward.snapshot().unwrap().instruments, expected);
        assert_eq!(threaded.snapshot().unwrap().instruments, expected);
    }

    #[test]
    fn large_registry_snapshots_sorted() {
        // 3 instruments × 4096 shards: registration must not scan what is
        // already registered (this is 12 288 lookups, not 75 M compares).
        let t = Telemetry::on();
        (0..4096).rev().for_each(|s| register_shard(&t, s));
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.instruments.len(), 3 * 4096);
        let keys: Vec<_> = snap
            .instruments
            .iter()
            .map(|i| (&i.name, &i.labels, &i.kind))
            .collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "sorted, no duplicates"
        );
        let events: u64 = snap
            .instruments
            .iter()
            .filter(|i| i.name == "events_total")
            .map(|i| i.value)
            .sum();
        assert_eq!(events, (0..4096u64).sum::<u64>());
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_writers() {
        let t = Telemetry::on();
        let threads = 4;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let t = t.clone();
                thread::spawn(move || {
                    let c = t.counter("events_total", &[("worker", w.to_string())]);
                    for i in 0..per {
                        c.inc();
                        t.phase_ns(Phase::Certify, i);
                        // Interleave a mid-flight snapshot: must never panic
                        // and histogram mass must never exceed... (skew of at
                        // most in-flight writers is allowed either way).
                        if i % 4096 == 0 {
                            let _ = t.snapshot();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = t.snapshot().unwrap();
        let total: u64 = snap
            .instruments
            .iter()
            .filter(|i| i.name == "events_total")
            .map(|i| i.value)
            .sum();
        assert_eq!(total, threads as u64 * per);
        let cert = snap.phase(Phase::Certify).unwrap();
        assert_eq!(cert.count, threads as u64 * per);
        assert_eq!(cert.buckets.iter().sum::<u64>(), cert.count);
    }

    #[test]
    fn percentiles_are_monotone_in_q() {
        let t = Telemetry::on();
        for ns in [1u64, 5, 50, 500, 5_000, 50_000, 500_000] {
            for _ in 0..10 {
                t.phase_ns(Phase::QueueDelay, ns);
            }
        }
        let snap = t.snapshot().unwrap();
        let p = snap.phase(Phase::QueueDelay).unwrap();
        assert!(p.p50_ns <= p.p95_ns, "p50 {} > p95 {}", p.p50_ns, p.p95_ns);
        assert!(p.p95_ns <= p.max_ns, "p95 {} > max {}", p.p95_ns, p.max_ns);
        let q: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| hist_percentile(&p.buckets, q).unwrap())
            .collect();
        for w in q.windows(2) {
            assert!(w[0] <= w[1], "percentiles not monotone: {q:?}");
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let t = Telemetry::on();
        t.phase_ns(Phase::Certify, 777);
        let g = t.gauge("run_queue_depth", &[("shard", "2".to_string())]);
        g.set(9);
        let snap = t.snapshot().unwrap();
        let json = serde_json::to_string(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let t = Telemetry::on();
        t.phase_ns(Phase::Certify, 100);
        t.phase_ns(Phase::Certify, 100_000);
        t.counter("events_total", &[("shard", "0".to_string())])
            .add(3);
        t.gauge("run_queue_depth", &[("shard", "0".to_string())])
            .set(2);
        let text = prometheus_text(&t.snapshot().unwrap());
        assert!(text.contains("# TYPE txproc_phase_duration_ns histogram"));
        assert!(text.contains("txproc_phase_duration_ns_bucket{phase=\"certify\",le=\"+Inf\"} 2"));
        assert!(text.contains("txproc_phase_duration_ns_sum{phase=\"certify\"} 100100"));
        assert!(text.contains("txproc_events_total{shard=\"0\"} 3"));
        assert!(text.contains("# TYPE txproc_events_total counter"));
        assert!(text.contains("# TYPE txproc_run_queue_depth gauge"));
        // Every sample line: `name{labels} value` with a numeric value and
        // cumulative bucket counts per phase.
        let mut last_bucket: Option<(String, u64)> = None;
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (metric, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            let name = metric.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
            if let Some(rest) = metric.strip_prefix("txproc_phase_duration_ns_bucket{") {
                let phase = rest.split('"').nth(1).unwrap().to_string();
                let v: u64 = value.parse().unwrap();
                if let Some((last_phase, last_v)) = &last_bucket {
                    if *last_phase == phase {
                        assert!(v >= *last_v, "buckets not cumulative in {line:?}");
                    }
                }
                last_bucket = Some((phase, v));
            }
        }
    }
}
