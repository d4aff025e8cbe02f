//! Scheduler phase durations: one log₂ histogram per phase, fed by scoped
//! timers on the scheduler's hot paths.
//!
//! The paper's claim is quantitative — the unified scheduler admits more
//! concurrency than locking at bounded decision cost — so the runtime must be
//! able to answer *where wall time goes*: certification vs. policy decisions
//! vs. run-queue residency vs. the 2PC prepare→decide gap vs. compensation.
//! Durations are the one thing only this module records: decisions are in
//! the journal ([`crate::trace`]) and counts in the run's `Metrics`, each
//! read where it is produced, so the registry keeps no copy of either.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of buckets of every log₂ histogram in the system (the phase
/// histograms here; `RuntimeMetrics::sched_delay_ns` splits each into
/// linear sub-buckets): bucket `i` holds
/// values `v` with `⌊log₂ v⌋ = i` (bucket 0 also holds 0), and the last
/// bucket absorbs everything larger.
pub const HIST_BUCKETS: usize = 40;

/// Bucket index for a nanosecond value: `⌊log₂ ns⌋`, with 0 and 1 both in
/// bucket 0.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Upper edge (in ns) of histogram bucket `i`: `2^(i+1)`, above every value
/// the bucket holds. The resolution quantiles are reported at.
#[inline]
pub fn bucket_edge(i: usize) -> u64 {
    1u64 << (i + 1).min(63)
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

/// The registry: a fixed table of phase accumulators, written with relaxed
/// atomics.
pub struct Registry {
    start: Instant,
    phases: [PhaseCell; Phase::COUNT],
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
        }
    }

    /// Record one `ns` sample for `phase`.
    #[inline]
    pub fn record_phase(&self, phase: Phase, ns: u64) {
        self.phases[phase.index()].record(ns);
    }

    /// Consistent-at-quiescence snapshot of every phase. Safe to call
    /// concurrently with writers (`txproc top` does); mid-flight reads may see
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
        Snapshot {
            wall_ns: self.start.elapsed().as_nanos() as u64,
            phases,
        }
    }
}

/// Percentile over a log₂ histogram, resolved to the bucket's upper edge.
/// `None` on an empty histogram. Monotone in `q` by construction.
pub fn hist_percentile(buckets: &[u64], q: f64) -> Option<u64> {
    hist_index(buckets, q).map(bucket_edge)
}

/// The bucket holding the sample of rank `round((n - 1) · q)` of a
/// histogram's `n`, `None` when it is empty: the percentile of any bucket
/// layout whose edges ascend with the index.
pub fn hist_index(buckets: &[u64], q: f64) -> Option<usize> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((total - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
    let mut seen = 0u64;
    buckets.iter().position(|&n| {
        seen += n;
        seen > rank
    })
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

/// A full registry snapshot: every phase, stamped with wall time since the
/// registry was created.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Nanoseconds since registry creation.
    pub wall_ns: u64,
    /// Per-phase accumulators, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseSnapshot>,
}

impl Snapshot {
    /// The phase entry by label, if present.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseSnapshot> {
        self.phases.iter().find(|p| p.phase == phase.name())
    }
}

/// Render a [`Snapshot`] in the Prometheus text exposition format (version
/// 0.0.4): `# TYPE` comments and `_bucket`/`_sum`/`_count` histogram
/// triples with cumulative `le` edges.
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
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn bucketing_matches_log2_and_edges_bound_their_buckets() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        for i in 1..HIST_BUCKETS {
            assert!(bucket_edge(i) > bucket_edge(i - 1));
        }
        // Every value below the last bucket lies under its bucket's edge.
        for v in (0..64).map(|b| 1u64 << b).flat_map(|p| [p - 1, p, p + 1]) {
            let i = bucket_of(v);
            assert!(i == HIST_BUCKETS - 1 || v < bucket_edge(i), "{v} in {i}");
        }
    }

    /// The parent reported a 1 ns sample as `p50_ns = 0` and exported it
    /// under `le="0"`: bucket 0 holds 1 but its edge was 0.
    #[test]
    fn one_ns_sample_reports_a_nonzero_edge() {
        let t = Telemetry::on();
        t.phase_ns(Phase::Certify, 1);
        let snap = t.snapshot().unwrap();
        let cert = snap.phase(Phase::Certify).unwrap();
        assert!(cert.p50_ns >= 1, "p50 {}", cert.p50_ns);
        assert!(cert.max_ns >= 1, "max {}", cert.max_ns);
        let text = prometheus_text(&snap);
        let first_le = text
            .lines()
            .find_map(|l| l.strip_prefix("txproc_phase_duration_ns_bucket{phase=\"certify\",le=\""))
            .and_then(|rest| rest.split('"').next())
            .expect("a certify bucket line");
        assert!(first_le.parse::<u64>().unwrap() >= 1, "le={first_le}");
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
    fn snapshot_is_consistent_under_concurrent_writers() {
        let t = Telemetry::on();
        let threads = 4;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let t = t.clone();
                thread::spawn(move || {
                    for i in 0..per {
                        t.phase_ns(Phase::Certify, i);
                        // Interleave a mid-flight snapshot: must never panic
                        // (skew of at most in-flight writers is allowed).
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
        let text = prometheus_text(&t.snapshot().unwrap());
        assert!(text.contains("# TYPE txproc_phase_duration_ns histogram"));
        assert!(text.contains("txproc_phase_duration_ns_bucket{phase=\"certify\",le=\"+Inf\"} 2"));
        assert!(text.contains("txproc_phase_duration_ns_sum{phase=\"certify\"} 100100"));
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
