//! Execution metrics collected by the engine and reported by the benchmark
//! harness.

use txproc_core::telemetry::{bucket_of, hist_index};
use txproc_core::trace::{AbortReason, TraceEvent};

pub use txproc_core::telemetry::HIST_BUCKETS;

/// Linear sub-buckets per octave of the scheduling-delay histogram.
const DELAY_SUBS: usize = 1 << SUB_BITS;
const SUB_BITS: usize = 3;

/// Delay bucket of `ns`: its log₂ octave ([`bucket_of`]) split into
/// `DELAY_SUBS` equal parts, found by shifts alone.
fn delay_bucket(ns: u64) -> usize {
    let octave = bucket_of(ns);
    let above = ns.saturating_sub(1 << octave);
    let sub = match octave.checked_sub(SUB_BITS) {
        Some(shift) => above >> shift,
        None => above << (SUB_BITS - octave),
    };
    octave * DELAY_SUBS + (sub as usize).min(DELAY_SUBS - 1)
}

/// Upper edge of delay bucket `i`, above every value it holds: within 1/8
/// of each from 8 ns up to the last octave's (2⁴⁰ ns), which takes all
/// larger values.
fn delay_edge(i: usize) -> u64 {
    let (octave, sub) = (i / DELAY_SUBS, (i % DELAY_SUBS) as u64);
    let low = 1u64 << octave;
    low + ((sub + 1) * low).div_ceil(DELAY_SUBS as u64)
}

/// Per-shard sizes collected by the sharded concurrent driver (one entry per
/// conflict-domain shard; the single-shard configuration reports exactly
/// one).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Shard id (dense, ordered by smallest member process id).
    pub shard: u32,
    /// Processes scheduled by this shard.
    pub processes: u64,
    /// History events emitted by this shard.
    pub events: u64,
}

/// Runtime-level observability collected by the concurrent driver: worker
/// utilization, run-queue depth and scheduling delay (time a runnable
/// process sat in a run queue before its next step).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeMetrics {
    /// Worker threads used.
    pub workers: u64,
    /// State-machine steps executed (one `advance` call each).
    pub steps: u64,
    /// Deadlock breaks: all runnable work drained on a shard no mutation
    /// had marked, with waiters left, so one of them was aborted at once
    /// (`Shard::break_deadlock`).
    pub repolls: u64,
    /// Peak depth of any single shard's queues: its runnable processes plus
    /// its waiting set, sampled after each step.
    pub run_queue_peak: u64,
    /// Peak number of concurrently in-flight (arrived, not terminated)
    /// processes across the whole run.
    pub in_flight_peak: u64,
    /// Wall-clock nanoseconds workers spent stepping state machines.
    pub worker_busy_ns: u64,
    /// Wall-clock nanoseconds workers spent idle: waiting for their next
    /// arrival, asleep and then yielding until it is due.
    pub worker_idle_ns: u64,
    /// Histogram of scheduling delays in nanoseconds: each log₂ octave of
    /// the telemetry phase histograms (`txproc_core::telemetry::bucket_of`)
    /// split into 8 linear sub-buckets, so a percentile reads
    /// within 1/8 of the true one instead of at a power of two.
    pub sched_delay_ns: Vec<u64>,
    /// Peak number of shards built and not yet finished across the whole
    /// run: a shard's scheduler state lives from its domain's first
    /// admission to its last termination.
    pub shards_live_peak: u64,
}

impl RuntimeMetrics {
    /// Creates zeroed metrics for a pool of `workers`.
    pub fn new(workers: u64) -> Self {
        Self {
            workers,
            sched_delay_ns: vec![0; HIST_BUCKETS * DELAY_SUBS],
            ..Self::default()
        }
    }

    /// Records one scheduling-delay sample.
    pub fn record_delay_ns(&mut self, ns: u64) {
        if self.sched_delay_ns.is_empty() {
            self.sched_delay_ns = vec![0; HIST_BUCKETS * DELAY_SUBS];
        }
        self.sched_delay_ns[delay_bucket(ns)] += 1;
    }

    /// Scheduling-delay percentile (0.0..=1.0) in nanoseconds, resolved to
    /// the upper edge of the histogram bucket containing the quantile.
    pub fn delay_percentile_ns(&self, q: f64) -> Option<u64> {
        hist_index(&self.sched_delay_ns, q).map(delay_edge)
    }

    /// Upper edge of the highest non-empty delay bucket (the histogram's
    /// resolution of the maximum sample), `None` when no samples exist.
    pub fn delay_max_ns(&self) -> Option<u64> {
        self.sched_delay_ns
            .iter()
            .rposition(|&n| n > 0)
            .map(delay_edge)
    }

    /// Checks the aggregation invariants this structure promises and returns
    /// a human-readable description of each violation (empty = all hold):
    ///
    /// 1. quantile monotonicity: p50 ≤ p95 ≤ max;
    /// 2. when the run's wall-clock duration is known: busy + idle time does
    ///    not exceed `workers × wall` (5% slack for timer skew — idle only
    ///    counts intentional naps, so the sum is one-sided).
    ///
    /// Drivers `debug_assert!` on this after merging per-worker metrics.
    pub fn invariant_violations(&self, wall_ns: Option<u64>) -> Vec<String> {
        let mut bad = Vec::new();
        if let (Some(p50), Some(p95), Some(max)) = (
            self.delay_percentile_ns(0.50),
            self.delay_percentile_ns(0.95),
            self.delay_max_ns(),
        ) {
            if p50 > p95 || p95 > max {
                bad.push(format!(
                    "delay quantiles not monotone: p50 {p50} / p95 {p95} / max {max}"
                ));
            }
        }
        if let Some(wall) = wall_ns {
            let accounted = self.worker_busy_ns + self.worker_idle_ns;
            let budget = self.workers.saturating_mul(wall);
            if accounted as f64 > budget as f64 * 1.05 + 1_000_000.0 {
                bad.push(format!(
                    "busy+idle {accounted}ns exceeds workers×wall {budget}ns \
                     ({} workers × {wall}ns)",
                    self.workers
                ));
            }
        }
        bad
    }

    /// Fraction of worker wall-clock time spent stepping state machines.
    pub fn utilization(&self) -> f64 {
        let total = self.worker_busy_ns + self.worker_idle_ns;
        if total == 0 {
            0.0
        } else {
            self.worker_busy_ns as f64 / total as f64
        }
    }

    /// Accumulates another run's (or worker's) counters.
    pub fn merge(&mut self, other: &RuntimeMetrics) {
        self.workers = self.workers.max(other.workers);
        self.steps += other.steps;
        self.repolls += other.repolls;
        self.run_queue_peak = self.run_queue_peak.max(other.run_queue_peak);
        self.in_flight_peak = self.in_flight_peak.max(other.in_flight_peak);
        self.shards_live_peak = self.shards_live_peak.max(other.shards_live_peak);
        self.worker_busy_ns += other.worker_busy_ns;
        self.worker_idle_ns += other.worker_idle_ns;
        if self.sched_delay_ns.len() < other.sched_delay_ns.len() {
            self.sched_delay_ns.resize(other.sched_delay_ns.len(), 0);
        }
        for (i, &n) in other.sched_delay_ns.iter().enumerate() {
            self.sched_delay_ns[i] += n;
        }
    }
}

/// Counters and latency samples of one scheduler run. Each decision counter
/// but `retries` is [`Metrics::observe`]'s fold of the records it names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Processes that committed: `ProcessCommitted`.
    pub committed: u64,
    /// Processes that aborted, cascades included: `ProcessAborted`.
    pub aborted: u64,
    /// Aborts begun as another process's cascade: `AbortStarted{Cascade}`.
    pub cascaded: u64,
    /// Forward activities committed at a subsystem: an immediate
    /// `RequestAdmitted`, or a `CommitReleased`.
    pub activities: u64,
    /// Compensating activities executed: `CompensationStarted`.
    pub compensations: u64,
    /// Retriable invocation retries, counted by hand: no record carries one.
    pub retries: u64,
    /// Activities executed under deferred commit: `CommitDeferred`.
    pub deferred_commits: u64,
    /// Requests and commits answered "wait": `RequestBlocked` and
    /// `CommitBlocked`, every re-poll (the journal keeps distinct ones).
    pub waits: u64,
    /// Cycle-closing requests and deadlock breaks: `RequestRejected`
    /// and `AbortStarted{Deadlock}`.
    pub rejections: u64,
    /// Virtual end-to-end latency samples, one per terminated process.
    pub latencies: Vec<u64>,
    /// Virtual makespan of the whole run.
    pub makespan: u64,
    /// Certification attempts answered "not PRED" (each forces a defer,
    /// retry or deadlock break): `CertifyOutcome` refusals.
    pub cert_failures: u64,
    /// Per-shard sizes (one entry per conflict-domain shard; the engine's
    /// one shard holds every process).
    pub shards: Vec<ShardMetrics>,
    /// Runtime-level observability (concurrent driver only; `None` for the
    /// virtual-time engine).
    pub runtime: Option<RuntimeMetrics>,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one decision of the scheduler step into the decision counters.
    pub fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::ProcessCommitted { .. } => self.committed += 1,
            TraceEvent::ProcessAborted { .. } => self.aborted += 1,
            TraceEvent::RequestAdmitted {
                deferred: false, ..
            }
            | TraceEvent::CommitReleased { .. } => self.activities += 1,
            TraceEvent::CompensationStarted { .. } => self.compensations += 1,
            TraceEvent::CommitDeferred { .. } => self.deferred_commits += 1,
            TraceEvent::RequestBlocked { .. } | TraceEvent::CommitBlocked { .. } => self.waits += 1,
            TraceEvent::RequestRejected { .. } => self.rejections += 1,
            TraceEvent::AbortStarted { reason, .. } => {
                self.cascaded += u64::from(*reason == AbortReason::Cascade);
                self.rejections += u64::from(*reason == AbortReason::Deadlock);
            }
            TraceEvent::CertifyOutcome { ok: false, .. } => self.cert_failures += 1,
            _ => {}
        }
    }

    /// Total terminated processes.
    pub fn terminated(&self) -> u64 {
        self.committed + self.aborted
    }

    /// Throughput in committed processes per 1000 virtual time units.
    pub fn throughput_per_kilotick(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.committed as f64 * 1000.0 / self.makespan as f64
        }
    }

    /// Latency percentile (0.0..=1.0) over the collected samples.
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        if self.latencies.is_empty() {
            return None;
        }
        let mut v = self.latencies.clone();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(v[idx])
    }

    /// Merges another run's counters into this one (for aggregation over
    /// repetitions).
    pub fn merge(&mut self, other: &Metrics) {
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.cascaded += other.cascaded;
        self.activities += other.activities;
        self.compensations += other.compensations;
        self.retries += other.retries;
        self.deferred_commits += other.deferred_commits;
        self.waits += other.waits;
        self.rejections += other.rejections;
        self.latencies.extend_from_slice(&other.latencies);
        self.makespan += other.makespan;
        self.cert_failures += other.cert_failures;
        self.shards.extend_from_slice(&other.shards);
        if let Some(rt) = &other.runtime {
            match &mut self.runtime {
                Some(mine) => mine.merge(rt),
                None => self.runtime = Some(rt.clone()),
            }
        }
    }

    /// Always 0: a shard is owned by its worker, not locked. Kept only
    /// because the frozen benchmark's `runtime.lock_wait_ms` row calls it;
    /// leaves with that row at the next benchmark re-definition.
    pub fn lock_wait_total_ns(&self) -> u64 {
        0
    }

    /// Always 0, kept only for the frozen benchmark's
    /// `runtime.lock_hold_ms` row (see [`Metrics::lock_wait_total_ns`]).
    pub fn lock_hold_total_ns(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_computation() {
        let m = Metrics {
            committed: 10,
            makespan: 2000,
            ..Metrics::new()
        };
        assert!((m.throughput_per_kilotick() - 5.0).abs() < 1e-9);
        assert_eq!(Metrics::new().throughput_per_kilotick(), 0.0);
    }

    #[test]
    fn percentiles() {
        let m = Metrics {
            latencies: vec![10, 20, 30, 40, 50],
            ..Metrics::new()
        };
        assert_eq!(m.latency_percentile(0.0), Some(10));
        assert_eq!(m.latency_percentile(0.5), Some(30));
        assert_eq!(m.latency_percentile(1.0), Some(50));
        assert_eq!(Metrics::new().latency_percentile(0.5), None);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Metrics {
            committed: 1,
            aborted: 2,
            latencies: vec![5],
            makespan: 100,
            ..Metrics::new()
        };
        let b = Metrics {
            committed: 3,
            cascaded: 1,
            latencies: vec![7, 9],
            makespan: 50,
            ..Metrics::new()
        };
        a.merge(&b);
        assert_eq!(a.committed, 4);
        assert_eq!(a.aborted, 2);
        assert_eq!(a.cascaded, 1);
        assert_eq!(a.terminated(), 6);
        assert_eq!(a.latencies, vec![5, 7, 9]);
        assert_eq!(a.makespan, 150);
    }

    /// A tiny deterministic generator for the percentile test (SplitMix64).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn delay_percentiles_are_within_an_eighth_of_the_exact_ones() {
        let mut state = 7;
        for round in 0..64 {
            // Delays from 8 ns to about 34 s, spread over 32 octaves.
            let samples: Vec<u64> = (0..1 + round * 37)
                .map(|_| {
                    let octave = 3 + splitmix(&mut state) % 32;
                    (1 << octave) + splitmix(&mut state) % (1 << octave)
                })
                .collect();
            let mut rt = RuntimeMetrics::new(1);
            samples.iter().for_each(|&ns| rt.record_delay_ns(ns));
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rank = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
            let reported = [
                (rt.delay_percentile_ns(0.50), rank(0.50)),
                (rt.delay_percentile_ns(0.95), rank(0.95)),
                (rt.delay_max_ns(), *sorted.last().unwrap()),
            ];
            for (got, exact) in reported {
                let got = got.expect("samples recorded");
                assert!(exact < got, "round {round}: {got} not above {exact}");
                assert!(
                    8 * (got - exact) <= exact,
                    "round {round}: {got} vs {exact}"
                );
            }
            assert!(rt.invariant_violations(None).is_empty(), "round {round}");
        }
    }

    #[test]
    fn runtime_metrics_delay_histogram_and_merge() {
        let mut a = RuntimeMetrics::new(4);
        for ns in [0, 1, 3, 1000, 1_000_000] {
            a.record_delay_ns(ns);
        }
        assert_eq!(a.sched_delay_ns.iter().sum::<u64>(), 5);
        // p0 resolves to the smallest non-empty bucket's upper edge.
        assert_eq!(a.delay_percentile_ns(0.0), Some(2));
        assert!(a.delay_percentile_ns(1.0).unwrap() >= 1_000_000);
        assert_eq!(RuntimeMetrics::new(1).delay_percentile_ns(0.5), None);

        let mut b = RuntimeMetrics::new(2);
        b.steps = 10;
        b.run_queue_peak = 7;
        b.in_flight_peak = 3;
        b.worker_busy_ns = 30;
        b.worker_idle_ns = 10;
        b.record_delay_ns(5);
        a.merge(&b);
        assert_eq!(a.workers, 4);
        assert_eq!(a.steps, 10);
        assert_eq!(a.run_queue_peak, 7);
        assert_eq!(a.sched_delay_ns.iter().sum::<u64>(), 6);
        assert!((b.utilization() - 0.75).abs() < 1e-9);

        let mut m = Metrics::new();
        let other = Metrics {
            runtime: Some(b.clone()),
            ..Metrics::new()
        };
        m.merge(&other);
        m.merge(&other);
        assert_eq!(m.runtime.as_ref().unwrap().steps, 20);
    }

    #[test]
    fn shard_metrics_merge_appends() {
        let shard = |shard, processes, events| ShardMetrics {
            shard,
            processes,
            events,
        };
        let mut a = Metrics {
            shards: vec![shard(0, 3, 12)],
            ..Metrics::new()
        };
        let b = Metrics {
            shards: vec![shard(1, 2, 8)],
            ..Metrics::new()
        };
        a.merge(&b);
        assert_eq!(a.shards, vec![shard(0, 3, 12), shard(1, 2, 8)]);
    }
}
