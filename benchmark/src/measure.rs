//! The measurement loop: rounds over a workload's inputs until the time is
//! up. Every unit of work (one run of one input, one recovery of one log
//! prefix) is repeated once per round, each repetition's time is scaled to
//! reference machine speed (`calib`), and the unit reports the median of
//! its repetitions.

use crate::calib::Speed;
use crate::stats::{median, percentile_sorted};
use crate::workloads::{
    cut_offset, recover_prefix, run_logged, run_once, setup, Input, Kind, Logged, Sample, CUTS,
};
use std::time::{Duration, Instant};
use txproc_engine::recovery::RecoveryReport;
use txproc_sim::workload::WorkloadConfig;

/// Set-ups timed per run, spread over the whole window like the rounds.
const SETUP_REPS: usize = 9;
const PERCENTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// Every repetition of one input: wall scaled to reference speed, and what
/// that run emitted (two-worker runs do not emit the same count each time).
#[derive(Default)]
pub struct Unit {
    pub wall_ns: Vec<f64>,
    pub events: Vec<f64>,
    pub committed: Vec<f64>,
}

/// Everything a measurement window produced.
pub struct Measured {
    pub rounds: usize,
    /// Samples of the first round, kept whole for verification and replay;
    /// their `wall_ns` is as measured, not scaled.
    pub first: Vec<Sample>,
    /// Logs and fsync counts of the first round (`durable_recovery` only).
    pub first_logs: Vec<(Vec<u8>, u64)>,
    /// Recovery reports of the first round, `CUTS` per input.
    pub first_recoveries: Vec<RecoveryReport>,
    /// Wall of the first round's recoveries, as measured.
    pub first_recovery_ns: u64,
    pub units: Vec<Unit>,
    /// Scaled time of every repetition of every (input, cut) recovery.
    pub recovery_ns: Vec<Vec<f64>>,
    /// Per round, at reference speed: events per second over the round, and
    /// p50 / p95 / p99 of its pooled latencies in µs.
    pub round_events_per_s: Vec<f64>,
    pub round_latency_us: [Vec<f64>; 3],
    pub latency_samples_per_round: usize,
    /// Processes run, and those that stalled or did not terminate.
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    fn per_second(&self, count: impl Fn(&Unit) -> &[f64]) -> f64 {
        let n: f64 = self.units.iter().map(|u| median(count(u))).sum();
        let wall_ns: f64 = self.units.iter().map(|u| median(&u.wall_ns)).sum();
        n * 1e9 / wall_ns
    }

    /// Events per second, every input at its median repetition.
    pub fn events_per_s(&self) -> f64 {
        self.per_second(|u| &u.events)
    }

    pub fn committed_per_s(&self) -> f64 {
        self.per_second(|u| &u.committed)
    }

    /// Wall of the first round as measured (not scaled), in ns.
    pub fn first_round_ns(&self) -> f64 {
        self.first.iter().map(|s| s.wall_ns).sum::<u64>() as f64
    }

    /// p50 / p95 / p99 latency in µs at reference speed. Concurrent
    /// workloads: the median round's value of each. `durable_recovery`: the
    /// percentiles over every (input, cut)'s median recovery.
    pub fn latency_us(&self) -> [f64; 3] {
        if self.recovery_ns.is_empty() {
            return [0, 1, 2].map(|k| median(&self.round_latency_us[k]));
        }
        let mut units: Vec<f64> = self.recovery_ns.iter().map(|r| median(r)).collect();
        units.sort_by(f64::total_cmp);
        PERCENTILES.map(|p| percentile_sorted(&units, p) / 1e3)
    }
}

/// Runs rounds over `inputs` for `seconds` (at least one whole round, so a
/// run always covers every input), re-timing the set-up between rounds.
pub fn measure(
    kind: Kind,
    configs: &[WorkloadConfig],
    inputs: &[Input],
    seconds: f64,
    traced: bool,
    speed: &mut Speed,
    setup_s: &mut Vec<f64>,
) -> Measured {
    let members = inputs.len();
    let durable = kind == Kind::DurableRecovery;
    let mut m = Measured {
        rounds: 0,
        first: Vec::new(),
        first_logs: Vec::new(),
        first_recoveries: Vec::new(),
        first_recovery_ns: 0,
        units: inputs.iter().map(|_| Unit::default()).collect(),
        recovery_ns: vec![Vec::new(); if durable { members * CUTS } else { 0 }],
        round_events_per_s: Vec::new(),
        round_latency_us: [Vec::new(), Vec::new(), Vec::new()],
        latency_samples_per_round: 0,
        attempted: 0,
        failed: 0,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let (mut round_ns, mut round_events) = (0.0, 0.0);
        let mut latencies: Vec<f64> = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            // The kernel was last timed right before this unit; `factor`
            // times it again right after.
            let (sample, factor) = if durable {
                let Logged {
                    sample,
                    log,
                    fsyncs,
                } = run_logged(kind, input, traced);
                let recoveries: Vec<(u64, RecoveryReport)> = (0..CUTS)
                    .map(|j| {
                        let cut = cut_offset(log.len(), members, i, j);
                        recover_prefix(input, log[..cut].to_vec())
                    })
                    .collect();
                let factor = speed.factor();
                for (j, (ns, report)) in recoveries.into_iter().enumerate() {
                    m.recovery_ns[i * CUTS + j].push(ns as f64 * factor);
                    latencies.push(ns as f64 * factor / 1e3);
                    if m.rounds == 0 {
                        m.first_recovery_ns += ns;
                        m.first_recoveries.push(report);
                    }
                }
                if m.rounds == 0 {
                    m.first_logs.push((log, fsyncs));
                }
                (sample, factor)
            } else {
                let sample = run_once(kind, input, traced, None);
                let factor = speed.factor();
                latencies.extend(
                    sample
                        .metrics
                        .latencies
                        .iter()
                        .map(|&us| us as f64 * factor),
                );
                (sample, factor)
            };
            let processes = input.workload.spec.process_count() as u64;
            m.attempted += processes;
            m.failed +=
                sample.stalled as u64 + processes.saturating_sub(sample.metrics.terminated());
            // An open loop's wall is set by its arrival schedule, not by the
            // machine's speed: it is the one time that is not scaled.
            let wall_ns = match kind {
                Kind::OpenPoisson => sample.wall_ns as f64,
                _ => sample.wall_ns as f64 * factor,
            };
            let events = sample.history.len() as f64;
            round_ns += wall_ns;
            round_events += events;
            let unit = &mut m.units[i];
            unit.wall_ns.push(wall_ns);
            unit.events.push(events);
            unit.committed.push(sample.metrics.committed as f64);
            if m.rounds == 0 {
                m.first.push(sample);
            }
        }
        m.rounds += 1;
        m.round_events_per_s.push(round_events * 1e9 / round_ns);
        latencies.sort_by(f64::total_cmp);
        m.latency_samples_per_round = latencies.len();
        for (k, p) in PERCENTILES.into_iter().enumerate() {
            m.round_latency_us[k].push(percentile_sorted(&latencies, p));
        }
        if setup_s.len() < SETUP_REPS {
            let started = Instant::now();
            std::hint::black_box(setup(configs));
            let raw_s = started.elapsed().as_secs_f64();
            setup_s.push(raw_s * speed.factor());
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    m
}
