//! One workload's run from set-up to printed result.

use crate::calib::{Speed, REFERENCE_S};
use crate::contract::{self, END_TO_END, LAYER_STATS};
use crate::layers::{self, Counts, Shards};
use crate::measure::{measure, Measured};
use crate::spans::{LayerStat, Spans};
use crate::stats::{highest_resolved_percentile, median, percentile_sorted, quartiles, spread};
use crate::verify::Verifier;
use crate::workloads::{
    cut_offset, open_config, out_dir, run_logged_to_file, run_once, setup, Input, Kind, Sample,
    CUTS,
};
use std::collections::BTreeMap;
use std::time::Instant;
use txproc_core::domains::DomainPartition;
use txproc_core::telemetry::Phase;
use txproc_core::wal::{read_records, FileWal, MemWal, WalRecord};
use txproc_sim::metrics::RuntimeMetrics;
use txproc_sim::workload::{arrival_times, WorkloadConfig};

/// Parts of the run's wall: with `runtime.idle.share` and
/// `unattributed.share` their shares sum to 1. The gated logged run appends
/// to a `MemWal`, so that is the append that is part of its wall.
const RUN_LAYERS: [&str; 5] = ["certify", "protocol", "subsystem", "tpc", "wal.append.mem"];
/// Parts of one recovery.
const RECOVERY_LAYERS: [&str; 3] = ["wal.read", "rebuild", "recover"];
/// Replay passes of a traced run: at least the first, at most the second.
const PASSES: (usize, usize) = (3, 9);

/// A gated metric with the samples behind it.
struct Timing {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

pub struct Report {
    pub kind: Kind,
    traced: bool,
    notes: Vec<String>,
    timings: Vec<Timing>,
    layers: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    /// Work counts that repeat exactly on the deterministic workloads.
    pub exact_counts: Vec<(&'static str, u64)>,
}

fn sum<T>(items: &[T], f: impl Fn(&T) -> u64) -> u64 {
    items.iter().map(f).sum()
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn end_to_end(&self, name: &str) -> f64 {
        self.timings
            .iter()
            .find(|t| t.name == name)
            .map_or(f64::NAN, |t| t.value)
    }

    /// The result line the driver reads: end-to-end metrics of an untraced
    /// run, per-layer metrics of a traced one.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = if self.traced {
            contract::per_layer()
                .iter()
                .map(|(name, unit, _)| {
                    let value = self.layers.get(name).copied().unwrap_or(0.0);
                    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                })
                .collect()
        } else {
            self.timings
                .iter()
                .map(|t| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        t.name, t.value, t.unit
                    )
                })
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn print_table(&self) {
        eprintln!("\n== {} ==", self.kind.name());
        for note in &self.notes {
            eprintln!("  {note}");
        }
        // `value` is the gated estimate (every unit of work at its median
        // repetition); the rest describes the per-round (or per-set-up)
        // samples of this run. All at reference machine speed.
        eprintln!(
            "  {:<16} {:>5} {:>14} {:>5} {:>14} {:>14} {:>14} {:>7}",
            "end-to-end", "unit", "value", "n", "median", "q1", "q3", "spread"
        );
        for t in &self.timings {
            let (q1, med, q3) = quartiles(&t.samples);
            eprintln!(
                "  {:<16} {:>5} {:>14.4} {:>5} {:>14.4} {:>14.4} {:>14.4} {:>6.1}%",
                t.name,
                t.unit,
                t.value,
                t.samples.len(),
                med,
                q1,
                q3,
                spread(&t.samples) * 100.0
            );
        }
        if self.traced {
            eprintln!("  {:<34} {:>6} {:>16}", "per-layer", "unit", "value");
            for (name, unit, _) in contract::per_layer() {
                let value = self.layers.get(&name).copied().unwrap_or(0.0);
                if value != 0.0 {
                    eprintln!("  {name:<34} {unit:>6} {value:>16.4}");
                }
            }
        }
        eprintln!(
            "  attempted {} failed {} failed_share {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
    }
}

/// Runs one workload: set-up, measured window, verification, and on a
/// traced run the traced rounds and the per-layer replays.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Report {
    let configs = kind.configs(seed, smoke);
    let mut speed = Speed::new();
    let started = Instant::now();
    let inputs = setup(&configs);
    let raw_setup_s = started.elapsed().as_secs_f64();
    let mut setup_s = vec![raw_setup_s * speed.factor()];

    // A traced run measures the end-to-end numbers in 0.4 of its window and
    // spends the rest on traced rounds and replays.
    let window_s = if traced { seconds * 0.4 } else { seconds };
    let mut m = measure(
        kind,
        &configs,
        &inputs,
        window_s,
        false,
        &mut speed,
        &mut setup_s,
    );
    let mut attempted = m.attempted;
    let mut failed = m.failed;

    let mut checker_spans = Spans::new();
    let mut verifier = Verifier::new();
    for (i, (input, sample)) in inputs.iter().zip(&m.first).enumerate() {
        let parent = checker_spans.open("verify:run", None, i as u32);
        verifier.check_history(
            input,
            &sample.history,
            Some(sample.metrics.committed),
            &format!("{} input {i}", kind.name()),
            &mut checker_spans,
            parent,
        );
        checker_spans.close(parent);
    }
    for (k, report) in std::mem::take(&mut m.first_recoveries)
        .into_iter()
        .enumerate()
    {
        let (i, j) = (k / CUTS, k % CUTS);
        let parent = checker_spans.open("verify:recovery", None, i as u32);
        verifier.check_recovery(
            &inputs[i],
            report,
            &format!("{} input {i} cut {j}", kind.name()),
            &mut checker_spans,
            parent,
        );
        checker_spans.close(parent);
    }
    failed += verifier.failures.len() as u64;

    let latency = m.latency_us();
    let timings = END_TO_END
        .iter()
        .map(|metric| {
            let (value, samples) = match metric.name {
                "events_per_s" => (m.events_per_s(), m.round_events_per_s.clone()),
                "latency_p50_us" => (latency[0], m.round_latency_us[0].clone()),
                "setup_s" => (median(&setup_s), setup_s.clone()),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            Timing {
                name: metric.name,
                unit: metric.unit,
                value,
                samples,
            }
        })
        .collect();

    let processes = sum(&inputs, |i| i.workload.spec.process_count() as u64);
    let tail = highest_resolved_percentile(m.latency_samples_per_round);
    let mut notes = vec![format!(
        "seed {seed}: {} inputs, {processes} processes, {} rounds in {window_s:.1} s; \
         {} latency samples per round (highest resolved percentile {tail}); \
         PRED checked on {} projections by the batch checker, {} by the incremental one",
        inputs.len(),
        m.rounds,
        m.latency_samples_per_round,
        verifier.batch_projections,
        verifier.incremental_projections
    )];

    let mut exact_counts = vec![
        ("events", sum(&m.first, |s| s.history.len() as u64)),
        ("committed", sum(&m.first, |s| s.metrics.committed)),
        ("aborted", sum(&m.first, |s| s.metrics.aborted)),
        ("cascaded", sum(&m.first, |s| s.metrics.cascaded)),
        ("compensations", sum(&m.first, |s| s.metrics.compensations)),
        ("retries", sum(&m.first, |s| s.metrics.retries)),
        (
            "deferred_commits",
            sum(&m.first, |s| s.metrics.deferred_commits),
        ),
        ("cert_failures", sum(&m.first, |s| s.metrics.cert_failures)),
    ];
    if !m.first_logs.is_empty() {
        exact_counts.push(("wal_bytes", sum(&m.first_logs, |l| l.0.len() as u64)));
        exact_counts.push(("wal_fsyncs", sum(&m.first_logs, |l| l.1)));
    }
    notes.push(format!("work counts of the first round: {exact_counts:?}"));
    if verifier.recovered_proc_rec_objections > 0 {
        notes.push(format!(
            "proc_rec_violations objected {} times to recovered histories (reported, not failed)",
            verifier.recovered_proc_rec_objections
        ));
    }

    let mut layers = BTreeMap::new();
    if traced {
        // A fifth of the window in pairs of rounds, one untraced and one
        // traced (a `Journal` sink and live telemetry attached) back to
        // back: tracing overhead is the median ratio of their walls as
        // measured. The first traced round is what the passes replay.
        let mut artifacts = None;
        let mut overhead_ratios = Vec::new();
        let started = Instant::now();
        while artifacts.is_none() || started.elapsed().as_secs_f64() < seconds * 0.2 {
            let mut one_round = |traced| {
                let round = measure(
                    kind,
                    &configs,
                    &inputs,
                    0.0,
                    traced,
                    &mut speed,
                    &mut setup_s,
                );
                attempted += round.attempted;
                failed += round.failed;
                round
            };
            let plain = one_round(false);
            let traced = one_round(true);
            overhead_ratios.push(traced.first_round_ns() / plain.first_round_ns());
            artifacts.get_or_insert(traced);
        }
        let artifacts = artifacts.expect("the loop ran once");
        let passes = replay(kind, &inputs, &artifacts, seconds * 0.4, &mut speed);
        let divergences = sum(&passes, |p| p.counts.divergences);
        if divergences > 0 {
            notes.push(format!(
                "WARNING: {divergences} replayed calls diverged from the run's record; \
                 the layer shares of this run are suspect"
            ));
        }
        notes.push(format!(
            "{} traced/untraced round pairs, {} replay passes",
            overhead_ratios.len(),
            passes.len()
        ));
        let t = Traced {
            artifacts,
            overhead_ratios,
            passes,
        };
        per_layer(
            kind,
            &inputs,
            &m,
            &t,
            &verifier,
            &checker_spans,
            &mut layers,
        );
        for (name, count) in exact_counts.iter().filter(|c| !c.0.starts_with("wal_")) {
            layers.insert(format!("work.{name}"), *count as f64);
        }
        if kind == Kind::DurableRecovery {
            layers.insert("durable_slowdown".into(), durable_slowdown(kind, &inputs));
        }
        if kind == Kind::OpenPoisson {
            other_rates(seed, &inputs[0].workload.config, &m, &mut layers);
        }
    }

    let (q1, med, q3) = quartiles(&speed.samples_s);
    notes.push(format!(
        "machine speed: the calibration kernel took {:.0} / {:.0} / {:.0} us (q1 / median / q3 of {}); \
         every time above is scaled to a kernel time of {:.0} us",
        q1 * 1e6,
        med * 1e6,
        q3 * 1e6,
        speed.samples_s.len(),
        REFERENCE_S * 1e6
    ));
    Report {
        kind,
        traced,
        notes,
        timings,
        layers,
        attempted,
        failed,
        exact_counts,
    }
}

/// One replay of every layer over every input of the traced round.
struct Pass {
    spans: Spans,
    counts: Counts,
    /// Per input, the factor that scales its spans to reference speed: the
    /// calibration kernel is timed after each input's replays.
    factors: Vec<f64>,
}

struct Traced {
    /// The first traced round: its journals, telemetry and logs are what
    /// the passes replay.
    artifacts: Measured,
    /// Traced over untraced wall of rounds run back to back.
    overhead_ratios: Vec<f64>,
    passes: Vec<Pass>,
}

fn replay(
    kind: Kind,
    inputs: &[Input],
    artifacts: &Measured,
    seconds: f64,
    speed: &mut Speed,
) -> Vec<Pass> {
    let records: Vec<Vec<WalRecord>> = artifacts
        .first_logs
        .iter()
        .map(|(log, _)| read_records(log).0)
        .collect();
    let shards: Vec<Shards<'_>> = inputs
        .iter()
        .zip(&artifacts.first)
        .map(|(input, sample)| Shards::of(input, sample))
        .collect();
    let replay_path = out_dir().join(format!("{}-replay.wal", kind.name()));
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while passes.len() < PASSES.0
        || (passes.len() < PASSES.1 && started.elapsed().as_secs_f64() < seconds)
    {
        let mut spans = Spans::new();
        let mut counts = Counts::default();
        let mut factors = Vec::new();
        // Time the kernel afresh, so that the first input's factor is taken
        // on both sides of its own replays.
        speed.factor();
        for (i, (input, sample)) in inputs.iter().zip(&artifacts.first).enumerate() {
            let iter = i as u32;
            layers::certify(&shards[i], sample, &mut spans, iter, &mut counts);
            layers::protocol(&shards[i], sample, &mut spans, iter, &mut counts);
            if let Some(records) = records.get(i) {
                let wal_seed = input.workload.config.seed;
                layers::subsystem_from_wal(input, records, &mut spans, iter, &mut counts);
                layers::wal_append(
                    &layers::APPEND_TO_MEM,
                    Box::new(MemWal::new()),
                    wal_seed,
                    records,
                    &mut spans,
                    iter,
                );
                let file = FileWal::create(&replay_path).expect("create the replay WAL file");
                layers::wal_append(
                    &layers::APPEND_TO_FILE,
                    Box::new(file),
                    wal_seed,
                    records,
                    &mut spans,
                    iter,
                );
                let log = &artifacts.first_logs[i].0;
                for j in 0..CUTS {
                    let cut = cut_offset(log.len(), inputs.len(), i, j);
                    layers::recovery(input, &log[..cut], &mut spans, iter, &mut counts);
                }
            } else {
                layers::subsystem_from_journal(input, sample, &mut spans, iter, &mut counts);
            }
            factors.push(speed.factor());
        }
        passes.push(Pass {
            spans,
            counts,
            factors,
        });
    }
    passes
}

/// What the device adds: a quarter of the pool run unlogged and then
/// journaled to a real file under `FsyncPerEpoch`, back to back; the median
/// ratio of three such rounds.
fn durable_slowdown(kind: Kind, inputs: &[Input]) -> f64 {
    let wal_path = out_dir().join(format!("{}.wal", kind.name()));
    let ratios: Vec<f64> = (0..PASSES.0)
        .map(|_| {
            let (mut unlogged_ns, mut logged_ns) = (0, 0);
            for input in &inputs[..inputs.len().div_ceil(4)] {
                unlogged_ns += run_once(kind, input, false, None).wall_ns;
                logged_ns += run_logged_to_file(kind, input, &wal_path);
            }
            logged_ns as f64 / unlogged_ns as f64
        })
        .collect();
    median(&ratios)
}

/// Fills in the per-layer metrics from the replay passes, the verified
/// first round and the run's own `Metrics`.
fn per_layer(
    kind: Kind,
    inputs: &[Input],
    m: &Measured,
    t: &Traced,
    verifier: &Verifier,
    checker_spans: &Spans,
    out: &mut BTreeMap<String, f64>,
) {
    // A layer's calls, total and per-call percentiles come from its fastest
    // pass, as measured. Its share is taken at reference speed: per input
    // the median over passes of the layer's scaled total, summed, against
    // `against_ns`, which is scaled the same way.
    let mut put_layer = |layer: &str, against_ns: f64| -> f64 {
        let stat = t
            .passes
            .iter()
            .map(|p| p.spans.layer(layer))
            .min_by_key(|stat| stat.total_ns)
            .unwrap_or_default();
        let by_pass: Vec<Vec<f64>> = t
            .passes
            .iter()
            .map(|p| p.spans.layer_ns_by_iter(layer, inputs.len()))
            .collect();
        let scaled_ns: f64 = (0..inputs.len())
            .map(|i| {
                let of_input: Vec<f64> = t
                    .passes
                    .iter()
                    .zip(&by_pass)
                    .map(|(p, ns)| ns[i] * p.factors[i])
                    .collect();
                median(&of_input)
            })
            .sum();
        let share = if against_ns > 0.0 {
            scaled_ns / against_ns
        } else {
            0.0
        };
        put_stat(out, layer, &stat, share);
        share
    };
    // Worker-time of one round and wall of its recoveries, every unit at
    // its median repetition in the measured window.
    let workers = kind.workers().unwrap_or(1) as f64;
    let run_ns = m.units.iter().map(|u| median(&u.wall_ns)).sum::<f64>() * workers;
    let recovery_ns: f64 = m.recovery_ns.iter().map(|r| median(r)).sum();
    let attributed: f64 = RUN_LAYERS
        .iter()
        .map(|layer| put_layer(layer, run_ns))
        .sum();
    // What the same appends cost on a real file: the device on top of the
    // in-memory append, not a part of the gated run's wall.
    put_layer("wal.append.file", run_ns);
    let recovered: f64 = RECOVERY_LAYERS
        .iter()
        .map(|layer| put_layer(layer, recovery_ns))
        .sum();
    put_stat(out, "checker", &checker_spans.layer("checker"), 0.0);

    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    let first = &m.first;
    let idle_ns = sum(first, |s| {
        s.metrics.runtime.as_ref().map_or(0, |r| r.worker_idle_ns)
    });
    let idle = idle_ns as f64 / (m.first_round_ns() * workers);
    put("runtime.idle.share", idle);
    put("unattributed.share", 1.0 - attributed - idle);
    if recovered > 0.0 {
        put("recovery.unattributed.share", 1.0 - recovered);
    }
    put(
        "trace.overhead_pct",
        (median(&t.overhead_ratios) - 1.0) * 100.0,
    );

    // The trace file holds the first pass; counts repeat from pass to pass.
    let first_pass = &t.passes[0];
    if let Err(e) = first_pass.spans.write_jsonl(
        &out_dir().join(format!("trace-{}.jsonl", kind.name())),
        kind.name(),
    ) {
        eprintln!("warning: could not write the trace file: {e}");
    }
    let counts = &first_pass.counts;
    let traced_ns = sum(&t.artifacts.first, |s| s.wall_ns) as f64 * workers;
    for (name, phase) in [
        ("telemetry.certify.share", Phase::Certify),
        ("telemetry.policy.share", Phase::Policy),
    ] {
        let ns = sum(&t.artifacts.first, |s| {
            s.telemetry
                .as_ref()
                .and_then(|snapshot| snapshot.phase(phase))
                .map_or(0, |p| p.total_ns)
        });
        put(name, ns as f64 / traced_ns);
    }
    let certify_calls = first_pass.spans.layer("certify").calls.max(1);
    put("certify.rejects", counts.certify_rejects as f64);
    put(
        "certify.alloc_bytes_per_call",
        counts.certify_alloc_bytes as f64 / certify_calls as f64,
    );
    put("certify.state_bytes_end", counts.certify_state_bytes as f64);
    put("protocol.waits", counts.protocol_waits as f64);
    put("protocol.rejections", counts.protocol_rejections as f64);
    put("subsystem.busy", counts.subsystem_busy as f64);
    let groups = first_pass.spans.layer("tpc").calls;
    if groups > 0 {
        put(
            "tpc.participants_per_group",
            counts.tpc_participants as f64 / groups as f64,
        );
    }

    let events = sum(first, |s| s.history.len() as u64);
    if !m.first_logs.is_empty() {
        let bytes = sum(&m.first_logs, |l| l.0.len() as u64);
        put(
            "wal.records",
            sum(&m.first_logs, |l| read_records(&l.0).0.len() as u64) as f64,
        );
        put("wal.bytes", bytes as f64);
        put("wal.fsyncs", sum(&m.first_logs, |l| l.1) as f64);
        put("wal.bytes_per_event", bytes as f64 / events as f64);
        put("recover.compensations", counts.recover_compensations as f64);
        put("recover.forward", counts.recover_forward as f64);
        put(
            "recover.proc_rec_objections",
            verifier.recovered_proc_rec_objections as f64,
        );
    }

    let partition_ms: Vec<f64> = (0..PASSES.0)
        .map(|_| {
            let started = Instant::now();
            for input in inputs {
                std::hint::black_box(DomainPartition::partition(&input.workload.spec));
            }
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    put("domains.partition_ms", median(&partition_ms));
    put(
        "domains.count",
        sum(inputs, |i| i.partition.domain_count() as u64) as f64,
    );
    put(
        "domains.largest",
        inputs
            .iter()
            .flat_map(|i| i.partition.domains().iter().map(Vec::len))
            .max()
            .unwrap_or(0) as f64,
    );
    put(
        "checker.batch_projections",
        verifier.batch_projections as f64,
    );
    put(
        "checker.incremental_projections",
        verifier.incremental_projections as f64,
    );

    put(
        "runtime.lock_wait_ms",
        sum(first, |s| s.metrics.lock_wait_total_ns()) as f64 / 1e6,
    );
    put(
        "runtime.lock_hold_ms",
        sum(first, |s| s.metrics.lock_hold_total_ns()) as f64 / 1e6,
    );
    let mut runtime = RuntimeMetrics::default();
    for r in first.iter().filter_map(|s| s.metrics.runtime.as_ref()) {
        runtime.merge(r);
    }
    put("runtime.run_queue_peak", runtime.run_queue_peak as f64);
    put("runtime.in_flight_peak", runtime.in_flight_peak as f64);
    put("runtime.worker_utilization", runtime.utilization());
    put("runtime.steps", runtime.steps as f64);
    put("runtime.repolls", runtime.repolls as f64);
    put(
        "runtime.sched_delay_p95_us",
        runtime.delay_percentile_ns(0.95).unwrap_or(0) as f64 / 1e3,
    );

    let processes = sum(inputs, |i| i.workload.spec.process_count() as u64);
    let committed = sum(first, |s| s.metrics.committed);
    let latency = m.latency_us();
    put("latency_p95_us", latency[1]);
    put("latency_p99_us", latency[2]);
    put("commit_share", committed as f64 / processes as f64);
    put("committed_per_s", m.committed_per_s());
    put("work.processes", processes as f64);
}

fn put_stat(out: &mut BTreeMap<String, f64>, layer: &str, stat: &LayerStat, share: f64) {
    let values = [
        stat.calls as f64,
        stat.total_ns as f64 / 1e6,
        stat.p50_ns,
        stat.p99_ns,
        share,
    ];
    for ((name, _, _), value) in LAYER_STATS.iter().zip(values) {
        out.insert(format!("{layer}.{name}"), value);
    }
}

/// Seconds the run went on after its last arrival was due.
fn backlog_s(config: &WorkloadConfig, wall_ns: u64) -> f64 {
    let last_due_us = arrival_times(config).last().copied().unwrap_or(0);
    wall_ns as f64 / 1e9 - last_due_us as f64 / 1e6
}

/// The open loop's backlog at the gated rate, and its tail latency at the
/// two rates that are reported but never gated: 1000/s, far below the knee,
/// and 4000/s, the knee itself (best of two runs each).
fn other_rates(seed: u64, gated: &WorkloadConfig, m: &Measured, out: &mut BTreeMap<String, f64>) {
    out.insert("backlog_s".into(), backlog_s(gated, m.first[0].wall_ns));
    for (rate, gap, processes) in [("r1000", 1000, 2000), ("r4000", 250, 4000)] {
        let input = setup(&[open_config(seed, processes, gap)]).remove(0);
        let runs: Vec<(f64, f64)> = (0..2)
            .map(|_| {
                let Sample {
                    wall_ns,
                    mut metrics,
                    ..
                } = run_once(Kind::OpenPoisson, &input, false, None);
                metrics.latencies.sort_unstable();
                let latencies: Vec<f64> = metrics.latencies.iter().map(|&us| us as f64).collect();
                (
                    percentile_sorted(&latencies, 0.99),
                    backlog_s(&input.workload.config, wall_ns),
                )
            })
            .collect();
        let best = |f: fn(&(f64, f64)) -> f64| runs.iter().map(f).fold(f64::INFINITY, f64::min);
        out.insert(format!("open.{rate}.latency_p99_us"), best(|r| r.0));
        if rate == "r4000" {
            out.insert("open.r4000.backlog_s".into(), best(|r| r.1));
        }
    }
}
