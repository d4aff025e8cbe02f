//! `txproc` — command-line front end for the transactional process
//! management toolkit.
//!
//! ```text
//! txproc simulate  [--seed N] [--processes N] [--density F] [--failures F]
//!                  [--policy pred|pred-wait|pred-protocol|serial|conservative|unsafe-cc]
//!                  [--arrival-gap N] [--check] [--epoch N]
//!                  [--concurrent] [--workers N] [--shards auto|single]
//!                  [--wal PATH] [--durability buffered|fsync-N|fsync-epoch]
//!                  # --concurrent switches to the wall-clock concurrent driver
//!                  # --wal journals the run write-ahead to PATH; --durability
//!                  # picks the fsync policy (default fsync-epoch); --epoch N
//!                  # seals (and, under fsync-epoch, syncs) the journal every
//!                  # N history events (0 = every event, the default) and
//!                  # changes nothing else
//! txproc generate  [--seed N] [--processes N] [--density F] [--failures F]
//!                  [--json PATH]
//! txproc check     --scenario PATH.json        # {"spec": …, "history": …}
//! txproc demo      fig4a|fig4b|fig7|fig9       # PRED-check a paper schedule
//! txproc dot       p1|p2|p3|cim-construction|cim-production
//! txproc crash     [--seed N] [--at N] [--epoch N]  # crash/recovery demo
//!                  [--wal PATH] [--durability …]
//!                  # with --wal the in-memory image is discarded and the
//!                  # scheduler state is rebuilt from the log alone
//! txproc trace     [--seed N] [--processes N] [--density F] [--failures F]
//!                  [--policy …] [--arrival-gap N]
//!                  [--pid N] [--kind SUBSTR]   # filter the printed journal
//!                  [--explain PID]             # why was P blocked/aborted?
//!                  [--json PATH]               # JSONL event journal
//!                  [--chrome PATH]             # chrome://tracing / Perfetto
//!                  [--dot-dir DIR]             # per-step conflict-graph dots
//!                  [--trace-sample N]          # keep every Nth process chain
//! txproc stats     [--seed N] [--processes N] [--density F] [--failures F]
//!                  [--policy …] [--arrival-gap N]
//!                  [--concurrent] [--shards …] [--workers N]
//!                  [--prom PATH]               # Prometheus text (default: stdout)
//! txproc top       [--seed N] [--processes N] [--density F] [--failures F]
//!                  [--policy …] [--shards …] [--workers N] [--refresh-ms N]
//!                  # live phase table while the concurrent driver runs the
//!                  # workload, then its shard table and runtime line
//! txproc gauntlet  [--seeds N] [--seed-base N] [--scenario NAME] [--policy …]
//!                  [--shards auto|single] [--workers N] [--json PATH]
//!                  # run the named adversarial scenarios (engine + sharded
//!                  # concurrent) through the PRED / Proc-REC checkers and
//!                  # their acceptance envelopes; non-zero exit on failure
//! ```
//!
//! A flag its subcommand does not read is an error (exit 1), not ignored.

use serde::Deserialize;
use txproc_bench::scenarios;
use txproc_core::dot::process_to_dot;
use txproc_core::fixtures::{cim_world, paper_world};
use txproc_core::ids::ProcessId;
use txproc_core::pred::check_pred;
use txproc_core::schedule::{render, Schedule};
use txproc_core::spec::Spec;
use txproc_core::wal::{DurabilityPolicy, FileWal, WalWriter};
use txproc_engine::concurrent::{ConcurrentConfig, ShardMode};
use txproc_engine::engine::{Engine, RunConfig};
use txproc_engine::policy::PolicyKind;
use txproc_engine::recovery::{recover, Recovery, RecoverySource};
use txproc_engine::RunBuilder;
use txproc_sim::workload::{try_generate, WorkloadConfig};

/// Simple `--key value` argument map. It notes every key a command asks
/// for, so [`Args::finish`] can refuse the flags the command did not read on
/// the path it took: what a subcommand accepts is what it reads, with no
/// second list to keep in step.
struct Args {
    values: std::collections::BTreeMap<String, String>,
    positional: Vec<String>,
    asked: std::cell::RefCell<std::collections::BTreeSet<String>>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut values = std::collections::BTreeMap::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(key) = a.strip_prefix("--") {
                if matches!(key, "check" | "concurrent") {
                    values.insert(key.to_string(), "true".to_string());
                } else {
                    i += 1;
                    let v = raw.get(i).ok_or_else(|| format!("--{key} needs a value"))?;
                    values.insert(key.to_string(), v.clone());
                }
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Ok(Args {
            values,
            positional,
            asked: Default::default(),
        })
    }

    fn raw(&self, key: &str) -> Option<&String> {
        self.asked.borrow_mut().insert(key.to_string());
        self.values.get(key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.raw(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.raw(key).is_some()
    }

    /// Refuses a given flag that `cmd` did not ask for: a left-over
    /// `--key value` must fail the script that carries it, not silently
    /// select a default. Every command calls this once it has read its
    /// options and before it does any work.
    fn finish(&self, cmd: &str) -> Result<(), String> {
        let asked = self.asked.borrow();
        match self.values.keys().find(|k| !asked.contains(*k)) {
            Some(key) => Err(format!("unknown or unused flag --{key} for `{cmd}`")),
            None => Ok(()),
        }
    }
}

fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    PolicyKind::all()
        .into_iter()
        .find(|k| k.label() == name)
        .ok_or_else(|| format!("unknown policy: {name}"))
}

fn parse_shards(raw: &str) -> Result<ShardMode, String> {
    ShardMode::parse(raw).ok_or_else(|| format!("invalid --shards value: {raw} (want auto|single)"))
}

fn parse_workers(args: &Args) -> Result<Option<usize>, String> {
    match args.raw("workers") {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid --workers value: {raw}")),
    }
}

fn workload_from(args: &Args) -> Result<txproc_sim::workload::Workload, String> {
    try_generate(&WorkloadConfig {
        seed: args.get("seed", 42u64)?,
        processes: args.get("processes", 8usize)?,
        conflict_density: args.get("density", 0.3f64)?,
        failure_probability: args.get("failures", 0.1f64)?,
        ..WorkloadConfig::default()
    })
    .map_err(|e| e.to_string())
}

/// What `--wal PATH` and the options only a journaled run reads select.
struct WalOpts {
    path: std::path::PathBuf,
    policy: DurabilityPolicy,
    /// The journal's seal cadence, `--epoch N`.
    epoch: usize,
}

/// Parses the shared WAL options: `--wal PATH` turns journaling on,
/// `--durability` picks the fsync policy (default `fsync-epoch`), `--epoch N`
/// the seal cadence (default 0). Without `--wal` neither of the others is
/// read, so [`Args::finish`] refuses them rather than let them do nothing.
fn parse_wal(args: &Args) -> Result<Option<WalOpts>, String> {
    let Some(path) = args.raw("wal") else {
        return Ok(None);
    };
    let raw = args.get("durability", "fsync-epoch".to_string())?;
    let policy = DurabilityPolicy::parse(&raw).ok_or_else(|| {
        format!("unknown durability policy `{raw}` (buffered|fsync-N|fsync-epoch)")
    })?;
    Ok(Some(WalOpts {
        path: path.into(),
        policy,
        epoch: args.get("epoch", 0usize)?,
    }))
}

fn open_wal(wal: &WalOpts, seed: u64) -> Result<WalWriter, String> {
    let file = FileWal::create(&wal.path)
        .map_err(|e| format!("create WAL {}: {e}", wal.path.display()))?;
    Ok(WalWriter::new(Box::new(file), wal.policy, seed))
}

/// `simulate --concurrent`: the wall-clock concurrent driver instead of the
/// virtual-time engine. Config errors (e.g. `--workers 0`) surface as CLI
/// errors naming the knob to turn.
fn simulate_concurrent(
    args: &Args,
    w: &txproc_sim::workload::Workload,
    policy: PolicyKind,
) -> Result<(), String> {
    let shards = match args.raw("shards") {
        Some(raw) => parse_shards(raw)?,
        None => ShardMode::Auto,
    };
    let seed = args.get("seed", 42u64)?;
    let wal = parse_wal(args)?;
    let mut builder = RunBuilder::new(w).concurrent(ConcurrentConfig {
        policy,
        seed,
        shards,
        workers: parse_workers(args)?,
        epoch: wal.as_ref().map_or(0, |wal| wal.epoch),
        ..ConcurrentConfig::default()
    });
    let check = args.flag("check");
    args.finish("simulate")?;
    if let Some(wal) = &wal {
        builder = builder.durability(open_wal(wal, seed)?, 0);
    }
    let r = builder.try_run()?.into_concurrent();
    println!("policy:            {}", policy.label());
    println!("shards:            {}", r.metrics.shards.len());
    println!(
        "committed/aborted: {}/{}",
        r.metrics.committed, r.metrics.aborted
    );
    println!("activities:        {}", r.metrics.activities);
    println!("compensations:     {}", r.metrics.compensations);
    println!(
        "latency p50/p95:   {:?}/{:?} µs",
        r.metrics.latency_percentile(0.5),
        r.metrics.latency_percentile(0.95)
    );
    if let Some(rt) = &r.metrics.runtime {
        println!("workers:           {}", rt.workers);
        println!("steps/repolls:     {}/{}", rt.steps, rt.repolls);
        println!("run-queue peak:    {}", rt.run_queue_peak);
        println!("in-flight peak:    {}", rt.in_flight_peak);
        println!("built-shard peak:  {}", rt.shards_live_peak);
        println!(
            "sched delay p50/p95: {:?}/{:?} ns",
            rt.delay_percentile_ns(0.5),
            rt.delay_percentile_ns(0.95)
        );
        println!("worker utilization: {:.1}%", rt.utilization() * 100.0);
    }
    if check {
        check_history(&w.spec, &r.history)?;
    }
    Ok(())
}

/// `--check`: prints whether `history` is PRED and fails the command when it
/// is not, so the exit status carries the verdict.
fn check_history(spec: &Spec, history: &Schedule) -> Result<(), String> {
    let ok = txproc_core::pred::is_pred(spec, history).map_err(|e| e.to_string())?;
    println!("history PRED:      {ok}");
    if !ok {
        return Err("history is not PRED".to_string());
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let w = workload_from(args)?;
    let policy = parse_policy(&args.get("policy", "pred".to_string())?)?;
    if args.flag("concurrent") {
        return simulate_concurrent(args, &w, policy);
    }
    let seed = args.get("seed", 42u64)?;
    let wal = parse_wal(args)?;
    let cfg = RunConfig {
        policy,
        seed,
        arrival_gap: args.get("arrival-gap", 0u64)?,
        epoch: wal.as_ref().map_or(0, |wal| wal.epoch),
        ..RunConfig::default()
    };
    let check = args.flag("check");
    args.finish("simulate")?;
    let mut builder = RunBuilder::new(&w).config(cfg);
    if let Some(wal) = &wal {
        builder = builder.durability(open_wal(wal, seed)?, 0);
    }
    let r = builder.try_run()?.into_engine();
    println!("policy:            {}", policy.label());
    println!("makespan:          {}", r.metrics.makespan);
    println!(
        "committed/aborted: {}/{}",
        r.metrics.committed, r.metrics.aborted
    );
    println!("activities:        {}", r.metrics.activities);
    println!("compensations:     {}", r.metrics.compensations);
    println!("retries:           {}", r.metrics.retries);
    println!("deferred commits:  {}", r.metrics.deferred_commits);
    println!(
        "waits/rejections:  {}/{}",
        r.metrics.waits, r.metrics.rejections
    );
    println!(
        "latency p50/p95:   {:?}/{:?}",
        r.metrics.latency_percentile(0.5),
        r.metrics.latency_percentile(0.95)
    );
    if check {
        check_history(&w.spec, &r.history)?;
    }
    if let Some(wal) = &wal {
        let bytes = std::fs::metadata(&wal.path).map(|m| m.len()).unwrap_or(0);
        println!(
            "wal:               {} ({}, {bytes} bytes)",
            wal.path.display(),
            wal.policy.label()
        );
    }
    if !r.stalled.is_empty() {
        return Err(format!("stalled processes: {:?}", r.stalled));
    }
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let w = workload_from(args)?;
    let json_path = args.raw("json");
    args.finish("generate")?;
    println!("processes: {}", w.spec.process_count());
    for p in w.spec.processes() {
        let analysis = txproc_core::flex::FlexAnalysis::analyze(p, &w.spec.catalog);
        println!(
            "  {} ({} activities, guaranteed termination: {})",
            p.name,
            p.len(),
            analysis.has_guaranteed_termination()
        );
    }
    println!("services: {}", w.spec.catalog.len());
    println!(
        "declared conflicting pairs: {}",
        w.spec.conflicts.declared_pairs()
    );
    println!("subsystems: {}", w.deployment.subsystems().len());
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&w.spec).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("wrote spec to {path}");
    }
    Ok(())
}

/// On-disk scenario: a spec plus a history to check.
#[derive(Deserialize)]
struct Scenario {
    spec: Spec,
    history: Schedule,
}

fn cmd_check(args: &Args) -> Result<(), String> {
    let path = args.raw("scenario").ok_or("check needs --scenario PATH")?;
    args.finish("check")?;
    let raw = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let scenario: Scenario = serde_json::from_str(&raw).map_err(|e| e.to_string())?;
    print_pred_report(&scenario.spec, &scenario.history)
}

fn cmd_demo(args: &Args) -> Result<(), String> {
    args.finish("demo")?;
    let which = args
        .positional
        .first()
        .ok_or("demo needs a schedule name")?;
    let fx = paper_world();
    let s = match which.as_str() {
        "fig4a" => scenarios::figure4a_st2(&fx),
        "fig4b" => scenarios::figure4b_st2(&fx),
        "fig7" => scenarios::figure7(&fx),
        "fig9" => scenarios::figure9(&fx),
        other => return Err(format!("unknown demo schedule: {other}")),
    };
    print_pred_report(&fx.spec, &s)
}

fn print_pred_report(spec: &Spec, s: &Schedule) -> Result<(), String> {
    println!("history: {}", render(s));
    let serializable =
        txproc_core::serializability::is_serializable(spec, s).map_err(|e| e.to_string())?;
    println!("serializable: {serializable}");
    let report = check_pred(spec, s).map_err(|e| e.to_string())?;
    println!("reducible (RED): {}", report.reducible());
    println!("prefix-reducible (PRED): {}", report.pred);
    if let Some(k) = report.first_violation {
        println!("first violating prefix: {k} events");
    }
    Ok(())
}

fn cmd_dot(args: &Args) -> Result<(), String> {
    args.finish("dot")?;
    let which = args.positional.first().ok_or("dot needs a process name")?;
    let out = match which.as_str() {
        "p1" | "p2" | "p3" => {
            let fx = paper_world();
            let p = match which.as_str() {
                "p1" => &fx.p1,
                "p2" => &fx.p2,
                _ => &fx.p3,
            };
            process_to_dot(p, &fx.spec)
        }
        "cim-construction" | "cim-production" => {
            let fx = cim_world();
            let p = if which == "cim-construction" {
                &fx.construction
            } else {
                &fx.production
            };
            process_to_dot(p, &fx.spec)
        }
        other => return Err(format!("unknown process: {other}")),
    };
    print!("{out}");
    Ok(())
}

/// Re-runs a seeded workload with the trace journal attached and renders
/// the scheduler's decisions: pretty-printed (filterable), as a JSONL
/// journal, as a Chrome-trace timeline, as per-step conflict-graph dot
/// snapshots, or as an `--explain` decision chain for one process.
fn cmd_trace(args: &Args) -> Result<(), String> {
    use txproc_core::trace::{
        chrome_trace, explain_process, to_jsonl, Journal, SampleSink, TraceSink,
    };
    let w = workload_from(args)?;
    let policy = parse_policy(&args.get("policy", "pred".to_string())?)?;
    let cfg = RunConfig {
        policy,
        seed: args.get("seed", 42u64)?,
        arrival_gap: args.get("arrival-gap", 0u64)?,
        ..RunConfig::default()
    };
    let sample_n: u32 = args.get("trace-sample", 1u32)?;
    if sample_n == 0 {
        return Err("--trace-sample must be ≥ 1".to_string());
    }
    let (json, chrome, dot_dir) = (args.raw("json"), args.raw("chrome"), args.raw("dot-dir"));
    let explain = match args.raw("explain") {
        Some(raw) => Some(ProcessId(
            raw.parse()
                .map_err(|_| format!("invalid --explain pid: {raw}"))?,
        )),
        None => None,
    };
    let pid_filter: Option<ProcessId> = match args.raw("pid") {
        Some(raw) => Some(ProcessId(
            raw.parse().map_err(|_| format!("invalid --pid: {raw}"))?,
        )),
        None => None,
    };
    let kind_filter = args.raw("kind");
    args.finish("trace")?;
    let journal = Journal::new();
    let sink: Box<dyn TraceSink> = if sample_n > 1 {
        Box::new(SampleSink::new(journal.clone(), sample_n))
    } else {
        Box::new(journal.clone())
    };
    let r = txproc_engine::RunBuilder::new(&w)
        .config(cfg)
        .sink(sink)
        .run()
        .into_engine();
    let records = journal.snapshot();
    if sample_n > 1 {
        println!(
            "sampling 1-in-{sample_n} process chains: kept {} records",
            records.len()
        );
    }

    if let Some(path) = json {
        std::fs::write(path, to_jsonl(&records)).map_err(|e| e.to_string())?;
        println!("wrote {} trace records to {path}", records.len());
    }
    if let Some(path) = chrome {
        std::fs::write(path, chrome_trace(&records)).map_err(|e| e.to_string())?;
        println!("wrote chrome trace to {path} (load in chrome://tracing or Perfetto)");
    }
    if let Some(dir) = dot_dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let mut prefix = Schedule::new();
        for (i, e) in r.history.events().iter().enumerate() {
            prefix.push(e.clone());
            let dot = txproc_core::dot::conflict_graph_to_dot(&w.spec, &prefix)
                .map_err(|e| e.to_string())?;
            let path = std::path::Path::new(dir).join(format!("step_{:03}.dot", i + 1));
            std::fs::write(&path, dot).map_err(|e| e.to_string())?;
        }
        println!(
            "wrote {} conflict-graph snapshots to {dir}",
            r.history.len()
        );
    }
    if let Some(pid) = explain {
        print!("{}", explain_process(&records, pid));
        return Ok(());
    }
    let mut shown = 0usize;
    for rec in &records {
        if let Some(p) = pid_filter {
            if !rec.event.mentions(p) {
                continue;
            }
        }
        if let Some(k) = kind_filter {
            if !rec.event.kind().contains(k.as_str()) {
                continue;
            }
        }
        println!("{rec}");
        shown += 1;
    }
    println!(
        "-- {shown} of {} records (history: {} events, {} committed, {} aborted)",
        records.len(),
        r.history.len(),
        r.metrics.committed,
        r.metrics.aborted
    );
    Ok(())
}

/// `txproc stats`: run one workload with the telemetry registry enabled and
/// print it as Prometheus text (stdout, or `--prom PATH`): the phase
/// histograms, then the run's own counts ([`metrics_text`]).
fn cmd_stats(args: &Args) -> Result<(), String> {
    use txproc_core::telemetry::{prometheus_text, Telemetry};

    let w = workload_from(args)?;
    let policy = parse_policy(&args.get("policy", "pred".to_string())?)?;
    let tele = Telemetry::on();
    let prom = args.raw("prom");
    let builder = if args.flag("concurrent") {
        RunBuilder::new(&w).concurrent(ConcurrentConfig {
            policy,
            seed: args.get("seed", 42u64)?,
            shards: match args.raw("shards") {
                Some(raw) => parse_shards(raw)?,
                None => ShardMode::Auto,
            },
            workers: parse_workers(args)?,
            ..ConcurrentConfig::default()
        })
    } else {
        RunBuilder::new(&w).config(RunConfig {
            policy,
            seed: args.get("seed", 42u64)?,
            arrival_gap: args.get("arrival-gap", 0u64)?,
            ..RunConfig::default()
        })
    };
    args.finish("stats")?;
    let out = builder.telemetry(tele.clone()).try_run()?;
    let snap = tele
        .snapshot()
        .ok_or("telemetry registry produced no snapshot")?;
    let text = prometheus_text(&snap) + &metrics_text(out.metrics());
    match prom {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| e.to_string())?;
            println!("wrote Prometheus metrics to {path}");
        }
        None => print!("{text}"),
    }
    let m = out.metrics();
    eprintln!("run: {} committed, {} aborted", m.committed, m.aborted);
    Ok(())
}

/// A run's counts as Prometheus sample lines, read off its `Metrics`:
/// history events per shard, committed processes, and scheduler steps
/// (concurrent driver only).
fn metrics_text(m: &txproc_sim::metrics::Metrics) -> String {
    let mut out = String::from("# TYPE txproc_events_total counter\n");
    for s in &m.shards {
        out += &format!(
            "txproc_events_total{{shard=\"{}\"}} {}\n",
            s.shard, s.events
        );
    }
    out += "# TYPE txproc_committed_total counter\n";
    out += &format!("txproc_committed_total {}\n", m.committed);
    if let Some(rt) = &m.runtime {
        out += "# TYPE txproc_worker_steps_total counter\n";
        out += &format!("txproc_worker_steps_total {}\n", rt.steps);
    }
    out
}

/// One frame of the `txproc top` display: the phase table of a registry
/// snapshot and, once the run has ended, its shard table and runtime line
/// from the run's `Metrics`. A pure function, so it is unit-tested without
/// a terminal.
fn render_top(
    snap: &txproc_core::telemetry::Snapshot,
    done: Option<&txproc_sim::metrics::Metrics>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "txproc top — registry age {:.1} ms",
        snap.wall_ns as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>12} {:>10}",
        "phase", "count", "total µs", "p95 ns"
    );
    for p in snap.phases.iter().filter(|p| p.count > 0) {
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>12.1} {:>10}",
            p.phase,
            p.count,
            p.total_ns as f64 / 1e3,
            p.p95_ns
        );
    }
    let Some(m) = done else {
        return out;
    };
    let _ = writeln!(out, "{:<6} {:>9} {:>8}", "shard", "processes", "events");
    for s in &m.shards {
        let _ = writeln!(out, "{:<6} {:>9} {:>8}", s.shard, s.processes, s.events);
    }
    if let Some(rt) = &m.runtime {
        let _ = writeln!(
            out,
            "workers {} · steps {} · repolls {} · run-queue peak {} · in-flight peak {}",
            rt.workers, rt.steps, rt.repolls, rt.run_queue_peak, rt.in_flight_peak
        );
    }
    out
}

/// `txproc top`: run the concurrent driver with telemetry on, repaint the
/// phase table every `--refresh-ms` until the run finishes, then print the
/// final frame with the run's shard table and runtime line. Uses ANSI
/// clear-screen when stdout is a terminal, plain appended frames otherwise
/// (pipes, CI logs).
fn cmd_top(args: &Args) -> Result<(), String> {
    use std::io::IsTerminal;
    use std::sync::atomic::{AtomicBool, Ordering};
    use txproc_core::telemetry::Telemetry;

    let w = workload_from(args)?;
    let cfg = ConcurrentConfig {
        policy: parse_policy(&args.get("policy", "pred".to_string())?)?,
        seed: args.get("seed", 42u64)?,
        shards: match args.raw("shards") {
            Some(raw) => parse_shards(raw)?,
            None => ShardMode::Auto,
        },
        workers: parse_workers(args)?,
        ..ConcurrentConfig::default()
    };
    let refresh = std::time::Duration::from_millis(args.get("refresh-ms", 200u64)?.max(10));
    args.finish("top")?;
    let ansi = std::io::stdout().is_terminal();
    let paint = |frame: String| {
        if ansi {
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame}");
    };
    let tele = Telemetry::on();
    let done = AtomicBool::new(false);
    let result = std::sync::Mutex::new(None);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let r = txproc_engine::RunBuilder::new(&w)
                .concurrent(cfg)
                .telemetry(tele.clone())
                .try_run();
            *result.lock().expect("result mutex") = Some(r);
            done.store(true, Ordering::Release);
        });
        while !done.load(Ordering::Acquire) {
            if let Some(snap) = tele.snapshot() {
                paint(render_top(&snap, None));
            }
            std::thread::sleep(refresh);
        }
    });
    let r = result
        .into_inner()
        .expect("result mutex")
        .expect("run thread stores its result before setting done")?
        .into_concurrent();
    if let Some(snap) = tele.snapshot() {
        paint(render_top(&snap, Some(&r.metrics)));
    }
    println!(
        "done: {} committed, {} aborted, {} activities, {} compensations",
        r.metrics.committed, r.metrics.aborted, r.metrics.activities, r.metrics.compensations
    );
    Ok(())
}

/// Runs the scenario gauntlet: every named scenario (or one, with
/// `--scenario`) over `--seeds` seeds through engine and sharded-concurrent
/// runs, each history checked for PRED and Proc-REC, the aggregate checked
/// against the scenario's acceptance envelope. Errors (exit 1) when any
/// scenario fails.
fn cmd_gauntlet(args: &Args) -> Result<(), String> {
    use txproc_bench::scenarios::{run_scenario, GauntletConfig};
    let mut cfg = GauntletConfig::smoke();
    cfg.seeds = args.get("seeds", cfg.seeds)?;
    cfg.seed_base = args.get("seed-base", cfg.seed_base)?;
    cfg.policy = parse_policy(&args.get("policy", cfg.policy.label().to_string())?)?;
    if let Some(raw) = args.raw("shards") {
        cfg.shards = parse_shards(raw)?;
    }
    cfg.workers = parse_workers(args)?.or(cfg.workers);
    let scenarios =
        match args.raw("scenario") {
            Some(name) => vec![txproc_sim::scenario::find(name)
                .ok_or_else(|| format!("unknown scenario: {name}"))?],
            None => txproc_sim::scenario::registry(),
        };
    let json_path = args.raw("json");
    args.finish("gauntlet")?;
    let mut failed = Vec::new();
    let mut reports = Vec::new();
    for s in &scenarios {
        let report = run_scenario(s, &cfg);
        for m in &report.modes {
            println!(
                "{:<15} {:<16} seeds={:<4} commit-rate={:.3} p50={:?} p95={:?} pred-violations={} proc-rec-violations={} [{}] ({:.0} ms)",
                report.name,
                m.mode,
                m.runs,
                m.commit_rate,
                m.latency_p50,
                m.latency_p95,
                m.pred_violations,
                m.proc_rec_violations,
                if m.envelope_breaches.is_empty() {
                    "envelope ok".to_string()
                } else {
                    m.envelope_breaches.join("; ")
                },
                m.wall_ms,
            );
        }
        if !report.pass {
            failed.push(report.name.clone());
        }
        reports.push(report);
    }
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&reports).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if failed.is_empty() {
        println!(
            "gauntlet: all {} scenario(s) passed over {} seed(s)",
            reports.len(),
            cfg.seeds
        );
        Ok(())
    } else {
        Err(format!("gauntlet failures: {}", failed.join(", ")))
    }
}

fn cmd_crash(args: &Args) -> Result<(), String> {
    let w = workload_from(args)?;
    let at = args.get("at", 8usize)?;
    let wal = parse_wal(args)?;
    let seed = args.get("seed", 42u64)?;
    let run_cfg = RunConfig {
        seed,
        epoch: wal.as_ref().map_or(0, |wal| wal.epoch),
        ..RunConfig::default()
    };
    args.finish("crash")?;
    let mut engine = Engine::new(&w, run_cfg);
    if let Some(wal) = &wal {
        engine = engine.with_wal(open_wal(wal, seed)?);
    }
    engine.run_until_history(at);
    println!("history at crash: {}", render(engine.history()));
    let report = match &wal {
        // The honest crash path: discard the in-memory image and rebuild
        // everything from the durable log alone.
        Some(wal) => {
            drop(engine.crash());
            println!("replaying WAL:    {}", wal.path.display());
            let bytes = std::fs::read(&wal.path)
                .map_err(|e| format!("read WAL {}: {e}", wal.path.display()))?;
            Recovery::from(RecoverySource::WalBytes(bytes))
                .run(&w)
                .map_err(|e| e.to_string())?
        }
        None => recover(&w, engine.crash()).map_err(|e| e.to_string())?,
    };
    println!(
        "recovered: {} aborted, {} compensations, {} forward steps, {} 2PC groups resolved",
        report.aborted.len(),
        report.compensations,
        report.forward,
        report.resolved_groups
    );
    check_recovered(&w.spec, &report.history)
}

/// `crash`'s check: prints whether the recovered history is reducible and
/// fails the command when it is not.
fn check_recovered(spec: &Spec, history: &Schedule) -> Result<(), String> {
    let red = txproc_core::reduction::is_reducible(spec, history).map_err(|e| e.to_string())?;
    println!("recovered history RED: {red}");
    if !red {
        return Err("recovered history is not RED".to_string());
    }
    Ok(())
}

/// Runs subcommand `cmd`.
fn dispatch(cmd: &str, args: &Args) -> Result<(), String> {
    match cmd {
        "simulate" => cmd_simulate(args),
        "generate" => cmd_generate(args),
        "check" => cmd_check(args),
        "demo" => cmd_demo(args),
        "dot" => cmd_dot(args),
        "crash" => cmd_crash(args),
        "trace" => cmd_trace(args),
        "stats" => cmd_stats(args),
        "top" => cmd_top(args),
        "gauntlet" => cmd_gauntlet(args),
        other => Err(format!("unknown command: {other}")),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!(
            "usage: txproc <simulate|generate|check|demo|dot|crash|trace|stats|top|gauntlet> [options]"
        );
        std::process::exit(2);
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let result = dispatch(cmd, &args);
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        Args::parse(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// A temp path no other test of this binary, and no other process
    /// running the same binary, uses.
    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn arg_parsing() {
        let a = args(&["--seed", "7", "--density", "0.4", "fig7", "--check"]);
        assert_eq!(a.get("seed", 0u64).unwrap(), 7);
        assert!((a.get("density", 0.0f64).unwrap() - 0.4).abs() < 1e-9);
        assert_eq!(a.positional, vec!["fig7"]);
        assert!(a.flag("check"));
        assert!(!a.flag("json"));
        assert_eq!(a.get("processes", 8usize).unwrap(), 8);
    }

    #[test]
    fn invalid_value_reported() {
        let a = args(&["--seed", "x"]);
        assert!(a.get("seed", 0u64).is_err());
    }

    #[test]
    fn missing_value_reported() {
        let raw = vec!["--seed".to_string()];
        assert!(Args::parse(&raw).is_err());
    }

    #[test]
    fn crash_recovers_from_a_wal_file() {
        let path = scratch("txproc-cli-crash.wal");
        let a = args(&[
            "--seed",
            "5",
            "--processes",
            "6",
            "--at",
            "6",
            "--epoch",
            "4",
            "--wal",
            path.to_str().unwrap(),
        ]);
        cmd_crash(&a).unwrap();
        assert!(path.exists(), "crash left no WAL behind");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simulate_journals_through_the_wal_flag() {
        let path = scratch("txproc-cli-simulate.wal");
        let a = args(&[
            "--seed",
            "3",
            "--processes",
            "6",
            "--epoch",
            "4",
            "--durability",
            "buffered",
            "--wal",
            path.to_str().unwrap(),
        ]);
        cmd_simulate(&a).unwrap();
        let (records, clean) = txproc_core::wal::read_records(&std::fs::read(&path).unwrap());
        assert!(!records.is_empty());
        assert_eq!(clean, std::fs::metadata(&path).unwrap().len() as usize);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(parse_policy("pred").unwrap(), PolicyKind::Pred);
        assert_eq!(parse_policy("unsafe-cc").unwrap(), PolicyKind::UnsafeCc);
        assert!(parse_policy("bogus").is_err());
    }

    #[test]
    fn stats_exports_phases_and_run_counts() {
        let prom = scratch("txproc_stats_cli_test.prom");
        let base = ["--seed", "4", "--processes", "6", "--density", "0.4"];
        // Engine run: one shard, no runtime metrics.
        let mut a = base.to_vec();
        a.extend(["--prom", prom.to_str().unwrap()]);
        cmd_stats(&args(&a)).unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(
            text.contains("txproc_phase_duration_ns_count{phase=\"certify\"}"),
            "{text}"
        );
        assert!(text.contains("txproc_events_total{shard=\"0\"}"), "{text}");
        assert!(text.contains("txproc_committed_total "), "{text}");
        assert!(!text.contains("txproc_worker_steps_total"), "{text}");

        // Concurrent run: the steps of the worker pool as well.
        a.push("--concurrent");
        cmd_stats(&args(&a)).unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("txproc_events_total{shard="), "{text}");
        assert!(text.contains("txproc_worker_steps_total "), "{text}");
        std::fs::remove_file(&prom).ok();
    }

    #[test]
    fn top_runs_and_renders() {
        let a = args(&["--seed", "4", "--processes", "6", "--refresh-ms", "10"]);
        cmd_top(&a).unwrap();

        // Live frames show phases only; the final frame adds the run's
        // shard table and runtime line.
        use txproc_core::telemetry::Snapshot;
        use txproc_sim::metrics::{Metrics, RuntimeMetrics, ShardMetrics};
        let snap = Snapshot {
            wall_ns: 2_000_000,
            phases: Vec::new(),
        };
        let m = Metrics {
            shards: vec![ShardMetrics {
                shard: 3,
                processes: 5,
                events: 17,
            }],
            runtime: Some(RuntimeMetrics {
                workers: 2,
                steps: 9,
                ..RuntimeMetrics::default()
            }),
            ..Metrics::new()
        };
        let live = render_top(&snap, None);
        assert!(!live.contains("shard"), "{live}");
        let last = render_top(&snap, Some(&m));
        let row = |l: &str| l.split_whitespace().collect::<Vec<_>>() == ["3", "5", "17"];
        assert!(last.lines().any(row), "{last}");
        assert!(last.contains("workers 2 · steps 9"), "{last}");
    }

    #[test]
    fn trace_sampling_drops_chains() {
        let dir = scratch("txproc_trace_sample_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("full.jsonl");
        let sampled = dir.join("sampled.jsonl");
        let base = ["--seed", "4", "--processes", "8", "--density", "0.5"];
        let mut a = base.to_vec();
        a.extend(["--json", full.to_str().unwrap()]);
        cmd_trace(&args(&a)).unwrap();
        let mut b = base.to_vec();
        b.extend(["--json", sampled.to_str().unwrap(), "--trace-sample", "4"]);
        cmd_trace(&args(&b)).unwrap();
        let full_lines = std::fs::read_to_string(&full).unwrap().lines().count();
        let sampled_lines = std::fs::read_to_string(&sampled).unwrap().lines().count();
        assert!(
            sampled_lines > 0 && sampled_lines < full_lines,
            "sampling kept {sampled_lines} of {full_lines}"
        );
        assert!(cmd_trace(&args(&["--trace-sample", "0"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_concurrent_driver() {
        let run = args(&[
            "--seed",
            "3",
            "--processes",
            "6",
            "--concurrent",
            "--workers",
            "2",
            "--check",
        ]);
        cmd_simulate(&run).unwrap();
        // No process-count ceiling on the worker pool.
        let large = args(&["--processes", "600", "--concurrent"]);
        cmd_simulate(&large).unwrap();
        // An empty pool surfaces as a CLI error naming the knob.
        let bad = args(&["--concurrent", "--workers", "0"]);
        let err = cmd_simulate(&bad).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
    }

    #[test]
    fn gauntlet_runs_one_scenario() {
        let out = scratch("txproc_gauntlet_cli_test.json");
        let a = args(&[
            "--scenario",
            "zipf-hotspot",
            "--seeds",
            "2",
            "--json",
            out.to_str().unwrap(),
        ]);
        cmd_gauntlet(&a).unwrap();
        let raw = std::fs::read_to_string(&out).unwrap();
        assert!(raw.contains("zipf-hotspot"));
        assert!(raw.contains("pred_violations"));
        std::fs::remove_file(&out).ok();

        let bad = args(&["--scenario", "no-such"]);
        assert!(cmd_gauntlet(&bad).is_err());
    }

    #[test]
    fn invalid_workload_config_is_a_cli_error() {
        let a = args(&["--processes", "0"]);
        let err = cmd_simulate(&a).unwrap_err();
        assert!(err.contains("processes"), "{err}");
    }

    #[test]
    fn demo_schedules_check_cleanly() {
        for which in ["fig4a", "fig4b", "fig7", "fig9"] {
            cmd_demo(&args(&[which])).unwrap();
        }
    }

    #[test]
    fn dot_export_runs() {
        for which in ["p1", "p2", "p3", "cim-construction", "cim-production"] {
            cmd_dot(&args(&[which])).unwrap();
        }
    }

    #[test]
    fn trace_exports_and_explains() {
        let dir = scratch("txproc_trace_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("trace.jsonl");
        let chrome = dir.join("trace.json");
        let dots = dir.join("dots");
        let base = [
            "--seed",
            "4",
            "--processes",
            "6",
            "--density",
            "0.5",
            "--failures",
            "0.2",
        ];
        let mut export = base.to_vec();
        export.extend([
            "--json",
            json.to_str().unwrap(),
            "--chrome",
            chrome.to_str().unwrap(),
            "--dot-dir",
            dots.to_str().unwrap(),
        ]);
        cmd_trace(&args(&export)).unwrap();
        let jsonl = std::fs::read_to_string(&json).unwrap();
        assert!(jsonl.lines().count() > 0);
        assert!(std::fs::read_to_string(&chrome)
            .unwrap()
            .contains("traceEvents"));
        assert!(std::fs::read_dir(&dots).unwrap().count() > 0);
        let mut explain = base.to_vec();
        explain.extend(["--explain", "0"]);
        cmd_trace(&args(&explain)).unwrap();
        let mut filtered = base.to_vec();
        filtered.extend(["--pid", "1", "--kind", "request"]);
        cmd_trace(&args(&filtered)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--check` is a gate: a history that is not PRED fails `simulate` on
    /// either driver, and one that is passes.
    #[test]
    fn simulate_check_fails_a_history_that_is_not_pred() {
        let run = |policy: &[&str]| {
            let mut raw = vec!["--seed", "1", "--processes", "8", "--check"];
            raw.extend(["--density", "0.7", "--failures", "0.3"]);
            raw.extend_from_slice(policy);
            cmd_simulate(&args(&raw))
        };
        let err = run(&["--policy", "unsafe-cc"]).unwrap_err();
        assert!(err.contains("not PRED"), "{err}");
        run(&["--policy", "pred"]).unwrap();
        run(&["--policy", "pred", "--concurrent"]).unwrap();
    }

    /// `crash` fails when the recovered history is not reducible: Figure
    /// 4(b)'s cyclic conflicts survive completion, Figure 7's do not arise.
    #[test]
    fn crash_check_fails_a_recovered_history_that_is_not_red() {
        let fx = paper_world();
        let err = check_recovered(&fx.spec, &scenarios::figure4b_st2(&fx)).unwrap_err();
        assert!(err.contains("not RED"), "{err}");
        check_recovered(&fx.spec, &scenarios::figure7(&fx)).unwrap();
    }

    #[test]
    fn simulate_and_crash_run() {
        let a = args(&["--seed", "3", "--processes", "4"]);
        let check = args(&["--seed", "3", "--processes", "4", "--check"]);
        cmd_simulate(&check).unwrap();
        cmd_crash(&a).unwrap();
        cmd_generate(&a).unwrap();
    }

    /// One row per subcommand: a flag it does not read is refused before
    /// anything runs, and the error names the flag and the subcommand. The
    /// first two are the left-overs that were once swallowed: `--runtime`
    /// after the thread runtime went, `--epoch` on the non-journaling
    /// gauntlet. The last rows are flags a subcommand reads on another path
    /// only — journal options without `--wal`, engine options under
    /// `--concurrent` — and `--snapshot-every`, which went with the snapshots.
    #[test]
    fn each_subcommand_rejects_flags_it_does_not_read() {
        for (cmd, raw) in [
            ("simulate", &["--runtime", "events"][..]),
            ("gauntlet", &["--epoch", "16"]),
            ("generate", &["--check"]),
            ("check", &["--scenario", "x.json", "--seed", "1"]),
            ("demo", &["fig7", "--seed", "1"]),
            ("dot", &["p1", "--json", "x"]),
            ("crash", &["--check"]),
            ("trace", &["--workers", "2"]),
            ("stats", &["--epoch", "4"]),
            ("top", &["--concurrent"]),
            ("simulate", &["--epoch", "8"]),
            ("simulate", &["--durability", "buffered"]),
            ("crash", &["--wal", "x.wal", "--snapshot-every", "4"]),
            ("simulate", &["--concurrent", "--arrival-gap", "5"]),
            ("stats", &["--concurrent", "--arrival-gap", "5"]),
        ] {
            let err = dispatch(cmd, &args(raw)).unwrap_err();
            let flag = raw.iter().rev().find(|a| a.starts_with("--")).unwrap();
            assert!(
                err.contains(flag) && err.contains(&format!("`{cmd}`")),
                "{cmd}: {err}"
            );
        }
        assert!(dispatch("bench", &args(&[])).is_err(), "unknown command");
    }
}
