//! The benchmark's fixed vocabulary: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from these tables (`--print-benchmark-json`)
//! and a test keeps the two identical.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// `(name, why)` of every workload, in running order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "closed_contended",
        "closed loop, 1 worker, pool of 16 inputs of 96 processes, each mostly one conflict domain: certify is ~78% of the wall, so core::pred_incremental does the work",
    ),
    (
        "closed_disjoint",
        "closed loop, 2 workers, 4096 processes in ~1300 tiny domains: certify does little; policy, agents, shard locks, run queues, partition and ticket merge do the work",
    ),
    (
        "open_poisson",
        "open loop, 2 workers, Poisson arrivals at 2000/s, below the knee: independent arrivals, napping workers and a long-lived certifier, so latency moves, not throughput",
    ),
    (
        "durable_recovery",
        "engine journaling under FsyncPerEpoch, then every log cut at eight lengths and recovered: core::wal both ways and the engine driver; latency here is recovery time",
    ),
];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One gated end-to-end metric: `bound` is the share of the parent's median
/// by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these (the contract's rule), so each
/// is defined on all four; README says what "latency" times on each, and why
/// the tail percentiles are reported per layer and not gated.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Statistics every spanned layer reports, as `<layer>.<stat>`.
pub const LAYER_STATS: [(&str, &str, Better); 5] = [
    ("calls", "count", Better::Lower),
    ("total_ms", "ms", Better::Lower),
    ("p50_ns", "ns", Better::Lower),
    ("p99_ns", "ns", Better::Lower),
    ("share", "ratio", Better::Lower),
];

/// Layers replayed under benchmark-side spans. The first five are parts of
/// the run's wall; `wal.append.file` is what the device would add;
/// `wal.read`, `rebuild` and `recover` are parts of a recovery; `checker` is
/// verification only.
pub const SPAN_LAYERS: [&str; 10] = [
    "certify",
    "protocol",
    "subsystem",
    "tpc",
    "wal.append.mem",
    "wal.append.file",
    "wal.read",
    "rebuild",
    "recover",
    "checker",
];

/// Per-layer metrics that are not span statistics: `(name, unit, better)`.
pub const LAYER_EXTRAS: [(&str, &str, Better); 51] = [
    ("trace.overhead_pct", "%", Better::Lower),
    ("unattributed.share", "ratio", Better::Lower),
    ("runtime.idle.share", "ratio", Better::Lower),
    ("recovery.unattributed.share", "ratio", Better::Lower),
    ("telemetry.certify.share", "ratio", Better::Lower),
    ("telemetry.policy.share", "ratio", Better::Lower),
    ("certify.rejects", "count", Better::Lower),
    ("certify.alloc_bytes_per_call", "B", Better::Lower),
    ("certify.state_bytes_end", "B", Better::Lower),
    ("protocol.waits", "count", Better::Lower),
    ("protocol.rejections", "count", Better::Lower),
    ("subsystem.busy", "count", Better::Lower),
    ("tpc.participants_per_group", "count", Better::Higher),
    ("wal.records", "count", Better::Lower),
    ("wal.bytes", "B", Better::Lower),
    ("wal.fsyncs", "count", Better::Lower),
    ("wal.bytes_per_event", "B", Better::Lower),
    ("durable_slowdown", "ratio", Better::Lower),
    ("recover.compensations", "count", Better::Lower),
    ("recover.forward", "count", Better::Lower),
    ("recover.proc_rec_objections", "count", Better::Lower),
    ("domains.partition_ms", "ms", Better::Lower),
    ("domains.count", "count", Better::Higher),
    ("domains.largest", "count", Better::Lower),
    ("checker.batch_projections", "count", Better::Higher),
    ("checker.incremental_projections", "count", Better::Lower),
    ("runtime.lock_wait_ms", "ms", Better::Lower),
    ("runtime.lock_hold_ms", "ms", Better::Lower),
    ("runtime.run_queue_peak", "count", Better::Lower),
    ("runtime.in_flight_peak", "count", Better::Lower),
    ("runtime.worker_utilization", "ratio", Better::Higher),
    ("runtime.steps", "count", Better::Lower),
    ("runtime.repolls", "count", Better::Lower),
    ("runtime.sched_delay_p95_us", "us", Better::Lower),
    ("latency_p95_us", "us", Better::Lower),
    ("latency_p99_us", "us", Better::Lower),
    ("commit_share", "ratio", Better::Higher),
    ("committed_per_s", "1/s", Better::Higher),
    ("backlog_s", "s", Better::Lower),
    ("open.r1000.latency_p99_us", "us", Better::Lower),
    ("open.r4000.latency_p99_us", "us", Better::Lower),
    ("open.r4000.backlog_s", "s", Better::Lower),
    ("work.processes", "count", Better::Higher),
    ("work.events", "count", Better::Lower),
    ("work.committed", "count", Better::Higher),
    ("work.aborted", "count", Better::Lower),
    ("work.cascaded", "count", Better::Lower),
    ("work.compensations", "count", Better::Lower),
    ("work.retries", "count", Better::Lower),
    ("work.deferred_commits", "count", Better::Lower),
    ("work.cert_failures", "count", Better::Lower),
];

/// Every per-layer metric as `(name, unit, better)`, in printing order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for layer in SPAN_LAYERS {
        for (stat, unit, better) in LAYER_STATS {
            out.push((format!("{layer}.{stat}"), unit, better));
        }
    }
    out.extend(
        LAYER_EXTRAS
            .iter()
            .map(|&(name, unit, better)| (name.to_string(), unit, better)),
    );
    out
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The canonical text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let mut s = String::from("{\n");
    let list: Vec<String> = command.iter().map(|c| json_str(c)).collect();
    s.push_str(&format!("  \"command\": [{}],\n", list.join(", ")));
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.label()),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(name),
                json_str(unit),
                json_str(better.label())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_limits_meet_the_contract() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(per_layer().into_iter().map(|m| m.0));
        let mut seen = std::collections::BTreeSet::new();
        for n in &names {
            assert!(n.len() <= 64 && seen.insert(n.clone()), "name {n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(per_layer().len() <= 128);
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
