//! The four workloads: how their inputs are made from the seed, and how one
//! input is run once through `RunBuilder` (or logged and recovered through
//! `WalWriter` / `Recovery`).

use std::path::PathBuf;
use std::time::Instant;
use txproc_core::domains::DomainPartition;
use txproc_core::schedule::Schedule;
use txproc_core::telemetry::{Snapshot, Telemetry};
use txproc_core::trace::{Journal, TraceRecord};
use txproc_core::wal::{DurabilityPolicy, FileWal, MemWal, WalStore, WalWriter};
use txproc_engine::builder::RunBuilder;
use txproc_engine::concurrent::ConcurrentConfig;
use txproc_engine::engine::RunConfig;
use txproc_engine::policy::PolicyKind;
use txproc_engine::recovery::{Recovery, RecoveryReport, RecoverySource};
use txproc_sim::metrics::Metrics;
use txproc_sim::workload::{generate, ArrivalModel, Workload, WorkloadConfig};

/// Epoch size of every run: group certification and batch commit on.
pub const EPOCH: usize = 16;
/// Mean Poisson gap of the gated open-loop rate, in µs (2000 arrivals/s).
pub const OPEN_GAP_US: u64 = 500;
/// Log prefixes recovered per logged input, one in each eighth of the log.
pub const CUTS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ClosedContended,
    ClosedDisjoint,
    OpenPoisson,
    DurableRecovery,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ClosedContended,
        Kind::ClosedDisjoint,
        Kind::OpenPoisson,
        Kind::DurableRecovery,
    ];

    pub fn name(self) -> &'static str {
        crate::contract::WORKLOADS[self as usize].0
    }

    pub fn parse(raw: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == raw)
    }

    /// Worker threads of the concurrent driver; `None` runs the
    /// virtual-time engine. Never more than the two cores the workloads
    /// were sized on: the arrival generator is the workers themselves.
    pub fn workers(self) -> Option<usize> {
        match self {
            Kind::ClosedContended => Some(1),
            Kind::ClosedDisjoint | Kind::OpenPoisson => Some(2),
            Kind::DurableRecovery => None,
        }
    }

    /// Whether the same seed gives the same history, run after run (one
    /// worker, or the virtual-time engine).
    pub fn deterministic(self) -> bool {
        self.workers() != Some(2)
    }

    /// The generator configurations of this workload's inputs. The two
    /// contended workloads run a *pool* of independent inputs, because one
    /// single-domain input behaves chaotically in its seed (through the
    /// engine at 256 processes, events/s moved 2x from seed to seed); a
    /// pool averages that out so the metric describes the code, not the
    /// seed. `smoke` quarters the pools.
    pub fn configs(self, seed: u64, smoke: bool) -> Vec<WorkloadConfig> {
        let pool = |members: u64, processes: usize| -> Vec<WorkloadConfig> {
            (0..if smoke { members / 4 } else { members })
                .map(|i| WorkloadConfig {
                    seed: member_seed(seed, self, i),
                    processes,
                    conflict_density: 0.3,
                    failure_probability: 0.1,
                    ..WorkloadConfig::default()
                })
                .collect()
        };
        match self {
            Kind::ClosedContended => pool(16, 96),
            Kind::ClosedDisjoint => vec![tenants(seed, self, 4096, 512, ArrivalModel::Closed)],
            Kind::OpenPoisson => vec![open_config(seed, 1000, OPEN_GAP_US)],
            Kind::DurableRecovery => pool(96, 32),
        }
    }
}

/// A multi-tenant input over the small catalog (4 services per kind, 2
/// subsystems per cluster): many clusters, so many small conflict domains.
fn tenants(
    seed: u64,
    kind: Kind,
    processes: usize,
    clusters: usize,
    arrivals: ArrivalModel,
) -> WorkloadConfig {
    WorkloadConfig {
        seed: member_seed(seed, kind, 0),
        processes,
        clusters,
        services_per_kind: 4,
        subsystems: 2,
        conflict_density: 0.3,
        failure_probability: 0.1,
        arrivals,
        ..WorkloadConfig::default()
    }
}

/// The open-loop input: `processes` Poisson arrivals with the given mean gap
/// in µs, with about 60 processes per tenant.
pub fn open_config(seed: u64, processes: usize, mean_gap: u64) -> WorkloadConfig {
    tenants(
        seed,
        Kind::OpenPoisson,
        processes,
        processes.div_ceil(64),
        ArrivalModel::Poisson { mean_gap },
    )
}

/// Seed of pool member `i`: a SplitMix64 step over (seed, workload, member),
/// so neighbouring `--seed` values share no member.
fn member_seed(seed: u64, kind: Kind, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((kind as u64) << 32 | i);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One generated input with its conflict-domain partition.
pub struct Input {
    pub workload: Workload,
    pub partition: DomainPartition,
}

/// The set-up a user pays before the first process runs: generate every
/// input and partition it into conflict domains.
pub fn setup(configs: &[WorkloadConfig]) -> Vec<Input> {
    configs
        .iter()
        .map(|config| {
            let workload = generate(config);
            let partition = DomainPartition::partition(&workload.spec);
            Input {
                workload,
                partition,
            }
        })
        .collect()
}

/// What one run of one input produced.
pub struct Sample {
    pub wall_ns: u64,
    pub history: Schedule,
    pub metrics: Metrics,
    pub stalled: usize,
    /// Decision journal and telemetry of a traced run (empty otherwise).
    pub journal: Vec<TraceRecord>,
    pub telemetry: Option<Snapshot>,
}

/// Runs `input` once, closed or open as its config says, and times it from
/// outside. `traced` attaches a `Journal` sink and live telemetry.
pub fn run_once(kind: Kind, input: &Input, traced: bool, wal: Option<WalWriter>) -> Sample {
    let w = &input.workload;
    let seed = w.config.seed;
    let journal = Journal::new();
    let tele = if traced {
        Telemetry::on()
    } else {
        Telemetry::off()
    };
    let started = Instant::now();
    let mut builder = RunBuilder::new(w).telemetry(tele.clone());
    if traced {
        builder = builder.sink(Box::new(journal.clone()));
    }
    if let Some(writer) = wal {
        builder = builder.durability(writer, 0);
    }
    let (history, metrics, stalled) = match kind.workers() {
        Some(workers) => {
            let out = builder
                .concurrent(ConcurrentConfig {
                    policy: PolicyKind::Pred,
                    seed,
                    epoch: EPOCH,
                    workers: Some(workers),
                    ..ConcurrentConfig::default()
                })
                .run()
                .into_concurrent();
            (out.history, out.metrics, 0)
        }
        None => {
            let out = builder
                .config(RunConfig {
                    policy: PolicyKind::Pred,
                    seed,
                    epoch: EPOCH,
                    ..RunConfig::default()
                })
                .run()
                .into_engine();
            (out.history, out.metrics, out.stalled.len())
        }
    };
    let wall_ns = started.elapsed().as_nanos() as u64;
    Sample {
        wall_ns,
        history,
        metrics,
        stalled,
        journal: journal.take(),
        telemetry: tele.snapshot(),
    }
}

/// A logged run: the sample, the log's bytes, and its fsync count.
pub struct Logged {
    pub sample: Sample,
    pub log: Vec<u8>,
    pub fsyncs: u64,
}

fn writer(store: Box<dyn WalStore>, input: &Input) -> WalWriter {
    WalWriter::new(
        store,
        DurabilityPolicy::FsyncPerEpoch,
        input.workload.config.seed,
    )
}

/// Runs `input` through the engine journaling to a `MemWal` under
/// `FsyncPerEpoch` — the gated path: it pays everything the program does to
/// journal but not the device (this sandbox's fsync latency moved 4x between
/// runs minutes apart). Creating the log is inside the timed region.
pub fn run_logged(kind: Kind, input: &Input, traced: bool) -> Logged {
    let started = Instant::now();
    let mem = MemWal::new();
    let writer = writer(Box::new(mem.clone()), input);
    let create_ns = started.elapsed().as_nanos() as u64;
    let mut sample = run_once(kind, input, traced, Some(writer));
    sample.wall_ns += create_ns;
    Logged {
        sample,
        log: mem.contents(),
        fsyncs: mem.syncs(),
    }
}

/// The same run journaling to a real file at `path`; returns its wall in ns,
/// file creation included.
pub fn run_logged_to_file(kind: Kind, input: &Input, path: &std::path::Path) -> u64 {
    let started = Instant::now();
    let file = FileWal::create(path).expect("create the WAL file under benchmark/out");
    let writer = writer(Box::new(file), input);
    let create_ns = started.elapsed().as_nanos() as u64;
    run_once(kind, input, false, Some(writer)).wall_ns + create_ns
}

/// Byte offset of cut `j` (0-based) of pool member `i` of `members`: one cut
/// in each `1/CUTS` of the log, staggered across the pool so that together
/// the members cover every log length evenly — a crash is as likely at one
/// point of a run as at another — and the last member's last cut is the
/// whole log.
pub fn cut_offset(log_len: usize, members: usize, i: usize, j: usize) -> usize {
    let slots = members * CUTS;
    log_len * (j * members + i + 1) / slots
}

/// Recovers one log prefix and times it from outside: salvage, rebuild and
/// recovery together, as `Recovery` runs them.
pub fn recover_prefix(input: &Input, prefix: Vec<u8>) -> (u64, RecoveryReport) {
    let started = Instant::now();
    let report = Recovery::from(RecoverySource::WalBytes(prefix))
        .run(&input.workload)
        .expect("a clean prefix of a finished run's log recovers");
    (started.elapsed().as_nanos() as u64, report)
}

/// Where the benchmark writes: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_neighbouring_seeds_share_no_member() {
        for kind in Kind::ALL {
            assert_eq!(kind.configs(7, false), kind.configs(7, false));
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        let seeds = |s: u64| -> Vec<u64> {
            Kind::ClosedContended
                .configs(s, false)
                .iter()
                .map(|c| c.seed)
                .collect()
        };
        let (a, b) = (seeds(1), seeds(2));
        assert!(a.iter().all(|s| !b.contains(s)));
    }

    #[test]
    fn cuts_cover_the_log_evenly_and_end_at_its_end() {
        let members = 16;
        let mut offsets: Vec<usize> = (0..members)
            .flat_map(|i| (0..CUTS).map(move |j| cut_offset(6400, members, i, j)))
            .collect();
        offsets.sort_unstable();
        assert_eq!(offsets.first(), Some(&50));
        assert_eq!(offsets.last(), Some(&6400));
        assert!(offsets.windows(2).all(|w| w[1] - w[0] == 50));
        // Each member has one cut in each 1/CUTS of the log.
        let part = 6400 / CUTS;
        for j in 0..CUTS {
            let at = cut_offset(6400, members, 5, j);
            assert!(at > part * j && at <= part * (j + 1));
        }
    }
}
