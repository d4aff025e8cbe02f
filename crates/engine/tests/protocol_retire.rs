//! Retirement at quiescent points, counted on the host-independent side.
//! The protocol drops every process that holds a record once the last
//! active one of them terminated (DESIGN.md, "Scheduler index
//! invariants"); a `request` while every record is the requester's own
//! derives nothing.
//!
//! A run's journal names every call that moved its protocols, so replaying
//! it (`support/protocol_replay.rs`) drives one fresh `Protocol` per shard
//! through the run's own states, holding each journalled answer to the
//! replayed one on the way, and reads what each held after each record.
//!
//! - The single-worker driver runs each process until it blocks, so on
//!   inputs shaped like the benchmark's `closed_contended` every request
//!   finds only the requester's records (asserted).
//! - The engine interleaves the processes of a domain, so on the
//!   `engine_ticks` inputs it retires about once a run, at its end; the
//!   retirements and the lone requests are printed, not bounded.
//! - A long open-arrival run in one shard keeps the records its protocol
//!   holds bounded, round after round (asserted).

#[path = "support/certify_replay.rs"]
#[allow(dead_code)]
mod certify_replay;
#[path = "support/protocol_replay.rs"]
mod protocol_replay;
#[path = "../../core/tests/support/scan_protocol.rs"]
mod scan_protocol;

use certify_replay::per_shard;
use protocol_replay::Checked;
use std::collections::BTreeSet;
use txproc_core::domains::DomainPartition;
use txproc_core::ids::ProcessId;
use txproc_core::protocol::Protocol;
use txproc_core::schedule::Schedule;
use txproc_core::spec::Spec;
use txproc_core::trace::{Journal, TraceEvent, TraceRecord};
use txproc_engine::concurrent::{ConcurrentConfig, ShardMode};
use txproc_engine::engine::RunConfig;
use txproc_engine::policy::PolicyKind;
use txproc_engine::RunBuilder;
use txproc_sim::workload::{generate, ArrivalModel, Workload, WorkloadConfig};

/// Replays a journal into one protocol per shard (`locals[s]` is shard
/// `s`'s history); `visit` sees the shard's protocol after each record.
fn replay<'a>(
    spec: &'a Spec,
    locals: &[Schedule],
    records: &[TraceRecord],
    what: &str,
    visit: impl FnMut(&Protocol<'a>, &TraceRecord),
) -> Vec<Protocol<'a>> {
    protocol_replay::replay(spec, locals, records, what, &mut Checked::new(), visit)
}

/// The process a protocol-request record asks for.
fn requester(rec: &TraceRecord) -> Option<ProcessId> {
    match &rec.event {
        TraceEvent::RequestAdmitted { gid, .. }
        | TraceEvent::RequestBlocked { gid, .. }
        | TraceEvent::RequestRejected { gid, .. } => Some(gid.process),
        _ => None,
    }
}

fn workload(seed: u64, processes: usize) -> Workload {
    generate(&WorkloadConfig {
        seed,
        processes,
        conflict_density: 0.3,
        failure_probability: 0.1,
        ..WorkloadConfig::default()
    })
}

/// A run's journal and its history.
fn journal_of(builder: RunBuilder<'_>) -> (Vec<TraceRecord>, Schedule) {
    let journal = Journal::new();
    let run = builder.sink(Box::new(journal.clone())).run();
    (journal.take(), run.history().clone())
}

#[test]
fn a_single_worker_request_finds_only_its_own_records() {
    let (mut requests, mut retirements) = (0u64, 0u64);
    for seed in 1..=16u64 {
        let w = workload(seed, 96);
        let (records, history) = journal_of(RunBuilder::new(&w).concurrent(ConcurrentConfig {
            seed,
            workers: Some(1),
            ..ConcurrentConfig::default()
        }));
        let locals = per_shard(&DomainPartition::partition(&w.spec), &history);
        let what = format!("1-worker seed {seed}");
        let protocols = replay(&w.spec, &locals, &records, &what, |protocol, rec| {
            if let Some(pid) = requester(rec) {
                let holders = protocol.holders();
                assert!(
                    holders.iter().all(|&h| h == pid),
                    "seed {seed}, record {}: {pid} requests beside {holders:?}",
                    rec.seq
                );
                requests += 1;
            }
        });
        retirements += protocols.iter().map(Protocol::retirements).sum::<u64>();
    }
    println!(
        "single worker, closed_contended-shaped: {requests} requests, all lone; \
         {retirements} retirements"
    );
    assert!(requests > 5_000, "{requests} requests");
}

#[test]
fn the_engine_retires_about_once_a_run() {
    let (runs, mut requests, mut lone) = (96u64, 0u64, 0u64);
    let (mut retirements, mut retired) = (0u64, 0usize);
    for seed in 1..=runs {
        let w = workload(seed, 32);
        let (records, history) = journal_of(RunBuilder::new(&w).config(RunConfig {
            seed,
            ..RunConfig::default()
        }));
        let mut executed = BTreeSet::new();
        let what = format!("engine seed {seed}");
        let protocols = replay(&w.spec, &[history], &records, &what, |protocol, rec| {
            if let Some(pid) = requester(rec) {
                requests += 1;
                lone += u64::from(protocol.holders().iter().all(|&h| h == pid));
            }
            if let TraceEvent::RequestAdmitted { gid, .. } = &rec.event {
                executed.insert(gid.process);
            }
        });
        let [protocol] = &protocols[..] else {
            panic!("the engine runs one shard");
        };
        assert!(
            protocol.holders().is_empty(),
            "seed {seed}: a run ends quiescent"
        );
        retirements += protocol.retirements();
        retired += executed.len();
    }
    println!(
        "engine, engine_ticks inputs: {retirements} retirements over {runs} runs \
         ({:.2} per run, {:.1} processes each); {lone} of {requests} requests lone",
        retirements as f64 / runs as f64,
        retired as f64 / retirements as f64,
    );
    assert!(retirements >= runs, "every run ends at a quiescent point");
}

/// ROADMAP item 6's acceptance for the protocol's rows: over a long
/// open-arrival run of the benchmark's `open_poisson` shape (about 64
/// processes per tenant, 4 services per kind, 2 subsystems per tenant),
/// twice as long and five times as dense, with every process in one shard
/// and so in one protocol, the records it holds stay bounded round after
/// round while the run executes many times more.
#[test]
fn an_open_run_holds_bounded_records_round_after_round() {
    const ROUNDS: usize = 10;
    let w = generate(&WorkloadConfig {
        seed: 7,
        processes: 2_000,
        clusters: 32,
        services_per_kind: 4,
        subsystems: 2,
        conflict_density: 0.3,
        failure_probability: 0.1,
        arrivals: ArrivalModel::Poisson { mean_gap: 100 },
        ..WorkloadConfig::default()
    });
    let (records, history) = journal_of(RunBuilder::new(&w).concurrent(ConcurrentConfig {
        policy: PolicyKind::Pred,
        seed: 7,
        workers: Some(2),
        shards: ShardMode::Single,
        ..ConcurrentConfig::default()
    }));
    let (mut peaks, mut executed) = ([0usize; ROUNDS], 0usize);
    replay(
        &w.spec,
        &[history],
        &records,
        "open run",
        |protocol, rec| {
            let round = rec.seq as usize * ROUNDS / records.len();
            let peak = &mut peaks[round.min(ROUNDS - 1)];
            *peak = (*peak).max(protocol.records());
            executed += usize::from(matches!(rec.event, TraceEvent::RequestAdmitted { .. }));
        },
    );
    println!("open run, one shard: {executed} records executed, peak held per round {peaks:?}");
    assert!(executed > 5_000, "{executed} records executed");
    assert!(
        peaks.iter().all(|&peak| peak <= 64),
        "records held grow: {peaks:?}"
    );
}
