//! Per-layer replays. A traced run leaves its history, decision journal and
//! (when logged) WAL records; each function here drives one layer's public
//! functions with exactly those, in the order the run made its decisions,
//! under benchmark-side spans. Nothing inside the program is instrumented.

use crate::alloc::counted;
use crate::spans::Spans;
use crate::verify::project;
use crate::workloads::{Input, Sample};
use std::collections::BTreeMap;
use txproc_core::ids::{GlobalActivityId, ProcessId};
use txproc_core::pred_incremental::IncrementalPred;
use txproc_core::protocol::Admission;
use txproc_core::schedule::{Event, Schedule};
use txproc_core::state::ProcessState;
use txproc_core::trace::{AbortReason, TraceEvent};
use txproc_core::wal::{read_records, DurabilityPolicy, WalRecord, WalStore, WalWriter};
use txproc_engine::durability::rebuild_image;
use txproc_engine::policy::{Policy, PolicyKind};
use txproc_engine::recovery::{Recovery, RecoverySource};
use txproc_subsystem::agent::{Agent, CommitMode, InvocationId, InvokeOutcome};
use txproc_subsystem::subsystem::{Subsystem, SubsystemId};
use txproc_subsystem::tpc::{Coordinator, Participant};

/// Counts the replays make next to their spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub certify_rejects: u64,
    pub certify_alloc_bytes: u64,
    pub certify_state_bytes: u64,
    pub protocol_waits: u64,
    pub protocol_rejections: u64,
    pub subsystem_busy: u64,
    pub tpc_participants: u64,
    pub recover_compensations: u64,
    pub recover_forward: u64,
    /// Replayed decisions that did not come out as the run recorded them,
    /// or calls a layer refused: the replay no longer follows the run.
    pub divergences: u64,
}

/// The run's view of its shards: the virtual-time engine keeps one state
/// for every process (its records carry no shard), the concurrent driver
/// one per conflict domain.
pub struct Shards<'a> {
    input: &'a Input,
    single: bool,
    /// The history each shard saw: all of it, or its domain's projection.
    locals: Vec<Schedule>,
}

impl<'a> Shards<'a> {
    pub fn of(input: &'a Input, sample: &Sample) -> Self {
        let single = sample.journal.iter().all(|r| r.shard.is_none());
        let locals = if single {
            vec![sample.history.clone()]
        } else {
            project(input, &sample.history)
        };
        Self {
            input,
            single,
            locals,
        }
    }

    fn of_pid(&self, pid: ProcessId) -> usize {
        if self.single {
            0
        } else {
            self.input
                .partition
                .domain_of(pid)
                .expect("partitioned process") as usize
        }
    }
}

/// `certify`: the certifier calls of the run. Before each recorded
/// certification the shard's certifier absorbs the history events emitted
/// since the last one (`record`), then plans the candidate
/// (`certify_keep`) — the drivers' own sequence.
pub fn certify(shards: &Shards<'_>, sample: &Sample, spans: &mut Spans, iter: u32, c: &mut Counts) {
    let spec = &shards.input.workload.spec;
    let parent = spans.open("replay:certify", None, iter);
    let mut certifiers: Vec<IncrementalPred<'_>> = shards
        .locals
        .iter()
        .map(|_| spans.time("certify:new", parent, || IncrementalPred::new(spec)))
        .collect();
    let absorb = |inc: &mut IncrementalPred<'_>,
                  local: &Schedule,
                  upto: usize,
                  spans: &mut Spans,
                  c: &mut Counts| {
        while inc.len() < upto.min(local.len()) {
            let event = &local.events()[inc.len()];
            let (out, allocated, freed) =
                spans.time("certify:record", parent, || counted(|| inc.record(event)));
            c.certify_alloc_bytes += allocated;
            c.certify_state_bytes = (c.certify_state_bytes + allocated).saturating_sub(freed);
            if out.is_err() {
                c.divergences += 1;
                return;
            }
        }
    };
    for rec in &sample.journal {
        let TraceEvent::CertifyOutcome { event, ok, .. } = &rec.event else {
            continue;
        };
        let s = rec.shard.map_or(0, |s| s as usize);
        let inc = &mut certifiers[s];
        absorb(inc, &shards.locals[s], rec.history_len, spans, c);
        let (verdict, allocated, freed) = spans.time("certify:plan", parent, || {
            counted(|| inc.certify_keep(event))
        });
        c.certify_alloc_bytes += allocated;
        c.certify_state_bytes = (c.certify_state_bytes + allocated).saturating_sub(freed);
        let reducible = verdict.is_ok_and(|v| v.reducible);
        c.certify_rejects += u64::from(!reducible);
        c.divergences += u64::from(reducible != *ok);
    }
    for (inc, local) in certifiers.iter_mut().zip(&shards.locals) {
        absorb(inc, local, local.len(), spans, c);
    }
    spans.close(parent);
}

/// Applies one history event to the process state machines. Errors cannot
/// occur on a history the verifier already replayed, and a state left behind
/// would only change the arguments of a pure query, so they are dropped.
fn advance<'a>(states: &mut BTreeMap<ProcessId, ProcessState<'a>>, event: &Event) {
    let mut on = |pid: ProcessId, f: &dyn Fn(&mut ProcessState<'a>)| {
        if let Some(st) = states.get_mut(&pid) {
            f(st);
        }
    };
    match event {
        Event::Execute(g) => on(g.process, &|st| drop(st.apply_commit(g.activity))),
        Event::Fail(g) => on(g.process, &|st| drop(st.apply_failure(g.activity))),
        Event::Compensate(g) => on(g.process, &|st| drop(st.apply_compensation(g.activity))),
        Event::Commit(p) => on(*p, &|st| drop(st.apply_process_commit())),
        Event::Abort(p) => on(*p, &|st| drop(st.apply_process_abort())),
        Event::GroupAbort(ps) => {
            for p in ps {
                on(*p, &|st| {
                    if st.is_active() {
                        drop(st.apply_process_abort());
                    }
                });
            }
        }
    }
}

/// `protocol`: the Lemma 1–3 policy calls of the run, per shard, in
/// journal order. Every call that changes policy state is in the journal
/// (`record_executed`, releases, compensations, commits, aborts), so the
/// replayed policy goes through the run's own states; the queries
/// (`request`, `can_commit`, `plan_abort`) are asked where the run asked.
pub fn protocol(
    shards: &Shards<'_>,
    sample: &Sample,
    spans: &mut Spans,
    iter: u32,
    c: &mut Counts,
) {
    let spec = &shards.input.workload.spec;
    let parent = spans.open("replay:protocol", None, iter);
    // One policy per shard, each built over the whole spec, as the drivers
    // build them: with ~1300 shards this is where catalog-sized per-shard
    // state shows.
    let mut policies: Vec<Box<dyn Policy + Send + '_>> = shards
        .locals
        .iter()
        .map(|_| spans.time("protocol:build", parent, || PolicyKind::Pred.build(spec)))
        .collect();
    let mut states = BTreeMap::new();
    for p in spec.processes() {
        let policy = &mut policies[shards.of_pid(p.id)];
        spans.time("protocol:register", parent, || policy.register(p.id));
        if let Ok(st) = ProcessState::new(p, &spec.catalog) {
            states.insert(p.id, st);
        }
    }
    let mut cursors = vec![0usize; shards.locals.len()];
    let mut prepared: BTreeMap<ProcessId, GlobalActivityId> = BTreeMap::new();
    for rec in &sample.journal {
        let s = rec.shard.map_or(0, |s| s as usize);
        let local = shards.locals[s].events();
        while cursors[s] < rec.history_len.min(local.len()) {
            advance(&mut states, &local[cursors[s]]);
            cursors[s] += 1;
        }
        let policy = &mut policies[s];
        match &rec.event {
            TraceEvent::RequestAdmitted {
                gid,
                service,
                deferred,
                ..
            } => {
                spans.time("protocol:request", parent, || {
                    policy.request(gid.process, *gid, *service)
                });
                spans.time("protocol:record_executed", parent, || {
                    policy.record_executed(*gid, *deferred)
                });
                if *deferred {
                    prepared.insert(gid.process, *gid);
                }
            }
            TraceEvent::RequestBlocked { gid, service, .. }
            | TraceEvent::RequestRejected { gid, service, .. } => {
                match spans.time("protocol:request", parent, || {
                    policy.request(gid.process, *gid, *service)
                }) {
                    Admission::Wait { .. } => c.protocol_waits += 1,
                    Admission::Reject { .. } => c.protocol_rejections += 1,
                    _ => c.divergences += 1,
                }
            }
            TraceEvent::CommitReleased { gid } => {
                prepared.remove(&gid.process);
                spans.time("protocol:record_released", parent, || {
                    policy.record_deferred_released(*gid)
                });
            }
            TraceEvent::CompensationStarted { gid, .. } => {
                spans.time("protocol:record_compensated", parent, || {
                    policy.record_compensated(*gid)
                });
            }
            TraceEvent::CommitBlocked { pid, .. } => {
                spans.time("protocol:can_commit", parent, || {
                    drop(policy.can_commit(*pid))
                });
            }
            TraceEvent::ProcessCommitted { pid } => {
                spans.time("protocol:can_commit", parent, || {
                    drop(policy.can_commit(*pid))
                });
                spans.time("protocol:on_commit", parent, || policy.on_commit(*pid));
            }
            TraceEvent::AbortStarted { pid, reason } => {
                if *reason != AbortReason::Cascade {
                    if let Some(st) = states.get(pid) {
                        let completion = st.completion();
                        let comps: Vec<GlobalActivityId> = completion
                            .compensations
                            .iter()
                            .map(|&a| GlobalActivityId::new(*pid, a))
                            .collect();
                        let forward: Vec<_> = completion
                            .forward
                            .iter()
                            .map(|&a| st.process().service(a))
                            .collect();
                        spans.time("protocol:plan_abort", parent, || {
                            policy.plan_abort(*pid, &comps, &forward)
                        });
                    }
                }
                if let Some(gid) = prepared.remove(pid) {
                    policy.record_prepared_aborted(gid);
                }
                spans.time("protocol:on_abort_begin", parent, || {
                    policy.on_abort_begin(*pid)
                });
            }
            TraceEvent::ProcessAborted { pid } => {
                spans.time("protocol:on_abort", parent, || policy.on_abort(*pid));
            }
            _ => {}
        }
    }
    spans.close(parent);
}

fn fresh_agents(input: &Input) -> BTreeMap<SubsystemId, Agent> {
    input
        .workload
        .deployment
        .subsystems()
        .into_iter()
        .map(|sid| {
            (
                sid,
                Agent::new(Subsystem::new(sid, format!("sub{}", sid.0))),
            )
        })
        .collect()
}

/// Invokes the service of `gid` on its agent and returns the invocation.
fn invoke(
    input: &Input,
    agents: &mut BTreeMap<SubsystemId, Agent>,
    gid: GlobalActivityId,
    mode: CommitMode,
    spans: &mut Spans,
    parent: u32,
    c: &mut Counts,
) -> Option<(SubsystemId, InvocationId)> {
    let w = &input.workload;
    let service = w.spec.service_of(gid).ok()?;
    let site = w.deployment.site(service)?;
    let agent = agents.get_mut(&site.subsystem)?;
    match spans.time("subsystem:invoke", parent, || {
        agent.invoke(service, &site.program, mode, false)
    }) {
        Ok(InvokeOutcome::Committed { invocation, .. })
        | Ok(InvokeOutcome::Prepared { invocation, .. }) => Some((site.subsystem, invocation)),
        Ok(InvokeOutcome::Busy { .. }) => {
            c.subsystem_busy += 1;
            None
        }
        _ => {
            c.divergences += 1;
            None
        }
    }
}

/// `subsystem` on a concurrent run: the agent calls behind the journal's
/// admitted requests, compensations, releases and aborts of prepared
/// invocations, on fresh agents. (The concurrent driver releases at the
/// agents directly; it runs no coordinator.)
pub fn subsystem_from_journal(
    input: &Input,
    sample: &Sample,
    spans: &mut Spans,
    iter: u32,
    c: &mut Counts,
) {
    let parent = spans.open("replay:subsystem", None, iter);
    let mut agents = fresh_agents(input);
    let mut invocation_of = BTreeMap::new();
    let mut prepared: BTreeMap<ProcessId, GlobalActivityId> = BTreeMap::new();
    for rec in &sample.journal {
        match &rec.event {
            TraceEvent::RequestAdmitted { gid, deferred, .. } => {
                let mode = if *deferred {
                    prepared.insert(gid.process, *gid);
                    CommitMode::Deferred
                } else {
                    CommitMode::Immediate
                };
                if let Some(at) = invoke(input, &mut agents, *gid, mode, spans, parent, c) {
                    invocation_of.insert(*gid, at);
                }
            }
            TraceEvent::CompensationStarted { gid, .. } => {
                if let Some(&(sid, inv)) = invocation_of.get(gid) {
                    let agent = agents.get_mut(&sid).expect("agent of a past invocation");
                    match spans.time("subsystem:compensate", parent, || agent.compensate(inv)) {
                        Ok(InvokeOutcome::Committed { .. }) => {}
                        Ok(InvokeOutcome::Busy { .. }) => c.subsystem_busy += 1,
                        _ => c.divergences += 1,
                    }
                }
            }
            TraceEvent::CommitReleased { gid } => {
                prepared.remove(&gid.process);
                if let Some(&(sid, inv)) = invocation_of.get(gid) {
                    let agent = agents.get_mut(&sid).expect("agent of a past invocation");
                    let out = spans.time("subsystem:release", parent, || agent.release(inv));
                    c.divergences += u64::from(out.is_err());
                }
            }
            TraceEvent::AbortStarted { pid, .. } => {
                if let Some((sid, inv)) = prepared
                    .remove(pid)
                    .and_then(|gid| invocation_of.remove(&gid))
                {
                    let agent = agents.get_mut(&sid).expect("agent of a past invocation");
                    let out = spans.time("subsystem:abort_prepared", parent, || {
                        agent.abort_prepared(inv)
                    });
                    c.divergences += u64::from(out.is_err());
                }
            }
            _ => {}
        }
    }
    spans.close(parent);
}

/// `subsystem` and `tpc` on a logged engine run: the agent and coordinator
/// calls the WAL records stand for, in log order, on fresh agents — every
/// invocation, compensation and abort of a prepared invocation, and one
/// `Coordinator::commit_group` per logged decision.
pub fn subsystem_from_wal(
    input: &Input,
    records: &[WalRecord],
    spans: &mut Spans,
    iter: u32,
    c: &mut Counts,
) {
    let parent = spans.open("replay:subsystem", None, iter);
    let mut agents = fresh_agents(input);
    let mut coordinator = Coordinator::new();
    let mut invocation_of = BTreeMap::new();
    for record in records {
        match record {
            WalRecord::Invocation { gid, prepared, .. } => {
                let mode = if *prepared {
                    CommitMode::Deferred
                } else {
                    CommitMode::Immediate
                };
                if let Some(at) = invoke(input, &mut agents, *gid, mode, spans, parent, c) {
                    invocation_of.insert(*gid, at);
                }
            }
            WalRecord::Event {
                event: Event::Compensate(gid),
            } => {
                if let Some(&(sid, inv)) = invocation_of.get(gid) {
                    let agent = agents.get_mut(&sid).expect("agent of a past invocation");
                    let out = spans.time("subsystem:compensate", parent, || agent.compensate(inv));
                    c.divergences += u64::from(!matches!(out, Ok(InvokeOutcome::Committed { .. })));
                }
            }
            WalRecord::PreparedAborted {
                subsystem,
                invocation,
            } => {
                if let Some(agent) = agents.get_mut(&SubsystemId(*subsystem)) {
                    let out = spans.time("subsystem:abort_prepared", parent, || {
                        agent.abort_prepared(InvocationId(*invocation))
                    });
                    c.divergences += u64::from(out.is_err());
                }
            }
            WalRecord::Decision {
                commit: true,
                participants,
                ..
            } => {
                let group: Vec<Participant> = participants
                    .iter()
                    .map(|&(s, i)| Participant {
                        subsystem: SubsystemId(s),
                        invocation: InvocationId(i),
                    })
                    .collect();
                c.tpc_participants += group.len() as u64;
                let out = spans.time("tpc:commit_group", parent, || {
                    coordinator.commit_group(&mut agents, group, false)
                });
                c.divergences += u64::from(out.is_err());
            }
            _ => {}
        }
    }
    spans.close(parent);
}

/// Span names of one append replay.
pub struct AppendSpans {
    replay: &'static str,
    append: &'static str,
    seal: &'static str,
}

pub const APPEND_TO_MEM: AppendSpans = AppendSpans {
    replay: "replay:wal.append.mem",
    append: "wal.append.mem:append",
    seal: "wal.append.mem:seal",
};

pub const APPEND_TO_FILE: AppendSpans = AppendSpans {
    replay: "replay:wal.append.file",
    append: "wal.append.file:append",
    seal: "wal.append.file:seal",
};

/// `wal.append.mem` / `wal.append.file`: the run's records appended again
/// under the run's policy, sealing where the run sealed — to a `MemWal`
/// (encode and CRC cost alone) or a `FileWal` (plus the device).
pub fn wal_append(
    names: &AppendSpans,
    store: Box<dyn WalStore>,
    seed: u64,
    records: &[WalRecord],
    spans: &mut Spans,
    iter: u32,
) {
    let &AppendSpans {
        replay,
        append,
        seal,
    } = names;
    let parent = spans.open(replay, None, iter);
    // `WalWriter::new` writes the `Begin` header the log starts with.
    let mut writer = spans.time(append, parent, || {
        WalWriter::new(store, DurabilityPolicy::FsyncPerEpoch, seed)
    });
    for record in records.iter().skip(1) {
        match record {
            WalRecord::EpochSeal { epoch } => {
                spans.time(seal, parent, || writer.seal_epoch(*epoch));
            }
            other => spans.time(append, parent, || writer.append(other)),
        }
    }
    spans.time(seal, parent, || writer.finish());
    spans.close(parent);
}

/// `wal.read`, `rebuild`, `recover`: one recovery of one log prefix, step
/// by step through the functions `Recovery` runs.
pub fn recovery(input: &Input, prefix: &[u8], spans: &mut Spans, iter: u32, c: &mut Counts) {
    let parent = spans.open("replay:recovery", None, iter);
    let (records, _clean) = spans.time("wal.read:read_records", parent, || read_records(prefix));
    let image = spans.time("rebuild:rebuild_image", parent, || {
        rebuild_image(&input.workload, &records)
    });
    match image {
        Err(_) => c.divergences += 1,
        Ok(image) => {
            match spans.time("recover:recover", parent, || {
                Recovery::from(RecoverySource::Image(image)).run(&input.workload)
            }) {
                Ok(report) => {
                    c.recover_compensations += report.compensations as u64;
                    c.recover_forward += report.forward as u64;
                }
                Err(_) => c.divergences += 1,
            }
        }
    }
    spans.close(parent);
}
