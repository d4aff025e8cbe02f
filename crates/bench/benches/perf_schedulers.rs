//! E13 benchmark: end-to-end scheduler runs across conflict densities, and
//! (E31) the Lemma 1–3 policy calls of one such run replayed alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::{BTreeMap, BTreeSet};
use txproc_core::ids::{GlobalActivityId, ProcessId, ServiceId};
use txproc_core::protocol::{DeferPolicy, Protocol};
use txproc_core::trace::{AbortReason, Journal, TraceEvent};
use txproc_engine::engine::{run, RunConfig};
use txproc_engine::policy::{Policy, PolicyKind};
use txproc_engine::RunBuilder;
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("perf_schedulers");
    g.sample_size(20);
    for &density in &[0.1, 0.5] {
        let w = generate(&WorkloadConfig {
            seed: 9,
            processes: 16,
            conflict_density: density,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        });
        for kind in [
            PolicyKind::Pred,
            PolicyKind::PredProtocol,
            PolicyKind::Conservative,
            PolicyKind::Serial,
        ] {
            g.bench_with_input(
                BenchmarkId::new(kind.label(), format!("density-{density}")),
                &w,
                |b, w| {
                    b.iter(|| {
                        run(
                            w,
                            RunConfig {
                                policy: kind,
                                ..RunConfig::default()
                            },
                        )
                    })
                },
            );
        }
    }
    g.finish();
}

/// One call the engine made on its policy.
enum Call {
    Request(GlobalActivityId, ServiceId),
    Executed(GlobalActivityId, bool),
    Released(GlobalActivityId),
    Compensated(GlobalActivityId),
    CanCommit(ProcessId),
    Commit(ProcessId),
    PlanAbort(ProcessId, Vec<GlobalActivityId>, Vec<ServiceId>),
    PreparedAborted(GlobalActivityId),
    AbortBegin(ProcessId),
    Abort(ProcessId),
}

/// The policy calls behind the decision journal of one certified engine
/// run, in journal order (every call that changes policy state is
/// journalled; the arguments of `plan_abort` are the initiator's completion
/// at that point of the history).
fn policy_calls(w: &Workload) -> Vec<Call> {
    let journal = Journal::new();
    let run = RunBuilder::new(w)
        .config(RunConfig::default())
        .sink(Box::new(journal.clone()))
        .run()
        .into_engine();
    let mut calls = Vec::new();
    let mut aborting: BTreeSet<ProcessId> = BTreeSet::new();
    let mut prepared: BTreeMap<ProcessId, GlobalActivityId> = BTreeMap::new();
    for rec in journal.take() {
        match rec.event {
            TraceEvent::RequestAdmitted {
                gid,
                service,
                deferred,
                ..
            } => {
                // A forward-recovery step is gated, not requested.
                if !aborting.contains(&gid.process) {
                    calls.push(Call::Request(gid, service));
                }
                calls.push(Call::Executed(gid, deferred));
                if deferred {
                    prepared.insert(gid.process, gid);
                }
            }
            TraceEvent::RequestBlocked { gid, service, .. }
            | TraceEvent::RequestRejected { gid, service, .. } => {
                calls.push(Call::Request(gid, service));
            }
            TraceEvent::CommitReleased { gid } => {
                prepared.remove(&gid.process);
                calls.push(Call::Released(gid));
            }
            TraceEvent::CompensationStarted { gid, .. } => calls.push(Call::Compensated(gid)),
            TraceEvent::CommitBlocked { pid, .. } => calls.push(Call::CanCommit(pid)),
            TraceEvent::ProcessCommitted { pid } => {
                calls.extend([Call::CanCommit(pid), Call::Commit(pid)]);
            }
            TraceEvent::AbortStarted { pid, reason } => {
                aborting.insert(pid);
                // After a definitive failure the policy is told nothing.
                if reason == AbortReason::Failure {
                    continue;
                }
                if reason != AbortReason::Cascade {
                    let so_far = run.history.prefix(rec.history_len).replay(&w.spec).unwrap();
                    let (st, gid) = (&so_far.states[&pid], |a| GlobalActivityId::new(pid, a));
                    let completion = st.completion();
                    let comps = completion.compensations.iter().map(|&a| gid(a)).collect();
                    let service = |&a| st.process().service(a);
                    let forward = completion.forward.iter().map(service).collect();
                    calls.push(Call::PlanAbort(pid, comps, forward));
                }
                calls.extend(prepared.remove(&pid).map(Call::PreparedAborted));
                calls.push(Call::AbortBegin(pid));
            }
            TraceEvent::ProcessAborted { pid } => calls.push(Call::Abort(pid)),
            _ => {}
        }
    }
    calls
}

fn replay(policy: &mut dyn Policy, calls: &[Call]) {
    use std::hint::black_box;
    for call in calls {
        match call {
            Call::Request(g, s) => drop(black_box(policy.request(g.process, *g, *s))),
            Call::Executed(g, deferred) => drop(black_box(policy.record_executed(*g, *deferred))),
            Call::Released(g) => policy.record_deferred_released(*g),
            Call::Compensated(g) => policy.record_compensated(*g),
            Call::CanCommit(p) => drop(black_box(policy.can_commit(*p))),
            Call::Commit(p) => drop(black_box(policy.on_commit(*p))),
            Call::PlanAbort(p, comps, forward) => {
                drop(black_box(policy.plan_abort(*p, comps, forward)))
            }
            Call::PreparedAborted(g) => policy.record_prepared_aborted(*g),
            Call::AbortBegin(p) => policy.on_abort_begin(*p),
            Call::Abort(p) => drop(black_box(policy.on_abort(*p))),
        }
    }
}

/// The protocol layer alone: a fresh policy, its registrations and every
/// call one engine run made on it; and what a shard of eight pays before
/// its first request.
fn bench_protocol(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol");
    g.sample_size(20);
    for &processes in &[8usize, 96, 256] {
        for &density in &[0.3, 0.6] {
            let w = generate(&WorkloadConfig {
                seed: 9,
                processes,
                conflict_density: density,
                failure_probability: 0.1,
                ..WorkloadConfig::default()
            });
            let calls = policy_calls(&w);
            let id = BenchmarkId::new(
                format!("replay-{}-calls", calls.len()),
                format!("n{processes}-density-{density}"),
            );
            g.bench_with_input(id, &w, |b, w| {
                b.iter(|| {
                    let mut policy = PolicyKind::PredProtocol.build(&w.spec);
                    for p in w.spec.processes() {
                        policy.register(p.id);
                    }
                    replay(policy.as_mut(), &calls);
                })
            });
        }
    }
    let w = generate(&WorkloadConfig {
        seed: 9,
        processes: 8,
        ..WorkloadConfig::default()
    });
    g.bench_function("new-and-register-8", |b| {
        b.iter(|| {
            let mut protocol = Protocol::new(&w.spec, DeferPolicy::PrepareAndDefer);
            for p in w.spec.processes() {
                protocol.register(p.id);
            }
            protocol
        })
    });
    g.finish();
}

criterion_group!(benches, bench, bench_protocol);
criterion_main!(benches);
