//! Log-replay recovery: rebuilding a crash image from the WAL.
//!
//! A journalled run — either driver, through
//! [`RunBuilder::durability`](crate::builder::RunBuilder::durability) —
//! appends a typed [`WalRecord`] at every durable state transition of the
//! scheduler step. This module is the read side: [`rebuild_image`] folds a
//! (possibly torn-tail-truncated) record sequence back into the
//! [`CrashImage`] the in-memory crash path produces, and recovery restores
//! the scheduler from either one the same way (`Shard::restore`, then the
//! step runs the completions; see [`crate::recovery`]).
//!
//! ## The crash model
//!
//! A crash truncates the durable log at an arbitrary byte offset;
//! everything else — agents, coordinator, history, scheduler — is volatile
//! and rebuilt by replaying the surviving record prefix against fresh
//! state. So the subsystems crash with the log, unlike those of the
//! in-memory crash image (see [`CrashImage::agents`]; ROADMAP item 12
//! makes the two one model). Each invocation is stamped with the number of
//! history events before its record, the position recovery restores it
//! at. Every prefix replays to a consistent state because each record is
//! atomic: an [`Invocation`](txproc_core::wal::WalRecord::Invocation)
//! record implies both the agent transaction *and* (when immediate) its
//! history event, a `Compensate` event record implies the compensating
//! transaction at the agent, and the `Decision`/`DecisionApplied` pair
//! brackets 2PC phase 2 so a truncation between them leaves the group
//! in doubt for [`Coordinator::resolve_in_doubt`]. The step decides every
//! deferred release alone and logs its `Decision` before the `Execute` event
//! of its participant, so no prefix shows an executed-but-undecided prepared
//! invocation: replay never has to guess a decision, and [`rebuild_image`]
//! refuses a log that shows one as [`RebuildError::Inconsistent`].
//!
//! ## Determinism of agent replay
//!
//! Agents allocate invocation ids densely and only on success (`Busy` and
//! injected transient aborts return before allocation), so replaying the
//! logged invocations in order against fresh agents reproduces the logged
//! ids exactly — [`rebuild_image`] asserts this and fails loudly on a
//! workload/log mismatch. (Workers sharing an agent journal an invocation
//! while the agent is still locked, so log order is invoke order per agent,
//! and they take an event's merge ticket under the writer lock, so log
//! order is history order.) Transaction ids *inside* a rebuilt agent differ
//! from the original run (unlogged busy/abort attempts advanced the
//! original counter) but are self-consistent; nothing durable reads them.

use crate::concurrent::fresh_agents;
use crate::recovery::{CrashImage, InvocationLogEntry};
use std::collections::BTreeMap;
use txproc_core::ids::GlobalActivityId;
use txproc_core::schedule::{Event, Schedule};
use txproc_core::wal::{WalRecord, WAL_VERSION};
use txproc_sim::workload::Workload;
use txproc_subsystem::agent::{CommitMode, InvocationId, InvokeOutcome};
use txproc_subsystem::subsystem::SubsystemId;
use txproc_subsystem::tpc::{Coordinator, Decision, Participant};

/// Why a WAL could not be folded back into a crash image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebuildError {
    /// The `Begin` header names a different format version.
    VersionMismatch {
        /// Version found in the log.
        found: u32,
    },
    /// The log opens with an intact frame that is not a record of this
    /// format ([`foreign_head`](txproc_core::wal::foreign_head)): written by
    /// a version whose payloads this reader does not decode, or not a log.
    ForeignLog,
    /// The `Begin` header names a different workload seed.
    SeedMismatch {
        /// Seed found in the log.
        found: u64,
        /// Seed of the workload given to [`rebuild_image`].
        expected: u64,
    },
    /// A record references state the workload or log prefix does not
    /// contain, replaying it diverged from what was logged, or the records
    /// are not one run's log (no `Begin` at the head, or a second one).
    Inconsistent(String),
}

impl std::fmt::Display for RebuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebuildError::VersionMismatch { found } => {
                write!(f, "WAL version {found} != supported {WAL_VERSION}")
            }
            RebuildError::ForeignLog => write!(
                f,
                "the log's first frame is intact but is not a version-{WAL_VERSION} record"
            ),
            RebuildError::SeedMismatch { found, expected } => {
                write!(f, "WAL seed {found} != workload seed {expected}")
            }
            RebuildError::Inconsistent(msg) => write!(f, "log/workload mismatch: {msg}"),
        }
    }
}

impl std::error::Error for RebuildError {}

/// Rebuilds the durable state a record sequence describes, returning the
/// same [`CrashImage`] the in-memory crash path produces. `records` is
/// whatever [`read_records`](txproc_core::wal::read_records) salvaged — any
/// clean prefix of a run's log is valid input, the empty one (a cut inside
/// the `Begin` frame) included. Replay is from genesis: the log is the only
/// durable form of the state, and its `Begin` header is checked first.
pub fn rebuild_image(
    workload: &Workload,
    records: &[WalRecord],
) -> Result<CrashImage, RebuildError> {
    let mut history = Schedule::new();
    let mut invocation_log = Vec::new();
    let mut coordinator = Coordinator::new();
    let mut agents = fresh_agents(workload);
    // gid → agent handle and whether it was prepared, for compensation
    // replay and the decided-before-executed check.
    let mut invocation_of: BTreeMap<GlobalActivityId, (SubsystemId, InvocationId, bool)> =
        BTreeMap::new();

    let body = match records {
        [] => records,
        [WalRecord::Begin { version, seed }, body @ ..] => {
            if *version != WAL_VERSION {
                return Err(RebuildError::VersionMismatch { found: *version });
            }
            if *seed != workload.config.seed {
                return Err(RebuildError::SeedMismatch {
                    found: *seed,
                    expected: workload.config.seed,
                });
            }
            body
        }
        [first, ..] => {
            return Err(RebuildError::Inconsistent(format!(
                "log starts with {first:?}, not Begin"
            )))
        }
    };
    for record in body {
        match record {
            WalRecord::Begin { .. } => {
                return Err(RebuildError::Inconsistent(
                    "a second Begin record".to_string(),
                ))
            }
            WalRecord::Invocation {
                gid,
                subsystem,
                invocation,
                prepared,
            } => {
                let sid = SubsystemId(*subsystem);
                let process = workload
                    .spec
                    .process(gid.process)
                    .map_err(|_| RebuildError::Inconsistent(format!("unknown process {gid}")))?;
                let svc = process.service(gid.activity);
                let site = workload.deployment.site(svc).ok_or_else(|| {
                    RebuildError::Inconsistent(format!("service of {gid} not deployed"))
                })?;
                let agent = agents.get_mut(&sid).ok_or_else(|| {
                    RebuildError::Inconsistent(format!("unknown subsystem {subsystem}"))
                })?;
                let mode = if *prepared {
                    CommitMode::Deferred
                } else {
                    CommitMode::Immediate
                };
                let got = agent
                    .invoke(svc, &site.program, mode, false)
                    .map_err(|e| RebuildError::Inconsistent(format!("invoke {gid}: {e}")))?;
                let got_id = match got {
                    InvokeOutcome::Committed { invocation, .. } if !prepared => invocation,
                    InvokeOutcome::Prepared { invocation, .. } if *prepared => invocation,
                    other => {
                        return Err(RebuildError::Inconsistent(format!(
                            "replaying {gid} produced {other:?}, log says prepared={prepared}"
                        )))
                    }
                };
                if got_id.0 != *invocation {
                    return Err(RebuildError::Inconsistent(format!(
                        "replaying {gid} allocated invocation {}, log says {invocation}",
                        got_id.0
                    )));
                }
                invocation_log.push(InvocationLogEntry {
                    gid: *gid,
                    subsystem: sid,
                    invocation: got_id,
                    prepared: *prepared,
                    at: history.len() as u64,
                });
                invocation_of.insert(*gid, (sid, got_id, *prepared));
                if !prepared {
                    history.execute(*gid);
                }
            }
            WalRecord::Event { event } => {
                if let Event::Compensate(gid) = event {
                    let &(sid, inv, _) = invocation_of.get(gid).ok_or_else(|| {
                        RebuildError::Inconsistent(format!("compensating unlogged {gid}"))
                    })?;
                    let agent = agents.get_mut(&sid).ok_or_else(|| {
                        RebuildError::Inconsistent(format!("no agent for subsystem {}", sid.0))
                    })?;
                    let out = agent.compensate(inv).map_err(|e| {
                        RebuildError::Inconsistent(format!("compensate {gid}: {e}"))
                    })?;
                    if !matches!(out, InvokeOutcome::Committed { .. }) {
                        return Err(RebuildError::Inconsistent(format!(
                            "compensation of {gid} replayed to {out:?}"
                        )));
                    }
                }
                // A release is decided before its event is logged. A log that
                // shows the event first would rebuild to an executed activity
                // that recovery then aborts: refuse it instead.
                if let Event::Execute(gid) = event {
                    if let Some(&(subsystem, invocation, true)) = invocation_of.get(gid) {
                        let p = Participant {
                            subsystem,
                            invocation,
                        };
                        if !(coordinator.log().iter().rev()).any(|r| r.participants.contains(&p)) {
                            return Err(RebuildError::Inconsistent(format!(
                                "{gid} executed before its release was decided"
                            )));
                        }
                    }
                }
                history.push(event.clone());
            }
            WalRecord::PreparedAborted {
                subsystem,
                invocation,
            } => {
                let agent = agents.get_mut(&SubsystemId(*subsystem)).ok_or_else(|| {
                    RebuildError::Inconsistent(format!("unknown subsystem {subsystem}"))
                })?;
                agent
                    .abort_prepared(InvocationId(*invocation))
                    .map_err(|e| {
                        RebuildError::Inconsistent(format!(
                            "abort of prepared invocation {invocation}: {e}"
                        ))
                    })?;
            }
            WalRecord::Decision {
                group,
                commit,
                participants,
            } => {
                let decision = if *commit {
                    Decision::Commit
                } else {
                    Decision::Abort
                };
                let participants = participants
                    .iter()
                    .map(|&(s, i)| Participant {
                        subsystem: SubsystemId(s),
                        invocation: InvocationId(i),
                    })
                    .collect();
                coordinator.restore_decision(*group, participants, decision);
            }
            WalRecord::DecisionApplied { group } => {
                coordinator
                    .complete_group(&mut agents, *group)
                    .map_err(|e| {
                        RebuildError::Inconsistent(format!("completing group {group}: {e}"))
                    })?;
            }
            WalRecord::EpochSeal { .. } => {}
        }
    }

    Ok(CrashImage {
        history,
        agents,
        coordinator,
        invocation_log,
    })
}
