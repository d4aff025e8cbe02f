//! Two-phase commit coordinator for the atomic release of deferred commits
//! (§3.5): "the commitment of all non-compensatable activities of `P_j` has
//! to be performed atomically by exploiting a two phase commit protocol in
//! order to ensure that either all activities commit or none of them."
//!
//! Participants are service invocations already *prepared* at their agents
//! (phase 1 happened at execution time under
//! [`CommitMode::Deferred`](crate::agent::CommitMode)). The coordinator
//! durably logs its decision, then drives phase 2. A crash between decision
//! and completion leaves in-doubt participants that [`resolve_in_doubt`]
//! finishes from the decision log — the crash-recovery experiment (E16)
//! exercises exactly this window.

use crate::agent::{Agent, InvocationId};
use crate::error::SubsystemError;
use crate::subsystem::SubsystemId;
use std::collections::BTreeMap;

/// A participant: one prepared invocation at one agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Participant {
    /// The agent/subsystem holding the prepared transaction.
    pub subsystem: SubsystemId,
    /// The prepared invocation.
    pub invocation: InvocationId,
}

/// Coordinator decision for one atomic commit group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Commit all participants.
    Commit,
    /// Abort all participants.
    Abort,
}

/// One durable decision-log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Group id.
    pub group: u64,
    /// Participants of the group.
    pub participants: Vec<Participant>,
    /// The decision.
    pub decision: Decision,
    /// Whether phase 2 finished for every participant.
    pub completed: bool,
}

/// The 2PC coordinator with a durable decision log.
#[derive(Debug, Clone, Default)]
pub struct Coordinator {
    log: Vec<DecisionRecord>,
    next_group: u64,
}

impl Coordinator {
    /// Creates a coordinator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The decision log.
    pub fn log(&self) -> &[DecisionRecord] {
        &self.log
    }

    /// The group id the next logged decision will receive. Lets a
    /// write-ahead journal record the decision *before* calling
    /// [`Coordinator::commit_group`].
    pub fn next_group_id(&self) -> u64 {
        self.next_group
    }

    /// Restores an externally journaled decision without running phase 2
    /// (WAL replay of a `Decision` record). The group stays in-doubt until
    /// [`Coordinator::complete_group`] or [`Coordinator::resolve_in_doubt`]
    /// finishes it.
    pub fn restore_decision(
        &mut self,
        group: u64,
        participants: Vec<Participant>,
        decision: Decision,
    ) {
        self.log.push(DecisionRecord {
            group,
            participants,
            decision,
            completed: false,
        });
        self.next_group = self.next_group.max(group + 1);
    }

    /// Runs phase 2 of an already-logged group (WAL replay of a
    /// `DecisionApplied` record). Idempotence caveat: the caller must know
    /// phase 2 has not run yet — the decision log's `completed` flag is the
    /// guard [`Coordinator::resolve_in_doubt`] uses.
    pub fn complete_group(
        &mut self,
        agents: &mut BTreeMap<SubsystemId, Agent>,
        group: u64,
    ) -> Result<(), SubsystemError> {
        self.run_phase2(agents, group)
    }

    /// Atomically commits a group of prepared invocations across agents.
    ///
    /// `crash_after_decision` simulates a coordinator crash after the
    /// decision was logged but before phase 2 ran: the function returns
    /// without touching the agents; [`resolve_in_doubt`] completes the group
    /// later.
    pub fn commit_group(
        &mut self,
        agents: &mut BTreeMap<SubsystemId, Agent>,
        participants: Vec<Participant>,
        crash_after_decision: bool,
    ) -> Result<u64, SubsystemError> {
        let group = self.log_commit(participants);
        if crash_after_decision {
            return Ok(group);
        }
        self.run_phase2(agents, group)?;
        Ok(group)
    }

    /// [`Coordinator::commit_group`] for agents that are not in one map
    /// (each behind its own lock, say): logs the decision, then hands every
    /// participant to `release` — phase 2 at its agent — and completes the
    /// group.
    pub fn commit_group_with(
        &mut self,
        participants: Vec<Participant>,
        mut release: impl FnMut(&Participant) -> Result<(), SubsystemError>,
    ) -> Result<u64, SubsystemError> {
        let group = self.log_commit(participants);
        let record = self.log.last_mut().expect("just logged");
        for p in &record.participants {
            release(p)?;
        }
        record.completed = true;
        Ok(group)
    }

    /// Logs the commit decision of a new group; phase 2 has yet to run.
    fn log_commit(&mut self, participants: Vec<Participant>) -> u64 {
        let group = self.next_group;
        self.next_group += 1;
        self.log.push(DecisionRecord {
            group,
            participants,
            decision: Decision::Commit,
            completed: false,
        });
        group
    }

    fn run_phase2(
        &mut self,
        agents: &mut BTreeMap<SubsystemId, Agent>,
        group: u64,
    ) -> Result<(), SubsystemError> {
        let record = self
            .log
            .iter()
            .position(|r| r.group == group)
            .expect("logged group");
        let (participants, decision) = {
            let r = &self.log[record];
            (r.participants.clone(), r.decision)
        };
        for p in &participants {
            let agent = agents
                .get_mut(&p.subsystem)
                .ok_or(SubsystemError::UnknownTx(crate::subsystem::TxId(u64::MAX)))?;
            match decision {
                Decision::Commit => agent.release(p.invocation)?,
                Decision::Abort => agent.abort_prepared(p.invocation)?,
            }
        }
        self.log[record].completed = true;
        Ok(())
    }

    /// Completes every logged-but-unfinished group (crash recovery).
    /// Returns the group ids that were resolved.
    pub fn resolve_in_doubt(
        &mut self,
        agents: &mut BTreeMap<SubsystemId, Agent>,
    ) -> Result<Vec<u64>, SubsystemError> {
        let pending: Vec<u64> = self
            .log
            .iter()
            .filter(|r| !r.completed)
            .map(|r| r.group)
            .collect();
        for &g in &pending {
            self.run_phase2(agents, g)?;
        }
        Ok(pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{CommitMode, InvokeOutcome};
    use crate::kv::{Key, Program};
    use crate::subsystem::Subsystem;
    use txproc_core::activity::Catalog;
    use txproc_core::ids::ServiceId;

    fn setup() -> (BTreeMap<SubsystemId, Agent>, ServiceId) {
        let mut cat = Catalog::new();
        let pivot = cat.pivot("p");
        let mut agents = BTreeMap::new();
        agents.insert(
            SubsystemId(0),
            Agent::new(Subsystem::new(SubsystemId(0), "s0")),
        );
        agents.insert(
            SubsystemId(1),
            Agent::new(Subsystem::new(SubsystemId(1), "s1")),
        );
        (agents, pivot)
    }

    fn prepare_on(
        agents: &mut BTreeMap<SubsystemId, Agent>,
        sid: SubsystemId,
        svc: ServiceId,
        key: Key,
    ) -> Participant {
        let out = agents
            .get_mut(&sid)
            .unwrap()
            .invoke(svc, &Program::set(key, 1), CommitMode::Deferred, false)
            .unwrap();
        let InvokeOutcome::Prepared { invocation, .. } = out else {
            panic!("expected prepared");
        };
        Participant {
            subsystem: sid,
            invocation,
        }
    }

    #[test]
    fn atomic_commit_across_two_subsystems() {
        let (mut agents, pivot) = setup();
        let p0 = prepare_on(&mut agents, SubsystemId(0), pivot, Key(1));
        let p1 = prepare_on(&mut agents, SubsystemId(1), pivot, Key(2));
        let mut coord = Coordinator::new();
        coord
            .commit_group(&mut agents, vec![p0, p1], false)
            .unwrap();
        assert_eq!(agents[&SubsystemId(0)].subsystem.peek(Key(1)), Some(1));
        assert_eq!(agents[&SubsystemId(1)].subsystem.peek(Key(2)), Some(1));
        assert!(coord.log()[0].completed);
    }

    #[test]
    fn commit_through_a_callback_completes_the_group() {
        let (mut agents, pivot) = setup();
        let p0 = prepare_on(&mut agents, SubsystemId(0), pivot, Key(1));
        let mut coord = Coordinator::new();
        let group = coord
            .commit_group_with(vec![p0], |p| {
                agents.get_mut(&p.subsystem).unwrap().release(p.invocation)
            })
            .unwrap();
        assert_eq!(agents[&SubsystemId(0)].subsystem.peek(Key(1)), Some(1));
        assert_eq!((group, coord.log()[0].completed), (0, true));
        assert!(coord.resolve_in_doubt(&mut agents).unwrap().is_empty());
    }

    #[test]
    fn crash_between_decision_and_phase2_recovers() {
        let (mut agents, pivot) = setup();
        let p0 = prepare_on(&mut agents, SubsystemId(0), pivot, Key(1));
        let p1 = prepare_on(&mut agents, SubsystemId(1), pivot, Key(2));
        let mut coord = Coordinator::new();
        coord.commit_group(&mut agents, vec![p0, p1], true).unwrap();
        // Phase 2 has not run: the participants stay prepared (in doubt),
        // their locks held.
        assert!(!coord.log()[0].completed);
        // Recovery finishes the group from the decision log.
        let resolved = coord.resolve_in_doubt(&mut agents).unwrap();
        assert_eq!(resolved.len(), 1);
        assert_eq!(agents[&SubsystemId(0)].subsystem.peek(Key(1)), Some(1));
        assert_eq!(agents[&SubsystemId(1)].subsystem.peek(Key(2)), Some(1));
    }

    #[test]
    fn resolve_with_nothing_pending_is_noop() {
        let (mut agents, _) = setup();
        let mut coord = Coordinator::new();
        assert!(coord.resolve_in_doubt(&mut agents).unwrap().is_empty());
    }
}
