//! Process schedules `S = (𝒫_S, 𝒜_S, ≪_S)` (Definition 7).
//!
//! A schedule is recorded as a linear history of events, the form in which a
//! scheduler observes it. The partial order `≪_S` is derived: activities of
//! the same process are ordered by their (legal) execution order, and
//! *conflicting* activities of different processes are ordered by their
//! positions in the history; non-conflicting cross-process activities stay
//! unordered. Replaying a history through the per-process
//! [`crate::state::ProcessState`] machines checks
//! Definition 7.1 — every process's precedence and preference order is
//! respected — and yields each process's final state, which the completion
//! construction (Definition 8) builds on.

use crate::error::ScheduleError;
use crate::ids::{GlobalActivityId, ProcessId, ServiceId};
use crate::spec::Spec;
use crate::state::ProcessState;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;

/// One event of a schedule history.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// Activity invoked and committed at its subsystem.
    Execute(GlobalActivityId),
    /// Activity definitively failed (leaves no effects; Definition 4).
    Fail(GlobalActivityId),
    /// Compensating activity of a previously executed activity committed.
    Compensate(GlobalActivityId),
    /// Process commit `C_i`.
    Commit(ProcessId),
    /// Process abort `A_i` — completion activities follow (or are appended
    /// by the completion construction).
    Abort(ProcessId),
    /// Set-oriented abort of all listed processes (Definition 8.2b).
    GroupAbort(Vec<ProcessId>),
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Execute(g) => write!(f, "{g}"),
            Event::Fail(g) => write!(f, "fail({g})"),
            Event::Compensate(g) => write!(f, "{g}⁻¹"),
            Event::Commit(p) => write!(f, "C{}", p.0),
            Event::Abort(p) => write!(f, "A{}", p.0),
            Event::GroupAbort(ps) => {
                write!(f, "A(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl Event {
    /// The processes the event names: one, or a group abort's members.
    #[inline]
    pub fn processes(&self) -> &[ProcessId] {
        match self {
            Event::Execute(g) | Event::Fail(g) | Event::Compensate(g) => {
                std::slice::from_ref(&g.process)
            }
            Event::Commit(p) | Event::Abort(p) => std::slice::from_ref(p),
            Event::GroupAbort(ps) => ps,
        }
    }

    /// The operation the event leaves: an `Execute`'s forward one or a
    /// `Compensate`'s compensation.
    #[inline]
    pub fn effect(&self) -> Option<(GlobalActivityId, OpKind)> {
        match *self {
            Event::Execute(g) => Some((g, OpKind::Forward)),
            Event::Compensate(g) => Some((g, OpKind::Compensation)),
            _ => None,
        }
    }

    /// [`Self::effect`] with its base service, once the activity the event
    /// names is known to be `spec`'s (before any state is made for it).
    pub(crate) fn effect_in(&self, spec: &Spec) -> Result<Option<BaseOp>, ScheduleError> {
        if let Event::Fail(g) = self {
            spec.service_of(*g)?;
        }
        let base = |(g, kind)| Ok((g, spec.catalog.base(spec.service_of(g)?), kind));
        self.effect().map(base).transpose()
    }
}

/// An operation an event leaves, with its activity's base service.
pub(crate) type BaseOp = (GlobalActivityId, ServiceId, OpKind);

/// Whether an operation is a regular (forward) activity or a compensating
/// activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// A regular activity execution.
    Forward,
    /// A compensating activity `a⁻¹`.
    Compensation,
}

/// One effect-leaving operation of a schedule, in the normalized view used by
/// the serializability/reduction machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Op {
    /// Position among the schedule's operations (dense, 0-based).
    pub index: usize,
    /// Position of the originating event in the history (completion-added
    /// operations get positions past the end of the history).
    pub event_index: usize,
    /// The activity this operation executes or compensates.
    pub gid: GlobalActivityId,
    /// The *base* service of the activity. Conflicts are evaluated on base
    /// services (perfect commutativity, §3.2).
    pub service: ServiceId,
    /// Forward or compensating.
    pub kind: OpKind,
    /// Whether this operation was added by the completion construction
    /// (Definition 8) rather than present in the original history.
    pub from_completion: bool,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            OpKind::Forward => write!(f, "{}", self.gid),
            OpKind::Compensation => write!(f, "{}⁻¹", self.gid),
        }
    }
}

/// A schedule history.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    events: Vec<Event>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the schedule into its events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an arbitrary event.
    pub fn push(&mut self, event: Event) -> &mut Self {
        self.events.push(event);
        self
    }

    /// Appends an activity execution.
    pub fn execute(&mut self, gid: GlobalActivityId) -> &mut Self {
        self.push(Event::Execute(gid))
    }

    /// Appends an activity failure.
    pub fn fail(&mut self, gid: GlobalActivityId) -> &mut Self {
        self.push(Event::Fail(gid))
    }

    /// Appends a compensation.
    pub fn compensate(&mut self, gid: GlobalActivityId) -> &mut Self {
        self.push(Event::Compensate(gid))
    }

    /// Appends a process commit.
    pub fn commit(&mut self, pid: ProcessId) -> &mut Self {
        self.push(Event::Commit(pid))
    }

    /// Appends a process abort.
    pub fn abort(&mut self, pid: ProcessId) -> &mut Self {
        self.push(Event::Abort(pid))
    }

    /// Appends a group abort.
    pub fn group_abort(&mut self, pids: Vec<ProcessId>) -> &mut Self {
        self.push(Event::GroupAbort(pids))
    }

    /// The prefix consisting of the first `k` events.
    pub fn prefix(&self, k: usize) -> Schedule {
        Schedule {
            events: self.events[..k.min(self.events.len())].to_vec(),
        }
    }

    /// Replays the history against a spec, validating legality
    /// (Definition 7.1) and producing per-process final states plus the
    /// normalized operation list.
    pub fn replay<'a>(&self, spec: &'a Spec) -> Result<Replay<'a>, ScheduleError> {
        let mut replay = Replay {
            states: BTreeMap::new(),
            commit_event: BTreeMap::new(),
            abort_event: BTreeMap::new(),
            ops: Vec::new(),
        };
        for (ei, event) in self.events.iter().enumerate() {
            let effect = event.effect_in(spec)?;
            for &pid in event.processes() {
                let st = replay.state_mut(spec, pid)?;
                let active = st.is_active();
                st.apply(event)?;
                match event {
                    Event::Commit(_) => replay.commit_event.insert(pid, ei),
                    Event::Abort(_) | Event::GroupAbort(_) if active => {
                        replay.abort_event.insert(pid, ei)
                    }
                    _ => None,
                };
            }
            if let Some((gid, service, kind)) = effect {
                let (index, event_index, from_completion) = (replay.ops.len(), ei, false);
                let op = Op {
                    index,
                    event_index,
                    gid,
                    service,
                    kind,
                    from_completion,
                };
                replay.ops.push(op);
            }
        }
        Ok(replay)
    }

    /// The normalized operations of this history (validating it on the way).
    pub fn ops(&self, spec: &Spec) -> Result<Vec<Op>, ScheduleError> {
        Ok(self.replay(spec)?.ops)
    }
}

impl FromIterator<Event> for Schedule {
    fn from_iter<I: IntoIterator<Item = Event>>(events: I) -> Self {
        Self {
            events: events.into_iter().collect(),
        }
    }
}

/// Result of replaying a schedule: per-process machines plus bookkeeping.
#[derive(Debug)]
pub struct Replay<'a> {
    /// Final state machine of every process that appeared.
    pub states: BTreeMap<ProcessId, ProcessState<'a>>,
    /// Event index of each `Commit`.
    pub commit_event: BTreeMap<ProcessId, usize>,
    /// Event index of each `Abort` (or the group abort covering it).
    pub abort_event: BTreeMap<ProcessId, usize>,
    /// Normalized effect-leaving operations, in history order.
    pub ops: Vec<Op>,
}

impl<'a> Replay<'a> {
    fn state_mut(
        &mut self,
        spec: &'a Spec,
        pid: ProcessId,
    ) -> Result<&mut ProcessState<'a>, ScheduleError> {
        Ok(match self.states.entry(pid) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(ProcessState::of(spec, pid)?),
        })
    }

    /// Whether a process committed in the history.
    pub fn committed(&self, pid: ProcessId) -> bool {
        self.commit_event.contains_key(&pid)
    }

    /// Processes still active at the end of the history.
    pub fn active_processes(&self) -> Vec<ProcessId> {
        self.states
            .iter()
            .filter(|(_, st)| st.is_active())
            .map(|(&p, _)| p)
            .collect()
    }
}

/// Renders a schedule as a one-line history (used by the report binary).
pub fn render(schedule: &Schedule) -> String {
    let mut out = String::new();
    for (i, e) in schedule.events().iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&e.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    /// Builds the serializable schedule S_t2 of Figure 4(a) / Example 4:
    /// a1_1 a2_1 a2_2 a2_3 a1_2 a2_4 a1_3 (both processes active).
    pub(crate) fn figure4a_st2(fx: &fixtures::PaperWorld) -> Schedule {
        let mut s = Schedule::new();
        s.execute(fx.a(1, 1))
            .execute(fx.a(2, 1))
            .execute(fx.a(2, 2))
            .execute(fx.a(2, 3))
            .execute(fx.a(1, 2))
            .execute(fx.a(2, 4))
            .execute(fx.a(1, 3));
        s
    }

    #[test]
    fn legal_history_replays() {
        let fx = fixtures::paper_world();
        let s = figure4a_st2(&fx);
        let replay = s.replay(&fx.spec).unwrap();
        assert_eq!(replay.ops.len(), 7);
        assert_eq!(replay.active_processes(), vec![ProcessId(1), ProcessId(2)]);
        assert!(!replay.committed(ProcessId(1)));
    }

    #[test]
    fn precedence_violation_rejected() {
        // a1_2 before a1_1 violates ≪_1 (Definition 7.1).
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        s.execute(fx.a(1, 2));
        assert!(matches!(
            s.replay(&fx.spec).unwrap_err(),
            ScheduleError::NotOnActiveBranch(_)
        ));
    }

    #[test]
    fn failure_switches_to_alternative_in_replay() {
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        s.execute(fx.a(1, 1))
            .execute(fx.a(1, 2))
            .execute(fx.a(1, 3))
            .fail(fx.a(1, 4))
            .compensate(fx.a(1, 3))
            .execute(fx.a(1, 5))
            .execute(fx.a(1, 6))
            .commit(ProcessId(1));
        let replay = s.replay(&fx.spec).unwrap();
        assert!(replay.committed(ProcessId(1)));
        // Ops: 4 executes + 1 compensation + 2 executes.
        assert_eq!(replay.ops.len(), 6);
        assert_eq!(
            replay
                .ops
                .iter()
                .filter(|o| o.kind == OpKind::Compensation)
                .count(),
            1
        );
    }

    #[test]
    fn retriable_fail_event_rejected() {
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        for k in 1..=4 {
            s.execute(fx.a(2, k));
        }
        s.fail(fx.a(2, 5));
        assert!(matches!(
            s.replay(&fx.spec).unwrap_err(),
            ScheduleError::RetriableCannotFail(_)
        ));
    }

    #[test]
    fn abort_followed_by_completion_events() {
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        s.execute(fx.a(1, 1))
            .execute(fx.a(1, 2))
            .execute(fx.a(1, 3))
            .abort(ProcessId(1))
            .compensate(fx.a(1, 3))
            .execute(fx.a(1, 5))
            .execute(fx.a(1, 6));
        let replay = s.replay(&fx.spec).unwrap();
        let st = &replay.states[&ProcessId(1)];
        assert_eq!(st.status(), crate::state::ProcessStatus::Aborted);
        assert!(replay.abort_event.contains_key(&ProcessId(1)));
    }

    #[test]
    fn group_abort_applies_to_active_processes_only() {
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        s.execute(fx.a(1, 1));
        // P2 fully executes and commits.
        for k in 1..=5 {
            s.execute(fx.a(2, k));
        }
        s.commit(ProcessId(2));
        s.group_abort(vec![ProcessId(1), ProcessId(2)]);
        let replay = s.replay(&fx.spec).unwrap();
        assert!(replay.committed(ProcessId(2)));
        assert!(replay.abort_event.contains_key(&ProcessId(1)));
        assert!(!replay.abort_event.contains_key(&ProcessId(2)));
    }

    #[test]
    fn prefix_truncates() {
        let fx = fixtures::paper_world();
        let s = figure4a_st2(&fx);
        assert_eq!(s.prefix(3).len(), 3);
        assert_eq!(s.prefix(99).len(), s.len());
        assert!(s.prefix(0).is_empty());
    }

    #[test]
    fn ops_store_base_services() {
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        s.execute(fx.a(1, 1))
            .execute(fx.a(1, 2))
            .execute(fx.a(1, 3))
            .fail(fx.a(1, 4))
            .compensate(fx.a(1, 3));
        let ops = s.ops(&fx.spec).unwrap();
        let comp_op = ops.iter().find(|o| o.kind == OpKind::Compensation).unwrap();
        let fwd_op = ops
            .iter()
            .find(|o| o.gid == fx.a(1, 3) && o.kind == OpKind::Forward)
            .unwrap();
        // Perfect commutativity: the compensation carries its base service.
        assert_eq!(comp_op.service, fwd_op.service);
    }

    #[test]
    fn event_rendering() {
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        s.execute(fx.a(1, 1))
            .fail(fx.a(1, 2))
            .compensate(fx.a(1, 1))
            .commit(ProcessId(1))
            .group_abort(vec![ProcessId(1), ProcessId(2)]);
        let text = render(&s);
        assert_eq!(text, "a1_0 fail(a1_1) a1_0⁻¹ C1 A(P1,P2)");
    }

    #[test]
    fn unknown_process_rejected() {
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        s.commit(ProcessId(42));
        assert!(matches!(
            s.replay(&fx.spec).unwrap_err(),
            ScheduleError::Model(_)
        ));
    }
}
