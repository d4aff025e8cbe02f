//! Per-process execution state machine: tracks one process through commits,
//! failures, alternative switching, and recovery (§3.1).
//!
//! The machine owns the paper's operational semantics:
//!
//! * the precedence order `≪` is temporal: an activity only starts after its
//!   predecessor committed,
//! * on a failure, execution falls back to the deepest reachable choice point
//!   (compensating the committed compensatable activities after it, in
//!   reverse order) and continues with the next preferred alternative,
//! * a process is **backward-recoverable** (`B-REC`) until its
//!   state-determining activity — the first non-compensatable activity to
//!   commit — and **forward-recoverable** (`F-REC`) afterwards,
//! * the *completion* `𝒞(P)` (§3.1) is what recovery must execute: in
//!   `B-REC` the backward recovery path (compensations in reverse order), in
//!   `F-REC` local backward recovery to the last state-determining element
//!   followed by the lowest-priority (all-retriable) forward path.

use crate::activity::{Catalog, Termination};
use crate::error::{ModelError, ScheduleError};
use crate::flex::FlexError;
use crate::ids::{ActivityId, GlobalActivityId, ProcessId};
use crate::process::{Process, Successors};
use crate::schedule::{Event, OpKind};
use crate::spec::Spec;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One effect-leaving step of a process execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ExecStep {
    /// The activity was invoked and committed.
    Executed(ActivityId),
    /// The activity's compensating activity was invoked and committed.
    Compensated(ActivityId),
}

/// Lifecycle of a process inside a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcessStatus {
    /// Still executing (possibly mid-recovery).
    Active,
    /// Terminated with commit `C_i`.
    Committed,
    /// Terminated with abort `A_i` (its completion has been fully executed).
    Aborted,
}

/// The recovery class of an active process (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryClass {
    /// Backward-recoverable: no non-compensatable activity committed yet.
    BRec,
    /// Forward-recoverable: the state-determining activity committed.
    FRec,
}

/// Result of [`ProcessState::apply_failure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureOutcome {
    /// Execution falls back to an alternative: the listed compensations run
    /// first (in order), then execution resumes at `resume`.
    Alternative {
        /// Compensations to execute, in (reverse) order.
        compensations: Vec<ActivityId>,
        /// First activity of the next alternative branch.
        resume: ActivityId,
    },
    /// No alternative is reachable but the process is still `B-REC`: the
    /// whole process aborts backward with the listed compensations.
    ProcessAbort {
        /// Compensations to execute, in (reverse) order.
        compensations: Vec<ActivityId>,
    },
    /// No alternative is reachable and the process is `F-REC`: termination is
    /// not guaranteed. Only possible for processes that fail the
    /// [`FlexAnalysis`](crate::flex::FlexAnalysis) check.
    Stuck,
}

/// The completion `𝒞(P_i)` of a process (§3.1): the activities recovery must
/// execute to terminate it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Completion {
    /// Compensating activities, in execution order (reverse commit order of
    /// their base activities — Lemma 2).
    pub compensations: Vec<ActivityId>,
    /// Forward recovery path (empty in `B-REC`).
    pub forward: Vec<ActivityId>,
    /// Whether every forward activity is retriable, i.e. the completion is
    /// guaranteed to succeed. Always `true` for strictly well-formed
    /// processes.
    pub guaranteed: bool,
}

impl Completion {
    /// Whether the completion has nothing to do.
    pub fn is_empty(&self) -> bool {
        self.compensations.is_empty() && self.forward.is_empty()
    }

    /// Total number of completion activities.
    pub fn len(&self) -> usize {
        self.compensations.len() + self.forward.len()
    }

    /// The completion's operations in the order they run: compensations,
    /// then forward recovery.
    pub fn ops(&self) -> impl Iterator<Item = (ActivityId, OpKind)> + '_ {
        let (backward, forward) = (self.compensations.iter(), self.forward.iter());
        let backward = backward.map(|&a| (a, OpKind::Compensation));
        backward.chain(forward.map(|&a| (a, OpKind::Forward)))
    }
}

/// What the machine knows of one activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    committed: bool,
    compensated: bool,
    /// At a choice node: index of the branch currently being tried.
    branch: Option<u32>,
}

/// Execution state of one process.
///
/// Its vectors are allocated at construction: an activity executes at most
/// once and is compensated at most once, so `steps` (at most 2n long for n
/// activities) is sized up front, and no commit or compensation grows it.
#[derive(Debug)]
pub struct ProcessState<'a> {
    process: &'a Process,
    catalog: &'a Catalog,
    status: ProcessStatus,
    /// Effect-leaving steps in order; its `Executed` steps are the commit
    /// order (compensated activities retained).
    steps: Vec<ExecStep>,
    /// Per activity, indexed by [`ActivityId::index`].
    slots: Vec<Slot>,
    /// Next activity to execute (None: path end reached).
    frontier: Option<ActivityId>,
    /// Last committed (and not compensated) non-compensatable activity: the
    /// current state-determining element / recovery boundary.
    last_ncp: Option<ActivityId>,
    /// Compensations that must execute before anything else.
    pending_compensations: VecDeque<ActivityId>,
    /// Where execution resumes once pending compensations are flushed.
    resume: Option<ActivityId>,
    /// Whether a process-level abort is in progress.
    abort_requested: bool,
}

/// Written by hand for `clone_from`: `#[derive(Clone)]` leaves it at the
/// default (`*self = source.clone()`), which allocates every vector afresh.
/// Forwarding it to each vector copies into the capacity `self` already
/// holds, so the certifier can refill a spare state instead of allocating
/// one per event. Both size `steps` for the whole process, as `new` does,
/// so a copy never grows either.
impl Clone for ProcessState<'_> {
    fn clone(&self) -> Self {
        Self {
            process: self.process,
            catalog: self.catalog,
            status: self.status,
            steps: {
                let mut steps = Vec::with_capacity(2 * self.process.len());
                steps.extend_from_slice(&self.steps);
                steps
            },
            slots: self.slots.clone(),
            frontier: self.frontier,
            last_ncp: self.last_ncp,
            pending_compensations: self.pending_compensations.clone(),
            resume: self.resume,
            abort_requested: self.abort_requested,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.process = source.process;
        self.catalog = source.catalog;
        self.status = source.status;
        self.steps.clear();
        self.steps.reserve(2 * source.process.len());
        self.steps.extend_from_slice(&source.steps);
        self.slots.clone_from(&source.slots);
        self.frontier = source.frontier;
        self.last_ncp = source.last_ncp;
        self.pending_compensations
            .clone_from(&source.pending_compensations);
        self.resume = source.resume;
        self.abort_requested = source.abort_requested;
    }
}

impl<'a> ProcessState<'a> {
    /// Creates the initial state. Requires a tree-structured process without
    /// parallel splits (see [`FlexError`]).
    pub fn new(process: &'a Process, catalog: &'a Catalog) -> Result<Self, FlexError> {
        let root = process.root().ok_or(FlexError::NotATree)?;
        if !process.is_tree() {
            return Err(FlexError::NotATree);
        }
        for (id, _) in process.iter() {
            if matches!(process.successors(id), Successors::Parallel(_)) {
                return Err(FlexError::ParallelUnsupported(id));
            }
        }
        let n = process.len();
        Ok(Self {
            process,
            catalog,
            status: ProcessStatus::Active,
            steps: Vec::with_capacity(2 * n),
            slots: vec![Slot::default(); n],
            frontier: Some(root),
            last_ncp: None,
            pending_compensations: VecDeque::new(),
            resume: None,
            abort_requested: false,
        })
    }

    /// The initial state of `spec`'s process `pid`.
    pub fn of(spec: &'a Spec, pid: ProcessId) -> Result<Self, ScheduleError> {
        let process = spec.process(pid)?;
        Self::new(process, &spec.catalog).map_err(|_| {
            let (process, activity) = (pid, ActivityId(0));
            ModelError::NotATree { process, activity }.into()
        })
    }

    /// The process being executed.
    #[inline]
    pub fn process(&self) -> &'a Process {
        self.process
    }

    /// Current lifecycle status.
    #[inline]
    pub fn status(&self) -> ProcessStatus {
        self.status
    }

    /// Whether the process is still active.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.status == ProcessStatus::Active
    }

    /// Whether the process executed at least one effect-leaving step.
    pub fn has_started(&self) -> bool {
        !self.steps.is_empty()
    }

    /// The recovery class (§3.1): `F-REC` once a non-compensatable activity
    /// committed, `B-REC` before.
    pub fn recovery_class(&self) -> RecoveryClass {
        if self.last_ncp.is_some() {
            RecoveryClass::FRec
        } else {
            RecoveryClass::BRec
        }
    }

    /// The current state-determining element `s_{i_k}` — the last committed
    /// non-compensatable activity, if any.
    pub fn state_determining(&self) -> Option<ActivityId> {
        self.last_ncp
    }

    /// All effect-leaving steps so far, in order.
    pub fn steps(&self) -> &[ExecStep] {
        &self.steps
    }

    /// Whether an activity committed and has not been compensated.
    pub fn is_effective(&self, a: ActivityId) -> bool {
        let slot = self.slots[a.index()];
        slot.committed && !slot.compensated
    }

    /// The next regular activity eligible for invocation, or `None` when the
    /// path end is reached, compensations are pending, or the process
    /// terminated.
    #[inline]
    pub fn next_activity(&self) -> Option<ActivityId> {
        if self.status != ProcessStatus::Active || !self.pending_compensations.is_empty() {
            return None;
        }
        self.frontier
    }

    /// The next pending compensation, if recovery is in progress.
    #[inline]
    pub fn next_compensation(&self) -> Option<ActivityId> {
        if self.status != ProcessStatus::Active {
            return None;
        }
        self.pending_compensations.front().copied()
    }

    /// Whether a process-level abort is in progress (the machine is
    /// executing its completion).
    #[inline]
    pub fn abort_in_progress(&self) -> bool {
        self.abort_requested && self.status == ProcessStatus::Active
    }

    /// Whether the process finished a valid execution path and may commit.
    #[inline]
    pub fn can_commit(&self) -> bool {
        self.status == ProcessStatus::Active
            && self.frontier.is_none()
            && self.pending_compensations.is_empty()
            && !self.abort_requested
    }

    fn gid(&self, a: ActivityId) -> GlobalActivityId {
        GlobalActivityId::new(self.process.id, a)
    }

    fn termination(&self, a: ActivityId) -> Termination {
        self.catalog.termination(self.process.service(a))
    }

    /// Records the successful commit of the frontier activity and advances.
    pub fn apply_commit(&mut self, a: ActivityId) -> Result<(), ScheduleError> {
        if self.status != ProcessStatus::Active {
            return Err(ScheduleError::ProcessAlreadyTerminated(self.process.id));
        }
        if !self.pending_compensations.is_empty() {
            return Err(ScheduleError::PrecedenceViolation {
                activity: self.gid(a),
            });
        }
        if self.slots[a.index()].committed {
            return Err(ScheduleError::DuplicateInvocation(self.gid(a)));
        }
        if self.frontier != Some(a) {
            return Err(ScheduleError::NotOnActiveBranch(self.gid(a)));
        }
        self.slots[a.index()].committed = true;
        self.steps.push(ExecStep::Executed(a));
        if !self.termination(a).is_compensatable() {
            self.last_ncp = Some(a);
        }
        self.frontier = match self.process.successors(a) {
            Successors::None => None,
            Successors::Seq(y) => Some(*y),
            Successors::Alternatives(branches) => {
                // Respect a branch pre-selected by a process-level abort
                // (forward recovery takes the lowest-priority alternative).
                let idx = *self.slots[a.index()].branch.get_or_insert(0);
                Some(branches[idx as usize])
            }
            Successors::Parallel(_) => unreachable!("rejected at construction"),
        };
        if self.frontier.is_none() && self.abort_requested {
            self.status = ProcessStatus::Aborted;
        }
        Ok(())
    }

    /// Records the definitive failure of the frontier activity
    /// (Definition 4) and computes how execution continues.
    pub fn apply_failure(&mut self, a: ActivityId) -> Result<FailureOutcome, ScheduleError> {
        if self.status != ProcessStatus::Active {
            return Err(ScheduleError::ProcessAlreadyTerminated(self.process.id));
        }
        if self.frontier != Some(a) || !self.pending_compensations.is_empty() {
            return Err(ScheduleError::NotOnActiveBranch(self.gid(a)));
        }
        if !self.termination(a).can_fail() {
            return Err(ScheduleError::RetriableCannotFail(self.gid(a)));
        }
        // Scan the committed, not-yet-compensated activities from newest back
        // to the recovery boundary for a choice point with an untried branch.
        let mut effective = Vec::new();
        self.effective_back_to_boundary(true, &mut effective);
        for (i, &x) in effective.iter().enumerate() {
            if let Successors::Alternatives(branches) = self.process.successors(x) {
                let tried = self.slots[x.index()].branch.unwrap_or(0) as usize;
                if tried + 1 < branches.len() {
                    // Compensate everything committed strictly after x.
                    effective.truncate(i);
                    let comps = effective;
                    debug_assert!(comps
                        .iter()
                        .all(|&y| self.termination(y).is_compensatable()));
                    let next = branches[tried + 1];
                    self.slots[x.index()].branch = Some(tried as u32 + 1);
                    self.pending_compensations = comps.iter().copied().collect();
                    self.resume = Some(next);
                    if self.pending_compensations.is_empty() {
                        self.frontier = self.resume.take();
                    } else {
                        self.frontier = None;
                    }
                    return Ok(FailureOutcome::Alternative {
                        compensations: comps,
                        resume: next,
                    });
                }
            }
        }
        if self.last_ncp.is_none() {
            // B-REC: abort the whole process backward.
            let comps = effective;
            self.pending_compensations = comps.iter().copied().collect();
            self.resume = None;
            self.frontier = None;
            self.abort_requested = true;
            if self.pending_compensations.is_empty() {
                self.status = ProcessStatus::Aborted;
            }
            return Ok(FailureOutcome::ProcessAbort {
                compensations: comps,
            });
        }
        Ok(FailureOutcome::Stuck)
    }

    /// Appends to `out` the committed, not-yet-compensated activities, newest
    /// first, back to the recovery boundary (the last state-determining
    /// element), which is included if `with_boundary`.
    fn effective_back_to_boundary(&self, with_boundary: bool, out: &mut Vec<ActivityId>) {
        let executed = self.steps.iter().rev().filter_map(|s| match s {
            ExecStep::Executed(x) => Some(*x),
            ExecStep::Compensated(_) => None,
        });
        for x in executed {
            let boundary = Some(x) == self.last_ncp;
            if (!boundary || with_boundary) && self.is_effective(x) {
                out.push(x);
            }
            if boundary {
                break;
            }
        }
    }

    /// Records the commit of the next pending compensating activity.
    pub fn apply_compensation(&mut self, a: ActivityId) -> Result<(), ScheduleError> {
        if self.status != ProcessStatus::Active {
            return Err(ScheduleError::ProcessAlreadyTerminated(self.process.id));
        }
        if self.pending_compensations.front() != Some(&a) {
            return Err(ScheduleError::InvalidCompensation(self.gid(a)));
        }
        self.pending_compensations.pop_front();
        self.slots[a.index()].compensated = true;
        self.steps.push(ExecStep::Compensated(a));
        if self.pending_compensations.is_empty() {
            self.frontier = self.resume.take();
            if self.frontier.is_none() && self.abort_requested {
                self.status = ProcessStatus::Aborted;
            }
        }
        Ok(())
    }

    /// The move `event` makes of this process, one of those it names
    /// (Definition 7.1): the one move of a legal history, which every fold of
    /// one — the batch checkers, the certifier, the step, the restore — makes.
    /// A failure with no alternative left is [`ScheduleError::NoAlternativeLeft`];
    /// a group abort aborts the process only if it is still active.
    pub fn apply(&mut self, event: &Event) -> Result<(), ScheduleError> {
        debug_assert!(event.processes().contains(&self.process.id));
        match *event {
            Event::Execute(g) => self.apply_commit(g.activity),
            Event::Compensate(g) => self.apply_compensation(g.activity),
            Event::Fail(g) => match self.apply_failure(g.activity)? {
                FailureOutcome::Stuck => Err(ScheduleError::NoAlternativeLeft(g)),
                _ => Ok(()),
            },
            Event::Commit(_) => self.apply_process_commit(),
            Event::GroupAbort(_) if !self.is_active() => Ok(()),
            Event::Abort(_) | Event::GroupAbort(_) => self.apply_process_abort().map(drop),
        }
    }

    /// Applies all pending compensations (test/enumeration convenience).
    pub fn run_pending_compensations(&mut self) {
        while let Some(a) = self.pending_compensations.front().copied() {
            self.apply_compensation(a)
                .expect("pending compensation is legal");
        }
    }

    /// Commits the process (`C_i`). Only legal after a valid execution path
    /// completed.
    pub fn apply_process_commit(&mut self) -> Result<(), ScheduleError> {
        if !self.can_commit() {
            return Err(ScheduleError::PrematureCommit(self.process.id));
        }
        self.status = ProcessStatus::Committed;
        Ok(())
    }

    /// Requests a process abort (`A_i`), switching the machine into executing
    /// its completion `𝒞(P)`. Returns the completion that must now run:
    /// compensations first (already queued), then the forward activities
    /// (which become the frontier path).
    pub fn apply_process_abort(&mut self) -> Result<Completion, ScheduleError> {
        if self.status != ProcessStatus::Active {
            return Err(ScheduleError::ProcessAlreadyTerminated(self.process.id));
        }
        let completion = self.completion();
        self.abort_requested = true;
        self.pending_compensations = completion.compensations.iter().copied().collect();
        match self.last_ncp {
            None => {
                // B-REC: pure backward recovery.
                self.resume = None;
                self.frontier = None;
            }
            Some(boundary) => {
                // F-REC: after local backward recovery, take the
                // lowest-priority alternative at every choice point.
                self.preselect_fallback_branches(boundary);
                self.resume = completion.forward.first().copied();
                self.frontier = None;
            }
        }
        if self.pending_compensations.is_empty() {
            self.frontier = self.resume.take();
        }
        if self.frontier.is_none() && self.pending_compensations.is_empty() {
            self.status = ProcessStatus::Aborted;
        }
        Ok(completion)
    }

    /// Marks the lowest-priority branch as taken at every choice point along
    /// the forward recovery path from `boundary`.
    fn preselect_fallback_branches(&mut self, boundary: ActivityId) {
        let mut cur = boundary;
        loop {
            match self.process.successors(cur) {
                Successors::None => break,
                Successors::Seq(y) => cur = *y,
                Successors::Alternatives(branches) => {
                    let last = branches.len() - 1;
                    self.slots[cur.index()].branch = Some(last as u32);
                    cur = branches[last];
                }
                Successors::Parallel(_) => unreachable!("rejected at construction"),
            }
        }
    }

    /// Computes the completion `𝒞(P_i)` for the current state (§3.1) without
    /// mutating the machine.
    ///
    /// * `B-REC`: all committed activities compensated in reverse order.
    /// * `F-REC`: committed compensatables after the last state-determining
    ///   element compensated in reverse order, then the lowest-priority
    ///   forward path from that element.
    ///
    /// A terminated process has an empty completion.
    pub fn completion(&self) -> Completion {
        let mut completion = Completion {
            compensations: Vec::new(),
            forward: Vec::new(),
            guaranteed: true,
        };
        self.completion_into(&mut completion);
        completion
    }

    /// [`Self::completion`] written into `out`, reusing its vectors'
    /// capacity.
    pub fn completion_into(&self, out: &mut Completion) {
        out.compensations.clear();
        out.forward.clear();
        out.guaranteed = true;
        if self.status != ProcessStatus::Active {
            return;
        }
        // Compensations already queued but not yet applied are part of what
        // recovery still must execute; they are exactly the effective
        // activities after the boundary, so this filter covers them.
        self.effective_back_to_boundary(false, &mut out.compensations);
        if let Some(boundary) = self.last_ncp {
            let mut cur = boundary;
            loop {
                cur = match self.process.successors(cur) {
                    Successors::None => break,
                    Successors::Seq(y) => *y,
                    Successors::Alternatives(branches) => {
                        *branches.last().expect("non-empty alternatives")
                    }
                    Successors::Parallel(_) => unreachable!("rejected at construction"),
                };
                out.forward.push(cur);
                if self.termination(cur) != Termination::Retriable {
                    out.guaranteed = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn a(i: u32) -> ActivityId {
        ActivityId(i)
    }

    #[test]
    fn happy_path_commits() {
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p1, &fx.spec.catalog).unwrap();
        assert_eq!(st.recovery_class(), RecoveryClass::BRec);
        for i in 0..4 {
            assert_eq!(st.next_activity(), Some(a(i)));
            st.apply_commit(a(i)).unwrap();
        }
        assert_eq!(st.recovery_class(), RecoveryClass::FRec);
        assert!(st.can_commit());
        st.apply_process_commit().unwrap();
        assert_eq!(st.status(), ProcessStatus::Committed);
        assert_eq!(st.steps().len(), 4);
    }

    #[test]
    fn frec_after_pivot() {
        // Example 2: before a1_2 commits P₁ is B-REC, after it F-REC.
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p1, &fx.spec.catalog).unwrap();
        st.apply_commit(a(0)).unwrap();
        assert_eq!(st.recovery_class(), RecoveryClass::BRec);
        st.apply_commit(a(1)).unwrap();
        assert_eq!(st.recovery_class(), RecoveryClass::FRec);
        assert_eq!(st.state_determining(), Some(a(1)));
    }

    #[test]
    fn completion_in_brec_is_reverse_compensation() {
        // Example 2: in B-REC after a1_1, 𝒞(P₁) = {a1_1⁻¹}.
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p1, &fx.spec.catalog).unwrap();
        st.apply_commit(a(0)).unwrap();
        let c = st.completion();
        assert_eq!(c.compensations, vec![a(0)]);
        assert!(c.forward.is_empty());
        assert!(c.guaranteed);
    }

    #[test]
    fn completion_in_frec_matches_example_2() {
        // Example 2: after a1_3 committed,
        // 𝒞(P₁) = {a1_3⁻¹ ≪ a1_5 ≪ a1_6}.
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p1, &fx.spec.catalog).unwrap();
        for i in 0..3 {
            st.apply_commit(a(i)).unwrap();
        }
        let c = st.completion();
        assert_eq!(c.compensations, vec![a(2)]);
        assert_eq!(c.forward, vec![a(4), a(5)]);
        assert!(c.guaranteed);
    }

    #[test]
    fn failure_of_pivot_takes_alternative() {
        // Example 1: a1_4 fails ⇒ compensate a1_3, resume at a1_5.
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p1, &fx.spec.catalog).unwrap();
        for i in 0..3 {
            st.apply_commit(a(i)).unwrap();
        }
        let outcome = st.apply_failure(a(3)).unwrap();
        assert_eq!(
            outcome,
            FailureOutcome::Alternative {
                compensations: vec![a(2)],
                resume: a(4),
            }
        );
        assert_eq!(st.next_activity(), None);
        assert_eq!(st.next_compensation(), Some(a(2)));
        st.apply_compensation(a(2)).unwrap();
        assert_eq!(st.next_activity(), Some(a(4)));
        st.apply_commit(a(4)).unwrap();
        st.apply_commit(a(5)).unwrap();
        assert!(st.can_commit());
    }

    #[test]
    fn failure_of_compensatable_takes_alternative_without_compensations() {
        // Example 1: a1_3 fails ⇒ no compensation needed, resume at a1_5.
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p1, &fx.spec.catalog).unwrap();
        st.apply_commit(a(0)).unwrap();
        st.apply_commit(a(1)).unwrap();
        let outcome = st.apply_failure(a(2)).unwrap();
        assert_eq!(
            outcome,
            FailureOutcome::Alternative {
                compensations: vec![],
                resume: a(4),
            }
        );
        assert_eq!(st.next_activity(), Some(a(4)));
    }

    #[test]
    fn failure_before_pivot_aborts_backward() {
        // a1_2 (the pivot) fails while B-REC ⇒ process abort, compensate a1_1.
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p1, &fx.spec.catalog).unwrap();
        st.apply_commit(a(0)).unwrap();
        let outcome = st.apply_failure(a(1)).unwrap();
        assert_eq!(
            outcome,
            FailureOutcome::ProcessAbort {
                compensations: vec![a(0)],
            }
        );
        st.apply_compensation(a(0)).unwrap();
        assert_eq!(st.status(), ProcessStatus::Aborted);
        assert_eq!(
            st.steps(),
            &[ExecStep::Executed(a(0)), ExecStep::Compensated(a(0))]
        );
    }

    #[test]
    fn failure_of_first_activity_aborts_with_no_effects() {
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p1, &fx.spec.catalog).unwrap();
        let outcome = st.apply_failure(a(0)).unwrap();
        assert_eq!(
            outcome,
            FailureOutcome::ProcessAbort {
                compensations: vec![],
            }
        );
        assert_eq!(st.status(), ProcessStatus::Aborted);
        assert!(!st.has_started());
    }

    #[test]
    fn process_abort_in_frec_runs_completion() {
        // Abort P₁ after a1_3: compensate a1_3, then run a1_5, a1_6.
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p1, &fx.spec.catalog).unwrap();
        for i in 0..3 {
            st.apply_commit(a(i)).unwrap();
        }
        let c = st.apply_process_abort().unwrap();
        assert_eq!(c.compensations, vec![a(2)]);
        assert_eq!(c.forward, vec![a(4), a(5)]);
        st.apply_compensation(a(2)).unwrap();
        assert_eq!(st.next_activity(), Some(a(4)));
        st.apply_commit(a(4)).unwrap();
        st.apply_commit(a(5)).unwrap();
        assert_eq!(st.status(), ProcessStatus::Aborted);
    }

    #[test]
    fn process_abort_in_brec_is_pure_backward() {
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p2, &fx.spec.catalog).unwrap();
        st.apply_commit(a(0)).unwrap();
        st.apply_commit(a(1)).unwrap();
        let c = st.apply_process_abort().unwrap();
        assert_eq!(c.compensations, vec![a(1), a(0)]);
        assert!(c.forward.is_empty());
        st.apply_compensation(a(1)).unwrap();
        st.apply_compensation(a(0)).unwrap();
        assert_eq!(st.status(), ProcessStatus::Aborted);
    }

    #[test]
    fn completion_mid_retriable_tail_matches_example_5() {
        // P₂ executed through a2_4: 𝒞(P₂) = {a2_5}.
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p2, &fx.spec.catalog).unwrap();
        for i in 0..4 {
            st.apply_commit(a(i)).unwrap();
        }
        let c = st.completion();
        assert!(c.compensations.is_empty());
        assert_eq!(c.forward, vec![a(4)]);
        assert!(c.guaranteed);
    }

    #[test]
    fn retriable_failure_rejected() {
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p2, &fx.spec.catalog).unwrap();
        for i in 0..4 {
            st.apply_commit(a(i)).unwrap();
        }
        let err = st.apply_failure(a(4)).unwrap_err();
        assert!(matches!(err, ScheduleError::RetriableCannotFail(_)));
    }

    #[test]
    fn out_of_order_commit_rejected() {
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p1, &fx.spec.catalog).unwrap();
        let err = st.apply_commit(a(2)).unwrap_err();
        assert!(matches!(err, ScheduleError::NotOnActiveBranch(_)));
    }

    #[test]
    fn duplicate_commit_rejected() {
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p1, &fx.spec.catalog).unwrap();
        st.apply_commit(a(0)).unwrap();
        let err = st.apply_commit(a(0)).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::DuplicateInvocation(_) | ScheduleError::NotOnActiveBranch(_)
        ));
    }

    #[test]
    fn premature_process_commit_rejected() {
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p1, &fx.spec.catalog).unwrap();
        st.apply_commit(a(0)).unwrap();
        assert!(matches!(
            st.apply_process_commit().unwrap_err(),
            ScheduleError::PrematureCommit(_)
        ));
    }

    #[test]
    fn terminated_process_rejects_everything() {
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p2, &fx.spec.catalog).unwrap();
        for i in 0..5 {
            st.apply_commit(a(i)).unwrap();
        }
        st.apply_process_commit().unwrap();
        assert!(st.apply_commit(a(0)).is_err());
        assert!(st.apply_failure(a(0)).is_err());
        assert!(st.apply_process_abort().is_err());
        assert!(st.completion().is_empty());
        assert_eq!(st.next_activity(), None);
    }

    #[test]
    fn stuck_when_termination_not_guaranteed() {
        use crate::ids::ProcessId;
        use crate::process::ProcessBuilder;
        let mut cat = Catalog::new();
        let p1 = cat.pivot("p1");
        let p2 = cat.pivot("p2");
        let mut b = ProcessBuilder::new(ProcessId(7), "pp");
        let x = b.activity("x", p1);
        let y = b.activity("y", p2);
        b.precede(x, y);
        let proc = b.build(&cat).unwrap();
        let mut st = ProcessState::new(&proc, &cat).unwrap();
        st.apply_commit(ActivityId(0)).unwrap();
        let outcome = st.apply_failure(ActivityId(1)).unwrap();
        assert_eq!(outcome, FailureOutcome::Stuck);
    }

    /// What a test can see of a machine.
    fn view(st: &ProcessState<'_>) -> impl PartialEq + std::fmt::Debug {
        let next = (st.next_activity(), st.next_compensation(), st.can_commit());
        (st.status(), st.steps().to_vec(), next, st.completion())
    }

    #[test]
    fn the_event_vocabulary_over_each_event_kind() {
        let fx = fixtures::paper_world();
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        type Call = fn(&mut ProcessState<'_>) -> Result<(), ScheduleError>;
        let abort: Call = |st| st.apply_process_abort().map(drop);
        // (process, activities committed and whether it then aborted, the
        // event, the `apply_*` call it is).
        let table: [(&Process, (u32, bool), Event, Call); 9] = [
            (&fx.p1, (0, false), Event::Execute(fx.a(1, 1)), |st| {
                st.apply_commit(a(0))
            }),
            (&fx.p1, (3, false), Event::Fail(fx.a(1, 4)), |st| {
                st.apply_failure(a(3)).map(drop)
            }),
            (&fx.p1, (1, false), Event::Fail(fx.a(1, 2)), |st| {
                st.apply_failure(a(1)).map(drop)
            }),
            (&fx.p2, (2, true), Event::Compensate(fx.a(2, 2)), |st| {
                st.apply_compensation(a(1))
            }),
            (&fx.p2, (5, false), Event::Commit(p2), |st| {
                st.apply_process_commit()
            }),
            (&fx.p1, (3, false), Event::Abort(p1), abort),
            (&fx.p1, (3, false), Event::GroupAbort(vec![p1, p2]), abort),
            // An illegal event is the same error either way.
            (&fx.p1, (1, false), Event::Execute(fx.a(1, 4)), |st| {
                st.apply_commit(a(3))
            }),
            (&fx.p2, (1, false), Event::Commit(p2), |st| {
                st.apply_process_commit()
            }),
        ];
        for (process, (commits, aborted), event, call) in &table {
            let mut by_apply = ProcessState::new(process, &fx.spec.catalog).unwrap();
            (0..*commits).for_each(|i| by_apply.apply_commit(a(i)).unwrap());
            if *aborted {
                by_apply.apply_process_abort().unwrap();
            }
            let mut by_call = by_apply.clone();
            assert_eq!(by_apply.apply(event), call(&mut by_call), "{event}");
            assert_eq!(view(&by_apply), view(&by_call), "{event}");
        }

        // Of a terminated process, an abort is refused and a group abort is
        // no move at all.
        let mut st = ProcessState::of(&fx.spec, p2).unwrap();
        (0..5).for_each(|i| st.apply(&Event::Execute(fx.a(2, i + 1))).unwrap());
        st.apply(&Event::Commit(p2)).unwrap();
        let before = view(&st);
        let refused = ScheduleError::ProcessAlreadyTerminated(p2);
        assert_eq!(st.apply(&Event::Abort(p2)), Err(refused));
        assert_eq!(st.apply(&Event::GroupAbort(vec![p1, p2])), Ok(()));
        assert_eq!(view(&st), before);

        // A failure with no alternative left (no paper process has one: each
        // guarantees termination).
        let mut cat = Catalog::new();
        let (s1, s2) = (cat.pivot("p1"), cat.pivot("p2"));
        let mut b = crate::process::ProcessBuilder::new(ProcessId(7), "pp");
        let (x, y) = (b.activity("x", s1), b.activity("y", s2));
        b.precede(x, y);
        let proc = b.build(&cat).unwrap();
        let mut st = ProcessState::new(&proc, &cat).unwrap();
        st.apply_commit(x).unwrap();
        let fail = GlobalActivityId::new(ProcessId(7), y);
        let stuck = Err(ScheduleError::NoAlternativeLeft(fail));
        assert_eq!(st.apply(&Event::Fail(fail)), stuck);

        // What each kind names and leaves.
        let (g, comp, fwd) = (fx.a(1, 3), OpKind::Compensation, OpKind::Forward);
        let table = [
            (Event::Execute(g), vec![p1], Some((g, fwd))),
            (Event::Compensate(g), vec![p1], Some((g, comp))),
            (Event::Fail(g), vec![p1], None),
            (Event::Commit(p2), vec![p2], None),
            (Event::Abort(p2), vec![p2], None),
            (Event::GroupAbort(vec![p2, p1]), vec![p2, p1], None),
        ];
        for (event, processes, effect) in table {
            assert_eq!(event.processes(), processes, "{event}");
            assert_eq!(event.effect(), effect, "{event}");
        }
        let c = Completion {
            compensations: vec![a(2), a(1)],
            forward: vec![a(4)],
            guaranteed: true,
        };
        let ops: Vec<_> = c.ops().collect();
        assert_eq!(ops, [(a(2), comp), (a(1), comp), (a(4), fwd)]);
    }

    #[test]
    fn wrong_compensation_order_rejected() {
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p2, &fx.spec.catalog).unwrap();
        st.apply_commit(a(0)).unwrap();
        st.apply_commit(a(1)).unwrap();
        st.apply_process_abort().unwrap();
        // Must compensate a2_2 (=index 1) first, not a2_1.
        let err = st.apply_compensation(a(0)).unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidCompensation(_)));
    }

    #[test]
    fn abort_after_path_end_without_commit_is_frec_noop() {
        let fx = fixtures::paper_world();
        let mut st = ProcessState::new(&fx.p2, &fx.spec.catalog).unwrap();
        for i in 0..5 {
            st.apply_commit(a(i)).unwrap();
        }
        // Path finished but process commit not yet recorded: completion is
        // empty forward from the last retriable.
        let c = st.completion();
        assert!(c.is_empty());
        st.apply_process_abort().unwrap();
        assert_eq!(st.status(), ProcessStatus::Aborted);
    }
}
