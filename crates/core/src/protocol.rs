//! The online scheduling protocol implied by the PRED criterion
//! (Lemmas 1–3, §3.5): the pure decision core used by the
//! `txproc-engine` scheduler.
//!
//! The protocol tracks, across all concurrent processes:
//!
//! * the executed operations and the conflict-dependency edges they induce,
//! * which operations are *stable* — they can never be compensated anymore
//!   because a later non-compensatable activity of the same process committed
//!   (the "quasi-commit" of §3.5 / Example 10),
//! * which non-compensatable activities executed under deferred commit
//!   (prepared at their subsystem, to be committed atomically via 2PC once
//!   the blocking predecessors terminate — Lemma 1.1 and §3.5).
//!
//! Scheduling obligations enforced:
//!
//! 1. **Serializability** — an activity whose conflict edges would close a
//!    cycle is rejected.
//! 2. **Lemma 1.2** — an activity conflicting with a *non-stable* operation
//!    of an active process must be compensatable; a non-compensatable
//!    activity in that situation executes with deferred commit (or waits,
//!    depending on [`DeferPolicy`]).
//! 3. **Lemma 1.1 / Definition 11.1** — a process may only commit after all
//!    processes it conflict-depends on terminated; a deferred activity's
//!    commit is released (atomically) under the same condition
//!    ([`can_commit`](Protocol::can_commit)).
//! 4. **Cascading aborts** — when a process aborts, every dependent process
//!    that conflicts with a compensated operation, or with the aborting
//!    process's forward-recovery activities, is aborted too; victims are
//!    reported in reverse dependency order so their completions respect
//!    Lemmas 2 and 3.
//!
//! # State: bit rows over dense shard-local indices
//!
//! A process gets a dense index the first time the protocol sees it
//! (`register`, or the first call that names it); a base service gets a slot
//! the first time it holds an operation, in a `ServiceSlots` table
//! (`core::conflict`) with its conflicting slots. Everything a decision
//! reads is a `core::bits` row over the process indices, updated in place
//! by the call that moved it:
//!
//! * `succ` / `pred` — the dependency edges, and `reach` / `rreach` their
//!   transitive closure (strict descendants / ancestors), one row per
//!   process;
//! * `live` / `nonstable` — per service slot, the processes holding a live
//!   (non-compensated) operation of it, and those holding one that is still
//!   compensatable;
//! * `terminated`, `aborting` — one row each.
//!
//! So "who holds a live operation conflicting with `s`" is the OR of a few
//! rows; the certifier is built on the same table and rows. Nothing is sized
//! by the catalog: 8 processes over 12 services take one word per row.
//!
//! # Retirement at quiescent points
//!
//! The protocol keeps the processes that hold a record. When the last
//! active one among them commits or aborts, the protocol is at a
//! *quiescent point*, and it drops what every holder held: its records,
//! its `succ` / `pred` / `reach` / `rreach` rows and its `live` /
//! `nonstable` bits. Statuses and dense indices stay. Every edge
//! runs from an earlier operation to a later conflicting one, so a process
//! whose operations all follow the point can never reach a retired one, and
//! every decision already masks terminated processes; no answer about an
//! active process changes. [`edges`](Protocol::edges) and the edges
//! `record_executed` returns stop naming retired predecessors. Asked about
//! a retired process itself, [`compensation_gate`](Protocol::compensation_gate)
//! is `Ready` and [`plan_abort`](Protocol::plan_abort) empty, as for a
//! process without records: a terminated process runs no completion, so
//! no driver asks them. Nor does the scheduler's step ask anything about a
//! process whose records are the only ones held: every answer about it is
//! fixed, so the step gives it and tells the protocol that process's events
//! only when a second process needs an answer.
//!
//! Every returned list is sorted by process id (victims topologically), so
//! answers do not depend on the order processes registered in. The scan
//! formulation of every decision lives in test support
//! (`tests/support/scan_protocol.rs`), not here.

use crate::bits::{assign, bit, ones, or, test, word, BitRows};
use crate::conflict::ServiceSlots;
use crate::ids::{GlobalActivityId, IdIndex, ProcessId, ServiceId};
use crate::order::PartialOrder;
use crate::spec::Spec;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// How the scheduler handles a non-compensatable activity that conflicts
/// with an active predecessor (Lemma 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeferPolicy {
    /// Execute the activity but defer its subsystem commit via 2PC (§3.5).
    PrepareAndDefer,
    /// Do not execute the activity until the predecessors terminated.
    DeferExecution,
}

/// Scheduling decision for a requested activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Execute and commit at the subsystem immediately.
    Allow,
    /// Execute, but keep the subsystem transaction prepared; the commit is
    /// released when the listed processes terminate (Lemma 1.1).
    AllowDeferred {
        /// Active processes whose termination releases the commit.
        blockers: Vec<ProcessId>,
    },
    /// Do not execute yet; retry after the listed processes terminate.
    Wait {
        /// Active processes blocking execution.
        blockers: Vec<ProcessId>,
    },
    /// Executing now would close a serializability cycle; the process should
    /// abort (or the request must be abandoned).
    Reject {
        /// A process on the offending cycle.
        conflicting: ProcessId,
    },
}

/// Lifecycle of a process as seen by the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtStatus {
    /// Executing (possibly running its completion).
    Active,
    /// Terminated with commit.
    Committed,
    /// Terminated by abort (completion fully executed).
    Aborted,
}

/// Gate decision for a completion activity (§3.5: "the completed process
/// schedule has always to be considered"). Compensations must run in reverse
/// order of their conflicting originals (Lemma 2) and before conflicting
/// forward-recovery activities (Lemma 3); conflicting live operations of
/// other processes either block the completion step or force a cascade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletionGate {
    /// The completion activity may execute now.
    Ready,
    /// Wait until the listed (aborting) processes compensated their
    /// conflicting operations.
    WaitFor(Vec<ProcessId>),
    /// The listed active processes hold conflicting operations that would
    /// make the completion irreducible; they must be cascade-aborted first.
    Cascade(Vec<ProcessId>),
}

/// One executed operation as tracked by the protocol.
#[derive(Debug, Clone)]
struct ExecRecord {
    gid: GlobalActivityId,
    /// The slot of its base service (perfect commutativity).
    slot: u32,
    /// Whether a compensating activity has undone this operation.
    compensated: bool,
    /// Whether the operation can never be compensated anymore.
    stable: bool,
    /// Whether the subsystem commit is still deferred (prepared): the one
    /// mark of a prepared activity, cleared at its release or abort.
    deferred: bool,
}

/// What the protocol keeps per process, at its dense index.
#[derive(Debug, Clone)]
struct Proc {
    pid: ProcessId,
    status: ProtStatus,
    /// Indices (into `ops`) of its operation records, in execution order;
    /// empty once a quiescent point retired it.
    ops: Vec<usize>,
}

/// The protocol state machine (single-threaded core; a shard owns one).
#[derive(Debug, Clone)]
pub struct Protocol<'a> {
    spec: &'a Spec,
    policy: DeferPolicy,
    /// The records of the processes holding one, in execution order.
    ops: Vec<ExecRecord>,
    // ---- processes, by dense index (order of first appearance) ----
    /// The one id → dense-index lookup a call makes per process argument.
    index: IdIndex<ProcessId>,
    procs: Vec<Proc>,
    /// Processes whose status is not [`ProtStatus::Active`] (ANDed out of
    /// rows of processes; nothing to set when a process registers).
    terminated: Vec<u64>,
    /// Processes currently executing their completion (abort in progress).
    aborting: Vec<u64>,
    /// Conflict-dependency edges `P_i → P_j`: bit `j` of `succ` row `i`,
    /// bit `i` of `pred` row `j`.
    succ: BitRows,
    pred: BitRows,
    /// Strict descendants / ancestors (transitive closure of `succ`).
    reach: BitRows,
    rreach: BitRows,
    // ---- base services holding an operation, by slot ----
    /// The one id → slot lookup a call makes per service argument, and
    /// each slot's conflicting slots.
    slots: ServiceSlots,
    /// Per slot: processes holding a live (non-compensated) operation of
    /// the service, and those holding a live non-stable one.
    live: BitRows,
    nonstable: BitRows,
    // ---- reused rows ----
    /// The predecessor row `derive_predecessors` fills.
    preds: Vec<u64>,
    /// Reused row of `insert_edges`.
    scratch: Vec<u64>,
    // ---- retirement at quiescent points ----
    /// Dense indices of the processes holding a record, in order of their
    /// first one since the last quiescent point.
    holders: Vec<u32>,
    retirements: u64,
}

impl<'a> Protocol<'a> {
    /// Creates an empty protocol state (allocates nothing).
    pub fn new(spec: &'a Spec, policy: DeferPolicy) -> Self {
        Self {
            spec,
            policy,
            ops: Vec::new(),
            index: IdIndex::new(),
            procs: Vec::new(),
            terminated: Vec::new(),
            aborting: Vec::new(),
            succ: BitRows::default(),
            pred: BitRows::default(),
            reach: BitRows::default(),
            rreach: BitRows::default(),
            slots: ServiceSlots::default(),
            live: BitRows::default(),
            nonstable: BitRows::default(),
            preds: Vec::new(),
            scratch: Vec::new(),
            holders: Vec::new(),
            retirements: 0,
        }
    }

    /// Registers a newly admitted process.
    pub fn register(&mut self, pid: ProcessId) {
        let d = self.dense(pid);
        self.set_status(d, ProtStatus::Active);
    }

    /// Status of a process (unknown processes are reported active).
    pub fn status(&self, pid: ProcessId) -> ProtStatus {
        let known = self.lookup(pid).map(|d| self.procs[d].status);
        known.unwrap_or(ProtStatus::Active)
    }

    /// Current dependency edges among the processes holding a record (see
    /// the module's retirement section), ascending.
    pub fn edges(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        let successors = |a| ones(self.succ.row(a).iter().copied());
        let mut edges: Vec<(ProcessId, ProcessId)> = (0..self.procs.len())
            .flat_map(|a| successors(a).map(move |b| (self.procs[a].pid, self.procs[b].pid)))
            .collect();
        edges.sort_unstable();
        edges.into_iter()
    }

    /// Deferred (prepared) activities of a process, in execution order
    /// (test support: the records still flagged).
    #[doc(hidden)]
    pub fn deferred_of(&self, pid: ProcessId) -> Vec<GlobalActivityId> {
        let ops = self.lookup(pid).map_or(&[][..], |d| &self.procs[d].ops);
        let prepared = ops.iter().map(|&i| &self.ops[i]).filter(|r| r.deferred);
        prepared.map(|r| r.gid).collect()
    }

    /// The processes holding a record, ascending (test support: none right
    /// after a quiescent point).
    #[doc(hidden)]
    pub fn holders(&self) -> Vec<ProcessId> {
        let mut pids: Vec<ProcessId> = self
            .holders
            .iter()
            .map(|&h| self.procs[h as usize].pid)
            .collect();
        pids.sort_unstable();
        pids
    }

    /// Records held (test support: bounded by what the processes since the
    /// last quiescent point executed).
    #[doc(hidden)]
    pub fn records(&self) -> usize {
        self.ops.len()
    }

    /// Quiescent points that retired at least one process (test support).
    #[doc(hidden)]
    pub fn retirements(&self) -> u64 {
        self.retirements
    }

    // ---- dense indices ----------------------------------------------------

    fn lookup(&self, pid: ProcessId) -> Option<usize> {
        self.index.get(pid).map(|&d| d as usize)
    }

    /// Dense index of a process, allocated (as an active process) on first
    /// use.
    fn dense(&mut self, pid: ProcessId) -> usize {
        if let Some(d) = self.lookup(pid) {
            return d;
        }
        let d = self.procs.len();
        self.index.insert(pid, d as u32);
        self.procs.push(Proc {
            pid,
            status: ProtStatus::Active,
            ops: Vec::new(),
        });
        d
    }

    /// Words per process row.
    fn width(&self) -> usize {
        self.procs.len().div_ceil(64)
    }

    fn set_status(&mut self, d: usize, status: ProtStatus) {
        self.procs[d].status = status;
        assign(&mut self.terminated, d, status != ProtStatus::Active);
    }

    /// Whether no process holds a record (a quiescent point).
    pub fn quiescent(&self) -> bool {
        self.holders.is_empty()
    }

    /// At a quiescent point — every process holding a record terminated —
    /// drops what each of them held: its records, its edge and closure rows
    /// and its service bits, walking its own record list.
    fn retire_if_quiescent(&mut self) {
        if self.holders.is_empty() || self.holders.iter().any(|&h| self.holding_active(h)) {
            return;
        }
        let mut holders = std::mem::take(&mut self.holders);
        for h in holders.drain(..).map(|h| h as usize) {
            for i in std::mem::take(&mut self.procs[h].ops) {
                let slot = self.ops[i].slot as usize;
                self.live.clear(slot, h);
                self.nonstable.clear(slot, h);
            }
            for rows in [
                &mut self.succ,
                &mut self.pred,
                &mut self.reach,
                &mut self.rreach,
            ] {
                rows.clear_row(h);
            }
        }
        self.holders = holders;
        self.ops.clear();
        self.retirements += 1;
    }

    /// The processes of the set bits of a row given word by word, ascending
    /// by process id whatever order they registered in.
    fn pids(&self, words: impl IntoIterator<Item = u64>) -> Vec<ProcessId> {
        let mut pids: Vec<ProcessId> = ones(words).map(|d| self.procs[d].pid).collect();
        pids.sort_unstable();
        pids
    }

    /// Slots of the services holding operations that conflict with `base`,
    /// ascending: the kept list of an interned service, a probe of each
    /// interned service for one that never held an operation here.
    fn conflict_slots(&self, base: ServiceId) -> Cow<'_, [u32]> {
        match self.slots.get(base) {
            Some(s) => Cow::Borrowed(self.slots.conflicts(s)),
            None => Cow::Owned(self.slots.probe(self.spec.oracle(), base)),
        }
    }

    /// Whether holder `h` is active (a quiescent point waits for it).
    fn holding_active(&self, h: u32) -> bool {
        self.procs[h as usize].status == ProtStatus::Active
    }

    // ---- edges ------------------------------------------------------------

    /// Inserts the edges `p → me` for every `p` of the row `preds` that is
    /// not a direct predecessor yet, and updates the closure in place, in
    /// one pass: every process that newly reaches `me` — the new
    /// predecessors and their ancestors, less those that reached it already
    /// — reaches `me` and its descendants. Clobbers `preds`; returns the new
    /// edges, ascending.
    fn insert_edges(&mut self, preds: &mut [u64], me: usize) -> Vec<(ProcessId, ProcessId)> {
        for (w, p) in preds.iter_mut().enumerate() {
            *p &= !self.pred.word(me, w);
        }
        if preds.iter().all(|&p| p == 0) {
            return Vec::new();
        }
        let (n, width) = (self.procs.len(), self.width());
        let closure = [&mut self.reach, &mut self.rreach];
        for rows in [&mut self.succ, &mut self.pred].into_iter().chain(closure) {
            rows.fit(n, width);
        }
        let mut above = std::mem::take(&mut self.scratch);
        above.clear();
        above.resize(width, 0);
        for p in ones(preds.iter().copied()) {
            self.succ.set(p, me);
            or(&mut above, self.rreach.row(p));
        }
        or(self.pred.row_mut(me), preds);
        or(&mut above, preds);
        for (a, reached) in above.iter_mut().zip(self.rreach.row(me)) {
            *a &= !reached;
        }
        for x in ones(above.iter().copied()) {
            self.reach.or_row(x, me);
            self.reach.set(x, me);
        }
        if above.iter().any(|&a| a != 0) {
            or(self.rreach.row_mut(me), &above);
            for y in ones(self.reach.row(me).iter().copied()) {
                or(self.rreach.row_mut(y), &above);
            }
        }
        self.scratch = above;
        let to = self.procs[me].pid;
        self.pids(preds.iter().copied())
            .into_iter()
            .map(|from| (from, to))
            .collect()
    }

    // ---- operation records ------------------------------------------------

    fn push_record(&mut self, me: usize, rec: ExecRecord) {
        let (slots, width, slot) = (self.slots.len(), self.width(), rec.slot as usize);
        self.live.fit(slots, width);
        self.nonstable.fit(slots, width);
        self.live.set(slot, me);
        if !rec.stable {
            self.nonstable.set(slot, me);
        }
        if self.procs[me].ops.is_empty() {
            self.holders.push(me as u32);
        }
        self.procs[me].ops.push(self.ops.len());
        self.ops.push(rec);
    }

    /// Re-derives the two bits of one (service, process) pair from the
    /// process's own records, after one of them was compensated or
    /// stabilized.
    fn refresh(&mut self, slot: u32, me: usize) {
        let (mut live, mut nonstable) = (false, false);
        for r in self.procs[me].ops.iter().map(|&i| &self.ops[i]) {
            if r.slot == slot && !r.compensated {
                live = true;
                nonstable |= !r.stable;
            }
        }
        if !live {
            self.live.clear(slot as usize, me);
        }
        if !nonstable {
            self.nonstable.clear(slot as usize, me);
        }
    }

    /// Marks one record compensated (it leaves the service rows).
    fn compensate(&mut self, idx: usize, me: usize) {
        self.ops[idx].compensated = true;
        self.refresh(self.ops[idx].slot, me);
    }

    /// Indices of the records of `gid` (a retried activity has several), in
    /// execution order.
    fn records_of(&self, me: usize, gid: GlobalActivityId) -> Vec<usize> {
        let ops = self.procs[me].ops.iter().copied();
        ops.filter(|&i| self.ops[i].gid == gid).collect()
    }

    /// Rebuild-and-compare consistency check of every maintained row
    /// (test support; called explicitly by the differential tests).
    #[doc(hidden)]
    pub fn check_index_invariants(&self) {
        let n = self.procs.len();
        // Dense indices are a bijection with the processes, and the single
        // rows mirror the per-process state. `ServiceSlots` checks itself.
        assert_eq!(self.index.len(), n, "one dense index per process");
        for (d, p) in self.procs.iter().enumerate() {
            assert_eq!(self.lookup(p.pid), Some(d), "index of {}", p.pid);
            let mine = |i: &usize| self.ops[*i].gid.process == p.pid;
            let expect: Vec<usize> = (0..self.ops.len()).filter(mine).collect();
            assert_eq!(p.ops, expect, "operation list diverged for {}", p.pid);
            let terminated = p.status != ProtStatus::Active;
            assert_eq!(test(&self.terminated, d), terminated, "terminated {d}");
        }
        // The holders are the processes with a record, each once, and once
        // none of them is active a quiescent point has retired them all.
        let holding: Vec<usize> = (0..n).filter(|&d| !self.procs[d].ops.is_empty()).collect();
        let mut holders: Vec<usize> = self.holders.iter().map(|&h| h as usize).collect();
        holders.sort_unstable();
        assert_eq!(holders, holding, "holders");
        let active = self.holders.iter().any(|&h| self.holding_active(h));
        assert!(active || holding.is_empty(), "missed quiescent point");
        let slots = self.slots.len() as u32;
        for s in 0..slots {
            for (d, p) in self.procs.iter().enumerate() {
                let mine =
                    |r: &&ExecRecord| r.slot == s && r.gid.process == p.pid && !r.compensated;
                let live: Vec<&ExecRecord> = self.ops.iter().filter(mine).collect();
                let s = s as usize;
                assert_eq!(self.live.test(s, d), !live.is_empty(), "live, slot {s}");
                let nonstable = live.iter().any(|r| !r.stable);
                assert_eq!(self.nonstable.test(s, d), nonstable, "nonstable, slot {s}");
            }
        }
        // No row carries a bit beyond the registered processes.
        let mut stored: Vec<&[u64]> = vec![&self.terminated, &self.aborting, &self.preds];
        for rows in [&self.succ, &self.pred, &self.reach, &self.rreach] {
            stored.extend((0..n).map(|a| rows.row(a)));
        }
        for rows in [&self.live, &self.nonstable] {
            stored.extend((0..slots as usize).map(|s| rows.row(s)));
        }
        let stray = stored.into_iter().flat_map(|row| ones(row.iter().copied()));
        assert_eq!(stray.filter(|&d| d >= n).count(), 0, "stray bit in a row");
        // `pred` is the transpose of `succ`; `reach` the closure of `succ`,
        // as the reference order computes it; `rreach` its transpose.
        let pairs = || (0..n).flat_map(|a| (0..n).map(move |b| (a, b)));
        let edges: Vec<(usize, usize)> = pairs().filter(|&(a, b)| self.succ.test(a, b)).collect();
        let mut order = PartialOrder::new(n);
        edges.iter().for_each(|&(a, b)| order.add(a, b));
        let closure = order.reachability();
        let held = |d: usize| !self.procs[d].ops.is_empty();
        assert!(
            edges.iter().all(|&(a, b)| held(a) && held(b)),
            "edge of a retired process"
        );
        for (a, b) in pairs() {
            let (pa, pb) = (self.procs[a].pid, self.procs[b].pid);
            let reaches = closure.lt(a, b);
            assert_eq!(self.succ.test(a, b), self.pred.test(b, a), "pred {pa}→{pb}");
            assert_eq!(self.reach.test(a, b), reaches, "closure {pa}→{pb}");
            assert_eq!(self.rreach.test(b, a), reaches, "rclosure {pa}→{pb}");
        }
    }

    // ---- conflicting predecessors ---------------------------------------

    /// Derives `preds`: the processes (≠ `pid`, at index `me`) holding a
    /// live operation that conflicts with `base` — the OR of the `live` rows
    /// of the conflicting slots. Returns whether one of them, aborting,
    /// still holds a non-stable one (its compensation is due).
    fn derive_predecessors(&mut self, me: Option<usize>, base: ServiceId) -> bool {
        let mut preds = std::mem::take(&mut self.preds);
        preds.clear();
        preds.resize(self.width(), 0);
        let due = {
            let slots = self.conflict_slots(base);
            self.live.or_rows(&slots, &mut preds);
            self.aborting.iter().any(|&a| a != 0)
                && (0..preds.len()).any(|w| self.due_word(&slots, me, w) != 0)
        };
        for (w, p) in preds.iter_mut().enumerate() {
            *p &= !bit(me, w);
        }
        self.preds = preds;
        due
    }

    /// Word `w` of the aborting processes (≠ `me`) still holding a
    /// non-stable operation of `slots`.
    fn due_word(&self, slots: &[u32], me: Option<usize>, w: usize) -> u64 {
        self.nonstable.union_word(slots, w) & word(&self.aborting, w) & !bit(me, w)
    }

    // ---- admission ------------------------------------------------------

    /// Decides whether process `pid` may now execute an activity invoking
    /// `service`.
    pub fn request(&mut self, pid: ProcessId, service: ServiceId) -> Admission {
        let base = self.spec.catalog.base(service);
        let me = self.lookup(pid);
        let due = self.derive_predecessors(me, base);
        let width = self.preds.len();
        let own = |rows: &BitRows, w: usize| me.map_or(0, |d| rows.word(d, w));
        // Serializability: adding P_i → P_j must not close a cycle.
        let closing = |w| self.preds[w] & !own(&self.pred, w) & own(&self.reach, w);
        if let Some(&conflicting) = self.pids((0..width).map(closing)).first() {
            return Admission::Reject { conflicting };
        }
        // A conflict with a non-stable operation of an *aborting* process
        // would land between that operation and its imminent compensation —
        // the Example 8 cycle. Wait until the compensation ran.
        if due {
            let slots = self.conflict_slots(base);
            let blockers = self.pids((0..width).map(|w| self.due_word(&slots, me, w)));
            return Admission::Wait { blockers };
        }
        if self.spec.catalog.termination(base).is_compensatable() {
            return Admission::Allow;
        }
        // Lemma 1.1: *every* non-compensatable activity of P_j may only
        // commit after the commit of each active P_i that P_j conflict-
        // depends on — whether the dependency comes from this activity or an
        // earlier one. Blockers include quasi-committed (stable) conflicts
        // too: Lemma 1.1 defers on C_i, not on stability.
        let active = |w| (self.preds[w] | own(&self.pred, w)) & !word(&self.terminated, w);
        let blockers = self.pids((0..width).map(active));
        if blockers.is_empty() {
            return Admission::Allow;
        }
        match self.policy {
            DeferPolicy::PrepareAndDefer => Admission::AllowDeferred { blockers },
            DeferPolicy::DeferExecution => Admission::Wait { blockers },
        }
    }

    // ---- recording ------------------------------------------------------

    /// Records an executed forward activity. `deferred` mirrors the
    /// [`Admission::AllowDeferred`] decision. Returns the serialization
    /// edges `(predecessor, pid)` newly added by this execution, so the
    /// driver can attach them to its decision trace.
    pub fn record_executed(
        &mut self,
        gid: GlobalActivityId,
        deferred: bool,
    ) -> Vec<(ProcessId, ProcessId)> {
        let pid = gid.process;
        let me = self.dense(pid);
        let service = self.spec.service_of(gid).expect("validated activity");
        let service = self.spec.catalog.base(service);
        // Dependency edges from every conflicting predecessor.
        self.derive_predecessors(Some(me), service);
        let mut preds = std::mem::take(&mut self.preds);
        let edges_added = self.insert_edges(&mut preds, me);
        self.preds = preds;
        // A committed non-compensatable activity stabilizes every earlier
        // operation of the same process (quasi-commit, §3.5).
        let compensatable = self.spec.catalog.termination(service).is_compensatable();
        let stable = !compensatable && !deferred;
        if stable {
            for &i in &self.procs[me].ops {
                self.ops[i].stable = true;
                self.nonstable.clear(self.ops[i].slot as usize, me);
            }
        }
        let (slot, compensated) = (self.slots.intern(self.spec.oracle(), service).0, false);
        let rec = ExecRecord {
            gid,
            slot,
            compensated,
            stable,
            deferred,
        };
        self.push_record(me, rec);
        edges_added
    }

    /// Records the compensation of a previously executed activity.
    pub fn record_compensated(&mut self, gid: GlobalActivityId) {
        let Some(me) = self.lookup(gid.process) else {
            return;
        };
        let live = |&&i: &&usize| !self.ops[i].compensated;
        if let Some(&idx) = self.records_of(me, gid).iter().rev().find(live) {
            debug_assert!(
                !self.ops[idx].stable,
                "stable operations are never compensated"
            );
            self.compensate(idx, me);
        }
    }

    // ---- commit ---------------------------------------------------------

    /// Whether `pid` may commit: every process it conflict-depends on has
    /// terminated (Definition 11.1); otherwise the active ones, ascending.
    /// The same condition releases a deferred activity's commit (Lemma 1.1),
    /// so it is also the gate of that release.
    pub fn can_commit(&self, pid: ProcessId) -> Result<(), Vec<ProcessId>> {
        let blockers = self.lookup(pid).map(|me| self.pids(self.active_preds(me)));
        match blockers {
            Some(blockers) if !blockers.is_empty() => Err(blockers),
            _ => Ok(()),
        }
    }

    /// The active direct predecessors of a process, as row words.
    fn active_preds(&self, me: usize) -> impl Iterator<Item = u64> + '_ {
        let active = self
            .terminated
            .iter()
            .map(|t| !t)
            .chain(std::iter::repeat(!0));
        self.pred.row(me).iter().zip(active).map(|(p, a)| p & a)
    }

    /// Records the commit of a process.
    pub fn record_process_commit(&mut self, pid: ProcessId) {
        let me = self.dense(pid);
        self.set_status(me, ProtStatus::Committed);
        // Every operation of a committed process is final.
        for &i in &self.procs[me].ops {
            self.ops[i].stable = !self.ops[i].compensated;
            self.nonstable.clear(self.ops[i].slot as usize, me);
        }
        self.retire_if_quiescent();
    }

    /// Records that a deferred (prepared) activity was aborted before its
    /// commit was released: it leaves no effects and stops participating in
    /// conflicts.
    pub fn record_prepared_aborted(&mut self, gid: GlobalActivityId) {
        let Some(me) = self.lookup(gid.process) else {
            return;
        };
        for i in self.records_of(me, gid) {
            if self.ops[i].deferred {
                self.ops[i].deferred = false;
                self.compensate(i, me);
            }
        }
    }

    /// Marks a deferred activity as released (subsystem commit executed).
    /// Stabilizes the process's earlier operations like a direct commit.
    pub fn record_deferred_released(&mut self, gid: GlobalActivityId) {
        let Some(me) = self.lookup(gid.process) else {
            return;
        };
        let released = self.records_of(me, gid);
        for &i in &released {
            self.ops[i].deferred = false;
        }
        // Stabilize everything up to and including the released op.
        let upto = released.last().map_or(0, |&last| last + 1);
        for k in 0..self.procs[me].ops.len() {
            let i = self.procs[me].ops[k];
            if i < upto && !self.ops[i].compensated {
                self.ops[i].stable = true;
                self.refresh(self.ops[i].slot, me);
            }
        }
    }

    // ---- abort ----------------------------------------------------------

    /// Plans a process abort: which dependent processes must cascade.
    ///
    /// `compensating` are the operations the aborting process will
    /// compensate; `forward_services` the (base) services of its forward
    /// recovery path. A dependent `P_j` cascades when it conflicts with a
    /// compensated operation (the Example 8 cycle) or with a forward
    /// recovery activity while `P_i → P_j` exists (Theorem 1, cases 1/3).
    /// Victims are returned in reverse dependency order (dependents first)
    /// so that completions respect Lemma 2. A process retired at a
    /// quiescent point holds no edge, so its plan is empty.
    pub fn plan_abort(
        &self,
        pid: ProcessId,
        compensating: &[GlobalActivityId],
        forward_services: &[ServiceId],
    ) -> Vec<ProcessId> {
        let Some(root) = self.lookup(pid) else {
            return Vec::new();
        };
        let width = self.width();
        // Who holds a live operation conflicting with what the root is
        // about to compensate or forward-execute.
        let mut holders = vec![0u64; width];
        let compensated = compensating
            .iter()
            .map(|g| self.spec.service_of(*g).expect("validated"));
        for s in compensated.chain(forward_services.iter().copied()) {
            let slots = self.conflict_slots(self.spec.catalog.base(s));
            self.live.or_rows(&slots, &mut holders);
        }
        // Walk direct successors of the aborting process (then of each
        // victim), pulling in every active dependent among the holders.
        let mut victims = vec![0u64; width];
        let mut frontier = vec![(root, holders)];
        while let Some((pi, holders)) = frontier.pop() {
            let dependents = |w| self.succ.word(pi, w) & holders[w] & !victims[w];
            let active = |w| !word(&self.terminated, w) & !bit(Some(root), w);
            let hit: Vec<u64> = (0..width).map(|w| dependents(w) & active(w)).collect();
            or(&mut victims, &hit);
            for b in ones(hit) {
                // The victim's own completion cascades further; its
                // compensations cover its non-stable operations.
                let mut theirs = vec![0u64; width];
                for r in self.procs[b].ops.iter().map(|&i| &self.ops[i]) {
                    if !r.compensated && !r.stable {
                        self.live.or_rows(self.slots.conflicts(r.slot), &mut theirs);
                    }
                }
                frontier.push((b, theirs));
            }
        }
        self.order_victims(&victims)
    }

    /// Reverse dependency order: dependents (later in the serialization)
    /// first. Deterministic topological emission — repeatedly emit the
    /// highest-numbered victim whose remaining dependents are all emitted —
    /// rather than a comparator sort (reachability is not a total order, so
    /// a comparator-based sort is not well-defined over it).
    fn order_victims(&self, victims: &[u64]) -> Vec<ProcessId> {
        let mut remaining: Vec<(ProcessId, usize)> = ones(victims.iter().copied())
            .map(|d| (self.procs[d].pid, d))
            .collect();
        remaining.sort_unstable();
        let mut ordered = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let reaches = |v, u| u != v && self.reach.test(v, u);
            let last =
                |&(_, v): &(ProcessId, usize)| !remaining.iter().any(|&(_, u)| reaches(v, u));
            // Victims on a residual cycle cannot exist under the
            // serializability invariant; emit highest-numbered first.
            let i = remaining
                .iter()
                .rposition(last)
                .unwrap_or(remaining.len() - 1);
            ordered.push(remaining.remove(i).0);
        }
        ordered
    }

    /// Marks a process as aborting: its completion is about to execute.
    /// Until [`record_process_abort`](Self::record_process_abort), requests
    /// conflicting with its to-be-compensated operations wait.
    pub fn mark_aborting(&mut self, pid: ProcessId) {
        let me = self.dense(pid);
        assign(&mut self.aborting, me, true);
    }

    // ---- completion gates -----------------------------------------------

    /// Gate for executing the compensation of `gid` (Lemma 2 and the
    /// Example 8 cycle): every conflicting operation executed *after* `gid`
    /// must be compensated first (if its owner is aborting) or its owner
    /// must cascade (if still running). An activity of a process retired at
    /// a quiescent point has no record left, so its gate is `Ready`.
    pub fn compensation_gate(&self, gid: GlobalActivityId) -> CompletionGate {
        let me = self.lookup(gid.process);
        let records = me.map_or(Vec::new(), |me| self.records_of(me, gid));
        let Some(&pos) = records.iter().find(|&&i| !self.ops[i].compensated) else {
            return CompletionGate::Ready;
        };
        let slots = self.slots.conflicts(self.ops[pos].slot);
        // Only operations strictly *after* the compensated one gate its
        // compensation: a holder counts if its latest conflicting
        // non-stable record is.
        self.gate(me, slots, |p| {
            let later = self.procs[p].ops.iter().rev().take_while(|&&i| i > pos);
            let mut later = later.map(|&i| &self.ops[i]);
            later.any(|r| !r.compensated && !r.stable && slots.contains(&r.slot))
        })
    }

    /// Gate for executing a forward-recovery activity of aborting process
    /// `pid` invoking `service` (Lemma 3 and §3.5's new-conflict hazard):
    /// conflicting live non-stable operations of other processes must be
    /// compensated first.
    pub fn forward_gate(&self, pid: ProcessId, service: ServiceId) -> CompletionGate {
        let slots = self.conflict_slots(self.spec.catalog.base(service));
        self.gate(self.lookup(pid), &slots, |_| true)
    }

    /// The active processes (≠ `me`) holding a non-stable operation of
    /// `slots` that `counts`: the aborting ones are waited for, unless a
    /// running one must cascade first.
    fn gate(
        &self,
        me: Option<usize>,
        slots: &[u32],
        counts: impl Fn(usize) -> bool,
    ) -> CompletionGate {
        let active = |w| !word(&self.terminated, w) & !bit(me, w);
        let holders = |w| self.nonstable.union_word(slots, w) & active(w);
        let (mut wait, mut cascade) = (Vec::new(), Vec::new());
        for p in ones((0..self.width()).map(holders)).filter(|&p| counts(p)) {
            let list = if test(&self.aborting, p) {
                &mut wait
            } else {
                &mut cascade
            };
            list.push(self.procs[p].pid);
        }
        if !cascade.is_empty() {
            cascade.sort_unstable();
            CompletionGate::Cascade(cascade)
        } else if !wait.is_empty() {
            wait.sort_unstable();
            CompletionGate::WaitFor(wait)
        } else {
            CompletionGate::Ready
        }
    }

    /// Records the completion of a process abort.
    pub fn record_process_abort(&mut self, pid: ProcessId) {
        let me = self.dense(pid);
        self.set_status(me, ProtStatus::Aborted);
        assign(&mut self.aborting, me, false);
        // Whatever effects the completed abort left behind (pre-boundary
        // operations and forward-recovery activities) are final.
        for &i in &self.procs[me].ops {
            if !self.ops[i].compensated {
                self.ops[i].stable = true;
                self.nonstable.clear(self.ops[i].slot as usize, me);
            }
        }
        // Drop its unreleased deferred activities (they abort at prepare):
        // prepared-then-aborted, no effect.
        for k in 0..self.procs[me].ops.len() {
            let i = self.procs[me].ops[k];
            if self.ops[i].deferred {
                self.ops[i].deferred = false;
                self.compensate(i, me);
            }
        }
        self.retire_if_quiescent();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn svc(fx: &fixtures::PaperWorld, p: u32, k: u32) -> ServiceId {
        fx.spec.service_of(fx.a(p, k)).unwrap()
    }

    #[test]
    fn independent_activities_allowed() {
        let fx = fixtures::paper_world();
        let mut prot = Protocol::new(&fx.spec, DeferPolicy::PrepareAndDefer);
        prot.register(ProcessId(1));
        prot.register(ProcessId(2));
        assert_eq!(prot.request(ProcessId(1), svc(&fx, 1, 1)), Admission::Allow);
        prot.record_executed(fx.a(1, 1), false);
        // a2_2 does not conflict with anything executed.
        assert_eq!(prot.request(ProcessId(2), svc(&fx, 2, 2)), Admission::Allow);
    }

    #[test]
    fn conflicting_compensatable_allowed_with_dependency() {
        let fx = fixtures::paper_world();
        let mut prot = Protocol::new(&fx.spec, DeferPolicy::PrepareAndDefer);
        prot.register(ProcessId(1));
        prot.register(ProcessId(2));
        prot.record_executed(fx.a(1, 1), false);
        // a2_1 conflicts a1_1 but is compensatable: allowed (Lemma 1.2).
        assert_eq!(prot.request(ProcessId(2), svc(&fx, 2, 1)), Admission::Allow);
        prot.record_executed(fx.a(2, 1), false);
        assert!(prot.edges().any(|e| e == (ProcessId(1), ProcessId(2))));
        // P₂ may not commit before P₁ (Definition 11.1).
        assert_eq!(prot.can_commit(ProcessId(2)), Err(vec![ProcessId(1)]));
        assert!(prot.can_commit(ProcessId(1)).is_ok());
    }

    #[test]
    fn non_compensatable_defers_behind_active_predecessor() {
        // The Example 8 situation: P₂'s pivot a2_3 must not commit while P₁
        // (which P₂ conflict-depends on) is active.
        let fx = fixtures::paper_world();
        let mut prot = Protocol::new(&fx.spec, DeferPolicy::PrepareAndDefer);
        prot.register(ProcessId(1));
        prot.register(ProcessId(2));
        prot.record_executed(fx.a(1, 1), false);
        prot.record_executed(fx.a(2, 1), false);
        prot.record_executed(fx.a(2, 2), false);
        match prot.request(ProcessId(2), svc(&fx, 2, 3)) {
            Admission::AllowDeferred { blockers } => assert_eq!(blockers, vec![ProcessId(1)]),
            other => panic!("expected AllowDeferred, got {other:?}"),
        }
        prot.record_executed(fx.a(2, 3), true);
        assert_eq!(prot.deferred_of(ProcessId(2)), &[fx.a(2, 3)]);
    }

    #[test]
    fn deferred_commit_released_on_predecessor_commit() {
        let fx = fixtures::paper_world();
        let mut prot = Protocol::new(&fx.spec, DeferPolicy::PrepareAndDefer);
        prot.register(ProcessId(1));
        prot.register(ProcessId(2));
        prot.record_executed(fx.a(1, 1), false);
        prot.record_executed(fx.a(2, 1), false);
        prot.record_executed(fx.a(2, 2), false);
        prot.record_executed(fx.a(2, 3), true);
        // The release is gated like P₂'s own commit: open once P₁ terminated.
        assert_eq!(prot.can_commit(ProcessId(2)), Err(vec![ProcessId(1)]));
        prot.record_process_commit(ProcessId(1));
        assert!(prot.can_commit(ProcessId(2)).is_ok());
        assert_eq!(prot.deferred_of(ProcessId(2)), &[fx.a(2, 3)]);
        prot.record_deferred_released(fx.a(2, 3));
        assert!(prot.deferred_of(ProcessId(2)).is_empty());
    }

    #[test]
    fn wait_policy_blocks_execution() {
        let fx = fixtures::paper_world();
        let mut prot = Protocol::new(&fx.spec, DeferPolicy::DeferExecution);
        prot.register(ProcessId(1));
        prot.register(ProcessId(2));
        prot.record_executed(fx.a(1, 1), false);
        prot.record_executed(fx.a(2, 1), false);
        prot.record_executed(fx.a(2, 2), false);
        assert!(matches!(
            prot.request(ProcessId(2), svc(&fx, 2, 3)),
            Admission::Wait { .. }
        ));
    }

    #[test]
    fn cycle_rejected() {
        // a1_1 ≪ a2_1 gives P₁ → P₂; then a2_4 executing before a1_2 would
        // give P₂ → P₁ — the Figure 4(b) cycle.
        let fx = fixtures::paper_world();
        let mut prot = Protocol::new(&fx.spec, DeferPolicy::PrepareAndDefer);
        prot.register(ProcessId(1));
        prot.register(ProcessId(2));
        prot.record_executed(fx.a(1, 1), false);
        prot.record_executed(fx.a(2, 1), false);
        prot.record_executed(fx.a(2, 2), false);
        prot.record_executed(fx.a(2, 3), true);
        prot.record_executed(fx.a(2, 4), false);
        assert!(matches!(
            prot.request(ProcessId(1), svc(&fx, 1, 2)),
            Admission::Reject { .. }
        ));
    }

    #[test]
    fn quasi_commit_allows_compensatable_conflict_without_cascade() {
        // Figure 9 / Example 10: after P₁'s pivot commits, a1_1 is stable;
        // P₃'s conflicting a3_1 is admitted, and an abort of P₁ does not
        // cascade into P₃ (a1_1 will never be compensated).
        let fx = fixtures::paper_world();
        let mut prot = Protocol::new(&fx.spec, DeferPolicy::PrepareAndDefer);
        prot.register(ProcessId(1));
        prot.register(ProcessId(3));
        prot.record_executed(fx.a(1, 1), false);
        prot.record_executed(fx.a(1, 2), false); // pivot commits: a1_1 stable
        assert_eq!(prot.request(ProcessId(3), svc(&fx, 3, 1)), Admission::Allow);
        prot.record_executed(fx.a(3, 1), false);
        // P₁ aborts: completion = a1_3⁻¹-style compensations (none here
        // touching P₃) + forward path a1_5, a1_6.
        let victims = prot.plan_abort(ProcessId(1), &[], &[svc(&fx, 1, 5), svc(&fx, 1, 6)]);
        assert!(victims.is_empty());
    }

    #[test]
    fn abort_cascades_into_conflicting_dependent() {
        // P₁ executed a1_1 (B-REC), P₃ read conflicting a3_1; P₁'s abort
        // compensates a1_1 ⇒ P₃ must cascade (the Example 8 cycle otherwise).
        let fx = fixtures::paper_world();
        let mut prot = Protocol::new(&fx.spec, DeferPolicy::PrepareAndDefer);
        prot.register(ProcessId(1));
        prot.register(ProcessId(3));
        prot.record_executed(fx.a(1, 1), false);
        prot.record_executed(fx.a(3, 1), false);
        let victims = prot.plan_abort(ProcessId(1), &[fx.a(1, 1)], &[]);
        assert_eq!(victims, vec![ProcessId(3)]);
    }

    #[test]
    fn abort_drops_prepared_activities() {
        let fx = fixtures::paper_world();
        let mut prot = Protocol::new(&fx.spec, DeferPolicy::PrepareAndDefer);
        prot.register(ProcessId(1));
        prot.register(ProcessId(2));
        prot.record_executed(fx.a(1, 1), false);
        prot.record_executed(fx.a(2, 1), false);
        prot.record_executed(fx.a(2, 2), false);
        prot.record_executed(fx.a(2, 3), true);
        prot.record_process_abort(ProcessId(2));
        assert!(prot.deferred_of(ProcessId(2)).is_empty());
        assert_eq!(prot.status(ProcessId(2)), ProtStatus::Aborted);
    }

    #[test]
    fn commit_dependency_cleared_by_predecessor_abort() {
        let fx = fixtures::paper_world();
        let mut prot = Protocol::new(&fx.spec, DeferPolicy::PrepareAndDefer);
        prot.register(ProcessId(1));
        prot.register(ProcessId(2));
        prot.record_executed(fx.a(1, 1), false);
        prot.record_executed(fx.a(2, 1), false);
        assert!(prot.can_commit(ProcessId(2)).is_err());
        prot.record_process_abort(ProcessId(1));
        assert!(prot.can_commit(ProcessId(2)).is_ok());
    }

    #[test]
    fn indexes_stay_consistent_through_lifecycle() {
        let fx = fixtures::paper_world();
        let mut prot = Protocol::new(&fx.spec, DeferPolicy::PrepareAndDefer);
        prot.register(ProcessId(1));
        prot.register(ProcessId(2));
        prot.register(ProcessId(3));
        prot.record_executed(fx.a(1, 1), false);
        prot.check_index_invariants();
        prot.record_executed(fx.a(2, 1), false);
        prot.record_executed(fx.a(2, 2), false);
        prot.record_executed(fx.a(2, 3), true);
        prot.check_index_invariants();
        prot.mark_aborting(ProcessId(2));
        prot.record_prepared_aborted(fx.a(2, 3));
        prot.record_compensated(fx.a(2, 2));
        prot.record_compensated(fx.a(2, 1));
        prot.record_process_abort(ProcessId(2));
        prot.check_index_invariants();
        prot.record_executed(fx.a(3, 1), false);
        prot.record_process_commit(ProcessId(1));
        prot.check_index_invariants();
        prot.record_process_commit(ProcessId(3));
        prot.check_index_invariants();
    }
}
