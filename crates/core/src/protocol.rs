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
//!    processes it conflict-depends on terminated; deferred activity commits
//!    are released (atomically) at that point.
//! 4. **Cascading aborts** — when a process aborts, every dependent process
//!    that conflicts with a compensated operation, or with the aborting
//!    process's forward-recovery activities, is aborted too; victims are
//!    reported in reverse dependency order so their completions respect
//!    Lemmas 2 and 3.
//!
//! # Indexed hot path
//!
//! Decisions are answered from maintained indexes instead of rescanning the
//! full operation log:
//!
//! * [`Bucket`]s — an inverted index `base ServiceId → live operations`,
//!   split into per-process live counts and per-process sets of
//!   *non-stable* operation indices. Conflict queries touch only the
//!   service's row of the conflict matrix
//!   ([`ConflictMatrix::row`](crate::conflict::ConflictMatrix::row)) and the
//!   processes actually holding live operations there.
//! * `ops_by_process` / `op_index` — per-process and per-activity operation
//!   lists, so stabilization and compensation touch only a process's own
//!   records.
//! * `succ_adj` / `pred_adj` plus the transitive-closure bitsets `reach` /
//!   `rreach` over dense process indices — the `edges` relation with O(1)
//!   reachability, maintained incrementally on edge insertion (the same
//!   ancestor×descendant union used by `pred_incremental`).
//!
//! Every decision method retains the original scan formulation as a
//! `scan_*` differential oracle; in debug builds each indexed answer is
//! `debug_assert!`-checked against it bit-for-bit.

use crate::ids::{GlobalActivityId, ProcessId, ServiceId};
use crate::spec::Spec;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

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

/// One executed operation as tracked by the protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ExecRecord {
    gid: GlobalActivityId,
    /// Base service (perfect commutativity).
    service: ServiceId,
    /// Whether a compensating activity has undone this operation.
    compensated: bool,
    /// Whether the operation can never be compensated anymore.
    stable: bool,
    /// Whether the subsystem commit is still deferred (prepared).
    deferred: bool,
    /// Whether the service is compensatable (base termination).
    compensatable: bool,
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

/// Growable bitset over dense process indices (reachability closure rows).
#[derive(Debug, Clone, Default)]
struct PidSet {
    words: Vec<u64>,
}

impl PidSet {
    fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    fn insert(&mut self, i: usize) {
        let w = i / 64;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (i % 64);
    }

    fn union_with(&mut self, other: &PidSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

/// Inverted index entry for one base service: which processes hold live
/// (non-compensated) operations of it, and which of those operations are
/// still non-stable (compensatable in principle).
#[derive(Debug, Clone, Default)]
struct Bucket {
    /// Live operation count per process (entries are strictly positive).
    live: BTreeMap<ProcessId, u32>,
    /// Indices (into `ops`) of live non-stable operations, per process
    /// (entries are non-empty).
    nonstable: BTreeMap<ProcessId, BTreeSet<usize>>,
}

/// The protocol state machine (single-threaded core; the engine wraps it in
/// a lock).
#[derive(Debug, Clone)]
pub struct Protocol<'a> {
    spec: &'a Spec,
    policy: DeferPolicy,
    ops: Vec<ExecRecord>,
    /// Conflict-dependency edges `P_i → P_j`.
    edges: BTreeSet<(ProcessId, ProcessId)>,
    status: BTreeMap<ProcessId, ProtStatus>,
    /// Per process: activities executed under deferred commit.
    deferred: BTreeMap<ProcessId, Vec<GlobalActivityId>>,
    /// Processes currently executing their completion (abort in progress).
    aborting: BTreeSet<ProcessId>,
    // ---- maintained indexes (derived from the state above) ----
    /// Per base service: live conflicting operations (inverted index).
    /// Sparse: only services that ever held a live operation have an entry.
    buckets: BTreeMap<ServiceId, Bucket>,
    /// Per process: indices of its operation records, in execution order.
    ops_by_process: BTreeMap<ProcessId, Vec<usize>>,
    /// Per activity: indices of its operation records, in execution order
    /// (retries can record the same activity more than once).
    op_index: BTreeMap<GlobalActivityId, Vec<usize>>,
    /// Dense index per process participating in `edges`.
    dense: BTreeMap<ProcessId, u32>,
    /// Direct successors / predecessors in the `edges` relation.
    succ_adj: Vec<BTreeSet<ProcessId>>,
    pred_adj: Vec<BTreeSet<ProcessId>>,
    /// Strict descendants / ancestors (transitive closure over `edges`).
    reach: Vec<PidSet>,
    rreach: Vec<PidSet>,
}

impl<'a> Protocol<'a> {
    /// Creates an empty protocol state.
    pub fn new(spec: &'a Spec, policy: DeferPolicy) -> Self {
        Self {
            spec,
            policy,
            ops: Vec::new(),
            edges: BTreeSet::new(),
            status: BTreeMap::new(),
            deferred: BTreeMap::new(),
            aborting: BTreeSet::new(),
            buckets: BTreeMap::new(),
            ops_by_process: BTreeMap::new(),
            op_index: BTreeMap::new(),
            dense: BTreeMap::new(),
            succ_adj: Vec::new(),
            pred_adj: Vec::new(),
            reach: Vec::new(),
            rreach: Vec::new(),
        }
    }

    /// Registers a newly admitted process.
    pub fn register(&mut self, pid: ProcessId) {
        self.status.insert(pid, ProtStatus::Active);
    }

    /// Status of a process (unknown processes are reported active).
    pub fn status(&self, pid: ProcessId) -> ProtStatus {
        self.status.get(&pid).copied().unwrap_or(ProtStatus::Active)
    }

    /// Current dependency edges.
    pub fn edges(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        self.edges.iter().copied()
    }

    /// Deferred (prepared) activities of a process.
    pub fn deferred_of(&self, pid: ProcessId) -> &[GlobalActivityId] {
        self.deferred.get(&pid).map(Vec::as_slice).unwrap_or(&[])
    }

    fn is_active(&self, pid: ProcessId) -> bool {
        self.status(pid) == ProtStatus::Active
    }

    // ---- index maintenance ----------------------------------------------

    /// Conflicting base services of `service`: its row of the spec's conflict
    /// matrix. Only base services appear as record services / bucket keys,
    /// and only they appear in a row. The row borrows the spec, not `self`.
    fn conflict_row(&self, service: ServiceId) -> &'a [ServiceId] {
        self.spec.conflicts.row(&self.spec.catalog, service)
    }

    /// Dense index of a process, allocated on first use.
    fn densify(&mut self, pid: ProcessId) -> usize {
        if let Some(&d) = self.dense.get(&pid) {
            return d as usize;
        }
        let d = self.succ_adj.len();
        self.dense.insert(pid, d as u32);
        self.succ_adj.push(BTreeSet::new());
        self.pred_adj.push(BTreeSet::new());
        self.reach.push(PidSet::default());
        self.rreach.push(PidSet::default());
        d
    }

    /// Inserts edge `a → b` and updates adjacency + closure incrementally:
    /// every ancestor of `a` (plus `a`) reaches every descendant of `b`
    /// (plus `b`). Returns whether the edge was new (for decision tracing).
    fn insert_edge(&mut self, a: ProcessId, b: ProcessId) -> bool {
        if !self.edges.insert((a, b)) {
            return false;
        }
        let da = self.densify(a);
        let db = self.densify(b);
        self.succ_adj[da].insert(b);
        self.pred_adj[db].insert(a);
        if self.reach[da].contains(db) {
            return true;
        }
        let mut desc = self.reach[db].clone();
        desc.insert(db);
        let mut anc = self.rreach[da].clone();
        anc.insert(da);
        for x in anc.iter() {
            self.reach[x].union_with(&desc);
        }
        for y in desc.iter() {
            self.rreach[y].union_with(&anc);
        }
        true
    }

    /// Updates the `compensated`/`stable` flags of one record, keeping the
    /// service buckets in sync (the single mutation point for both flags).
    fn apply_record_flags(&mut self, idx: usize, compensated: bool, stable: bool) {
        let (old_c, old_s, svc, pid) = {
            let r = &self.ops[idx];
            (r.compensated, r.stable, r.service, r.gid.process)
        };
        if old_c == compensated && old_s == stable {
            return;
        }
        let bucket = self.buckets.entry(svc).or_default();
        let (was_live, is_live) = (!old_c, !compensated);
        if was_live && !is_live {
            let n = bucket.live.get_mut(&pid).expect("live count tracked");
            *n -= 1;
            if *n == 0 {
                bucket.live.remove(&pid);
            }
        } else if !was_live && is_live {
            *bucket.live.entry(pid).or_insert(0) += 1;
        }
        let (was_ns, is_ns) = (!old_c && !old_s, !compensated && !stable);
        if was_ns && !is_ns {
            let set = bucket.nonstable.get_mut(&pid).expect("nonstable tracked");
            set.remove(&idx);
            if set.is_empty() {
                bucket.nonstable.remove(&pid);
            }
        } else if !was_ns && is_ns {
            bucket.nonstable.entry(pid).or_default().insert(idx);
        }
        let r = &mut self.ops[idx];
        r.compensated = compensated;
        r.stable = stable;
    }

    fn push_record(&mut self, rec: ExecRecord) {
        let idx = self.ops.len();
        let pid = rec.gid.process;
        self.ops_by_process.entry(pid).or_default().push(idx);
        self.op_index.entry(rec.gid).or_default().push(idx);
        if !rec.compensated {
            let bucket = self.buckets.entry(rec.service).or_default();
            *bucket.live.entry(pid).or_insert(0) += 1;
            if !rec.stable {
                bucket.nonstable.entry(pid).or_default().insert(idx);
            }
        }
        self.ops.push(rec);
    }

    /// Rebuild-and-compare consistency check of every maintained index
    /// (test support; called explicitly by the differential tests).
    #[doc(hidden)]
    pub fn check_index_invariants(&self) {
        let mut services: BTreeSet<ServiceId> = self.buckets.keys().copied().collect();
        services.extend(self.ops.iter().map(|r| r.service));
        let (catalog, oracle) = (&self.spec.catalog, self.spec.oracle());
        for s in services {
            let probed: Vec<ServiceId> = catalog
                .iter()
                .map(|(t, _)| t)
                .filter(|&t| catalog.base(t) == t && oracle.conflict(s, t))
                .collect();
            assert_eq!(
                self.conflict_row(s),
                probed,
                "conflict row diverged from the probe scan for service {s}"
            );
            let mut live: BTreeMap<ProcessId, u32> = BTreeMap::new();
            let mut nonstable: BTreeMap<ProcessId, BTreeSet<usize>> = BTreeMap::new();
            for (i, r) in self.ops.iter().enumerate() {
                if r.service != s || r.compensated {
                    continue;
                }
                *live.entry(r.gid.process).or_insert(0) += 1;
                if !r.stable {
                    nonstable.entry(r.gid.process).or_default().insert(i);
                }
            }
            let bucket = self.buckets.get(&s).cloned().unwrap_or_default();
            assert_eq!(bucket.live, live, "live index diverged for service {s}");
            assert_eq!(
                bucket.nonstable, nonstable,
                "nonstable index diverged for service {s}"
            );
        }
        for (&pid, idxs) in &self.ops_by_process {
            let expect: Vec<usize> = (0..self.ops.len())
                .filter(|&i| self.ops[i].gid.process == pid)
                .collect();
            assert_eq!(idxs, &expect, "ops_by_process diverged for {pid}");
        }
        for (&(a, b), _) in self.edges.iter().zip(self.edges.iter()) {
            assert!(self.reaches(a, b), "closure misses edge {a}→{b}");
        }
        for (&pid, &d) in &self.dense {
            for q in self.reach[d as usize].iter() {
                let to = self.pids_of_dense(q);
                assert!(
                    self.scan_reaches(pid, to),
                    "closure claims {pid}→{to} but edges do not"
                );
            }
        }
    }

    fn pids_of_dense(&self, d: usize) -> ProcessId {
        *self
            .dense
            .iter()
            .find(|&(_, &v)| v as usize == d)
            .expect("dense index allocated")
            .0
    }

    // ---- reachability ---------------------------------------------------

    /// Whether `from` can reach `to` through dependency edges (O(1) via the
    /// maintained closure).
    fn reaches(&self, from: ProcessId, to: ProcessId) -> bool {
        if from == to {
            return true;
        }
        let answer = match (self.dense.get(&from), self.dense.get(&to)) {
            (Some(&df), Some(&dt)) => self.reach[df as usize].contains(dt as usize),
            _ => false,
        };
        debug_assert_eq!(
            answer,
            self.scan_reaches(from, to),
            "closure/scan divergence for {from}→{to}"
        );
        answer
    }

    /// Scan oracle for [`reaches`](Self::reaches): DFS over the raw edge
    /// set.
    fn scan_reaches(&self, from: ProcessId, to: ProcessId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(p) = stack.pop() {
            if !seen.insert(p) {
                continue;
            }
            for &(a, b) in &self.edges {
                if a == p {
                    if b == to {
                        return true;
                    }
                    stack.push(b);
                }
            }
        }
        false
    }

    // ---- conflicting predecessors ---------------------------------------

    /// Processes (≠ `pid`) holding a live conflicting operation against
    /// `service`, with the stability of *all* their conflicting operations
    /// (`true` iff none is still compensatable). Answered from the service
    /// buckets: only conflicting services and the processes holding live
    /// operations there are touched.
    fn conflicting_predecessors(
        &self,
        pid: ProcessId,
        service: ServiceId,
    ) -> BTreeMap<ProcessId, bool> {
        let base = self.spec.catalog.base(service);
        let mut preds: BTreeMap<ProcessId, bool> = BTreeMap::new();
        for &s in self.conflict_row(base) {
            let Some(bucket) = self.buckets.get(&s) else {
                continue;
            };
            for &p in bucket.live.keys() {
                if p == pid {
                    continue;
                }
                let all_stable = !bucket.nonstable.contains_key(&p);
                let entry = preds.entry(p).or_insert(true);
                *entry = *entry && all_stable;
            }
        }
        debug_assert_eq!(
            preds,
            self.scan_conflicting_predecessors(pid, service),
            "conflicting_predecessors index/scan divergence"
        );
        preds
    }

    /// Scan oracle for
    /// [`conflicting_predecessors`](Self::conflicting_predecessors).
    fn scan_conflicting_predecessors(
        &self,
        pid: ProcessId,
        service: ServiceId,
    ) -> BTreeMap<ProcessId, bool> {
        let oracle = self.spec.oracle();
        let mut preds: BTreeMap<ProcessId, bool> = BTreeMap::new();
        for rec in &self.ops {
            if rec.gid.process == pid || rec.compensated {
                continue;
            }
            if oracle.conflict(rec.service, service) {
                let entry = preds.entry(rec.gid.process).or_insert(true);
                *entry = *entry && rec.stable;
            }
        }
        preds
    }

    // ---- admission ------------------------------------------------------

    /// Decides whether process `pid` may now execute the activity `gid`
    /// invoking `service`.
    pub fn request(&self, pid: ProcessId, service: ServiceId) -> Admission {
        let preds = self.conflicting_predecessors(pid, service);
        // Serializability: adding P_i → P_j must not close a cycle.
        for &pi in preds.keys() {
            if !self.edges.contains(&(pi, pid)) && self.reaches(pid, pi) {
                let answer = Admission::Reject { conflicting: pi };
                debug_assert_eq!(answer, self.scan_request(pid, service));
                return answer;
            }
        }
        // A conflict with a non-stable operation of an *aborting* process
        // would land between that operation and its imminent compensation —
        // the Example 8 cycle. Wait until the compensation ran.
        let base = self.spec.catalog.base(service);
        let mut due_compensation: BTreeSet<ProcessId> = BTreeSet::new();
        for &s in self.conflict_row(base) {
            let Some(bucket) = self.buckets.get(&s) else {
                continue;
            };
            for &p in bucket.nonstable.keys() {
                if p != pid && self.aborting.contains(&p) {
                    due_compensation.insert(p);
                }
            }
        }
        if !due_compensation.is_empty() {
            let answer = Admission::Wait {
                blockers: due_compensation.into_iter().collect(),
            };
            debug_assert_eq!(answer, self.scan_request(pid, service));
            return answer;
        }
        let compensatable = self.spec.catalog.termination(base).is_compensatable();
        if compensatable {
            debug_assert_eq!(Admission::Allow, self.scan_request(pid, service));
            return Admission::Allow;
        }
        // Lemma 1.1: *every* non-compensatable activity of P_j may only
        // commit after the commit of each active P_i that P_j conflict-
        // depends on — whether the dependency comes from this activity or an
        // earlier one. Blockers include quasi-committed (stable) conflicts
        // too: Lemma 1.1 defers on C_i, not on stability.
        let mut blockers: BTreeSet<ProcessId> = preds
            .keys()
            .copied()
            .filter(|&pi| self.is_active(pi))
            .collect();
        if let Some(&d) = self.dense.get(&pid) {
            for &pi in &self.pred_adj[d as usize] {
                if self.is_active(pi) {
                    blockers.insert(pi);
                }
            }
        }
        let blockers: Vec<ProcessId> = blockers.into_iter().collect();
        let answer = if blockers.is_empty() {
            Admission::Allow
        } else {
            match self.policy {
                DeferPolicy::PrepareAndDefer => Admission::AllowDeferred { blockers },
                DeferPolicy::DeferExecution => Admission::Wait { blockers },
            }
        };
        debug_assert_eq!(answer, self.scan_request(pid, service));
        answer
    }

    /// Scan oracle for [`request`](Self::request): the original O(total ops)
    /// formulation, retained for differential checking and as the
    /// `pred-scan` baseline policy.
    pub fn scan_request(&self, pid: ProcessId, service: ServiceId) -> Admission {
        let preds = self.scan_conflicting_predecessors(pid, service);
        for &pi in preds.keys() {
            if !self.edges.contains(&(pi, pid)) && self.scan_reaches(pid, pi) {
                return Admission::Reject { conflicting: pi };
            }
        }
        let oracle = self.spec.oracle();
        let due_compensation: Vec<ProcessId> = self
            .ops
            .iter()
            .filter(|r| {
                r.gid.process != pid
                    && !r.compensated
                    && !r.stable
                    && self.aborting.contains(&r.gid.process)
                    && oracle.conflict(r.service, self.spec.catalog.base(service))
            })
            .map(|r| r.gid.process)
            .collect();
        if !due_compensation.is_empty() {
            let mut blockers = due_compensation;
            blockers.sort();
            blockers.dedup();
            return Admission::Wait { blockers };
        }
        let compensatable = self
            .spec
            .catalog
            .termination(self.spec.catalog.base(service))
            .is_compensatable();
        if compensatable {
            return Admission::Allow;
        }
        let mut blockers: BTreeSet<ProcessId> = preds
            .keys()
            .copied()
            .filter(|&pi| self.is_active(pi))
            .collect();
        for &(pi, pj) in &self.edges {
            if pj == pid && self.is_active(pi) {
                blockers.insert(pi);
            }
        }
        let blockers: Vec<ProcessId> = blockers.into_iter().collect();
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
        self.status.entry(pid).or_insert(ProtStatus::Active);
        let service = self
            .spec
            .catalog
            .base(self.spec.service_of(gid).expect("validated activity"));
        let compensatable = self.spec.catalog.termination(service).is_compensatable();
        // Dependency edges from every conflicting predecessor.
        let preds = self.conflicting_predecessors(pid, service);
        let mut edges_added = Vec::new();
        for &pi in preds.keys() {
            if self.insert_edge(pi, pid) {
                edges_added.push((pi, pid));
            }
        }
        // A committed non-compensatable activity stabilizes every earlier
        // operation of the same process (quasi-commit, §3.5).
        let stabilizes = !compensatable && !deferred;
        if stabilizes {
            if let Some(idxs) = self.ops_by_process.get(&pid) {
                for idx in idxs.clone() {
                    let compensated = self.ops[idx].compensated;
                    self.apply_record_flags(idx, compensated, true);
                }
            }
        }
        self.push_record(ExecRecord {
            gid,
            service,
            compensated: false,
            stable: stabilizes,
            deferred,
            compensatable,
        });
        if deferred {
            self.deferred.entry(pid).or_default().push(gid);
        }
        edges_added
    }

    /// Records the compensation of a previously executed activity.
    pub fn record_compensated(&mut self, gid: GlobalActivityId) {
        let idx = self
            .op_index
            .get(&gid)
            .and_then(|idxs| idxs.iter().rev().find(|&&i| !self.ops[i].compensated))
            .copied();
        if let Some(idx) = idx {
            debug_assert!(
                !self.ops[idx].stable,
                "stable operations are never compensated"
            );
            let stable = self.ops[idx].stable;
            self.apply_record_flags(idx, true, stable);
        }
    }

    // ---- commit ---------------------------------------------------------

    /// Whether `pid` may commit: all processes it depends on have terminated
    /// (Definition 11.1) and it has no deferred activities left unreleased.
    pub fn can_commit(&self, pid: ProcessId) -> Result<(), Vec<ProcessId>> {
        let blockers: Vec<ProcessId> = match self.dense.get(&pid) {
            Some(&d) => self.pred_adj[d as usize]
                .iter()
                .copied()
                .filter(|&pi| self.is_active(pi))
                .collect(),
            None => Vec::new(),
        };
        let answer = if blockers.is_empty() {
            Ok(())
        } else {
            Err(blockers)
        };
        debug_assert_eq!(answer, self.scan_can_commit(pid));
        answer
    }

    /// Scan oracle for [`can_commit`](Self::can_commit).
    pub fn scan_can_commit(&self, pid: ProcessId) -> Result<(), Vec<ProcessId>> {
        let blockers: Vec<ProcessId> = self
            .edges
            .iter()
            .filter(|&&(pi, pj)| pj == pid && self.is_active(pi))
            .map(|&(pi, _)| pi)
            .collect();
        if blockers.is_empty() {
            Ok(())
        } else {
            Err(blockers)
        }
    }

    /// Records the commit of a process; returns, per dependent process, the
    /// deferred activities whose subsystem commits may now be released
    /// **atomically** (2PC) because their last active blocker terminated.
    pub fn record_process_commit(
        &mut self,
        pid: ProcessId,
    ) -> Vec<(ProcessId, Vec<GlobalActivityId>)> {
        self.status.insert(pid, ProtStatus::Committed);
        // Every operation of a committed process is final.
        if let Some(idxs) = self.ops_by_process.get(&pid) {
            for idx in idxs.clone() {
                let compensated = self.ops[idx].compensated;
                self.apply_record_flags(idx, compensated, !compensated);
            }
        }
        self.collect_releasable()
    }

    /// Releasable deferred commits: processes whose active blockers are gone.
    fn collect_releasable(&mut self) -> Vec<(ProcessId, Vec<GlobalActivityId>)> {
        debug_assert_eq!(self.releasable_now(), self.scan_releasable_now());
        let ready = self.releasable_now();
        let mut out = Vec::new();
        for pj in ready {
            let acts = self.deferred.remove(&pj).unwrap_or_default();
            if !acts.is_empty() {
                out.push((pj, acts));
            }
        }
        out
    }

    /// Processes with deferred activities whose active blockers are gone
    /// (indexed answer, no mutation).
    fn releasable_now(&self) -> Vec<ProcessId> {
        self.deferred
            .keys()
            .copied()
            .filter(|&pj| {
                if !self.is_active(pj) {
                    return false;
                }
                match self.dense.get(&pj) {
                    Some(&d) => !self.pred_adj[d as usize]
                        .iter()
                        .any(|&pi| self.is_active(pi)),
                    None => true,
                }
            })
            .collect()
    }

    /// Scan oracle for [`releasable_now`](Self::releasable_now).
    fn scan_releasable_now(&self) -> Vec<ProcessId> {
        self.deferred
            .keys()
            .copied()
            .filter(|&pj| {
                self.is_active(pj)
                    && !self
                        .edges
                        .iter()
                        .any(|&(pi, p)| p == pj && self.is_active(pi))
            })
            .collect()
    }

    /// Records that a deferred (prepared) activity was aborted before its
    /// commit was released: it leaves no effects and stops participating in
    /// conflicts.
    pub fn record_prepared_aborted(&mut self, gid: GlobalActivityId) {
        if let Some(idxs) = self.op_index.get(&gid) {
            for idx in idxs.clone() {
                if self.ops[idx].deferred {
                    let stable = self.ops[idx].stable;
                    self.apply_record_flags(idx, true, stable);
                    self.ops[idx].deferred = false;
                }
            }
        }
        if let Some(list) = self.deferred.get_mut(&gid.process) {
            list.retain(|&g| g != gid);
            if list.is_empty() {
                self.deferred.remove(&gid.process);
            }
        }
    }

    /// Marks a deferred activity as released (subsystem commit executed).
    /// Stabilizes the process's earlier operations like a direct commit.
    pub fn record_deferred_released(&mut self, gid: GlobalActivityId) {
        let pid = gid.process;
        let last = self.op_index.get(&gid).and_then(|idxs| {
            for &idx in idxs {
                self.ops[idx].deferred = false;
            }
            idxs.last().copied()
        });
        if let Some(last) = last {
            // Stabilize everything up to and including the released op.
            let idxs = self.ops_by_process.get(&pid).cloned().unwrap_or_default();
            for idx in idxs {
                if idx > last {
                    break;
                }
                if !self.ops[idx].compensated {
                    self.apply_record_flags(idx, false, true);
                }
            }
        }
        if let Some(list) = self.deferred.get_mut(&pid) {
            list.retain(|&g| g != gid);
            if list.is_empty() {
                self.deferred.remove(&pid);
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
    /// so that completions respect Lemma 2.
    pub fn plan_abort(
        &self,
        pid: ProcessId,
        compensating: &[GlobalActivityId],
        forward_services: &[ServiceId],
    ) -> Vec<ProcessId> {
        let comp_services = self.comp_services(compensating);
        let victims = self.plan_abort_victims(pid, &comp_services, forward_services);
        debug_assert_eq!(
            victims,
            self.scan_plan_abort_victims(pid, &comp_services, forward_services),
            "plan_abort victim set index/scan divergence"
        );
        self.order_victims(victims)
    }

    /// Scan oracle for [`plan_abort`](Self::plan_abort): victim discovery by
    /// edge-set and operation-log scans, identical ordering.
    pub fn scan_plan_abort(
        &self,
        pid: ProcessId,
        compensating: &[GlobalActivityId],
        forward_services: &[ServiceId],
    ) -> Vec<ProcessId> {
        let comp_services = self.comp_services(compensating);
        let victims = self.scan_plan_abort_victims(pid, &comp_services, forward_services);
        self.order_victims(victims)
    }

    fn comp_services(&self, compensating: &[GlobalActivityId]) -> Vec<ServiceId> {
        compensating
            .iter()
            .map(|g| {
                self.spec
                    .catalog
                    .base(self.spec.service_of(*g).expect("validated"))
            })
            .collect()
    }

    /// Victim discovery over the adjacency index: walk direct successors of
    /// the aborting process (then of each victim), pulling in any active
    /// dependent holding a live operation that conflicts with what the
    /// frontier process is about to compensate or forward-execute.
    fn plan_abort_victims(
        &self,
        pid: ProcessId,
        comp_services: &[ServiceId],
        forward_services: &[ServiceId],
    ) -> BTreeSet<ProcessId> {
        let oracle = self.spec.oracle();
        let mut victims: BTreeSet<ProcessId> = BTreeSet::new();
        let mut frontier = vec![(pid, comp_services.to_vec(), forward_services.to_vec())];
        while let Some((pi, comps, fwds)) = frontier.pop() {
            let Some(&d) = self.dense.get(&pi) else {
                continue;
            };
            for &b in &self.succ_adj[d as usize] {
                if !self.is_active(b) || b == pid || victims.contains(&b) {
                    continue;
                }
                let Some(idxs) = self.ops_by_process.get(&b) else {
                    continue;
                };
                let pb_conflicts = idxs.iter().any(|&i| {
                    let r = &self.ops[i];
                    !r.compensated
                        && comps
                            .iter()
                            .chain(fwds.iter())
                            .any(|&s| oracle.conflict(r.service, s))
                });
                if pb_conflicts {
                    victims.insert(b);
                    // The victim's own completion cascades further; its
                    // compensations cover its non-stable operations.
                    let victim_comps: Vec<ServiceId> = idxs
                        .iter()
                        .map(|&i| &self.ops[i])
                        .filter(|r| !r.compensated && !r.stable)
                        .map(|r| r.service)
                        .collect();
                    frontier.push((b, victim_comps, Vec::new()));
                }
            }
        }
        victims
    }

    /// Scan-based victim discovery (edge-set scans per frontier element).
    fn scan_plan_abort_victims(
        &self,
        pid: ProcessId,
        comp_services: &[ServiceId],
        forward_services: &[ServiceId],
    ) -> BTreeSet<ProcessId> {
        let oracle = self.spec.oracle();
        let mut victims: BTreeSet<ProcessId> = BTreeSet::new();
        let mut frontier = vec![(pid, comp_services.to_vec(), forward_services.to_vec())];
        while let Some((pi, comps, fwds)) = frontier.pop() {
            for &(a, b) in &self.edges {
                if a != pi || !self.is_active(b) || b == pid || victims.contains(&b) {
                    continue;
                }
                let pb_conflicts = self.ops.iter().any(|r| {
                    r.gid.process == b
                        && !r.compensated
                        && comps
                            .iter()
                            .chain(fwds.iter())
                            .any(|&s| oracle.conflict(r.service, s))
                });
                if pb_conflicts {
                    victims.insert(b);
                    let victim_comps: Vec<ServiceId> = self
                        .ops
                        .iter()
                        .filter(|r| r.gid.process == b && !r.compensated && !r.stable)
                        .map(|r| r.service)
                        .collect();
                    frontier.push((b, victim_comps, Vec::new()));
                }
            }
        }
        victims
    }

    /// Reverse dependency order: dependents (later in the serialization)
    /// first. Deterministic topological emission — repeatedly emit the
    /// highest-numbered victim whose remaining dependents are all emitted —
    /// rather than a comparator sort (reachability is not a total order, so
    /// a comparator-based sort is not well-defined over it).
    fn order_victims(&self, victims: BTreeSet<ProcessId>) -> Vec<ProcessId> {
        let mut remaining: Vec<ProcessId> = victims.into_iter().collect();
        let mut ordered = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let i = remaining
                .iter()
                .rposition(|&v| !remaining.iter().any(|&u| u != v && self.reaches(v, u)))
                // Victims on a residual cycle cannot exist under the
                // serializability invariant; emit highest-numbered first.
                .unwrap_or(remaining.len() - 1);
            ordered.push(remaining.remove(i));
        }
        ordered
    }

    /// Debug dump of the tracked operation records.
    pub fn debug_ops(&self) -> String {
        let mut out = String::new();
        for r in &self.ops {
            out.push_str(&format!(
                "{} svc={} comp'd={} stable={} deferred={}\n",
                r.gid, r.service, r.compensated, r.stable, r.deferred
            ));
        }
        out
    }

    /// Marks a process as aborting: its completion is about to execute.
    /// Until [`record_process_abort`](Self::record_process_abort), requests
    /// conflicting with its to-be-compensated operations wait.
    pub fn mark_aborting(&mut self, pid: ProcessId) {
        self.aborting.insert(pid);
    }

    /// Whether a process is currently aborting.
    pub fn is_aborting(&self, pid: ProcessId) -> bool {
        self.aborting.contains(&pid)
    }

    // ---- completion gates -----------------------------------------------

    /// Gate for executing the compensation of `gid` (Lemma 2 and the
    /// Example 8 cycle): every conflicting operation executed *after* `gid`
    /// must be compensated first (if its owner is aborting) or its owner
    /// must cascade (if still running).
    pub fn compensation_gate(&self, gid: GlobalActivityId) -> CompletionGate {
        let pos = self
            .op_index
            .get(&gid)
            .and_then(|idxs| idxs.iter().find(|&&i| !self.ops[i].compensated))
            .copied();
        let Some(pos) = pos else {
            debug_assert_eq!(CompletionGate::Ready, self.scan_compensation_gate(gid));
            return CompletionGate::Ready;
        };
        let service = self.ops[pos].service;
        let mut wait: BTreeSet<ProcessId> = BTreeSet::new();
        let mut cascade: BTreeSet<ProcessId> = BTreeSet::new();
        for &s in self.conflict_row(service) {
            let Some(bucket) = self.buckets.get(&s) else {
                continue;
            };
            for (&p, set) in &bucket.nonstable {
                // Only operations strictly *after* the compensated one gate
                // its compensation; `set` is ordered, so the max index
                // decides.
                if p == gid.process || set.last().is_none_or(|&max| max <= pos) {
                    continue;
                }
                match self.status(p) {
                    ProtStatus::Active if self.aborting.contains(&p) => {
                        wait.insert(p);
                    }
                    ProtStatus::Active => {
                        cascade.insert(p);
                    }
                    _ => {}
                }
            }
        }
        let answer = Self::gate(wait.into_iter().collect(), cascade.into_iter().collect());
        debug_assert_eq!(answer, self.scan_compensation_gate(gid));
        answer
    }

    /// Scan oracle for [`compensation_gate`](Self::compensation_gate).
    pub fn scan_compensation_gate(&self, gid: GlobalActivityId) -> CompletionGate {
        let oracle = self.spec.oracle();
        let Some(pos) = self.ops.iter().position(|r| r.gid == gid && !r.compensated) else {
            return CompletionGate::Ready;
        };
        let service = self.ops[pos].service;
        let mut wait = Vec::new();
        let mut cascade = Vec::new();
        for r in &self.ops[pos + 1..] {
            if r.gid.process == gid.process
                || r.compensated
                || r.stable
                || !oracle.conflict(r.service, service)
            {
                continue;
            }
            match self.status(r.gid.process) {
                ProtStatus::Active if self.aborting.contains(&r.gid.process) => {
                    wait.push(r.gid.process)
                }
                ProtStatus::Active => cascade.push(r.gid.process),
                _ => {}
            }
        }
        Self::gate(wait, cascade)
    }

    /// Gate for executing a forward-recovery activity of aborting process
    /// `pid` invoking `service` (Lemma 3 and §3.5's new-conflict hazard):
    /// conflicting live non-stable operations of other processes must be
    /// compensated first.
    pub fn forward_gate(&self, pid: ProcessId, service: ServiceId) -> CompletionGate {
        let base = self.spec.catalog.base(service);
        let mut wait: BTreeSet<ProcessId> = BTreeSet::new();
        let mut cascade: BTreeSet<ProcessId> = BTreeSet::new();
        for &s in self.conflict_row(base) {
            let Some(bucket) = self.buckets.get(&s) else {
                continue;
            };
            for &p in bucket.nonstable.keys() {
                if p == pid {
                    continue;
                }
                match self.status(p) {
                    ProtStatus::Active if self.aborting.contains(&p) => {
                        wait.insert(p);
                    }
                    ProtStatus::Active => {
                        cascade.insert(p);
                    }
                    _ => {}
                }
            }
        }
        let answer = Self::gate(wait.into_iter().collect(), cascade.into_iter().collect());
        debug_assert_eq!(answer, self.scan_forward_gate(pid, service));
        answer
    }

    /// Scan oracle for [`forward_gate`](Self::forward_gate).
    pub fn scan_forward_gate(&self, pid: ProcessId, service: ServiceId) -> CompletionGate {
        let oracle = self.spec.oracle();
        let base = self.spec.catalog.base(service);
        let mut wait = Vec::new();
        let mut cascade = Vec::new();
        for r in &self.ops {
            if r.gid.process == pid
                || r.compensated
                || r.stable
                || !oracle.conflict(r.service, base)
            {
                continue;
            }
            match self.status(r.gid.process) {
                ProtStatus::Active if self.aborting.contains(&r.gid.process) => {
                    wait.push(r.gid.process)
                }
                ProtStatus::Active => cascade.push(r.gid.process),
                _ => {}
            }
        }
        Self::gate(wait, cascade)
    }

    fn gate(mut wait: Vec<ProcessId>, mut cascade: Vec<ProcessId>) -> CompletionGate {
        if !cascade.is_empty() {
            cascade.sort();
            cascade.dedup();
            CompletionGate::Cascade(cascade)
        } else if !wait.is_empty() {
            wait.sort();
            wait.dedup();
            CompletionGate::WaitFor(wait)
        } else {
            CompletionGate::Ready
        }
    }

    /// Records the completion of a process abort.
    pub fn record_process_abort(
        &mut self,
        pid: ProcessId,
    ) -> Vec<(ProcessId, Vec<GlobalActivityId>)> {
        self.status.insert(pid, ProtStatus::Aborted);
        self.aborting.remove(&pid);
        // Whatever effects the completed abort left behind (pre-boundary
        // operations and forward-recovery activities) are final.
        if let Some(idxs) = self.ops_by_process.get(&pid) {
            for idx in idxs.clone() {
                if !self.ops[idx].compensated {
                    self.apply_record_flags(idx, false, true);
                }
            }
        }
        // Drop its unreleased deferred activities (they abort at prepare).
        if let Some(acts) = self.deferred.remove(&pid) {
            for gid in acts {
                let idx = self
                    .op_index
                    .get(&gid)
                    .and_then(|idxs| idxs.first())
                    .copied();
                if let Some(idx) = idx {
                    let stable = self.ops[idx].stable;
                    // Prepared-then-aborted: no effect.
                    self.apply_record_flags(idx, true, stable);
                }
            }
        }
        self.collect_releasable()
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
        let released = prot.record_process_commit(ProcessId(1));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].0, ProcessId(2));
        assert_eq!(released[0].1, vec![fx.a(2, 3)]);
        prot.record_deferred_released(fx.a(2, 3));
        assert!(prot.deferred_of(ProcessId(2)).is_empty());
        assert!(prot.can_commit(ProcessId(2)).is_ok());
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
