//! Incremental PRED certification (Definition 10, evaluated event by event).
//!
//! [`crate::pred::check_pred`] re-derives the completed schedule `S̃` and its
//! reduction for *every* prefix, which is `O(n³)` over a history of `n`
//! events. An online scheduler only ever extends the history by one event at
//! a time, so the certifier carries the whole derivation across events and
//! processes the *delta* of each one in place:
//!
//! * the per-process state machines advance by exactly one transition,
//! * the `≪̃`-predecessor closure of every already-recorded operation is
//!   final — a new operation of the original history is always a *sink*
//!   among the original operations (8.3a orders conflicting pairs by history
//!   position, per-process chains follow execution order), and its closure
//!   is assembled from per-service closure aggregates,
//! * permanence of an operation only flips when a process's pending
//!   completion changes; the 8.3(d)/(f) pair counters (`m2`) follow by
//!   flip-diff against the operation's conflict buckets,
//! * the **reduction itself is persistent**: the set of original operations
//!   the compensation rule cancelled and the rule-3-live pair counters net
//!   of them (with the process graph they induce) are certifier state. A new
//!   forward operation cannot change the fate of any original pair; a new
//!   compensation adds one pair and a worklist cascade from it; a commit
//!   revives that process's effect-free operations and re-examines only the
//!   pairs those operations sit between.
//!
//! Only the *completion overlay* — the operations Definition 8 appends for
//! the still-active processes — is rebuilt per event, from cached
//! [`crate::state::Completion`]s, layered on top of the persistent reduction
//! and undone after the verdict.
//!
//! Every mutation logs its inverse ([`Undo`]). A what-if ([`certify`]) or a
//! rejected candidate rolls the log back, so the state afterwards is the
//! state before; an admitted candidate ([`certify_keep`]) stays applied and
//! the matching [`record`] only drops the log.
//!
//! Per-event cost, `n` recorded operations, `w = ⌈n/64⌉` words, `d` the
//! conflict degree of the touched operation (operations in conflicting
//! service buckets), `k` overlay operations, `p` processes with operations,
//! `c` compensation pairs. Before this state was persistent every step below
//! also paid a clone of the state it touches, and the last two were
//! re-derived from the whole history:
//!
//! | step | was, per event | is, per event |
//! |------|----------------|---------------|
//! | state machines, completion caches | `O(|process|)` | same |
//! | closure row of the new operation | `O(services · w)` + oracle per service | `O(conflicting services · w)` |
//! | permanence flips, `m2` | `O(flips · d)` + `O(n + p²)` clone | `O(flips · d)` |
//! | mandatory ranks 8.3(d)/(f) | `O(p² + k·d)` always | only when two overlay forward operations of different processes conflict |
//! | overlay order and closure rows | `O(k² + k · services · w)` | `O(k² + k · conflicting services · w)` |
//! | cancellation fixpoint | `O(rounds · (c + k) · d)` over all pairs | `O(d)` per new pair, `O(c)` per cancelled operation, `O(rounds · k · d)` for the overlay |
//! | live pair counters and process graph | `O(n · d + p²)` rebuild + Kahn | `O(d)` per operation that changes liveness; Kahn `O(p · ⌈p/64⌉)` only when an edge appears |
//!
//! [`certify`]: IncrementalPred::certify
//! [`certify_keep`]: IncrementalPred::certify_keep
//! [`record`]: IncrementalPred::record
//!
//! The certifier is **bit-for-bit compatible** with the batch pipeline
//! (`complete` + `reduce` per prefix): `check_pred_incremental` returns a
//! [`PredReport`] equal to [`crate::pred::check_pred`]'s, and the
//! differential property tests in `tests/properties.rs` drive both — plus
//! [`crate::reduction::reduce_exhaustive`] on small inputs — over random
//! histories. The batch decider remains the reference implementation.

use crate::error::ScheduleError;
use crate::ids::{GlobalActivityId, ProcessId, ServiceId};
use crate::pred::PredReport;
use crate::schedule::{Event, OpKind, Schedule};
use crate::spec::Spec;
use crate::state::{Completion, FailureOutcome, ProcessState};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

fn words_for(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

fn bit_get(row: &[u64], i: usize) -> bool {
    row.get(i / 64).is_some_and(|w| w & (1u64 << (i % 64)) != 0)
}

fn bit_set(row: &mut Vec<u64>, i: usize) {
    if row.len() <= i / 64 {
        row.resize(i / 64 + 1, 0);
    }
    row[i / 64] |= 1u64 << (i % 64);
}

fn or_into(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d |= *s;
    }
}

/// Dense process graph over node indices `0..n`; an edge is one bit.
/// The Kahn traversal reproduces
/// [`crate::serializability::ProcessGraph::topological_order`] exactly when
/// the indices are assigned in ascending pid order — FIFO queue seeded in
/// ascending order, successors visited in ascending order — because the
/// 8.3(d)/(f) ranks feed order-sensitive tie-breaks downstream.
#[derive(Debug, Clone)]
struct DenseGraph {
    n: usize,
    /// Words per adjacency row (`words * 64 >= n`).
    words: usize,
    /// Row-major adjacency bitmap (`n × words`).
    adj: Vec<u64>,
    indeg: Vec<u32>,
}

impl DenseGraph {
    fn new(n: usize) -> Self {
        let words = words_for(n);
        DenseGraph {
            n,
            words,
            adj: vec![0u64; n * words],
            indeg: vec![0u32; n],
        }
    }

    /// Appends an isolated node (row re-layout once per 64 nodes).
    fn push_node(&mut self) {
        if self.n == self.words * 64 {
            let words = self.words + 1;
            let mut adj = vec![0u64; self.n * words];
            for (new, old) in adj
                .chunks_exact_mut(words)
                .zip(self.adj.chunks_exact(self.words))
            {
                new[..self.words].copy_from_slice(old);
            }
            self.adj = adj;
            self.words = words;
        }
        self.n += 1;
        self.adj.resize(self.n * self.words, 0);
        self.indeg.push(0);
    }

    /// Removes the last node, which must be isolated.
    fn pop_node(&mut self) {
        self.n -= 1;
        self.adj.truncate(self.n * self.words);
        let indeg = self.indeg.pop();
        debug_assert_eq!(indeg, Some(0), "popped node must be isolated");
    }

    /// Adds an edge; `false` if it is a self-loop or already present.
    fn add_edge(&mut self, a: usize, b: usize) -> bool {
        let w = &mut self.adj[a * self.words + b / 64];
        let bit = 1u64 << (b % 64);
        if a == b || *w & bit != 0 {
            return false;
        }
        *w |= bit;
        self.indeg[b] += 1;
        true
    }

    /// Removes an edge that is present.
    fn remove_edge(&mut self, a: usize, b: usize) {
        let w = &mut self.adj[a * self.words + b / 64];
        debug_assert!(*w & (1u64 << (b % 64)) != 0, "edge must be present");
        *w &= !(1u64 << (b % 64));
        self.indeg[b] -= 1;
    }

    /// Topological order of the node indices (FIFO Kahn in ascending
    /// order), or `None` if cyclic.
    fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indeg = self.indeg.clone();
        let mut queue: VecDeque<usize> = (0..self.n).filter(|&i| indeg[i] == 0).collect();
        let mut out = Vec::with_capacity(self.n);
        while let Some(i) = queue.pop_front() {
            out.push(i);
            let row = &self.adj[i * self.words..(i + 1) * self.words];
            for (wi, &w) in row.iter().enumerate() {
                let mut bits = w;
                while bits != 0 {
                    let j = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    indeg[j] -= 1;
                    if indeg[j] == 0 {
                        queue.push_back(j);
                    }
                }
            }
        }
        (out.len() == self.n).then_some(out)
    }
}

/// Cross-process pair counters, keyed by the *dense process index*
/// assigned to each process when its first operation is recorded
/// ([`OrigOp::pidx`]). The entry for `(a, b)` counts pairs whose earlier
/// operation belongs to dense process `a` and later to `b`. Entries are laid
/// out in shells — process `m` owns the `2m + 1` entries pairing it with
/// itself and every earlier process — so a new process appends its shell and
/// nothing moves.
#[derive(Debug, Clone, Default)]
struct PairCounts {
    counts: Vec<u32>,
}

impl PairCounts {
    fn slot(a: usize, b: usize) -> usize {
        if a >= b {
            a * a + b
        } else {
            b * b + b + 1 + a
        }
    }

    /// Sizes the matrix for exactly `np` processes; the shells dropped must
    /// be zero.
    fn resize(&mut self, np: usize) {
        self.counts.resize(np * np, 0);
    }

    fn get(&self, a: usize, b: usize) -> u32 {
        self.counts[Self::slot(a, b)]
    }

    /// Adds or removes one pair; `true` when the entry crossed zero.
    #[inline]
    fn bump(&mut self, a: u32, b: u32, up: bool) -> bool {
        let e = &mut self.counts[Self::slot(a as usize, b as usize)];
        if up {
            *e += 1;
            *e == 1
        } else {
            debug_assert!(*e > 0, "pair count underflow");
            *e -= 1;
            *e == 0
        }
    }

    /// Dense-index pairs with a non-zero count.
    fn nonzero(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let np = self.counts.len().isqrt();
        (0..np)
            .flat_map(move |a| (0..np).map(move |b| (a, b)))
            .filter(|&(a, b)| self.get(a, b) > 0)
    }
}

/// The reduced history's serialization state: conflicting cross-process
/// pairs of original operations that are both rule-3 live and not
/// cancelled, and the process graph those pairs induce (an edge per
/// non-zero entry, over dense process indices).
#[derive(Debug, Clone)]
struct LiveGraph {
    counts: PairCounts,
    graph: DenseGraph,
    /// Memo of `graph`'s acyclicity; dropped when an edge appears (a
    /// removed edge cannot close a cycle).
    acyclic: Option<bool>,
}

impl LiveGraph {
    fn bump(&mut self, a: u32, b: u32, up: bool) {
        if !self.counts.bump(a, b, up) {
            return;
        }
        if up {
            self.graph.add_edge(a as usize, b as usize);
            self.acyclic = None;
        } else {
            self.graph.remove_edge(a as usize, b as usize);
            if self.acyclic != Some(true) {
                self.acyclic = None;
            }
        }
    }

    /// Whether the graph plus the `extra` (overlay) edges is acyclic. The
    /// graph is re-checked only when an entry crossed zero since the last
    /// check or the overlay contributes an edge.
    fn is_acyclic_with(&mut self, extra: &[(u32, u32)]) -> bool {
        let added: Vec<(u32, u32)> = extra
            .iter()
            .copied()
            .filter(|&(a, b)| self.graph.add_edge(a as usize, b as usize))
            .collect();
        if added.is_empty() {
            return *self
                .acyclic
                .get_or_insert_with(|| self.graph.topological_order().is_some());
        }
        let acyclic = self.graph.topological_order().is_some();
        for (a, b) in added {
            self.graph.remove_edge(a as usize, b as usize);
        }
        acyclic
    }
}

/// One operation of the recorded (original) history.
#[derive(Debug, Clone, Copy)]
struct OrigOp {
    gid: GlobalActivityId,
    /// Base service, and its index in [`IncrementalPred::svcs`].
    service: ServiceId,
    sidx: u32,
    kind: OpKind,
    /// Dense index of `gid.process` (see [`PairCounts`]).
    pidx: u32,
}

/// A base service some operation (recorded or overlay) invoked.
#[derive(Debug, Clone)]
struct Service {
    id: ServiceId,
    /// Recorded operations of this service, ascending.
    bucket: Vec<usize>,
    /// Union of `rows[i] | {i}` over `bucket` (closure aggregate for
    /// `O(words)` row assembly).
    agg: Vec<u64>,
    /// Indices of the known services this one conflicts with, asked of the
    /// oracle once when the service is first seen.
    conflicts: Vec<u32>,
}

/// A completion-overlay operation (rebuilt per event from cached
/// completions; cheap because the overlay only covers active processes).
#[derive(Debug, Clone, Copy)]
struct Cop {
    gid: GlobalActivityId,
    service: ServiceId,
    sidx: u32,
    kind: OpKind,
    pid: ProcessId,
    pidx: u32,
    eff_free: bool,
}

/// The inverse of one in-place mutation. Rolling the log back in reverse
/// order restores the certifier exactly.
#[derive(Debug, Clone, Copy)]
enum Undo {
    Committed(ProcessId),
    Compensated(GlobalActivityId),
    PermFlip(usize),
    /// An `m2` bump to invert.
    Mandatory(u32, u32, bool),
    /// A [`LiveGraph`] bump to invert.
    Live(u32, u32, bool),
    Revived(usize),
    CancelFlip(usize),
    Pair,
    AggWord(u32, usize, u64),
    AggLen(u32, usize),
    Op,
    Process,
    Service,
}

#[derive(Clone, Default)]
struct UndoLog<'a> {
    ops: Vec<Undo>,
    states: Vec<(ProcessId, Option<ProcessState<'a>>)>,
    completions: Vec<(ProcessId, Option<Completion>)>,
}

/// Verdict for one planned or recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepVerdict {
    /// Length of the prefix the verdict covers (events, including this one).
    pub prefix_len: usize,
    /// Whether the extended prefix is reducible.
    pub reducible: bool,
}

/// Incremental PRED certifier: answers "is this extended prefix still
/// reducible?" per appended event, maintaining the serialization/weak-order
/// closure, compensation-pair state, the reduction and completion
/// obligations across events.
#[derive(Clone)]
pub struct IncrementalPred<'a> {
    spec: &'a Spec,
    len: usize,
    states: BTreeMap<ProcessId, ProcessState<'a>>,
    committed: BTreeSet<ProcessId>,
    // -- original operations and their ≪̃ closure --
    ops: Vec<OrigOp>,
    rows: Vec<Vec<u64>>,
    svc_idx: BTreeMap<ServiceId, u32>,
    svcs: Vec<Service>,
    /// Dense index of every process with at least one operation, in
    /// first-operation order (index ↔ [`OrigOp::pidx`]), and its operations.
    dense_pids: Vec<ProcessId>,
    pid_dense: BTreeMap<ProcessId, u32>,
    proc_ops: Vec<Vec<usize>>,
    fwd_of: BTreeMap<GlobalActivityId, usize>,
    comp_gids: BTreeSet<GlobalActivityId>,
    /// Recorded compensation pairs `(forward, compensation)`.
    pairs: Vec<(usize, usize)>,
    // -- permanence --
    /// Forward, not compensated, and not to be compensated by its
    /// process's pending completion (Definition 8).
    perm: Vec<bool>,
    completion_cache: BTreeMap<ProcessId, Completion>,
    /// Permanent conflicting cross-process original pairs, keyed in history
    /// order (feeds the 8.3(d)/(f) mandatory-rank graph).
    m2: PairCounts,
    // -- the reduction of the original operations --
    /// Rule 3: not effect-free, or of a committed process.
    live_base: Vec<bool>,
    /// Removed by the compensation rule: the least fixpoint of "cancel a
    /// pair nothing live and conflicting sits between" over `pairs`.
    cancelled: Vec<bool>,
    live: LiveGraph,
    // -- report --
    prefix_reducible: Vec<bool>,
    first_violation: Option<usize>,
    /// Applied events in application order — the certifier's durable form
    /// (see [`Self::snapshot`]).
    events: Vec<Event>,
    /// Inverses of the mutations of the event in flight; empty between
    /// calls unless `kept` is set.
    log: UndoLog<'a>,
    /// The admitted event `certify_keep` left applied: the next `record` of
    /// the same event only drops the log; anything else rolls it back first.
    kept: Option<Event>,
}

/// Serializable image of an [`IncrementalPred`]: the applied event prefix.
///
/// The certifier is a pure fold over its event sequence, so its durable
/// form is the sequence itself and [`IncrementalPred::restore`] is a
/// replay — the same discipline the WAL uses for agents and history.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CertifierSnapshot {
    /// Events folded into the certifier, in application order.
    pub events: Vec<Event>,
}

/// The working copy of `pid`'s state machine for the event in flight.
fn touch<'a, 'b>(
    spec: &'a Spec,
    base: &BTreeMap<ProcessId, ProcessState<'a>>,
    touched: &'b mut Vec<(ProcessId, ProcessState<'a>)>,
    pid: ProcessId,
) -> Result<&'b mut ProcessState<'a>, ScheduleError> {
    if let Some(at) = touched.iter().position(|(p, _)| *p == pid) {
        return Ok(&mut touched[at].1);
    }
    let st = match base.get(&pid) {
        Some(st) => st.clone(),
        None => {
            let process = spec.process(pid)?;
            ProcessState::new(process, &spec.catalog).map_err(|_| {
                ScheduleError::Model(crate::error::ModelError::NotATree {
                    process: pid,
                    activity: crate::ids::ActivityId(0),
                })
            })?
        }
    };
    touched.push((pid, st));
    Ok(&mut touched.last_mut().expect("just pushed").1)
}

/// Every operation of another process that conflicts with operation `x`,
/// with the pair's dense process indices in history order.
fn partners<'s>(
    ops: &'s [OrigOp],
    svcs: &'s [Service],
    x: usize,
) -> impl Iterator<Item = (usize, u32, u32)> + 's {
    let px = ops[x].pidx;
    svcs[ops[x].sidx as usize]
        .conflicts
        .iter()
        .flat_map(move |&t| svcs[t as usize].bucket.iter().copied())
        .filter(move |&j| j != x && ops[j].pidx != px)
        .map(move |j| {
            let pj = ops[j].pidx;
            if x < j {
                (j, px, pj)
            } else {
                (j, pj, px)
            }
        })
}

impl<'a> IncrementalPred<'a> {
    /// Creates a certifier for the empty history (which is reducible).
    pub fn new(spec: &'a Spec) -> Self {
        IncrementalPred {
            spec,
            len: 0,
            states: BTreeMap::new(),
            committed: BTreeSet::new(),
            ops: Vec::new(),
            rows: Vec::new(),
            svc_idx: BTreeMap::new(),
            svcs: Vec::new(),
            dense_pids: Vec::new(),
            pid_dense: BTreeMap::new(),
            proc_ops: Vec::new(),
            fwd_of: BTreeMap::new(),
            comp_gids: BTreeSet::new(),
            pairs: Vec::new(),
            perm: Vec::new(),
            completion_cache: BTreeMap::new(),
            m2: PairCounts::default(),
            live_base: Vec::new(),
            cancelled: Vec::new(),
            live: LiveGraph {
                counts: PairCounts::default(),
                graph: DenseGraph::new(0),
                acyclic: Some(true),
            },
            prefix_reducible: vec![true],
            first_violation: None,
            events: Vec::new(),
            log: UndoLog::default(),
            kept: None,
        }
    }

    /// Captures the certification state as a serializable snapshot.
    pub fn snapshot(&self) -> CertifierSnapshot {
        CertifierSnapshot {
            events: self.events.clone(),
        }
    }

    /// Rebuilds a certifier from a snapshot by replaying its prefix. The
    /// result answers every query (`pred`, `report`, `certify`, …) exactly
    /// as the snapshotted instance did.
    pub fn restore(spec: &'a Spec, snapshot: &CertifierSnapshot) -> Result<Self, ScheduleError> {
        let mut inc = Self::new(spec);
        for event in &snapshot.events {
            inc.record(event)?;
        }
        Ok(inc)
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every recorded prefix was reducible.
    pub fn pred(&self) -> bool {
        self.first_violation.is_none()
    }

    /// The shortest non-reducible recorded prefix, if any.
    pub fn first_violation(&self) -> Option<usize> {
        self.first_violation
    }

    /// Reducibility per recorded prefix length `0..=len`.
    pub fn prefix_reducible(&self) -> &[bool] {
        &self.prefix_reducible
    }

    /// The report over the recorded history, equal to
    /// [`crate::pred::check_pred`] of the same event sequence.
    pub fn report(&self) -> PredReport {
        PredReport {
            pred: self.first_violation.is_none(),
            prefix_reducible: self.prefix_reducible.clone(),
            first_violation: self.first_violation,
        }
    }

    /// What-if: would the history extended by `event` still be reducible?
    /// Applies the event in place and rolls it back, so the certifier is
    /// left exactly as it was — also when the event is illegal.
    pub fn certify(&mut self, event: &Event) -> Result<StepVerdict, ScheduleError> {
        self.drop_kept();
        let reducible = self.step(event)?;
        self.rollback();
        Ok(StepVerdict {
            prefix_len: self.len + 1,
            reducible,
        })
    }

    /// Like [`Self::certify`], but an admitted (reducible) event stays
    /// applied: if the very next mutation records the same event, `record`
    /// only drops the undo log, so admitting an event costs one step
    /// instead of two. Any other call rolls the kept event back first, and
    /// a rejected or illegal event is rolled back at once, so decisions and
    /// every observable (`len`, `report`, …) are identical either way.
    pub fn certify_keep(&mut self, event: &Event) -> Result<StepVerdict, ScheduleError> {
        self.drop_kept();
        let reducible = self.step(event)?;
        if reducible {
            self.kept = Some(event.clone());
        } else {
            self.rollback();
        }
        Ok(StepVerdict {
            prefix_len: self.len + 1,
            reducible,
        })
    }

    /// Records `event` as appended to the history and returns the verdict
    /// for the extended prefix.
    pub fn record(&mut self, event: &Event) -> Result<StepVerdict, ScheduleError> {
        let reducible = if self.kept.as_ref() == Some(event) {
            self.kept = None;
            true
        } else {
            self.drop_kept();
            self.step(event)?
        };
        self.log.ops.clear();
        self.log.states.clear();
        self.log.completions.clear();
        self.len += 1;
        self.events.push(event.clone());
        self.prefix_reducible.push(reducible);
        if !reducible && self.first_violation.is_none() {
            self.first_violation = Some(self.len);
        }
        Ok(StepVerdict {
            prefix_len: self.len,
            reducible,
        })
    }

    fn drop_kept(&mut self) {
        if self.kept.take().is_some() {
            self.rollback();
        }
    }

    fn alive(&self, i: usize) -> bool {
        self.live_base[i] && !self.cancelled[i]
    }

    /// Neither compensated in the history nor by the pending completion of
    /// its process.
    fn uncompensated(&self, g: GlobalActivityId) -> bool {
        !self.comp_gids.contains(&g)
            && !self
                .completion_cache
                .get(&g.process)
                .is_some_and(|c| c.compensations.contains(&g.activity))
    }

    /// Applies `event` in place, logging inverses, and returns whether the
    /// extended prefix is reducible. Mirrors `complete` + `reduce` on the
    /// extended prefix. An illegal event fails before anything changed.
    fn step(&mut self, event: &Event) -> Result<bool, ScheduleError> {
        debug_assert!(self.log.ops.is_empty() && self.log.states.is_empty());
        let spec = self.spec;

        // 1. Advance the touched process state machines (on copies),
        //    mirroring `Schedule::replay` including its error behaviour.
        let mut touched: Vec<(ProcessId, ProcessState<'a>)> = Vec::new();
        let mut commit: Option<ProcessId> = None;
        let mut appended: Option<(GlobalActivityId, ServiceId, OpKind)> = None;
        match event {
            Event::Execute(g) => {
                let service = spec.catalog.base(spec.service_of(*g)?);
                touch(spec, &self.states, &mut touched, g.process)?.apply_commit(g.activity)?;
                appended = Some((*g, service, OpKind::Forward));
            }
            Event::Fail(g) => {
                spec.service_of(*g)?;
                let outcome = touch(spec, &self.states, &mut touched, g.process)?
                    .apply_failure(g.activity)?;
                if outcome == FailureOutcome::Stuck {
                    return Err(ScheduleError::NoAlternativeLeft(*g));
                }
            }
            Event::Compensate(g) => {
                let service = spec.catalog.base(spec.service_of(*g)?);
                touch(spec, &self.states, &mut touched, g.process)?
                    .apply_compensation(g.activity)?;
                appended = Some((*g, service, OpKind::Compensation));
            }
            Event::Commit(p) => {
                touch(spec, &self.states, &mut touched, *p)?.apply_process_commit()?;
                commit = Some(*p);
            }
            Event::Abort(p) => {
                touch(spec, &self.states, &mut touched, *p)?.apply_process_abort()?;
            }
            Event::GroupAbort(ps) => {
                for p in ps {
                    let st = touch(spec, &self.states, &mut touched, *p)?;
                    if st.is_active() {
                        st.apply_process_abort()?;
                    }
                }
            }
        }

        // 2. Fold the new states in, refresh their completion caches, and
        //    collect the activities whose will-compensate status changed.
        let mut changed: Vec<GlobalActivityId> = Vec::new();
        for (pid, st) in touched {
            let next = st.is_active().then(|| st.completion());
            let old_comps = self
                .completion_cache
                .get(&pid)
                .map_or(&[][..], |c| c.compensations.as_slice());
            let new_comps = next
                .as_ref()
                .map_or(&[][..], |c| c.compensations.as_slice());
            changed.extend(
                old_comps
                    .iter()
                    .filter(|a| !new_comps.contains(a))
                    .chain(new_comps.iter().filter(|a| !old_comps.contains(a)))
                    .map(|&a| GlobalActivityId::new(pid, a)),
            );
            let old = match next {
                Some(c) => self.completion_cache.insert(pid, c),
                None => self.completion_cache.remove(&pid),
            };
            self.log.completions.push((pid, old));
            let old = self.states.insert(pid, st);
            self.log.states.push((pid, old));
        }
        if let Some(p) = commit {
            self.committed.insert(p);
            self.log.ops.push(Undo::Committed(p));
        }
        if let Some((g, _, OpKind::Compensation)) = appended {
            self.comp_gids.insert(g);
            self.log.ops.push(Undo::Compensated(g));
            changed.push(g);
        }

        // 3. Permanence flips and the mandatory-pair counters (m2).
        for g in changed {
            let Some(&i) = self.fwd_of.get(&g) else {
                continue;
            };
            let target = self.uncompensated(g);
            if target != self.perm[i] {
                self.count_mandatory(i, target);
                self.perm[i] = target;
                self.log.ops.push(Undo::PermFlip(i));
            }
        }

        // 4. The reduction of the originals: rule-3 revivals of a commit,
        //    or the appended operation and the pair it may close.
        if let Some(p) = commit {
            self.revive_effect_free(p);
        }
        if let Some((gid, service, kind)) = appended {
            self.push_op(gid, service, kind);
        }

        // 5. The completion overlay on top, undone after the verdict.
        let mark = self.log.ops.len();
        let reducible = self.overlay_verdict();
        self.rollback_ops(mark);
        Ok(reducible)
    }

    /// Index of `service` in `svcs`, asking the oracle for its conflicts
    /// with the known services the first time it is seen.
    fn intern(&mut self, service: ServiceId) -> u32 {
        if let Some(&s) = self.svc_idx.get(&service) {
            return s;
        }
        let oracle = self.spec.oracle();
        let k = self.svcs.len() as u32;
        let mut conflicts = Vec::new();
        for (t, other) in self.svcs.iter_mut().enumerate() {
            if oracle.conflict(service, other.id) {
                other.conflicts.push(k);
                conflicts.push(t as u32);
            }
        }
        if oracle.conflict(service, service) {
            conflicts.push(k);
        }
        self.svcs.push(Service {
            id: service,
            bucket: Vec::new(),
            agg: Vec::new(),
            conflicts,
        });
        self.svc_idx.insert(service, k);
        self.log.ops.push(Undo::Service);
        k
    }

    /// Adds (`up`) or removes the permanent pairs operation `x` forms.
    fn count_mandatory(&mut self, x: usize, up: bool) {
        for (j, a, b) in partners(&self.ops, &self.svcs, x) {
            if self.perm[j] {
                self.m2.bump(a, b, up);
                self.log.ops.push(Undo::Mandatory(a, b, up));
            }
        }
    }

    /// Adds (`up`) or removes the live pairs operation `x` forms.
    fn count_live(&mut self, x: usize, up: bool) {
        for (j, a, b) in partners(&self.ops, &self.svcs, x) {
            if self.live_base[j] && !self.cancelled[j] {
                self.live.bump(a, b, up);
                self.log.ops.push(Undo::Live(a, b, up));
            }
        }
    }

    fn set_cancelled(&mut self, x: usize, cancelled: bool) {
        debug_assert!(self.live_base[x] && self.cancelled[x] != cancelled);
        self.cancelled[x] = cancelled;
        self.log.ops.push(Undo::CancelFlip(x));
        self.count_live(x, !cancelled);
    }

    /// Appends an operation of the original history: closure row (chain
    /// predecessor plus the aggregates of every conflicting service, 8.3a;
    /// same-process aggregate members are chain predecessors anyway), the
    /// pairs it forms, and — for a compensation — the pair it closes.
    fn push_op(&mut self, gid: GlobalActivityId, service: ServiceId, kind: OpKind) {
        let sidx = self.intern(service);
        let pidx = match self.pid_dense.get(&gid.process) {
            Some(&p) => p,
            None => {
                let p = self.dense_pids.len() as u32;
                self.dense_pids.push(gid.process);
                self.pid_dense.insert(gid.process, p);
                self.proc_ops.push(Vec::new());
                self.m2.resize(p as usize + 1);
                self.live.counts.resize(p as usize + 1);
                self.live.graph.push_node();
                self.log.ops.push(Undo::Process);
                p
            }
        };
        let idx = self.ops.len();
        let mut row = vec![0u64; words_for(idx)];
        if let Some(&prev) = self.proc_ops[pidx as usize].last() {
            or_into(&mut row, &self.rows[prev]);
            bit_set(&mut row, prev);
        }
        for &t in &self.svcs[sidx as usize].conflicts {
            or_into(&mut row, &self.svcs[t as usize].agg);
        }
        let agg = &mut self.svcs[sidx as usize].agg;
        self.log.ops.push(Undo::AggLen(sidx, agg.len()));
        agg.resize(words_for(idx + 1).max(agg.len()), 0);
        for (w, (word, new)) in agg.iter_mut().zip(&row).enumerate() {
            if *word | *new != *word {
                self.log.ops.push(Undo::AggWord(sidx, w, *word));
                *word |= *new;
            }
        }
        self.log
            .ops
            .push(Undo::AggWord(sidx, idx / 64, agg[idx / 64]));
        agg[idx / 64] |= 1u64 << (idx % 64);

        let eff_free = self.spec.catalog.is_effect_free(service);
        let perm = kind == OpKind::Forward && self.uncompensated(gid);
        let live = !eff_free || self.committed.contains(&gid.process);
        self.svcs[sidx as usize].bucket.push(idx);
        self.proc_ops[pidx as usize].push(idx);
        self.rows.push(row);
        self.perm.push(perm);
        self.live_base.push(live);
        self.cancelled.push(false);
        self.ops.push(OrigOp {
            gid,
            service,
            sidx,
            kind,
            pidx,
        });
        self.log.ops.push(Undo::Op);
        if perm {
            self.count_mandatory(idx, true);
        }
        if live {
            self.count_live(idx, true);
        }
        match kind {
            OpKind::Forward => {
                self.fwd_of.insert(gid, idx);
            }
            OpKind::Compensation => {
                if let Some(&f) = self.fwd_of.get(&gid) {
                    self.pairs.push((f, idx));
                    self.log.ops.push(Undo::Pair);
                    self.try_cancel(f, idx);
                }
            }
        }
    }

    /// Whether operation `x` sits between the pair `(f, c)` and conflicts
    /// with it — i.e. blocks the compensation rule while it is live.
    fn between(&self, f: usize, x: usize, c: usize) -> bool {
        bit_get(&self.rows[x], f)
            && bit_get(&self.rows[c], x)
            && self
                .spec
                .oracle()
                .conflict(self.ops[f].service, self.ops[x].service)
    }

    /// Whether a live original operation conflicting with `f` sits between
    /// `f` and the operation whose closure row is `upper` — i.e. blocks the
    /// compensation rule for that pair.
    fn blocked(&self, f: usize, upper: &[u64]) -> bool {
        self.svcs[self.ops[f].sidx as usize]
            .conflicts
            .iter()
            .flat_map(|&t| &self.svcs[t as usize].bucket)
            .any(|&k| self.alive(k) && bit_get(&self.rows[k], f) && bit_get(upper, k))
    }

    /// Cancels the recorded pair `(f, c)` if both are live and nothing
    /// blocks it, and follows the cascade.
    fn try_cancel(&mut self, f: usize, c: usize) {
        if self.alive(f) && self.alive(c) && !self.blocked(f, &self.rows[c]) {
            self.cancel(vec![f, c]);
        }
    }

    /// Cancels the operations in `dead`, and every recorded pair that
    /// unblocks in turn: a pair can only unblock when an operation between
    /// its two halves dies, so only those pairs are re-examined. (Two
    /// partially overlapping conflicting pairs block each other for good,
    /// and a nested pair is decided before the pair around it is recorded;
    /// the cascade matters when a commit revives a nested pair later.)
    fn cancel(&mut self, mut dead: Vec<usize>) {
        while let Some(x) = dead.pop() {
            if !self.alive(x) {
                continue;
            }
            self.set_cancelled(x, true);
            for &(f, c) in &self.pairs {
                if self.alive(f)
                    && self.alive(c)
                    && self.between(f, x, c)
                    && !self.blocked(f, &self.rows[c])
                {
                    dead.extend([f, c]);
                }
            }
        }
    }

    /// Rule 3 after `Commit(p)`: the effect-free operations of `p` become
    /// live. A revived operation blocks every cancelled pair it sits
    /// between; un-cancelling such a pair revives its two halves, which may
    /// block further pairs. Everything un-cancelled, and every pair a
    /// revived operation belongs to, is then re-examined — the least
    /// fixpoint under the larger live set lies between the two.
    fn revive_effect_free(&mut self, p: ProcessId) {
        let Some(&px) = self.pid_dense.get(&p) else {
            return;
        };
        let flipped: Vec<usize> = self.proc_ops[px as usize]
            .iter()
            .copied()
            .filter(|&i| !self.live_base[i])
            .collect();
        for &i in &flipped {
            self.live_base[i] = true;
            self.log.ops.push(Undo::Revived(i));
            self.count_live(i, true);
        }
        let mut revived = flipped.clone();
        let mut suspects: Vec<(usize, usize)> = Vec::new();
        while let Some(x) = revived.pop() {
            for at in 0..self.pairs.len() {
                let (f, c) = self.pairs[at];
                if self.cancelled[f] && self.cancelled[c] && self.between(f, x, c) {
                    self.set_cancelled(f, false);
                    self.set_cancelled(c, false);
                    revived.extend([f, c]);
                    suspects.push((f, c));
                }
            }
        }
        suspects.extend(
            self.pairs
                .iter()
                .filter(|(f, c)| flipped.contains(f) || flipped.contains(c))
                .copied(),
        );
        for (f, c) in suspects {
            self.try_cancel(f, c);
        }
    }

    /// The completion overlay, in the same order `complete` appends:
    /// processes ascending, compensations before forward recovery.
    fn overlay_ops(&mut self) -> Vec<Cop> {
        let spec = self.spec;
        let mut cops: Vec<Cop> = Vec::new();
        for (&pid, completion) in &self.completion_cache {
            if completion.is_empty() {
                continue;
            }
            let process = spec.process(pid).expect("process of a recorded state");
            let pidx = *self
                .pid_dense
                .get(&pid)
                .expect("a process with pending completion has recorded operations");
            for (&a, kind) in completion
                .compensations
                .iter()
                .map(|a| (a, OpKind::Compensation))
                .chain(completion.forward.iter().map(|a| (a, OpKind::Forward)))
            {
                let service = spec.catalog.base(process.service(a));
                cops.push(Cop {
                    gid: GlobalActivityId::new(pid, a),
                    service,
                    sidx: 0,
                    kind,
                    pid,
                    pidx,
                    eff_free: spec.catalog.is_effect_free(service),
                });
            }
        }
        for c in &mut cops {
            c.sidx = self.intern(c.service);
        }
        cops
    }

    /// Mandatory ranks (8.3d/8.3f) per dense process index: permanent
    /// original pairs (m2) plus the forced 8.3e edges into permanent
    /// completion activities, in `ProcessGraph::topological_order`'s order.
    /// Relative order is all the tie-break consumes.
    fn mandatory_ranks(&self, cops: &[Cop]) -> Vec<usize> {
        let np = self.dense_pids.len();
        let mut by_pid: Vec<usize> = (0..np).collect();
        by_pid.sort_unstable_by_key(|&px| self.dense_pids[px]);
        let mut node_of = vec![0usize; np];
        for (node, &px) in by_pid.iter().enumerate() {
            node_of[px] = node;
        }
        let mut rg = DenseGraph::new(np);
        for (a, b) in self.m2.nonzero() {
            rg.add_edge(node_of[a], node_of[b]);
        }
        for c in cops
            .iter()
            .filter(|c| c.kind == OpKind::Forward && self.uncompensated(c.gid))
        {
            for &t in &self.svcs[c.sidx as usize].conflicts {
                for &i in &self.svcs[t as usize].bucket {
                    if self.perm[i] && self.ops[i].pidx != c.pidx {
                        rg.add_edge(node_of[self.ops[i].pidx as usize], node_of[c.pidx as usize]);
                    }
                }
            }
        }
        let mut rank_of_node: Vec<usize> = (0..np).collect();
        if let Some(order) = rg.topological_order() {
            for (rank, node) in order.into_iter().enumerate() {
                rank_of_node[node] = rank;
            }
        }
        node_of.into_iter().map(|node| rank_of_node[node]).collect()
    }

    /// Order edges among the overlay operations (8.3b/c chains plus the
    /// 8.3d/f + Lemma 2/3 arms; overlay order equals the batch completion
    /// order, so local index order matches global order). The mandatory
    /// ranks are derived only if two forward operations of different
    /// processes conflict.
    fn overlay_edges(&self, cops: &[Cop]) -> Vec<(usize, usize)> {
        let oracle = self.spec.oracle();
        let mut ranks: Option<Vec<usize>> = None;
        let mut cedges: Vec<(usize, usize)> = Vec::new();
        for i in 0..cops.len() {
            if i > 0 && cops[i].pid == cops[i - 1].pid {
                cedges.push((i - 1, i));
            }
            for j in (i + 1)..cops.len() {
                let (x, y) = (&cops[i], &cops[j]);
                if x.pid == y.pid || !oracle.conflict(x.service, y.service) {
                    continue;
                }
                cedges.push(match (x.kind, y.kind) {
                    (OpKind::Compensation, OpKind::Forward) => (i, j),
                    (OpKind::Forward, OpKind::Compensation) => (j, i),
                    (OpKind::Compensation, OpKind::Compensation) => {
                        match (self.fwd_of.get(&x.gid), self.fwd_of.get(&y.gid)) {
                            (Some(bx), Some(by)) if bx < by => (j, i),
                            _ => (i, j),
                        }
                    }
                    (OpKind::Forward, OpKind::Forward) => {
                        let ranks = ranks.get_or_insert_with(|| self.mandatory_ranks(cops));
                        let rx = ranks[x.pidx as usize];
                        let ry = ranks[y.pidx as usize];
                        if (rx, x.pid) <= (ry, y.pid) {
                            (i, j)
                        } else {
                            (j, i)
                        }
                    }
                });
            }
        }
        cedges
    }

    /// Closure rows of the overlay over originals and overlay, computed in
    /// topological order of `cedges`: `cn` rows of the returned width.
    fn overlay_rows(&self, cops: &[Cop], cedges: &[(usize, usize)]) -> (usize, Vec<u64>) {
        let (n, cn) = (self.ops.len(), cops.len());
        let mut indeg = vec![0usize; cn];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); cn];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); cn];
        for &(a, b) in cedges {
            indeg[b] += 1;
            succ[a].push(b);
            preds[b].push(a);
        }
        let mut queue: VecDeque<usize> = (0..cn).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(cn);
        while let Some(i) = queue.pop_front() {
            topo.push(i);
            for &j in &succ[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push_back(j);
                }
            }
        }
        assert_eq!(topo.len(), cn, "≪̃ construction must stay acyclic");
        let width = words_for(n + cn);
        let mut crows = vec![0u64; cn * width];
        let mut row: Vec<u64> = Vec::with_capacity(width);
        for ci in topo {
            let c = &cops[ci];
            row.clear();
            row.resize(width, 0);
            if ci == 0 || cops[ci - 1].pid != c.pid {
                if let Some(&last) = self.proc_ops[c.pidx as usize].last() {
                    or_into(&mut row, &self.rows[last]);
                    bit_set(&mut row, last);
                }
            }
            for &t in &self.svcs[c.sidx as usize].conflicts {
                or_into(&mut row, &self.svcs[t as usize].agg);
            }
            for &a in &preds[ci] {
                or_into(&mut row, &crows[a * width..(a + 1) * width]);
                bit_set(&mut row, n + a);
            }
            crows[ci * width..(ci + 1) * width].copy_from_slice(&row);
        }
        (width, crows)
    }

    /// Reducibility of the completed schedule: layers the completion
    /// overlay on the persistent reduction — its compensation pairs may
    /// cancel further originals — and checks the process graph of what
    /// remains. Leaves overlay cancellations in the log for the caller to
    /// roll back.
    fn overlay_verdict(&mut self) -> bool {
        let cops = self.overlay_ops();
        if cops.is_empty() {
            return self.live.is_acyclic_with(&[]);
        }
        let oracle = self.spec.oracle();
        let n = self.ops.len();
        let cedges = self.overlay_edges(&cops);
        let (width, crows) = self.overlay_rows(&cops, &cedges);
        let crow = |ci: usize| &crows[ci * width..(ci + 1) * width];

        // Rule 3, then the compensation rule to its fixpoint: an overlay
        // pair is blocked by live originals or live overlay operations
        // between its halves; cancelling its original half cascades through
        // the recorded pairs.
        let mut live_cop: Vec<bool> = cops
            .iter()
            .map(|c| !c.eff_free || self.committed.contains(&c.pid))
            .collect();
        let pairs: Vec<(usize, usize)> = cops
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == OpKind::Compensation)
            .filter_map(|(ci, c)| self.fwd_of.get(&c.gid).map(|&f| (f, ci)))
            .collect();
        loop {
            let mut changed = false;
            for &(f, ci) in &pairs {
                if !self.alive(f) || !live_cop[ci] {
                    continue;
                }
                let blocked = self.blocked(f, crow(ci))
                    || cops.iter().enumerate().any(|(cj, d)| {
                        cj != ci
                            && live_cop[cj]
                            && bit_get(crow(cj), f)
                            && bit_get(crow(ci), n + cj)
                            && oracle.conflict(self.ops[f].service, d.service)
                    });
                if !blocked {
                    live_cop[ci] = false;
                    self.cancel(vec![f]);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Serializability of the remainder: the live original pairs plus
        // the edges into and among the live overlay operations.
        let mut extra: Vec<(u32, u32)> = Vec::new();
        for (c, _) in cops.iter().zip(&live_cop).filter(|(_, &live)| live) {
            for &t in &self.svcs[c.sidx as usize].conflicts {
                for &i in &self.svcs[t as usize].bucket {
                    if self.alive(i) && self.ops[i].pidx != c.pidx {
                        extra.push((self.ops[i].pidx, c.pidx));
                    }
                }
            }
        }
        for &(a, b) in &cedges {
            if cops[a].pidx != cops[b].pidx && live_cop[a] && live_cop[b] {
                extra.push((cops[a].pidx, cops[b].pidx));
            }
        }
        self.live.is_acyclic_with(&extra)
    }

    /// Undoes the logged operation-level mutations back to `mark`.
    fn rollback_ops(&mut self, mark: usize) {
        while self.log.ops.len() > mark {
            match self.log.ops.pop().expect("length checked") {
                Undo::Committed(p) => {
                    self.committed.remove(&p);
                }
                Undo::Compensated(g) => {
                    self.comp_gids.remove(&g);
                }
                Undo::PermFlip(i) => self.perm[i] = !self.perm[i],
                Undo::Mandatory(a, b, up) => {
                    self.m2.bump(a, b, !up);
                }
                Undo::Live(a, b, up) => self.live.bump(a, b, !up),
                Undo::Revived(i) => self.live_base[i] = false,
                Undo::CancelFlip(i) => self.cancelled[i] = !self.cancelled[i],
                Undo::Pair => {
                    self.pairs.pop();
                }
                Undo::AggWord(s, w, old) => self.svcs[s as usize].agg[w] = old,
                Undo::AggLen(s, len) => self.svcs[s as usize].agg.truncate(len),
                Undo::Op => {
                    let o = self.ops.pop().expect("logged operation");
                    self.rows.pop();
                    self.perm.pop();
                    self.live_base.pop();
                    self.cancelled.pop();
                    self.svcs[o.sidx as usize].bucket.pop();
                    self.proc_ops[o.pidx as usize].pop();
                    if o.kind == OpKind::Forward {
                        self.fwd_of.remove(&o.gid);
                    }
                }
                Undo::Process => {
                    let pid = self.dense_pids.pop().expect("logged process");
                    self.pid_dense.remove(&pid);
                    self.proc_ops.pop();
                    self.m2.resize(self.proc_ops.len());
                    self.live.counts.resize(self.proc_ops.len());
                    self.live.graph.pop_node();
                }
                Undo::Service => {
                    let s = self.svcs.pop().expect("logged service");
                    self.svc_idx.remove(&s.id);
                    let k = self.svcs.len() as u32;
                    for &t in s.conflicts.iter().filter(|&&t| t != k) {
                        self.svcs[t as usize].conflicts.pop();
                    }
                }
            }
        }
    }

    /// Undoes the event in flight: the certifier is as before `step`.
    fn rollback(&mut self) {
        self.rollback_ops(0);
        for (pid, old) in self.log.completions.drain(..).rev() {
            match old {
                Some(c) => self.completion_cache.insert(pid, c),
                None => self.completion_cache.remove(&pid),
            };
        }
        for (pid, old) in self.log.states.drain(..).rev() {
            match old {
                Some(st) => self.states.insert(pid, st),
                None => self.states.remove(&pid),
            };
        }
    }
}

/// Checks PRED by driving the incremental certifier over the history.
/// Agrees exactly (report and errors) with [`crate::pred::check_pred`].
pub fn check_pred_incremental(
    spec: &Spec,
    schedule: &Schedule,
) -> Result<PredReport, ScheduleError> {
    let mut certifier = IncrementalPred::new(spec);
    for event in schedule.events() {
        certifier.record(event)?;
    }
    Ok(certifier.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Catalog;
    use crate::conflict::ConflictMatrix;
    use crate::fixtures;
    use crate::ids::ProcessId;
    use crate::pred::check_pred;
    use crate::process::ProcessBuilder;
    use crate::serializability::ProcessGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type PidPairs = BTreeMap<(ProcessId, ProcessId), u32>;

    impl IncrementalPred<'_> {
        fn by_pid(&self, counts: &PairCounts) -> PidPairs {
            counts
                .nonzero()
                .map(|(a, b)| ((self.dense_pids[a], self.dense_pids[b]), counts.get(a, b)))
                .collect()
        }

        /// Everything that carries meaning, rendered for comparison: all
        /// fields but the row stride and the acyclicity memo of `live.graph`.
        fn logical_state(&self) -> String {
            let g = &self.live.graph;
            let edges: Vec<(usize, usize)> = (0..g.n)
                .flat_map(|a| (0..g.n).map(move |b| (a, b)))
                .filter(|&(a, b)| bit_get(&g.adj[a * g.words..(a + 1) * g.words], b))
                .collect();
            format!(
                "{:?}",
                (
                    (&self.len, &self.states, &self.committed, &self.ops),
                    (&self.rows, &self.svc_idx, &self.svcs, &self.dense_pids),
                    (
                        &self.pid_dense,
                        &self.proc_ops,
                        &self.fwd_of,
                        &self.comp_gids
                    ),
                    (&self.pairs, &self.perm),
                    (&self.completion_cache, self.by_pid(&self.m2)),
                    (&self.live_base, &self.cancelled),
                    (self.by_pid(&self.live.counts), g.n, edges, &g.indeg),
                    (&self.prefix_reducible, &self.first_violation, &self.events),
                    (&self.log.ops, self.log.states.len(), &self.kept),
                )
            )
        }

        /// The reduction re-derived from the whole history, the way every
        /// plan derived it before it became certifier state: rule 3, the
        /// compensation-pair cancellation fixpoint over the bitset
        /// reachability, and the process graph of what remains. Returns the
        /// liveness of the original operations, their live conflicting
        /// cross-process pair counts, and the verdict. Without `overlay`
        /// only the recorded operations take part — what the persistent
        /// `cancelled` and `live` must equal between events.
        fn reduction_from_scratch(&self, overlay: bool) -> (Vec<bool>, PidPairs, bool) {
            let mut probe = self.clone();
            let spec = probe.spec;
            let oracle = spec.oracle();
            let cops = if overlay {
                probe.overlay_ops()
            } else {
                Vec::new()
            };
            let cedges = probe.overlay_edges(&cops);
            let (width, crows) = probe.overlay_rows(&cops, &cedges);
            let n = probe.ops.len();
            let total = n + cops.len();
            let committed_now = |p: ProcessId| probe.committed.contains(&p);

            let mut live = vec![true; total];
            for (lv, op) in live.iter_mut().zip(&probe.ops) {
                *lv = !spec.catalog.is_effect_free(op.service) || committed_now(op.gid.process);
            }
            for (ci, c) in cops.iter().enumerate() {
                live[n + ci] = !c.eff_free || committed_now(c.pid);
            }
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for (c, op) in probe.ops.iter().enumerate() {
                if op.kind == OpKind::Compensation {
                    if let Some(&f) = probe.fwd_of.get(&op.gid) {
                        pairs.push((f, c));
                    }
                }
            }
            for (ci, c) in cops.iter().enumerate() {
                if c.kind == OpKind::Compensation {
                    if let Some(&f) = probe.fwd_of.get(&c.gid) {
                        pairs.push((f, n + ci));
                    }
                }
            }
            let row_of = |x: usize| -> &[u64] {
                if x < n {
                    &probe.rows[x]
                } else {
                    &crows[(x - n) * width..(x - n + 1) * width]
                }
            };
            let lt = |a: usize, b: usize| bit_get(row_of(b), a);
            let service_at = |x: usize| -> ServiceId {
                if x < n {
                    probe.ops[x].service
                } else {
                    cops[x - n].service
                }
            };
            loop {
                let mut changed = false;
                for &(f, c) in &pairs {
                    if !live[f] || !live[c] {
                        continue;
                    }
                    let blocked = (0..total).any(|k| {
                        k != f
                            && k != c
                            && live[k]
                            && oracle.conflict(service_at(k), service_at(f))
                            && lt(f, k)
                            && lt(k, c)
                    });
                    if !blocked {
                        live[f] = false;
                        live[c] = false;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }

            let mut counts = PidPairs::new();
            let mut pg = ProcessGraph::new();
            let pid_at = |x: usize| {
                if x < n {
                    probe.ops[x].gid.process
                } else {
                    cops[x - n].pid
                }
            };
            for j in 0..total {
                for i in 0..total {
                    // Original pairs are ordered by history position (8.3a),
                    // pairs into and among the overlay by its order edges.
                    let ordered = if j < n { i < j } else { lt(i, j) };
                    if !ordered
                        || !live[i]
                        || !live[j]
                        || pid_at(i) == pid_at(j)
                        || !oracle.conflict(service_at(i), service_at(j))
                    {
                        continue;
                    }
                    if j < n {
                        *counts.entry((pid_at(i), pid_at(j))).or_default() += 1;
                    }
                    pg.add_edge(pid_at(i), pid_at(j));
                }
            }
            live.truncate(n);
            (live, counts, pg.is_acyclic())
        }

        /// Permanence and the 8.3(d)/(f) pair counts from their definitions.
        fn mandatory_from_scratch(&self) -> (Vec<bool>, PidPairs) {
            let oracle = self.spec.oracle();
            let perm: Vec<bool> = self
                .ops
                .iter()
                .map(|op| {
                    op.kind == OpKind::Forward
                        && !self.comp_gids.contains(&op.gid)
                        && !self
                            .completion_cache
                            .get(&op.gid.process)
                            .is_some_and(|c| c.compensations.contains(&op.gid.activity))
                })
                .collect();
            let mut counts = PidPairs::new();
            for (j, y) in self.ops.iter().enumerate() {
                for (i, x) in self.ops[..j].iter().enumerate() {
                    if perm[i]
                        && perm[j]
                        && x.gid.process != y.gid.process
                        && oracle.conflict(x.service, y.service)
                    {
                        *counts.entry((x.gid.process, y.gid.process)).or_default() += 1;
                    }
                }
            }
            (perm, counts)
        }
    }

    /// A world the paper's fixture does not reach: five processes of P₁'s
    /// shape over a shared pool of nine services with random conflicts
    /// (self-conflicts included) and random effect-free services, so that
    /// pairs nest across processes and commits revive operations (rule 3).
    fn random_world(seed: u64) -> Spec {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cat = Catalog::new();
        let comp: Vec<ServiceId> = (0..4)
            .map(|i| cat.compensatable(format!("c{i}")).0)
            .collect();
        let piv: Vec<ServiceId> = (0..2).map(|i| cat.pivot(format!("p{i}"))).collect();
        let ret: Vec<ServiceId> = (0..3).map(|i| cat.retriable(format!("r{i}"))).collect();
        let all = [comp.clone(), piv.clone(), ret.clone()].concat();
        let mut conflicts = ConflictMatrix::new(&cat);
        for (i, &a) in all.iter().enumerate() {
            for &b in &all[i..] {
                if rng.gen_bool(0.35) {
                    conflicts.declare_conflict(&cat, a, b).unwrap();
                }
            }
        }
        for &s in &all {
            if rng.gen_bool(0.3) {
                cat.mark_effect_free(s).unwrap();
            }
        }
        let mut spec = Spec::new(cat, conflicts);
        for p in 1..=5u32 {
            let mut pick = |pool: &[ServiceId]| pool[rng.gen_range(0..pool.len())];
            let mut b = ProcessBuilder::new(ProcessId(p), format!("P{p}"));
            let a1 = b.activity("a1", pick(&comp));
            let a2 = b.activity("a2", pick(&piv));
            let a3 = b.activity("a3", pick(&comp));
            let a4 = b.activity("a4", pick(&piv));
            let a5 = b.activity("a5", pick(&ret));
            let a6 = b.activity("a6", pick(&ret));
            b.chain(&[a1, a2, a3, a4]);
            b.precede(a2, a5);
            b.precede(a5, a6);
            b.prefer(a2, a3, a5);
            let process = b.build(&spec.catalog).unwrap();
            spec.add_process(process);
        }
        spec
    }

    /// A random legal history: each step picks an active process and runs
    /// its pending compensation, or aborts it, or executes or fails its
    /// next activity; finished processes commit with probability 1/2.
    fn random_history(spec: &Spec, seed: u64, max_events: usize) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = Schedule::new();
        let mut states: Vec<ProcessState<'_>> = spec
            .processes()
            .map(|p| ProcessState::new(p, &spec.catalog).expect("tree process"))
            .collect();
        for _ in 0..max_events {
            let live: Vec<usize> = (0..states.len())
                .filter(|&i| states[i].is_active())
                .collect();
            if live.is_empty() {
                break;
            }
            let st = &mut states[live[rng.gen_range(0..live.len())]];
            let pid = st.process().id;
            if let Some(c) = st.next_compensation() {
                st.apply_compensation(c).expect("queued");
                schedule.compensate(GlobalActivityId::new(pid, c));
            } else if st.has_started() && !st.abort_in_progress() && rng.gen_bool(0.08) {
                st.apply_process_abort().expect("active");
                schedule.abort(pid);
            } else if let Some(a) = st.next_activity() {
                let gid = GlobalActivityId::new(pid, a);
                let mut failed = st.clone();
                if rng.gen_bool(0.25)
                    && failed
                        .apply_failure(a)
                        .is_ok_and(|o| o != FailureOutcome::Stuck)
                {
                    *st = failed;
                    schedule.fail(gid);
                } else {
                    st.apply_commit(a).expect("frontier");
                    schedule.execute(gid);
                }
            } else if st.can_commit() && rng.gen_bool(0.5) {
                st.apply_process_commit().expect("finished");
                schedule.commit(pid);
            }
        }
        schedule
    }

    /// Drives one certifier over `s` and demands, at every event: `certify`
    /// and an illegal event leave the full state untouched; the verdict is
    /// the batch checker's and the from-scratch derivation's; and the
    /// persistent permanence, cancellation set and pair counts are what a
    /// derivation from the whole history gives.
    fn assert_reduction_state_tracks_scratch(spec: &Spec, s: &Schedule, label: &str) {
        let batch = check_pred(spec, s).unwrap();
        let mut inc = IncrementalPred::new(spec);
        for (i, e) in s.events().iter().enumerate() {
            let at = format!("{label} event {i} ({e:?})");
            let before = inc.logical_state();
            let what_if = inc.certify(e).unwrap();
            assert_eq!(inc.logical_state(), before, "{at}: certify mutated");
            assert!(inc.certify(&Event::Commit(ProcessId(99))).is_err());
            assert_eq!(inc.logical_state(), before, "{at}: illegal event mutated");
            let recorded = inc.record(e).unwrap();
            assert_eq!(what_if, recorded, "{at}");
            assert_eq!(recorded.reducible, batch.prefix_reducible[i + 1], "{at}");

            let (live, counts, _) = inc.reduction_from_scratch(false);
            let alive: Vec<bool> = (0..inc.ops.len()).map(|x| inc.alive(x)).collect();
            assert_eq!(alive, live, "{at}: cancellation set");
            assert_eq!(inc.by_pid(&inc.live.counts), counts, "{at}: live pairs");
            let (.., reducible) = inc.reduction_from_scratch(true);
            assert_eq!(recorded.reducible, reducible, "{at}: verdict");
            let (perm, mandatory) = inc.mandatory_from_scratch();
            assert_eq!(inc.perm, perm, "{at}: permanence");
            assert_eq!(inc.by_pid(&inc.m2), mandatory, "{at}: mandatory pairs");
        }
        assert_eq!(inc.report(), batch, "{label}");
    }

    #[test]
    fn persistent_reduction_equals_scratch_derivation_after_every_event() {
        let fx = fixtures::paper_world();
        for seed in 0..256u64 {
            let s = random_history(&fx.spec, seed, 24);
            assert_reduction_state_tracks_scratch(&fx.spec, &s, &format!("paper seed {seed}"));
        }
        for seed in 0..256u64 {
            let spec = random_world(seed);
            let s = random_history(&spec, seed, 40);
            assert_reduction_state_tracks_scratch(&spec, &s, &format!("world seed {seed}"));
        }
    }

    fn st2(fx: &fixtures::PaperWorld) -> Schedule {
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

    fn figure7(fx: &fixtures::PaperWorld) -> Schedule {
        let mut s = Schedule::new();
        s.execute(fx.a(2, 1))
            .execute(fx.a(2, 2))
            .execute(fx.a(2, 3))
            .execute(fx.a(2, 4))
            .execute(fx.a(1, 1))
            .execute(fx.a(2, 5))
            .commit(ProcessId(2))
            .execute(fx.a(1, 2))
            .execute(fx.a(1, 3));
        s
    }

    fn assert_parity(spec: &Spec, s: &Schedule) {
        let batch = check_pred(spec, s).expect("batch succeeds");
        let inc = check_pred_incremental(spec, s).expect("incremental succeeds");
        assert_eq!(
            batch,
            inc,
            "batch/incremental disagree on {}",
            crate::schedule::render(s)
        );
    }

    #[test]
    fn parity_on_example_8_st2() {
        let fx = fixtures::paper_world();
        assert_parity(&fx.spec, &st2(&fx));
        let report = check_pred_incremental(&fx.spec, &st2(&fx)).unwrap();
        assert!(!report.pred);
        assert_eq!(report.first_violation, Some(4));
    }

    #[test]
    fn parity_on_example_9_figure7() {
        let fx = fixtures::paper_world();
        assert_parity(&fx.spec, &figure7(&fx));
        assert!(
            check_pred_incremental(&fx.spec, &figure7(&fx))
                .unwrap()
                .pred
        );
    }

    #[test]
    fn parity_with_failures_and_compensations() {
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
        assert_parity(&fx.spec, &s);
    }

    #[test]
    fn parity_with_abort_and_completion_events() {
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        s.execute(fx.a(1, 1))
            .execute(fx.a(1, 2))
            .execute(fx.a(1, 3))
            .abort(ProcessId(1))
            .compensate(fx.a(1, 3))
            .execute(fx.a(1, 5))
            .execute(fx.a(1, 6));
        assert_parity(&fx.spec, &s);
    }

    #[test]
    fn parity_with_group_abort() {
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        s.execute(fx.a(1, 1));
        for k in 1..=5 {
            s.execute(fx.a(2, k));
        }
        s.commit(ProcessId(2));
        s.group_abort(vec![ProcessId(1), ProcessId(2)]);
        assert_parity(&fx.spec, &s);
    }

    #[test]
    fn parity_on_quasi_commit_example_10() {
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        s.execute(fx.a(1, 1))
            .execute(fx.a(1, 2))
            .execute(fx.a(3, 1))
            .execute(fx.a(1, 3));
        assert_parity(&fx.spec, &s);
    }

    #[test]
    fn verdicts_match_batch_prefixes_event_by_event() {
        let fx = fixtures::paper_world();
        let s = st2(&fx);
        let batch = check_pred(&fx.spec, &s).unwrap();
        let mut certifier = IncrementalPred::new(&fx.spec);
        for (i, e) in s.events().iter().enumerate() {
            let v = certifier.record(e).unwrap();
            assert_eq!(v.prefix_len, i + 1);
            assert_eq!(
                v.reducible,
                batch.prefix_reducible[i + 1],
                "event {i}: verdict diverges"
            );
        }
    }

    #[test]
    fn what_ifs_and_refused_events_leave_the_full_state_untouched() {
        let fx = fixtures::paper_world();
        let illegal = Event::Execute(fx.a(1, 6));
        for s in [st2(&fx), figure7(&fx)] {
            let mut certifier = IncrementalPred::new(&fx.spec);
            for e in s.events() {
                let before = certifier.logical_state();
                let what_if = certifier.certify(e).unwrap();
                assert_eq!(certifier.logical_state(), before, "certify must not mutate");
                // An illegal event, through every entry point.
                assert!(certifier.certify(&illegal).is_err());
                assert!(certifier.certify_keep(&illegal).is_err());
                assert!(certifier.record(&illegal).is_err());
                assert_eq!(certifier.logical_state(), before, "illegal event mutated");
                // A kept event: refused at once if rejected, and rolled back
                // by the next what-if otherwise.
                let kept = certifier.certify_keep(e).unwrap();
                assert_eq!(kept, what_if);
                if !kept.reducible {
                    assert_eq!(certifier.logical_state(), before, "rejected keep mutated");
                }
                assert_eq!((certifier.len(), certifier.report().pred), {
                    let len = kept.prefix_len - 1;
                    (len, certifier.prefix_reducible()[..=len].iter().all(|&r| r))
                });
                certifier.certify(e).unwrap();
                assert_eq!(
                    certifier.logical_state(),
                    before,
                    "kept event not rolled back"
                );
                assert_eq!(certifier.record(e).unwrap(), what_if);
            }
        }
        // st2's fourth event is the rejected one: the loop above saw it.
        assert!(!check_pred(&fx.spec, &st2(&fx)).unwrap().prefix_reducible[4]);
    }

    #[test]
    fn error_parity_with_batch() {
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        s.execute(fx.a(1, 1)).execute(fx.a(1, 3));
        let batch = check_pred(&fx.spec, &s);
        let inc = check_pred_incremental(&fx.spec, &s);
        assert!(batch.is_err());
        assert!(inc.is_err());
    }

    #[test]
    fn empty_history_is_pred() {
        let fx = fixtures::paper_world();
        let report = check_pred_incremental(&fx.spec, &Schedule::new()).unwrap();
        assert!(report.pred);
        assert_eq!(report.prefix_reducible, vec![true]);
    }

    #[test]
    fn first_violation_sticks() {
        let fx = fixtures::paper_world();
        let s = st2(&fx);
        let mut certifier = IncrementalPred::new(&fx.spec);
        for e in s.events() {
            certifier.record(e).unwrap();
        }
        assert_eq!(certifier.first_violation(), Some(4));
        assert!(!certifier.pred());
        // The final prefix itself is reducible (Example 6) …
        assert!(certifier.prefix_reducible().last().copied().unwrap());
        // … but the violation at prefix 4 is remembered.
        assert!(!certifier.prefix_reducible()[4]);
    }

    #[test]
    fn snapshot_restore_matches_the_live_certifier() {
        let fx = fixtures::paper_world();
        for s in [st2(&fx), figure7(&fx)] {
            let mut live = IncrementalPred::new(&fx.spec);
            for e in s.events() {
                live.record(e).unwrap();
            }
            // Restore must behave like a fresh replay of the same prefix —
            // state, report, and every future certification answer.
            let snap = live.snapshot();
            let mut restored = IncrementalPred::restore(&fx.spec, &snap).unwrap();
            assert_eq!(restored.len(), live.len());
            assert_eq!(restored.report(), live.report());
            assert_eq!(restored.first_violation(), live.first_violation());
            for p in 1..=2u64 {
                for a in 1..=5u64 {
                    let probe = Event::Execute(fx.a(p as u32, a as u32));
                    match (live.certify(&probe), restored.certify(&probe)) {
                        (Ok(x), Ok(y)) => assert_eq!(x, y, "certify diverged on {probe:?}"),
                        (Err(_), Err(_)) => {}
                        other => panic!("certify diverged on {probe:?}: {other:?}"),
                    }
                }
            }
            // The snapshot is the durable form: it round-trips through JSON.
            let json = serde_json::to_string(&snap).unwrap();
            let back: CertifierSnapshot = serde_json::from_str(&json).unwrap();
            assert_eq!(back, snap);
            assert_eq!(
                IncrementalPred::restore(&fx.spec, &back).unwrap().report(),
                live.report()
            );
        }
    }

    #[test]
    fn certify_keep_then_record_matches_plain_record() {
        let fx = fixtures::paper_world();
        for s in [st2(&fx), figure7(&fx)] {
            let mut plain = IncrementalPred::new(&fx.spec);
            let mut kept = IncrementalPred::new(&fx.spec);
            for e in s.events() {
                let what_if = kept.certify_keep(e).unwrap();
                assert_eq!(what_if, plain.certify(e).unwrap());
                assert_eq!(kept.record(e).unwrap(), plain.record(e).unwrap());
                assert_eq!(kept.report(), plain.report());
            }
        }
    }

    #[test]
    fn stale_certify_keep_cache_is_ignored() {
        let fx = fixtures::paper_world();
        let a11 = Event::Execute(fx.a(1, 1));
        let a21 = Event::Execute(fx.a(2, 1));
        let a22 = Event::Execute(fx.a(2, 2));
        let mut kept = IncrementalPred::new(&fx.spec);
        let mut plain = IncrementalPred::new(&fx.spec);
        // Keep a plan for one event, then record a *different* one (the
        // certified candidate was never emitted): the cache must miss.
        kept.certify_keep(&a11).unwrap();
        assert_eq!(kept.record(&a21).unwrap(), plain.record(&a21).unwrap());
        assert_eq!(kept.logical_state(), plain.logical_state());
        // Keep again, record another event, then record the kept event at a
        // *later* length: the length check must reject the stale plan.
        kept.certify_keep(&a11).unwrap();
        assert_eq!(kept.record(&a22).unwrap(), plain.record(&a22).unwrap());
        assert_eq!(kept.record(&a11).unwrap(), plain.record(&a11).unwrap());
        assert_eq!(kept.logical_state(), plain.logical_state());
    }

    /// Rule 3 across a commit, in both directions at once. Q's pair encloses
    /// P's effect-free pair `(a3, a3⁻¹)`, which conflicts with it. While P
    /// is uncommitted its pair is dead and Q's cancels; `C_P` revives P's
    /// pair, which un-cancels Q's (it is blocked again), then cancels on
    /// its own — and the cascade from that re-cancels Q's.
    #[test]
    fn commit_revives_effect_free_pairs_and_rederives_the_cancellations() {
        let mut cat = Catalog::new();
        let (c, _) = cat.compensatable("c");
        let (q, _) = cat.compensatable("q");
        let (read, _) = cat.compensatable("read");
        let pivot = cat.pivot("pivot");
        let retriable = cat.retriable("retriable");
        let mut conflicts = ConflictMatrix::new(&cat);
        conflicts.declare_conflict(&cat, q, read).unwrap();
        cat.mark_effect_free(read).unwrap();
        let mut spec = Spec::new(cat, conflicts);
        let mut b = ProcessBuilder::new(ProcessId(1), "P");
        let a1 = b.activity("a1", c);
        let a2 = b.activity("a2", pivot);
        let a3 = b.activity("a3", read);
        let a4 = b.activity("a4", pivot);
        let a5 = b.activity("a5", retriable);
        b.chain(&[a1, a2, a3, a4]);
        b.precede(a2, a5);
        b.prefer(a2, a3, a5);
        let p = b.build(&spec.catalog).unwrap();
        spec.add_process(p);
        let mut b = ProcessBuilder::new(ProcessId(2), "Q");
        let qa = b.activity("a1", q);
        let qb = b.activity("a2", pivot);
        b.precede(qa, qb);
        let p = b.build(&spec.catalog).unwrap();
        spec.add_process(p);

        let (pp, pq) = (ProcessId(1), ProcessId(2));
        let g = GlobalActivityId::new;
        let mut s = Schedule::new();
        s.execute(g(pq, qa))
            .execute(g(pp, a1))
            .execute(g(pp, a2))
            .execute(g(pp, a3))
            .fail(g(pp, a4))
            .compensate(g(pp, a3))
            .abort(pq)
            .compensate(g(pq, qa));
        let mut inc = IncrementalPred::new(&spec);
        for e in s.events() {
            inc.record(e).unwrap();
        }
        // Operations: 0 Q.a1, 1 P.a1, 2 P.a2, 3 P.a3, 4 P.a3⁻¹, 5 Q.a1⁻¹.
        assert_eq!(inc.live_base, [true, true, true, false, false, true]);
        assert_eq!(inc.cancelled, [true, false, false, false, false, true]);
        s.execute(g(pp, a5)).commit(pp);
        assert_reduction_state_tracks_scratch(&spec, &s, "revival");
        for e in &s.events()[inc.len()..] {
            inc.record(e).unwrap();
        }
        assert_eq!(inc.live_base, [true; 7]);
        assert_eq!(inc.cancelled, [true, false, false, true, true, true, false]);
    }
}
