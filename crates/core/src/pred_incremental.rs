//! Incremental PRED certification (Definition 10, evaluated event by event).
//!
//! [`crate::pred::check_pred`] re-derives the completed schedule `S̃` and its
//! reduction for *every* prefix, which is `O(n³)` over a history of `n`
//! events. An online scheduler only ever extends the history by one event at
//! a time, so the certifier carries the whole derivation across events and
//! processes the *delta* of each one in place:
//!
//! * the state machines the event names make its one move
//!   ([`ProcessState::apply`], as `Schedule::replay` does),
//! * `≪̃` among recorded operations is never materialised: the reduction
//!   only asks whether `x` sits between a pair `(f, c)` it conflicts with, a
//!   compensation carries the base service of the operation it undoes, and
//!   8.3a orders conflicting operations by history position — so the answer
//!   is `f < x < c`, read off the ascending per-service buckets,
//! * permanence of an operation only flips when a process's pending
//!   completion changes; the 8.3(d)/(f) pair counters (`m2`) follow by
//!   flip-diff against the operation's conflict buckets,
//! * the **reduction is persistent**: the set of original operations the
//!   compensation rule cancelled is certifier state. A new forward
//!   operation cannot change the fate of any original pair; a new
//!   compensation adds one pair and a worklist cascade from it; a commit
//!   revives that process's effect-free operations and re-examines only the
//!   pairs those operations sit between,
//! * the **completion overlay is persistent**: the operations Definition 8
//!   appends for the still-active processes, one part per process. An event
//!   replaces the part of the process whose cached
//!   [`crate::state::Completion`] it changed and pairs only that part with
//!   the rest, through per-service buckets of overlay operations. A
//!   compensation's order against a conflicting compensation or forward
//!   operation (Lemmas 2 and 3) is a function of the two and is stored;
//!   forward/forward pairs read the 8.3(d)/(f) ranks per verdict. No closure
//!   here either: every original conflicting with an overlay compensation
//!   precedes it, and of two conflicting overlay operations one is a
//!   *direct* predecessor of the other,
//! * the **reduction of the completed schedule is persistent** as well. Its
//!   compensation rule runs over the recorded and the overlay pairs, and no
//!   overlay operation sits between two originals, so it cancels what the
//!   history's reduction cancels and more — but only overlay pairs, never a
//!   further recorded pair (DESIGN.md invariant 4). Their bases are a set
//!   of their own (`ocancelled`, disjoint from `cancelled`) and the
//!   cancelled overlay compensations are the ones whose `live` flag is
//!   down, so `cancelled` stays the history's reduction. The live pair
//!   counters, and the process graph they induce, count the pairs of
//!   originals that survive both. An event moves both fixpoints by its
//!   delta, over-delete then re-derive ([`IncrementalPred::settle`]).
//!
//! A verdict then only adds the process-graph edges into and among the
//! surviving overlay operations and checks them against the kept order.
//!
//! Every mutation logs its inverse ([`Undo`]). A what-if ([`certify`]) or a
//! rejected candidate rolls the log back, so the state afterwards is the
//! state before; an admitted candidate ([`certify_keep`]) stays applied and
//! the matching [`record`] only drops the log.
//!
//! Per-event cost: `d` operations in the service buckets conflicting with
//! the touched operation, `k` overlay operations (`t` in the replaced part),
//! `e` stored overlay order pairs, `p` processes.
//!
//! | step | per event |
//! |------|-----------|
//! | state machines, completion caches | `O(|process|)` |
//! | permanence flips, `m2` | `O(flips · d)` |
//! | mandatory ranks 8.3(d)/(f) | `O(p² + k · d)`, only when two live overlay forward operations of different processes conflict |
//! | overlay operations and order | `O(t · conflicting overlay operations)` |
//! | cancellation fixpoints | `O(d)` per new pair; `O(d + c_s + k_s)` per operation whose fate in either fixpoint changes, where `c_s` and `k_s` are the recorded and overlay pairs of the services it conflicts with |
//! | live pair counters and process graph | `O(d)` per operation that changes liveness, `O(k · d + e)` overlay edges checked against the kept topological order; Kahn `O(p · ⌈p/64⌉)` only when an edge goes against the kept order |
//!
//! In steady state a step allocates only for amortized growth of its
//! tables: the working copies of process states, completions and overlay
//! parts are refilled in the values the previous event replaced, and every
//! worklist is a buffer the certifier keeps.
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
use crate::ids::{GlobalActivityId, IdIndex, ProcessId, ServiceId};
use crate::pred::PredReport;
use crate::schedule::{BaseOp, Event, OpKind, Schedule};
use crate::spec::Spec;
use crate::state::{Completion, ProcessState};
use std::collections::{BTreeMap, BTreeSet};
use std::mem::take;

fn words_for(n: usize) -> usize {
    n.div_ceil(64).max(1)
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
    /// Words per adjacency row (`words * 64 >= n`, at least one).
    words: usize,
    /// Row-major adjacency bitmap (`n × words`).
    adj: Vec<u64>,
    indeg: Vec<u32>,
}

impl Default for DenseGraph {
    fn default() -> Self {
        DenseGraph {
            n: 0,
            words: 1,
            adj: Vec::new(),
            indeg: Vec::new(),
        }
    }
}

impl DenseGraph {
    /// Empties the graph to `n` isolated nodes, keeping its buffers.
    fn reset(&mut self, n: usize) {
        self.n = n;
        self.words = words_for(n);
        self.adj.clear();
        self.adj.resize(n * self.words, 0);
        self.indeg.clear();
        self.indeg.resize(n, 0);
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

    /// Kahn's traversal (FIFO, ascending) over a copy of the in-degrees in
    /// `deg`; `order` doubles as the queue and ends up holding the visited
    /// nodes in topological order. `true` iff the graph is acyclic.
    fn kahn(&self, deg: &mut Vec<u32>, order: &mut Vec<usize>) -> bool {
        deg.clear();
        deg.extend_from_slice(&self.indeg);
        order.clear();
        order.extend((0..self.n).filter(|&i| deg[i] == 0));
        let mut head = 0;
        while let Some(&i) = order.get(head) {
            head += 1;
            let row = &self.adj[i * self.words..(i + 1) * self.words];
            for (wi, &w) in row.iter().enumerate() {
                let mut bits = w;
                while bits != 0 {
                    let j = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    deg[j] -= 1;
                    if deg[j] == 0 {
                        order.push(j);
                    }
                }
            }
        }
        order.len() == self.n
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

/// The serialization state of the completed schedule's reduction, over the
/// originals: conflicting cross-process pairs of original operations that
/// are both rule-3 live and in neither cancelled set, and the process graph
/// those pairs induce (an edge per non-zero entry, over dense process
/// indices).
///
/// It also keeps a topological order of that graph (Pearce and Kelly's
/// dynamic topological sort, without their local reordering): while
/// `ordered` holds, every edge `(a, b)` has `pos[a] < pos[b]`, so the
/// graph is acyclic, and so is any set of added edges that all ascend.
/// Every mutation keeps that implication true: a new node goes last, an
/// edge that appears against the order clears `ordered`, a removed edge
/// cannot break it, and a traversal that finds the graph acyclic installs
/// its order.
#[derive(Debug, Clone)]
struct LiveGraph {
    counts: PairCounts,
    graph: DenseGraph,
    /// Position of each node in the kept order. Positions need not be
    /// distinct: a node rolled back after a traversal leaves a gap the next
    /// new node may share, and an edge between equal positions counts as
    /// against the order.
    pos: Vec<usize>,
    ordered: bool,
    /// Overlay edges [`Self::add_extra`] put into `graph` for the verdict in
    /// flight, and the buffers of its Kahn traversal: scratch, kept for its
    /// capacity only.
    extra: Vec<(u32, u32)>,
    deg: Vec<u32>,
    order: Vec<usize>,
    /// Verdicts the order answered with at least one overlay edge, and
    /// verdicts that fell back to Kahn.
    paths: [u64; 2],
}

impl LiveGraph {
    fn new() -> Self {
        LiveGraph {
            counts: PairCounts::default(),
            graph: DenseGraph::default(),
            pos: Vec::new(),
            ordered: true,
            extra: Vec::new(),
            deg: Vec::new(),
            order: Vec::new(),
            paths: [0; 2],
        }
    }

    fn ascends(&self, a: u32, b: u32) -> bool {
        self.pos[a as usize] < self.pos[b as usize]
    }

    /// Appends an isolated node, last in the order.
    fn push_node(&mut self) {
        self.pos.push(self.graph.n);
        self.graph.push_node();
    }

    fn pop_node(&mut self) {
        self.graph.pop_node();
        self.pos.pop();
    }

    fn bump(&mut self, a: u32, b: u32, up: bool) {
        if !self.counts.bump(a, b, up) {
            return;
        }
        if up {
            self.graph.add_edge(a as usize, b as usize);
            self.ordered &= self.ascends(a, b);
        } else {
            self.graph.remove_edge(a as usize, b as usize);
        }
    }

    /// Adds an overlay edge for the next [`Self::verdict`] only.
    fn add_extra(&mut self, a: u32, b: u32) {
        if self.graph.add_edge(a as usize, b as usize) {
            self.extra.push((a, b));
        }
    }

    /// Whether the graph plus the overlay edges added since the last verdict
    /// is acyclic; takes them out again. Answered from the kept order when
    /// it is valid and every overlay edge ascends in it; otherwise Kahn
    /// traverses the union, and an acyclic union's order is kept (it orders
    /// the graph without the overlay edges too).
    fn verdict(&mut self) -> bool {
        let from_order = self.ordered && self.extra.iter().all(|&(a, b)| self.ascends(a, b));
        if !from_order || !self.extra.is_empty() {
            self.paths[usize::from(!from_order)] += 1;
        }
        let acyclic = from_order || self.graph.kahn(&mut self.deg, &mut self.order);
        if !from_order && acyclic {
            for (at, &node) in self.order.iter().enumerate() {
                self.pos[node] = at;
            }
            self.ordered = true;
        }
        for (a, b) in self.extra.drain(..) {
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
    /// Recorded compensation pairs `(forward, compensation)` of this
    /// service, ascending compensation.
    pairs: Vec<(usize, usize)>,
    /// Overlay operations of this service, ascending.
    overlay: Vec<CopRef>,
    /// Indices of the known services this one conflicts with, asked of the
    /// oracle once when the service is first seen.
    conflicts: Vec<u32>,
}

/// An overlay operation by dense process index and position in that
/// process's part of the overlay.
type CopRef = (u32, u32);

/// A completion-overlay operation: one activity Definition 8 appends for a
/// still-active process. Built when the process's pending completion
/// changes and kept until it changes again.
#[derive(Debug, Clone)]
struct Cop {
    gid: GlobalActivityId,
    service: ServiceId,
    sidx: u32,
    kind: OpKind,
    eff_free: bool,
    /// The recorded operation a compensation undoes (unused for forward).
    fwd: usize,
    /// The conflicting overlay operations 8.3(b–f) order directly before
    /// this one whatever the ranks: compensations of other processes
    /// (before a forward operation; in reverse order of their base
    /// operations among themselves, Lemma 2) and, for a compensation, those
    /// earlier in its own chain. Ascending.
    preds: Vec<CopRef>,
    /// For a forward operation, the conflicting forward operations of other
    /// processes with a smaller reference: 8.3(d)/(f) orient these pairs by
    /// the mandatory ranks, per verdict. Ascending.
    ff: Vec<CopRef>,
    /// Survives rule 3 and the compensation rule of the completed schedule:
    /// not effect-free, and for a compensation, its pair is not cancelled.
    live: bool,
}

fn insert_sorted(refs: &mut Vec<CopRef>, r: CopRef) {
    let at = refs.partition_point(|&x| x < r);
    refs.insert(at, r);
}

/// An operation of the completed schedule: an original or an overlay one.
#[derive(Debug, Clone, Copy)]
enum Member {
    Orig(usize),
    Cop(CopRef),
}

/// A compensation pair of the completed schedule: recorded `(forward,
/// compensation)`, or an overlay compensation, which names its base.
#[derive(Debug, Clone, Copy)]
enum Pair {
    Recorded(usize, usize),
    Overlay(CopRef),
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
    /// A flip of `cancelled`, or of `ocancelled` when set.
    CancelFlip(usize, bool),
    /// A flip of an overlay compensation's `live` flag.
    CopLive(CopRef),
    /// A recorded pair appended to this service.
    Pair(u32),
    Op,
    Process,
    Service,
    /// The overlay part of this dense process was replaced; the old one is
    /// on top of [`UndoLog::parts`].
    Overlay(u32),
}

#[derive(Clone, Default)]
struct UndoLog<'a> {
    ops: Vec<Undo>,
    states: Vec<(ProcessId, Option<ProcessState<'a>>)>,
    completions: Vec<(ProcessId, Option<Completion>)>,
    parts: Vec<Vec<Cop>>,
}

/// The buffers [`IncrementalPred::mandatory_ranks`] derives the ranks in.
#[derive(Clone, Default)]
struct RankScratch {
    graph: DenseGraph,
    by_pid: Vec<usize>,
    node_of: Vec<usize>,
    rank_of_node: Vec<usize>,
    deg: Vec<u32>,
    order: Vec<usize>,
    /// The result: the rank of each dense process index.
    ranks: Vec<usize>,
}

/// What one event's step works in, kept between events for its capacity
/// only. The spares are the values the last event replaced or discarded —
/// the undo log's old states, completions and overlay parts once `record`
/// drops it, or the new ones a rollback discards — and the next event's
/// working copies are refilled in them instead of allocated.
#[derive(Clone, Default)]
struct Scratch<'a> {
    states: Vec<ProcessState<'a>>,
    completions: Vec<Completion>,
    parts: Vec<Vec<Cop>>,
    /// The working copies of the event in flight.
    touched: Vec<(ProcessId, ProcessState<'a>)>,
    /// Activities whose will-compensate status the event changed.
    changed: Vec<GlobalActivityId>,
    /// What the event changed in the history's reduction (index 0) and the
    /// completed schedule's (index 1), for [`IncrementalPred::settle`]:
    /// operations that came alive, operations that died, and pairs to
    /// re-examine.
    rose: [Vec<Member>; 2],
    fell: [Vec<Member>; 2],
    retry: [Vec<Pair>; 2],
    /// The pairs a lookup found, before they are acted on.
    hits: Vec<Pair>,
    ranks: RankScratch,
}

impl Scratch<'_> {
    /// Notes for [`IncrementalPred::settle`] that `m` died (`dead`) or
    /// came alive in the history's reduction, or with `completed` in the
    /// completed schedule's.
    fn moved(&mut self, completed: bool, dead: bool, m: Member) {
        let list = if dead { &mut self.fell } else { &mut self.rose };
        list[usize::from(completed)].push(m);
    }
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
    // -- original operations --
    ops: Vec<OrigOp>,
    svc_idx: IdIndex<ServiceId>,
    svcs: Vec<Service>,
    /// Dense index of every process with at least one operation, in
    /// first-operation order (index ↔ [`OrigOp::pidx`]), and its operations.
    dense_pids: Vec<ProcessId>,
    pid_dense: IdIndex<ProcessId>,
    proc_ops: Vec<Vec<usize>>,
    fwd_of: BTreeMap<GlobalActivityId, usize>,
    comp_gids: BTreeSet<GlobalActivityId>,
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
    /// pair nothing live and conflicting sits between" over the recorded
    /// pairs ([`Service::pairs`]).
    cancelled: Vec<bool>,
    /// Removed by the same rule over the completed schedule, and not by
    /// the history's: the overlay's share of its reduction, the bases of
    /// the cancelled overlay pairs.
    ocancelled: Vec<bool>,
    /// Pair counters and process graph over the originals that survive
    /// both cancelled sets.
    live: LiveGraph,
    // -- the completion overlay --
    /// Per dense process, the operations its pending completion appends:
    /// compensations, then the forward-recovery path (8.3b/c chain order).
    overlay: Vec<Vec<Cop>>,
    /// Dense indices of the processes with a non-empty part, ascending pid
    /// (the order `complete` appends in).
    active: Vec<u32>,
    // -- report --
    prefix_reducible: Vec<bool>,
    first_violation: Option<usize>,
    /// Inverses of the mutations of the event in flight; empty between
    /// calls unless `kept` is set.
    log: UndoLog<'a>,
    /// The admitted event `certify_keep` left applied: the next `record` of
    /// the same event only drops the log; anything else rolls it back first.
    kept: Option<Event>,
    scratch: Scratch<'a>,
    /// Entries of `cancelled` and `ocancelled` flipped, rollbacks included.
    flips: u64,
}

/// The working copy of `pid`'s state machine for the event in flight: a
/// spare state refilled from the recorded one, or `pid`'s initial state.
fn touch<'a, 'b>(
    spec: &'a Spec,
    base: &BTreeMap<ProcessId, ProcessState<'a>>,
    scratch: &'b mut Scratch<'a>,
    pid: ProcessId,
) -> Result<&'b mut ProcessState<'a>, ScheduleError> {
    let touched = &mut scratch.touched;
    if let Some(at) = touched.iter().position(|(p, _)| *p == pid) {
        return Ok(&mut touched[at].1);
    }
    let st = match base.get(&pid) {
        Some(st) => {
            let mut spare = match scratch.states.pop() {
                Some(spare) => spare,
                None => ProcessState::of(spec, pid)?,
            };
            spare.clone_from(st);
            spare
        }
        None => ProcessState::of(spec, pid)?,
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
            svc_idx: IdIndex::new(),
            svcs: Vec::new(),
            dense_pids: Vec::new(),
            pid_dense: IdIndex::new(),
            proc_ops: Vec::new(),
            fwd_of: BTreeMap::new(),
            comp_gids: BTreeSet::new(),
            perm: Vec::new(),
            completion_cache: BTreeMap::new(),
            m2: PairCounts::default(),
            live_base: Vec::new(),
            cancelled: Vec::new(),
            ocancelled: Vec::new(),
            live: LiveGraph::new(),
            overlay: Vec::new(),
            active: Vec::new(),
            prefix_reducible: vec![true],
            first_violation: None,
            log: UndoLog::default(),
            kept: None,
            scratch: Scratch::default(),
            flips: 0,
        }
    }

    /// How often an original entered or left a cancelled set, rolled-back
    /// steps included (test support: the work a verdict does on the
    /// reduction, counted independently of the host).
    #[doc(hidden)]
    pub fn cancel_flips(&self) -> u64 {
        self.flips
    }

    /// How many verdicts the kept topological order could not answer, so
    /// that Kahn traversed the graph (test support, like
    /// [`Self::cancel_flips`]).
    #[doc(hidden)]
    pub fn kahn_fallbacks(&self) -> u64 {
        self.live.paths[1]
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
    /// left as it was — also when the event is illegal.
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
        self.drop_log();
        self.len += 1;
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

    /// Keeps the event in flight: what it replaced becomes the next event's
    /// working copies.
    fn drop_log(&mut self) {
        self.log.ops.clear();
        let (log, spare) = (&mut self.log, &mut self.scratch);
        spare
            .states
            .extend(log.states.drain(..).filter_map(|(_, st)| st));
        spare
            .completions
            .extend(log.completions.drain(..).filter_map(|(_, c)| c));
        spare.parts.append(&mut log.parts);
    }

    /// In the history's reduction.
    fn alive(&self, i: usize) -> bool {
        self.live_base[i] && !self.cancelled[i]
    }

    /// In the completed schedule's reduction.
    fn survives(&self, i: usize) -> bool {
        self.alive(i) && !self.ocancelled[i]
    }

    fn cop(&self, (p, slot): CopRef) -> &Cop {
        &self.overlay[p as usize][slot as usize]
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

        // 1. Advance the touched process state machines (on copies) by
        //    `ProcessState::apply`, errors included.
        let advanced = self.advance(event);
        if advanced.is_err() {
            self.scratch.touched.clear();
        }
        let appended = advanced?;
        let commit = match *event {
            Event::Commit(p) => Some(p),
            _ => None,
        };

        // 2. Fold the new states in, refresh their completion caches, and
        //    collect the activities whose will-compensate status changed.
        let mut touched = take(&mut self.scratch.touched);
        let mut changed = take(&mut self.scratch.changed);
        for (pid, st) in touched.drain(..) {
            let next = st
                .is_active()
                .then(|| match self.scratch.completions.pop() {
                    Some(mut c) => {
                        st.completion_into(&mut c);
                        c
                    }
                    None => st.completion(),
                });
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
        self.scratch.touched = touched;
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
        for g in changed.drain(..) {
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
        self.scratch.changed = changed;

        // 4. The history's reduction: rule-3 revivals of a commit, or the
        //    appended operation and the pair it may close.
        if let Some(p) = commit {
            self.revive_effect_free(p);
        }
        if let Some((gid, service, kind)) = appended {
            self.push_op(gid, service, kind);
        }
        self.settle(false);

        // 5. The completion overlay: the parts of the processes whose
        //    pending completion changed (after step 4, so a compensation of
        //    the operation just appended finds it), then the reduction of
        //    the completed schedule, then the verdict.
        for at in 0..self.log.completions.len() {
            let (pid, old) = &self.log.completions[at];
            if old.as_ref() != self.completion_cache.get(pid) {
                self.refresh_overlay(*pid);
            }
        }
        self.settle(true);
        Ok(self.overlay_verdict())
    }

    /// Step 1 of [`Self::step`]: makes `event`'s move of working copies of
    /// the state machines it names (`scratch.touched`) and returns the
    /// operation it appends.
    fn advance(&mut self, event: &Event) -> Result<Option<BaseOp>, ScheduleError> {
        let spec = self.spec;
        let appended = event.effect_in(spec)?;
        for &pid in event.processes() {
            touch(spec, &self.states, &mut self.scratch, pid)?.apply(event)?;
        }
        Ok(appended)
    }

    /// Index of `service` in `svcs`, asking the oracle for its conflicts
    /// with the known services the first time it is seen.
    fn intern(&mut self, service: ServiceId) -> u32 {
        if let Some(&s) = self.svc_idx.get(service) {
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
            pairs: Vec::new(),
            overlay: Vec::new(),
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
            if self.survives(j) {
                self.live.bump(a, b, up);
                self.log.ops.push(Undo::Live(a, b, up));
            }
        }
    }

    fn flip(&mut self, x: usize, overlay: bool) {
        let set = if overlay {
            &mut self.ocancelled
        } else {
            &mut self.cancelled
        };
        set[x] = !set[x];
        self.flips += 1;
        self.log.ops.push(Undo::CancelFlip(x, overlay));
    }

    /// Puts `x` into (`cancelled`) or takes it out of the history's
    /// cancelled set, or with `overlay` the overlay's. The live pairs follow,
    /// and [`Self::settle`] learns what rose or fell in each reduction. The
    /// history cancelling an original the overlay had cancelled moves it
    /// from one set to the other.
    fn set_cancelled(&mut self, x: usize, overlay: bool, cancelled: bool) {
        debug_assert!(self.live_base[x]);
        self.flip(x, overlay);
        if !overlay {
            self.scratch.moved(false, cancelled, Member::Orig(x));
            if cancelled && self.ocancelled[x] {
                self.flip(x, true);
                return;
            }
        }
        self.count_live(x, !cancelled);
        self.scratch.moved(true, cancelled, Member::Orig(x));
    }

    /// Appends an operation of the original history: the pairs it forms
    /// and — for a compensation — the pair it closes.
    fn push_op(&mut self, gid: GlobalActivityId, service: ServiceId, kind: OpKind) {
        let sidx = self.intern(service);
        let pidx = match self.pid_dense.get(gid.process) {
            Some(&p) => p,
            None => {
                let p = self.dense_pids.len() as u32;
                self.dense_pids.push(gid.process);
                self.pid_dense.insert(gid.process, p);
                self.proc_ops.push(Vec::new());
                self.overlay.push(Vec::new());
                self.m2.resize(p as usize + 1);
                self.live.counts.resize(p as usize + 1);
                self.live.push_node();
                self.log.ops.push(Undo::Process);
                p
            }
        };
        let idx = self.ops.len();
        let eff_free = self.spec.catalog.is_effect_free(service);
        let perm = kind == OpKind::Forward && self.uncompensated(gid);
        let live = !eff_free || self.committed.contains(&gid.process);
        self.svcs[sidx as usize].bucket.push(idx);
        self.proc_ops[pidx as usize].push(idx);
        self.perm.push(perm);
        self.live_base.push(live);
        self.cancelled.push(false);
        self.ocancelled.push(false);
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
            // The newest original blocks no recorded pair, only overlay
            // pairs before it.
            self.count_live(idx, true);
            self.scratch.moved(true, false, Member::Orig(idx));
        }
        match kind {
            OpKind::Forward => {
                self.fwd_of.insert(gid, idx);
            }
            OpKind::Compensation => {
                if let Some(&f) = self.fwd_of.get(&gid) {
                    self.svcs[sidx as usize].pairs.push((f, idx));
                    self.log.ops.push(Undo::Pair(sidx));
                    self.scratch.retry[0].push(Pair::Recorded(f, idx));
                }
            }
        }
    }

    /// Whether original `x` is live in the history's reduction, or with
    /// `completed` in the completed schedule's.
    fn live_in(&self, x: usize, completed: bool) -> bool {
        if completed {
            self.survives(x)
        } else {
            self.alive(x)
        }
    }

    /// The pairs that original `x` sits between and conflicts with — i.e.
    /// blocks while it is live — into `out`: the recorded pairs, or with
    /// `completed` the overlay pairs, the only pairs the overlay's share
    /// of the reduction cancels (DESIGN.md invariant 4). A compensation
    /// carries the base service of the operation it undoes, so `x`
    /// conflicts with both halves or neither, and 8.3a (or the process
    /// chain) orders conflicting operations by history position:
    /// `f ≪̃ x ≪̃ c` is `f < x < c`, and every original precedes an overlay
    /// compensation it conflicts with. Only the pairs of the services `x`
    /// conflicts with are read.
    fn pairs_around(&self, x: usize, completed: bool, out: &mut Vec<Pair>) {
        for &t in &self.svcs[self.ops[x].sidx as usize].conflicts {
            let s = &self.svcs[t as usize];
            if !completed {
                let after = s.pairs.partition_point(|&(_, c)| c <= x);
                out.extend(
                    s.pairs[after..]
                        .iter()
                        .filter(|&&(f, _)| f < x)
                        .map(|&(f, c)| Pair::Recorded(f, c)),
                );
            } else {
                out.extend(
                    (s.overlay.iter())
                        .filter(|&&r| {
                            let c = self.cop(r);
                            c.kind == OpKind::Compensation && c.fwd < x
                        })
                        .map(|&r| Pair::Overlay(r)),
                );
            }
        }
    }

    /// The overlay compensations overlay operation `r` is ordered directly
    /// before and conflicts with — the overlay pairs it blocks while it is
    /// live — into `out`.
    fn pairs_after(&self, r: CopRef, out: &mut Vec<Pair>) {
        for &t in &self.svcs[self.cop(r).sidx as usize].conflicts {
            out.extend(
                (self.svcs[t as usize].overlay.iter())
                    .filter(|&&o| {
                        let c = self.cop(o);
                        c.kind == OpKind::Compensation && c.preds.binary_search(&r).is_ok()
                    })
                    .map(|&o| Pair::Overlay(o)),
            );
        }
    }

    /// Whether an original conflicting with `f` sits between `f` and the
    /// other half `c` of its pair and is live — in the completed schedule's
    /// reduction when `completed`, else in the history's — i.e. blocks the
    /// compensation rule for that pair (see [`Self::pairs_around`]). An
    /// overlay pair passes `usize::MAX`.
    fn blocked(&self, f: usize, c: usize, completed: bool) -> bool {
        let holds_blocker = |bucket: &Vec<usize>| {
            let below_c = bucket.iter().rev().skip_while(|&&k| k >= c);
            below_c
                .take_while(|&&k| k > f)
                .any(|&k| self.live_in(k, completed))
        };
        let conflicts = &self.svcs[self.ops[f].sidx as usize].conflicts;
        (conflicts.iter()).any(|&t| holds_blocker(&self.svcs[t as usize].bucket))
    }

    /// Rule 3 after `Commit(p)`: the effect-free operations of `p` become
    /// live in both reductions, and the recorded pairs they form may cancel.
    fn revive_effect_free(&mut self, p: ProcessId) {
        let Some(&px) = self.pid_dense.get(p) else {
            return;
        };
        for at in 0..self.proc_ops[px as usize].len() {
            let i = self.proc_ops[px as usize][at];
            if self.live_base[i] {
                continue;
            }
            self.live_base[i] = true;
            self.log.ops.push(Undo::Revived(i));
            self.count_live(i, true);
            for completed in [false, true] {
                self.scratch.moved(completed, false, Member::Orig(i));
            }
            let pairs = &self.svcs[self.ops[i].sidx as usize].pairs;
            if let Some(&(f, c)) = pairs.iter().find(|&&(f, c)| f == i || c == i) {
                self.scratch.retry[0].push(Pair::Recorded(f, c));
            }
        }
    }

    /// Replaces `pid`'s part of the overlay by what its cached completion
    /// appends now: compensations, then forward recovery, each with its
    /// service interned and a compensation's base operation resolved.
    fn refresh_overlay(&mut self, pid: ProcessId) {
        let spec = self.spec;
        // A spare part, its operations overwritten in place: their order
        // lists are empty but keep their capacity.
        let mut part = self.scratch.parts.pop().unwrap_or_default();
        let mut len = 0;
        if let Some(completion) = self.completion_cache.get(&pid) {
            let process = spec.process(pid).expect("process of a recorded state");
            for (a, kind) in completion.ops() {
                let gid = GlobalActivityId::new(pid, a);
                let service = spec.catalog.base(process.service(a));
                let fwd = match kind {
                    OpKind::Compensation => *self
                        .fwd_of
                        .get(&gid)
                        .expect("a pending compensation undoes a recorded operation"),
                    OpKind::Forward => usize::MAX,
                };
                debug_assert!(fwd == usize::MAX || self.ops[fwd].service == service);
                let eff_free = spec.catalog.is_effect_free(service);
                let cop = Cop {
                    gid,
                    service,
                    sidx: 0,
                    kind,
                    eff_free,
                    fwd,
                    preds: Vec::new(),
                    ff: Vec::new(),
                    live: !eff_free,
                };
                match part.get_mut(len) {
                    Some(spare) => {
                        debug_assert!(spare.preds.is_empty() && spare.ff.is_empty());
                        let (preds, ff) = (take(&mut spare.preds), take(&mut spare.ff));
                        *spare = Cop { preds, ff, ..cop };
                    }
                    None => part.push(cop),
                }
                len += 1;
            }
        }
        part.truncate(len);
        // The order on the overlay is acyclic by construction as long as
        // every chain undoes in reverse commit order (Lemma 2): then every
        // edge `swap_part` or a verdict orients — chain, compensation before
        // forward, compensations by descending base, forward operations by
        // (rank, pid) — ascends in one linear order of all overlay operations.
        assert!(
            part.windows(2)
                .all(|w| w[1].kind == OpKind::Forward || w[0].fwd > w[1].fwd),
            "≪̃ construction must stay acyclic"
        );
        let pidx = self.pid_dense.get(pid).copied();
        if part.is_empty() {
            // A process with nothing pending holds no spare capacity.
            self.scratch.parts.push(take(&mut part));
            if pidx.is_none_or(|p| self.overlay[p as usize].is_empty()) {
                return;
            }
        }
        let pidx = pidx.expect("a process with pending completion has recorded operations");
        for c in &mut part {
            c.sidx = self.intern(c.service);
        }
        self.carry_over(pidx, &mut part);
        let old = self.swap_part(pidx, part);
        self.log.parts.push(old);
        self.log.ops.push(Undo::Overlay(pidx));
    }

    /// Before `part` replaces dense process `p`'s part of the overlay: a
    /// compensation both parts hold keeps its pair's fate. Of the others, an
    /// old cancelled one gives its base back, an old live one stops blocking
    /// the pairs after it, which are re-examined, and a new live one is a
    /// new blocker ([`Self::settle`]'s `rose`) and a new pair.
    fn carry_over(&mut self, p: u32, part: &mut [Cop]) {
        let pi = p as usize;
        // A part lists its compensations first, by descending base.
        let comps = |part: &[Cop]| {
            (part.iter())
                .take_while(|c| c.kind == OpKind::Compensation)
                .count()
        };
        let held = |comps: &[Cop], fwd: usize| comps.binary_search_by(|c| fwd.cmp(&c.fwd)).ok();
        let (new, old) = (comps(part), comps(&self.overlay[pi]));
        let mut hits = take(&mut self.scratch.hits);
        let mut unblocked = false;
        for slot in 0..old {
            let o = &self.overlay[pi][slot];
            let f = o.fwd;
            if held(&part[..new], f).is_some() {
                continue;
            }
            if o.live {
                unblocked = true;
                self.pairs_after((p, slot as u32), &mut hits);
                let others = hits
                    .drain(..)
                    .filter(|q| !matches!(q, Pair::Overlay(r) if r.0 == p));
                self.scratch.retry[1].extend(others);
            } else if !o.eff_free && self.ocancelled[f] {
                self.set_cancelled(f, true, false);
            }
        }
        self.scratch.hits = hits;
        for (slot, c) in part[..new].iter_mut().enumerate() {
            let r = (p, slot as u32);
            let fresh = match held(&self.overlay[pi][..old], c.fwd) {
                Some(at) => {
                    c.live = self.overlay[pi][at].live;
                    false
                }
                None => true,
            };
            if fresh && c.live {
                self.scratch.moved(true, false, Member::Cop(r));
            }
            if c.live && (fresh || unblocked) {
                self.scratch.retry[1].push(Pair::Overlay(r));
            }
        }
    }

    /// Installs `part` as the overlay operations of dense process `p` and
    /// returns the part it replaces, its order lists emptied. Only the
    /// operations of the two parts are paired with the rest of the overlay,
    /// through the per-service buckets; every list touched stays sorted, so
    /// the overlay is a function of the parts and swapping the old part back
    /// restores it exactly.
    fn swap_part(&mut self, p: u32, part: Vec<Cop>) -> Vec<Cop> {
        let pi = p as usize;
        for slot in 0..self.overlay[pi].len() {
            let sidx = self.overlay[pi][slot].sidx as usize;
            self.svcs[sidx].overlay.retain(|r| r.0 != p);
            for &t in &self.svcs[sidx].conflicts {
                for &(q, s) in &self.svcs[t as usize].overlay {
                    if q != p {
                        let other = &mut self.overlay[q as usize][s as usize];
                        other.preds.retain(|r| r.0 != p);
                        other.ff.retain(|r| r.0 != p);
                    }
                }
            }
        }
        let mut old = std::mem::replace(&mut self.overlay[pi], part);
        for c in &mut old {
            c.preds.clear();
            c.ff.clear();
        }
        for slot in 0..self.overlay[pi].len() {
            let me = (p, slot as u32);
            let c = &self.overlay[pi][slot];
            let (sidx, kind, fwd) = (c.sidx as usize, c.kind, c.fwd);
            for &t in &self.svcs[sidx].conflicts {
                for &other in &self.svcs[t as usize].overlay {
                    let o = &self.overlay[other.0 as usize][other.1 as usize];
                    let (before, after) = match (kind, o.kind) {
                        // Own chain (8.3b/c): the bucket holds earlier slots.
                        (OpKind::Forward, _) if other.0 == p => continue,
                        (OpKind::Compensation, _) if other.0 == p => (other, me),
                        // Lemma 3, and Lemma 2: reverse order of the bases.
                        (OpKind::Compensation, OpKind::Forward) => (me, other),
                        (OpKind::Forward, OpKind::Compensation) => (other, me),
                        (OpKind::Compensation, OpKind::Compensation) => {
                            if fwd > o.fwd {
                                (me, other)
                            } else {
                                (other, me)
                            }
                        }
                        (OpKind::Forward, OpKind::Forward) => {
                            let (lo, hi) = (me.min(other), me.max(other));
                            insert_sorted(&mut self.overlay[hi.0 as usize][hi.1 as usize].ff, lo);
                            continue;
                        }
                    };
                    insert_sorted(
                        &mut self.overlay[after.0 as usize][after.1 as usize].preds,
                        before,
                    );
                }
            }
            insert_sorted(&mut self.svcs[sidx].overlay, me);
        }
        self.active.retain(|&q| q != p);
        if !self.overlay[pi].is_empty() {
            let before = |&q: &u32| self.dense_pids[q as usize] < self.dense_pids[pi];
            self.active.insert(self.active.partition_point(before), p);
        }
        old
    }

    /// Mandatory ranks (8.3d/8.3f) per dense process index: permanent
    /// original pairs (m2) plus the forced 8.3e edges into permanent
    /// completion activities, in `ProcessGraph::topological_order`'s order.
    /// Relative order is all the tie-break consumes. The result is left in
    /// `r.ranks`.
    fn mandatory_ranks(&self, r: &mut RankScratch) {
        let np = self.dense_pids.len();
        r.by_pid.clear();
        r.by_pid.extend(0..np);
        r.by_pid.sort_unstable_by_key(|&px| self.dense_pids[px]);
        r.node_of.resize(np, 0);
        for (node, &px) in r.by_pid.iter().enumerate() {
            r.node_of[px] = node;
        }
        let (node_of, rg) = (&r.node_of, &mut r.graph);
        rg.reset(np);
        for (a, b) in self.m2.nonzero() {
            rg.add_edge(node_of[a], node_of[b]);
        }
        for &p in &self.active {
            for c in self.overlay[p as usize]
                .iter()
                .filter(|c| c.kind == OpKind::Forward && self.uncompensated(c.gid))
            {
                for &t in &self.svcs[c.sidx as usize].conflicts {
                    for &i in &self.svcs[t as usize].bucket {
                        if self.perm[i] && self.ops[i].pidx != p {
                            rg.add_edge(node_of[self.ops[i].pidx as usize], node_of[p as usize]);
                        }
                    }
                }
            }
        }
        r.rank_of_node.clear();
        r.rank_of_node.extend(0..np);
        if rg.kahn(&mut r.deg, &mut r.order) {
            for (rank, &node) in r.order.iter().enumerate() {
                r.rank_of_node[node] = rank;
            }
        }
        r.ranks.clear();
        r.ranks
            .extend(node_of.iter().map(|&node| r.rank_of_node[node]));
    }

    /// The overlay operation `r` names, if its part still holds it.
    fn cop_at(&self, (p, slot): CopRef) -> Option<&Cop> {
        self.overlay.get(p as usize)?.get(slot as usize)
    }

    /// Whether `m` is live in the history's reduction, or with `completed`
    /// in the completed schedule's.
    fn member_live(&self, m: Member, completed: bool) -> bool {
        match m {
            Member::Orig(x) => self.live_in(x, completed),
            Member::Cop(r) => self.cop_at(r).is_some_and(|c| c.live),
        }
    }

    /// The pairs `m` blocks while it is live, into `out`.
    fn pairs_blocked_by(&self, m: Member, completed: bool, out: &mut Vec<Pair>) {
        match m {
            Member::Orig(x) => self.pairs_around(x, completed, out),
            Member::Cop(r) if self.cop_at(r).is_some() => self.pairs_after(r, out),
            Member::Cop(_) => {}
        }
    }

    /// Whether `pair` is cancelled: a recorded pair by the history's
    /// reduction, an overlay pair by the overlay's share.
    fn is_cancelled(&self, pair: Pair) -> bool {
        match pair {
            Pair::Recorded(f, c) => self.cancelled[f] && self.cancelled[c],
            Pair::Overlay(r) => self.cop_at(r).is_some_and(|c| !c.live && !c.eff_free),
        }
    }

    fn set_live(&mut self, r: CopRef, live: bool) {
        let c = &mut self.overlay[r.0 as usize][r.1 as usize];
        debug_assert!(c.kind == OpKind::Compensation && c.live != live && !c.eff_free);
        c.live = live;
        self.log.ops.push(Undo::CopLive(r));
        self.scratch.moved(true, !live, Member::Cop(r));
    }

    /// Takes `pair` out of the cancellations, to be re-examined.
    fn restore(&mut self, pair: Pair) {
        match pair {
            Pair::Recorded(f, c) => {
                self.set_cancelled(f, false, false);
                self.set_cancelled(c, false, false);
                self.scratch.retry[0].push(pair);
            }
            Pair::Overlay(r) => {
                self.set_live(r, true);
                let f = self.cop(r).fwd;
                if self.ocancelled[f] {
                    self.set_cancelled(f, true, false);
                }
                self.scratch.retry[1].push(pair);
            }
        }
    }

    /// Cancels `pair` if both halves are live and no live conflicting
    /// operation sits between them: an original after the base, or for an
    /// overlay pair also an overlay operation ordered directly before its
    /// compensation. A recorded pair cancels in the history's reduction, an
    /// overlay pair in the overlay's share.
    fn try_pair(&mut self, pair: Pair) {
        match pair {
            Pair::Recorded(f, c) => {
                if self.alive(f) && self.alive(c) && !self.blocked(f, c, false) {
                    self.set_cancelled(f, false, true);
                    self.set_cancelled(c, false, true);
                }
            }
            Pair::Overlay(r) => {
                let Some(c) = self.cop_at(r) else {
                    return;
                };
                let f = c.fwd;
                if c.kind == OpKind::Compensation
                    && c.live
                    && self.survives(f)
                    && !c.preds.iter().any(|&q| self.cop(q).live)
                    && !self.blocked(f, usize::MAX, true)
                {
                    self.set_live(r, false);
                    self.set_cancelled(f, true, true);
                }
            }
        }
    }

    /// Brings the history's reduction (or with `completed` the completed
    /// schedule's) back to the least fixpoint of the compensation rule,
    /// after the event's delta: the operations that came alive (`rose`) or
    /// died (`fell`) in it, and the pairs to re-examine (`retry`). The rule
    /// is over-delete, then re-derive; DESIGN.md invariant 4 gives the
    /// argument. Over-delete: every cancelled pair something live sits in
    /// is restored, and its halves rise in turn. Re-derive: every restored
    /// pair and every pair around an operation that dies is re-examined.
    fn settle(&mut self, completed: bool) {
        let l = usize::from(completed);
        let mut hits = take(&mut self.scratch.hits);
        while let Some(m) = self.scratch.rose[l].pop() {
            if !self.member_live(m, completed) {
                continue;
            }
            self.pairs_blocked_by(m, completed, &mut hits);
            for pair in hits.drain(..) {
                if self.is_cancelled(pair) {
                    self.restore(pair);
                }
            }
        }
        while let Some(pair) = self.scratch.retry[l].pop() {
            self.try_pair(pair);
        }
        while let Some(m) = self.scratch.fell[l].pop() {
            self.pairs_blocked_by(m, completed, &mut hits);
            for pair in hits.drain(..) {
                self.try_pair(pair);
            }
        }
        self.scratch.hits = hits;
    }

    /// Reducibility of the completed schedule: the process graph of the
    /// surviving originals plus the edges into and among the live overlay
    /// operations, checked against the kept order.
    fn overlay_verdict(&mut self) -> bool {
        // The ranks are derived only if two live forward operations of
        // different processes conflict.
        let cops = || self.active.iter().flat_map(|&p| &self.overlay[p as usize]);
        let mut rank_scratch = take(&mut self.scratch.ranks);
        let ranks = if cops().any(|c| c.live && !c.ff.is_empty()) {
            self.mandatory_ranks(&mut rank_scratch);
            Some(&rank_scratch.ranks)
        } else {
            None
        };
        for &p in &self.active {
            for c in self.overlay[p as usize].iter().filter(|c| c.live) {
                for &t in &self.svcs[c.sidx as usize].conflicts {
                    for &i in &self.svcs[t as usize].bucket {
                        if self.survives(i) && self.ops[i].pidx != p {
                            self.live.add_extra(self.ops[i].pidx, p);
                        }
                    }
                }
                for &(q, s) in &c.preds {
                    if q != p && self.overlay[q as usize][s as usize].live {
                        self.live.add_extra(q, p);
                    }
                }
                for &(q, s) in &c.ff {
                    if self.overlay[q as usize][s as usize].live {
                        let r = ranks.expect("derived above");
                        let key = |x: u32| (r[x as usize], self.dense_pids[x as usize]);
                        let (a, b) = if key(q) <= key(p) { (q, p) } else { (p, q) };
                        self.live.add_extra(a, b);
                    }
                }
            }
        }
        self.scratch.ranks = rank_scratch;
        self.live.verdict()
    }

    /// Undoes the event in flight: the certifier is as before `step`. The
    /// completions and working copies it discards become spares; a new
    /// process's initial state is dropped, since `touch` takes no spare for
    /// it, so the spare states never outnumber what one event touches.
    fn rollback(&mut self) {
        while let Some(undo) = self.log.ops.pop() {
            match undo {
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
                Undo::CancelFlip(i, overlay) => {
                    let set = if overlay {
                        &mut self.ocancelled
                    } else {
                        &mut self.cancelled
                    };
                    set[i] = !set[i];
                    self.flips += 1;
                }
                Undo::CopLive((p, slot)) => {
                    let c = &mut self.overlay[p as usize][slot as usize];
                    c.live = !c.live;
                }
                Undo::Pair(s) => {
                    self.svcs[s as usize].pairs.pop();
                }
                Undo::Op => {
                    let o = self.ops.pop().expect("logged operation");
                    self.perm.pop();
                    self.live_base.pop();
                    self.cancelled.pop();
                    self.ocancelled.pop();
                    self.svcs[o.sidx as usize].bucket.pop();
                    self.proc_ops[o.pidx as usize].pop();
                    if o.kind == OpKind::Forward {
                        self.fwd_of.remove(&o.gid);
                    }
                }
                Undo::Process => {
                    let pid = self.dense_pids.pop().expect("logged process");
                    self.pid_dense.remove(pid);
                    self.proc_ops.pop();
                    self.overlay.pop();
                    self.m2.resize(self.proc_ops.len());
                    self.live.counts.resize(self.proc_ops.len());
                    self.live.pop_node();
                }
                Undo::Service => {
                    let s = self.svcs.pop().expect("logged service");
                    self.svc_idx.remove(s.id);
                    let k = self.svcs.len() as u32;
                    for &t in s.conflicts.iter().filter(|&&t| t != k) {
                        self.svcs[t as usize].conflicts.pop();
                    }
                }
                Undo::Overlay(p) => {
                    let old = self.log.parts.pop().expect("logged overlay part");
                    let discarded = self.swap_part(p, old);
                    self.scratch.parts.push(discarded);
                }
            }
        }
        let spare = &mut self.scratch;
        for (pid, old) in self.log.completions.drain(..).rev() {
            spare.completions.extend(match old {
                Some(c) => self.completion_cache.insert(pid, c),
                None => self.completion_cache.remove(&pid),
            });
        }
        for (pid, old) in self.log.states.drain(..).rev() {
            match old {
                Some(st) => spare.states.extend(self.states.insert(pid, st)),
                None => drop(self.states.remove(&pid)),
            }
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
    use crate::completion::{complete, CompletedSchedule};
    use crate::conflict::ConflictMatrix;
    use crate::fixtures;
    use crate::ids::{ActivityId, ProcessId};
    use crate::order::PartialOrder;
    use crate::pred::check_pred;
    use crate::process::ProcessBuilder;
    use crate::reduction::{reduce, ReductionOutcome};
    use crate::schedule::Op;
    use crate::state::FailureOutcome;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type PidPairs = BTreeMap<(ProcessId, ProcessId), u32>;
    type OpKey = (GlobalActivityId, OpKind);

    fn bit_get(row: &[u64], i: usize) -> bool {
        row.get(i / 64).is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    impl DenseGraph {
        fn edges(&self) -> Vec<(usize, usize)> {
            (0..self.n)
                .flat_map(|a| (0..self.n).map(move |b| (a, b)))
                .filter(|&(a, b)| bit_get(&self.adj[a * self.words..(a + 1) * self.words], b))
                .collect()
        }
    }

    impl LiveGraph {
        /// The kept order's invariant: while it is valid, every edge ascends.
        fn assert_order_holds(&self, at: &str) {
            assert_eq!(self.pos.len(), self.graph.n, "{at}: a position per node");
            if self.ordered {
                for (a, b) in self.graph.edges() {
                    assert!(
                        self.pos[a] < self.pos[b],
                        "{at}: edge {a}→{b} against the order"
                    );
                }
            }
        }
    }

    impl IncrementalPred<'_> {
        fn by_pid(&self, counts: &PairCounts) -> PidPairs {
            counts
                .nonzero()
                .map(|(a, b)| ((self.dense_pids[a], self.dense_pids[b]), counts.get(a, b)))
                .collect()
        }

        /// The persistent overlay operations in completion order.
        fn cops(&self) -> impl Iterator<Item = &Cop> {
            self.active.iter().flat_map(|&p| &self.overlay[p as usize])
        }

        /// Everything that carries meaning, rendered for comparison: all
        /// fields but the row stride, the kept order and the buffers of
        /// `live`, the `scratch` buffers and spares, and the counters.
        fn logical_state(&self) -> String {
            let (g, edges) = (&self.live.graph, self.live.graph.edges());
            format!(
                "{:?}",
                (
                    (&self.len, &self.states, &self.committed, &self.ops),
                    (&self.svc_idx, &self.svcs, &self.dense_pids),
                    (&self.pid_dense, &self.proc_ops, &self.fwd_of),
                    (&self.comp_gids, &self.perm),
                    (&self.completion_cache, self.by_pid(&self.m2)),
                    (&self.live_base, &self.cancelled, &self.ocancelled),
                    (self.by_pid(&self.live.counts), g.n, edges, &g.indeg),
                    (&self.overlay, &self.active, &self.live.extra),
                    (&self.prefix_reducible, &self.first_violation),
                    (&self.log.ops, self.log.states.len(), &self.kept),
                    (self.log.completions.len(), self.log.parts.len()),
                )
            )
        }

        /// The persistent overlay's ordered pairs of different processes,
        /// the 8.3(d)/(f) ones oriented by the current ranks.
        fn overlay_order(&self) -> BTreeSet<(OpKey, OpKey)> {
            let mut r = RankScratch::default();
            self.mandatory_ranks(&mut r);
            let rank = |q: u32| (r.ranks[q as usize], self.dense_pids[q as usize]);
            let mut order = BTreeSet::new();
            for &p in &self.active {
                for c in &self.overlay[p as usize] {
                    let pair = |&(q, s): &CopRef, before: bool| {
                        let (o, c) = (&self.overlay[q as usize][s as usize], (c.gid, c.kind));
                        let o = (o.gid, o.kind);
                        if before {
                            (o, c)
                        } else {
                            (c, o)
                        }
                    };
                    order.extend(c.preds.iter().filter(|r| r.0 != p).map(|r| pair(r, true)));
                    order.extend(c.ff.iter().map(|r| pair(r, rank(r.0) <= rank(p))));
                }
            }
            order
        }

        /// Conflicting cross-process pairs of the original operations `keep`
        /// selects, per process pair in history order.
        fn pair_counts(&self, keep: &[bool]) -> PidPairs {
            let oracle = self.spec.oracle();
            let mut counts = PidPairs::new();
            for (j, y) in self.ops.iter().enumerate() {
                for (i, x) in self.ops[..j].iter().enumerate() {
                    if keep[i]
                        && keep[j]
                        && x.gid.process != y.gid.process
                        && oracle.conflict(x.service, y.service)
                    {
                        *counts.entry((x.gid.process, y.gid.process)).or_default() += 1;
                    }
                }
            }
            counts
        }

        /// Permanence from its definition.
        fn permanence_from_scratch(&self) -> Vec<bool> {
            let permanent = |op: &OrigOp| op.kind == OpKind::Forward && self.uncompensated(op.gid);
            self.ops.iter().map(permanent).collect()
        }
    }

    /// The completion overlay and the reduction derived from nothing but the
    /// history, by the batch reference: `complete` builds the overlay
    /// operations and `≪̃` over all of `S̃` (Definition 8), `reduce` runs
    /// rule 3, the compensation rule over the closure of `≪̃` and the
    /// process graph of what remains — what `live`, `ocancelled` and the
    /// overlay's `live` flags describe between events. Without `overlay` the
    /// completion is cut off again — what `cancelled` describes.
    fn overlay_from_scratch(
        spec: &Spec,
        history: &Schedule,
        overlay: bool,
    ) -> (CompletedSchedule, ReductionOutcome) {
        let mut completed = complete(spec, history).unwrap();
        if !overlay {
            let n = completed.original_len;
            let mut order = PartialOrder::new(n);
            for a in 0..n {
                for &b in completed.order.successors(a).iter().filter(|&&b| b < n) {
                    order.add(a, b);
                }
            }
            completed.ops.truncate(n);
            completed.order = order;
        }
        let outcome = reduce(spec, &completed);
        (completed, outcome)
    }

    /// A world the paper's fixture does not reach: `processes` processes of
    /// P₁'s shape over a shared pool of nine services with random conflicts
    /// (self-conflicts included) and random effect-free services, so that
    /// pairs nest across processes and commits revive operations (rule 3).
    fn random_world(seed: u64, processes: u32) -> Spec {
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
        for p in 1..=processes {
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

    /// How [`random_history`] picks the process of the next step.
    #[derive(Clone, Copy)]
    enum Pick {
        /// An active process at random.
        Random,
        /// Every process in turn first, so that all are active at once,
        /// then at random.
        Wide,
    }

    /// A random legal history: each step picks an active process and runs
    /// its pending compensation, or aborts it, or executes or fails its
    /// next activity; finished processes commit with probability 1/2.
    fn random_history(spec: &Spec, seed: u64, max_events: usize, pick: Pick) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = Schedule::new();
        let mut states: Vec<ProcessState<'_>> = spec
            .processes()
            .map(|p| ProcessState::new(p, &spec.catalog).expect("tree process"))
            .collect();
        for step in 0..max_events {
            let live: Vec<usize> = (0..states.len())
                .filter(|&i| states[i].is_active())
                .collect();
            if live.is_empty() {
                break;
            }
            let at = match pick {
                Pick::Wide if step < states.len() => step,
                _ => live[rng.gen_range(0..live.len())],
            };
            let st = &mut states[at];
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

    /// Drives one certifier over `s` and demands, at every event: `certify`,
    /// a refused `certify_keep` and an illegal event leave the full state
    /// untouched (the overlay-cancelled set included); the verdict is the
    /// batch checker's and the from-scratch derivation's; and the
    /// persistent permanence, both cancelled sets, pair counts and
    /// completion overlay (operations, order, what its fixpoint left) are
    /// what a derivation from the whole history gives, and a valid kept
    /// order orders every live edge. Returns the largest number of
    /// processes the overlay covered at once, and how often a verdict took
    /// each path ([`LiveGraph::paths`]).
    fn assert_reduction_state_tracks_scratch(
        spec: &Spec,
        s: &Schedule,
        label: &str,
    ) -> (usize, [u64; 2]) {
        let batch = check_pred(spec, s).unwrap();
        let mut inc = IncrementalPred::new(spec);
        let mut widest = 0;
        for (i, e) in s.events().iter().enumerate() {
            let at = format!("{label} event {i} ({e:?})");
            let before = inc.logical_state();
            let overlay_set = inc.ocancelled.clone();
            let what_if = inc.certify(e).unwrap();
            assert_eq!(inc.logical_state(), before, "{at}: certify mutated");
            assert_eq!(inc.ocancelled, overlay_set, "{at}: certify moved the set");
            inc.live.assert_order_holds(&at);
            assert!(inc.certify(&Event::Commit(ProcessId(99))).is_err());
            assert_eq!(inc.logical_state(), before, "{at}: illegal event mutated");
            let kept = inc.certify_keep(e).unwrap();
            assert_eq!(kept, what_if, "{at}: kept");
            if !kept.reducible {
                assert_eq!(inc.logical_state(), before, "{at}: refusal mutated");
                assert_eq!(inc.ocancelled, overlay_set, "{at}: refusal moved the set");
            }
            let recorded = inc.record(e).unwrap();
            inc.live.assert_order_holds(&at);
            assert_eq!(what_if, recorded, "{at}");
            assert_eq!(recorded.prefix_len, i + 1, "{at}");
            assert_eq!(recorded.reducible, batch.prefix_reducible[i + 1], "{at}");

            let n = inc.ops.len();
            let (_, originals) = overlay_from_scratch(spec, &s.prefix(i + 1), false);
            let alive: Vec<bool> = (0..n).map(|x| inc.alive(x)).collect();
            assert_eq!(alive, originals.live, "{at}: cancellation set");
            let perm = inc.permanence_from_scratch();
            assert_eq!(inc.by_pid(&inc.m2), inc.pair_counts(&perm), "{at}: m2");
            assert_eq!(inc.perm, perm, "{at}: permanence");

            let (completed, scratch) = overlay_from_scratch(spec, &s.prefix(i + 1), true);
            assert_eq!(recorded.reducible, scratch.reducible, "{at}: verdict");
            // The completed schedule's reduction of the originals: the
            // history's plus the overlay's disjoint share, which the live
            // pairs count.
            let survives: Vec<bool> = (0..n).map(|x| inc.survives(x)).collect();
            assert_eq!(survives, scratch.live[..n], "{at}: overlay-cancelled set");
            let both = (0..n).filter(|&x| inc.cancelled[x] && inc.ocancelled[x]);
            assert_eq!(both.count(), 0, "{at}: the cancelled sets overlap");
            // The overlay's share cancels overlay pairs only.
            let bases: Vec<bool> = (0..n)
                .map(|x| {
                    let cancelled = |c: &Cop| c.kind == OpKind::Compensation && !c.live;
                    inc.cops()
                        .any(|c| c.fwd == x && cancelled(c) && !c.eff_free)
                })
                .collect();
            assert_eq!(inc.ocancelled, bases, "{at}: overlay share");
            let live_pairs = inc.pair_counts(&scratch.live[..n]);
            assert_eq!(inc.by_pid(&inc.live.counts), live_pairs, "{at}: live pairs");
            let key = |o: &Op| (o.gid, o.kind);
            let cops = completed.completion_ops();
            let ops: Vec<OpKey> = inc.cops().map(|c| (c.gid, c.kind)).collect();
            let expected: Vec<OpKey> = cops.iter().map(key).collect();
            assert_eq!(ops, expected, "{at}: overlay operations");
            // The direct `≪̃` edges between overlay operations of different
            // processes.
            let ordered: BTreeSet<(OpKey, OpKey)> = cops
                .iter()
                .flat_map(|b| {
                    let (ops, preds) = (&completed.ops, completed.order.predecessors(b.index));
                    preds.iter().map(move |&a| (&ops[a], b))
                })
                .filter(|(a, b)| a.from_completion && a.gid.process != b.gid.process)
                .map(|(a, b)| (key(a), key(b)))
                .collect();
            assert_eq!(inc.overlay_order(), ordered, "{at}: overlay order");
            let left: Vec<bool> = inc.cops().map(|c| c.live).collect();
            assert_eq!(left, scratch.live[n..], "{at}: overlay fixpoint");
            widest = widest.max(inc.active.len());
        }
        assert_eq!(inc.report(), batch, "{label}");
        (widest, inc.live.paths)
    }

    #[test]
    fn persistent_reduction_equals_scratch_derivation_after_every_event() {
        let fx = fixtures::paper_world();
        let mut paths = [0; 2];
        let mut tally = |(widest, [order, kahn]): (usize, [u64; 2])| {
            paths[0] += order;
            paths[1] += kahn;
            widest
        };
        for seed in 0..256u64 {
            let s = random_history(&fx.spec, seed, 24, Pick::Random);
            let label = format!("paper seed {seed}");
            tally(assert_reduction_state_tracks_scratch(&fx.spec, &s, &label));
        }
        for seed in 0..256u64 {
            let spec = random_world(seed, 5);
            let s = random_history(&spec, seed, 40, Pick::Random);
            let label = format!("world seed {seed}");
            tally(assert_reduction_state_tracks_scratch(&spec, &s, &label));
        }
        // The shape the engine driver runs: a whole input active at once.
        for seed in 0..12u64 {
            let spec = random_world(seed, 30);
            let s = random_history(&spec, seed, 110, Pick::Wide);
            let label = format!("wide seed {seed}");
            let widest = tally(assert_reduction_state_tracks_scratch(&spec, &s, &label));
            assert!(widest >= 16, "wide seed {seed}: {widest} processes at once");
        }
        // Vacuity guard: the sweeps reach both ways of answering a verdict
        // with overlay edges.
        let [order, kahn] = paths;
        assert!(
            order > 0 && kahn > 0,
            "order-only {order}, fallback Kahn {kahn}"
        );
    }

    /// A what-if that names a new process and a new service rolls back
    /// `Undo::Process` and `Undo::Service`: each removes exactly the index
    /// entry its step added, so both indices are as before, entry for entry.
    #[test]
    fn a_rolled_back_step_removes_exactly_the_entries_it_added() {
        let fx = fixtures::paper_world();
        let mut inc = IncrementalPred::new(&fx.spec);
        for g in [fx.a(2, 1), fx.a(2, 2), fx.a(3, 1)] {
            inc.record(&Event::Execute(g)).unwrap();
        }
        let (svcs, pids) = (inc.svc_idx.clone(), inc.pid_dense.clone());
        assert_eq!((svcs.len(), pids.len()), (3, 2));
        let p1 = fx.a(1, 1);
        let s11 = fx.spec.service_of(p1).unwrap();
        assert_eq!(
            (inc.pid_dense.get(p1.process), inc.svc_idx.get(s11)),
            (None, None)
        );
        inc.certify(&Event::Execute(p1)).unwrap();
        assert_eq!(inc.pid_dense, pids, "Undo::Process");
        assert_eq!(inc.svc_idx, svcs, "Undo::Service");
        assert_eq!(inc.dense_pids.len(), pids.len());
        assert_eq!(inc.svcs.len(), svcs.len());
        // Kept, the step adds the two entries at the next dense indices.
        inc.record(&Event::Execute(p1)).unwrap();
        assert_eq!(inc.pid_dense.get(p1.process), Some(&2));
        assert_eq!(inc.svc_idx.get(s11), Some(&3));
        assert!(pids.iter().all(|(p, d)| inc.pid_dense.get(p) == Some(d)));
        assert!(svcs.iter().all(|(s, k)| inc.svc_idx.get(s) == Some(k)));
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

    /// The paper's schedules and the event kinds they lack, each held
    /// against the batch reference after every event.
    #[test]
    fn paper_schedules_track_the_batch_reference() {
        let fx = fixtures::paper_world();
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        let mut failure = Schedule::new();
        failure
            .execute(fx.a(1, 1))
            .execute(fx.a(1, 2))
            .execute(fx.a(1, 3))
            .fail(fx.a(1, 4))
            .compensate(fx.a(1, 3))
            .execute(fx.a(1, 5))
            .execute(fx.a(1, 6))
            .commit(p1);
        let mut abort = Schedule::new();
        abort
            .execute(fx.a(1, 1))
            .execute(fx.a(1, 2))
            .execute(fx.a(1, 3))
            .abort(p1)
            .compensate(fx.a(1, 3))
            .execute(fx.a(1, 5))
            .execute(fx.a(1, 6));
        let mut group_abort = Schedule::new();
        group_abort.execute(fx.a(1, 1));
        for k in 1..=5 {
            group_abort.execute(fx.a(2, k));
        }
        group_abort.commit(p2).group_abort(vec![p1, p2]);
        let mut quasi_commit = Schedule::new();
        quasi_commit
            .execute(fx.a(1, 1))
            .execute(fx.a(1, 2))
            .execute(fx.a(3, 1))
            .execute(fx.a(1, 3));
        for (label, s, violation) in [
            ("example 8, st2", st2(&fx), Some(4)),
            ("example 9, figure 7", figure7(&fx), None),
            ("failure and compensation", failure, None),
            ("abort and completion", abort, None),
            ("group abort", group_abort, Some(4)),
            ("example 10, quasi commit", quasi_commit, None),
        ] {
            assert_reduction_state_tracks_scratch(&fx.spec, &s, label);
            let report = check_pred_incremental(&fx.spec, &s).unwrap();
            assert_eq!(report.first_violation, violation, "{label}");
        }
    }

    /// `GroupAbort` is the one event that touches many processes, and it
    /// replaces no overlay part: Definition 8's completion *is* what an abort
    /// executes, so aborting leaves every pending completion as it was. The
    /// compensations that follow replace one part each.
    #[test]
    fn group_abort_over_many_processes_replaces_no_overlay_part() {
        for seed in 0..4u64 {
            let spec = random_world(seed, 28);
            let mut s = random_history(&spec, seed, 40, Pick::Wide);
            let mut inc = IncrementalPred::new(&spec);
            for e in s.events() {
                inc.record(e).unwrap();
            }
            let group: Vec<ProcessId> = (inc.active.iter())
                .map(|&p| inc.dense_pids[p as usize])
                .collect();
            assert!(group.len() >= 16, "seed {seed}: {} processes", group.len());
            let abort = Event::GroupAbort(group.clone());
            inc.step(&abort).unwrap();
            assert_eq!(inc.log.parts.len(), 0, "seed {seed}: parts replaced");
            inc.rollback();
            inc.record(&abort).unwrap();
            s.group_abort(group.clone());
            for pid in group {
                let mut st = inc.states[&pid].clone();
                while let Some(c) = st.next_compensation() {
                    st.apply_compensation(c).unwrap();
                    let e = Event::Compensate(GlobalActivityId::new(pid, c));
                    inc.step(&e).unwrap();
                    assert_eq!(inc.log.parts.len(), 1, "seed {seed}: {e:?}");
                    inc.rollback();
                    inc.record(&e).unwrap();
                    s.compensate(GlobalActivityId::new(pid, c));
                }
            }
            assert_reduction_state_tracks_scratch(&spec, &s, &format!("group abort seed {seed}"));
        }
    }

    /// A live graph of `n` isolated nodes, in index order.
    fn live_graph(n: usize) -> LiveGraph {
        let mut g = LiveGraph::new();
        g.counts.resize(n);
        (0..n).for_each(|_| g.push_node());
        g
    }

    #[test]
    fn an_overlay_edge_against_the_kept_order_falls_back_and_replaces_it() {
        let mut g = live_graph(3);
        g.bump(0, 1, true);
        g.add_extra(2, 0);
        assert!(g.verdict(), "0→1 plus 2→0 is acyclic");
        assert_eq!(g.paths, [0, 1], "answered by Kahn");
        assert!(g.ordered);
        assert_eq!(g.pos, [1, 2, 0], "Kahn's order 2, 0, 1 is kept");
        assert_eq!(g.graph.edges(), [(0, 1)], "the overlay edge is taken out");
        // The same overlay edge now ascends: no traversal.
        g.add_extra(2, 0);
        assert!(g.verdict());
        assert_eq!(g.paths, [1, 1]);
    }

    #[test]
    fn an_overlay_edge_closing_a_cycle_is_refused_and_the_order_stays_valid() {
        let mut g = live_graph(3);
        g.bump(0, 1, true);
        g.add_extra(1, 0);
        assert!(!g.verdict(), "0→1 plus 1→0 is a cycle");
        assert_eq!(g.paths, [0, 1]);
        assert!(g.ordered, "the live graph alone still ascends");
        assert_eq!(
            (g.pos.as_slice(), g.graph.edges()),
            ([0, 1, 2].as_slice(), vec![(0, 1)])
        );
        // The next verdicts are still right, from the order.
        assert!(g.verdict());
        g.add_extra(1, 2);
        assert!(g.verdict());
        g.add_extra(2, 0);
        g.add_extra(1, 2);
        assert!(!g.verdict(), "0→1→2→0");
        assert_eq!(g.paths, [1, 2]);
    }

    #[test]
    fn a_live_edge_against_the_order_clears_it_until_a_traversal_reorders() {
        let mut g = live_graph(2);
        g.bump(1, 0, true);
        assert!(!g.ordered, "1→0 runs against positions 0, 1");
        assert!(g.verdict());
        assert_eq!((g.ordered, g.pos.as_slice()), (true, [1, 0].as_slice()));
        // A second pair count on the same edge is no new edge.
        g.bump(1, 0, true);
        g.bump(0, 1, true);
        assert!(!g.ordered);
        assert!(!g.verdict(), "1→0→1");
        assert!(!g.ordered, "a cyclic graph installs no order");
        // Removing an edge never clears the order, nor restores it.
        g.bump(0, 1, false);
        assert!(!g.ordered);
        assert!(g.verdict());
        assert!(g.ordered);
        assert_eq!(g.paths, [0, 3]);
    }

    /// St₂'s fourth event closes a cycle only through the completion
    /// overlay (P₁'s pending `a1_1⁻¹` after P₂'s permanent `a2_1`), so
    /// refusing it, like a what-if before it, leaves the order valid.
    /// Before it, both processes' pending compensations cancel every
    /// original, so the live graph has its two nodes and no edge.
    #[test]
    fn a_what_if_and_a_refused_candidate_leave_the_order_valid() {
        let fx = fixtures::paper_world();
        let events = st2(&fx).events().to_vec();
        let mut inc = IncrementalPred::new(&fx.spec);
        for e in &events[..3] {
            inc.record(e).unwrap();
        }
        assert_eq!(inc.ocancelled, [true; 3]);
        assert_eq!((inc.live.graph.n, inc.live.graph.edges()), (2, vec![]));
        assert!(inc.certify(&Event::Execute(fx.a(1, 2))).unwrap().reducible);
        assert!(!inc.certify_keep(&events[3]).unwrap().reducible);
        assert!(inc.live.ordered, "the order survived");
        inc.live.assert_order_holds("after the refusal");
        assert_eq!(inc.live.paths[1], 1, "only the refusal traversed");
    }

    /// Three processes over a service `c`: P compensates `c` until its
    /// pivot; Q runs a pivot that conflicts with `c`; R runs an effect-free
    /// read of what `c` writes, then a pivot. While P has not passed its
    /// pivot, its pending `a1⁻¹` forms the overlay pair `(P.a1, a1⁻¹)`.
    fn overlay_pair_world() -> Spec {
        let mut cat = Catalog::new();
        let (c, _) = cat.compensatable("c");
        let (read, _) = cat.compensatable("read");
        let writes = cat.pivot("writes");
        let pivot = cat.pivot("pivot");
        let retriable = cat.retriable("retriable");
        let mut conflicts = ConflictMatrix::new(&cat);
        conflicts.declare_conflict(&cat, c, writes).unwrap();
        conflicts.declare_conflict(&cat, c, read).unwrap();
        cat.mark_effect_free(read).unwrap();
        let mut spec = Spec::new(cat, conflicts);
        for (pid, first, second) in [(1, c, pivot), (2, writes, retriable), (3, read, pivot)] {
            let mut b = ProcessBuilder::new(ProcessId(pid), format!("P{pid}"));
            let a1 = b.activity("a1", first);
            let a2 = b.activity("a2", second);
            b.precede(a1, a2);
            let process = b.build(&spec.catalog).unwrap();
            spec.add_process(process);
        }
        spec
    }

    /// Records `events` and returns the certifier, having held every step
    /// against the from-scratch derivation.
    fn recorded<'a>(spec: &'a Spec, events: &Schedule, label: &str) -> IncrementalPred<'a> {
        assert_reduction_state_tracks_scratch(spec, events, label);
        let mut inc = IncrementalPred::new(spec);
        for e in events.events() {
            inc.record(e).unwrap();
        }
        inc
    }

    /// A new live original after an overlay pair's base that conflicts
    /// with it blocks the pair: its base survives again.
    #[test]
    fn a_new_original_uncancels_the_overlay_pair_it_sits_in() {
        let spec = overlay_pair_world();
        let g = |p, a| GlobalActivityId::new(ProcessId(p), ActivityId(a));
        let mut s = Schedule::new();
        s.execute(g(1, 0));
        let inc = recorded(&spec, &s, "P.a1");
        assert_eq!(inc.ocancelled, [true]);
        assert!(!inc.cop((0, 0)).live, "a1⁻¹ cancelled with P.a1");
        s.execute(g(2, 0));
        let inc = recorded(&spec, &s, "P.a1, Q.a1");
        assert_eq!(inc.ocancelled, [false, false]);
        assert!(inc.cop((0, 0)).live, "a1⁻¹ restored");
        assert_eq!(inc.live.graph.edges(), [(0, 1)], "P → Q counted");
    }

    /// A part replacement that drops a cancelled overlay pair gives its
    /// base back: P's pivot leaves nothing to compensate.
    #[test]
    fn a_part_replacement_removes_a_cancelled_overlay_pair() {
        let spec = overlay_pair_world();
        let g = |p, a| GlobalActivityId::new(ProcessId(p), ActivityId(a));
        let mut s = Schedule::new();
        s.execute(g(1, 0));
        assert_eq!(recorded(&spec, &s, "P.a1").ocancelled, [true]);
        s.execute(g(1, 1));
        let inc = recorded(&spec, &s, "P.a1, P.a2");
        assert!(inc.active.is_empty(), "P has nothing left to complete");
        assert_eq!(inc.ocancelled, [false, false]);
    }

    /// A commit's revived operation blocks the overlay pair it sits in: R's
    /// read of `c` is dead (effect-free, R uncommitted) until R commits.
    #[test]
    fn a_commit_revival_blocks_an_overlay_pair() {
        let spec = overlay_pair_world();
        let g = |p, a| GlobalActivityId::new(ProcessId(p), ActivityId(a));
        let mut s = Schedule::new();
        s.execute(g(1, 0)).execute(g(3, 0)).execute(g(3, 1));
        let inc = recorded(&spec, &s, "before C_R");
        assert_eq!(inc.live_base, [true, false, true]);
        assert_eq!(inc.ocancelled, [true, false, false]);
        s.commit(ProcessId(3));
        let inc = recorded(&spec, &s, "after C_R");
        assert_eq!(inc.live_base, [true; 3]);
        assert_eq!(inc.ocancelled, [false; 3]);
        assert_eq!(inc.live.graph.edges(), [(0, 1)], "P → R counted");
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
    fn replaying_the_history_rebuilds_the_live_certifier() {
        let fx = fixtures::paper_world();
        for s in [st2(&fx), figure7(&fx)] {
            // The history is the certifier's durable form: one that lived
            // through what-ifs and kept candidates and one rebuilt from the
            // history's JSON image hold the same state, field for field —
            // and so give every future certification the same answer.
            let mut live = IncrementalPred::new(&fx.spec);
            for e in s.events() {
                live.certify(e).unwrap();
                live.certify_keep(e).unwrap();
                live.record(e).unwrap();
            }
            let json = serde_json::to_string(&s).unwrap();
            let back: Schedule = serde_json::from_str(&json).unwrap();
            let mut replayed = IncrementalPred::new(&fx.spec);
            for e in back.events() {
                replayed.record(e).unwrap();
            }
            assert_eq!(replayed.logical_state(), live.logical_state());
            assert_eq!(replayed.report(), live.report());
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
