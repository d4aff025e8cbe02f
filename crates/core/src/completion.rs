//! Completed process schedules `S̃` (Definition 8, Figure 5).
//!
//! The completion construction makes recovery explicit: all processes that
//! did not commit in `S` are treated as aborted via a set-oriented group
//! abort appended at the end of the history, and each such process's abort is
//! replaced by the activities of its completion `𝒞(P_i)` — compensations of
//! local backward recovery followed by the retriable activities of the
//! forward recovery path. Unlike the *expanded* schedules of the traditional
//! unified theory, completions may introduce **new** activities (the forward
//! recovery path) and hence new conflicts (§3.5), which is why correctness of
//! transactional processes must always be judged on `S̃`.
//!
//! The ordering rules for completion activities follow Definition 8.3 and
//! the paper's Lemmas 2 and 3:
//!
//! * intra-process: completion activities follow the process's original
//!   activities, compensations before forward activities (8.3b, 8.3c),
//! * a completion activity follows every conflicting activity of the
//!   original history (8.3e — the group abort sits at the end of `S`),
//! * conflicting compensations of different processes run in reverse order
//!   of their base activities (Lemma 2),
//! * a conflicting (compensation, forward-recovery) pair runs compensation
//!   first (Lemma 3),
//! * conflicting forward-recovery activities of different processes follow
//!   the serialization order of `S` where one exists (8.3d/8.3f), with a
//!   deterministic tie-break otherwise.

use crate::error::ScheduleError;
use crate::ids::{GlobalActivityId, ProcessId};
use crate::order::PartialOrder;
use crate::schedule::{Op, OpKind, Schedule};
use crate::spec::Spec;
use crate::state::ProcessState;
use std::borrow::Borrow;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};

/// A completed process schedule `S̃`.
#[derive(Debug, Clone)]
pub struct CompletedSchedule {
    /// All operations: the original history's (in order), then the
    /// completion-added ones (`from_completion = true`).
    pub ops: Vec<Op>,
    /// The partial order `≪̃_S` over operation indices.
    pub order: PartialOrder,
    /// Processes that committed in the original history `S`.
    pub committed_in_s: BTreeSet<ProcessId>,
    /// Processes completed through (group) abort.
    pub aborted: BTreeSet<ProcessId>,
    /// Number of operations that stem from the original history.
    pub original_len: usize,
}

impl CompletedSchedule {
    /// Operations added by the completion construction.
    pub fn completion_ops(&self) -> &[Op] {
        &self.ops[self.original_len..]
    }
}

/// Builds the completed process schedule `S̃` of a history (Definition 8).
pub fn complete(spec: &Spec, schedule: &Schedule) -> Result<CompletedSchedule, ScheduleError> {
    let replay = schedule.replay(spec)?;
    let committed_in_s: BTreeSet<ProcessId> = replay.commit_event.keys().copied().collect();
    let mut aborted: BTreeSet<ProcessId> = replay.abort_event.keys().copied().collect();
    let mut ops = replay.ops;
    let original_len = ops.len();
    aborted.extend(append_completions(
        spec,
        &replay.states,
        &mut ops,
        schedule.len(),
    )?);
    let order = build_order(spec, &ops, original_len);
    Ok(CompletedSchedule {
        ops,
        order,
        committed_in_s,
        aborted,
        original_len,
    })
}

/// The rank of each process of a history that [`complete`] orders
/// conflicting forward-recovery activities by (8.3d/8.3f, the mandatory
/// ranks below): a lower-ranked process's go first. `states` are the
/// machines the history left, ascending by pid (`&Replay::states`, or a
/// scheduler's own, read in place); a process with no operation has no
/// rank.
pub fn forward_ranks<'s, 'p: 's, P: Borrow<ProcessId>>(
    spec: &Spec,
    schedule: &Schedule,
    states: impl IntoIterator<Item = (P, &'s ProcessState<'p>)>,
) -> Result<BTreeMap<ProcessId, usize>, ScheduleError> {
    let mut ops = Vec::new();
    for (event_index, event) in schedule.events().iter().enumerate() {
        let Some((gid, kind)) = event.effect() else {
            continue;
        };
        let service = spec.catalog.base(spec.service_of(gid)?);
        let (index, from_completion) = (ops.len(), false);
        ops.push(Op {
            index,
            event_index,
            gid,
            service,
            kind,
            from_completion,
        });
    }
    let original_len = ops.len();
    append_completions(spec, states, &mut ops, schedule.len())?;
    Ok(mandatory_ranks(spec, &ops, original_len))
}

/// 8.2b/8.2c: appends the completion activities of every still-active
/// process of `states` — ascending process id, compensations before
/// forward recovery — and returns the processes completed that way.
fn append_completions<'s, 'p: 's, P: Borrow<ProcessId>>(
    spec: &Spec,
    states: impl IntoIterator<Item = (P, &'s ProcessState<'p>)>,
    ops: &mut Vec<Op>,
    event_base: usize,
) -> Result<Vec<ProcessId>, ScheduleError> {
    let original_len = ops.len();
    let mut completed = Vec::new();
    for (pid, state) in states {
        let pid = *pid.borrow();
        if !state.is_active() {
            continue;
        }
        completed.push(pid);
        let process = spec.process(pid)?;
        for (a, kind) in state.completion().ops() {
            let index = ops.len();
            ops.push(Op {
                index,
                event_index: event_base + (index - original_len),
                gid: GlobalActivityId::new(pid, a),
                service: spec.catalog.base(process.service(a)),
                kind,
                from_completion: true,
            });
        }
    }
    Ok(completed)
}

/// Operation indices by (base) service, each bucket ascending.
fn by_service(spec: &Spec, ops: &[Op]) -> Vec<Vec<usize>> {
    let mut buckets = vec![Vec::new(); spec.catalog.len()];
    for op in ops {
        buckets[op.service.index()].push(op.index);
    }
    buckets
}

/// The one orientation rule for a conflicting pair of completion activities
/// of different processes (Lemmas 2 and 3, 8.3d/8.3f), which [`complete`]
/// applies to every such pair.
struct Orientation<'a> {
    spec: &'a Spec,
    ops: &'a [Op],
    original_len: usize,
    /// Position of the base activity of every completion compensation
    /// (Lemma 2's reverse ordering).
    base_pos: BTreeMap<GlobalActivityId, usize>,
    /// Process ranks for 8.3d/8.3f, derived on the first forward/forward
    /// pair (see [`mandatory_ranks`]).
    ranks: OnceCell<BTreeMap<ProcessId, usize>>,
}

impl<'a> Orientation<'a> {
    fn new(spec: &'a Spec, ops: &'a [Op], original_len: usize) -> Self {
        let compensated: BTreeSet<GlobalActivityId> = ops[original_len..]
            .iter()
            .filter(|o| o.kind == OpKind::Compensation)
            .map(|o| o.gid)
            .collect();
        let base_pos = ops
            .iter()
            .filter(|o| o.kind == OpKind::Forward && compensated.contains(&o.gid))
            .map(|o| (o.gid, o.index))
            .collect();
        Self {
            spec,
            ops,
            original_len,
            base_pos,
            ranks: OnceCell::new(),
        }
    }

    /// Whether `x ≪̃ y`, for conflicting completion activities of different
    /// processes with `x.index < y.index`; `y ≪̃ x` otherwise.
    fn precedes(&self, x: &Op, y: &Op) -> bool {
        match (x.kind, y.kind) {
            // Lemma 3: compensation precedes conflicting forward recovery.
            (OpKind::Compensation, OpKind::Forward) => true,
            (OpKind::Forward, OpKind::Compensation) => false,
            // Lemma 2: compensations in reverse order of their bases.
            (OpKind::Compensation, OpKind::Compensation) => {
                match (self.base_pos.get(&x.gid), self.base_pos.get(&y.gid)) {
                    (Some(bx), Some(by)) => bx >= by,
                    _ => true,
                }
            }
            // 8.3d/8.3f: forward-recovery activities follow the
            // serialization order of S.
            (OpKind::Forward, OpKind::Forward) => {
                let ranks = self
                    .ranks
                    .get_or_init(|| mandatory_ranks(self.spec, self.ops, self.original_len));
                let rank = |p: ProcessId| (ranks.get(&p).copied().unwrap_or(usize::MAX), p);
                rank(x.gid.process) <= rank(y.gid.process)
            }
        }
    }
}

/// Builds `≪̃_S` (Definition 8.3).
fn build_order(spec: &Spec, ops: &[Op], original_len: usize) -> PartialOrder {
    let oracle = spec.oracle();
    let mut po = PartialOrder::new(ops.len());

    // 8.3a/8.3b/8.3c: per-process chains — original execution order, then
    // completion activities in completion order.
    let mut per_process: BTreeMap<ProcessId, Vec<usize>> = BTreeMap::new();
    for op in ops {
        per_process
            .entry(op.gid.process)
            .or_default()
            .push(op.index);
    }
    for chain in per_process.values() {
        for w in chain.windows(2) {
            po.add(w[0], w[1]);
        }
    }

    // 8.3a: conflicting pairs of the original history keep their order.
    // 8.3e: every completion activity follows the conflicting activities of
    // the original history (the group abort sits at the end of S).
    for i in 0..original_len {
        for j in (i + 1)..ops.len() {
            if ops[i].gid.process != ops[j].gid.process
                && oracle.conflict(ops[i].service, ops[j].service)
            {
                po.add(i, j);
            }
        }
    }

    // 8.3d/8.3f + Lemmas 2 and 3: conflicting completion activities of
    // different processes.
    let orientation = Orientation::new(spec, ops, original_len);
    for i in original_len..ops.len() {
        for j in (i + 1)..ops.len() {
            let (x, y) = (&ops[i], &ops[j]);
            if x.gid.process == y.gid.process || !oracle.conflict(x.service, y.service) {
                continue;
            }
            if orientation.precedes(x, y) {
                po.add(i, j);
            } else {
                po.add(j, i);
            }
        }
    }
    debug_assert!(po.is_acyclic(), "≪̃_S construction must stay acyclic");
    po
}

/// Process ranks for ordering conflicting forward-recovery activities of
/// different processes (8.3d/8.3f), from the *mandatory* process
/// dependencies: conflicting permanent operation pairs of the original
/// history, plus the forced 8.3(e) edges from permanent original operations
/// to permanent completion activities. Any 8.3(d) choice must be consistent
/// with these or the completion is needlessly irreducible. Falls back to
/// process-id order when that graph is cyclic (the completion is irreducible
/// regardless of the 8.3(d) choices then).
///
/// An operation is *permanent* when it survives every reduction, i.e. never
/// cancels against a compensation: forward operations of committed
/// processes, pre-boundary operations of forward-recoverable processes, and
/// the forward recovery activities themselves.
fn mandatory_ranks(spec: &Spec, ops: &[Op], original_len: usize) -> BTreeMap<ProcessId, usize> {
    let compensated: BTreeSet<GlobalActivityId> = ops
        .iter()
        .filter(|o| o.kind == OpKind::Compensation)
        .map(|o| o.gid)
        .collect();
    let permanent: Vec<Op> = ops
        .iter()
        .filter(|o| o.kind == OpKind::Forward && !compensated.contains(&o.gid))
        .copied()
        .collect();
    let mut g = crate::serializability::ProcessGraph::over(ops.iter().map(|o| o.gid.process));
    let buckets = by_service(spec, &permanent);
    for x in permanent.iter().take_while(|x| x.index < original_len) {
        for s in spec.conflicts.row(&spec.catalog, x.service) {
            for &j in &buckets[s.index()] {
                if j > x.index {
                    g.add_edge(x.gid.process, ops[j].gid.process);
                }
            }
        }
    }
    match g.topological_order() {
        Some(order) => order.into_iter().enumerate().map(|(r, p)| (p, r)).collect(),
        None => g.nodes().enumerate().map(|(r, p)| (p, r)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::ids::ActivityId;

    fn st2(fx: &fixtures::PaperWorld) -> Schedule {
        // Figure 4(a) at t2.
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
    fn example_5_completion_activities() {
        // Example 5: Ã_St2 adds {a1_3⁻¹, a1_5, a1_6} for P₁ and {a2_5} for
        // P₂ to the seven activities of S_t2.
        let fx = fixtures::paper_world();
        let completed = complete(&fx.spec, &st2(&fx)).unwrap();
        assert_eq!(completed.original_len, 7);
        assert_eq!(completed.ops.len(), 11);
        let added: Vec<String> = completed
            .completion_ops()
            .iter()
            .map(|o| o.to_string())
            .collect();
        assert!(added.contains(&"a1_2⁻¹".to_string())); // a1_3⁻¹ (0-based a1_2)
        assert!(added.contains(&"a1_4".to_string())); // a1_5
        assert!(added.contains(&"a1_5".to_string())); // a1_6
        assert!(added.contains(&"a2_4".to_string())); // a2_5
        assert_eq!(completed.aborted.len(), 2);
        assert!(completed.committed_in_s.is_empty());
    }

    #[test]
    fn example_5_order_constraints() {
        // ≪̃ of Example 5: a1_3 ≪ a1_3⁻¹ ≪ a1_5 ≪ a1_6, a2_4 ≪ a2_5, and
        // a1_5 ≪ a2_5 (forward-recovery conflict ordered by serialization
        // order P₁ before P₂).
        let fx = fixtures::paper_world();
        let completed = complete(&fx.spec, &st2(&fx)).unwrap();
        let reach = completed.order.reachability();
        let find = |name: &str| {
            completed
                .ops
                .iter()
                .find(|o| o.to_string() == name)
                .unwrap_or_else(|| panic!("op {name} not found"))
                .index
        };
        let a13 = find("a1_2"); // forward a1_3 (0-based display)
        let a13_inv = find("a1_2⁻¹");
        let a15 = find("a1_4");
        let a16 = find("a1_5");
        let a24 = find("a2_3");
        let a25 = find("a2_4");
        assert!(reach.lt(a13, a13_inv));
        assert!(reach.lt(a13_inv, a15));
        assert!(reach.lt(a15, a16));
        assert!(reach.lt(a24, a25));
        assert!(reach.lt(a15, a25), "Lemma/8.3d: a1_5 ≪̃ a2_5");
    }

    #[test]
    fn committed_processes_add_nothing() {
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        for k in 1..=5 {
            s.execute(fx.a(2, k));
        }
        s.commit(ProcessId(2));
        let completed = complete(&fx.spec, &s).unwrap();
        assert_eq!(completed.completion_ops().len(), 0);
        assert!(completed.committed_in_s.contains(&ProcessId(2)));
        assert!(completed.aborted.is_empty());
    }

    #[test]
    fn brec_process_completes_with_pure_compensation() {
        // Example 8 / Figure 8: completing S_t1 compensates a1_1 while P₂
        // runs its forward recovery path.
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        s.execute(fx.a(1, 1))
            .execute(fx.a(2, 1))
            .execute(fx.a(2, 2))
            .execute(fx.a(2, 3))
            .execute(fx.a(2, 4));
        let completed = complete(&fx.spec, &s).unwrap();
        let added: Vec<String> = completed
            .completion_ops()
            .iter()
            .map(|o| o.to_string())
            .collect();
        assert!(added.contains(&"a1_0⁻¹".to_string())); // a1_1⁻¹
        assert!(added.contains(&"a2_4".to_string())); // a2_5 forward recovery
                                                      // The conflict cycle of Example 8: a1_1 ≪ a2_1 ≪ a1_1⁻¹.
        let reach = completed.order.reachability();
        let a11 = completed
            .ops
            .iter()
            .find(|o| o.gid == fx.a(1, 1) && o.kind == OpKind::Forward)
            .unwrap()
            .index;
        let a21 = completed
            .ops
            .iter()
            .find(|o| o.gid == fx.a(2, 1))
            .unwrap()
            .index;
        let a11_inv = completed
            .ops
            .iter()
            .find(|o| o.kind == OpKind::Compensation)
            .unwrap()
            .index;
        assert!(reach.lt(a11, a21));
        assert!(reach.lt(a21, a11_inv));
    }

    #[test]
    fn completion_of_empty_schedule_is_empty() {
        let fx = fixtures::paper_world();
        let completed = complete(&fx.spec, &Schedule::new()).unwrap();
        assert!(completed.ops.is_empty());
        assert!(completed.order.is_empty());
    }

    #[test]
    fn mid_recovery_prefix_completion_includes_pending_compensations() {
        // Cut right after a failure: the queued compensations must appear in
        // the completion.
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        s.execute(fx.a(1, 1))
            .execute(fx.a(1, 2))
            .execute(fx.a(1, 3))
            .fail(fx.a(1, 4));
        let completed = complete(&fx.spec, &s).unwrap();
        let comp_ops: Vec<_> = completed
            .completion_ops()
            .iter()
            .filter(|o| o.kind == OpKind::Compensation)
            .collect();
        assert_eq!(comp_ops.len(), 1);
        assert_eq!(comp_ops[0].gid.activity, ActivityId(2));
        // Forward recovery continues with a1_5, a1_6.
        let fwd: Vec<_> = completed
            .completion_ops()
            .iter()
            .filter(|o| o.kind == OpKind::Forward)
            .map(|o| o.gid.activity)
            .collect();
        assert_eq!(fwd, vec![ActivityId(4), ActivityId(5)]);
    }

    #[test]
    fn lemma2_reverse_order_of_conflicting_compensations() {
        // Two processes whose compensatable activities conflict; both abort.
        // The compensations must appear in reverse order of the originals.
        use crate::activity::Catalog;
        use crate::conflict::ConflictMatrix;
        use crate::process::ProcessBuilder;
        let mut cat = Catalog::new();
        let (w1, _) = cat.compensatable("w1");
        let (w2, _) = cat.compensatable("w2");
        let mut m = ConflictMatrix::new(&cat);
        m.declare_conflict(&cat, w1, w2).unwrap();
        let mut b = ProcessBuilder::new(ProcessId(1), "X");
        let x0 = b.activity("x0", w1);
        let _ = x0;
        let px = b.build(&cat).unwrap();
        let mut b = ProcessBuilder::new(ProcessId(2), "Y");
        let y0 = b.activity("y0", w2);
        let _ = y0;
        let py = b.build(&cat).unwrap();
        let mut spec = Spec::new(cat, m);
        spec.add_process(px);
        spec.add_process(py);
        let mut s = Schedule::new();
        s.execute(GlobalActivityId::new(ProcessId(1), ActivityId(0)));
        s.execute(GlobalActivityId::new(ProcessId(2), ActivityId(0)));
        let completed = complete(&spec, &s).unwrap();
        let reach = completed.order.reachability();
        let cx = completed
            .ops
            .iter()
            .find(|o| o.kind == OpKind::Compensation && o.gid.process == ProcessId(1))
            .unwrap()
            .index;
        let cy = completed
            .ops
            .iter()
            .find(|o| o.kind == OpKind::Compensation && o.gid.process == ProcessId(2))
            .unwrap()
            .index;
        // Originals: x0 before y0 ⇒ compensations y0⁻¹ before x0⁻¹.
        assert!(reach.lt(cy, cx));
    }
}
