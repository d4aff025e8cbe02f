//! Conflict-graph serializability of process schedules (§3.2).
//!
//! A process schedule is serializable when it is conflict-equivalent to a
//! serial execution of its processes, i.e. when the process-level conflict
//! graph — one edge `P_i → P_j` per conflicting activity pair ordered
//! `a_{i_k} ≪_S a_{j_l}` — is acyclic \[BHG87\].

use crate::error::ScheduleError;
use crate::ids::ProcessId;
use crate::order::Reachability;
use crate::schedule::{Op, Schedule};
use crate::spec::Spec;

/// The set bits of a bit row given word by word, as indices, ascending.
pub(crate) fn ones(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            let b = (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize);
            bits &= bits.wrapping_sub(1);
            b
        })
    })
}

/// Process-level conflict graph: a dense bit matrix over its nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessGraph {
    /// Ascending.
    nodes: Vec<ProcessId>,
    /// Row `a`, `words` words long: bit `b` is the edge `nodes[a] → nodes[b]`.
    succ: Vec<u64>,
    words: usize,
}

impl ProcessGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An edgeless graph over `nodes`.
    pub fn over(nodes: impl IntoIterator<Item = ProcessId>) -> Self {
        let mut nodes: Vec<ProcessId> = nodes.into_iter().collect();
        nodes.sort_unstable();
        nodes.dedup();
        let words = nodes.len().div_ceil(64);
        Self {
            succ: vec![0; nodes.len() * words],
            nodes,
            words,
        }
    }

    /// Adds the dependency `from → to`; an endpoint that is no node yet
    /// becomes one (the matrix is laid out anew).
    pub fn add_edge(&mut self, from: ProcessId, to: ProcessId) {
        if let (Some(a), Some(b)) = (self.index(from), self.index(to)) {
            return self.set(a, b);
        }
        let edges: Vec<_> = self.edges().collect();
        *self = Self::over(self.nodes().chain([from, to]));
        for (a, b) in edges.into_iter().chain([(from, to)]) {
            self.add_edge(a, b);
        }
    }

    fn index(&self, p: ProcessId) -> Option<usize> {
        self.nodes.binary_search(&p).ok()
    }

    /// Adds the edge from the `a`-th node to the `b`-th.
    fn set(&mut self, a: usize, b: usize) {
        if a != b {
            self.succ[a * self.words + b / 64] |= 1 << (b % 64);
        }
    }

    /// The successors of the `a`-th node, as node indices, ascending.
    fn successors(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        ones(self.succ[a * self.words..][..self.words].iter().copied())
    }

    /// All nodes, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.nodes.iter().copied()
    }

    /// All edges, ascending.
    pub fn edges(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        (0..self.nodes.len()).flat_map(move |a| {
            self.successors(a)
                .map(move |b| (self.nodes[a], self.nodes[b]))
        })
    }

    /// Whether the edge exists.
    pub fn has_edge(&self, from: ProcessId, to: ProcessId) -> bool {
        match (self.index(from), self.index(to)) {
            (Some(a), Some(b)) => self.succ[a * self.words + b / 64] >> (b % 64) & 1 == 1,
            _ => false,
        }
    }

    /// Topological order over the nodes (first in, first out, from the
    /// sources in ascending order), or `None` if cyclic.
    pub fn topological_order(&self) -> Option<Vec<ProcessId>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for a in 0..n {
            for b in self.successors(a) {
                indeg[b] += 1;
            }
        }
        let mut order: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut head = 0;
        while let Some(&a) = order.get(head) {
            head += 1;
            for b in self.successors(a) {
                indeg[b] -= 1;
                if indeg[b] == 0 {
                    order.push(b);
                }
            }
        }
        (order.len() == n).then(|| order.into_iter().map(|v| self.nodes[v]).collect())
    }

    /// Whether the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }
}

/// Builds the conflict graph of a *linear* operation history: conflicting
/// cross-process operations are ordered by position. No pair is probed: each
/// operation walks its service's conflict row and meets only the operations
/// already run on a service in it.
pub fn process_graph_linear(spec: &Spec, ops: &[Op]) -> ProcessGraph {
    let mut g = ProcessGraph::over(ops.iter().map(|o| o.gid.process));
    // Per (base) service, the processes of the operations run on it so far.
    let mut ran: Vec<Vec<usize>> = vec![Vec::new(); spec.catalog.len()];
    for op in ops {
        let b = g.nodes.partition_point(|&p| p < op.gid.process);
        for s in spec.conflicts.row(&spec.catalog, op.service) {
            for &a in &ran[s.index()] {
                g.set(a, b);
            }
        }
        ran[op.service.index()].push(b);
    }
    g
}

/// Builds the conflict graph of operations under an explicit partial order
/// (used for completed schedules), restricted to `live` operations.
pub fn process_graph_ordered(
    spec: &Spec,
    ops: &[Op],
    reach: &Reachability,
    live: &[bool],
) -> ProcessGraph {
    let oracle = spec.oracle();
    let live_ops = ops.iter().enumerate().filter(|&(i, _)| live[i]);
    let mut g = ProcessGraph::over(live_ops.map(|(_, op)| op.gid.process));
    for (i, x) in ops.iter().enumerate() {
        if !live[i] {
            continue;
        }
        for (j, y) in ops.iter().enumerate().skip(i + 1) {
            if !live[j] || x.gid.process == y.gid.process {
                continue;
            }
            if !oracle.conflict(x.service, y.service) {
                continue;
            }
            if reach.lt(i, j) {
                g.add_edge(x.gid.process, y.gid.process);
            } else if reach.lt(j, i) {
                g.add_edge(y.gid.process, x.gid.process);
            } else {
                debug_assert!(
                    false,
                    "conflicting operations {x} and {y} must be ordered (Definition 8.3)"
                );
            }
        }
    }
    g
}

/// Whether a schedule is serializable (§3.2): its process-level conflict
/// graph is acyclic.
pub fn is_serializable(spec: &Spec, schedule: &Schedule) -> Result<bool, ScheduleError> {
    let ops = schedule.ops(spec)?;
    Ok(process_graph_linear(spec, &ops).is_acyclic())
}

/// Whether the *committed projection* of a schedule is serializable — the
/// notion used by Theorem 1's proof ("a conflict cycle has to exist ... in
/// the committed projection of S"). The projection keeps the effective
/// operations of committed processes: compensating activities and the
/// activities they cancelled are effect-free pairs and drop out.
pub fn is_serializable_committed(spec: &Spec, schedule: &Schedule) -> Result<bool, ScheduleError> {
    let replay = schedule.replay(spec)?;
    let compensated: std::collections::BTreeSet<_> = replay
        .ops
        .iter()
        .filter(|o| o.kind == crate::schedule::OpKind::Compensation)
        .map(|o| o.gid)
        .collect();
    let ops: Vec<Op> = replay
        .ops
        .iter()
        .filter(|o| {
            replay.commit_event.contains_key(&o.gid.process)
                && o.kind == crate::schedule::OpKind::Forward
                && !compensated.contains(&o.gid)
        })
        .copied()
        .collect();
    Ok(process_graph_linear(spec, &ops).is_acyclic())
}

/// A serialization order of the schedule's processes, or `None` when not
/// serializable.
pub fn serialization_order(
    spec: &Spec,
    schedule: &Schedule,
) -> Result<Option<Vec<ProcessId>>, ScheduleError> {
    Ok(process_graph_linear(spec, &schedule.ops(spec)?).topological_order())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    /// Figure 4(a) / Example 4: serializable interleaving of P₁ and P₂.
    fn figure4a(fx: &fixtures::PaperWorld) -> Schedule {
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

    /// Figure 4(b) / Example 3: non-serializable interleaving — a2_4
    /// executes before a1_2, so the conflicts point both ways.
    fn figure4b(fx: &fixtures::PaperWorld) -> Schedule {
        let mut s = Schedule::new();
        s.execute(fx.a(1, 1))
            .execute(fx.a(2, 1))
            .execute(fx.a(2, 2))
            .execute(fx.a(2, 3))
            .execute(fx.a(2, 4))
            .execute(fx.a(1, 2))
            .execute(fx.a(1, 3));
        s
    }

    #[test]
    fn example_4_is_serializable() {
        let fx = fixtures::paper_world();
        assert!(is_serializable(&fx.spec, &figure4a(&fx)).unwrap());
        let order = serialization_order(&fx.spec, &figure4a(&fx))
            .unwrap()
            .unwrap();
        // Both conflicts point P₁ → P₂: P₁ serializes first.
        assert_eq!(order, vec![ProcessId(1), ProcessId(2)]);
    }

    #[test]
    fn example_3_is_not_serializable() {
        // Example 3: S'_t2 has cyclic dependencies between P₁ and P₂
        // (a1_1 ≪ a2_1 gives P₁→P₂, a2_4 ≪ a1_2 gives P₂→P₁).
        let fx = fixtures::paper_world();
        assert!(!is_serializable(&fx.spec, &figure4b(&fx)).unwrap());
        assert!(serialization_order(&fx.spec, &figure4b(&fx))
            .unwrap()
            .is_none());
    }

    #[test]
    fn conflict_graph_edges_match_example_3() {
        let fx = fixtures::paper_world();
        let ops = figure4b(&fx).ops(&fx.spec).unwrap();
        let g = process_graph_linear(&fx.spec, &ops);
        assert!(g.has_edge(ProcessId(1), ProcessId(2)));
        assert!(g.has_edge(ProcessId(2), ProcessId(1)));
        assert!(!g.is_acyclic());
    }

    #[test]
    fn single_process_schedule_trivially_serializable() {
        let fx = fixtures::paper_world();
        let mut s = Schedule::new();
        for k in 1..=5 {
            s.execute(fx.a(2, k));
        }
        assert!(is_serializable(&fx.spec, &s).unwrap());
    }

    #[test]
    fn empty_schedule_serializable() {
        let fx = fixtures::paper_world();
        assert!(is_serializable(&fx.spec, &Schedule::new()).unwrap());
    }

    #[test]
    fn graph_self_edges_ignored() {
        let mut g = ProcessGraph::new();
        g.add_edge(ProcessId(1), ProcessId(1));
        assert!(g.is_acyclic());
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn nodes_registered_late_keep_the_edges() {
        // A 130-node chain added tail first: every edge brings a node that
        // sorts before all others, across a word boundary of the rows.
        let mut g = ProcessGraph::new();
        for k in (0..129u32).rev() {
            g.add_edge(ProcessId(k), ProcessId(k + 1));
        }
        assert_eq!(g.edges().count(), 129);
        assert!(g.has_edge(ProcessId(63), ProcessId(64)));
        assert!(!g.has_edge(ProcessId(64), ProcessId(63)));
        assert_eq!(
            g.topological_order(),
            Some((0..130).map(ProcessId).collect())
        );
        assert_eq!(g, {
            let mut h = ProcessGraph::over((0..130).map(ProcessId));
            (0..129).for_each(|k| h.add_edge(ProcessId(k), ProcessId(k + 1)));
            h
        });
    }

    #[test]
    fn three_node_cycle_detected() {
        let mut g = ProcessGraph::new();
        g.add_edge(ProcessId(1), ProcessId(2));
        g.add_edge(ProcessId(2), ProcessId(3));
        g.add_edge(ProcessId(3), ProcessId(1));
        assert!(!g.is_acyclic());
    }
}
