//! The process model: `P = (A, ≪, ◁)` (Definition 5).
//!
//! A process is a set of activities `A ⊆ Â`, a strict partial *precedence*
//! order `≪` (temporal: `a ≪ b` means `b` may only start after `a`
//! committed), and a *preference* order `◁` over pairs of precedence edges
//! with the same source. `◁` designates alternative execution paths: with
//! `(a_h ≪ a_j) ◁ (a_h ≪ a_k)`, branch `a_k` is executed only after branch
//! `a_j` failed (or succeeded and was compensated away because a later
//! activity on the `a_j` branch failed).
//!
//! Out-edges of one activity that are related by `◁` form an **alternative
//! group** totally ordered by preference; out-edges unrelated by `◁` are
//! parallel successors. The paper requires `◁` to be total wherever it
//! relates several connectors, which the builder's validation enforces.

use crate::activity::Catalog;
use crate::error::ModelError;
use crate::ids::{ActivityId, ProcessId, ServiceId};
use crate::order::PartialOrder;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One activity slot inside a process: a named invocation of a service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActivityDef {
    /// Human-readable name, e.g. `"a1_3"` or `"pdm_entry"`.
    pub name: String,
    /// The invoked service.
    pub service: ServiceId,
}

/// A precedence edge `from ≪ to` (declared, i.e. covering or redundant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Source activity.
    pub from: ActivityId,
    /// Target activity.
    pub to: ActivityId,
}

/// The successor structure of one activity after validation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Successors {
    /// No successors: a terminal activity.
    None,
    /// A single unconditional successor.
    Seq(ActivityId),
    /// Several preference-ordered alternatives, highest priority first.
    Alternatives(Vec<ActivityId>),
    /// Several unconditional parallel successors (an AND-split).
    Parallel(Vec<ActivityId>),
}

impl Successors {
    /// All successor activities regardless of kind.
    pub fn all(&self) -> Vec<ActivityId> {
        match self {
            Successors::None => Vec::new(),
            Successors::Seq(a) => vec![*a],
            Successors::Alternatives(v) | Successors::Parallel(v) => v.clone(),
        }
    }
}

/// A transactional process `P = (A, ≪, ◁)` (Definition 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Process {
    /// Unique process identifier.
    pub id: ProcessId,
    /// Human-readable name.
    pub name: String,
    activities: Vec<ActivityDef>,
    edges: Vec<Edge>,
    /// Pairs `(i, j)` of indices into `edges`: `edges[i] ◁ edges[j]`.
    preference: Vec<(usize, usize)>,
    /// Computed successor structure (filled by `validate`).
    successors: Vec<Successors>,
    /// Computed predecessor lists.
    predecessors: Vec<Vec<ActivityId>>,
    /// The unique start activity if the process is rooted.
    root: Option<ActivityId>,
}

impl Process {
    /// Number of activities.
    pub fn len(&self) -> usize {
        self.activities.len()
    }

    /// Whether the process has no activities.
    pub fn is_empty(&self) -> bool {
        self.activities.is_empty()
    }

    /// The activity definition for a local id.
    pub fn activity(&self, id: ActivityId) -> &ActivityDef {
        &self.activities[id.index()]
    }

    /// The service invoked by an activity.
    #[inline]
    pub fn service(&self, id: ActivityId) -> ServiceId {
        self.activities[id.index()].service
    }

    /// Iterates over `(id, def)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ActivityId, &ActivityDef)> {
        self.activities
            .iter()
            .enumerate()
            .map(|(i, d)| (ActivityId(i as u32), d))
    }

    /// Declared precedence edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The successor structure of an activity.
    pub fn successors(&self, id: ActivityId) -> &Successors {
        &self.successors[id.index()]
    }

    /// The direct predecessors of an activity.
    pub fn predecessors(&self, id: ActivityId) -> &[ActivityId] {
        &self.predecessors[id.index()]
    }

    /// The unique start activity, if any.
    pub fn root(&self) -> Option<ActivityId> {
        self.root
    }

    /// The precedence order `≪` as a [`PartialOrder`] over activity indices.
    pub fn precedence_order(&self) -> PartialOrder {
        let mut po = PartialOrder::new(self.len());
        for e in &self.edges {
            po.add(e.from.index(), e.to.index());
        }
        po
    }

    /// Finds an activity by name.
    pub fn find(&self, name: &str) -> Option<ActivityId> {
        self.iter()
            .find_map(|(id, def)| (def.name == name).then_some(id))
    }

    /// Whether the process is a tree: unique root and at most one predecessor
    /// per activity. The flex-structure analysis requires this shape.
    pub fn is_tree(&self) -> bool {
        self.root.is_some() && self.predecessors.iter().all(|p| p.len() <= 1)
    }
}

/// Fluent builder for [`Process`].
///
/// ```
/// use txproc_core::activity::Catalog;
/// use txproc_core::ids::ProcessId;
/// use txproc_core::process::ProcessBuilder;
///
/// let mut cat = Catalog::new();
/// let (design, _) = cat.compensatable("design");
/// let order = cat.pivot("order");
/// let notify = cat.retriable("notify");
///
/// let mut b = ProcessBuilder::new(ProcessId(1), "quickstart");
/// let a1 = b.activity("design", design);
/// let a2 = b.activity("order", order);
/// let a3 = b.activity("notify", notify);
/// b.precede(a1, a2);
/// b.precede(a2, a3);
/// let process = b.build(&cat).unwrap();
/// assert_eq!(process.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ProcessBuilder {
    id: ProcessId,
    name: String,
    activities: Vec<ActivityDef>,
    edges: Vec<Edge>,
    preference: Vec<(usize, usize)>,
}

impl ProcessBuilder {
    /// Starts building a process.
    pub fn new(id: ProcessId, name: impl Into<String>) -> Self {
        Self {
            id,
            name: name.into(),
            activities: Vec::new(),
            edges: Vec::new(),
            preference: Vec::new(),
        }
    }

    /// Adds an activity invoking `service`; returns its local id.
    pub fn activity(&mut self, name: impl Into<String>, service: ServiceId) -> ActivityId {
        let id = ActivityId(self.activities.len() as u32);
        self.activities.push(ActivityDef {
            name: name.into(),
            service,
        });
        id
    }

    /// Declares `from ≪ to`.
    pub fn precede(&mut self, from: ActivityId, to: ActivityId) -> &mut Self {
        self.edges.push(Edge { from, to });
        self
    }

    /// Declares a chain `a_0 ≪ a_1 ≪ … ≪ a_n`.
    pub fn chain(&mut self, activities: &[ActivityId]) -> &mut Self {
        for w in activities.windows(2) {
            self.precede(w[0], w[1]);
        }
        self
    }

    /// Declares `(source ≪ preferred) ◁ (source ≪ fallback)`: the `fallback`
    /// branch runs only after the `preferred` branch failed or was
    /// compensated away. Both edges must exist (or are created).
    pub fn prefer(
        &mut self,
        source: ActivityId,
        preferred: ActivityId,
        fallback: ActivityId,
    ) -> &mut Self {
        let e1 = self.edge_index_or_insert(source, preferred);
        let e2 = self.edge_index_or_insert(source, fallback);
        self.preference.push((e1, e2));
        self
    }

    /// Declares a full preference-ordered alternative group at `source`:
    /// `targets[0]` is tried first, then `targets[1]`, etc.
    pub fn alternatives(&mut self, source: ActivityId, targets: &[ActivityId]) -> &mut Self {
        for w in targets.windows(2) {
            self.prefer(source, w[0], w[1]);
        }
        self
    }

    fn edge_index_or_insert(&mut self, from: ActivityId, to: ActivityId) -> usize {
        if let Some(i) = self.edges.iter().position(|e| e.from == from && e.to == to) {
            i
        } else {
            self.edges.push(Edge { from, to });
            self.edges.len() - 1
        }
    }

    /// Validates the structure and produces the immutable [`Process`].
    pub fn build(self, catalog: &Catalog) -> Result<Process, ModelError> {
        let mut p = Process {
            id: self.id,
            name: self.name,
            activities: self.activities,
            edges: self.edges,
            preference: self.preference,
            successors: Vec::new(),
            predecessors: Vec::new(),
            root: None,
        };
        p.validate(catalog)?;
        Ok(p)
    }
}

impl Process {
    /// Validates Definition 5's requirements and computes the derived
    /// successor/predecessor structure.
    fn validate(&mut self, catalog: &Catalog) -> Result<(), ModelError> {
        if self.activities.is_empty() {
            return Err(ModelError::EmptyProcess(self.id));
        }
        // Services must exist and must not be compensating services: those
        // only appear in completions, never as process steps.
        for (id, def) in self.activities.iter().enumerate() {
            let sdef = catalog.get(def.service)?;
            if sdef.is_compensating() {
                return Err(ModelError::CompensatingServiceInProcess {
                    process: self.id,
                    activity: ActivityId(id as u32),
                    service: def.service,
                });
            }
        }
        // Edge endpoints must exist; no duplicates.
        let n = self.activities.len();
        let mut seen = std::collections::BTreeSet::new();
        for e in &self.edges {
            if e.from.index() >= n || e.to.index() >= n {
                return Err(ModelError::UnknownActivity(crate::ids::GlobalActivityId {
                    process: self.id,
                    activity: if e.from.index() >= n { e.from } else { e.to },
                }));
            }
            if !seen.insert((e.from, e.to)) {
                return Err(ModelError::DuplicateEdge {
                    process: self.id,
                    source: e.from,
                    target: e.to,
                });
            }
        }
        // ≪ must be acyclic (and is irreflexive by PartialOrder's contract;
        // check before constructing to return a ModelError instead of
        // panicking).
        for e in &self.edges {
            if e.from == e.to {
                return Err(ModelError::PrecedenceCycle(self.id));
            }
        }
        if !self.precedence_order().is_acyclic() {
            return Err(ModelError::PrecedenceCycle(self.id));
        }
        // Preference pairs must reference existing edges sharing a source.
        for &(i, j) in &self.preference {
            let (ei, ej) = (self.edges[i], self.edges[j]);
            if ei.from != ej.from {
                return Err(ModelError::PreferenceSourceMismatch {
                    process: self.id,
                    first_source: ei.from,
                    second_source: ej.from,
                });
            }
        }
        self.compute_structure()?;
        Ok(())
    }

    /// Groups each activity's out-edges into parallel successors and
    /// preference-ordered alternative groups.
    fn compute_structure(&mut self) -> Result<(), ModelError> {
        let n = self.activities.len();
        self.predecessors = vec![Vec::new(); n];
        for e in &self.edges {
            self.predecessors[e.to.index()].push(e.from);
        }
        // Unique root: exactly one activity without predecessors.
        let roots: Vec<ActivityId> = (0..n)
            .filter(|&i| self.predecessors[i].is_empty())
            .map(|i| ActivityId(i as u32))
            .collect();
        self.root = (roots.len() == 1).then(|| roots[0]);

        self.successors = vec![Successors::None; n];
        // Out-edges per node, as edge indices.
        let mut out: BTreeMap<ActivityId, Vec<usize>> = BTreeMap::new();
        for (i, e) in self.edges.iter().enumerate() {
            out.entry(e.from).or_default().push(i);
        }
        for (src, edge_idxs) in out {
            // Build the ◁ relation restricted to this node's out-edges.
            let local: BTreeMap<usize, usize> =
                edge_idxs.iter().enumerate().map(|(k, &e)| (e, k)).collect();
            let m = edge_idxs.len();
            let mut po = PartialOrder::new(m);
            let mut related = vec![false; m];
            for &(i, j) in &self.preference {
                if let (Some(&a), Some(&b)) = (local.get(&i), local.get(&j)) {
                    if a == b {
                        return Err(ModelError::PreferenceCycle {
                            process: self.id,
                            source: src,
                        });
                    }
                    po.add(a, b);
                    related[a] = true;
                    related[b] = true;
                }
            }
            let structure = if m == 1 {
                Successors::Seq(self.edges[edge_idxs[0]].to)
            } else if related.iter().any(|&r| r) {
                // Alternative group: every out-edge must participate and ◁
                // must be a total order over them.
                if !related.iter().all(|&r| r) {
                    return Err(ModelError::PreferenceNotTotal {
                        process: self.id,
                        source: src,
                    });
                }
                let Some(order) = po.topological_order() else {
                    return Err(ModelError::PreferenceCycle {
                        process: self.id,
                        source: src,
                    });
                };
                // Totality: the topological order must be a chain.
                let r = po.reachability();
                for w in order.windows(2) {
                    if !r.lt(w[0], w[1]) {
                        return Err(ModelError::PreferenceNotTotal {
                            process: self.id,
                            source: src,
                        });
                    }
                }
                Successors::Alternatives(
                    order
                        .into_iter()
                        .map(|k| self.edges[edge_idxs[k]].to)
                        .collect(),
                )
            } else {
                Successors::Parallel(edge_idxs.iter().map(|&k| self.edges[k].to).collect())
            };
            self.successors[src.index()] = structure;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> (Catalog, ServiceId, ServiceId, ServiceId, ServiceId) {
        let mut cat = Catalog::new();
        let (c, _) = cat.compensatable("c");
        let p = cat.pivot("p");
        let r = cat.retriable("r");
        let (c2, _) = cat.compensatable("c2");
        (cat, c, p, r, c2)
    }

    #[test]
    fn linear_chain_builds() {
        let (cat, c, p, r, _) = catalog();
        let mut b = ProcessBuilder::new(ProcessId(1), "lin");
        let a1 = b.activity("a1", c);
        let a2 = b.activity("a2", p);
        let a3 = b.activity("a3", r);
        b.chain(&[a1, a2, a3]);
        let proc = b.build(&cat).unwrap();
        assert_eq!(proc.root(), Some(a1));
        assert!(proc.is_tree());
        assert_eq!(proc.successors(a1), &Successors::Seq(a2));
        assert_eq!(proc.successors(a3), &Successors::None);
        assert_eq!(proc.predecessors(a2), &[a1]);
        assert_eq!(proc.find("a2"), Some(a2));
        assert_eq!(proc.find("zz"), None);
    }

    /// Builds the paper's process P₁ (Figure 2): a1₁ᶜ ≪ a1₂ᵖ ≪ a1₃ᶜ ≪ a1₄ᵖ
    /// with alternative a1₂ ≪ a1₅ʳ ≪ a1₆ʳ where (a1₂≪a1₃) ◁ (a1₂≪a1₅).
    #[test]
    fn figure2_p1_structure() {
        let (cat, c, p, r, c2) = catalog();
        let mut b = ProcessBuilder::new(ProcessId(1), "P1");
        let a1 = b.activity("a1_1", c);
        let a2 = b.activity("a1_2", p);
        let a3 = b.activity("a1_3", c2);
        let a4 = b.activity("a1_4", p);
        let a5 = b.activity("a1_5", r);
        let a6 = b.activity("a1_6", r);
        b.chain(&[a1, a2, a3, a4]);
        b.precede(a2, a5);
        b.precede(a5, a6);
        b.prefer(a2, a3, a5);
        let proc = b.build(&cat).unwrap();
        assert_eq!(proc.successors(a2), &Successors::Alternatives(vec![a3, a5]));
        assert_eq!(proc.successors(a3), &Successors::Seq(a4));
        assert_eq!(proc.successors(a5), &Successors::Seq(a6));
        assert!(proc.is_tree());
    }

    #[test]
    fn three_way_alternatives_ordered_by_preference() {
        let (cat, c, p, r, c2) = catalog();
        let mut b = ProcessBuilder::new(ProcessId(2), "tri");
        let a0 = b.activity("a0", p);
        let x = b.activity("x", c);
        let y = b.activity("y", c2);
        let z = b.activity("z", r);
        b.alternatives(a0, &[x, y, z]);
        let proc = b.build(&cat).unwrap();
        assert_eq!(
            proc.successors(a0),
            &Successors::Alternatives(vec![x, y, z])
        );
    }

    #[test]
    fn parallel_successors_without_preference() {
        let (cat, c, _, r, c2) = catalog();
        let mut b = ProcessBuilder::new(ProcessId(3), "par");
        let a0 = b.activity("a0", c);
        let x = b.activity("x", c2);
        let y = b.activity("y", r);
        b.precede(a0, x);
        b.precede(a0, y);
        let proc = b.build(&cat).unwrap();
        assert_eq!(proc.successors(a0), &Successors::Parallel(vec![x, y]));
    }

    #[test]
    fn partial_preference_over_three_edges_rejected() {
        // ◁ must totally order the alternatives of a node (Definition 5).
        let (cat, c, p, r, _) = catalog();
        let mut b = ProcessBuilder::new(ProcessId(4), "bad");
        let a0 = b.activity("a0", p);
        let x = b.activity("x", c);
        let y = b.activity("y", r);
        let z = b.activity("z", r);
        b.precede(a0, x);
        b.precede(a0, y);
        b.precede(a0, z);
        b.prefer(a0, x, y); // z unrelated -> not total
        let err = b.build(&cat).unwrap_err();
        assert!(matches!(err, ModelError::PreferenceNotTotal { .. }));
    }

    #[test]
    fn cyclic_preference_rejected() {
        let (cat, c, p, _, _) = catalog();
        let mut b = ProcessBuilder::new(ProcessId(4), "badpref");
        let a0 = b.activity("a0", p);
        let x = b.activity("x", c);
        let y = b.activity("y", c);
        b.prefer(a0, x, y);
        b.prefer(a0, y, x);
        let err = b.build(&cat).unwrap_err();
        assert!(matches!(
            err,
            ModelError::PreferenceCycle { .. } | ModelError::PreferenceNotTotal { .. }
        ));
    }

    #[test]
    fn cyclic_precedence_rejected() {
        let (cat, c, p, _, _) = catalog();
        let mut b = ProcessBuilder::new(ProcessId(5), "cyc");
        let a0 = b.activity("a0", c);
        let a1 = b.activity("a1", p);
        b.precede(a0, a1);
        b.precede(a1, a0);
        assert_eq!(
            b.build(&cat).unwrap_err(),
            ModelError::PrecedenceCycle(ProcessId(5))
        );
    }

    #[test]
    fn self_loop_rejected() {
        let (cat, c, _, _, _) = catalog();
        let mut b = ProcessBuilder::new(ProcessId(5), "self");
        let a0 = b.activity("a0", c);
        b.precede(a0, a0);
        assert_eq!(
            b.build(&cat).unwrap_err(),
            ModelError::PrecedenceCycle(ProcessId(5))
        );
    }

    #[test]
    fn empty_process_rejected() {
        let (cat, ..) = catalog();
        let b = ProcessBuilder::new(ProcessId(6), "empty");
        assert_eq!(
            b.build(&cat).unwrap_err(),
            ModelError::EmptyProcess(ProcessId(6))
        );
    }

    #[test]
    fn compensating_service_as_activity_rejected() {
        let mut cat = Catalog::new();
        let (_, comp) = cat.compensatable("x");
        let mut b = ProcessBuilder::new(ProcessId(7), "bad");
        b.activity("a0", comp);
        let err = b.build(&cat).unwrap_err();
        assert!(matches!(
            err,
            ModelError::CompensatingServiceInProcess { .. }
        ));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let (cat, c, p, _, _) = catalog();
        let mut b = ProcessBuilder::new(ProcessId(8), "dup");
        let a0 = b.activity("a0", c);
        let a1 = b.activity("a1", p);
        // `precede` twice (builder dedup only applies to prefer-created edges).
        b.precede(a0, a1);
        b.precede(a0, a1);
        let err = b.build(&cat).unwrap_err();
        assert!(matches!(err, ModelError::DuplicateEdge { .. }));
    }

    #[test]
    fn preference_source_mismatch_rejected() {
        let (cat, c, p, r, _) = catalog();
        let mut b = ProcessBuilder::new(ProcessId(9), "mismatch");
        let a0 = b.activity("a0", c);
        let a1 = b.activity("a1", p);
        let a2 = b.activity("a2", r);
        b.precede(a0, a1);
        b.precede(a1, a2);
        // Manually fabricate an invalid preference pair across sources.
        b.preference.push((0, 1));
        let err = b.build(&cat).unwrap_err();
        assert!(matches!(err, ModelError::PreferenceSourceMismatch { .. }));
    }

    #[test]
    fn multi_root_process_has_no_root() {
        let (cat, c, _, r, _) = catalog();
        let mut b = ProcessBuilder::new(ProcessId(10), "forest");
        let _x = b.activity("x", c);
        let _y = b.activity("y", r);
        let proc = b.build(&cat).unwrap();
        assert_eq!(proc.root(), None);
        assert!(!proc.is_tree());
    }

    #[test]
    fn precedence_order_reflects_edges() {
        let (cat, c, p, r, _) = catalog();
        let mut b = ProcessBuilder::new(ProcessId(11), "po");
        let a0 = b.activity("a0", c);
        let a1 = b.activity("a1", p);
        let a2 = b.activity("a2", r);
        b.chain(&[a0, a1, a2]);
        let proc = b.build(&cat).unwrap();
        let r2 = proc.precedence_order().reachability();
        assert!(r2.lt(0, 2));
        assert!(!r2.lt(2, 0));
    }

    #[test]
    fn unknown_edge_endpoint_rejected() {
        let (cat, c, _, _, _) = catalog();
        let mut b = ProcessBuilder::new(ProcessId(12), "oob");
        let a0 = b.activity("a0", c);
        b.precede(a0, ActivityId(9));
        assert!(matches!(
            b.build(&cat).unwrap_err(),
            ModelError::UnknownActivity(_)
        ));
    }
}
