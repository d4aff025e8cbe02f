//! Conflict domains: connected components of the potential-conflict graph.
//!
//! Two processes *potentially conflict* if some activity of one uses a service
//! that conflicts (Definition 6) with a service used by some activity of the
//! other. The paper's protocol (Lemmas 1–3) only ever orders conflicting
//! operations, so processes in different connected components of this graph
//! impose no ordering obligations on each other: any interleaving of their
//! events commutes, and a schedule is (prefix-)reducible iff its restriction
//! to each component is. [`DomainPartition`] computes these components with a
//! union-find over service footprints; the sharded concurrent driver uses one
//! scheduler state per domain.
//!
//! The partition is workload-static — it is derived from the registered
//! process definitions, not from the history — so it is a sound
//! over-approximation: runtime choices (alternatives taken, activities
//! skipped) can only shrink the real conflict graph. [`DomainPartition::merge`]
//! provides the dynamic-merge path for drivers that discover a cross-domain
//! edge at admission time (e.g. late-registered processes).

use crate::ids::{ProcessId, ServiceId};
use crate::spec::Spec;
use std::collections::BTreeMap;

/// Union-find with path halving and union by rank.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements (not sets).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Partition of the registered processes into conflict domains.
///
/// Domain ids are dense (`0..domain_count()`) and ordered by the smallest
/// member [`ProcessId`], so the labelling is deterministic for a given spec
/// regardless of union order.
#[derive(Debug, Clone)]
pub struct DomainPartition {
    /// Dense index → pid, ascending.
    pids: Vec<ProcessId>,
    /// pid → dense index.
    index: BTreeMap<ProcessId, u32>,
    uf: UnionFind,
    /// Dense index → domain id.
    label: Vec<u32>,
    /// Domain id → member pids, each ascending.
    members: Vec<Vec<ProcessId>>,
}

impl DomainPartition {
    /// Computes the workload-static partition for `spec`'s processes.
    ///
    /// Cost: O(Σ activities) to collect the footprints, O(catalog) for the
    /// tables indexed by base service, then for each touched base service
    /// its conflict-matrix row
    /// ([`ConflictMatrix::row`](crate::conflict::ConflictMatrix::row), read
    /// in time proportional to its length), and one union per footprint
    /// entry. Every process touching a service that has a touched
    /// conflicting partner (itself included) joins that service's first
    /// toucher, and the first touchers of every conflicting touched pair
    /// join each other: exactly the transitive closure of the pairwise
    /// potential-conflict edges (a complete bipartite block between the
    /// touchers of `s` and of `t` is connected whenever both sides are
    /// non-empty). A service with no touched partner joins nobody.
    pub fn partition(spec: &Spec) -> Self {
        const NONE: u32 = u32::MAX;
        let pids: Vec<ProcessId> = spec.processes().map(|p| p.id).collect();
        let index: BTreeMap<ProcessId, u32> = pids
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u32))
            .collect();
        let mut uf = UnionFind::new(pids.len());

        // Base-service footprints, `(process, service)` once per pair, and
        // each touched service's first toucher.
        let mut first = vec![NONE; spec.catalog.len()];
        let mut footprints: Vec<(u32, ServiceId)> = Vec::new();
        for (dense, p) in (0..).zip(spec.processes()) {
            let mine = footprints.len();
            for (aid, _) in p.iter() {
                let base = spec.catalog.base(p.service(aid));
                if !footprints[mine..].iter().any(|&(_, s)| s == base) {
                    footprints.push((dense, base));
                    let slot = &mut first[base.index()];
                    if *slot == NONE {
                        *slot = dense;
                    }
                }
            }
        }

        // Walk each touched service's row: a touched partner links the two
        // first touchers, and marks the service as one whose touchers join.
        let mut linked = vec![false; first.len()];
        for (s, &ps) in first.iter().enumerate().filter(|&(_, &p)| p != NONE) {
            for t in spec.conflicts.row(&spec.catalog, ServiceId(s as u32)) {
                let pt = first[t.index()];
                if pt != NONE {
                    linked[s] = true;
                    uf.union(ps, pt);
                }
            }
        }
        for &(p, s) in &footprints {
            if linked[s.index()] {
                uf.union(first[s.index()], p);
            }
        }

        let mut out = Self {
            pids,
            index,
            uf,
            label: Vec::new(),
            members: Vec::new(),
        };
        out.relabel();
        out
    }

    /// Recomputes dense domain labels from the union-find state.
    fn relabel(&mut self) {
        let n = self.pids.len();
        self.label = vec![u32::MAX; n];
        self.members.clear();
        // Domain of each root, by root index.
        let mut root_to_domain = vec![u32::MAX; n];
        // Dense indices ascend with pid, so scanning in order yields domains
        // ordered by smallest member pid.
        for i in 0..n as u32 {
            let root = self.uf.find(i) as usize;
            if root_to_domain[root] == u32::MAX {
                root_to_domain[root] = self.members.len() as u32;
                self.members.push(Vec::new());
            }
            let domain = root_to_domain[root];
            self.label[i as usize] = domain;
            self.members[domain as usize].push(self.pids[i as usize]);
        }
    }

    /// Number of conflict domains.
    pub fn domain_count(&self) -> usize {
        self.members.len()
    }

    /// Number of partitioned processes.
    pub fn process_count(&self) -> usize {
        self.pids.len()
    }

    /// The domain id of `pid`, if registered.
    pub fn domain_of(&self, pid: ProcessId) -> Option<u32> {
        self.index.get(&pid).map(|&i| self.label[i as usize])
    }

    /// Member pids of each domain, indexed by domain id.
    pub fn domains(&self) -> &[Vec<ProcessId>] {
        &self.members
    }

    /// The member lists themselves, for a caller that keeps nothing else of
    /// the partition.
    pub fn into_domains(self) -> Vec<Vec<ProcessId>> {
        self.members
    }

    /// Whether two processes share a domain.
    pub fn same_domain(&self, a: ProcessId, b: ProcessId) -> bool {
        match (self.domain_of(a), self.domain_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Dynamic-merge path: fuses the domains of `a` and `b` (e.g. when an
    /// admission would create a cross-shard conflict edge). Returns `true`
    /// and relabels if the domains were distinct; labels stay dense and
    /// ordered by smallest member pid.
    pub fn merge(&mut self, a: ProcessId, b: ProcessId) -> bool {
        let (Some(&ia), Some(&ib)) = (self.index.get(&a), self.index.get(&b)) else {
            return false;
        };
        if self.uf.union(ia, ib) {
            self.relabel();
            true
        } else {
            false
        }
    }
}

/// Naive O(n²) reference: pairwise potential-conflict test + BFS components.
///
/// Exists as the differential oracle for [`DomainPartition::partition`];
/// deliberately avoids union-find and footprint bucketing.
pub fn naive_components(spec: &Spec) -> Vec<Vec<ProcessId>> {
    let procs: Vec<_> = spec.processes().collect();
    let n = procs.len();
    let mut adj = vec![vec![false; n]; n];
    for i in 0..n {
        for j in i + 1..n {
            'pairs: for (ai, _) in procs[i].iter() {
                for (aj, _) in procs[j].iter() {
                    let (si, sj) = (procs[i].service(ai), procs[j].service(aj));
                    if spec.conflicts.conflict(&spec.catalog, si, sj) {
                        adj[i][j] = true;
                        adj[j][i] = true;
                        break 'pairs;
                    }
                }
            }
        }
    }
    let mut seen = vec![false; n];
    let mut components = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut queue = vec![start];
        let mut comp = Vec::new();
        seen[start] = true;
        while let Some(i) = queue.pop() {
            comp.push(procs[i].id);
            for (j, &edge) in adj[i].iter().enumerate() {
                if edge && !seen[j] {
                    seen[j] = true;
                    queue.push(j);
                }
            }
        }
        comp.sort_unstable();
        components.push(comp);
    }
    components.sort();
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Catalog;
    use crate::conflict::ConflictMatrix;
    use crate::fixtures;
    use crate::process::ProcessBuilder;

    fn spec_with(
        build: impl FnOnce(&mut Catalog, &mut Vec<(ServiceId, ServiceId)>) -> Vec<Vec<ServiceId>>,
    ) -> Spec {
        let mut cat = Catalog::new();
        let mut conflicts = Vec::new();
        let programs = build(&mut cat, &mut conflicts);
        let mut matrix = ConflictMatrix::new(&cat);
        for (a, b) in conflicts {
            matrix.declare_conflict(&cat, a, b).unwrap();
        }
        let mut spec = Spec::new(cat, matrix);
        for (i, program) in programs.into_iter().enumerate() {
            let mut b = ProcessBuilder::new(ProcessId(i as u32 + 1), format!("p{}", i + 1));
            let acts: Vec<_> = program
                .iter()
                .enumerate()
                .map(|(k, &s)| b.activity(format!("a{k}"), s))
                .collect();
            b.chain(&acts);
            spec.add_process(b.build(&spec.catalog).unwrap());
        }
        spec
    }

    #[test]
    fn disjoint_footprints_yield_singleton_domains() {
        let spec = spec_with(|cat, _| {
            let s1 = cat.pivot("s1");
            let s2 = cat.pivot("s2");
            vec![vec![s1], vec![s2]]
        });
        let part = DomainPartition::partition(&spec);
        assert_eq!(part.domain_count(), 2);
        assert!(!part.same_domain(ProcessId(1), ProcessId(2)));
    }

    #[test]
    fn shared_service_without_self_conflict_does_not_connect() {
        // Both processes invoke s, but s commutes with itself, so their
        // operations impose no mutual ordering: separate domains.
        let spec = spec_with(|cat, _| {
            let s = cat.pivot("read");
            vec![vec![s], vec![s]]
        });
        let part = DomainPartition::partition(&spec);
        assert_eq!(part.domain_count(), 2);
    }

    #[test]
    fn self_conflicting_shared_service_connects() {
        let spec = spec_with(|cat, conflicts| {
            let s = cat.pivot("write");
            conflicts.push((s, s));
            vec![vec![s], vec![s]]
        });
        let part = DomainPartition::partition(&spec);
        assert_eq!(part.domain_count(), 1);
        assert!(part.same_domain(ProcessId(1), ProcessId(2)));
    }

    #[test]
    fn transitive_connection_through_middle_process() {
        // p1 uses a, p2 uses b, p3 uses both-conflicting c: a#c, b#c.
        let spec = spec_with(|cat, conflicts| {
            let a = cat.pivot("a");
            let b = cat.pivot("b");
            let c = cat.pivot("c");
            conflicts.push((a, c));
            conflicts.push((b, c));
            vec![vec![a], vec![b], vec![c]]
        });
        let part = DomainPartition::partition(&spec);
        assert_eq!(part.domain_count(), 1);
    }

    #[test]
    fn domain_ids_ordered_by_smallest_member() {
        // p1/p3 conflict; p2 isolated. Domain 0 must contain p1.
        let spec = spec_with(|cat, conflicts| {
            let a = cat.pivot("a");
            let b = cat.pivot("b");
            conflicts.push((a, a));
            vec![vec![a], vec![b], vec![a]]
        });
        let part = DomainPartition::partition(&spec);
        assert_eq!(part.domain_count(), 2);
        assert_eq!(part.domain_of(ProcessId(1)), Some(0));
        assert_eq!(part.domain_of(ProcessId(3)), Some(0));
        assert_eq!(part.domain_of(ProcessId(2)), Some(1));
        assert_eq!(
            part.domains(),
            &[vec![ProcessId(1), ProcessId(3)], vec![ProcessId(2)]]
        );
    }

    #[test]
    fn compensation_services_map_to_base_footprint() {
        // The conflict is declared over the *compensating* sides; perfect
        // commutativity (mapping through Catalog::base) must still connect
        // the processes invoking the base services.
        let spec = spec_with(|cat, conflicts| {
            let (a, a_inv) = cat.compensatable("a");
            let (b, b_inv) = cat.compensatable("b");
            conflicts.push((a_inv, b_inv));
            vec![vec![a], vec![b]]
        });
        let part = DomainPartition::partition(&spec);
        assert_eq!(part.domain_count(), 1);
    }

    #[test]
    fn dynamic_merge_fuses_and_relabels() {
        let spec = spec_with(|cat, _| {
            let s1 = cat.pivot("s1");
            let s2 = cat.pivot("s2");
            let s3 = cat.pivot("s3");
            vec![vec![s1], vec![s2], vec![s3]]
        });
        let mut part = DomainPartition::partition(&spec);
        assert_eq!(part.domain_count(), 3);
        assert!(part.merge(ProcessId(1), ProcessId(3)));
        assert_eq!(part.domain_count(), 2);
        assert!(part.same_domain(ProcessId(1), ProcessId(3)));
        assert_eq!(part.domain_of(ProcessId(1)), Some(0));
        assert_eq!(part.domain_of(ProcessId(2)), Some(1));
        // Idempotent.
        assert!(!part.merge(ProcessId(1), ProcessId(3)));
        // Unknown pids are a no-op.
        assert!(!part.merge(ProcessId(1), ProcessId(99)));
    }

    #[test]
    fn paper_world_is_one_domain() {
        // Figure 4's processes all conflict pairwise-or-transitively.
        let fx = fixtures::paper_world();
        let part = DomainPartition::partition(&fx.spec);
        assert_eq!(part.domain_count(), 1);
        assert_eq!(naive_components(&fx.spec).len(), 1);
    }

    #[test]
    fn matches_naive_oracle_on_mixed_world() {
        let spec = spec_with(|cat, conflicts| {
            let a = cat.pivot("a");
            let b = cat.pivot("b");
            let c = cat.pivot("c");
            let d = cat.pivot("d");
            conflicts.push((a, b));
            conflicts.push((c, c));
            vec![vec![a], vec![b], vec![c], vec![c, d], vec![d]]
        });
        let part = DomainPartition::partition(&spec);
        let naive = naive_components(&spec);
        let mut got: Vec<Vec<ProcessId>> = part.domains().to_vec();
        got.sort();
        assert_eq!(got, naive);
        // p1+p2 via a#b; p3+p4 via self-conflicting c; p5 alone (d commutes).
        assert_eq!(part.domain_count(), 3);
    }
}
