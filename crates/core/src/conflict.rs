//! Commutativity and conflicts between activities (§3.2, Definition 6).
//!
//! Two activities *commute* if executing them in either order yields the same
//! return values in every context; otherwise they *conflict*. Following the
//! paper (and \[VHYBS98\]) commutativity is declared over the services of Â as
//! a symmetric relation, and is assumed to be **perfect**: a compensating
//! activity `a⁻¹` conflicts with exactly the activities its base activity `a`
//! conflicts with. The [`ConflictMatrix`] enforces perfection structurally by
//! storing the relation over *base* services only and mapping every query
//! through [`Catalog::base`](crate::activity::Catalog::base).

use crate::activity::Catalog;
use crate::error::ModelError;
use crate::ids::ServiceId;
use serde::{Deserialize, Serialize};

/// Symmetric conflict relation over the services of Â.
///
/// Stored twice over the *base* services, both written only by
/// [`declare_conflict`](Self::declare_conflict): a bitmap over pairs, which
/// answers one probe in one word load, and per service the sorted list of the
/// services it conflicts with ([`row`](Self::row)), which is what everything
/// that *walks* conflicts reads — in time proportional to the row, not to the
/// catalog. An activity always conflicts with itself (invoking the same
/// non-commuting service twice) only if declared; self-conflicts are common
/// (two writes to the same object do not commute) but not implied.
///
/// The matrix is sized for the catalog it was created from. A service
/// registered afterwards cannot be declared conflicting (an error) and
/// commutes with everything.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConflictMatrix {
    n: usize,
    bits: Vec<u64>,
    rows: Vec<Vec<ServiceId>>,
}

impl ConflictMatrix {
    /// Creates an all-commuting matrix for a catalog of `catalog.len()`
    /// services.
    pub fn new(catalog: &Catalog) -> Self {
        let n = catalog.len();
        Self {
            n,
            bits: vec![0; (n * n).div_ceil(64)],
            rows: vec![Vec::new(); n],
        }
    }

    /// Bitmap position of a pair the matrix was sized for.
    #[inline]
    fn idx(&self, a: ServiceId, b: ServiceId) -> Option<(usize, u64)> {
        let (a, b) = (a.index(), b.index());
        (a < self.n && b < self.n).then(|| {
            let flat = a * self.n + b;
            (flat / 64, 1u64 << (flat % 64))
        })
    }

    /// Records `b` in `a`'s bitmap row and sorted list.
    fn set_raw(&mut self, a: ServiceId, b: ServiceId) {
        let (w, m) = self
            .idx(a, b)
            .expect("declare_conflict checked the pair against the matrix size");
        self.bits[w] |= m;
        let row = &mut self.rows[a.index()];
        if let Err(at) = row.binary_search(&b) {
            row.insert(at, b);
        }
    }

    /// Probe by raw index; a service the matrix was not sized for commutes.
    #[inline]
    fn get_raw(&self, a: ServiceId, b: ServiceId) -> bool {
        self.idx(a, b).is_some_and(|(w, m)| self.bits[w] & m != 0)
    }

    /// Declares a conflict between two services.
    ///
    /// The relation is stored symmetrically over the *base* services, so
    /// declaring a conflict between `a` and `b` also makes `a⁻¹`/`b`,
    /// `a`/`b⁻¹` and `a⁻¹`/`b⁻¹` conflict — the perfect-commutativity closure
    /// of §3.2.
    ///
    /// # Errors
    /// [`ModelError::UnknownService`] for a service outside the catalog, or
    /// registered in it after the matrix was created.
    pub fn declare_conflict(
        &mut self,
        catalog: &Catalog,
        a: ServiceId,
        b: ServiceId,
    ) -> Result<(), ModelError> {
        catalog.get(a)?;
        catalog.get(b)?;
        let (ba, bb) = (catalog.base(a), catalog.base(b));
        for s in [ba, bb] {
            if s.index() >= self.n {
                return Err(ModelError::UnknownService(s));
            }
        }
        self.set_raw(ba, bb);
        self.set_raw(bb, ba);
        Ok(())
    }

    /// Declares that a service conflicts with itself (e.g. a write service:
    /// two writes of different values do not commute).
    pub fn declare_self_conflict(
        &mut self,
        catalog: &Catalog,
        a: ServiceId,
    ) -> Result<(), ModelError> {
        self.declare_conflict(catalog, a, a)
    }

    /// Whether two services conflict (do not commute), honouring perfect
    /// commutativity.
    #[inline]
    pub fn conflict(&self, catalog: &Catalog, a: ServiceId, b: ServiceId) -> bool {
        self.get_raw(catalog.base(a), catalog.base(b))
    }

    /// Whether two services commute (Definition 6).
    #[inline]
    pub fn commute(&self, catalog: &Catalog, a: ServiceId, b: ServiceId) -> bool {
        !self.conflict(catalog, a, b)
    }

    /// The base services `a` conflicts with, ascending: every base `b` with
    /// [`conflict`](Self::conflict)`(a, b)`, honouring perfect commutativity.
    /// The one enumerator of the relation; a service the matrix was not
    /// sized for has the empty row.
    pub fn row(&self, catalog: &Catalog, a: ServiceId) -> &[ServiceId] {
        self.rows
            .get(catalog.base(a).index())
            .map_or(&[], Vec::as_slice)
    }

    /// Number of declared conflicting base-service pairs (unordered).
    pub fn declared_pairs(&self) -> usize {
        // Symmetric storage: count each pair from its smaller side.
        self.rows
            .iter()
            .enumerate()
            .map(|(a, row)| row.len() - row.partition_point(|b| b.index() < a))
            .sum()
    }
}

/// Convenience oracle bundling a catalog reference with its conflict matrix.
///
/// Most schedule-level algorithms need both; passing one object keeps
/// signatures small.
#[derive(Debug, Clone, Copy)]
pub struct ConflictOracle<'a> {
    /// The service catalog.
    pub catalog: &'a Catalog,
    /// The declared conflict relation.
    pub matrix: &'a ConflictMatrix,
}

impl<'a> ConflictOracle<'a> {
    /// Creates an oracle from a catalog and matrix.
    pub fn new(catalog: &'a Catalog, matrix: &'a ConflictMatrix) -> Self {
        Self { catalog, matrix }
    }

    /// Whether two services conflict.
    #[inline]
    pub fn conflict(&self, a: ServiceId, b: ServiceId) -> bool {
        self.matrix.conflict(self.catalog, a, b)
    }

    /// Whether two services commute.
    #[inline]
    pub fn commute(&self, a: ServiceId, b: ServiceId) -> bool {
        !self.conflict(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (
        Catalog,
        ConflictMatrix,
        ServiceId,
        ServiceId,
        ServiceId,
        ServiceId,
    ) {
        let mut cat = Catalog::new();
        let (a, a_inv) = cat.compensatable("a");
        let (b, b_inv) = cat.compensatable("b");
        let m = ConflictMatrix::new(&cat);
        (cat, m, a, a_inv, b, b_inv)
    }

    #[test]
    fn fresh_matrix_commutes_everything() {
        let (cat, m, a, _, b, _) = setup();
        assert!(m.commute(&cat, a, b));
        assert!(m.commute(&cat, a, a));
        assert_eq!(m.declared_pairs(), 0);
    }

    #[test]
    fn declared_conflicts_are_symmetric() {
        let (cat, mut m, a, _, b, _) = setup();
        m.declare_conflict(&cat, a, b).unwrap();
        assert!(m.conflict(&cat, a, b));
        assert!(m.conflict(&cat, b, a));
        assert!(!m.conflict(&cat, a, a));
    }

    #[test]
    fn perfect_commutativity_closure() {
        // §3.2: if a and b conflict then a^α and b^β conflict for all
        // α, β ∈ {-1, 1}.
        let (cat, mut m, a, a_inv, b, b_inv) = setup();
        m.declare_conflict(&cat, a, b).unwrap();
        for x in [a, a_inv] {
            for y in [b, b_inv] {
                assert!(m.conflict(&cat, x, y), "{x} vs {y} must conflict");
                assert!(m.conflict(&cat, y, x), "{y} vs {x} must conflict");
            }
        }
    }

    #[test]
    fn perfect_commutativity_also_preserves_commuting_pairs() {
        // And conversely: if a and b commute, so do all signed combinations.
        let (cat, mut m, a, a_inv, b, b_inv) = setup();
        // Declare an unrelated conflict to make sure it does not leak.
        m.declare_self_conflict(&cat, a).unwrap();
        for x in [a, a_inv] {
            for y in [b, b_inv] {
                assert!(m.commute(&cat, x, y));
            }
        }
    }

    #[test]
    fn declaring_via_compensation_ids_lands_on_base() {
        let (cat, mut m, a, a_inv, b, b_inv) = setup();
        m.declare_conflict(&cat, a_inv, b_inv).unwrap();
        assert!(m.conflict(&cat, a, b));
    }

    #[test]
    fn self_conflict() {
        let (cat, mut m, a, a_inv, b, _) = setup();
        m.declare_self_conflict(&cat, a).unwrap();
        assert!(m.conflict(&cat, a, a));
        assert!(m.conflict(&cat, a, a_inv));
        assert!(m.conflict(&cat, a_inv, a_inv));
        assert!(!m.conflict(&cat, a, b));
        assert_eq!(m.declared_pairs(), 1);
    }

    #[test]
    fn unknown_service_rejected() {
        let (cat, mut m, a, ..) = setup();
        assert!(m.declare_conflict(&cat, a, ServiceId(50)).is_err());
    }

    #[test]
    fn late_registered_service_fails_closed() {
        // The matrix is sized at `new`; a service registered afterwards has
        // no row or column. Declaring it is an error (it used to alias into
        // the next row, or index out of bounds), probing it commutes.
        let (mut cat, mut m, a, _, b, _) = setup();
        m.declare_conflict(&cat, a, b).unwrap();
        let late = cat.pivot("late");
        let (late_c, late_inv) = cat.compensatable("late_c");
        for s in [late, late_c, late_inv] {
            assert_eq!(
                m.declare_conflict(&cat, a, s),
                Err(ModelError::UnknownService(cat.base(s)))
            );
            assert!(m.declare_conflict(&cat, s, a).is_err());
            assert!(m.declare_self_conflict(&cat, s).is_err());
            for t in [a, b, late, late_c, late_inv] {
                assert!(m.commute(&cat, s, t), "{s} vs {t}");
                assert!(m.commute(&cat, t, s), "{t} vs {s}");
            }
            assert!(m.row(&cat, s).is_empty());
        }
        // The failed declarations left the relation as it was.
        assert_eq!(m.declared_pairs(), 1);
        assert_eq!(m.row(&cat, a), [b]);
    }

    /// A catalog of exactly `n` services, compensatable pairs and singles
    /// mixed, so rows cross the compensating ids.
    fn catalog_of(rng: &mut StdRng, n: usize) -> Catalog {
        let mut cat = Catalog::new();
        while cat.len() < n {
            let name = format!("s{}", cat.len());
            if cat.len() + 2 <= n && rng.gen_bool(0.5) {
                cat.compensatable(name);
            } else {
                cat.pivot(name);
            }
        }
        cat
    }

    /// `row(a)` is `{b base : conflict(a, b)}`, ascending, for every `a`;
    /// `declared_pairs` is the count of conflicting unordered base pairs.
    fn assert_rows_match_probes(cat: &Catalog, m: &ConflictMatrix) {
        let ids: Vec<ServiceId> = cat.iter().map(|(s, _)| s).collect();
        let mut pairs = 0;
        for &a in &ids {
            let probed: Vec<ServiceId> = ids
                .iter()
                .copied()
                .filter(|&b| cat.base(b) == b && m.conflict(cat, a, b))
                .collect();
            assert_eq!(m.row(cat, a), probed, "row of {a}");
            if cat.base(a) == a {
                pairs += probed.iter().filter(|&&b| b >= a).count();
            }
        }
        assert_eq!(m.declared_pairs(), pairs);
    }

    #[test]
    fn rows_equal_probe_scans_across_word_boundaries() {
        for n in [1usize, 63, 64, 65, 200] {
            for seed in 0..8u64 {
                let mut rng = StdRng::seed_from_u64(seed * 1000 + n as u64);
                let cat = catalog_of(&mut rng, n);
                let mut m = ConflictMatrix::new(&cat);
                assert_rows_match_probes(&cat, &m);
                // Two rounds: rows must follow further declarations.
                for _ in 0..2 {
                    for _ in 0..rng.gen_range(1..=2 * n) {
                        let a = ServiceId(rng.gen_range(0..n as u32));
                        let b = ServiceId(rng.gen_range(0..n as u32));
                        m.declare_conflict(&cat, a, b).unwrap();
                    }
                    assert_rows_match_probes(&cat, &m);
                }
            }
        }
    }

    #[test]
    fn oracle_delegates() {
        let (cat, mut m, a, _, b, _) = setup();
        m.declare_conflict(&cat, a, b).unwrap();
        let o = ConflictOracle::new(&cat, &m);
        assert!(o.conflict(a, b));
        assert!(o.commute(a, a));
    }

    #[test]
    fn large_matrix_indexing() {
        let mut cat = Catalog::new();
        let svcs: Vec<ServiceId> = (0..40).map(|i| cat.pivot(format!("s{i}"))).collect();
        let mut m = ConflictMatrix::new(&cat);
        for w in svcs.chunks(2) {
            m.declare_conflict(&cat, w[0], w[1]).unwrap();
        }
        for w in svcs.chunks(2) {
            assert!(m.conflict(&cat, w[0], w[1]));
            assert!(m.conflict(&cat, w[1], w[0]));
        }
        assert!(!m.conflict(&cat, svcs[0], svcs[2]));
        assert_eq!(m.declared_pairs(), 20);
    }
}
