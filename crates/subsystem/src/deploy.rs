//! Deployment: where each service of the catalog Â physically runs and what
//! it does there.
//!
//! A [`Deployment`] maps every (base) service to a subsystem and a
//! [`Program`]. Compensating services carry no program of their own — their
//! behaviour is derived from the forward invocation's before-images by the
//! agent (see [`crate::agent`]), which matches the paper's Definition 2: the
//! pair `⟨a, a⁻¹⟩` must be effect-free.

use crate::kv::Program;
use crate::subsystem::SubsystemId;
use std::collections::BTreeMap;
use txproc_core::activity::Catalog;
use txproc_core::conflict::ConflictMatrix;
use txproc_core::ids::ServiceId;

/// Physical placement and behaviour of one service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSite {
    /// The subsystem executing the service.
    pub subsystem: SubsystemId,
    /// The physical program the service runs.
    pub program: Program,
    /// Abstract execution duration (time units) for latency models.
    pub duration: u64,
}

/// Maps services to their physical sites.
#[derive(Debug, Clone, Default)]
pub struct Deployment {
    sites: BTreeMap<ServiceId, ServiceSite>,
}

impl Deployment {
    /// Creates an empty deployment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Places a service.
    pub fn place(
        &mut self,
        service: ServiceId,
        subsystem: SubsystemId,
        program: Program,
    ) -> &mut Self {
        self.sites.insert(
            service,
            ServiceSite {
                subsystem,
                program,
                duration: 1,
            },
        );
        self
    }

    /// Places a service with an explicit duration.
    pub fn place_with_duration(
        &mut self,
        service: ServiceId,
        subsystem: SubsystemId,
        program: Program,
        duration: u64,
    ) -> &mut Self {
        self.sites.insert(
            service,
            ServiceSite {
                subsystem,
                program,
                duration,
            },
        );
        self
    }

    /// Site of a service.
    pub fn site(&self, service: ServiceId) -> Option<&ServiceSite> {
        self.sites.get(&service)
    }

    /// All placed services.
    pub fn services(&self) -> impl Iterator<Item = (ServiceId, &ServiceSite)> {
        self.sites.iter().map(|(&s, site)| (s, site))
    }

    /// Distinct subsystems used by the deployment.
    pub fn subsystems(&self) -> Vec<SubsystemId> {
        let mut ids: Vec<SubsystemId> = self.sites.values().map(|s| s.subsystem).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Checks that the declared conflict relation is *sound* with respect to
    /// the physical programs: any two services whose programs physically
    /// conflict must be declared conflicting in the matrix (the converse —
    /// declared conflicts without physical contact — is allowed: declared
    /// commutativity information may be conservative).
    ///
    /// Returns the undeclared physically-conflicting pairs.
    pub fn validate_conflicts(
        &self,
        catalog: &Catalog,
        matrix: &ConflictMatrix,
    ) -> Vec<(ServiceId, ServiceId)> {
        let mut missing = Vec::new();
        let list: Vec<(ServiceId, &ServiceSite)> = self.services().collect();
        for (i, &(sa, site_a)) in list.iter().enumerate() {
            for &(sb, site_b) in &list[i..] {
                if site_a.program.conflicts_with(&site_b.program)
                    && !matrix.conflict(catalog, sa, sb)
                {
                    missing.push((sa, sb));
                }
            }
        }
        missing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::Key;

    #[test]
    fn place_and_lookup() {
        let mut cat = Catalog::new();
        let a = cat.pivot("a");
        let mut d = Deployment::new();
        d.place(a, SubsystemId(3), Program::set(Key(1), 1));
        let site = d.site(a).unwrap();
        assert_eq!(site.subsystem, SubsystemId(3));
        assert_eq!(site.duration, 1);
        assert_eq!(d.subsystems(), vec![SubsystemId(3)]);
    }

    #[test]
    fn validate_conflicts_finds_undeclared_pairs() {
        let mut cat = Catalog::new();
        let a = cat.pivot("a");
        let b = cat.pivot("b");
        let matrix = ConflictMatrix::new(&cat); // nothing declared
        let mut d = Deployment::new();
        d.place(a, SubsystemId(0), Program::set(Key(1), 1));
        d.place(b, SubsystemId(0), Program::read(Key(1)));
        let missing = d.validate_conflicts(&cat, &matrix);
        // Set self-conflicts physically, and conflicts with the read.
        assert_eq!(missing, vec![(a, a), (a, b)]);
    }

    #[test]
    fn validate_conflicts_accepts_declared_superset() {
        let mut cat = Catalog::new();
        let a = cat.pivot("a");
        let b = cat.pivot("b");
        let mut matrix = ConflictMatrix::new(&cat);
        matrix.declare_conflict(&cat, a, b).unwrap();
        matrix.declare_self_conflict(&cat, a).unwrap();
        matrix.declare_self_conflict(&cat, b).unwrap();
        let mut d = Deployment::new();
        // Physically disjoint — declared conflicts are just conservative.
        d.place(a, SubsystemId(0), Program::set(Key(1), 1));
        d.place(b, SubsystemId(0), Program::set(Key(2), 1));
        assert!(d.validate_conflicts(&cat, &matrix).is_empty());
    }

    #[test]
    fn self_conflicting_program_detected() {
        let mut cat = Catalog::new();
        let a = cat.pivot("a");
        let matrix = ConflictMatrix::new(&cat);
        let mut d = Deployment::new();
        d.place(a, SubsystemId(0), Program::set(Key(1), 1));
        // Set conflicts with itself.
        let missing = d.validate_conflicts(&cat, &matrix);
        assert_eq!(missing, vec![(a, a)]);
    }
}
