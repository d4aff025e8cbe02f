//! The static world a scheduler operates in: the service catalog Â, the
//! declared commutativity relation, and the registered process definitions.

use crate::activity::Catalog;
use crate::conflict::{ConflictMatrix, ConflictOracle};
use crate::error::ModelError;
use crate::ids::{GlobalActivityId, ProcessId, ServiceId};
use crate::process::Process;
use serde::{DeError, Deserialize, Serialize, Value};

/// Catalog + conflict relation + process definitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Spec {
    /// The global service set Â.
    pub catalog: Catalog,
    /// The declared conflict relation over Â.
    pub conflicts: ConflictMatrix,
    processes: Processes,
}

/// The registered processes, one per pid, in a vector sorted by pid. Every
/// generated workload numbers its processes contiguously, so a lookup is
/// one probe at the pid's offset from the first; a binary search finds the
/// rest. It serializes as the `[pid, process]` pair sequence of an
/// id-keyed map, the form spec files have always had.
#[derive(Debug, Clone, Default)]
struct Processes(Vec<Process>);

impl Processes {
    /// Position of `id`'s process, if registered.
    #[inline]
    fn position(&self, id: ProcessId) -> Option<usize> {
        let guess = id.0.wrapping_sub(self.0.first()?.id.0) as usize;
        match self.0.get(guess) {
            Some(p) if p.id == id => Some(guess),
            _ => self.0.binary_search_by_key(&id, |p| p.id).ok(),
        }
    }

    /// Registers `process`, replacing one with its pid.
    fn insert(&mut self, process: Process) {
        match self.0.binary_search_by_key(&process.id, |p| p.id) {
            Ok(i) => self.0[i] = process,
            Err(i) => self.0.insert(i, process),
        }
    }
}

impl Serialize for Processes {
    fn to_value(&self) -> Value {
        let pair = |p: &Process| Value::Seq(vec![p.id.to_value(), p.to_value()]);
        Value::Seq(self.0.iter().map(pair).collect())
    }
}

impl Deserialize for Processes {
    /// Reads the pair sequence; a repeated pid keeps its last process, as
    /// the map did. A key that is not its process's own pid is refused.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let mut processes = Self::default();
        for (pid, process) in Vec::<(ProcessId, Process)>::from_value(v)? {
            if pid != process.id {
                let msg = format!("process key {pid} holds process {}", process.id);
                return Err(DeError::new(msg));
            }
            processes.insert(process);
        }
        Ok(processes)
    }
}

impl Spec {
    /// Creates a spec without processes.
    pub fn new(catalog: Catalog, conflicts: ConflictMatrix) -> Self {
        Self {
            catalog,
            conflicts,
            processes: Processes::default(),
        }
    }

    /// Registers a process definition, replacing any with the same id.
    pub fn add_process(&mut self, process: Process) {
        self.processes.insert(process);
    }

    /// Looks up a process.
    #[inline]
    pub fn process(&self, id: ProcessId) -> Result<&Process, ModelError> {
        match self.processes.position(id) {
            Some(i) => Ok(&self.processes.0[i]),
            None => Err(ModelError::UnknownProcess(id)),
        }
    }

    /// Iterates over registered processes in id order.
    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        self.processes.0.iter()
    }

    /// Number of registered processes.
    pub fn process_count(&self) -> usize {
        self.processes.0.len()
    }

    /// The conflict oracle view.
    pub fn oracle(&self) -> ConflictOracle<'_> {
        ConflictOracle::new(&self.catalog, &self.conflicts)
    }

    /// The service invoked by a (validated) global activity id.
    pub fn service_of(&self, gid: GlobalActivityId) -> Result<ServiceId, ModelError> {
        let p = self.process(gid.process)?;
        if gid.activity.index() >= p.len() {
            return Err(ModelError::UnknownActivity(gid));
        }
        Ok(p.service(gid.activity))
    }

    /// Whether two global activities conflict, honouring perfect
    /// commutativity (the query may reference either the base or the
    /// compensating side of each activity via `comp` flags).
    pub fn activities_conflict(
        &self,
        a: GlobalActivityId,
        b: GlobalActivityId,
    ) -> Result<bool, ModelError> {
        let (sa, sb) = (self.service_of(a)?, self.service_of(b)?);
        Ok(self.conflicts.conflict(&self.catalog, sa, sb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::ids::ActivityId;
    use crate::process::ProcessBuilder;

    /// Two services that conflict, and one two-activity process per pid,
    /// registered in the order given.
    fn gapped(pids: &[u32]) -> Spec {
        let mut cat = Catalog::new();
        let (c, _) = cat.compensatable("c");
        let p = cat.pivot("p");
        let mut conflicts = ConflictMatrix::new(&cat);
        conflicts.declare_conflict(&cat, c, p).unwrap();
        let mut spec = Spec::new(cat.clone(), conflicts);
        for &pid in pids {
            let mut b = ProcessBuilder::new(ProcessId(pid), format!("P{pid}"));
            let x = b.activity("x", c);
            let y = b.activity("y", p);
            b.chain(&[x, y]);
            spec.add_process(b.build(&cat).unwrap());
        }
        spec
    }

    /// `serde_json::to_string(&gapped(&[5, 1, 3]))` as it was written while
    /// the processes were an id-keyed map: files of that form load, and
    /// the spec writes them back byte for byte.
    const GAPPED_JSON: &str = r#"{"catalog":{"services":[{"name":"c","termination":"Compensatable","compensation":1,"compensates":null,"effect_free":false},{"name":"c⁻¹","termination":"Retriable","compensation":null,"compensates":0,"effect_free":false},{"name":"p","termination":"Pivot","compensation":null,"compensates":null,"effect_free":false}]},"conflicts":{"n":3,"bits":[68],"rows":[[2],[],[0]]},"processes":[[1,{"id":1,"name":"P1","activities":[{"name":"x","service":0},{"name":"y","service":2}],"edges":[{"from":0,"to":1}],"preference":[],"successors":[{"Seq":1},"None"],"predecessors":[[],[0]],"root":0}],[3,{"id":3,"name":"P3","activities":[{"name":"x","service":0},{"name":"y","service":2}],"edges":[{"from":0,"to":1}],"preference":[],"successors":[{"Seq":1},"None"],"predecessors":[[],[0]],"root":0}],[5,{"id":5,"name":"P5","activities":[{"name":"x","service":0},{"name":"y","service":2}],"edges":[{"from":0,"to":1}],"preference":[],"successors":[{"Seq":1},"None"],"predecessors":[[],[0]],"root":0}]]}"#;

    #[test]
    fn serialized_form_is_the_map_pair_sequence() {
        assert_eq!(
            serde_json::to_string(&gapped(&[5, 1, 3])).unwrap(),
            GAPPED_JSON
        );
        let back: Spec = serde_json::from_str(GAPPED_JSON).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), GAPPED_JSON);
        let pids: Vec<ProcessId> = back.processes().map(|p| p.id).collect();
        assert_eq!(pids, [ProcessId(1), ProcessId(3), ProcessId(5)]);
    }

    #[test]
    fn mismatched_process_key_is_refused() {
        let forged = GAPPED_JSON.replacen("[3,{", "[4,{", 1);
        assert!(serde_json::from_str::<Spec>(&forged).is_err());
    }

    #[test]
    fn lookup_over_gaps_and_unknown_pids() {
        let spec = gapped(&[9, 1, 2, 4, 7]);
        for pid in [1, 2, 4, 7, 9] {
            assert_eq!(spec.process(ProcessId(pid)).unwrap().id, ProcessId(pid));
        }
        for pid in [0, 3, 5, 6, 8, 10, u32::MAX] {
            assert!(matches!(
                spec.process(ProcessId(pid)),
                Err(ModelError::UnknownProcess(p)) if p == ProcessId(pid)
            ));
        }
        assert!(gapped(&[]).process(ProcessId(0)).is_err());
        // The paper's fixtures start at 1: contiguous, but not from 0.
        let fx = fixtures::paper_world();
        for pid in 1..=3 {
            assert_eq!(fx.spec.process(ProcessId(pid)).unwrap().id, ProcessId(pid));
        }
    }

    #[test]
    fn add_process_replaces_a_registered_pid() {
        let mut spec = gapped(&[1, 3]);
        let cat = spec.catalog.clone();
        let mut b = ProcessBuilder::new(ProcessId(3), "again");
        b.activity("only", ServiceId(0));
        spec.add_process(b.build(&cat).unwrap());
        assert_eq!(spec.process_count(), 2);
        let p3 = spec.process(ProcessId(3)).unwrap();
        assert_eq!((p3.name.as_str(), p3.len()), ("again", 1));
    }

    #[test]
    fn paper_world_registers_three_processes() {
        let fx = fixtures::paper_world();
        assert_eq!(fx.spec.process_count(), 3);
        assert!(fx.spec.process(ProcessId(1)).is_ok());
        assert!(fx.spec.process(ProcessId(9)).is_err());
    }

    #[test]
    fn declared_conflicts_visible_through_spec() {
        // Figure 4: (a1_1, a2_1), (a1_2, a2_4), (a1_5, a2_5) do not commute.
        let fx = fixtures::paper_world();
        assert!(fx.spec.activities_conflict(fx.a(1, 1), fx.a(2, 1)).unwrap());
        assert!(fx.spec.activities_conflict(fx.a(1, 2), fx.a(2, 4)).unwrap());
        assert!(fx.spec.activities_conflict(fx.a(1, 5), fx.a(2, 5)).unwrap());
        assert!(!fx.spec.activities_conflict(fx.a(1, 3), fx.a(2, 2)).unwrap());
    }

    #[test]
    fn unknown_activity_rejected() {
        let fx = fixtures::paper_world();
        let bogus = GlobalActivityId::new(ProcessId(1), ActivityId(40));
        assert!(fx.spec.service_of(bogus).is_err());
    }
}
