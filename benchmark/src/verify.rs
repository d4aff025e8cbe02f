//! Correctness of what the program returned, checked outside the timed
//! region: every process terminated exactly once, no effect applied twice,
//! Proc-REC and PRED on each conflict-domain projection of the history,
//! and recovery idempotent.

use crate::spans::Spans;
use crate::workloads::Input;
use std::collections::BTreeSet;
use txproc_core::pred::check_pred;
use txproc_core::pred_incremental::check_pred_incremental;
use txproc_core::recoverability::proc_rec_violations;
use txproc_core::schedule::{Event, Schedule};
use txproc_engine::recovery::{Recovery, RecoveryReport, RecoverySource};

/// The batch `check_pred` is the independent reference, but its cost grows
/// with the cube of the history (380 events 0.17 s, 760 events 1.2 s,
/// 1500 events 7 s on the sizing box). Projections up to this many events
/// go to it while the estimated budget lasts; the rest go to
/// `check_pred_incremental`, and both counts are printed.
const BATCH_MAX_EVENTS: usize = 400;
const BATCH_BUDGET_S: f64 = 2.0;
const BATCH_S_PER_EVENT_CUBED: f64 = 3.1e-9;

/// Verification state of one benchmark run.
pub struct Verifier {
    pub failures: Vec<String>,
    pub batch_projections: u64,
    pub incremental_projections: u64,
    /// Objections of `proc_rec_violations` to recovered histories.
    pub recovered_proc_rec_objections: u64,
    batch_spent_s: f64,
}

impl Verifier {
    pub fn new() -> Self {
        Self {
            failures: Vec::new(),
            batch_projections: 0,
            incremental_projections: 0,
            recovered_proc_rec_objections: 0,
            batch_spent_s: 0.0,
        }
    }

    fn fail(&mut self, what: String) {
        // Keep the first few in full; a broken build fails thousands.
        if self.failures.len() < 20 {
            eprintln!("verification failure: {what}");
        }
        self.failures.push(what);
    }

    /// Checks one history against its input. For the history of a whole run
    /// `run_committed` is the commit count its metrics claim, and every
    /// process must appear; a recovered history holds only the processes
    /// that had started before the cut.
    pub fn check_history(
        &mut self,
        input: &Input,
        history: &Schedule,
        run_committed: Option<u64>,
        label: &str,
        spans: &mut Spans,
        parent: u32,
    ) {
        let spec = &input.workload.spec;
        match history.replay(spec) {
            Err(e) => self.fail(format!("{label}: history is not legal: {e:?}")),
            Ok(replay) => {
                if run_committed.is_some() && replay.states.len() != spec.process_count() {
                    self.fail(format!(
                        "{label}: {} of {} processes appear in the history",
                        replay.states.len(),
                        spec.process_count()
                    ));
                }
                let active = replay.active_processes();
                if !active.is_empty() {
                    self.fail(format!("{label}: {} processes left active", active.len()));
                }
                if run_committed.is_some_and(|c| c != replay.commit_event.len() as u64) {
                    self.fail(format!(
                        "{label}: metrics count {run_committed:?} commits, the history {}",
                        replay.commit_event.len()
                    ));
                }
            }
        }
        let (mut executed, mut compensated) = (BTreeSet::new(), BTreeSet::new());
        for e in history.events() {
            let fresh = match e {
                Event::Execute(g) => executed.insert(*g),
                Event::Compensate(g) => compensated.insert(*g),
                _ => true,
            };
            if !fresh {
                self.fail(format!("{label}: {e} applied twice"));
            }
        }
        for (d, projection) in project(input, history).iter().enumerate() {
            let label = format!("{label} domain {d}");
            match spans.time("checker:proc_rec", parent, || {
                proc_rec_violations(spec, projection)
            }) {
                Ok(v) if v.is_empty() => {}
                // Reported, not failed, on a recovered history: see README,
                // "What the first runs found".
                Ok(v) if run_committed.is_none() => {
                    self.recovered_proc_rec_objections += v.len() as u64;
                }
                Ok(v) => self.fail(format!("{label}: Proc-REC violations {v:?}")),
                Err(e) => self.fail(format!("{label}: Proc-REC check failed: {e:?}")),
            }
            let n = projection.len();
            let estimate = (n * n * n) as f64 * BATCH_S_PER_EVENT_CUBED;
            let batch = n <= BATCH_MAX_EVENTS && self.batch_spent_s + estimate <= BATCH_BUDGET_S;
            let report = if batch {
                self.batch_spent_s += estimate;
                self.batch_projections += 1;
                spans.time("checker:batch_pred", parent, || {
                    check_pred(spec, projection)
                })
            } else {
                self.incremental_projections += 1;
                spans.time("checker:incremental_pred", parent, || {
                    check_pred_incremental(spec, projection)
                })
            };
            match report {
                Ok(r) if r.pred => {}
                Ok(r) => self.fail(format!(
                    "{label}: not PRED, first violation at {:?}",
                    r.first_violation
                )),
                Err(e) => self.fail(format!("{label}: PRED check failed: {e:?}")),
            }
        }
    }

    /// Checks one recovery: the recovered history passes every history
    /// check, and recovering its image again changes nothing.
    pub fn check_recovery(
        &mut self,
        input: &Input,
        report: RecoveryReport,
        label: &str,
        spans: &mut Spans,
        parent: u32,
    ) {
        self.check_history(input, &report.history, None, label, spans, parent);
        match Recovery::from(RecoverySource::Image(report.image)).run(&input.workload) {
            Err(e) => self.fail(format!("{label}: second recovery failed: {e}")),
            Ok(second) => {
                let noop = second.history == report.history
                    && second.aborted.is_empty()
                    && second.compensations == 0
                    && second.forward == 0
                    && second.resolved_groups == 0
                    && second.aborted_prepared == 0;
                if !noop {
                    self.fail(format!("{label}: second recovery is not a no-op"));
                }
            }
        }
    }
}

/// The history's projection onto each conflict domain, in domain order. A
/// group abort is split along the domains of its members.
pub fn project(input: &Input, history: &Schedule) -> Vec<Schedule> {
    let domain = |pid| input.partition.domain_of(pid).expect("partitioned process") as usize;
    let mut out = vec![Schedule::new(); input.partition.domain_count()];
    for e in history.events() {
        match e {
            Event::Execute(g) | Event::Fail(g) | Event::Compensate(g) => {
                out[domain(g.process)].push(e.clone());
            }
            Event::Commit(p) | Event::Abort(p) => {
                out[domain(*p)].push(e.clone());
            }
            Event::GroupAbort(ps) => {
                let domains: BTreeSet<usize> = ps.iter().map(|&p| domain(p)).collect();
                for d in domains {
                    let members = ps.iter().copied().filter(|&p| domain(p) == d).collect();
                    out[d].push(Event::GroupAbort(members));
                }
            }
        }
    }
    out
}
