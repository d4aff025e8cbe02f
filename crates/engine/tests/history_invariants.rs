//! Invariants of the histories the PRED scheduler emits, checked directly on
//! the event stream (independently of the PRED checker):
//!
//! * per-process compensations run in reverse order of their activities
//!   (Lemma 2, intra-process),
//! * conflicting compensations of different processes run in reverse order
//!   of their base activities (Lemma 2, inter-process),
//! * compensations precede conflicting forward-recovery activities of other
//!   aborting processes (Lemma 3),
//! * a non-compensatable activity of `P_j` conflicting-after an activity of
//!   an active `P_i` commits only after `P_i` terminated (Lemma 1.1).

use txproc_core::ids::{GlobalActivityId, ProcessId};
use txproc_core::schedule::{Event, Schedule};
use txproc_core::spec::Spec;
use txproc_engine::engine::{run, RunConfig};
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

fn histories() -> Vec<(Workload, Schedule)> {
    (0..15u64)
        .map(|seed| {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 6,
                conflict_density: 0.5,
                failure_probability: 0.25,
                ..WorkloadConfig::default()
            });
            let r = run(
                &w,
                RunConfig {
                    seed,
                    ..RunConfig::default()
                },
            );
            assert!(r.stalled.is_empty(), "seed {seed} stalled");
            (w, r.history)
        })
        .collect()
}

fn conflict(spec: &Spec, a: GlobalActivityId, b: GlobalActivityId) -> bool {
    spec.activities_conflict(a, b).unwrap()
}

#[test]
fn compensations_reverse_intra_process_order() {
    for (_, history) in histories() {
        let events = history.events();
        for p in events.iter().filter_map(|e| match e {
            Event::Compensate(g) => Some(g.process),
            _ => None,
        }) {
            // Collect this process's execute positions and compensate order.
            let mut exec_pos = std::collections::BTreeMap::new();
            for (i, e) in events.iter().enumerate() {
                if let Event::Execute(g) = e {
                    if g.process == p {
                        exec_pos.insert(g.activity, i);
                    }
                }
            }
            let mut last_base_pos = usize::MAX;
            let mut boundary = 0usize;
            for e in events {
                match e {
                    // Forward execution after compensations resets the
                    // reverse-order window (alternative switching).
                    Event::Execute(g) if g.process == p => {
                        last_base_pos = usize::MAX;
                        boundary = boundary.max(exec_pos[&g.activity]);
                    }
                    Event::Compensate(g) if g.process == p => {
                        let base = exec_pos[&g.activity];
                        assert!(
                            base < last_base_pos,
                            "{p}: compensations not in reverse order of execution"
                        );
                        last_base_pos = base;
                    }
                    _ => {}
                }
            }
        }
    }
}

#[test]
fn conflicting_cross_process_compensations_reverse_base_order() {
    for (w, history) in histories() {
        let events = history.events();
        let exec_pos: std::collections::BTreeMap<GlobalActivityId, usize> = events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Event::Execute(g) => Some((*g, i)),
                _ => None,
            })
            .collect();
        let comps: Vec<(usize, GlobalActivityId)> = events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Event::Compensate(g) => Some((i, *g)),
                _ => None,
            })
            .collect();
        for (i, (ci, gi)) in comps.iter().enumerate() {
            for (cj, gj) in &comps[i + 1..] {
                if gi.process == gj.process || !conflict(&w.spec, *gi, *gj) {
                    continue;
                }
                // Lemma 2 constrains *overlapping* pairs: when gj's base
                // executed between gi's base and gi's compensation, the
                // inner pair must cancel first — compensations in reverse
                // order of the bases. Sequential (disjoint) pairs such as
                // ⟨gi gi⁻¹ gj gj⁻¹⟩ impose nothing.
                let (bi, bj) = (exec_pos[gi], exec_pos[gj]);
                let overlapping = bi < bj && bj < *ci;
                assert!(
                    !overlapping || cj < ci,
                    "Lemma 2 violated: exec({gi})@{bi} < exec({gj})@{bj} < \
                     comp({gi})@{ci} but comp({gj})@{cj} came later"
                );
            }
        }
    }
}

#[test]
fn lemma1_noncompensatable_commits_after_conflicting_predecessor_terminates() {
    for (w, history) in histories() {
        let events = history.events();
        let term_pos: std::collections::BTreeMap<ProcessId, usize> = events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Event::Commit(p) => Some((*p, i)),
                _ => None,
            })
            .collect();
        // Last event index per process (abort completions included).
        let mut last_pos: std::collections::BTreeMap<ProcessId, usize> = Default::default();
        for (i, e) in events.iter().enumerate() {
            for &p in e.processes() {
                last_pos.insert(p, i);
            }
        }
        for (j, e) in events.iter().enumerate() {
            let Event::Execute(gj) = e else { continue };
            let svc = w.spec.service_of(*gj).unwrap();
            if w.spec.catalog.termination(svc).is_compensatable() {
                continue;
            }
            // Conflicting earlier activities of other processes.
            for (i, e2) in events.iter().enumerate().take(j) {
                let Event::Execute(gi) = e2 else { continue };
                if gi.process == gj.process || !conflict(&w.spec, *gi, *gj) {
                    continue;
                }
                // Skip if gi was compensated before j (cancelled) or its
                // process quasi-committed before j.
                let compensated_before_j = events[..j]
                    .iter()
                    .any(|e| matches!(e, Event::Compensate(g) if g == gi));
                if compensated_before_j {
                    continue;
                }
                let quasi = events[i..j].iter().any(|e| {
                    matches!(e, Event::Execute(g)
                        if g.process == gi.process
                            && !w.spec.catalog
                                .termination(w.spec.service_of(*g).unwrap())
                                .is_compensatable())
                });
                if quasi {
                    continue;
                }
                // Completion forward activities run after their process's
                // abort; the predecessor constraint does not apply to them.
                let after_own_abort = events[..j]
                    .iter()
                    .any(|e| matches!(e, Event::Abort(p) if *p == gj.process));
                if after_own_abort {
                    continue;
                }
                let terminated_before_j =
                    term_pos.get(&gi.process).map(|&t| t < j).unwrap_or(false)
                        || last_pos
                            .get(&gi.process)
                            .map(|&t| {
                                t < j
                                    && events
                                        .iter()
                                        .any(|e| matches!(e, Event::Abort(p) if *p == gi.process))
                            })
                            .unwrap_or(false);
                assert!(
                    terminated_before_j,
                    "Lemma 1.1 violated: non-compensatable {gj} committed at {j} \
                     while conflicting predecessor {} (activity {gi} at {i}) was live",
                    gi.process
                );
            }
        }
    }
}
