//! Property tests for the completion construction (Definition 8), checked
//! over random legal histories of the paper's processes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use txproc_core::completion::{complete, forward_ranks};
use txproc_core::fixtures::{paper_world, PaperWorld};
use txproc_core::ids::{GlobalActivityId, ProcessId};
use txproc_core::schedule::{Event, Op, OpKind, Schedule};
use txproc_core::serializability::{process_graph_linear, ProcessGraph};
use txproc_core::spec::Spec;
use txproc_core::state::{FailureOutcome, ProcessState};

/// The process graph by definition — every cross-process pair probed — that
/// `process_graph_linear` must build through conflict rows.
fn process_graph_all_pairs(spec: &Spec, ops: &[Op]) -> ProcessGraph {
    let mut g = ProcessGraph::over(ops.iter().map(|o| o.gid.process));
    for (i, x) in ops.iter().enumerate() {
        for y in &ops[i + 1..] {
            if x.gid.process != y.gid.process && spec.oracle().conflict(x.service, y.service) {
                g.add_edge(x.gid.process, y.gid.process);
            }
        }
    }
    g
}

/// Random legal history over the paper world (same construction as the
/// root-level property suite, duplicated here because integration tests of
/// different crates cannot share helpers).
fn random_history(fx: &PaperWorld, seed: u64, max_events: usize) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule = Schedule::new();
    let processes: Vec<_> = fx.spec.processes().collect();
    let mut states: Vec<ProcessState<'_>> = processes
        .iter()
        .map(|p| ProcessState::new(p, &fx.spec.catalog).expect("tree process"))
        .collect();
    for _ in 0..max_events {
        let live: Vec<usize> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_active())
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            break;
        }
        let i = live[rng.gen_range(0..live.len())];
        let pid = processes[i].id;
        let st = &mut states[i];
        if let Some(c) = st.next_compensation() {
            st.apply_compensation(c).expect("queued");
            schedule.compensate(GlobalActivityId::new(pid, c));
        } else if let Some(a) = st.next_activity() {
            let gid = GlobalActivityId::new(pid, a);
            let t = fx.spec.catalog.termination(processes[i].service(a));
            if t.can_fail() && rng.gen_bool(0.25) {
                match st.apply_failure(a).expect("failable") {
                    FailureOutcome::Stuck => unreachable!(),
                    _ => {
                        schedule.fail(gid);
                    }
                }
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

/// The completion's activity multiset per process.
fn completion_sets(
    fx: &PaperWorld,
    s: &Schedule,
) -> std::collections::BTreeMap<ProcessId, BTreeSet<(GlobalActivityId, OpKind)>> {
    let completed = complete(&fx.spec, s).unwrap();
    let mut out: std::collections::BTreeMap<_, BTreeSet<_>> = Default::default();
    for op in completed.completion_ops() {
        out.entry(op.gid.process)
            .or_default()
            .insert((op.gid, op.kind));
    }
    out
}

/// Next legal failure event, if any process's frontier can fail.
fn next_failure(fx: &PaperWorld, s: &Schedule) -> Option<Event> {
    let replay = s.replay(&fx.spec).unwrap();
    for (pid, st) in &replay.states {
        if !st.is_active() || st.next_compensation().is_some() {
            continue;
        }
        if let Some(a) = st.next_activity() {
            let process = fx.spec.process(*pid).unwrap();
            if fx.spec.catalog.termination(process.service(a)).can_fail() {
                return Some(Event::Fail(GlobalActivityId::new(*pid, a)));
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A failure event never changes any process's completion set: the
    /// completion always consists of compensations back to the boundary plus
    /// the lowest-priority (fallback) branch, independent of which branch is
    /// currently being tried. (This justifies the engine certifying only
    /// effect events, not failures.)
    #[test]
    fn failure_events_preserve_completions(seed in 0u64..4000, cut in 0usize..30) {
        let fx = paper_world();
        let s = random_history(&fx, seed, 40).prefix(cut);
        let Some(fail) = next_failure(&fx, &s) else {
            return Ok(());
        };
        let before = completion_sets(&fx, &s);
        let mut extended = s.clone();
        extended.push(fail);
        let after = completion_sets(&fx, &extended);
        prop_assert_eq!(before, after);
    }

    /// Completion compensations are exactly the effective compensatable
    /// activities after each active process's recovery boundary, in reverse
    /// order, and forward activities are all retriable.
    #[test]
    fn completion_shape(seed in 0u64..4000, cut in 0usize..30) {
        let fx = paper_world();
        let s = random_history(&fx, seed, 40).prefix(cut);
        let completed = complete(&fx.spec, &s).unwrap();
        for op in completed.completion_ops() {
            let process = fx.spec.process(op.gid.process).unwrap();
            let t = fx.spec.catalog.termination(process.service(op.gid.activity));
            match op.kind {
                OpKind::Compensation => prop_assert!(t.is_compensatable()),
                OpKind::Forward => prop_assert_eq!(
                    t,
                    txproc_core::activity::Termination::Retriable
                ),
            }
        }
    }

    /// The completed order `≪̃` is always a strict partial order (acyclic),
    /// whatever the input history.
    #[test]
    fn completed_order_is_acyclic(seed in 0u64..4000, cut in 0usize..30) {
        let fx = paper_world();
        let s = random_history(&fx, seed, 40).prefix(cut);
        let completed = complete(&fx.spec, &s).unwrap();
        prop_assert!(completed.order.is_acyclic());
    }

    /// Every pair of forward-recovery activities of different processes
    /// that `≪̃` orders runs in `forward_ranks` order, the order recovery
    /// begins its aborts in; and the row-built process graph is the
    /// all-pairs one.
    #[test]
    fn forward_ranks_order_the_reference_forward_pairs(seed in 0u64..4000, cut in 0usize..30) {
        let fx = paper_world();
        let s = random_history(&fx, seed, 40).prefix(cut);
        let completed = complete(&fx.spec, &s).unwrap();
        let replay = s.replay(&fx.spec).unwrap();
        prop_assert_eq!(
            process_graph_linear(&fx.spec, &replay.ops),
            process_graph_all_pairs(&fx.spec, &replay.ops)
        );
        let ranks = forward_ranks(&fx.spec, &s, &replay.states).unwrap();
        let reach = completed.order.reachability();
        let forward = || completed.completion_ops().iter().filter(|o| o.kind == OpKind::Forward);
        for x in forward() {
            for y in forward().filter(|y| y.gid.process != x.gid.process) {
                if reach.lt(x.index, y.index) {
                    let (px, py) = (x.gid.process, y.gid.process);
                    prop_assert!(ranks[&px] < ranks[&py], "{} before {} against the ranks", x, y);
                }
            }
        }
    }

    /// Committed processes contribute nothing to the completion.
    #[test]
    fn committed_processes_are_complete(seed in 0u64..4000) {
        let fx = paper_world();
        let s = random_history(&fx, seed, 60);
        let completed = complete(&fx.spec, &s).unwrap();
        for op in completed.completion_ops() {
            prop_assert!(
                !completed.committed_in_s.contains(&op.gid.process),
                "committed process {} got completion activity {}",
                op.gid.process,
                op.gid
            );
        }
    }
}
