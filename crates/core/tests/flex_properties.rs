//! Property tests for the flex-structure analysis: the syntactic
//! guaranteed-termination criterion is cross-validated against exhaustive
//! operational exploration of the execution state machine.

use proptest::prelude::*;
use txproc_core::activity::Catalog;
use txproc_core::flex::{valid_executions, FlexAnalysis};
use txproc_core::ids::{ActivityId, ProcessId};
use txproc_core::process::{Process, ProcessBuilder};
use txproc_core::state::{ExecStep, ProcessState};

/// Node of a randomly generated process tree.
#[derive(Debug, Clone)]
enum Node {
    /// A chain of activities with given terminations, then an optional
    /// continuation.
    Chain(Vec<Kind>, Option<Box<Node>>),
    /// A preference-ordered choice between two subtrees.
    Choice(Box<Node>, Box<Node>),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Comp,
    Pivot,
    Retriable,
}

fn kind_strategy() -> impl Strategy<Value = Kind> {
    prop_oneof![
        3 => Just(Kind::Comp),
        1 => Just(Kind::Pivot),
        2 => Just(Kind::Retriable),
    ]
}

fn node_strategy() -> impl Strategy<Value = Node> {
    let leaf =
        proptest::collection::vec(kind_strategy(), 1..4).prop_map(|ks| Node::Chain(ks, None));
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            (
                proptest::collection::vec(kind_strategy(), 1..3),
                inner.clone()
            )
                .prop_map(|(ks, n)| Node::Chain(ks, Some(Box::new(n)))),
            (inner.clone(), inner).prop_map(|(a, b)| Node::Choice(Box::new(a), Box::new(b))),
        ]
    })
}

/// Builds a process from a random tree. Returns `None` when the shape is
/// structurally invalid for the builder (never happens for these trees).
fn build(node: &Node) -> Option<(Catalog, Process)> {
    let mut catalog = Catalog::new();
    let mut builder = ProcessBuilder::new(ProcessId(1), "random");
    fn emit(
        node: &Node,
        catalog: &mut Catalog,
        builder: &mut ProcessBuilder,
        attach: Option<ActivityId>,
        counter: &mut u32,
    ) -> (ActivityId, ActivityId) {
        match node {
            Node::Chain(kinds, next) => {
                let mut first = None;
                let mut prev = attach;
                for k in kinds {
                    *counter += 1;
                    let svc = match k {
                        Kind::Comp => catalog.compensatable(format!("c{counter}")).0,
                        Kind::Pivot => catalog.pivot(format!("p{counter}")),
                        Kind::Retriable => catalog.retriable(format!("r{counter}")),
                    };
                    let a = builder.activity(format!("a{counter}"), svc);
                    if let Some(p) = prev {
                        builder.precede(p, a);
                    }
                    first.get_or_insert(a);
                    prev = Some(a);
                }
                let first = first.expect("non-empty chain");
                match next {
                    Some(n) => {
                        let (_, last) = emit(n, catalog, builder, prev, counter);
                        (first, last)
                    }
                    None => (first, prev.expect("non-empty")),
                }
            }
            Node::Choice(a, b) => {
                // Anchor the choice at a fresh compensatable activity.
                *counter += 1;
                let svc = catalog.compensatable(format!("x{counter}")).0;
                let anchor = builder.activity(format!("anchor{counter}"), svc);
                if let Some(p) = attach {
                    builder.precede(p, anchor);
                }
                let (fa, la) = emit(a, catalog, builder, Some(anchor), counter);
                let (fb, _lb) = emit(b, catalog, builder, Some(anchor), counter);
                builder.prefer(anchor, fa, fb);
                (anchor, la)
            }
        }
    }
    let mut counter = 0;
    emit(node, &mut catalog, &mut builder, None, &mut counter);
    let process = builder.build(&catalog).ok()?;
    Some((catalog, process))
}

/// Exhaustively explores every outcome combination; returns false if any
/// reachable failure is unhandled (operational guaranteed termination).
fn exploration_guarantees(process: &Process, catalog: &Catalog) -> bool {
    valid_executions(process, catalog, 100_000).is_ok()
}

/// The body of `syntactic_gt_is_sound`, as a plain function of the drawn tree
/// (`regression_fallback_behind_an_all_retriable_branch` replays one).
fn syntactic_gt_is_sound_on(node: &Node) -> TestCaseResult {
    let Some((catalog, process)) = build(node) else {
        return Ok(());
    };
    if process.len() > 14 {
        // Keep the exhaustive exploration affordable.
        return Ok(());
    }
    let analysis = FlexAnalysis::analyze(&process, &catalog);
    if analysis.has_guaranteed_termination() {
        prop_assert!(
            exploration_guarantees(&process, &catalog),
            "syntactic check accepted a process with an unhandled failure: {process:?}"
        );
    }
    Ok(())
}

/// The one case the retired `flex_properties.proptest-regressions` recorded,
/// `Choice(Chain([Retriable], None), Chain([Pivot, Comp], None))`: the
/// fallback's pivot is never reached because the preferred branch cannot
/// fail, so exploration passes a process the syntactic criterion rejects —
/// why the property is soundness and not equivalence.
#[test]
fn regression_fallback_behind_an_all_retriable_branch() {
    let node = Node::Choice(
        Box::new(Node::Chain(vec![Kind::Retriable], None)),
        Box::new(Node::Chain(vec![Kind::Pivot, Kind::Comp], None)),
    );
    syntactic_gt_is_sound_on(&node).unwrap();
    let (catalog, process) = build(&node).expect("the tree builds");
    assert!(!FlexAnalysis::analyze(&process, &catalog).has_guaranteed_termination());
    assert!(exploration_guarantees(&process, &catalog));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The syntactic guaranteed-termination criterion is *sound*: whenever
    /// it accepts a process, exhaustive operational exploration confirms
    /// that every reachable failure is handled. (The criterion is
    /// conservative: it may reject a process whose risky branch is
    /// operationally unreachable — e.g. a fallback behind an all-retriable
    /// preferred branch that can never fail.)
    #[test]
    fn syntactic_gt_is_sound(node in node_strategy()) {
        syntactic_gt_is_sound_on(&node)?;
    }

    /// Strict well-formed flex structure implies guaranteed termination
    /// ([ZNBB94]'s theorem).
    #[test]
    fn strict_wff_implies_gt(node in node_strategy()) {
        let Some((catalog, process)) = build(&node) else {
            return Ok(());
        };
        let analysis = FlexAnalysis::analyze(&process, &catalog);
        if analysis.strict_well_formed {
            prop_assert!(analysis.has_guaranteed_termination());
        }
    }

    /// Every enumerated valid execution replays cleanly through a fresh
    /// state machine and terminates in the advertised way.
    #[test]
    fn valid_executions_replay(node in node_strategy()) {
        let Some((catalog, process)) = build(&node) else {
            return Ok(());
        };
        let analysis = FlexAnalysis::analyze(&process, &catalog);
        if !analysis.has_guaranteed_termination() {
            return Ok(());
        }
        let execs = valid_executions(&process, &catalog, 512).unwrap();
        prop_assert!(!execs.is_empty());
        for e in &execs {
            // Replay: drive a machine so that it reproduces the steps.
            let mut st = ProcessState::new(&process, &catalog).unwrap();
            for step in &e.steps {
                match *step {
                    ExecStep::Executed(a) => {
                        // Fail frontier activities until `a` becomes current.
                        let mut guard = 0;
                        while st.next_activity() != Some(a) {
                            if let Some(c) = st.next_compensation() {
                                st.apply_compensation(c).unwrap();
                            } else {
                                let f = st.next_activity().expect("pending activity");
                                st.apply_failure(f).unwrap();
                            }
                            guard += 1;
                            prop_assert!(guard < 64, "replay diverged");
                        }
                        st.apply_commit(a).unwrap();
                    }
                    ExecStep::Compensated(a) => {
                        let mut guard = 0;
                        while st.next_compensation() != Some(a) {
                            let f = st.next_activity().expect("pending activity");
                            st.apply_failure(f).unwrap();
                            guard += 1;
                            prop_assert!(guard < 64, "replay diverged");
                        }
                        st.apply_compensation(a).unwrap();
                    }
                }
            }
        }
    }

    /// Committed executions never contain dangling compensations: each
    /// compensated activity was executed earlier in the same run.
    #[test]
    fn compensations_follow_their_activities(node in node_strategy()) {
        let Some((catalog, process)) = build(&node) else {
            return Ok(());
        };
        if !FlexAnalysis::analyze(&process, &catalog).has_guaranteed_termination() {
            return Ok(());
        }
        for e in valid_executions(&process, &catalog, 512).unwrap() {
            let mut executed = std::collections::BTreeSet::new();
            for step in &e.steps {
                match *step {
                    ExecStep::Executed(a) => {
                        prop_assert!(executed.insert(a), "activity executed twice");
                    }
                    ExecStep::Compensated(a) => {
                        prop_assert!(executed.contains(&a), "compensated before executed");
                    }
                }
            }
        }
    }
}
