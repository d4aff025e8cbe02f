//! Linear-extension oracle for recovery, shared by `wal_crash_sweep` and
//! the unit tests of `recovery` (both include this file by path).
//!
//! Recovery's engine orders the completion activities by the protocol's
//! gates; Definition 8's reference is [`complete`], which builds `≪̃` over
//! the whole history. The oracle ties the two: what recovery appended after
//! its run of aborts must be exactly the reference's completion operations,
//! and no two of them may run against `≪̃`.

use std::collections::BTreeMap;
use txproc_core::completion::complete;
use txproc_core::schedule::{Event, OpKind, Schedule};
use txproc_core::spec::Spec;

/// Checks the events `recovered` holds past the first `before` (the crash
/// image's history) against the reference completion.
pub fn assert_tail_linearises(spec: &Spec, before: usize, recovered: &Schedule, label: &str) {
    let events = recovered.events();
    let Some(abort) = aborts_end(spec, before, recovered) else {
        // Nothing was active: recovery may only have surfaced releases.
        assert!(
            events[before..]
                .iter()
                .all(|e| matches!(e, Event::Execute(_))),
            "{label}: completion activities without a group abort"
        );
        return;
    };
    let reference = complete(spec, &recovered.prefix(abort + 1)).expect("legal history");
    let index_of: BTreeMap<_, usize> = reference
        .completion_ops()
        .iter()
        .map(|o| ((o.gid, o.kind), o.index))
        .collect();
    assert_eq!(index_of.len(), reference.completion_ops().len());
    let executed: Vec<usize> = events[abort + 1..]
        .iter()
        .map(|e| {
            let key = match e {
                Event::Execute(g) => (*g, OpKind::Forward),
                Event::Compensate(g) => (*g, OpKind::Compensation),
                other => panic!("{label}: {other} in the completion tail"),
            };
            *index_of
                .get(&key)
                .unwrap_or_else(|| panic!("{label}: {e} is no completion activity"))
        })
        .collect();
    let mut sorted = executed.clone();
    sorted.sort_unstable();
    let all: Vec<usize> = (reference.original_len..reference.ops.len()).collect();
    assert_eq!(sorted, all, "{label}: tail is not the reference completion");
    let reach = reference.order.reachability();
    for (i, &x) in executed.iter().enumerate() {
        for &y in &executed[i + 1..] {
            assert!(
                !reach.lt(y, x),
                "{label}: {} ran before {} against ≪̃",
                reference.ops[x],
                reference.ops[y]
            );
        }
    }
}

/// The index of the last event before the completion tail, when recovery
/// appended anything but releases. Recovery appends the releases it
/// surfaced (`Execute`s of processes not aborting), then its run of
/// `Abort`s, then the completion steps; a process whose completion was
/// under way at the crash needs no `Abort`, so the tail may follow the
/// releases directly.
fn aborts_end(spec: &Spec, before: usize, recovered: &Schedule) -> Option<usize> {
    let events = recovered.events();
    let states = recovered.prefix(before).replay(spec).expect("legal").states;
    let aborting = |p| states.get(&p).is_some_and(|s| s.abort_in_progress());
    let mut aborted = false;
    let tail = (before..events.len()).find(|&i| match events[i] {
        Event::Abort(_) => {
            aborted = true;
            false
        }
        Event::Execute(g) => aborted || aborting(g.process),
        _ => true,
    });
    (aborted || tail.is_some()).then(|| tail.unwrap_or(events.len()) - 1)
}
