//! Heap allocations of a warm agent, counted on the host-independent side.
//!
//! One agent runs 1 000 immediate invocations of a write-only program, each
//! compensated at once. Before finished transactions handed their buffers
//! back and compensating programs moved into one arena, each pair made
//! about 8 allocations (8 027 over the 1 000 pairs). A subsystem kept a
//! write-only log of every begin, write and end until it was deleted (36
//! allocations over the 1 000 pairs with it, 26 without); what a warm agent
//! still allocates is amortized growth of its tables, such as the status of
//! every transaction begun. The bound is a fifth above the measured count.

#[path = "../../engine/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counted;
use txproc_core::activity::Catalog;
use txproc_subsystem::agent::{Agent, CommitMode, InvokeOutcome};
use txproc_subsystem::kv::{Key, KvOp, Program};
use txproc_subsystem::subsystem::{Subsystem, SubsystemId};

const PAIRS: usize = 1_000;
/// 1.2 × the 26 allocations measured.
const BOUND: u64 = 31;

#[test]
fn a_warm_agent_allocates_at_most_a_fifth_more_than_measured() {
    let mut catalog = Catalog::new();
    let (svc, _) = catalog.compensatable("w");
    let program = Program::set(Key(1), 7)
        .then(KvOp::Add(Key(2), 3))
        .then(KvOp::Set(Key(3), 9));
    let mut agent = Agent::new(Subsystem::new(SubsystemId(0), "s"));
    let pair = |agent: &mut Agent| {
        let out = agent
            .invoke(svc, &program, CommitMode::Immediate, false)
            .expect("no subsystem error");
        let InvokeOutcome::Committed { invocation, .. } = out else {
            panic!("a lone writer commits: {out:?}");
        };
        let out = agent.compensate(invocation).expect("no subsystem error");
        assert!(matches!(out, InvokeOutcome::Committed { .. }), "{out:?}");
    };
    // Warm: the first pair sizes the buffers.
    pair(&mut agent);
    let ((), allocations) = counted(|| (0..PAIRS).for_each(|_| pair(&mut agent)));
    println!("{PAIRS} invoke + compensate pairs: {allocations} allocations");
    assert!(allocations <= BOUND, "{allocations} allocations");
    assert_eq!(agent.subsystem.peek(Key(1)), Some(0));
}
