//! Engine ticks per history event over runs shaped like the benchmark's
//! `durable_recovery` inputs (32 processes, conflict density 0.3, failures
//! 0.1, seeds 1–96): a host-independent count of scheduler steps. A process
//! parked on its own deferred commit is re-queued only once its release's
//! gate (`Policy::can_commit`) is open; re-queued on every mutation, it
//! would poll until its blockers terminated (3.108 ticks per event here).

use txproc_engine::engine::{Engine, RunConfig};
use txproc_sim::workload::{generate, WorkloadConfig};

/// Ticks per event over these runs when a blocker's termination released
/// the deferred commits it unblocked.
const TERMINATION_RELEASE_TICKS_PER_EVENT: f64 = 1.881;

#[test]
fn parked_waiters_stay_parked_until_their_release_is_admitted() {
    let (mut ticks, mut events) = (0u64, 0u64);
    for seed in 1..=96u64 {
        let w = generate(&WorkloadConfig {
            seed,
            processes: 32,
            conflict_density: 0.3,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        });
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let mut engine = Engine::new(&w, cfg);
        while engine.tick() {
            ticks += 1;
        }
        assert!(engine.live_processes().is_empty(), "seed {seed} stalled");
        events += engine.history().len() as u64;
    }
    let ratio = ticks as f64 / events as f64;
    println!("{ticks} ticks over {events} history events: {ratio:.3} per event");
    assert!(
        ratio <= 1.05 * TERMINATION_RELEASE_TICKS_PER_EVENT,
        "{ratio:.3} ticks per event"
    );
}
