//! The transactional process scheduler runtime on a virtual clock: a
//! deterministic discrete-event loop around `Shard::step`.
//!
//! The engine is the WISE-style system the paper describes in its
//! conclusion, and every transition of it — admission by the scheduling
//! [`Policy`](crate::policy::Policy), the Lemma 2/3 completion gates, §3.5
//! certification, service invocation with failure injection, alternative
//! paths and compensations, deferred commits released by 2PC, cascading
//! aborts, the journal — is the one the concurrent driver takes: a
//! `RunCtx` with one worker (this loop) and one `Shard` holding every
//! process. What the engine adds is *when*: it pops the next wake-up,
//! steps that process once, and charges the activity the step executed its
//! duration in virtual time. Same seed, same history, tick for tick; the
//! emitted [`Schedule`] can be checked for PRED offline.

use crate::concurrent::{fresh_agents, Clock, ConcurrentConfig, RunCtx, Shard, ShardMode, Step};
use crate::policy::PolicyKind;
use crate::recovery::CrashImage;
use std::time::Instant;
use txproc_core::ids::{GlobalActivityId, ProcessId};
use txproc_core::schedule::{Event, Schedule};
use txproc_core::telemetry::Telemetry;
use txproc_core::trace::{AbortReason, NoopSink, TraceSink};
use txproc_core::wal::WalWriter;
use txproc_sim::clock::{EventQueue, SimTime};
use txproc_sim::metrics::Metrics;
use txproc_sim::workload::Workload;
use txproc_subsystem::tpc::Coordinator;

/// Run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Seed of the failure-injection coins.
    pub seed: u64,
    /// Whether failable activities may fail (probability from the workload).
    pub inject_failures: bool,
    /// Virtual time between process arrivals (0: all at time zero).
    pub arrival_gap: u64,
    /// Journal seal cadence: an installed WAL is sealed (and, under
    /// `FsyncPerEpoch`, synced) every `epoch` history events; `0` seals
    /// every event. Read once, where the WAL is installed
    /// ([`Engine::with_wal`]); it selects nothing else, so no value can
    /// change a history, a metric or a decision journal.
    pub epoch: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            policy: PolicyKind::Pred,
            seed: 7,
            inject_failures: true,
            arrival_gap: 0,
            epoch: 0,
        }
    }
}

/// Result of a run.
#[derive(Debug)]
pub struct RunResult {
    /// Collected metrics.
    pub metrics: Metrics,
    /// The emitted history.
    pub history: Schedule,
    /// Processes that could not make progress (scheduling stall — should
    /// always be empty; reported instead of hanging).
    pub stalled: Vec<ProcessId>,
}

/// What a wake-up is for.
enum Wake {
    /// The process arrives: it is admitted to the shard.
    Arrival,
    /// The activity the process was executing ends: it is runnable again.
    Resume,
}

/// The engine.
pub struct Engine<'a> {
    /// What the workers of a concurrent run share; here there is one
    /// worker, this loop, and the clock is the virtual `now`.
    ctx: RunCtx<'a>,
    /// Every process of the workload, in one shard.
    pub(crate) shard: Shard<'a>,
    /// Wake-ups in virtual time: arrivals, and the ends of the activities
    /// in progress. What is due now sits in the shard's run queue.
    queue: EventQueue<(Wake, ProcessId)>,
}

impl<'a> Engine<'a> {
    /// Sets up a run over a workload with the default (no-op) trace sink.
    pub fn new(workload: &'a Workload, cfg: RunConfig) -> Self {
        Self::assemble(workload, cfg, Box::new(NoopSink), Telemetry::off())
    }

    /// The one engine constructor behind [`Engine::new`] and
    /// [`crate::builder::RunBuilder`]. Phase timers feed `tele`'s registry;
    /// a disabled handle costs one branch per site.
    pub(crate) fn assemble(
        workload: &'a Workload,
        cfg: RunConfig,
        sink: Box<dyn TraceSink + 'a>,
        tele: Telemetry,
    ) -> Self {
        let run = ConcurrentConfig {
            policy: cfg.policy,
            seed: cfg.seed,
            inject_failures: cfg.inject_failures,
            shards: ShardMode::Single,
            workers: Some(1),
            epoch: cfg.epoch,
        };
        // Closed arrivals keep the config's `arrival_gap` staggering; open
        // models (Poisson / Burst) take their times from the workload.
        let durable = (fresh_agents(workload), Coordinator::new());
        let clock = Clock::Virtual(0);
        let mut ctx = RunCtx::new(
            workload,
            run,
            sink,
            Vec::new(),
            clock,
            cfg.arrival_gap,
            durable,
        );
        ctx.tele = tele;
        let members: Vec<ProcessId> = workload.spec.processes().map(|p| p.id).collect();
        let shard = Shard::build(0, &members, &ctx);
        let mut queue = EventQueue::new();
        for pid in members {
            queue.schedule(SimTime(ctx.arrival(pid)), (Wake::Arrival, pid));
        }
        Self { ctx, shard, queue }
    }

    /// Installs a durable write-ahead journal: every durable state
    /// transition (invocation, release, decision, history event) appends a
    /// typed record before the run proceeds past it. The writer seals
    /// itself every [`RunConfig::epoch`] history events. Journaling is pure
    /// observation — the emitted history is bit-identical with and without it.
    pub fn with_wal(mut self, writer: WalWriter) -> Self {
        self.set_wal(writer);
        self
    }

    pub(crate) fn set_wal(&mut self, writer: WalWriter) {
        self.ctx.set_wal(writer);
    }

    /// The emitted history so far.
    pub fn history(&self) -> &Schedule {
        &self.shard.history
    }

    /// Current metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.shard.metrics
    }

    /// Processes that have not terminated.
    pub fn live_processes(&self) -> Vec<ProcessId> {
        let live = self.shard.states.iter().filter(|(_, st)| st.is_active());
        live.map(|(&pid, _)| pid).collect()
    }

    fn duration_of(&self, gid: GlobalActivityId) -> u64 {
        let workload = self.ctx.workload;
        let process = workload.spec.process(gid.process).expect("known");
        let site = workload.deployment.site(process.service(gid.activity));
        site.map(|s| s.duration).unwrap_or(1)
    }

    /// Takes one step of one process. Returns `false` when nothing remains
    /// (all processes terminated).
    pub fn tick(&mut self) -> bool {
        loop {
            if let Some((pid, _)) = self.shard.pop_runnable() {
                self.step(pid);
                return true;
            }
            // Nothing is runnable at `now`. The clock moves to the next
            // wake-up and everything due then becomes runnable together;
            // only when no wake-up is left is a clean shard's blocked set a
            // deadlock, resolved by probing like any drained shard's.
            if let Some(at) = self.queue.next_time() {
                self.ctx.clock = Clock::Virtual(at.0);
                while self.queue.next_time() == Some(at) {
                    match self.queue.pop().expect("peeked").1 {
                        (Wake::Arrival, pid) => self.shard.admit(&self.ctx, pid),
                        (Wake::Resume, pid) => self.resume(pid),
                    }
                }
            } else if !self.shard.probe() {
                return false;
            }
        }
    }

    fn resume(&mut self, pid: ProcessId) {
        self.shard.run_queue.push_back((pid, Instant::now()));
    }

    /// One [`Shard::step`] of `pid`, and its cost in virtual time: a step
    /// that executed, compensated or failed an activity takes the activity's
    /// duration; any other takes none, and the process stays runnable now.
    fn step(&mut self, pid: ProcessId) {
        let now = self.ctx.clock.now();
        let emitted = self.shard.history.len();
        if self.shard.step(&self.ctx, pid) != Step::Yield {
            return;
        }
        let emitted = &self.shard.history.events()[emitted..];
        let activity = emitted.iter().find_map(|e| match e {
            Event::Execute(g) | Event::Compensate(g) | Event::Fail(g) if g.process == pid => {
                Some(*g)
            }
            _ => None,
        });
        match activity {
            Some(gid) => {
                let at = SimTime(now + self.duration_of(gid));
                self.queue.schedule(at, (Wake::Resume, pid));
            }
            None => self.resume(pid),
        }
    }

    /// Runs until the emitted history holds at least `n` events (or nothing
    /// remains to do).
    pub fn run_until_history(&mut self, n: usize) {
        while self.history().len() < n && self.tick() {}
    }

    /// Runs to completion; returns the result.
    pub fn run(mut self) -> RunResult {
        // Safety bound: a run of n processes needs O(n · activities) steps;
        // hitting the bound indicates a scheduling livelock, which is
        // reported via `stalled` instead of hanging.
        let max_ticks = 10_000 * (self.shard.states.len() as u64 + 1);
        let mut ticks = 0u64;
        while self.tick() {
            ticks += 1;
            if ticks > max_ticks {
                break;
            }
        }
        let stalled = self.live_processes();
        let makespan = self.ctx.clock.now();
        let done = self.shard.finish(&self.ctx);
        self.ctx.finish();
        let mut metrics = done.metrics;
        metrics.makespan = makespan;
        RunResult {
            metrics,
            history: done.history,
            stalled,
        }
    }

    /// Requests an abort of a process from outside (an operator, a test).
    pub fn abort_process(&mut self, pid: ProcessId) {
        self.shard
            .initiate_abort(&self.ctx, pid, AbortReason::External, None);
    }

    /// Simulates a scheduler crash: volatile state (policy, process states,
    /// event queue) is lost; the durable pieces — emitted history,
    /// invocation log, 2PC decision log, and the subsystems themselves —
    /// survive as a [`CrashImage`].
    pub fn crash(self) -> CrashImage {
        self.shard.crash(self.ctx)
    }
}

/// Convenience: run a workload under a configuration.
pub fn run(workload: &Workload, cfg: RunConfig) -> RunResult {
    Engine::new(workload, cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use txproc_sim::workload::{generate, WorkloadConfig};

    fn small_workload(seed: u64, conflict_density: f64, failure: f64) -> Workload {
        generate(&WorkloadConfig {
            seed,
            processes: 6,
            conflict_density,
            failure_probability: failure,
            ..WorkloadConfig::default()
        })
    }

    fn is_pred(w: &Workload, result: &RunResult) -> bool {
        txproc_core::pred::is_pred(&w.spec, &result.history).expect("a legal history")
    }

    #[test]
    fn all_processes_terminate_under_pred() {
        let w = small_workload(1, 0.4, 0.15);
        let result = run(&w, RunConfig::default());
        assert!(result.stalled.is_empty(), "stalled: {:?}", result.stalled);
        assert_eq!(result.metrics.terminated(), 6);
        assert!(result.metrics.activities > 0);
    }

    #[test]
    fn pred_histories_are_pred() {
        for seed in 0..8 {
            let w = small_workload(seed, 0.5, 0.2);
            let result = run(
                &w,
                RunConfig {
                    seed,
                    ..RunConfig::default()
                },
            );
            assert!(result.stalled.is_empty(), "seed {seed}: stalled");
            assert!(
                is_pred(&w, &result),
                "seed {seed}: history not PRED:\n{}",
                txproc_core::schedule::render(&result.history)
            );
        }
    }

    #[test]
    fn serial_policy_is_pred_and_slower() {
        let w = small_workload(3, 0.5, 0.0);
        let pred = run(&w, RunConfig::default());
        let serial = run(
            &w,
            RunConfig {
                policy: PolicyKind::Serial,
                ..RunConfig::default()
            },
        );
        assert!(serial.stalled.is_empty());
        assert!(
            serial.metrics.makespan >= pred.metrics.makespan,
            "serial {} < pred {}",
            serial.metrics.makespan,
            pred.metrics.makespan
        );
    }

    #[test]
    fn conservative_policy_terminates() {
        let w = small_workload(4, 0.6, 0.1);
        let result = run(
            &w,
            RunConfig {
                policy: PolicyKind::Conservative,
                ..RunConfig::default()
            },
        );
        assert!(result.stalled.is_empty());
        assert!(is_pred(&w, &result));
    }

    #[test]
    fn unsafe_cc_violates_pred_under_failures() {
        // The headline claim: CC without recovery produces histories that
        // are not prefix-reducible once failures occur.
        let mut violations = 0;
        for seed in 0..20 {
            let w = small_workload(seed, 0.7, 0.3);
            let result = run(
                &w,
                RunConfig {
                    policy: PolicyKind::UnsafeCc,
                    seed,
                    ..RunConfig::default()
                },
            );
            if !is_pred(&w, &result) {
                violations += 1;
            }
        }
        assert!(
            violations > 0,
            "expected at least one PRED violation from the unsafe scheduler"
        );
    }

    #[test]
    fn no_failures_still_terminates_everything_and_stays_pred() {
        // Without failures the only aborts are scheduler-initiated
        // (serializability rejections); everything terminates and the
        // history stays PRED.
        let w = small_workload(5, 0.3, 0.0);
        let result = run(
            &w,
            RunConfig {
                inject_failures: false,
                ..RunConfig::default()
            },
        );
        assert_eq!(result.metrics.terminated(), 6);
        assert_eq!(
            result.metrics.aborted,
            result.metrics.rejections + result.metrics.cascaded
        );
        assert!(is_pred(&w, &result));
    }

    #[test]
    fn zero_hot_key_density_still_terminates_and_stays_pred() {
        // Even with no hot keys, processes can conflict by reusing the same
        // pooled service; everything must still terminate correctly.
        let w = small_workload(5, 0.0, 0.0);
        let result = run(
            &w,
            RunConfig {
                inject_failures: false,
                ..RunConfig::default()
            },
        );
        assert_eq!(result.metrics.terminated(), 6);
        assert!(is_pred(&w, &result));
    }

    #[test]
    fn deterministic_runs() {
        let w = small_workload(6, 0.5, 0.2);
        let r1 = run(&w, RunConfig::default());
        let r2 = run(&w, RunConfig::default());
        assert_eq!(r1.history, r2.history);
        assert_eq!(r1.metrics.makespan, r2.metrics.makespan);
    }

    #[test]
    fn arrival_gap_staggers_processes() {
        let w = small_workload(7, 0.0, 0.0);
        let r = run(
            &w,
            RunConfig {
                arrival_gap: 100,
                inject_failures: false,
                ..RunConfig::default()
            },
        );
        assert!(r.metrics.makespan >= 500, "makespan {}", r.metrics.makespan);
    }

    #[test]
    fn histories_replay_cleanly() {
        // Every emitted history must be a legal schedule (Definition 7.1).
        for seed in 0..5 {
            let w = small_workload(seed, 0.5, 0.25);
            let result = run(
                &w,
                RunConfig {
                    seed,
                    ..RunConfig::default()
                },
            );
            assert!(result.history.replay(&w.spec).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn external_abort_runs_completion() {
        let w = small_workload(9, 0.0, 0.0);
        let mut engine = Engine::new(
            &w,
            RunConfig {
                inject_failures: false,
                ..RunConfig::default()
            },
        );
        // Let the first few events run, then abort one process.
        engine.run_until_history(4);
        let victim = engine.live_processes()[0];
        engine.abort_process(victim);
        let result = engine.run();
        assert!(result.stalled.is_empty());
        assert!(result.metrics.aborted >= 1);
    }
}
