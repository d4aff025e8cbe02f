//! The transactional process scheduler runtime on a virtual clock: a
//! deterministic discrete-event order over `Shard::run`.
//!
//! The engine is the WISE-style system the paper describes in its
//! conclusion, and every transition of it — admission by the scheduling
//! [`Policy`](crate::policy::Policy), the Lemma 2/3 completion gates, §3.5
//! certification, service invocation with failure injection, alternative
//! paths and compensations, deferred commits released by 2PC, cascading
//! aborts, the journal — is the one the concurrent driver takes: a
//! `RunCtx` with one worker and one `Shard` holding every process, run by
//! the worker's own loop. What the engine adds is the order of that loop,
//! [`VirtualTime`]: a step that executed, compensated or failed an activity
//! holds its process for the activity's duration in virtual time, and the
//! clock moves to the next wake-up only when nothing is runnable now. Same
//! seed, same history, tick for tick; the emitted [`Schedule`] can be
//! checked for PRED offline.

use crate::concurrent::{fresh_agents, livelock_budget, Clock, RunCtx, RunOrder, Shard};
use crate::policy::PolicyKind;
use crate::recovery::CrashImage;
use std::collections::VecDeque;
use std::time::Instant;
use txproc_core::ids::ProcessId;
use txproc_core::schedule::{Event, Schedule};
use txproc_core::telemetry::Telemetry;
use txproc_core::trace::{AbortReason, NoopSink, TraceSink};
use txproc_core::wal::WalWriter;
use txproc_sim::clock::{EventQueue, SimTime};
use txproc_sim::metrics::{Metrics, RuntimeMetrics};
use txproc_sim::workload::Workload;
use txproc_subsystem::tpc::Coordinator;

/// Run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Seed of the failure coins (the failure rate is the workload's).
    pub seed: u64,
    /// `false` tosses no failure coin (nor does a workload of rate 0). Kept
    /// while `benchmark/` names the other three fields beside
    /// `..RunConfig::default()`, which clippy refuses on three fields.
    pub inject_failures: bool,
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
    /// Live processes left when the budget ran out (a scheduling livelock;
    /// empty on every run that ends).
    pub stalled: Vec<ProcessId>,
}

/// The engine's order: virtual time, a discrete-event `pop_min` over the
/// arrivals and the activities in progress. A `Yield` that executed,
/// compensated or failed an activity holds its process for the duration of
/// the last one it started (a release before it costs no time); any other
/// goes to the back of the run queue at the same instant. When the run
/// queue drains, the clock moves to the next wake-up and everything due
/// then becomes runnable together, arrivals first.
struct VirtualTime {
    /// Processes yet to arrive, by arrival time (ties in process order).
    arrivals: VecDeque<(u64, ProcessId)>,
    /// Processes held while their activity runs, by the time it ends.
    in_progress: EventQueue<ProcessId>,
}

impl<'a> RunOrder<'a> for VirtualTime {
    /// A break is a tick of its own ([`Engine::tick`]).
    const BREAK_SPENDS_BUDGET: bool = true;

    fn after_yield(
        &mut self,
        ctx: &RunCtx<'a>,
        shard: &mut Shard<'a>,
        pid: ProcessId,
        emitted: usize,
    ) -> bool {
        let mut started = shard.history.events()[emitted..].iter().rev();
        let activity = started.find_map(|e| match e {
            Event::Execute(g) | Event::Compensate(g) | Event::Fail(g) if g.process == pid => {
                Some(g.activity)
            }
            _ => None,
        });
        let Some(a) = activity else {
            shard.run_queue.push_back((pid, Instant::now()));
            return false;
        };
        let service = ctx.workload.spec.process(pid).expect("known").service(a);
        let site = ctx.workload.deployment.site(service);
        let at = ctx.clock.now() + site.map_or(1, |s| s.duration);
        self.in_progress.schedule(SimTime(at), pid);
        false
    }

    fn on_drain(&mut self, ctx: &RunCtx<'a>, shard: &mut Shard<'a>) -> bool {
        let arrival = self.arrivals.front().map(|&(at, _)| at);
        let resume = self.in_progress.next_time().map(|t| t.0);
        let Some(at) = arrival.into_iter().chain(resume).min() else {
            return false;
        };
        ctx.clock.advance_to(at);
        while let Some((_, pid)) = self.arrivals.pop_front_if(|&mut (t, _)| t == at) {
            shard.admit(ctx, pid);
        }
        while self.in_progress.next_time() == Some(SimTime(at)) {
            let (_, pid) = self.in_progress.pop().expect("peeked");
            shard.run_queue.push_back((pid, Instant::now()));
        }
        true
    }
}

/// The engine: one worker's run context and shard, in virtual time.
pub struct Engine<'a> {
    /// What the workers of a concurrent run share; here there is one
    /// worker, and the clock is the virtual `now`.
    pub(crate) ctx: RunCtx<'a>,
    /// Every process of the workload, in one shard.
    pub(crate) shard: Shard<'a>,
    order: VirtualTime,
    /// What the loop counts of itself; a tick reads it, the run drops it.
    rt: RuntimeMetrics,
    /// Where the journal goes when the run ends or crashes.
    sink: Box<dyn TraceSink + 'a>,
    /// [`RunConfig::epoch`], for [`Engine::with_wal`].
    epoch: usize,
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
        let (policy, coins) = (cfg.policy, cfg.inject_failures.then_some(cfg.seed));
        let (durable, traced) = ((fresh_agents(workload), Coordinator::new()), sink.enabled());
        let clock = Clock::Virtual(0.into());
        let members: Vec<ProcessId> = workload.spec.processes().map(|p| p.id).collect();
        let mut ctx = RunCtx::new(workload, &[&members], policy, coins, traced, clock, durable);
        ctx.tele = tele;
        let shard = Shard::build(0, &members, &ctx);
        let order = VirtualTime {
            arrivals: ctx.arrival_queue(&members),
            in_progress: EventQueue::new(),
        };
        Self {
            ctx,
            shard,
            order,
            rt: RuntimeMetrics::default(),
            sink,
            epoch: cfg.epoch,
        }
    }

    /// Installs a durable write-ahead journal: every durable state
    /// transition (invocation, release, decision, history event) appends a
    /// typed record before the run proceeds past it. The writer seals
    /// itself every [`RunConfig::epoch`] history events. Journaling is pure
    /// observation — the emitted history is bit-identical with and without it.
    pub fn with_wal(mut self, writer: WalWriter) -> Self {
        self.ctx.set_wal(writer, self.epoch);
        self
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
        let live = self.shard.states().filter(|(_, st)| st.is_active());
        live.map(|(pid, _)| pid).collect()
    }

    /// Takes one step of one process, or breaks one deadlock: a run of
    /// budget 1. Returns `false` when nothing remains (all processes
    /// terminated).
    pub fn tick(&mut self) -> bool {
        let done = self.rt.steps + self.rt.repolls;
        self.shard.run(&self.ctx, &mut self.rt, 1, &mut self.order);
        self.rt.steps + self.rt.repolls > done
    }

    /// Runs until the emitted history holds at least `n` events (or nothing
    /// remains to do).
    pub fn run_until_history(&mut self, n: usize) {
        while self.history().len() < n && self.tick() {}
    }

    /// Runs to completion, or until the livelock budget runs out; returns
    /// the result.
    pub fn run(mut self) -> RunResult {
        let (ctx, budget) = (&self.ctx, livelock_budget(self.shard.states().len()));
        self.shard.run(ctx, &mut self.rt, budget, &mut self.order);
        let stalled = self.live_processes();
        let makespan = self.ctx.clock.now();
        let done = self.shard.finish(&self.ctx).journal(&mut *self.sink);
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
    pub fn crash(mut self) -> CrashImage {
        self.shard.crash(self.ctx, &mut *self.sink)
    }
}

/// Convenience: run a workload under a configuration.
pub fn run(workload: &Workload, cfg: RunConfig) -> RunResult {
    Engine::new(workload, cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use txproc_sim::workload::{generate, ArrivalModel, WorkloadConfig};

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
    fn serial_makespan_is_the_sum_of_charged_durations() {
        // The virtual-time charge rule: an `Execute`, `Compensate` or `Fail`
        // costs its activity's deployed duration (DESIGN.md, "cost of a
        // retry / a `Busy`"); a retry, a `Busy` and a step that emits
        // nothing cost no time. Serial runs one process at a time, so with
        // every arrival at 0 the makespan is exactly the sum.
        for seed in 0..6 {
            for failure in [0.0, 0.3] {
                let w = small_workload(seed, 0.5, failure);
                let cfg = RunConfig {
                    policy: PolicyKind::Serial,
                    seed,
                    ..RunConfig::default()
                };
                let result = run(&w, cfg);
                let charged = result.history.events().iter().map(|e| match e {
                    Event::Execute(g) | Event::Compensate(g) | Event::Fail(g) => {
                        let process = w.spec.process(g.process).expect("known");
                        let site = w.deployment.site(process.service(g.activity));
                        site.map_or(1, |s| s.duration)
                    }
                    _ => 0,
                });
                let label = format!("seed {seed}, failure probability {failure}");
                assert!(result.stalled.is_empty(), "{label}");
                assert_eq!(result.metrics.makespan, charged.sum::<u64>(), "{label}");
            }
        }
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
        let result = run(&w, RunConfig::default());
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
        let result = run(&w, RunConfig::default());
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
        let mut w = small_workload(7, 0.0, 0.0);
        w.config.arrivals = ArrivalModel::staggered(6, 100);
        let r = run(&w, RunConfig::default());
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
        let mut engine = Engine::new(&w, RunConfig::default());
        // Let the first few events run, then abort one process.
        engine.run_until_history(4);
        let victim = engine.live_processes()[0];
        engine.abort_process(victim);
        let result = engine.run();
        assert!(result.stalled.is_empty());
        assert!(result.metrics.aborted >= 1);
    }
}
