//! Scheduler crash recovery (§3.3): completing all active processes from the
//! durable state — the crash run backwards, then the scheduler's own step.
//!
//! When the process scheduler crashes, its volatile state (policy graph,
//! process cursors, event queue) is gone. What survives is the emitted
//! history, the invocation log, the 2PC decision log, and the subsystems
//! themselves (holding committed state and in-doubt prepared transactions).
//! Recovery then
//!
//! 1. finishes in-doubt 2PC groups from the coordinator's decision log;
//! 2. restores the scheduler from the image (`Shard::restore`: the history
//!    and the invocation log folded as one sequence, each invocation at the
//!    position the log gave it) with admissions closed, and re-emits what a
//!    cut log lost: a release the decision log shows applied
//!    (`Shard::settle_prepared`);
//! 3. checks that every completion step left names what the step will look
//!    up, and aborts every live process for one reason (`External`), in the
//!    order `complete` runs conflicting forward recovery in (Definition
//!    8.3(d)) — an undecided prepared invocation is dropped on the way;
//! 4. runs the shard as an event worker does (`Shard::run`) until no
//!    process is left: `Shard::step` executes each completion, ordered by
//!    the Lemma 2/3 gates as online.
//!
//! It fails closed: what the image lacks answers with a [`RecoveryError`]
//! before the first step, and this file has no `expect`/`unwrap`/`panic!`
//! site. The extended history is a completed process schedule; the crash
//! sweeps check its tail against the reference `≪̃` of
//! [`txproc_core::completion::complete`].

use crate::concurrent::{livelock_budget, Fifo, RunCtx, Shard};
use crate::durability::{rebuild_image, RebuildError};
use std::collections::BTreeMap;
use txproc_core::completion::forward_ranks;
use txproc_core::error::{ModelError, ScheduleError};
use txproc_core::ids::{GlobalActivityId, ProcessId, ServiceId};
use txproc_core::schedule::Schedule;
use txproc_core::trace::{NoopSink, TraceSink};
use txproc_core::wal::{foreign_head, read_records};
use txproc_sim::metrics::RuntimeMetrics;
use txproc_sim::workload::Workload;
use txproc_subsystem::agent::{Agent, InvocationId};
use txproc_subsystem::error::SubsystemError;
use txproc_subsystem::subsystem::SubsystemId;
use txproc_subsystem::tpc::Coordinator;

/// One durable invocation-log entry: enough to find the subsystem
/// transaction of an activity after a scheduler crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvocationLogEntry {
    /// The activity.
    pub gid: GlobalActivityId,
    /// Where it ran.
    pub subsystem: SubsystemId,
    /// The invocation handle at the agent.
    pub invocation: InvocationId,
    /// Whether the invocation was left prepared (commit deferred).
    pub prepared: bool,
    /// How many history events were emitted before the invocation was
    /// logged: an immediate one's own `Execute` is event `at`, a prepared
    /// one's release comes later. Recovery restores it at this position.
    pub at: u64,
}

/// The durable state surviving a scheduler crash.
#[derive(Debug, Clone)]
pub struct CrashImage {
    /// The emitted history (the scheduler's durable log).
    pub history: Schedule,
    /// The subsystems, under one of two crash models. The in-memory crash
    /// path (`Engine::crash`, a recovery's report) hands them over as the
    /// crash left them: they did not crash. `rebuild_image` rebuilds them
    /// from the log prefix: they crashed with the log and lost the effects
    /// of its lost tail. ROADMAP item 12 makes the first the only one.
    pub agents: BTreeMap<SubsystemId, Agent>,
    /// The 2PC coordinator's decision log.
    pub coordinator: Coordinator,
    /// The durable invocation log.
    pub invocation_log: Vec<InvocationLogEntry>,
}

/// Outcome of recovery.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The extended history (original + recovery's aborts + completions).
    pub history: Schedule,
    /// Processes recovery completed, in the order it began their aborts.
    pub aborted: Vec<ProcessId>,
    /// Compensating activities executed during recovery.
    pub compensations: usize,
    /// Forward-recovery activities executed during recovery.
    pub forward: usize,
    /// 2PC groups finished from the decision log.
    pub resolved_groups: usize,
    /// Prepared invocations aborted because no decision was logged.
    pub aborted_prepared: usize,
    /// The durable state after recovery: the extended history plus the
    /// updated subsystems, decision log and invocation log. A crash right
    /// after recovery resumes from this image — recovering it again must be
    /// a no-op (idempotence, exercised by the tests).
    pub image: CrashImage,
}

/// Where [`Recovery`] reads its durable state from.
#[derive(Debug)]
pub enum RecoverySource {
    /// A live crash image — the volatile-state path the tests and the
    /// `crash` CLI command use.
    Image(CrashImage),
    /// The bytes of a WAL (a file read back, a
    /// [`txproc_core::wal::MemWal`] snapshot): salvage the clean prefix
    /// (torn tails are truncated), rebuild the crash image by replay, then
    /// recover.
    WalBytes(Vec<u8>),
}

/// What can go wrong between a durable log and a recovered history.
/// Recovery fails closed: a lookup keyed by image contents that finds
/// nothing answers with one of these.
#[derive(Debug)]
pub enum RecoveryError {
    /// The salvaged log does not replay into a consistent crash image.
    Rebuild(RebuildError),
    /// A subsystem rejected a recovery action.
    Subsystem(SubsystemError),
    /// The durable history is not a legal schedule of the workload, or its
    /// completion cannot be run to the end.
    History(ScheduleError),
    /// The image names a subsystem it holds no agent for.
    UnknownSubsystem(SubsystemId),
    /// An activity to compensate has no committed invocation in the log
    /// that its subsystem holds.
    NotLogged(GlobalActivityId),
    /// A forward-recovery activity's service is deployed nowhere.
    NotDeployed(ServiceId),
    /// The invocation log places this invocation before the one logged
    /// ahead of it, or past the end of the history.
    Misplaced(GlobalActivityId),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Rebuild(e) => write!(f, "rebuilding crash image: {e}"),
            RecoveryError::Subsystem(e) => write!(f, "recovering: {e}"),
            RecoveryError::History(e) => write!(f, "durable history: {e}"),
            RecoveryError::UnknownSubsystem(s) => write!(f, "no agent for subsystem {}", s.0),
            RecoveryError::NotLogged(g) => write!(f, "no committed invocation logged for {g}"),
            RecoveryError::NotDeployed(s) => write!(f, "service {s} is not deployed"),
            RecoveryError::Misplaced(g) => write!(f, "invocation of {g} logged out of order"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<SubsystemError> for RecoveryError {
    fn from(e: SubsystemError) -> Self {
        RecoveryError::Subsystem(e)
    }
}

impl From<ScheduleError> for RecoveryError {
    fn from(e: ScheduleError) -> Self {
        RecoveryError::History(e)
    }
}

impl From<ModelError> for RecoveryError {
    fn from(e: ModelError) -> Self {
        RecoveryError::History(e.into())
    }
}

/// The unified recovery entry point: image-based and WAL-based recovery
/// share this one call site and one traced path.
///
/// ```
/// # use txproc_core::trace::Journal;
/// # use txproc_core::wal::{DurabilityPolicy, MemWal, WalWriter};
/// # use txproc_engine::{Engine, Recovery, RecoverySource, RunBuilder, RunConfig};
/// # use txproc_sim::workload::{generate, WorkloadConfig};
/// # let seed = 4;
/// # let workload = generate(&WorkloadConfig { seed, processes: 4, ..WorkloadConfig::default() });
/// # let (journal, wal, cfg) = (Journal::new(), MemWal::new(), RunConfig { seed, ..RunConfig::default() });
/// # let writer = WalWriter::new(Box::new(wal.clone()), DurabilityPolicy::FsyncPerEpoch, seed);
/// # RunBuilder::new(&workload).config(cfg.clone()).durability(writer, 0).run();
/// # let bytes = wal.contents();
/// # let mut engine = Engine::new(&workload, cfg);
/// # for _ in 0..8 {
/// #     engine.tick();
/// # }
/// # let image = engine.crash();
/// let report = Recovery::from(RecoverySource::WalBytes(bytes)).run(&workload)?;
/// let report = Recovery::from(RecoverySource::Image(image))
///     .sink(Box::new(journal.clone()))
///     .run(&workload)?;
/// # Ok::<(), txproc_engine::RecoveryError>(())
/// ```
pub struct Recovery<'s> {
    source: RecoverySource,
    sink: Box<dyn TraceSink + 's>,
}

impl<'s> Recovery<'s> {
    /// Recovery over a durable source, with the no-op trace sink.
    #[allow(clippy::should_implement_trait)] // mirrors `RunBuilder::new`; not a `From` impl
    pub fn from(source: RecoverySource) -> Self {
        Self {
            source,
            sink: Box::new(NoopSink),
        }
    }

    /// Delivers the decision trace of recovery's run into `sink`: the
    /// scheduler-initiated group abort (`initiator: None`), each abort it
    /// starts (`AbortStarted`, reason `External`), every release it
    /// surfaces and completion step it takes, and the
    /// `ProcessAborted` terminations, all at once when the run ends. A
    /// recovery that fails delivers nothing.
    pub fn sink(mut self, sink: Box<dyn TraceSink + 's>) -> Self {
        self.sink = sink;
        self
    }

    /// Resolves the source to a crash image (salvaging and replaying the
    /// WAL when needed) and runs recovery over it.
    pub fn run(self, workload: &Workload) -> Result<RecoveryReport, RecoveryError> {
        let image = match self.source {
            RecoverySource::Image(image) => image,
            RecoverySource::WalBytes(bytes) => image_of_log(workload, &bytes)?,
        };
        recover_impl(workload, image, self.sink)
    }
}

/// Salvages the clean prefix of a log and rebuilds its crash image. A log
/// whose first frame is intact yet undecodable has no clean prefix to
/// salvage — it is another format's log, not a torn one — and is refused.
fn image_of_log(workload: &Workload, bytes: &[u8]) -> Result<CrashImage, RecoveryError> {
    let (records, _clean) = read_records(bytes);
    if records.is_empty() && foreign_head(bytes) {
        return Err(RecoveryError::Rebuild(RebuildError::ForeignLog));
    }
    rebuild_image(workload, &records).map_err(RecoveryError::Rebuild)
}

/// Runs crash recovery over a crash image. Shorthand for
/// `Recovery::from(RecoverySource::Image(image)).run(workload)`.
pub fn recover(workload: &Workload, image: CrashImage) -> Result<RecoveryReport, RecoveryError> {
    recover_impl(workload, image, Box::new(NoopSink))
}

/// The one recovery implementation behind [`recover`] and [`Recovery`]: the
/// scheduler restored from the image, its live processes aborted, and run.
pub(crate) fn recover_impl<'s>(
    workload: &'s Workload,
    mut image: CrashImage,
    mut sink: Box<dyn TraceSink + 's>,
) -> Result<RecoveryReport, RecoveryError> {
    let logged = image.invocation_log.iter().map(|e| e.subsystem);
    let named = workload.deployment.subsystems().into_iter().chain(logged);
    if let Some(sid) = named.filter(|s| !image.agents.contains_key(s)).min() {
        return Err(RecoveryError::UnknownSubsystem(sid));
    }
    let log = &image.invocation_log;
    let backwards = log.windows(2).find(|w| w[1].at < w[0].at).map(|w| &w[1]);
    let past = || log.iter().find(|e| e.at > image.history.len() as u64);
    if let Some(e) = backwards.or_else(past) {
        return Err(RecoveryError::Misplaced(e.gid));
    }
    let resolved_groups = image.coordinator.resolve_in_doubt(&mut image.agents)?.len();
    let (ctx, mut shard) = Shard::restore(workload, image, sink.enabled())?;
    let aborted_prepared = shard.settle_prepared(&ctx)?;
    let surfaced = shard.metrics.activities;
    let ranks = completion_order(workload, &ctx, &shard)?;
    let aborted = shard.abort_live(&ctx, &ranks);
    let budget = livelock_budget(shard.states().len());
    if shard.run(&ctx, &mut RuntimeMetrics::default(), budget, &mut Fifo) > 0 {
        return Err(RecoveryError::History(ScheduleError::CyclicCompletionOrder));
    }
    let metrics = &shard.metrics;
    let (compensations, forward) = (metrics.compensations, metrics.activities - surfaced);
    let image = shard.crash(ctx, &mut *sink);
    Ok(RecoveryReport {
        history: image.history.clone(),
        image,
        aborted,
        compensations: compensations as usize,
        forward: forward as usize,
        resolved_groups,
        aborted_prepared,
    })
}

/// Fails closed before the first step, and ranks the aborts. Every
/// completion step left names what the step will look up: a compensation
/// an invocation its subsystem holds, a forward-recovery activity a deployed
/// service. The ranks are `complete`'s forward-recovery order, which only
/// two live processes with conflicting forward-recovery activities need —
/// the gates order every other pair of completion steps.
fn completion_order(
    workload: &Workload,
    ctx: &RunCtx<'_>,
    shard: &Shard<'_>,
) -> Result<BTreeMap<ProcessId, usize>, RecoveryError> {
    let spec = &workload.spec;
    let mut forward: Vec<Vec<ServiceId>> = Vec::new();
    for (pid, state) in shard.states().filter(|(_, s)| s.is_active()) {
        let (completion, service) = (state.completion(), |a| state.process().service(a));
        for &a in &completion.compensations {
            let gid = GlobalActivityId::new(pid, a);
            let logged = shard.invocation(ctx, gid);
            if logged.and_then(|(sid, inv)| ctx.invoked(sid, inv)) != Some(service(a)) {
                return Err(RecoveryError::NotLogged(gid));
            }
        }
        let services: Vec<ServiceId> = completion.forward.into_iter().map(service).collect();
        if let Some(&s) = (services.iter()).find(|&&s| workload.deployment.site(s).is_none()) {
            return Err(RecoveryError::NotDeployed(s));
        }
        forward.push(services);
    }
    let conflict = |a: &[ServiceId], b: &[ServiceId]| {
        (a.iter()).any(|&x| b.iter().any(|&y| spec.oracle().conflict(x, y)))
    };
    let mut pairs = forward.iter().enumerate();
    if !pairs.any(|(i, a)| forward[i + 1..].iter().any(|b| conflict(a, b))) {
        return Ok(BTreeMap::new());
    }
    Ok(forward_ranks(spec, &shard.history, shard.states())?)
}

#[cfg(test)]
#[path = "../tests/support/tail_oracle.rs"]
mod tail_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunConfig};
    use txproc_core::ids::ActivityId;
    use txproc_core::reduction::is_reducible;
    use txproc_sim::workload::{generate, WorkloadConfig};

    /// [`super::recover`], with the linear-extension oracle on its result.
    fn recover(w: &Workload, image: CrashImage) -> Result<RecoveryReport, RecoveryError> {
        let before = image.history.len();
        let report = super::recover(w, image)?;
        tail_oracle::assert_tail_linearises(&w.spec, before, &report.history, "recover");
        Ok(report)
    }

    fn workload(seed: u64) -> Workload {
        generate(&WorkloadConfig {
            seed,
            processes: 6,
            conflict_density: 0.4,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn recovery_after_midrun_crash_yields_reducible_history() {
        for crash_at in [1, 3, 6, 10, 15] {
            let w = workload(11);
            let mut engine = Engine::new(&w, RunConfig::default());
            engine.run_until_history(crash_at);
            let image = engine.crash();
            let unified = Recovery::from(RecoverySource::Image(image.clone()))
                .run(&w)
                .expect("recovery succeeds");
            let report = recover(&w, image).expect("recovery succeeds");
            // The shorthand and the unified entry point are one recovery.
            assert_eq!(report.history, unified.history, "crash at {crash_at}");
            assert_eq!(report.aborted, unified.aborted, "crash at {crash_at}");
            assert_eq!(report.compensations, unified.compensations);
            // The extended history must replay and reduce (RED).
            assert!(
                is_reducible(&w.spec, &report.history).unwrap(),
                "crash at {crash_at}: recovered history not reducible:\n{}",
                txproc_core::schedule::render(&report.history)
            );
            // Every process terminated.
            let replay = report.history.replay(&w.spec).unwrap();
            assert!(replay.active_processes().is_empty(), "crash at {crash_at}");
        }
    }

    #[test]
    fn recovery_of_finished_run_is_a_noop() {
        let w = workload(12);
        let mut engine = Engine::new(&w, RunConfig::default());
        while engine.tick() {}
        let image = engine.crash();
        let report = recover(&w, image).unwrap();
        assert!(report.aborted.is_empty());
        assert_eq!(report.compensations, 0);
        assert_eq!(report.forward, 0);
    }

    #[test]
    fn recovery_aborts_undecided_prepared_invocations() {
        // Find a crash point where some invocation is prepared (deferred).
        let mut exercised = false;
        'search: for seed in 0..64u64 {
            for crash_at in [4usize, 6, 8, 10, 12] {
                let w = workload(seed);
                let mut engine = Engine::new(
                    &w,
                    RunConfig {
                        seed,
                        ..RunConfig::default()
                    },
                );
                engine.run_until_history(crash_at);
                let deferred_now = engine.metrics().deferred_commits;
                let image = engine.crash();
                let report = recover(&w, image).unwrap();
                if deferred_now > 0 && report.aborted_prepared > 0 {
                    exercised = true;
                    break 'search;
                }
            }
        }
        assert!(exercised, "no crash point with a prepared invocation found");
    }

    #[test]
    fn recovery_is_idempotent() {
        // Crashing again immediately after recovery and recovering the
        // post-recovery image must change nothing: every process already
        // terminated, every in-doubt group is resolved, every undecided
        // prepared invocation is already aborted.
        for seed in [11u64, 14, 23] {
            for crash_at in [3usize, 7, 12] {
                let w = workload(seed);
                let mut engine = Engine::new(
                    &w,
                    RunConfig {
                        seed,
                        ..RunConfig::default()
                    },
                );
                engine.run_until_history(crash_at);
                let first = recover(&w, engine.crash()).expect("first recovery");
                let second = recover(&w, first.image.clone()).expect("second recovery");
                assert_eq!(
                    txproc_core::schedule::render(&second.history),
                    txproc_core::schedule::render(&first.history),
                    "seed {seed} crash {crash_at}: second recovery changed the history"
                );
                assert!(second.aborted.is_empty(), "seed {seed} crash {crash_at}");
                assert_eq!(second.compensations, 0, "seed {seed} crash {crash_at}");
                assert_eq!(second.forward, 0, "seed {seed} crash {crash_at}");
                assert_eq!(second.resolved_groups, 0, "seed {seed} crash {crash_at}");
                assert_eq!(second.aborted_prepared, 0, "seed {seed} crash {crash_at}");
            }
        }
    }

    #[test]
    fn recovered_histories_are_pred() {
        // Stronger than reducibility of the final completed schedule: the
        // whole extended history stays prefix-reducible, because recovery
        // executes the completion in a ≪̃-respecting order (Lemma 3).
        for seed in [11u64, 21, 31] {
            for crash_at in [2usize, 5, 9, 14] {
                let w = workload(seed);
                let mut engine = Engine::new(
                    &w,
                    RunConfig {
                        seed,
                        ..RunConfig::default()
                    },
                );
                engine.run_until_history(crash_at);
                let report = recover(&w, engine.crash()).expect("recovery succeeds");
                assert!(
                    txproc_core::pred::is_pred(&w.spec, &report.history).unwrap(),
                    "seed {seed} crash {crash_at}: recovered history not PRED:\n{}",
                    txproc_core::schedule::render(&report.history)
                );
            }
        }
    }

    /// The first mid-run crash image whose recovery satisfies `wanted`.
    fn crash_image(wanted: impl Fn(&RecoveryReport) -> bool) -> (Workload, CrashImage) {
        for seed in 0..64u64 {
            for crash_at in [4usize, 8, 12] {
                let w = workload(seed);
                let mut engine = Engine::new(&w, RunConfig::default());
                engine.run_until_history(crash_at);
                let image = engine.crash();
                if wanted(&recover(&w, image.clone()).expect("baseline recovery")) {
                    return (w, image);
                }
            }
        }
        panic!("no crash image of the wanted shape");
    }

    #[test]
    fn unknown_process_or_activity_in_the_history_is_an_error() {
        let (w, image) = crash_image(|_| true);
        let mut foreign = image.clone();
        foreign
            .history
            .execute(GlobalActivityId::new(ProcessId(999), ActivityId(0)));
        assert!(matches!(
            recover(&w, foreign),
            Err(RecoveryError::History(ScheduleError::Model(
                ModelError::UnknownProcess(ProcessId(999))
            )))
        ));
        let mut foreign = image;
        foreign
            .history
            .execute(GlobalActivityId::new(ProcessId(0), ActivityId(999)));
        assert!(matches!(
            recover(&w, foreign),
            Err(RecoveryError::History(ScheduleError::Model(
                ModelError::UnknownActivity(_)
            )))
        ));
    }

    #[test]
    fn compensation_without_a_logged_invocation_is_an_error() {
        let (w, mut image) = crash_image(|r| r.compensations > 0 && r.aborted_prepared == 0);
        image.invocation_log.clear();
        assert!(matches!(
            recover(&w, image),
            Err(RecoveryError::NotLogged(_))
        ));
    }

    #[test]
    fn invocation_on_a_missing_subsystem_is_an_error() {
        let (w, mut image) = crash_image(|r| r.forward > 0 && r.resolved_groups == 0);
        image.agents.clear();
        assert!(matches!(
            recover(&w, image),
            Err(RecoveryError::UnknownSubsystem(_))
        ));
    }

    #[test]
    fn forward_recovery_of_an_undeployed_service_is_an_error() {
        let (mut w, image) = crash_image(|r| r.forward > 0 && r.resolved_groups == 0);
        let before = image.history.len();
        let tail = recover(&w, image.clone())
            .expect("baseline recovery")
            .history;
        let forward: Vec<ServiceId> = (tail.events()[before..].iter())
            .filter_map(|e| match e {
                txproc_core::schedule::Event::Execute(g) => w.spec.service_of(*g).ok(),
                _ => None,
            })
            .collect();
        let mut deployment = txproc_subsystem::deploy::Deployment::new();
        for (svc, site) in w
            .deployment
            .services()
            .filter(|(s, _)| !forward.contains(s))
        {
            deployment.place_with_duration(
                svc,
                site.subsystem,
                site.program.clone(),
                site.duration,
            );
        }
        w.deployment = deployment;
        assert!(matches!(
            super::recover(&w, image),
            Err(RecoveryError::NotDeployed(_))
        ));
    }

    #[test]
    fn an_invocation_logged_out_of_order_is_an_error() {
        let w = workload(11);
        let mut engine = Engine::new(&w, RunConfig::default());
        engine.run_until_history(10);
        let image = engine.crash();
        let at: Vec<u64> = image.invocation_log.iter().map(|e| e.at).collect();
        assert!(at.first() < at.last(), "two positions: {at:?}");
        let mut backwards = image.clone();
        backwards.invocation_log.reverse();
        let mut past = image;
        let len = past.history.len() as u64;
        past.invocation_log.last_mut().expect("logged").at = len + 1;
        for image in [backwards, past] {
            assert!(matches!(
                recover(&w, image),
                Err(RecoveryError::Misplaced(_))
            ));
        }
    }

    #[test]
    fn recovery_is_deterministic() {
        let w = workload(13);
        let run_once = || {
            let mut engine = Engine::new(&w, RunConfig::default());
            engine.run_until_history(7);
            let report = recover(&w, engine.crash()).unwrap();
            txproc_core::schedule::render(&report.history)
        };
        assert_eq!(run_once(), run_once());
    }
}
