//! The scheduler — `Shard::step`, the one implementation of the protocol's
//! transitions, and `Shard::run`, the one loop around it — and its
//! wall-clock driver: the workload sharded by conflict domains and stepped
//! by an event-driven worker pool.
//!
//! The deterministic virtual-time [`Engine`](crate::engine::Engine) is the
//! same loop in another [`RunOrder`], over one shard holding every process.
//! This driver runs the workload under real OS concurrency. The paper's
//! protocol (Lemmas 1–3) only orders operations that *conflict*, so a
//! [`DomainPartition`] splits the workload into conflict domains, and each
//! shard owns a complete scheduler — its own [`Policy`], §3.5 certification
//! gate and history segment — deciding in parallel with the others. A
//! deterministic merge (events carry a global ticket taken at emission)
//! produces one [`Schedule`]; shard-local PRED without cross-shard
//! conflicts is global PRED (DESIGN.md "Conflict-domain sharding").
//!
//! # Runtime
//!
//! Processes are state machines stepped by a fixed worker pool (default
//! `min(cores, shards)`), [`Fifo`], one non-blocking `Shard::step` at a
//! time. Each worker *owns* a disjoint set of shards, plain values —
//! scheduler state, run queue, waiting set — that nothing else touches. A
//! blocked process costs a queue entry, not a thread. Every
//! scheduler-visible mutation (a history event, a termination) marks the
//! shard *dirty*, and a dirty shard re-queues its waiters once its runnable
//! work has drained; that is complete because a blocker is always a
//! shard-mate. So a worker with nothing runnable waits only for its next
//! arrival ([`Clock::nap_until`]): asleep, then yielding from [`WAKE_EARLY`]
//! before it, so it admits the arrival when due, not a timer slack later.
//! One worker with closed arrivals is deterministic: the oracle of the
//! differential tests.
//!
//! # Shard lifecycle
//!
//! The calling thread partitions, assigns, and then is worker 0 (workers
//! `1..W` are spawned). The owning worker builds a shard (`Shard::build`)
//! when it admits the domain's first due arrival, and retires it
//! (`Shard::finish`, which hands its trace records to the merge) in the visit
//! in which its last process terminates *and* no arrival is pending: a
//! drained domain's history still constrains its later arrivals. So a
//! worker holds state only for domains with live or due work
//! ([`RuntimeMetrics::shards_live_peak`]); step order, and so every
//! single-worker history, ticket and metric, is that of a run with every
//! shard built up front.
//!
//! What two workers *can* reach is behind a lock, and these are all of
//! them. Two are taken while another is held, always in the order
//! coordinator → agent → writer: a release holds the coordinator from its
//! `Decision` record to its `DecisionApplied` (group ids are log order), and
//! an invocation is journalled while its agent stays locked (invocation ids
//! are log order, which is what replay reproduces them from).
//!
//! | lock                        | protects                              |
//! |-----------------------------|---------------------------------------|
//! | coordinator mutex           | 2PC decision log + group ids          |
//! | agent mutex (per subsystem) | subsystem state + key locks           |
//! | WAL writer mutex            | the durable log + the merge ticket    |
//!
//! Agents are shared across shards, but a key lock held by a prepared
//! invocation only blocks a *conflicting* service, which is in the same
//! domain: no `Busy` crosses shards, and shard-local re-queuing is complete.
//! Failure injection is a pure function of `(seed, activity, attempt)`, so
//! on pairwise non-conflicting workloads every topology and worker count
//! produces the same commit/abort sets.

use crate::certify::CertGate;
use crate::policy::{Policy, PolicyKind};
use crate::recovery::{CrashImage, InvocationLogEntry};
use parking_lot::Mutex;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use txproc_core::activity::Termination;
use txproc_core::domains::DomainPartition;
use txproc_core::error::{ModelError, ScheduleError};
use txproc_core::ids::{ActivityId, GlobalActivityId, IdIndex, ProcessId, ServiceId};
use txproc_core::protocol::{Admission, CompletionGate};
use txproc_core::schedule::{Event, Schedule};
use txproc_core::state::{ProcessState, ProcessStatus};
use txproc_core::telemetry::{Phase, Telemetry};
use txproc_core::trace::{AbortReason, NoopSink, TraceEvent, TraceRecord, TraceSink};
use txproc_core::wal::{WalRecord, WalWriter};
use txproc_sim::metrics::{Metrics, RuntimeMetrics, ShardMetrics};
use txproc_sim::workload::{ArrivalModel, Workload};
use txproc_subsystem::agent::{Agent, CommitMode, InvocationId, InvokeOutcome};
use txproc_subsystem::deploy::ServiceSite;
use txproc_subsystem::subsystem::{Subsystem, SubsystemId};
use txproc_subsystem::tpc::{Coordinator, Decision, Participant};

/// Consecutive state-machine steps one event worker runs on a shard before
/// moving to its next shard (bounds cross-shard starvation on a worker
/// that owns several).
const STEP_BUDGET: usize = 128;

/// How long before an arrival is due an idle worker's sleep ends; it yields
/// the rest of the wait. A `thread::sleep` returns late by Linux's timer
/// slack and the wake-up: over 2 000 sleeps of 50–950 µs, 63 µs at the
/// median, 80 µs at p90 and 122 µs at p99 (DESIGN.md "Naps").
const WAKE_EARLY: Duration = Duration::from_micros(100);

/// How the driver maps processes onto scheduler shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// One shard for all processes, kept as the differential baseline.
    Single,
    /// One shard per conflict domain of the workload (the partition of the
    /// potential-conflict graph computed by [`DomainPartition`]).
    Auto,
}

impl ShardMode {
    /// Parses `auto` or `single` (the `--shards` vocabulary).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(Self::Auto),
            "single" => Some(Self::Single),
            _ => None,
        }
    }
}

/// Configuration of a concurrent run.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Seed of the failure coins (the failure rate is the workload's).
    pub seed: u64,
    /// Shard topology. `Auto` (the default) shards by conflict domain;
    /// `Single` runs every process in one shard.
    pub shards: ShardMode,
    /// Worker-pool size. `None` (the default) resolves to
    /// `min(available cores, shard count)`.
    pub workers: Option<usize>,
    /// Journal seal cadence: an installed WAL is sealed (and, under
    /// `FsyncPerEpoch`, synced) every `epoch` history events, counted in
    /// the order they reach the writer; `0` seals every event. It selects
    /// nothing else: no value changes a history, a metric or a journal.
    pub epoch: usize,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        Self {
            policy: PolicyKind::Pred,
            seed: 99,
            shards: ShardMode::Auto,
            workers: None,
            epoch: 0,
        }
    }
}

impl ConcurrentConfig {
    /// Checks the configuration; the error names the knob to change. The
    /// entry points ([`run_concurrent`], `RunBuilder::try_run`) call this
    /// once before the run starts.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == Some(0) {
            return Err("worker pool must have at least 1 worker (`--workers` / \
                 `ConcurrentConfig::workers`)"
                .to_string());
        }
        Ok(())
    }

    /// Worker-pool size the run will use for a given shard count. Asks the
    /// host for its cores (cgroup and affinity reads) only when `workers`
    /// is unset.
    pub fn resolved_workers(&self, shard_count: usize) -> usize {
        let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let default = || cores().min(shard_count.max(1));
        self.workers.unwrap_or_else(default).max(1)
    }
}

/// Result of a concurrent run.
#[derive(Debug)]
pub struct ConcurrentResult {
    /// The merged global history (shard segments interleaved in ticket
    /// order).
    pub history: Schedule,
    /// Aggregate metrics; `metrics.shards` holds one entry per shard.
    pub metrics: Metrics,
    /// The subsystems as the run left them.
    pub agents: BTreeMap<SubsystemId, Agent>,
    /// The 2PC coordinator's decision log.
    pub coordinator: Coordinator,
    /// Every service invocation of the run, shard by shard (so in
    /// invocation order per activity and per process).
    pub invocation_log: Vec<InvocationLogEntry>,
}

/// Per-subsystem agents, each behind its own lock so agent work does not
/// serialize unrelated threads on a scheduler lock.
type Agents = BTreeMap<SubsystemId, Mutex<Agent>>;

/// The clock a run reads — the one thing a driver tells the run context
/// about itself. Latency, makespan, the trace stamp and the crash-storm
/// window are read off it; nothing else asks.
pub(crate) enum Clock {
    /// Wall time since the run started, in microseconds (one tick of the
    /// workload's arrival model = 1µs).
    Wall(Instant),
    /// The engine's virtual `now`, in ticks, which only its order moves
    /// ([`Clock::advance_to`]); atomic so that a `&RunCtx` can move it.
    Virtual(AtomicU64),
}

impl Clock {
    /// Time since the run started.
    pub(crate) fn now(&self) -> u64 {
        match self {
            Clock::Wall(start) => start.elapsed().as_micros() as u64,
            Clock::Virtual(now) => now.load(Ordering::Relaxed),
        }
    }

    /// Waits until `at` µs into the run and returns the nanoseconds waited:
    /// asleep until [`WAKE_EARLY`] before `at`, then yielding until it is
    /// due, so the wait ends on time, not a timer slack late. A virtual
    /// clock, which only its order moves, waits 0 ns.
    pub(crate) fn nap_until(&self, at: u64) -> u64 {
        let Clock::Wall(start) = self else { return 0 };
        let (t0, due) = (Instant::now(), *start + Duration::from_micros(at));
        std::thread::sleep(due.saturating_duration_since(t0 + WAKE_EARLY));
        while Instant::now() < due {
            std::thread::yield_now();
        }
        t0.elapsed().as_nanos() as u64
    }

    /// Moves a virtual clock to `t`; wall time moves by itself.
    pub(crate) fn advance_to(&self, t: u64) {
        if let Clock::Virtual(now) = self {
            now.store(t, Ordering::Relaxed);
        }
    }

    /// The virtual `now` that trace records and crash-storm windows read;
    /// `None` on the wall clock, which has no ticks: a record is stamped with
    /// its journal position instead, and a window is open for the whole run
    /// ([`txproc_sim::workload::CrashStorm`]).
    fn ticks(&self) -> Option<u64> {
        matches!(self, Clock::Virtual(_)).then(|| self.now())
    }
}

/// Everything a worker needs besides its shards: the run-wide context all
/// workers share.
pub(crate) struct RunCtx<'a> {
    pub(crate) workload: &'a Workload,
    policy: PolicyKind,
    /// Seed of the failure coins; `None` for a recovery, which injects no
    /// failures.
    coins: Option<u64>,
    agents: Agents,
    /// The 2PC coordinator every deferred release is decided by.
    coordinator: Mutex<Coordinator>,
    /// Global event ticket counter: stamps every emitted event with its
    /// position in the merged schedule.
    tickets: AtomicU64,
    /// Whether shards journal their decisions ([`TraceSink::enabled`]); the
    /// sink itself stays with the run's owner ([`deliver`]).
    traced: bool,
    /// Telemetry handle shared by all workers and their shards (phase
    /// timers; off by default).
    pub(crate) tele: Telemetry,
    pub(crate) clock: Clock,
    /// Arrival time per process on the run's clock; empty if all arrive at 0.
    arrivals: IdIndex<ProcessId, u64>,
    /// Processes currently in flight (arrived, not yet terminated) and the
    /// peak observed — the open-system concurrency level actually reached.
    live: Level,
    /// Shards built and not yet finished, and the peak: the scheduler state
    /// the run held at once.
    shards_live: Level,
    /// Durable journal (absent unless installed): every durable transition
    /// of a step appends its typed record before the run proceeds past it,
    /// history events in ticket order (see [`RunCtx::ticket`]), so
    /// `durability::rebuild_image` replays the log of any run the same way.
    /// Pure observation: installing it never changes a decision.
    wal: Option<Mutex<WalWriter>>,
}

/// One fresh agent per deployed subsystem: the durable state a run starts
/// from when nothing precedes it.
pub(crate) fn fresh_agents(workload: &Workload) -> BTreeMap<SubsystemId, Agent> {
    let agent = |sid: SubsystemId| Agent::new(Subsystem::new(sid, format!("sub{}", sid.0)));
    let subsystems = workload.deployment.subsystems().into_iter();
    subsystems.map(|sid| (sid, agent(sid))).collect()
}

impl<'a> RunCtx<'a> {
    /// The context of one run under `policy` on `clock`, failure coins
    /// drawn from `coins` (none drawn without), over the subsystems and
    /// decision log of `durable`
    /// ([`fresh_agents`] and an empty log, or what a crash left), its
    /// shards journalling their decisions if `traced`. Arrival times are
    /// the workload's. Telemetry is off until the caller sets
    /// [`RunCtx::tele`].
    pub(crate) fn new(
        workload: &'a Workload,
        policy: PolicyKind,
        coins: Option<u64>,
        traced: bool,
        clock: Clock,
        (agents, coordinator): (BTreeMap<SubsystemId, Agent>, Coordinator),
    ) -> Self {
        let agents = agents.into_iter().map(|(sid, a)| (sid, Mutex::new(a)));
        let pids = workload.spec.processes().map(|p| p.id);
        let arrivals = match workload.config.arrivals {
            ArrivalModel::Closed => IdIndex::new(),
            _ => pids
                .zip(txproc_sim::workload::arrival_times(&workload.config))
                .collect(),
        };
        Self {
            workload,
            policy,
            coins,
            agents: agents.collect(),
            coordinator: Mutex::new(coordinator),
            tickets: AtomicU64::new(0),
            traced,
            tele: Telemetry::off(),
            clock,
            arrivals,
            live: Level::default(),
            shards_live: Level::default(),
            wal: None,
        }
    }

    /// Installs the durable journal, sealed every `epoch` history events.
    pub(crate) fn set_wal(&mut self, mut writer: WalWriter, epoch: usize) {
        writer.seal_every(epoch);
        self.wal = Some(Mutex::new(writer));
    }

    /// Arrival time of a process on the run's clock.
    pub(crate) fn arrival(&self, pid: ProcessId) -> u64 {
        self.arrivals.get(pid).copied().unwrap_or(0)
    }

    /// `members` in the order both drivers admit them: by arrival time,
    /// ties by pid.
    pub(crate) fn arrival_queue(&self, members: &[ProcessId]) -> VecDeque<(u64, ProcessId)> {
        let mut queue: Vec<_> = members.iter().map(|&p| (self.arrival(p), p)).collect();
        queue.sort();
        queue.into()
    }

    /// The service subsystem `sid` ran as invocation `inv`, while it holds
    /// the invocation (a prepared one it aborted is gone).
    pub(crate) fn invoked(&self, sid: SubsystemId, inv: InvocationId) -> Option<ServiceId> {
        self.agents.get(&sid)?.lock().service_of(inv)
    }

    /// Appends one record that carries no history event to the journal
    /// (no-op, and `record` unbuilt, without one). Returns how many history
    /// events were ticketed before it.
    fn journal(&self, record: impl FnOnce() -> WalRecord) -> u64 {
        self.log(record, 0)
    }

    /// The merge ticket of the next history event. With a journal
    /// installed, `record` is what it holds for the event, appended first.
    fn ticket(&self, record: impl FnOnce() -> WalRecord) -> u64 {
        self.log(record, 1)
    }

    /// Appends `record` (with a journal installed) and takes `events`
    /// tickets, returning the ticket count before them. Both happen under
    /// the writer lock, so log order is ticket order and the count is the
    /// record's position among the log's history events.
    fn log(&self, record: impl FnOnce() -> WalRecord, events: u64) -> u64 {
        let _writer = self.wal.as_ref().map(|wal| {
            let mut writer = wal.lock();
            writer.append(&record());
            writer
        });
        self.tickets.fetch_add(events, Ordering::Relaxed)
    }

    /// Clean end of run: lands the journal's tail (syncing follows the
    /// writer's policy), then [`Self::into_durable`].
    pub(crate) fn finish(mut self) -> (BTreeMap<SubsystemId, Agent>, Coordinator) {
        if let Some(wal) = self.wal.take() {
            wal.into_inner().finish();
        }
        self.into_durable()
    }

    /// The durable state every worker shared — the subsystems and the
    /// decision log — however the run ended: a journal still installed is
    /// dropped as a crash drops it, unsynced.
    pub(crate) fn into_durable(self) -> (BTreeMap<SubsystemId, Agent>, Coordinator) {
        let agents = self.agents.into_iter();
        let agents = agents.map(|(sid, a)| (sid, a.into_inner())).collect();
        (agents, self.coordinator.into_inner())
    }
}

/// A run-wide count of things currently live, and its peak.
#[derive(Default)]
struct Level {
    now: AtomicU64,
    peak: AtomicU64,
}

impl Level {
    fn enter(&self) {
        let now = 1 + self.now.fetch_add(1, Ordering::Relaxed);
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn leave(&self) {
        self.now.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A member and what the step keeps of it: its cells' offset, whether it is
/// live, the prepared activity it is parked on, and what [`Shard::note`]
/// keeps of it.
struct Slot<'a> {
    state: ProcessState<'a>,
    base: usize,
    live: bool,
    pending: Option<GlobalActivityId>,
    /// The last journalled blocked state (record kind, wait set), set only
    /// while tracing: one record per *distinct* blocked state of a re-polled
    /// request keeps the trace readable.
    block_note: Option<(&'static str, Vec<ProcessId>)>,
    /// The prepare instant of its in-flight deferred commit (the 2PC phase's
    /// start), set only while telemetry is on.
    prepared_at: Option<Instant>,
}

/// One conflict domain's scheduler, complete: protocol state (policy, gate,
/// member slots, history segment) and scheduling state (run queue, waiting
/// set). A plain value its worker holds in [`Domain::built`]; exclusive
/// access is that ownership, so nothing here is locked or atomic.
pub(crate) struct Shard<'a> {
    id: u32,
    /// The §3.5 certification gate over the shard-local segment (certified
    /// policies only); the one owner serializes history order for it.
    gate: Option<CertGate<'a>>,
    policy: Box<dyn Policy + Send + 'a>,
    /// Who executed an operation since the policy's last quiescent point,
    /// while at most one did ([`Shard::alone`]), and the first event the
    /// policy was not told; `None` while it is told and decides everything.
    lone: Option<Option<ProcessId>>,
    untold: Option<usize>,
    /// One slot per member, ascending by pid (every order callers see).
    slots: IdIndex<ProcessId, Slot<'a>>,
    /// Per member activity, at its slot's `base` plus the activity index: the
    /// failure coin's attempts and the invocation a compensation uses.
    attempts: Vec<u64>,
    invocations: Vec<Option<(SubsystemId, InvocationId)>>,
    /// How many slots are live.
    admitted: usize,
    /// Shard-local history segment.
    pub(crate) history: Schedule,
    /// Global merge ticket of each segment event (parallel to `history`).
    event_tickets: Vec<u64>,
    pub(crate) metrics: Metrics,
    /// Durable invocation log (survives scheduler crashes): every service
    /// invocation with its subsystem transaction handle.
    pub(crate) invocation_log: Vec<InvocationLogEntry>,
    /// Processes in the order their aborts were initiated (Definition
    /// 8.3(f): concurrent completions are ordered consistently).
    abort_order: Vec<ProcessId>,
    /// Its journalled decisions in note order (tracing on only), kept until
    /// the merge ([`deliver`]).
    trace_buf: Vec<Noted>,
    /// Runnable processes with their enqueue instant (the scheduling delay's
    /// start).
    pub(crate) run_queue: VecDeque<(ProcessId, Instant)>,
    /// Blocked processes, re-queued when a dirty shard's run queue drains.
    waiting: BTreeSet<ProcessId>,
    /// A scheduler-visible mutation (a history event, a termination)
    /// happened since waiters were last re-queued. Marks are *coalesced*:
    /// draining the runnable work first folds a burst into one poll round.
    dirty: bool,
}

/// What a finished shard hands to the merge.
pub(crate) struct ShardDone {
    id: u32,
    /// The shard's counters, its [`ShardMetrics`] entry included.
    pub(crate) metrics: Metrics,
    /// Global merge ticket of each segment event (parallel to `history`).
    tickets: Vec<u64>,
    pub(crate) history: Schedule,
    pub(crate) invocation_log: Vec<InvocationLogEntry>,
    /// Its journalled decisions, in note order.
    trace: VecDeque<Noted>,
}

impl ShardDone {
    /// [`deliver`]s the journal of the run this is the only shard of.
    pub(crate) fn journal(mut self, sink: &mut dyn TraceSink) -> Self {
        deliver(sink, std::slice::from_mut(&mut self), None);
        self
    }
}

/// A journalled decision with the shard-local history length and time noted.
type Noted = (usize, Option<u64>, TraceEvent);

/// Feeds `sink` a finished run's journal, once, in merged-history order: a
/// record sits right after the last event its shard had emitted when it was
/// noted (just before its first event if none), ties by shard, then by note
/// order — one walk of the history, ticket by ticket, and no sort. Stamps
/// the dense `seq` (on the wall clock also `time = seq`) and, for a run of
/// `workers`, each record's shard and worker (`shard % workers`).
pub(crate) fn deliver(sink: &mut dyn TraceSink, done: &mut [ShardDone], workers: Option<u32>) {
    if done.iter().all(|d| d.trace.is_empty()) {
        return;
    }
    let mut owner = vec![0; done.iter().map(|d| d.tickets.len()).sum()];
    for (i, d) in done.iter().enumerate() {
        d.tickets.iter().for_each(|&t| owner[t as usize] = i);
    }
    let (mut seq, mut emitted) = (0, vec![0; done.len()]);
    let mut journal = |i: usize, upto: usize| {
        while let Some((history_len, time, event)) = done[i].trace.pop_front_if(|n| n.0 <= upto) {
            sink.record(TraceRecord {
                seq,
                time: time.unwrap_or(seq),
                history_len,
                shard: workers.map(|_| done[i].id),
                worker: workers.map(|w| done[i].id % w),
                event,
            });
            seq += 1;
        }
    };
    for i in owner {
        emitted[i] += 1;
        journal(i, emitted[i]);
    }
    (0..emitted.len()).for_each(|i| journal(i, usize::MAX));
}

/// Outcome of one [`Shard::step`].
#[derive(Debug, PartialEq, Eq)]
enum Step {
    /// Terminated: left the shard's live set.
    Done,
    /// Blocked: in the waiting set until the shard is marked dirty.
    Wait,
    /// Made progress (or must re-poll at once): runnable again.
    Yield,
}

/// Which process [`Shard::run`] steps next, and when: the one free choice
/// of a run, since the protocol must hold under every interleaving. The
/// defaults are [`Fifo`]'s; the engine's virtual time is the other order.
pub(crate) trait RunOrder<'a> {
    /// Whether a deadlock break spends a unit of the budget, as a step does.
    const BREAK_SPENDS_BUDGET: bool = false;

    /// `pid` yielded, emitting the events of `shard`'s history from
    /// `emitted` on: `true` steps it again at once; otherwise the order has
    /// put it back in the run queue or holds it until a wake-up of its own.
    fn after_yield(&mut self, _: &RunCtx<'a>, _: &mut Shard<'a>, _: ProcessId, _: usize) -> bool {
        true
    }

    /// The run queue drained: make what is due runnable. `false` when
    /// nothing is left to come, so the shard's waiters are deadlocked.
    fn on_drain(&mut self, _: &RunCtx<'a>, _: &mut Shard<'a>) -> bool {
        false
    }
}

/// Run to block, first in first out — the event worker's and recovery's
/// order: a dequeued process is stepped until it waits or terminates.
/// Rotating after every step would keep a maximal unreduced frontier alive
/// in the certifier, where running each process as deep as it goes
/// completes (and reduces away) processes early.
pub(crate) struct Fifo;

impl RunOrder<'_> for Fifo {}

/// The step budget only a livelock exhausts, for a run of `processes`.
pub(crate) fn livelock_budget(processes: usize) -> usize {
    10_000 * (processes + 1)
}

impl<'a> Shard<'a> {
    /// Builds the scheduler of the domain with these `members`: its own
    /// policy, certification gate, member slots and queues. The owning worker
    /// calls it when it admits the domain's first due arrival.
    pub(crate) fn build(id: u32, members: &[ProcessId], ctx: &RunCtx<'a>) -> Self {
        let spec = &ctx.workload.spec;
        let state = |&pid: &ProcessId| ProcessState::of(spec, pid).expect("a tree process");
        let mut shard = Self::new(id, members.iter().map(state), ctx);
        members.iter().for_each(|&pid| shard.policy.register(pid));
        shard
    }

    /// A shard with a slot per state and no process registered.
    fn new(id: u32, states: impl Iterator<Item = ProcessState<'a>>, ctx: &RunCtx<'a>) -> Self {
        let spec = &ctx.workload.spec;
        let (mut slots, mut cells) = (IdIndex::with_capacity(states.size_hint().0), 0);
        for state in states {
            let (pid, base) = (state.process().id, cells);
            cells += state.process().len();
            let slot = Slot {
                state,
                base,
                live: false,
                pending: None,
                block_note: None,
                prepared_at: None,
            };
            slots.insert(pid, slot);
        }
        ctx.shards_live.enter();
        let policy = ctx.policy.build(spec);
        Self {
            id,
            gate: CertGate::for_policy(ctx.policy, spec),
            lone: policy.quiescent().then_some(None),
            untold: policy.quiescent().then_some(0),
            policy,
            slots,
            attempts: vec![0; cells],
            invocations: vec![None; cells],
            admitted: 0,
            history: Schedule::new(),
            event_tickets: Vec::new(),
            metrics: Metrics::new(),
            invocation_log: Vec::new(),
            abort_order: Vec::new(),
            trace_buf: Vec::new(),
            run_queue: VecDeque::new(),
            waiting: BTreeSet::new(),
            dirty: false,
        }
    }

    /// Every member's state, ascending by pid.
    pub(crate) fn states(&self) -> impl ExactSizeIterator<Item = (ProcessId, &ProcessState<'a>)> {
        self.slots.iter().map(|(pid, s)| (pid, &s.state))
    }

    /// Where an activity of a member sits in the per-activity tables.
    fn cell(&self, gid: GlobalActivityId) -> Option<usize> {
        let (slot, a) = (self.slots.get(gid.process)?, gid.activity.index());
        (a < slot.state.process().len()).then(|| slot.base + a)
    }

    /// The committed (or prepared) invocation of an activity, if any.
    pub(crate) fn invocation(&self, gid: GlobalActivityId) -> Option<(SubsystemId, InvocationId)> {
        self.invocations[self.cell(gid)?]
    }

    /// Retires the shard on its owning worker: keeps what the merge needs,
    /// its trace records included, and drops the rest — policy, certifier,
    /// maps.
    pub(crate) fn finish(self, ctx: &RunCtx<'a>) -> ShardDone {
        ctx.shards_live.leave();
        let mut metrics = self.metrics;
        metrics.shards.push(ShardMetrics {
            shard: self.id,
            processes: self.slots.len() as u64,
            events: self.history.len() as u64,
        });
        ShardDone {
            id: self.id,
            metrics,
            tickets: self.event_tickets,
            history: self.history,
            invocation_log: self.invocation_log,
            trace: self.trace_buf.into(),
        }
    }

    /// The scheduler a crash left, resumed from its image with admissions
    /// closed: a run context over the image's subsystems and decision log,
    /// and one shard with a slot per process the image names. Their states
    /// are the history's replayed ([`ProcessState::apply`], which refuses an
    /// illegal history); each event is [`record`](Self::record)ed for the
    /// processes the crash left live, and a terminated one is only
    /// finalized — nothing of it can gate, block or abort again. The
    /// invocation log adds each execution's invocation, and each prepared
    /// one, after the `at` events the log put before it (which `recover`
    /// checked). The fold traces, counts and journals nothing; the run has
    /// the protocol's gates without the certifier (`PredProtocol`), injects
    /// no failures and journals its decisions if `traced`.
    pub(crate) fn restore(
        workload: &'a Workload,
        image: CrashImage,
        traced: bool,
    ) -> Result<(RunCtx<'a>, Self), ScheduleError> {
        // No decision of a recovery reads its clock; on the wall clock its
        // journal records are stamped in journal order.
        let clock = Clock::Wall(Instant::now());
        let durable = (image.agents, image.coordinator);
        let policy = PolicyKind::PredProtocol;
        let ctx = RunCtx::new(workload, policy, None, traced, clock, durable);
        let (spec, log) = (&workload.spec, image.invocation_log);
        let mut states = image.history.replay(spec)?.states;
        for e in log.iter().filter(|e| e.prepared) {
            spec.service_of(e.gid)?;
            if let Entry::Vacant(v) = states.entry(e.gid.process) {
                v.insert(ProcessState::of(spec, e.gid.process)?);
            }
        }
        let mut shard = Self::new(0, states.into_values(), &ctx);
        shard.untold = None;
        spec.processes().for_each(|p| shard.policy.register(p.id));
        let active = |(p, s): (ProcessId, &ProcessState<'_>)| s.is_active().then_some(p);
        let live_pids: Vec<ProcessId> = shard.states().filter_map(active).collect();
        let live = |p: &ProcessId| live_pids.binary_search(p).is_ok();
        let mut logged = log.iter().filter(|e| live(&e.gid.process)).peekable();
        for (at, event) in (0..).zip(image.history.events()) {
            while let Some(e) = logged.next_if(|e| e.at <= at) {
                shard.refold_invocation(e);
            }
            for &pid in event.processes().iter().filter(|p| live(p)) {
                match event {
                    Event::GroupAbort(_) => shard.record_abort(pid),
                    _ => drop(shard.record(event)),
                }
            }
        }
        logged.for_each(|e| shard.refold_invocation(e));
        for (pid, slot) in shard.slots.iter() {
            match slot.state.status() {
                ProcessStatus::Active => {}
                ProcessStatus::Committed => shard.policy.on_commit(pid),
                ProcessStatus::Aborted => shard.policy.on_abort(pid),
            }
        }
        live_pids.into_iter().for_each(|pid| shard.admit(&ctx, pid));
        let events = image.history.len() as u64;
        ctx.tickets.store(events, Ordering::Relaxed);
        (shard.history, shard.event_tickets) = (image.history, (0..events).collect());
        shard.invocation_log = log;
        Ok((ctx, shard))
    }

    /// What the step made of a logged invocation besides its event: the
    /// handle a compensation uses, and a prepared one's pending release.
    fn refold_invocation(&mut self, e: &InvocationLogEntry) {
        if let Some(c) = self.cell(e.gid) {
            self.invocations[c] = Some((e.subsystem, e.invocation));
            if e.prepared {
                self.prepare(e.gid);
            }
        }
    }

    /// What a prepared invocation, its handle in `invocations`, does to the
    /// policy: its release is pending. Returns the dependency edges it added.
    fn prepare(&mut self, gid: GlobalActivityId) -> Vec<(ProcessId, ProcessId)> {
        self.slots[gid.process].pending = Some(gid);
        self.executed(gid.process);
        self.policy.record_executed(gid, true)
    }

    /// What `event` does to the shard's bookkeeping and, unless the step
    /// holds the lone rule, to the policy ([`Policy::record`]): the `Execute`
    /// of a pending deferred activity is its release, which unparks its
    /// process; an `Abort` drops a prepared invocation and starts the
    /// completion. Returns the dependency edges an execution added.
    fn record(&mut self, event: &Event) -> Vec<(ProcessId, ProcessId)> {
        let released = match *event {
            Event::Execute(g) => match self.slots.get_mut(g.process) {
                Some(slot) if slot.pending == Some(g) => {
                    slot.pending = None;
                    true
                }
                _ => {
                    self.executed(g.process);
                    false
                }
            },
            Event::Abort(p) => {
                self.record_abort(p);
                false
            }
            _ => false,
        };
        match self.untold {
            Some(_) => Vec::new(),
            None => self.policy.record(event, released),
        }
    }

    /// Notes that `pid` executed an operation (a second process asked the
    /// policy first, so only the lone one executes untold).
    fn executed(&mut self, pid: ProcessId) {
        let alone = self.alone(pid);
        debug_assert!(alone || self.untold.is_none(), "{pid} executed untold");
        self.lone = alone.then_some(Some(pid));
    }

    /// Whether `pid` runs alone: no other process executed an operation
    /// since the policy's last quiescent point, so every answer about it is
    /// fixed — the one place the program keeps the lone rule.
    fn alone(&self, pid: ProcessId) -> bool {
        self.lone.is_some_and(|who| who.is_none_or(|p| p == pid))
    }

    /// `lone`, the fixed answer, if `pid` runs alone; else the policy's, in
    /// one [`Phase::Policy`] interval, told first the history it missed as
    /// [`Self::restore`] folds it (a lone process prepares nothing).
    fn ask<T>(
        &mut self,
        ctx: &RunCtx<'a>,
        pid: ProcessId,
        lone: T,
        ask: impl FnOnce(&mut dyn Policy) -> T,
    ) -> T {
        if self.alone(pid) {
            return lone;
        }
        let t0 = ctx.tele.phase_start();
        if let Some(since) = self.untold.take() {
            let events = self.history.events()[since..].iter();
            events.for_each(|e| drop(self.policy.record(e, false)));
        }
        let answer = ask(&mut *self.policy);
        ctx.tele.phase_end(Phase::Policy, t0);
        answer
    }

    /// An `Abort`'s record: a prepared invocation leaves the policy, and the
    /// process joins the abort order.
    fn record_abort(&mut self, pid: ProcessId) {
        if let Some(gid) = self.slots.get(pid).and_then(|s| s.pending) {
            self.drop_prepared(gid);
        }
        self.abort_order.push(pid);
        self.policy.on_abort_begin(pid);
    }

    /// A prepared invocation leaves: its process's pending release, its
    /// handle and its place in the policy.
    fn drop_prepared(&mut self, gid: GlobalActivityId) {
        self.slots[gid.process].pending = None;
        let cell = self.cell(gid).expect("a member's activity");
        self.invocations[cell] = None;
        self.policy.record_prepared_aborted(gid);
    }

    /// Settles the prepared invocations a restore left pending against the
    /// subsystems and decision log it restored with, as the records a cut
    /// log lost would have: one with a logged commit decision was released
    /// — its `Execute` is emitted now, and commits its activity — and one
    /// its subsystem no longer holds was aborted with its process. Returns
    /// how many remain pending, the undecided ones; a release its process's
    /// state refuses is an error.
    pub(crate) fn settle_prepared(&mut self, ctx: &RunCtx<'a>) -> Result<usize, ScheduleError> {
        let coordinator = ctx.coordinator.lock();
        let decided: BTreeSet<(SubsystemId, InvocationId)> = (coordinator.log().iter())
            .filter(|r| r.decision == Decision::Commit)
            .flat_map(|r| r.participants.iter().map(|p| (p.subsystem, p.invocation)))
            .collect();
        drop(coordinator);
        let pending: Vec<_> = self.slots.iter().filter_map(|(_, s)| s.pending).collect();
        for gid in pending {
            let (sid, inv) = self.invocation(gid).expect("a prepared invocation");
            if decided.contains(&(sid, inv)) {
                self.release(ctx, gid)?;
            } else if ctx.invoked(sid, inv).is_none() {
                self.drop_prepared(gid);
            }
        }
        let left = self.slots.iter().filter(|(_, s)| s.pending.is_some());
        Ok(left.count())
    }

    /// Recovery's one decision: the abort of every live process, for
    /// [`AbortReason::External`], journalled as a group abort the scheduler
    /// initiated. They take their place in the abort order by `ranks`,
    /// lowest first — those already aborting too — so forward recovery runs
    /// in that order (`forward_order_blocked`). Returns them in that order.
    pub(crate) fn abort_live(
        &mut self,
        ctx: &RunCtx<'a>,
        ranks: &BTreeMap<ProcessId, usize>,
    ) -> Vec<ProcessId> {
        let live = self.slots.iter().filter(|(_, s)| s.live).map(|(p, _)| p);
        let mut live: Vec<ProcessId> = live.collect();
        live.sort_by_key(|p| ranks.get(p).copied().unwrap_or(usize::MAX));
        self.abort_order.retain(|p| !live.contains(p));
        self.group_abort(ctx, None, &live, None, AbortReason::External);
        live
    }

    /// What a crash leaves of the run this shard is the only shard of: the
    /// history, the invocation log, the subsystems and the decision log. Its
    /// journal goes to `sink` first.
    pub(crate) fn crash(self, ctx: RunCtx<'a>, sink: &mut dyn TraceSink) -> CrashImage {
        let done = self.finish(&ctx).journal(sink);
        let (agents, coordinator) = ctx.into_durable();
        CrashImage {
            history: done.history,
            agents,
            coordinator,
            invocation_log: done.invocation_log,
        }
    }

    /// Admits an arrived process: live, with no attempt counted yet, at the
    /// back of the run queue.
    pub(crate) fn admit(&mut self, ctx: &RunCtx<'a>, pid: ProcessId) {
        (self.slots[pid].live, self.admitted) = (true, self.admitted + 1);
        ctx.live.enter();
        self.run_queue.push_back((pid, Instant::now()));
    }

    /// Whether the shard has work that needs no arrival: a runnable process,
    /// or waiters a mutation may have unblocked.
    fn has_work(&self) -> bool {
        !self.run_queue.is_empty() || (self.dirty && !self.waiting.is_empty())
    }

    /// The one run loop — an event worker's visit, a recovery, an engine
    /// tick: steps the run queue in `order` until nothing is left or
    /// `budget` steps are spent (one continued then goes back to the front),
    /// and returns how many processes are left live. A drained queue takes a
    /// dirty shard's waiters ([`pop_runnable`](Self::pop_runnable)), then
    /// what `order` has due; a clean shard with nothing due is deadlocked,
    /// and broken at once ([`break_deadlock`](Self::break_deadlock)).
    pub(crate) fn run<O: RunOrder<'a>>(
        &mut self,
        ctx: &RunCtx<'a>,
        rt: &mut RuntimeMetrics,
        mut budget: usize,
        order: &mut O,
    ) -> usize {
        while budget > 0 {
            let Some((pid, enqueued)) = self.pop_runnable() else {
                if order.on_drain(ctx, self) {
                    continue;
                } else if !self.break_deadlock(ctx) {
                    break;
                }
                rt.repolls += 1;
                budget -= usize::from(O::BREAK_SPENDS_BUDGET);
                continue;
            };
            let delay_ns = enqueued.elapsed().as_nanos() as u64;
            rt.record_delay_ns(delay_ns);
            ctx.tele.phase_ns(Phase::QueueDelay, delay_ns);
            loop {
                budget -= 1;
                rt.steps += 1;
                let emitted = self.history.len();
                if self.step(ctx, pid) == Step::Yield && order.after_yield(ctx, self, pid, emitted)
                {
                    if budget > 0 {
                        continue;
                    }
                    self.run_queue.push_front((pid, Instant::now()));
                }
                break;
            }
            let depth = (self.run_queue.len() + self.waiting.len()) as u64;
            rt.run_queue_peak = rt.run_queue_peak.max(depth);
        }
        self.admitted
    }

    /// The front of the run queue, a dirty shard's waiters re-queued first
    /// when it has drained — except a process parked on its own deferred
    /// commit whose `Policy::can_commit` still refuses: its release would
    /// only wait again, and every termination, which may open that gate,
    /// marks the shard dirty. (A parked process waits on a predecessor, so
    /// it does not run alone.)
    fn pop_runnable(&mut self) -> Option<(ProcessId, Instant)> {
        if self.run_queue.is_empty() && self.dirty && !self.waiting.is_empty() {
            self.dirty = false;
            self.waiting.retain(|&pid| {
                let parked =
                    self.slots[pid].pending.is_some() && self.policy.can_commit(pid).is_err();
                if !parked {
                    self.run_queue.push_back((pid, Instant::now()));
                }
                parked
            });
        }
        self.run_queue.pop_front()
    }

    /// Breaks the deadlock of a clean shard whose run queue has drained;
    /// `false` when nobody waits. Every waiter blocks on a shard-mate, so
    /// only an abort resolves it (DESIGN.md decision 1): the smallest
    /// waiter's, for [`AbortReason::Deadlock`] — or, if it is aborting
    /// already (its completion waits on the others' hypothetical ones,
    /// §3.5), that of every admitted process active and not aborting, as
    /// one group under it. The victim goes to the back of the run queue. A
    /// break that emits nothing is a stall: it panics with every state.
    fn break_deadlock(&mut self, ctx: &RunCtx<'a>) -> bool {
        let Some(pid) = self.waiting.pop_first() else {
            return false;
        };
        let events = self.history.len();
        if self.slots[pid].state.abort_in_progress() {
            let blocking = |&(q, s): &(ProcessId, &Slot<'_>)| {
                let st = &s.state;
                s.live && q != pid && st.is_active() && !st.abort_in_progress()
            };
            let others = self.slots.iter().rev().filter(blocking).map(|(q, _)| q);
            let others: Vec<ProcessId> = others.collect();
            self.group_abort(ctx, Some(pid), &others, None, AbortReason::Cascade);
        } else {
            self.initiate_abort(ctx, pid, AbortReason::Deadlock, None);
        }
        if self.history.len() == events {
            let states = self.states().map(|(p, st)| {
                let (status, aborting) = (st.status(), st.abort_in_progress());
                let next = (st.next_compensation(), st.next_activity(), st.can_commit());
                format!("\n  {p}: {status:?} aborting {aborting} next {next:?}")
            });
            let (id, history) = (self.id, txproc_core::schedule::render(&self.history));
            let states: String = states.collect();
            panic!(
                "{pid}: deadlock break emitted nothing (shard {id})\nhistory: {history}{states}"
            );
        }
        self.run_queue.push_back((pid, Instant::now()));
        true
    }

    /// Moves `pid` one transition forward — the single entry point of the
    /// protocol logic — and files it by the outcome: a terminated process
    /// leaves the live set, a blocked one joins the waiting set, a runnable
    /// one stays with the caller (which steps it again or re-queues it).
    fn step(&mut self, ctx: &RunCtx<'a>, pid: ProcessId) -> Step {
        let step = self.advance(ctx, pid);
        if step == Step::Done {
            self.admitted -= usize::from(std::mem::take(&mut self.slots[pid].live));
            ctx.live.leave();
        } else if step == Step::Wait {
            self.waiting.insert(pid);
        }
        step
    }

    /// Appends an event that no invocation record implies to the shard
    /// segment, journalled first.
    fn emit(&mut self, ctx: &RunCtx<'a>, event: Event) -> Result<(), ScheduleError> {
        let ticket = ctx.ticket(|| WalRecord::Event {
            event: event.clone(),
        });
        self.append(event, ticket).map(drop)
    }

    /// Appends an event the step took to the shard segment under its global
    /// merge ticket and marks the shard dirty — the one implementation of
    /// the step's transitions: the event is [recorded](Self::record), and
    /// each process it names makes its [`ProcessState::apply`] move (a
    /// release's `Execute` commits, as every `Execute` does). Returns the
    /// dependency edges an execution added.
    fn append(
        &mut self,
        event: Event,
        ticket: u64,
    ) -> Result<Vec<(ProcessId, ProcessId)>, ScheduleError> {
        let edges = self.record(&event);
        for &pid in event.processes() {
            let slot = self.slots.get_mut(pid);
            let state = &mut slot.ok_or(ModelError::UnknownProcess(pid))?.state;
            state.apply(&event)?;
        }
        self.history.push(event);
        self.event_tickets.push(ticket);
        self.dirty = true;
        Ok(edges)
    }

    /// The one place a decision of the step touches anything beyond the
    /// protocol state: it is counted ([`Metrics::observe`]); with telemetry
    /// on, a `CommitDeferred` starts its process's 2PC phase, which its
    /// `CommitReleased` or `AbortStarted` ends; with tracing on, it is
    /// journalled unless it repeats the process's last blocked state, which
    /// an admission, a release, an abort and a termination forget.
    fn note(&mut self, ctx: &RunCtx<'a>, event: TraceEvent) {
        self.metrics.observe(&event);
        let pid = event.pid();
        match (&event, pid) {
            (TraceEvent::CommitDeferred { .. }, Some(p)) if ctx.tele.enabled() => {
                self.slots[p].prepared_at = Some(Instant::now());
            }
            (TraceEvent::CommitReleased { .. } | TraceEvent::AbortStarted { .. }, Some(p)) => {
                if let Some(t0) = self.slots[p].prepared_at.take() {
                    ctx.tele
                        .phase_ns(Phase::TwoPc, t0.elapsed().as_nanos() as u64);
                }
            }
            _ => {}
        }
        if !ctx.traced {
            return;
        }
        match (&event, pid) {
            (
                TraceEvent::RequestBlocked { blockers: w, .. }
                | TraceEvent::CommitBlocked { wait_for: w, .. }
                | TraceEvent::CompletionBlocked { wait_for: w, .. },
                Some(p),
            ) => {
                let (kind, note) = (event.kind(), &mut self.slots[p].block_note);
                if (note.as_ref()).is_some_and(|(k, v)| *k == kind && v == w) {
                    return;
                }
                *note = Some((kind, w.clone()));
            }
            (
                TraceEvent::RequestAdmitted { .. }
                | TraceEvent::CommitReleased { .. }
                | TraceEvent::AbortStarted { .. }
                | TraceEvent::ProcessCommitted { .. }
                | TraceEvent::ProcessAborted { .. },
                Some(p),
            ) => self.slots[p].block_note = None,
            _ => {}
        }
        let noted = (self.history.len(), ctx.clock.ticks(), event);
        self.trace_buf.push(noted);
    }

    /// §3.5 certification of the next effect event against the shard-local
    /// segment (at once if its process runs [alone](Self::alone), else by the
    /// [`CertGate`]), noted as a [`TraceEvent::CertifyOutcome`] unless it
    /// repeats a refusal against an unchanged history.
    fn certified_traced(&mut self, ctx: &RunCtx<'a>, event: Event) -> bool {
        let lone = self.alone(event.processes()[0]).then_some(true);
        let Some(gate) = &mut self.gate else {
            return true;
        };
        let Some(ok) = lone.or_else(|| gate.decide(&self.history, &event, &ctx.tele)) else {
            return false;
        };
        let frontier = self.history.len() + 1;
        let outcome = TraceEvent::CertifyOutcome {
            event,
            ok,
            frontier,
        };
        self.note(ctx, outcome);
        ok
    }

    /// Emits the `Execute` of a pending deferred activity whose commit its
    /// subsystem applied, which commits it in its process's state (if it is
    /// the frontier).
    fn release(&mut self, ctx: &RunCtx<'a>, gid: GlobalActivityId) -> Result<(), ScheduleError> {
        self.emit(ctx, Event::Execute(gid))?;
        self.note(ctx, TraceEvent::CommitReleased { gid });
        Ok(())
    }

    /// One scheduling iteration for `pid`.
    fn advance(&mut self, ctx: &RunCtx<'a>, pid: ProcessId) -> Step {
        if self.slots[pid].state.status() != ProcessStatus::Active {
            self.finalize(ctx, pid);
            return Step::Done;
        }
        if let Some(gid) = self.slots[pid].pending {
            // Parked on its own deferred commit: Lemma 1.1 releases it once
            // the process could commit (Definition 11.1), if its `Execute`
            // certifies. The 2PC decision is journalled before phase 2 and
            // `DecisionApplied` after (a cut between leaves it in doubt, for
            // recovery to finish). Then the step goes on.
            if self.ask(ctx, pid, Ok(()), |p| p.can_commit(pid)).is_err()
                || !self.certified_traced(ctx, Event::Execute(gid))
            {
                return Step::Wait;
            }
            let (sid, inv) = self.invocation(gid).expect("a prepared invocation");
            let mut coordinator = ctx.coordinator.lock();
            let group = coordinator.next_group_id();
            ctx.journal(|| WalRecord::Decision {
                group,
                commit: true,
                participants: vec![(sid.0, inv.0)],
            });
            let participant = Participant {
                subsystem: sid,
                invocation: inv,
            };
            let apply = |p: &Participant| ctx.agents[&p.subsystem].lock().release(p.invocation);
            let applied = coordinator.commit_group_with(vec![participant], apply);
            applied.expect("participant prepared");
            ctx.journal(|| WalRecord::DecisionApplied { group });
            drop(coordinator);
            self.release(ctx, gid)
                .expect("a release commits its frontier");
        }
        if let Some(c) = self.slots[pid].state.next_compensation() {
            let gid = GlobalActivityId::new(pid, c);
            // Lemma 2 / Example 8: conflicting operations executed after the
            // compensated one must vanish first (or their owners cascade).
            if let Some(step) = self.gated(ctx, pid, |p| p.compensation_gate(gid)) {
                return step;
            }
            if !self.certified_traced(ctx, Event::Compensate(gid)) {
                // Another process's completion step must come first; retry
                // once it progressed.
                return Step::Wait;
            }
            let (sid, inv) = self.invocation(gid).expect("a committed invocation");
            let t0 = ctx.tele.phase_start();
            let compensated = ctx.agents[&sid].lock().compensate(inv);
            let outcome = compensated.expect("the subsystem holds the invocation");
            ctx.tele.phase_end(Phase::Compensation, t0);
            return match outcome {
                InvokeOutcome::Committed { .. } => {
                    let service = self.slots[pid].state.process().service(c);
                    self.note(ctx, TraceEvent::CompensationStarted { gid, service });
                    self.emit(ctx, Event::Compensate(gid)).expect("legal move");
                    Step::Yield
                }
                InvokeOutcome::Busy { .. } => Step::Wait,
                other => panic!("unexpected compensation outcome {other:?}"),
            };
        }
        if let Some(a) = self.slots[pid].state.next_activity() {
            return self.step_activity(ctx, pid, a);
        }
        if self.slots[pid].state.can_commit() {
            return match self.ask(ctx, pid, Ok(()), |p| p.can_commit(pid)) {
                Ok(()) if !self.certified_traced(ctx, Event::Commit(pid)) => Step::Wait,
                Ok(()) => {
                    self.emit(ctx, Event::Commit(pid)).expect("legal move");
                    self.finalize(ctx, pid);
                    Step::Done
                }
                Err(wait_for) => {
                    self.note(ctx, TraceEvent::CommitBlocked { pid, wait_for });
                    Step::Wait
                }
            };
        }
        // Nothing to do right now (e.g. mid-abort with empty completion).
        Step::Wait
    }

    /// Asks a Lemma 2/3 completion gate and applies its verdict: `None`
    /// when the completion step may run now, else a wait for the aborting
    /// holders to compensate, or their cascade (a wait too if every holder
    /// named is aborting already, by a failure the policy is not told).
    fn gated(
        &mut self,
        ctx: &RunCtx<'a>,
        pid: ProcessId,
        gate: impl FnOnce(&mut dyn Policy) -> CompletionGate,
    ) -> Option<Step> {
        match self.ask(ctx, pid, CompletionGate::Ready, gate) {
            CompletionGate::Ready => None,
            CompletionGate::WaitFor(wait_for) => {
                self.note(ctx, TraceEvent::CompletionBlocked { pid, wait_for });
                Some(Step::Wait)
            }
            CompletionGate::Cascade(victims) => {
                let cascade = |v| self.begin_abort(ctx, v, AbortReason::Cascade);
                let began = victims.into_iter().map(cascade).fold(false, |a, b| a | b);
                Some(if began { Step::Yield } else { Step::Wait })
            }
        }
    }

    /// Definition 8.3(f): concurrent completions are ordered consistently,
    /// so a forward-recovery step is blocked while an *earlier-initiated*
    /// abort still has conflicting completion work pending. Uncertified
    /// runs only: a certified run's completion order is the certifier's
    /// (whose mandatory ranks may differ from abort-initiation order).
    fn forward_order_blocked(&self, ctx: &RunCtx<'a>, pid: ProcessId, svc: ServiceId) -> bool {
        if self.gate.is_some() {
            return false;
        }
        let Some(mine) = self.abort_order.iter().position(|&q| q == pid) else {
            return false;
        };
        let spec = &ctx.workload.spec;
        let base = spec.catalog.base(svc);
        self.abort_order[..mine].iter().any(|&q| {
            let state = &self.slots[q].state;
            if !state.abort_in_progress() {
                return false;
            }
            let completion = state.completion();
            let mut remaining = (completion.compensations.iter()).chain(&completion.forward);
            remaining.any(|&a| {
                let s = spec.catalog.base(state.process().service(a));
                spec.oracle().conflict(s, base)
            })
        })
    }

    /// Runs one scheduling step for the next forward activity.
    fn step_activity(&mut self, ctx: &RunCtx<'a>, pid: ProcessId, a: ActivityId) -> Step {
        let gid = GlobalActivityId::new(pid, a);
        let process = ctx.workload.spec.process(pid).expect("known");
        let svc = process.service(a);
        let site = ctx.workload.deployment.site(svc).expect("deployed");
        let termination = ctx.workload.spec.catalog.termination(svc);
        let in_completion = self.slots[pid].state.abort_in_progress();
        let admission = if in_completion {
            // Completion activities are mandated by recovery; Definition 8
            // orders them after everything already executed. Lemma 3 /
            // §3.5: conflicting live operations must be compensated first.
            if let Some(step) = self.gated(ctx, pid, |p| p.forward_gate(pid, svc)) {
                return step;
            }
            if self.forward_order_blocked(ctx, pid, svc) {
                return Step::Wait;
            }
            Admission::Allow
        } else {
            self.ask(ctx, pid, Admission::Allow, |p| p.request(pid, gid, svc))
        };
        let (mode, blockers) = match admission {
            Admission::Allow => (CommitMode::Immediate, Vec::new()),
            Admission::AllowDeferred { blockers } => (CommitMode::Deferred, blockers),
            Admission::Wait { blockers } => {
                let blocked = TraceEvent::RequestBlocked {
                    gid,
                    service: svc,
                    blockers,
                };
                self.note(ctx, blocked);
                // Blocked; re-evaluated when the shard state changes.
                return Step::Wait;
            }
            Admission::Reject { conflicting } => {
                let rejected = TraceEvent::RequestRejected {
                    gid,
                    service: svc,
                    conflicting,
                };
                self.note(ctx, rejected);
                self.initiate_abort(ctx, pid, AbortReason::Rejected, Some(gid));
                return Step::Yield;
            }
        };
        if mode == CommitMode::Immediate && !self.certified_traced(ctx, Event::Execute(gid)) {
            // A function of the shard history; retried once it advances.
            return Step::Wait;
        }
        // Failure injection: one deterministic draw per attempt that passed
        // admission and certification, never per refused re-poll.
        let cell = self.cell(gid).expect("a member's activity");
        self.attempts[cell] += 1;
        let fails = |seed| fail_coin(seed, gid, self.attempts[cell]) < p_fail(ctx, site.subsystem);
        let inject = ctx.coins.is_some_and(fails);
        if inject && termination.can_fail() {
            self.emit(ctx, Event::Fail(gid)).expect("legal move");
            self.note(ctx, TraceEvent::ActivityFailed { gid, service: svc });
            // No alternative was left: the process aborts (or already has).
            let state = &self.slots[pid].state;
            if state.abort_in_progress() || !state.is_active() {
                let reason = AbortReason::Failure;
                self.note(ctx, TraceEvent::AbortStarted { pid, reason });
            }
            simulated_invoke(ctx, svc, site);
            return Step::Yield;
        }
        if inject && termination == Termination::Retriable {
            self.metrics.retries += 1;
            simulated_invoke(ctx, svc, site);
            return Step::Yield;
        }
        // The invocation is journalled while its agent stays locked, and
        // nothing else is done there: agents allocate invocation ids in
        // invoke order, and replay reproduces them only if that is log order
        // too. An immediate execution's one record covers both the agent
        // commit and the history event — no log prefix separates them — so
        // it is appended under the event's ticket.
        let mut agent = ctx.agents[&site.subsystem].lock();
        let outcome = agent.invoke(svc, &site.program, mode, false);
        let outcome = outcome.expect("a lock conflict is the one refusal");
        let invocation = match outcome {
            InvokeOutcome::Committed { invocation, .. }
            | InvokeOutcome::Prepared { invocation, .. } => invocation,
            // A key lock held by a prepared invocation; holder is a shard-mate
            // (conflicting services share a domain), so the release/abort that
            // frees the key also marks our shard dirty.
            InvokeOutcome::Busy { .. } => return Step::Wait,
            InvokeOutcome::Aborted => unreachable!("no injection requested"),
        };
        let deferred = mode == CommitMode::Deferred;
        let record = || WalRecord::Invocation {
            gid,
            subsystem: site.subsystem.0,
            invocation: invocation.0,
            prepared: deferred,
        };
        let at = ctx.log(record, u64::from(!deferred));
        drop(agent);
        self.invocations[cell] = Some((site.subsystem, invocation));
        self.invocation_log.push(InvocationLogEntry {
            gid,
            subsystem: site.subsystem,
            invocation,
            prepared: deferred,
            at,
        });
        let edges_added = if deferred {
            self.prepare(gid)
        } else {
            self.append(Event::Execute(gid), at).expect("frontier")
        };
        let admitted = TraceEvent::RequestAdmitted {
            gid,
            service: svc,
            deferred,
            blockers: blockers.clone(),
            edges_added,
        };
        self.note(ctx, admitted);
        if !deferred {
            return Step::Yield;
        }
        // Parked on its own release until it or an abort comes.
        self.note(ctx, TraceEvent::CommitDeferred { gid, blockers });
        Step::Wait
    }

    fn finalize(&mut self, ctx: &RunCtx<'a>, pid: ProcessId) {
        match self.slots[pid].state.status() {
            ProcessStatus::Committed => {
                self.note(ctx, TraceEvent::ProcessCommitted { pid });
                self.policy.on_commit(pid);
            }
            ProcessStatus::Aborted => {
                self.note(ctx, TraceEvent::ProcessAborted { pid });
                self.policy.on_abort(pid);
            }
            ProcessStatus::Active => return,
        }
        // Time in system: arrival→terminal on the run's clock.
        let latency = ctx.clock.now().saturating_sub(ctx.arrival(pid));
        self.metrics.latencies.push(latency);
        // The termination can unblock a waiter, or open a parked one's
        // release, even when no history event was emitted here.
        self.dirty = true;
        // At a quiescent point — the untold lone process terminated, or the
        // last holder the policy was told of — the step keeps the rule again.
        let lone = self.lone == Some(Some(pid));
        let quiescent = || self.policy.quiescent();
        if self.untold.map_or_else(quiescent, |_| lone) {
            (self.lone, self.untold) = (Some(None), Some(self.history.len()));
        }
    }

    /// Starts the abort of `pid` for `reason` (a no-op, answering `false`,
    /// unless it is active and not already aborting): its prepared invocation
    /// is dropped first — it vanishes atomically, leaving the process
    /// backward-recoverable — then the abort is journalled and emitted.
    fn begin_abort(&mut self, ctx: &RunCtx<'a>, pid: ProcessId, reason: AbortReason) -> bool {
        let slot = &self.slots[pid];
        if !slot.state.is_active() || slot.state.abort_in_progress() {
            return false;
        }
        if let Some(gid) = slot.pending {
            let (sid, inv) = self.invocation(gid).expect("a prepared invocation");
            ctx.journal(|| WalRecord::PreparedAborted {
                subsystem: sid.0,
                invocation: inv.0,
            });
            let mut agent = ctx.agents[&sid].lock();
            agent.abort_prepared(inv).expect("prepared");
        }
        self.note(ctx, TraceEvent::AbortStarted { pid, reason });
        self.emit(ctx, Event::Abort(pid)).expect("legal move");
        true
    }

    /// The group abort `initiator` leads — the scheduler itself with none —
    /// noted as one decision: the `victims` begin their aborts for `reason`,
    /// in order. Of a group the scheduler leads, a victim that began its
    /// abort already takes its place in the abort order here.
    fn group_abort(
        &mut self,
        ctx: &RunCtx<'a>,
        initiator: Option<ProcessId>,
        victims: &[ProcessId],
        trigger: Option<GlobalActivityId>,
        reason: AbortReason,
    ) {
        if !victims.is_empty() {
            let group = TraceEvent::GroupAbort {
                initiator,
                victims: victims.to_vec(),
                trigger,
            };
            self.note(ctx, group);
        }
        for &v in victims {
            if !self.begin_abort(ctx, v, reason) && initiator.is_none() {
                self.abort_order.push(v);
            }
        }
    }

    /// Aborts `pid` for `reason`, cascading first into the victims the policy
    /// plans (dependents first, Lemma 2).
    pub(crate) fn initiate_abort(
        &mut self,
        ctx: &RunCtx<'a>,
        pid: ProcessId,
        reason: AbortReason,
        trigger: Option<GlobalActivityId>,
    ) {
        let (state, gid) = (&self.slots[pid].state, |&a| GlobalActivityId::new(pid, a));
        if state.abort_in_progress() || !state.is_active() {
            return;
        }
        let completion = state.completion();
        let comps: Vec<GlobalActivityId> = completion.compensations.iter().map(gid).collect();
        let fwd = completion.forward.iter();
        let fwd: Vec<_> = fwd.map(|&a| state.process().service(a)).collect();
        let victims = self.ask(ctx, pid, Vec::new(), |p| p.plan_abort(pid, &comps, &fwd));
        self.group_abort(ctx, Some(pid), &victims, trigger, AbortReason::Cascade);
        self.begin_abort(ctx, pid, reason);
    }
}

/// Runs a failure-injected ("simulated") invocation at its agent. The
/// outcome is ignored and it leaves no trace in history or policy: only the
/// agent sees it.
fn simulated_invoke(ctx: &RunCtx<'_>, svc: ServiceId, site: &ServiceSite) {
    let mut agent = ctx.agents[&site.subsystem].lock();
    let _ = agent.invoke(svc, &site.program, CommitMode::Immediate, true);
}

/// Deterministic failure-injection coin: a pure hash of
/// `(seed, activity, attempt)`, so the draw for a given attempt does not
/// depend on thread interleaving or shard topology.
fn fail_coin(seed: u64, gid: GlobalActivityId, attempt: u64) -> f64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let mut h = mix(seed);
    h = mix(h ^ u64::from(gid.process.0));
    h = mix(h ^ gid.activity.index() as u64);
    h = mix(h ^ attempt);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Failure probability of an activity on `subsystem` now: a crash storm
/// overrides the base rate on its subsystems while its window is open.
fn p_fail(ctx: &RunCtx<'_>, subsystem: SubsystemId) -> f64 {
    let config = &ctx.workload.config;
    if let Some(storm) = &config.storm {
        let (from, to) = storm.window;
        if subsystem.0 < storm.subsystems && ctx.clock.ticks().is_none_or(|t| from <= t && t < to) {
            return storm.failure_probability.clamp(0.0, 1.0);
        }
    }
    config.failure_probability.clamp(0.0, 1.0)
}

/// Runs the workload on the worker pool, sharded by conflict domain per
/// `cfg.shards`. Shorthand for `RunBuilder::new(w).concurrent(cfg).run()`
/// with no sink, telemetry or WAL; like it, panics on an invalid
/// configuration (`RunBuilder::try_run` returns the error instead).
/// [`Metrics::latencies`] and [`Metrics::makespan`] are wall-clock
/// microseconds (the engine's are virtual ticks).
pub fn run_concurrent(workload: &Workload, cfg: ConcurrentConfig) -> ConcurrentResult {
    if let Err(msg) = cfg.validate() {
        panic!("invalid concurrent configuration: {msg}");
    }
    run_concurrent_impl(workload, cfg, Box::new(NoopSink), Telemetry::off(), None)
}

/// The one concurrent-driver implementation behind [`run_concurrent`] and
/// [`crate::builder::RunBuilder`]: runs an already validated `cfg` with the
/// given trace sink, telemetry and optional WAL. The journal reaches `sink`
/// after the workers join ([`deliver`]), stamped with shard and worker;
/// `history_len` is the shard-local segment length.
pub(crate) fn run_concurrent_impl<'a>(
    workload: &'a Workload,
    cfg: ConcurrentConfig,
    mut sink: Box<dyn TraceSink + 'a>,
    tele: Telemetry,
    wal: Option<WalWriter>,
) -> ConcurrentResult {
    // Shard topology: process groups with no conflicts across groups.
    let groups: Vec<Vec<ProcessId>> = match cfg.shards {
        ShardMode::Single => vec![workload.spec.processes().map(|p| p.id).collect()],
        ShardMode::Auto => DomainPartition::partition(&workload.spec).into_domains(),
    };

    let worker_count = cfg.resolved_workers(groups.len());
    let clock = Clock::Wall(Instant::now());
    let durable = (fresh_agents(workload), Coordinator::new());
    let (policy, coins) = (cfg.policy, Some(cfg.seed));
    let mut ctx = RunCtx::new(workload, policy, coins, sink.enabled(), clock, durable);
    ctx.tele = tele;
    if let Some(writer) = wal {
        ctx.set_wal(writer, cfg.epoch);
    }

    // Each worker gets its domains' member lists, nothing built: a shard's
    // state is built by its owner at first admission and finished by it at
    // last termination (see `event_worker`). Static ownership: shard i
    // belongs to worker i mod W, and only that worker ever holds it.
    let mut per_worker: Vec<Vec<(u32, &[ProcessId])>> = vec![Vec::new(); worker_count];
    for (si, members) in groups.iter().enumerate() {
        per_worker[si % worker_count].push((si as u32, members));
    }
    let mut runtime_metrics = RuntimeMetrics::new(worker_count as u64);
    let mut done: Vec<ShardDone> = Vec::with_capacity(groups.len());
    std::thread::scope(|scope| {
        // Worker 0 is the calling thread — it would only sleep in `join` —
        // and workers `1..W` are spawned; results merge in worker order.
        let ctx = &ctx;
        let mut per_worker = per_worker.into_iter();
        let first = per_worker.next().expect("at least one worker");
        let spawn = |owned| scope.spawn(move || event_worker(ctx, owned));
        let handles: Vec<_> = per_worker.map(spawn).collect();
        let first = event_worker(ctx, first);
        let spawned = handles
            .into_iter()
            .map(|h| h.join().expect("event worker panicked"));
        for (rt, finished) in std::iter::once(first).chain(spawned) {
            runtime_metrics.merge(&rt);
            done.extend(finished);
        }
    });
    runtime_metrics.workers = worker_count as u64;
    runtime_metrics.in_flight_peak = ctx.live.peak.load(Ordering::Relaxed);
    runtime_metrics.shards_live_peak = ctx.shards_live.peak.load(Ordering::Relaxed);

    // Deterministic merge: fold shard metrics into the aggregate in shard
    // order, and interleave the shard segments in ticket order into one
    // global schedule. Tickets are the dense `0..N` one counter handed out,
    // so each event moves straight to its slot — no sort. The journal goes
    // out first, in the order of that schedule.
    let makespan_us = ctx.clock.now();
    done.sort_unstable_by_key(|d| d.id);
    deliver(&mut *sink, &mut done, Some(worker_count as u32));
    let mut metrics = Metrics::new();
    let mut invocation_log = Vec::new();
    let mut slots: Vec<Option<Event>> = vec![None; ctx.tickets.load(Ordering::Relaxed) as usize];
    for shard in done {
        metrics.merge(&shard.metrics);
        invocation_log.extend(shard.invocation_log);
        for (ticket, event) in shard.tickets.into_iter().zip(shard.history.into_events()) {
            slots[ticket as usize] = Some(event);
        }
    }
    let dense = |e: Option<Event>| e.expect("event tickets are dense");
    let history: Schedule = slots.into_iter().map(dense).collect();
    metrics.makespan = makespan_us;
    if cfg!(debug_assertions) {
        let broken = runtime_metrics.invariant_violations(Some(makespan_us.saturating_mul(1000)));
        assert!(
            broken.is_empty(),
            "runtime metrics invariants violated: {broken:?}"
        );
    }
    metrics.runtime = Some(runtime_metrics);
    let (agents, coordinator) = ctx.finish();
    ConcurrentResult {
        history,
        metrics,
        agents,
        coordinator,
        invocation_log,
    }
}

/// One conflict domain as its owning event worker holds it: the pending
/// arrivals for the whole run, and the shard itself, by value, only from the
/// first admission to the retirement.
struct Domain<'a, 'g> {
    id: u32,
    members: &'g [ProcessId],
    /// Not-yet-arrived processes, ordered by arrival offset (µs).
    arrivals: VecDeque<(u64, ProcessId)>,
    built: Option<Shard<'a>>,
}

/// Event-worker loop: round-robins over the worker's owned shards, admitting
/// due arrivals and spending up to [`STEP_BUDGET`] steps of [`Shard::run`]
/// per shard per pass; returns the worker's runtime metrics and its retired
/// shards. A future arrival only *adds* conflicts, so a clean drained shard
/// with waiters is a genuine deadlock (DESIGN.md "The wall-clock driver").
fn event_worker<'a>(
    ctx: &RunCtx<'a>,
    owned: Vec<(u32, &[ProcessId])>,
) -> (RuntimeMetrics, Vec<ShardDone>) {
    let mut rt = RuntimeMetrics::new(1);
    let mut done = Vec::with_capacity(owned.len());
    let domains = owned.into_iter().map(|(id, members)| Domain {
        id,
        members,
        arrivals: ctx.arrival_queue(members),
        built: None,
    });
    let mut owned: Vec<Domain<'a, '_>> = domains.collect();
    while !owned.is_empty() {
        let mut progressed = false;
        let mut next_arrival: Option<u64> = None;
        // One visit per owned domain; a domain that retires leaves the list.
        owned.retain_mut(|dom| {
            // Admit arrivals that are due (1 workload tick = 1 µs).
            let now_us = dom.arrivals.front().map_or(0, |_| ctx.clock.now());
            while let Some((_, pid)) = dom.arrivals.pop_front_if(|a| a.0 <= now_us) {
                let build = || Shard::build(dom.id, dom.members, ctx);
                dom.built.get_or_insert_with(build).admit(ctx, pid);
                progressed = true;
            }
            if let Some(&(at, _)) = dom.arrivals.front() {
                next_arrival = Some(next_arrival.map_or(at, |m| m.min(at)));
            }
            let Some(shard) = &mut dom.built else {
                return true;
            };
            let t0 = Instant::now();
            shard.run(ctx, &mut rt, STEP_BUDGET, &mut Fifo);
            rt.worker_busy_ns += t0.elapsed().as_nanos() as u64;
            progressed |= shard.has_work();
            if shard.admitted > 0 || !dom.arrivals.is_empty() {
                return true;
            }
            let shard = dom.built.take().expect("visited shard is built");
            done.push(shard.finish(ctx));
            false
        });
        if let (false, Some(at)) = (progressed, next_arrival) {
            // Everything runnable is drained and the next event on any owned
            // shard is an arrival: nap until it is due. Nothing else can come
            // due first, since no block crosses shards.
            rt.worker_idle_ns += ctx.clock.nap_until(at);
        }
    }
    (rt, done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use txproc_core::activity::Catalog;
    use txproc_core::protocol::Protocol;
    use txproc_sim::workload::{generate, ArrivalModel, WorkloadConfig};
    use txproc_subsystem::kv::{Key, Program};
    use txproc_subsystem::subsystem::{TxId, TxStatus};

    #[test]
    fn concurrent_run_terminates_and_is_pred() {
        for seed in 0..4 {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 5,
                conflict_density: 0.4,
                failure_probability: 0.15,
                ..WorkloadConfig::default()
            });
            let result = run_concurrent(
                &w,
                ConcurrentConfig {
                    seed,
                    ..ConcurrentConfig::default()
                },
            );
            assert_eq!(result.metrics.terminated(), 5, "seed {seed}");
            assert!(
                txproc_core::pred::is_pred(&w.spec, &result.history).unwrap(),
                "seed {seed}: concurrent history not PRED:\n{}",
                txproc_core::schedule::render(&result.history)
            );
        }
    }

    #[test]
    fn concurrent_run_without_failures_commits_everything() {
        let w = generate(&WorkloadConfig {
            seed: 4,
            processes: 6,
            conflict_density: 0.3,
            failure_probability: 0.0,
            ..WorkloadConfig::default()
        });
        let result = run_concurrent(&w, ConcurrentConfig::default());
        assert_eq!(result.metrics.committed, 6);
        assert_eq!(result.metrics.aborted, 0);
    }

    #[test]
    fn concurrent_run_uncertified_protocol_terminates() {
        // The pure protocol (no certifier) under real threads — the
        // bench-harness configuration. PRED is not guaranteed without
        // certification (pred-protocol is the "necessary but not
        // sufficient" ablation); the contract here is termination with a
        // fully accounted outcome.
        for seed in 0..4 {
            let w = generate(&WorkloadConfig {
                seed: seed + 11,
                processes: 6,
                conflict_density: 0.4,
                failure_probability: 0.15,
                ..WorkloadConfig::default()
            });
            let result = run_concurrent(
                &w,
                ConcurrentConfig {
                    policy: PolicyKind::PredProtocol,
                    seed,
                    ..ConcurrentConfig::default()
                },
            );
            assert_eq!(result.metrics.terminated(), 6, "seed {seed}");
        }
    }

    fn outcome_sets(history: &Schedule) -> (BTreeSet<ProcessId>, BTreeSet<ProcessId>) {
        let mut committed = BTreeSet::new();
        let mut aborted = BTreeSet::new();
        for e in history.events() {
            match e {
                Event::Commit(p) => {
                    committed.insert(*p);
                }
                Event::Abort(p) => {
                    aborted.insert(*p);
                }
                Event::GroupAbort(ps) => {
                    aborted.extend(ps.iter().copied());
                }
                _ => {}
            }
        }
        (committed, aborted)
    }

    #[test]
    fn auto_sharding_reports_one_shard_per_domain() {
        let w = generate(&WorkloadConfig {
            seed: 7,
            processes: 16,
            clusters: 4,
            conflict_density: 0.4,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        });
        let domains = DomainPartition::partition(&w.spec).domain_count();
        assert!(domains >= 4);
        let auto = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 7,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(auto.metrics.shards.len(), domains);
        assert_eq!(auto.metrics.terminated(), 16);
        let total_events: u64 = auto.metrics.shards.iter().map(|s| s.events).sum();
        assert_eq!(total_events as usize, auto.history.len());

        let single = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 7,
                shards: ShardMode::Single,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(single.metrics.shards.len(), 1);
        assert_eq!(single.metrics.terminated(), 16);
    }

    #[test]
    fn sharded_and_single_agree_on_disjoint_workloads() {
        // On a workload whose processes never conflict the failure coins
        // fully determine every outcome, so the sharded and one-shard
        // drivers must produce bit-equal commit/abort sets.
        for seed in 0..6 {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 8,
                conflict_density: 0.0,
                clusters: 8,
                failure_probability: 0.2,
                ..WorkloadConfig::default()
            });
            assert_eq!(
                DomainPartition::partition(&w.spec).domain_count(),
                8,
                "seed {seed}: clusters of one process each"
            );
            let cfg = ConcurrentConfig {
                seed,
                ..ConcurrentConfig::default()
            };
            let sharded = run_concurrent(&w, cfg.clone());
            let single = run_concurrent(
                &w,
                ConcurrentConfig {
                    shards: ShardMode::Single,
                    ..cfg
                },
            );
            assert_eq!(
                outcome_sets(&sharded.history),
                outcome_sets(&single.history),
                "seed {seed}: outcome sets diverge"
            );
            assert!(txproc_core::pred::is_pred(&w.spec, &sharded.history).unwrap());
        }
    }

    #[test]
    fn concurrent_run_fills_wall_clock_latency_metrics() {
        let w = generate(&WorkloadConfig {
            seed: 2,
            processes: 4,
            ..WorkloadConfig::default()
        });
        let result = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 2,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(result.metrics.latencies.len(), 4);
        assert!(result.metrics.makespan > 0);
        assert!(result.metrics.latency_percentile(0.5).is_some());
        assert!(
            result
                .metrics
                .latencies
                .iter()
                .all(|&l| l <= result.metrics.makespan),
            "latency beyond makespan"
        );
        assert!(!result.metrics.shards.is_empty());
    }

    #[test]
    fn events_runtime_populates_runtime_metrics() {
        let w = generate(&WorkloadConfig {
            seed: 5,
            processes: 8,
            conflict_density: 0.4,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        });
        let result = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 5,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(result.metrics.terminated(), 8);
        let rt = result.metrics.runtime.expect("runtime metrics populated");
        assert!(rt.workers >= 1);
        assert!(rt.steps >= 8, "at least one step per process");
        assert_eq!(rt.in_flight_peak, 8, "closed arrivals: all in flight");
        assert!(rt.sched_delay_ns.iter().sum::<u64>() > 0);
        assert!(rt.delay_percentile_ns(0.95).is_some());
    }

    #[test]
    fn a_due_arrival_is_admitted_in_the_visit_it_is_due() {
        // `closed_contended`'s shape in one shard on one worker: every
        // process is due at time zero, so the first visit admits all 96 and
        // each is in flight before any terminates.
        let w = generate(&WorkloadConfig {
            seed: 1,
            processes: 96,
            conflict_density: 0.3,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        });
        let result = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 1,
                shards: ShardMode::Single,
                workers: Some(1),
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(result.metrics.terminated(), 96);
        let rt = result.metrics.runtime.expect("runtime metrics populated");
        assert_eq!(rt.in_flight_peak, 96, "every due process admitted at once");
    }

    /// A log store that notes which thread appended each frame. The trace
    /// sink is fed by the run's owner after the join, so a shard's worker
    /// shows in what it journals to the WAL.
    struct ThreadsSeen(std::sync::Arc<Mutex<Vec<Frame>>>);

    /// One appended frame and the thread that appended it.
    type Frame = (std::thread::ThreadId, Vec<u8>);

    impl txproc_core::wal::WalStore for ThreadsSeen {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            let frame = (std::thread::current().id(), bytes.to_vec());
            self.0.lock().push(frame);
            Ok(())
        }

        fn sync(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn worker_zero_runs_on_the_calling_thread() {
        let w = clustered(8, 4, ArrivalModel::Closed);
        let domains = DomainPartition::partition(&w.spec).into_domains();
        let shard_of = |pid: ProcessId| domains.iter().position(|d| d.contains(&pid));
        let caller = std::thread::current().id();
        for workers in [1usize, 2] {
            let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
            let cfg = ConcurrentConfig {
                seed: 13,
                workers: Some(workers),
                ..ConcurrentConfig::default()
            };
            // Every record lands in the store as it is appended.
            let policy = txproc_core::wal::DurabilityPolicy::FsyncEveryN(1);
            let wal = WalWriter::new(Box::new(ThreadsSeen(seen.clone())), policy, 13);
            let r = run_concurrent_impl(&w, cfg, Box::new(NoopSink), Telemetry::off(), Some(wal));
            assert_eq!(r.metrics.terminated(), 32);
            // One worker spawns no thread; of two, only worker 1 is spawned.
            let mut ids = BTreeSet::new();
            for (thread, frame) in seen.lock().iter() {
                for record in txproc_core::wal::read_records(frame).0 {
                    let pid = match record {
                        WalRecord::Event { event } => event.processes()[0],
                        WalRecord::Invocation { gid, .. } => gid.process,
                        _ => continue,
                    };
                    let worker = shard_of(pid).expect("a domain member") % workers;
                    assert_eq!(*thread == caller, worker == 0, "worker {worker}");
                    ids.insert(worker);
                }
            }
            assert_eq!(ids, (0..workers).collect(), "{workers} workers");
        }
    }

    fn clustered(clusters: usize, per_cluster: usize, arrivals: ArrivalModel) -> Workload {
        generate(&WorkloadConfig {
            seed: 13,
            processes: clusters * per_cluster,
            clusters,
            services_per_kind: 4,
            subsystems: 2,
            conflict_density: 0.3,
            failure_probability: 0.1,
            arrivals,
            ..WorkloadConfig::default()
        })
    }

    fn shards_live_peak(result: &ConcurrentResult) -> u64 {
        let rt = result.metrics.runtime.as_ref().expect("runtime metrics");
        rt.shards_live_peak
    }

    #[test]
    fn built_shards_are_bounded_by_workers_not_by_domains() {
        let w = clustered(64, 8, ArrivalModel::Closed);
        let domains = DomainPartition::partition(&w.spec).domain_count();
        assert!(domains >= 64);
        for workers in [1usize, 2] {
            let r = run_concurrent(
                &w,
                ConcurrentConfig {
                    seed: 13,
                    workers: Some(workers),
                    ..ConcurrentConfig::default()
                },
            );
            assert_eq!(r.metrics.shards.len(), domains, "{workers} workers");
            assert_eq!(r.metrics.terminated(), 512, "{workers} workers");
            let peak = shards_live_peak(&r);
            assert!(
                (1..=workers as u64).contains(&peak),
                "{workers} workers held {peak} of {domains} shards at once"
            );
        }
        let single = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 13,
                shards: ShardMode::Single,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(shards_live_peak(&single), 1);
    }

    #[test]
    fn draining_domain_keeps_its_state_until_its_last_arrival() {
        // Mean gap far above a process's service time: most domains drain
        // between two of their arrivals. A shard retired with arrivals
        // pending would be built twice (two `metrics.shards` entries, a
        // history the second build does not know); one never retired would
        // be missing.
        let w = clustered(4, 6, ArrivalModel::Poisson { mean_gap: 2_000 });
        let partition = DomainPartition::partition(&w.spec);
        let r = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 13,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(r.metrics.terminated(), 24);
        let mut reported = r.metrics.shards.clone();
        reported.sort_by_key(|s| s.shard);
        assert_eq!(reported.len(), partition.domain_count());
        for (i, (shard, members)) in reported.iter().zip(partition.domains()).enumerate() {
            assert_eq!(shard.shard, i as u32, "each domain exactly once");
            assert_eq!(shard.processes, members.len() as u64, "shard {i}");
        }
        let events: u64 = reported.iter().map(|s| s.events).sum();
        assert_eq!(events as usize, r.history.len());
        assert!(txproc_core::pred::is_pred(&w.spec, &r.history).unwrap());
        let rt = r.metrics.runtime.as_ref().expect("runtime metrics");
        assert!(
            rt.in_flight_peak < 24,
            "arrivals were spread out, not admitted at once"
        );
    }

    #[test]
    fn shard_is_not_built_before_its_first_arrival_is_due() {
        // Two one-process domains, each on its own worker; the second
        // process arrives 200 ms after the first, long after the first
        // domain has retired. Building at first visit instead of at first
        // admission would hold both shards at time zero.
        let arrivals = ArrivalModel::Burst {
            quiet: 1,
            quiet_gap: 200_000,
        };
        let w = clustered(2, 1, arrivals);
        assert_eq!(DomainPartition::partition(&w.spec).domain_count(), 2);
        let r = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 13,
                workers: Some(2),
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(r.metrics.terminated(), 2);
        assert_eq!(r.metrics.shards.len(), 2);
        assert_eq!(shards_live_peak(&r), 1);
    }

    #[test]
    fn idle_time_is_the_time_slept() {
        // Arrivals far enough apart that the one worker naps between them,
        // close enough that many naps are shorter than `WAKE_EARLY` and yield
        // all the way: the worker is busy or waiting nearly all the run, and
        // its accounts must say so.
        let w = clustered(1, 64, ArrivalModel::Poisson { mean_gap: 200 });
        let r = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 13,
                workers: Some(1),
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(r.metrics.terminated(), 64);
        let wall_ns = r.metrics.makespan * 1000;
        let rt = r.metrics.runtime.as_ref().expect("runtime metrics");
        assert!(rt.worker_idle_ns > 0, "the worker never napped");
        let accounted = rt.worker_busy_ns + rt.worker_idle_ns;
        assert!(
            accounted as f64 >= 0.8 * wall_ns as f64,
            "busy {} + idle {} ns accounts for under 80% of the {wall_ns} ns run",
            rt.worker_busy_ns,
            rt.worker_idle_ns
        );
        assert_eq!(rt.invariant_violations(Some(wall_ns)), Vec::<String>::new());
    }

    #[test]
    fn a_nap_never_ends_before_its_due_time() {
        // The early wake yields the rest of the wait, so no arrival is
        // admitted before it is due, and idle time counts the whole wait.
        let start = Instant::now() - Duration::from_millis(5);
        let clock = Clock::Wall(start);
        let now = clock.now();
        for at in [now - 1_000, now, now + 10, now + 150, now + 2_000] {
            let before = start.elapsed();
            let waited = clock.nap_until(at);
            assert!(
                clock.now() >= at,
                "a nap until {at} µs ended at {}",
                clock.now()
            );
            let left = Duration::from_micros(at).saturating_sub(before);
            // 50 µs for the reads between `before` and the nap's own start.
            assert!(
                Duration::from_nanos(waited) + Duration::from_micros(50) >= left,
                "a nap with {left:?} left counted {waited} ns"
            );
        }
        assert_eq!(Clock::Virtual(AtomicU64::new(5)).nap_until(1_000), 0);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "a lone process costs about 250 µs in a debug build"
    )]
    fn an_open_arrival_is_admitted_on_time() {
        // 64 lone processes arriving about 1 ms apart: each runs alone, so its
        // latency is its admission delay plus its own steps. A worker that
        // wakes a timer slack late adds that slack to every one.
        let w = clustered(64, 1, ArrivalModel::Poisson { mean_gap: 1000 });
        let cfg = ConcurrentConfig {
            seed: 13,
            workers: Some(1),
            ..ConcurrentConfig::default()
        };
        let medians: Vec<u64> = (0..3)
            .map(|_| {
                let r = run_concurrent(&w, cfg.clone());
                assert_eq!(r.metrics.terminated(), 64);
                r.metrics.latency_percentile(0.5).expect("latencies")
            })
            .collect();
        println!("median latency of three runs: {medians:?} µs");
        let best = medians.iter().min().copied().expect("three runs");
        assert!(best < 40, "best median latency {best} µs, not under 40 µs");
    }

    /// The paper world (Figures 2, 4 and 9), deployed.
    fn paper_workload(failure_probability: f64) -> Workload {
        deployed(
            txproc_core::fixtures::paper_world().spec,
            failure_probability,
        )
    }

    /// `spec` deployed on one subsystem, each service on a key of its own.
    fn deployed(spec: txproc_core::spec::Spec, failure_probability: f64) -> Workload {
        let mut deployment = txproc_subsystem::deploy::Deployment::new();
        for process in spec.processes() {
            for (a, _) in process.iter() {
                let svc = process.service(a);
                let program = Program::set(Key(u64::from(svc.0)), 1);
                deployment.place(svc, SubsystemId(0), program);
            }
        }
        let config = WorkloadConfig {
            failure_probability,
            ..WorkloadConfig::default()
        };
        Workload {
            spec,
            deployment,
            config,
        }
    }

    /// A run context with no worker behind it: one shard, worker 0.
    fn scripted_ctx(w: &Workload, cfg: ConcurrentConfig) -> RunCtx<'_> {
        let clock = Clock::Wall(Instant::now());
        let durable = (fresh_agents(w), Coordinator::new());
        RunCtx::new(w, cfg.policy, Some(cfg.seed), false, clock, durable)
    }

    /// Steps `pid` until it stops yielding; returns the step that stopped it
    /// and how many yields came before.
    fn run_to_block<'a>(shard: &mut Shard<'a>, ctx: &RunCtx<'a>, pid: ProcessId) -> (Step, usize) {
        for yields in 0.. {
            match shard.step(ctx, pid) {
                Step::Yield => {}
                stop => return (stop, yields),
            }
        }
        unreachable!()
    }

    /// The next process of the run queue, a dirty shard's waiters re-queued
    /// first — never a deadlock break.
    fn next(shard: &mut Shard<'_>) -> Option<ProcessId> {
        shard.pop_runnable().map(|(pid, _)| pid)
    }

    #[test]
    fn scripted_interleaving_blocks_on_a_predecessor_and_wakes_at_its_finalize() {
        // P₁ = a1₁ᶜ ≪ a1₂ᵖ ≪ … with the alternative a1₂ ≪ a1₅ʳ ≪ a1₆ʳ;
        // P₂ = a2₁ᶜ ≪ a2₂ᶜ ≪ a2₃ᵖ ≪ …, a2₁ conflicting with a1₁. A worker
        // runs each process until it blocks, so it never produces the
        // interleaving stepped here by hand.
        let w = paper_workload(0.0);
        let cfg = ConcurrentConfig {
            policy: PolicyKind::PredWait,
            ..ConcurrentConfig::default()
        };
        let ctx = traced_ctx(&w, cfg);
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        let mut shard = Shard::build(0, &[p1, p2], &ctx);
        shard.admit(&ctx, p1);
        shard.admit(&ctx, p2);

        // P₁ executes a1₁ and is held mid-run; P₂ runs as far as it goes:
        // past its conflicting a2₁ (now P₁ → P₂), up to its pivot, which
        // Lemma 1.1 holds back until P₁ terminates.
        assert_eq!(next(&mut shard), Some(p1));
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!(next(&mut shard), Some(p2));
        assert_eq!(run_to_block(&mut shard, &ctx, p2), (Step::Wait, 2));
        assert_eq!(shard.metrics.waits, 1);
        assert!(shard.waiting.contains(&p2));

        // P₁ commits its pivot, is aborted from outside and recovers forward
        // over a1₅, a1₆. Every event marks the shard dirty, so P₂ is
        // re-polled — in vain, P₁ is still active — and the shard is clean
        // again.
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        shard.initiate_abort(&ctx, p1, AbortReason::External, None);
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!(shard.slots[p1].state.status(), ProcessStatus::Aborted);
        assert_eq!(next(&mut shard), Some(p2));
        assert_eq!(shard.step(&ctx, p2), Step::Wait);
        assert_eq!(shard.metrics.waits, 2);
        assert!(!shard.dirty);

        // P₁'s last step emits nothing: `finalize` takes its operations out
        // of the policy, and only its dirty mark tells the shard that a
        // waiter may now run.
        let events = shard.history.len();
        assert_eq!(shard.step(&ctx, p1), Step::Done);
        assert_eq!(shard.history.len(), events);
        assert!(shard.dirty, "finalize marks the shard dirty");
        assert_eq!(next(&mut shard), Some(p2), "woken by the mark, not a break");
        assert_eq!(run_to_block(&mut shard, &ctx, p2), (Step::Done, 3));

        assert_eq!((shard.metrics.committed, shard.metrics.aborted), (1, 1));
        assert_eq!(
            (shard.admitted, next(&mut shard), shard.break_deadlock(&ctx)),
            (0, None, false)
        );
        let mut done = shard.finish(&ctx);
        assert!(txproc_core::pred::is_pred(&w.spec, &done.history).unwrap());
        assert_eq!(
            abort_causes(journal(&mut done)),
            [(p1, AbortReason::External)]
        );
    }

    #[test]
    fn a_blocked_note_is_forgotten_at_each_clearing_decision() {
        // With tracing on, `note` journals a blocked state once while it
        // repeats. An admission, a release, an abort start and either
        // termination forget it: the same state blocked again after one of
        // them is a new decision, journalled again.
        let w = paper_workload(0.0);
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        let gid = GlobalActivityId::new(p1, ActivityId(0));
        let service = w.spec.service_of(gid).expect("paper activity");
        let blocked = || TraceEvent::RequestBlocked {
            gid,
            service,
            blockers: vec![p2],
        };
        let admitted = TraceEvent::RequestAdmitted {
            gid,
            service,
            deferred: false,
            blockers: Vec::new(),
            edges_added: Vec::new(),
        };
        let reason = AbortReason::External;
        let clearing = [
            admitted,
            TraceEvent::CommitReleased { gid },
            TraceEvent::AbortStarted { pid: p1, reason },
            TraceEvent::ProcessCommitted { pid: p1 },
            TraceEvent::ProcessAborted { pid: p1 },
        ];
        for between in clearing.into_iter().map(Some).chain([None]) {
            let ctx = traced_ctx(&w, ConcurrentConfig::default());
            let mut shard = Shard::build(0, &[p1, p2], &ctx);
            shard.note(&ctx, blocked());
            let expected = if between.is_some() { 2 } else { 1 };
            if let Some(e) = between.clone() {
                shard.note(&ctx, e);
            }
            shard.note(&ctx, blocked());
            let journalled = journal(&mut shard.finish(&ctx));
            let journalled = journalled.into_iter().filter(|r| r.event == blocked());
            assert_eq!(journalled.count(), expected, "{between:?}");
        }
    }

    /// P₁, P₂, … as chains of `processes` over `cat`, with `conflicts`
    /// declared, deployed.
    fn chains(
        cat: Catalog,
        conflicts: &[(ServiceId, ServiceId)],
        processes: &[&[ServiceId]],
        failure_probability: f64,
    ) -> Workload {
        use txproc_core::process::ProcessBuilder;
        let mut matrix = txproc_core::conflict::ConflictMatrix::new(&cat);
        for &(x, y) in conflicts {
            matrix.declare_conflict(&cat, x, y).unwrap();
        }
        let mut spec = txproc_core::spec::Spec::new(cat, matrix);
        for (id, services) in (1..).zip(processes) {
            let mut builder = ProcessBuilder::new(ProcessId(id), format!("P{id}"));
            let chain: Vec<ActivityId> = (services.iter())
                .map(|&s| builder.activity(format!("s{}", s.0), s))
                .collect();
            builder.chain(&chain);
            spec.add_process(builder.build(&spec.catalog).unwrap());
        }
        deployed(spec, failure_probability)
    }

    /// An Example-8-shaped pair: P₁ = aᶜ ≪ pᵖ ≪ rʳ and P₂ = bᶜ ≪ qᵖ ≪ tʳ,
    /// where b conflicts with a and with r.
    fn example8_workload(failure_probability: f64) -> Workload {
        let mut cat = Catalog::new();
        let (a, p, r) = (cat.compensatable("a").0, cat.pivot("p"), cat.retriable("r"));
        let (b, q, t) = (cat.compensatable("b").0, cat.pivot("q"), cat.retriable("t"));
        let processes: [&[ServiceId]; 2] = [&[a, p, r], &[b, q, t]];
        chains(cat, &[(a, b), (r, b)], &processes, failure_probability)
    }

    /// The journalled abort initiations: who, and for what first cause.
    fn abort_causes(journal: Vec<TraceRecord>) -> Vec<(ProcessId, AbortReason)> {
        let started = journal.into_iter().filter_map(|r| match r.event {
            TraceEvent::AbortStarted { pid, reason } => Some((pid, reason)),
            _ => None,
        });
        started.collect()
    }

    /// [`scripted_ctx`] whose shards journal their decisions.
    fn traced_ctx(w: &Workload, cfg: ConcurrentConfig) -> RunCtx<'_> {
        RunCtx {
            traced: true,
            ..scripted_ctx(w, cfg)
        }
    }

    /// The journal a finished shard delivers as a run's only shard.
    fn journal(done: &mut ShardDone) -> Vec<TraceRecord> {
        let mut journal = txproc_core::trace::Journal::new();
        deliver(&mut journal, std::slice::from_mut(done), None);
        journal.take()
    }

    #[test]
    fn an_all_compensatable_process_commits_only_after_its_predecessor() {
        // Lemma 1.1 under the uncertified protocol, where the commit gate is
        // the only guard: P₂ = bᶜ conflict-depends on P₁ = aᶜ ≪ cᶜ, still
        // active. P₂ has no non-compensatable activity to defer, so nothing
        // but `can_commit` holds its commit back.
        let mut cat = Catalog::new();
        let [a, c, b] = ["a", "c", "b"].map(|name| cat.compensatable(name).0);
        let processes: [&[ServiceId]; 2] = [&[a, c], &[b]];
        let w = chains(cat, &[(a, b)], &processes, 0.0);
        let cfg = ConcurrentConfig {
            policy: PolicyKind::PredProtocol,
            ..ConcurrentConfig::default()
        };
        let ctx = traced_ctx(&w, cfg);
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        let mut shard = Shard::build(0, &[p1, p2], &ctx);
        shard.admit(&ctx, p1);
        shard.admit(&ctx, p2);

        // P₁ executes a; P₂ executes b after it, then asks to commit.
        assert_eq!(next(&mut shard), Some(p1));
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!(next(&mut shard), Some(p2));
        assert_eq!(run_to_block(&mut shard, &ctx, p2), (Step::Wait, 1));
        assert_eq!(position(&shard, Event::Commit(p2)), None);

        // P₁ runs to its commit; its finalize wakes P₂, which commits.
        assert_eq!(run_to_block(&mut shard, &ctx, p1), (Step::Done, 1));
        assert_eq!(next(&mut shard), Some(p2));
        assert_eq!(shard.step(&ctx, p2), Step::Done);
        assert!(position(&shard, Event::Commit(p1)) < position(&shard, Event::Commit(p2)));
        assert_eq!(shard.metrics.committed, 2);
        let records = journal(&mut shard.finish(&ctx));
        let blocked = records.into_iter().filter_map(|r| match r.event {
            TraceEvent::CommitBlocked { pid, wait_for } => Some((pid, wait_for)),
            _ => None,
        });
        assert_eq!(blocked.collect::<Vec<_>>(), [(p2, vec![p1])]);
    }

    #[test]
    fn a_lone_process_skips_the_certifier_which_absorbs_its_events_later() {
        // One shard, lone → interleaved → lone → interleaved, under `pred`:
        // P₁ = aᶜ ≪ cᶜ, P₂ = bᶜ with b conflicting with a, P₃ = eᶜ ≪ fᶜ and
        // P₄ = gᶜ with g conflicting with e. An event of a process the
        // protocol says runs alone is admitted without the certifier; the
        // next certification feeds the certifier every event it skipped.
        let mut cat = Catalog::new();
        let [a, c, b, e, f, g] = ["a", "c", "b", "e", "f", "g"].map(|s| cat.compensatable(s).0);
        let processes: [&[ServiceId]; 4] = [&[a, c], &[b], &[e, f], &[g]];
        let w = chains(cat, &[(a, b), (e, g)], &processes, 0.0);
        let cfg = ConcurrentConfig::default();
        let mut ctx = traced_ctx(&w, cfg);
        ctx.tele = Telemetry::on();
        let calls = |ctx: &RunCtx<'_>| {
            let snap = ctx.tele.snapshot().expect("telemetry on");
            snap.phase(Phase::Certify).map_or(0, |p| p.count)
        };
        let [p1, p2, p3, p4] = [1, 2, 3, 4].map(ProcessId);
        let mut shard = Shard::build(0, &[p1, p2, p3, p4], &ctx);
        shard.admit(&ctx, p1);
        shard.admit(&ctx, p2);

        // P₁ executes a alone and is held mid-run; P₂'s b is the first
        // certifier call, which feeds it from event 0. P₂ waits for P₁'s
        // commit, P₁ runs to it, and P₂ commits: a quiescent point.
        assert_eq!(next(&mut shard), Some(p1));
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!(calls(&ctx), 0, "P₁ alone");
        assert_eq!(next(&mut shard), Some(p2));
        assert_eq!(run_to_block(&mut shard, &ctx, p2), (Step::Wait, 1));
        assert_eq!(calls(&ctx), 1, "P₂ interleaves");
        assert_eq!(run_to_block(&mut shard, &ctx, p1), (Step::Done, 1));
        assert_eq!(next(&mut shard), Some(p2));
        assert_eq!(shard.step(&ctx, p2), Step::Done);
        assert_eq!(calls(&ctx), 4);

        // P₃ executes e alone, after the certifier ran; P₄'s g feeds the
        // certifier P₂'s commit and P₃'s e first.
        shard.admit(&ctx, p3);
        shard.admit(&ctx, p4);
        assert_eq!(next(&mut shard), Some(p3));
        assert_eq!(shard.step(&ctx, p3), Step::Yield);
        assert_eq!(calls(&ctx), 4, "P₃ alone");
        assert_eq!(next(&mut shard), Some(p4));
        assert_eq!(run_to_block(&mut shard, &ctx, p4), (Step::Wait, 1));
        assert_eq!(calls(&ctx), 5, "P₄ interleaves");
        assert_eq!(run_to_block(&mut shard, &ctx, p3), (Step::Done, 1));
        assert_eq!(next(&mut shard), Some(p4));
        assert_eq!(shard.step(&ctx, p4), Step::Done);
        assert_eq!(calls(&ctx), 8);
        assert_eq!(shard.metrics.committed, 4);

        // Every journalled verdict, the two answered alone included, is the
        // verdict of a certifier fed every event from the first.
        let mut done = shard.finish(&ctx);
        let records = journal(&mut done);
        let events = done.history.events();
        let mut certifier = txproc_core::pred_incremental::IncrementalPred::new(&w.spec);
        let mut certified = 0;
        for rec in records {
            let TraceEvent::CertifyOutcome { event, ok, .. } = rec.event else {
                continue;
            };
            while certifier.len() < rec.history_len {
                certifier.record(&events[certifier.len()]).unwrap();
            }
            let verdict = certifier.certify_keep(&event).unwrap();
            assert_eq!(verdict.reducible, ok, "{event:?}");
            certified += 1;
        }
        assert_eq!(certified, 10);
        assert!(
            txproc_core::pred::check_pred(&w.spec, &done.history)
                .unwrap()
                .pred
        );
    }

    #[test]
    fn a_second_process_catches_the_protocol_up_on_the_lone_one() {
        // P₁ = aᶜ ≪ cᶜ executes a alone and yields after one step: the
        // protocol is told nothing. P₂ = bᶜ ≪ qᵖ, b conflicting with a, is
        // admitted and requests b; the step first folds a into the protocol,
        // which then orders P₂ after P₁ and defers q behind it. From then on
        // the protocol decides, P₁'s commit gate too, until P₂'s commit is
        // its next quiescent point. A protocol fed every event from the
        // first answers every journalled decision the same.
        let mut cat = Catalog::new();
        let [a, c, b] = ["a", "c", "b"].map(|name| cat.compensatable(name).0);
        let q = cat.pivot("q");
        let processes: [&[ServiceId]; 2] = [&[a, c], &[b, q]];
        let w = chains(cat, &[(a, b)], &processes, 0.0);
        let cfg = ConcurrentConfig::default();
        let ctx = traced_ctx(&w, cfg);
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        let told = |shard: &Shard<'_>| shard.policy.protocol().expect("PRED").records();
        let mut shard = Shard::build(0, &[p1, p2], &ctx);
        shard.admit(&ctx, p1);
        assert_eq!(next(&mut shard), Some(p1));
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!((shard.history.len(), told(&shard)), (1, 0));
        let rule = |shard: &Shard<'_>| (shard.lone, shard.untold);
        assert_eq!(rule(&shard), (Some(Some(p1)), Some(0)), "P₁ runs alone");

        shard.admit(&ctx, p2);
        assert_eq!(next(&mut shard), Some(p2));
        assert_eq!(run_to_block(&mut shard, &ctx, p2), (Step::Wait, 1));
        assert_eq!(told(&shard), 3, "a, b and the prepared q");
        assert_eq!(rule(&shard), (None, None), "the protocol decides");
        assert_eq!(run_to_block(&mut shard, &ctx, p1), (Step::Done, 1));
        assert_eq!(next(&mut shard), Some(p2));
        assert_eq!(shard.step(&ctx, p2), Step::Done);
        let quiescent = (Some(None), Some(shard.history.len()));
        assert_eq!((told(&shard), rule(&shard)), (0, quiescent));
        assert_eq!(
            (shard.metrics.committed, shard.metrics.deferred_commits),
            (2, 1)
        );

        let mut done = shard.finish(&ctx);
        let records = journal(&mut done);
        let admitted = records.iter().filter_map(|r| match &r.event {
            TraceEvent::RequestAdmitted {
                gid,
                deferred,
                blockers,
                edges_added,
                ..
            } if gid.process == p2 => Some((*deferred, blockers.clone(), edges_added.clone())),
            _ => None,
        });
        let expected = [(false, vec![], vec![(p1, p2)]), (true, vec![p1], vec![])];
        assert_eq!(admitted.collect::<Vec<_>>(), expected);
        let mut checked = crate::protocol_replay::Checked::new();
        let history = [done.history];
        let fed = crate::protocol_replay::replay::<Protocol<'_>>(
            &w.spec,
            &history,
            &records,
            "catch-up",
            &mut checked,
            |_, _| {},
        );
        assert_eq!(fed[0].retirements(), 1);
        let asked = |kind| checked.get(kind).copied().unwrap_or(0);
        assert_eq!(asked("request_admitted"), 4);
        assert_eq!(asked("process_committed"), 2);
        assert_eq!(asked("commit_released"), 1);
    }

    #[test]
    fn a_single_worker_run_tells_the_protocol_nothing() {
        // On inputs shaped like the benchmark's `closed_contended`, one
        // worker runs each process of a domain until it blocks, so every
        // process runs alone: each shard's protocol is told no event, holds
        // no record after any step and never retires. A protocol told every
        // event holds one record per execution until the process's
        // termination retires it.
        let (mut shards, mut executions, mut processes) = (0, 0, 0);
        for seed in 1..=16u64 {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 96,
                conflict_density: 0.3,
                failure_probability: 0.1,
                ..WorkloadConfig::default()
            });
            let cfg = ConcurrentConfig {
                seed,
                workers: Some(1),
                ..ConcurrentConfig::default()
            };
            let ctx = scripted_ctx(&w, cfg);
            let mut rt = RuntimeMetrics::new(1);
            let domains = DomainPartition::partition(&w.spec).into_domains();
            for (id, members) in (0..).zip(&domains) {
                let mut shard = Shard::build(id, members, &ctx);
                for (_, pid) in ctx.arrival_queue(members) {
                    shard.admit(&ctx, pid);
                }
                while shard.run(&ctx, &mut rt, 1, &mut Fifo) > 0 {
                    let protocol = shard.policy.protocol().expect("a PRED policy");
                    let held = (protocol.records(), protocol.retirements());
                    assert_eq!(held, (0, 0), "seed {seed}, shard {id}");
                }
                let events = shard.history.events().iter();
                executions += events.filter(|e| matches!(e, Event::Execute(_))).count();
                processes += members.len();
                shards += 1;
                drop(shard.finish(&ctx));
            }
        }
        println!(
            "single worker, closed_contended-shaped: {processes} processes in {shards} shards, \
             0 protocol records held and 0 retirements; told every event, the protocol \
             would have recorded {executions} executions"
        );
        assert!(executions > 5_000, "{executions} executions");
    }

    #[test]
    fn a_release_commits_its_parked_process_at_its_own_execute() {
        // Lemma 1.1 under `pred`: P₂ = pᵖ conflicts with a of P₁ = aᶜ ≪ cᶜ,
        // still active, so p is admitted deferred. Its prepare parks P₂, and
        // P₂'s first step after P₁'s commit is the release, whose `Execute`
        // is p's commit — in the history and in P₂'s state — and then P₂'s
        // own commit.
        let mut cat = Catalog::new();
        let [a, c] = ["a", "c"].map(|name| cat.compensatable(name).0);
        let p = cat.pivot("p");
        let processes: [&[ServiceId]; 2] = [&[a, c], &[p]];
        let w = chains(cat, &[(a, p)], &processes, 0.0);
        let cfg = ConcurrentConfig::default();
        let mut ctx = traced_ctx(&w, cfg);
        let wal = txproc_core::wal::MemWal::new();
        let policy = txproc_core::wal::DurabilityPolicy::Buffered;
        ctx.set_wal(WalWriter::new(Box::new(wal.clone()), policy, 0), 0);
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        let released = Event::Execute(GlobalActivityId::new(p2, ActivityId(0)));
        let mut shard = Shard::build(0, &[p1, p2], &ctx);
        shard.admit(&ctx, p1);
        shard.admit(&ctx, p2);

        // P₁ executes a; P₂'s prepare step ends in a wait, and the dirty
        // shard's drain does not re-queue the parked P₂.
        assert_eq!(next(&mut shard), Some(p1));
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!(next(&mut shard), Some(p2));
        assert_eq!(shard.step(&ctx, p2), Step::Wait);
        assert!(pending(&shard).contains_key(&p2));
        assert_eq!(next(&mut shard), None, "parked on its own release");
        assert!(shard.waiting.contains(&p2));
        // Stepped by hand while P₁ is active, P₂ waits and emits nothing.
        let before = shard.history.len();
        assert_eq!(shard.step(&ctx, p2), Step::Wait);
        assert_eq!(shard.history.len(), before);

        // P₁ runs to its commit, which releases nothing itself but opens
        // P₂'s gate: the drain re-queues P₂, and its one step is the
        // release and then its own commit.
        assert_eq!(run_to_block(&mut shard, &ctx, p1), (Step::Done, 1));
        assert_eq!(shard.history.events().last(), Some(&Event::Commit(p1)));
        assert!(pending(&shard).contains_key(&p2));
        assert_eq!(next(&mut shard), Some(p2));
        assert_eq!(shard.step(&ctx, p2), Step::Done);
        assert!(pending(&shard).is_empty());
        let executed = txproc_core::state::ExecStep::Executed(ActivityId(0));
        assert_eq!(shard.slots[p2].state.steps(), [executed]);
        assert_eq!(shard.metrics.committed, 2);
        let tail = [Event::Commit(p1), released.clone(), Event::Commit(p2)];
        assert_eq!(shard.history.events()[2..], tail);

        // The journal has the release's 2PC decision right before its event.
        let journalled = journal(&mut shard.finish(&ctx));
        drop(ctx.finish());
        let (records, _) = txproc_core::wal::read_records(&wal.contents());
        let decision = |r: &WalRecord| matches!(r, WalRecord::Decision { commit: true, .. });
        let d = records
            .iter()
            .position(decision)
            .expect("a commit decision");
        let WalRecord::Decision { group, .. } = records[d] else {
            unreachable!()
        };
        let committed = WalRecord::Event {
            event: Event::Commit(p1),
        };
        assert!(records[..d].contains(&committed));
        let applied = [
            WalRecord::DecisionApplied { group },
            WalRecord::Event { event: released },
        ];
        assert_eq!(records[d + 1..d + 3], applied);
        let ours = journalled.into_iter().map(|r| r.event);
        let ours = ours.filter(|e| e.pid() == Some(p2) && e.kind() != "certify_outcome");
        let kinds: Vec<&str> = ours.map(|e| e.kind()).collect();
        let expected = [
            "request_admitted",
            "commit_deferred",
            "commit_released",
            "process_committed",
        ];
        assert_eq!(kinds, expected);
    }

    #[test]
    fn a_wall_clock_deadlock_is_broken_at_once_by_aborting_the_smallest_waiter() {
        // Under pred-wait, P₁ = aᶜ ≪ pᵖ and P₂ = bᶜ ≪ qᵖ with p conflicting
        // with b and q with a. Stepped by hand to a and b, each pivot then
        // waits for the other process to terminate. The worker's loop finds
        // the shard clean with both waiting and breaks the deadlock once.
        let mut cat = Catalog::new();
        let (a, p) = (cat.compensatable("a").0, cat.pivot("p"));
        let (b, q) = (cat.compensatable("b").0, cat.pivot("q"));
        let processes: [&[ServiceId]; 2] = [&[a, p], &[b, q]];
        let w = chains(cat, &[(p, b), (q, a)], &processes, 0.0);
        let cfg = ConcurrentConfig {
            policy: PolicyKind::PredWait,
            ..ConcurrentConfig::default()
        };
        let ctx = traced_ctx(&w, cfg);
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        let mut shard = Shard::build(0, &[p1, p2], &ctx);
        shard.admit(&ctx, p1);
        shard.admit(&ctx, p2);
        // Both stay queued from their admission, for the loop to dequeue.
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!(shard.step(&ctx, p2), Step::Yield);

        let mut rt = RuntimeMetrics::new(1);
        assert_eq!(
            shard.run(&ctx, &mut rt, STEP_BUDGET, &mut Fifo),
            0,
            "the shard drains"
        );
        assert_eq!(rt.repolls, 1, "one break");
        assert_eq!((shard.metrics.committed, shard.metrics.aborted), (1, 1));
        assert!(position(&shard, Event::Abort(p1)).is_some());
        assert!(position(&shard, Event::Commit(p2)).is_some());
        let mut done = shard.finish(&ctx);
        assert!(txproc_core::pred::is_pred(&w.spec, &done.history).unwrap());
        assert_eq!(
            abort_causes(journal(&mut done)),
            [(p1, AbortReason::Deadlock)]
        );
    }

    /// Round robin: a process that yields goes to the back of the run
    /// queue, so the live processes of a shard take one step each in turn —
    /// interleavings neither the worker's run-to-block nor the engine's
    /// virtual time produces.
    struct RoundRobin;

    impl<'a> RunOrder<'a> for RoundRobin {
        fn after_yield(
            &mut self,
            _: &RunCtx<'a>,
            shard: &mut Shard<'a>,
            pid: ProcessId,
            _: usize,
        ) -> bool {
            shard.run_queue.push_back((pid, Instant::now()));
            false
        }
    }

    #[test]
    fn round_robin_histories_of_generated_inputs_are_pred_and_proc_rec() {
        use txproc_core::pred_incremental::check_pred_incremental;
        use txproc_core::recoverability::proc_rec_violations;
        let mut total = Metrics::new();
        for policy in [PolicyKind::Pred, PolicyKind::PredWait] {
            for (processes, density, failures) in [8, 32]
                .into_iter()
                .flat_map(|n| [0.4, 0.7].map(|d| (n, d)))
                .flat_map(|(n, d)| [0.15, 0.3].map(|f| (n, d, f)))
            {
                for seed in 0..12u64 {
                    let w = generate(&WorkloadConfig {
                        seed,
                        processes,
                        conflict_density: density,
                        failure_probability: failures,
                        ..WorkloadConfig::default()
                    });
                    let cfg = ConcurrentConfig {
                        policy,
                        seed,
                        ..ConcurrentConfig::default()
                    };
                    let ctx = scripted_ctx(&w, cfg);
                    let pids: Vec<ProcessId> = w.spec.processes().map(|p| p.id).collect();
                    let mut shard = Shard::build(0, &pids, &ctx);
                    pids.iter().for_each(|&pid| shard.admit(&ctx, pid));
                    let (mut rt, budget) = (RuntimeMetrics::new(1), livelock_budget(processes));
                    let label =
                        format!("{policy:?}, {processes} × {density} × {failures}, seed {seed}");
                    assert_eq!(
                        shard.run(&ctx, &mut rt, budget, &mut RoundRobin),
                        0,
                        "{label}"
                    );
                    let done = shard.finish(&ctx);
                    let report = check_pred_incremental(&w.spec, &done.history).expect("legal");
                    assert!(report.pred, "{label}: {:?}", report.first_violation);
                    let violations = proc_rec_violations(&w.spec, &done.history).expect("legal");
                    assert!(violations.is_empty(), "{label}: {violations:?}");
                    total.merge(&done.metrics);
                }
            }
        }
        let m = &total;
        let counts = (m.waits, m.deferred_commits, m.cascaded, m.cert_failures);
        println!("round robin: (waits, deferred commits, cascades, refusals) = {counts:?}");
        assert!(m.waits > 0 && m.deferred_commits > 0, "{counts:?}");
        assert!(m.cascaded > 0 && m.cert_failures > 0, "{counts:?}");
    }

    #[test]
    fn an_aborting_waiter_breaks_the_deadlock_by_group_aborting_its_blockers() {
        // The break's other branch: the smallest waiter is aborting already,
        // and its completion waits on the others. Of seeds 0..256 of this
        // engine shape, seed 81 alone reaches it.
        use crate::builder::RunBuilder;
        use crate::engine::RunConfig;
        let w = generate(&WorkloadConfig {
            seed: 81,
            processes: 6,
            conflict_density: 0.4,
            failure_probability: 0.15,
            ..WorkloadConfig::default()
        });
        let journal = txproc_core::trace::Journal::new();
        let cfg = RunConfig {
            seed: 81,
            ..RunConfig::default()
        };
        let out = RunBuilder::new(&w)
            .config(cfg)
            .sink(Box::new(journal.clone()))
            .run()
            .into_engine();
        assert!(out.stalled.is_empty());
        assert!(txproc_core::pred::is_pred(&w.spec, &out.history).unwrap());
        let mut aborting = BTreeSet::new();
        let mut breaks = Vec::new();
        for record in journal.take() {
            match record.event {
                TraceEvent::AbortStarted { pid, .. } => drop(aborting.insert(pid)),
                TraceEvent::GroupAbort {
                    initiator: Some(initiator),
                    victims,
                    ..
                } if aborting.contains(&initiator) => breaks.push((initiator, victims)),
                _ => {}
            }
        }
        assert_eq!(breaks.len(), 1, "{breaks:?}");
        let (initiator, victims) = &breaks[0];
        assert!(!victims.is_empty() && !victims.contains(initiator));
        assert!(victims.iter().all(|v| aborting.contains(v)));
    }

    #[test]
    fn a_break_group_aborts_only_admitted_processes() {
        // The aborting branch's group is drawn from the admitted processes:
        // a member that has not arrived blocks nobody and is left alone.
        let w = paper_workload(0.0);
        let ctx = scripted_ctx(&w, ConcurrentConfig::default());
        let [p1, p2, p3] = [1, 2, 3].map(ProcessId);
        let mut shard = Shard::build(0, &[p1, p2, p3], &ctx);
        shard.admit(&ctx, p1);
        shard.admit(&ctx, p2);
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        shard.initiate_abort(&ctx, p1, AbortReason::External, None);
        // Aborting P₁ is the one waiter left on a drained shard.
        shard.run_queue.clear();
        shard.waiting.insert(p1);
        assert!(shard.break_deadlock(&ctx));
        assert!(position(&shard, Event::Abort(p2)).is_some());
        assert_eq!(position(&shard, Event::Abort(p3)), None);
        assert_eq!(shard.run_queue.front().map(|&(p, _)| p), Some(p1));
    }

    fn position(shard: &Shard<'_>, event: Event) -> Option<usize> {
        shard.history.events().iter().position(|e| *e == event)
    }

    #[test]
    fn compensation_cascades_a_later_conflicting_operation_first() {
        // Lemma 2 / Example 8 under the uncertified protocol, where nothing
        // but the completion gate stands between P₁'s a⁻¹ and P₂'s live b.
        // P₁'s own failure starts its completion, so no `plan_abort` has
        // cascaded P₂: pick a seed under which a and b succeed and p fails.
        let w = example8_workload(0.5);
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        let [a, p] = [0, 1].map(|i| GlobalActivityId::new(p1, ActivityId(i)));
        let b = GlobalActivityId::new(p2, ActivityId(0));
        let seed = (0..1000)
            .find(|&s| {
                fail_coin(s, a, 1) >= 0.5 && fail_coin(s, b, 1) >= 0.5 && fail_coin(s, p, 1) < 0.5
            })
            .expect("some seed draws succeed / succeed / fail");
        let cfg = ConcurrentConfig {
            policy: PolicyKind::PredProtocol,
            seed,
            ..ConcurrentConfig::default()
        };
        let ctx = scripted_ctx(&w, cfg);
        let mut shard = Shard::build(0, &[p1, p2], &ctx);
        shard.admit(&ctx, p1);
        shard.admit(&ctx, p2);

        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!(shard.step(&ctx, p2), Step::Yield);
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        let so_far = [Event::Execute(a), Event::Execute(b), Event::Fail(p)];
        assert_eq!(shard.history.events(), so_far);
        assert!(shard.slots[p1].state.abort_in_progress());

        // b was executed after a and conflicts with it: P₂ cascades, and a⁻¹
        // waits until b⁻¹ is in the history.
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!(shard.history.events().last(), Some(&Event::Abort(p2)));
        assert_eq!(shard.metrics.cascaded, 1);
        assert_eq!(shard.step(&ctx, p1), Step::Wait);
        assert_eq!(position(&shard, Event::Compensate(a)), None);
        assert_eq!(shard.step(&ctx, p2), Step::Yield);
        assert_eq!(shard.history.events().last(), Some(&Event::Compensate(b)));
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!(shard.history.events().last(), Some(&Event::Compensate(a)));
    }

    #[test]
    fn forward_recovery_waits_for_a_conflicting_live_compensation() {
        // Lemma 3: P₁, aborted past its pivot, recovers forward over r; P₂
        // is aborting too and has yet to compensate b, which conflicts with
        // r. b⁻¹ comes first.
        let w = example8_workload(0.0);
        let cfg = ConcurrentConfig {
            policy: PolicyKind::PredProtocol,
            ..ConcurrentConfig::default()
        };
        let ctx = scripted_ctx(&w, cfg);
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        let r = GlobalActivityId::new(p1, ActivityId(2));
        let b = GlobalActivityId::new(p2, ActivityId(0));
        let mut shard = Shard::build(0, &[p1, p2], &ctx);
        shard.admit(&ctx, p1);
        shard.admit(&ctx, p2);

        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!(shard.step(&ctx, p2), Step::Yield);
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!(shard.history.len(), 3, "a, b and the pivot p");
        shard.initiate_abort(&ctx, p2, AbortReason::External, None);
        shard.initiate_abort(&ctx, p1, AbortReason::External, None);

        assert_eq!(shard.step(&ctx, p1), Step::Wait);
        assert_eq!(position(&shard, Event::Execute(r)), None);
        assert_eq!(shard.step(&ctx, p2), Step::Yield);
        assert_eq!(shard.history.events().last(), Some(&Event::Compensate(b)));
        assert_eq!(shard.step(&ctx, p1), Step::Yield);
        assert_eq!(shard.history.events().last(), Some(&Event::Execute(r)));
    }

    #[test]
    fn injected_retry_runs_at_the_agent_and_leaves_no_event() {
        // P₃ = a3₁ᶜ ≪ a3₂ʳ. The failure coin is a pure function of (seed,
        // activity, attempt): pick a seed under which a3₁ succeeds and a3₂
        // fails once, then succeeds.
        let w = paper_workload(0.5);
        let p3 = ProcessId(3);
        let (a31, a32) = (ActivityId(0), ActivityId(1));
        let coin = |seed, a, attempt| fail_coin(seed, GlobalActivityId::new(p3, a), attempt);
        let seed = (0..1000)
            .find(|&s| coin(s, a31, 1) >= 0.5 && coin(s, a32, 1) < 0.5 && coin(s, a32, 2) >= 0.5)
            .expect("some seed draws succeed / fail / succeed");
        let ctx = scripted_ctx(
            &w,
            ConcurrentConfig {
                seed,
                ..ConcurrentConfig::default()
            },
        );
        let mut shard = Shard::build(0, &[p3], &ctx);
        shard.admit(&ctx, p3);
        // Transaction ids are dense: the next id is the number begun.
        let begun = || {
            let agent = ctx.agents[&SubsystemId(0)].lock();
            let status = |t| agent.subsystem.tx_status(TxId(t));
            (0..).take_while(|&t| status(t).is_some()).count() as u64
        };

        assert_eq!(shard.step(&ctx, p3), Step::Yield);
        assert_eq!((shard.history.len(), shard.metrics.retries), (1, 0));
        // The injected attempt: counted, run and rolled back at the agent
        // within the step, invisible to history and policy.
        let before = begun();
        assert_eq!(shard.step(&ctx, p3), Step::Yield);
        assert_eq!((shard.history.len(), shard.metrics.retries), (1, 1));
        let after = begun();
        assert!(after > before, "the agent ran the injected attempt");
        let agent = ctx.agents[&SubsystemId(0)].lock();
        let status = agent.subsystem.tx_status(TxId(after - 1));
        assert_eq!(status, Some(TxStatus::Aborted));
        drop(agent);
        assert_eq!(run_to_block(&mut shard, &ctx, p3), (Step::Done, 1));
        assert_eq!((shard.metrics.committed, shard.metrics.activities), (1, 2));
    }

    #[test]
    fn crash_storm_is_windowed_on_the_virtual_clock_and_whole_run_on_the_wall_clock() {
        let mut w = paper_workload(0.1);
        w.config.storm = Some(txproc_sim::workload::CrashStorm {
            subsystems: 1,
            window: (10, 20),
            failure_probability: 0.9,
        });
        let mut ctx = scripted_ctx(&w, ConcurrentConfig::default());
        // Wall time has no ticks to find the window in.
        assert_eq!(p_fail(&ctx, SubsystemId(0)), 0.9);
        assert_eq!(p_fail(&ctx, SubsystemId(1)), 0.1, "not a storm subsystem");
        for (now, p) in [(0, 0.1), (9, 0.1), (10, 0.9), (19, 0.9), (20, 0.1)] {
            ctx.clock = Clock::Virtual(now.into());
            assert_eq!(p_fail(&ctx, SubsystemId(0)), p, "tick {now}");
            assert_eq!(p_fail(&ctx, SubsystemId(1)), 0.1, "tick {now}");
        }
    }

    /// What a crash must hand back to the scheduler it restores, over the
    /// processes its image names: their states and the protocol's statuses,
    /// and — for those it left live, the only ones a later step can gate,
    /// block or abort — the protocol's edges among them, their pending
    /// releases and their invocations. An aborted process's status is left
    /// out: the step that finalizes it emits nothing, so no image says
    /// whether it ran; the restore runs it.
    fn durable_view(shard: &Shard<'_>, named: &BTreeSet<ProcessId>) -> String {
        let protocol = shard.policy.protocol().expect("a PRED policy");
        let live = |p: &ProcessId| named.contains(p) && shard.slots[*p].state.is_active();
        let states = named.iter().map(|&p| {
            let st = &shard.slots[p].state;
            let status = (st.status() != ProcessStatus::Aborted).then(|| protocol.status(p));
            let machine = (st.steps(), st.abort_in_progress(), st.completion());
            format!("{p} {:?} {status:?} {machine:?}", st.status())
        });
        let states: Vec<String> = states.collect();
        let edges: Vec<_> = protocol
            .edges()
            .filter(|(a, b)| live(a) && live(b))
            .collect();
        let activities = (shard.states().filter(|(p, _)| live(p))).flat_map(|(p, st)| {
            (0..st.process().len() as u32).map(move |a| GlobalActivityId::new(p, ActivityId(a)))
        });
        let invocations = activities.filter_map(|g| Some((g, shard.invocation(g)?)));
        let invocations: Vec<_> = invocations.collect();
        let pending = pending(shard);
        format!("{states:?} {edges:?} {pending:?} {invocations:?}")
    }

    /// The prepared activities awaiting release, by process.
    fn pending(shard: &Shard<'_>) -> BTreeMap<ProcessId, GlobalActivityId> {
        let pending = shard
            .slots
            .iter()
            .filter_map(|(p, s)| Some((p, s.pending?)));
        pending.collect()
    }

    /// A process state's fields, without the process and catalog it reads.
    fn machine(state: &ProcessState<'_>) -> String {
        let debug = format!("{state:?}");
        debug
            .split_once(" status: ")
            .map_or(debug.clone(), |(_, m)| m.into())
    }

    /// Crashes the engine after every tick of `seeds` × two shapes — every
    /// history length, and every prepare between two events — and checks
    /// that the shard's states are its history replayed and that the
    /// restored shard is the crashed one.
    fn restore_inverts_crash(seeds: std::ops::Range<u64>) {
        use crate::engine::{Engine, RunConfig};
        for seed in seeds {
            for (processes, conflict_density) in [(6, 0.4), (10, 0.7)] {
                let w = generate(&WorkloadConfig {
                    seed,
                    processes,
                    conflict_density,
                    failure_probability: 0.15,
                    ..WorkloadConfig::default()
                });
                let cfg = RunConfig {
                    seed,
                    ..RunConfig::default()
                };
                let mut full = Engine::new(&w, cfg.clone());
                let ticks = std::iter::from_fn(|| full.tick().then_some(())).count();
                for at in 0..=ticks {
                    let mut engine = Engine::new(&w, cfg.clone());
                    for _ in 0..at {
                        engine.tick();
                    }
                    let shard = &engine.shard;
                    let label = format!("seed {seed}, {processes} processes, tick {at}");
                    // Each event made its move in the step that emitted it,
                    // so the states are the history's replayed.
                    let replayed = shard.history.replay(&w.spec).expect("replays");
                    for (pid, state) in &replayed.states {
                        assert_eq!(
                            machine(&shard.slots[*pid].state),
                            machine(state),
                            "{label}: {pid}"
                        );
                    }
                    let events = shard.history.events().iter();
                    let pids = events.flat_map(|e| e.processes().iter().copied());
                    let logged = shard.invocation_log.iter().map(|e| e.gid.process);
                    let named: BTreeSet<ProcessId> = pids.chain(logged).collect();
                    let crashed = durable_view(shard, &named);
                    let image = engine.crash();
                    let (_, restored) = Shard::restore(&w, image, false).expect("restores");
                    assert_eq!(durable_view(&restored, &named), crashed, "{label}");
                }
            }
        }
    }

    #[test]
    fn restore_is_the_inverse_of_crash() {
        restore_inverts_crash(0..16);
    }

    /// The same at 96 seeds. Run with `cargo test --release -p
    /// txproc-engine --lib -- --ignored`.
    #[test]
    #[ignore = "nightly: 96-seed restore sweep"]
    fn restore_is_the_inverse_of_crash_over_96_seeds() {
        restore_inverts_crash(0..96);
    }

    #[test]
    fn shard_mode_parses_auto_and_single_only() {
        assert_eq!(ShardMode::parse("auto"), Some(ShardMode::Auto));
        assert_eq!(ShardMode::parse("single"), Some(ShardMode::Single));
        for bad in ["bogus", "0", "1", "4"] {
            assert_eq!(ShardMode::parse(bad), None, "{bad}");
        }
    }
}
