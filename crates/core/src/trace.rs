//! Structured decision tracing for the scheduler.
//!
//! The paper's protocol (Lemmas 1–3) is defined by *decisions* — admit,
//! block, reject, defer a commit, group-abort — but a terminal history only
//! records their *effects*. This module defines a typed event journal of the
//! decisions themselves, with enough causal metadata (process, activity,
//! service, virtual time, history index) to answer "why was this operation
//! blocked?" and "why was this process aborted?" after the fact.
//!
//! Drivers emit [`TraceRecord`]s through a [`TraceSink`]. The scheduler step
//! builds every decision as a [`TraceEvent`] whatever the sink — the same
//! value is what its counters fold — and delivers it only when
//! [`TraceSink::enabled`]: under the default [`NoopSink`] no record is
//! stamped, buffered or locked for. [`Journal`] (shared in-memory vector) is
//! provided for collection; [`to_jsonl`] writes a collected journal out.
//!
//! On top of the raw journal sit three pure exporters: a pretty-printer
//! (`Display` on [`TraceRecord`]), a Chrome-trace JSON exporter
//! ([`chrome_trace`]) with one lane per process (plus shard and worker lane
//! groups for records stamped by the sharded runtimes) and explicit blocked
//! spans, and an explainer ([`explain_process`]) that walks the event chain
//! backwards from a process's fate to the decisions that produced it.
//!
//! For long runs a sink can be wrapped in a [`SampleSink`], which keeps the
//! records of 1-in-N processes (selected by pid, so a kept process's record
//! chain stays complete) and drops the rest.

use crate::ids::{GlobalActivityId, ProcessId, ServiceId};
use crate::schedule::Event;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Why an abort was initiated — the first cause, not the mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AbortReason {
    /// Admission was rejected: executing the operation would have closed a
    /// cycle in the serialization order (Lemma 1.2).
    Rejected,
    /// The process was a victim of another process's abort (Lemma 3 /
    /// Definition 8.2b group abort).
    Cascade,
    /// A non-retriable activity failed definitively with no remaining
    /// alternative execution path.
    Failure,
    /// The deadlock breaker picked this process as the youngest victim of a
    /// wait cycle.
    Deadlock,
    /// Abort requested from outside the scheduler (crash recovery of an
    /// in-flight process, operator action).
    External,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::Rejected => "admission rejected (cycle)",
            AbortReason::Cascade => "cascaded from another abort",
            AbortReason::Failure => "definitive activity failure",
            AbortReason::Deadlock => "deadlock victim",
            AbortReason::External => "external request",
        };
        f.write_str(s)
    }
}

/// One scheduler decision, with its immediate evidence.
///
/// Variants carry the data the decision was *based on*: blocking operations'
/// owners for waits, the cycle witness for rejections, the victim set in
/// reverse-dependency topological order for group aborts, the certifier
/// verdict and frontier size for certification outcomes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The request was admitted and the activity executed (Lemma 1.1 /
    /// Lemma 2 deferred mode). `edges_added` lists serialization-order edges
    /// `p → q` newly inserted by this execution. A predecessor the protocol
    /// retired at a quiescent point (it terminated before this process's
    /// first record) is not listed, so a `--pid` filter of the journal does
    /// not match such a predecessor here.
    RequestAdmitted {
        /// The executed activity.
        gid: GlobalActivityId,
        /// Service invoked.
        service: ServiceId,
        /// `true` when admitted in prepare-and-defer mode (Lemma 2).
        deferred: bool,
        /// Processes whose live conflicting operations precede this one.
        blockers: Vec<ProcessId>,
        /// Serialization edges `(predecessor, this process)` added, among
        /// the processes the protocol still holds.
        edges_added: Vec<(ProcessId, ProcessId)>,
    },
    /// The request must wait (Lemma 1.1 with a non-compensatable follower,
    /// or the owner of a conflicting operation is aborting).
    RequestBlocked {
        /// The blocked activity.
        gid: GlobalActivityId,
        /// Service requested.
        service: ServiceId,
        /// Owners of the blocking operations.
        blockers: Vec<ProcessId>,
    },
    /// The request was rejected: execution would close a serialization cycle
    /// (Lemma 1.2). The process is aborted.
    RequestRejected {
        /// The rejected activity.
        gid: GlobalActivityId,
        /// Service requested.
        service: ServiceId,
        /// Cycle witness: a process already ordered after the requester.
        conflicting: ProcessId,
    },
    /// A forward activity failed definitively at its subsystem.
    ActivityFailed {
        /// The failed activity.
        gid: GlobalActivityId,
        /// Service invoked.
        service: ServiceId,
    },
    /// The activity prepared at its subsystem but its commit is deferred
    /// until the listed predecessor processes terminate (Lemma 2).
    CommitDeferred {
        /// The prepared activity.
        gid: GlobalActivityId,
        /// Processes whose termination gates the release.
        blockers: Vec<ProcessId>,
    },
    /// A previously deferred activity's commit was released (2PC decided).
    CommitReleased {
        /// The released activity.
        gid: GlobalActivityId,
    },
    /// A compensating activity was issued for an executed activity.
    CompensationStarted {
        /// The activity being compensated.
        gid: GlobalActivityId,
        /// Service whose compensation runs.
        service: ServiceId,
    },
    /// A completion step (compensation or forward completion) is gated on
    /// other processes' completion activities (Lemma 3 ordering).
    CompletionBlocked {
        /// The process whose completion is gated.
        pid: ProcessId,
        /// Processes whose completion activities must run first.
        wait_for: Vec<ProcessId>,
    },
    /// The process finished its path but must wait to commit until the
    /// processes it depends on have terminated (Definition 11.1 / Lemma 2).
    CommitBlocked {
        /// The process trying to commit.
        pid: ProcessId,
        /// Active predecessors in the serialization order.
        wait_for: Vec<ProcessId>,
    },
    /// Verdict of the PRED certifier on one candidate event.
    CertifyOutcome {
        /// The candidate history event.
        event: Event,
        /// Whether the extended prefix stays prefix-reducible.
        ok: bool,
        /// Size of the certified frontier (events covered by the verdict).
        frontier: usize,
    },
    /// An abort of `pid` began, for the stated first cause.
    AbortStarted {
        /// The aborting process.
        pid: ProcessId,
        /// First cause of the abort.
        reason: AbortReason,
    },
    /// A set-oriented abort (Definition 8.2b): `victims` in
    /// reverse-dependency topological order, aborted together with (and
    /// before) the initiator.
    GroupAbort {
        /// Process whose abort triggered the group (`None` during crash
        /// recovery, where the scheduler itself is the initiator).
        initiator: Option<ProcessId>,
        /// Victims in the order their aborts are issued.
        victims: Vec<ProcessId>,
        /// The operation whose rejection/failure triggered the abort.
        trigger: Option<GlobalActivityId>,
    },
    /// The process committed.
    ProcessCommitted {
        /// The committed process.
        pid: ProcessId,
    },
    /// The process finished aborting (all completion activities done).
    ProcessAborted {
        /// The aborted process.
        pid: ProcessId,
    },
}

impl TraceEvent {
    /// Short stable label of the variant, for filtering and lane names.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RequestAdmitted { .. } => "request_admitted",
            TraceEvent::RequestBlocked { .. } => "request_blocked",
            TraceEvent::RequestRejected { .. } => "request_rejected",
            TraceEvent::ActivityFailed { .. } => "activity_failed",
            TraceEvent::CommitDeferred { .. } => "commit_deferred",
            TraceEvent::CommitReleased { .. } => "commit_released",
            TraceEvent::CompensationStarted { .. } => "compensation_started",
            TraceEvent::CompletionBlocked { .. } => "completion_blocked",
            TraceEvent::CommitBlocked { .. } => "commit_blocked",
            TraceEvent::CertifyOutcome { .. } => "certify_outcome",
            TraceEvent::AbortStarted { .. } => "abort_started",
            TraceEvent::GroupAbort { .. } => "group_abort",
            TraceEvent::ProcessCommitted { .. } => "process_committed",
            TraceEvent::ProcessAborted { .. } => "process_aborted",
        }
    }

    /// The process this decision is *about* (the acting process), when any.
    pub fn pid(&self) -> Option<ProcessId> {
        match self {
            TraceEvent::RequestAdmitted { gid, .. }
            | TraceEvent::RequestBlocked { gid, .. }
            | TraceEvent::RequestRejected { gid, .. }
            | TraceEvent::ActivityFailed { gid, .. }
            | TraceEvent::CommitDeferred { gid, .. }
            | TraceEvent::CommitReleased { gid, .. }
            | TraceEvent::CompensationStarted { gid, .. } => Some(gid.process),
            TraceEvent::CompletionBlocked { pid, .. }
            | TraceEvent::CommitBlocked { pid, .. }
            | TraceEvent::AbortStarted { pid, .. }
            | TraceEvent::ProcessCommitted { pid }
            | TraceEvent::ProcessAborted { pid } => Some(*pid),
            TraceEvent::GroupAbort { initiator, .. } => *initiator,
            TraceEvent::CertifyOutcome { event, .. } => match event {
                Event::Execute(g) | Event::Fail(g) | Event::Compensate(g) => Some(g.process),
                Event::Commit(p) | Event::Abort(p) => Some(*p),
                Event::GroupAbort(ps) => ps.first().copied(),
            },
        }
    }

    /// Whether the record mentions `pid` at all (actor, blocker, victim, …).
    pub fn mentions(&self, pid: ProcessId) -> bool {
        if self.pid() == Some(pid) {
            return true;
        }
        match self {
            TraceEvent::RequestAdmitted {
                blockers,
                edges_added,
                ..
            } => blockers.contains(&pid) || edges_added.iter().any(|&(a, b)| a == pid || b == pid),
            TraceEvent::RequestBlocked { blockers, .. }
            | TraceEvent::CommitDeferred { blockers, .. } => blockers.contains(&pid),
            TraceEvent::RequestRejected { conflicting, .. } => *conflicting == pid,
            TraceEvent::CompletionBlocked { wait_for, .. }
            | TraceEvent::CommitBlocked { wait_for, .. } => wait_for.contains(&pid),
            TraceEvent::GroupAbort {
                initiator, victims, ..
            } => *initiator == Some(pid) || victims.contains(&pid),
            TraceEvent::CertifyOutcome { event, .. } => match event {
                Event::Execute(g) | Event::Fail(g) | Event::Compensate(g) => g.process == pid,
                Event::Commit(p) | Event::Abort(p) => *p == pid,
                Event::GroupAbort(ps) => ps.contains(&pid),
            },
            _ => false,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn pids(ps: &[ProcessId]) -> String {
            let strs: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
            strs.join(",")
        }
        match self {
            TraceEvent::RequestAdmitted {
                gid,
                service,
                deferred,
                blockers,
                edges_added,
            } => {
                write!(
                    f,
                    "admitted {gid} ({service}{})",
                    if *deferred { ", deferred" } else { "" }
                )?;
                if !blockers.is_empty() {
                    write!(f, " after [{}]", pids(blockers))?;
                }
                if !edges_added.is_empty() {
                    let es: Vec<String> = edges_added
                        .iter()
                        .map(|(a, b)| format!("{a}→{b}"))
                        .collect();
                    write!(f, " edges {{{}}}", es.join(","))?;
                }
                Ok(())
            }
            TraceEvent::RequestBlocked {
                gid,
                service,
                blockers,
            } => write!(f, "blocked {gid} ({service}) on [{}]", pids(blockers)),
            TraceEvent::RequestRejected {
                gid,
                service,
                conflicting,
            } => write!(f, "rejected {gid} ({service}): cycle witness {conflicting}"),
            TraceEvent::ActivityFailed { gid, service } => {
                write!(f, "failed {gid} ({service})")
            }
            TraceEvent::CommitDeferred { gid, blockers } => {
                write!(f, "commit of {gid} deferred behind [{}]", pids(blockers))
            }
            TraceEvent::CommitReleased { gid } => write!(f, "commit of {gid} released"),
            TraceEvent::CompensationStarted { gid, service } => {
                write!(f, "compensating {gid} ({service})")
            }
            TraceEvent::CompletionBlocked { pid, wait_for } => {
                write!(f, "completion of {pid} gated on [{}]", pids(wait_for))
            }
            TraceEvent::CommitBlocked { pid, wait_for } => {
                write!(f, "commit of {pid} waiting on [{}]", pids(wait_for))
            }
            TraceEvent::CertifyOutcome {
                event,
                ok,
                frontier,
            } => write!(
                f,
                "certify {event}: {} (frontier {frontier})",
                if *ok { "ok" } else { "NOT PRED" }
            ),
            TraceEvent::AbortStarted { pid, reason } => {
                write!(f, "abort of {pid} started: {reason}")
            }
            TraceEvent::GroupAbort {
                initiator,
                victims,
                trigger,
            } => {
                write!(f, "group abort [{}]", pids(victims))?;
                match initiator {
                    Some(p) => write!(f, " for initiator {p}")?,
                    None => write!(f, " by recovery")?,
                }
                if let Some(g) = trigger {
                    write!(f, " (trigger {g})")?;
                }
                Ok(())
            }
            TraceEvent::ProcessCommitted { pid } => write!(f, "{pid} committed"),
            TraceEvent::ProcessAborted { pid } => write!(f, "{pid} aborted"),
        }
    }
}

/// One journal entry: a [`TraceEvent`] stamped with its causal position.
///
/// `seq` is the emission order within the run, `time` the driver's virtual
/// time (the engine's simulated clock; drivers without a clock stamp logical
/// time), and `history_len` the length of the schedule history at emission —
/// i.e. the history prefix the decision was taken against.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Emission sequence number (dense, 0-based).
    pub seq: u64,
    /// Virtual time of the decision.
    pub time: u64,
    /// History length when the decision was taken. In sharded drivers this
    /// is the *shard-local* history prefix the decision was certified
    /// against (the global merged history interleaves shard segments).
    pub history_len: usize,
    /// Conflict-domain shard that served the decision (`None` for
    /// single-state drivers such as the virtual-time engine).
    pub shard: Option<u32>,
    /// Worker that stepped the process (event-driven concurrent runtime
    /// only; `None` elsewhere). Additive in trace schema v5 — absent in
    /// v4 JSONL and defaulted on read.
    #[serde(default)]
    pub worker: Option<u32>,
    /// The decision.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shard {
            Some(s) => write!(
                f,
                "[{:>5}] t={:<6} h={:<4} s{:<3} {}",
                self.seq, self.time, self.history_len, s, self.event
            ),
            None => write!(
                f,
                "[{:>5}] t={:<6} h={:<4} {}",
                self.seq, self.time, self.history_len, self.event
            ),
        }
    }
}

/// Receiver of trace records.
///
/// Contract: `record` is called at most once per decision, in decision order
/// per driver. The caller builds each decision regardless and consults
/// [`TraceSink::enabled`] (once per run) before delivering it: a disabled
/// sink is never called, and no record is stamped or buffered for it. Sinks
/// must be `Send` so the concurrent driver can share them behind its global
/// lock.
pub trait TraceSink: Send {
    /// Whether records should be built and delivered at all.
    fn enabled(&self) -> bool {
        true
    }
    /// Deliver one record.
    fn record(&mut self, rec: TraceRecord);
}

/// The default sink: disabled, discards everything, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _rec: TraceRecord) {}
}

/// A shared, growable in-memory journal. Cloning yields another handle onto
/// the same buffer, so a caller can keep one handle while the driver owns the
/// other — the usual way to read a trace back after a run.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    inner: Arc<Mutex<Vec<TraceRecord>>>,
}

impl Journal {
    /// New empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// A panicking traced run must not poison the journal for the reader:
    /// records are appended atomically (one `Vec::push` under the lock), so
    /// the buffer is consistent at every panic point — recover the guard.
    fn guard(&self) -> std::sync::MutexGuard<'_, Vec<TraceRecord>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Copy of all records so far.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.guard().clone()
    }

    /// Drain all records, leaving the journal empty.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.guard())
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.guard().len()
    }

    /// Whether no records were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for Journal {
    fn record(&mut self, rec: TraceRecord) {
        self.guard().push(rec);
    }
}

/// A sampling wrapper around any sink: keeps the records of 1-in-N
/// processes (those with `pid % n == 0`) plus every record that names no
/// process (group aborts initiated by recovery). Selecting by pid rather
/// than by record keeps a sampled process's decision chain complete, so
/// `explain_process` still works on the sampled journal.
pub struct SampleSink<S> {
    inner: S,
    n: u32,
    dropped: u64,
}

impl<S: TraceSink> SampleSink<S> {
    /// Keep 1-in-`n` processes' records (`n` ≥ 1; `n == 1` keeps all).
    pub fn new(inner: S, n: u32) -> Self {
        Self {
            inner,
            n: n.max(1),
            dropped: 0,
        }
    }

    /// Number of records dropped by sampling.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Unwrap the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for SampleSink<S> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, rec: TraceRecord) {
        match rec.event.pid() {
            Some(pid) if pid.0 % self.n != 0 => self.dropped += 1,
            _ => self.inner.record(rec),
        }
    }
}

/// Serialize a journal to JSON-lines (one record per line).
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        if let Ok(line) = serde_json::to_string(rec) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Parse a JSON-lines journal back into records (blank lines skipped).
pub fn from_jsonl(s: &str) -> Result<Vec<TraceRecord>, serde_json::Error> {
    s.lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

fn map(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Export a journal as Chrome-trace JSON (the `chrome://tracing` /
/// [Perfetto] "traceEvents" array format).
///
/// Each process gets its own lane (`tid`) in the "processes" group
/// (`pid:1`); every decision is an instant event, and every blocked
/// interval — from a `RequestBlocked` to the next decision the same process
/// makes — becomes a complete (`ph:"X"`) span so wait time is visible at a
/// glance. Records stamped by the sharded runtimes additionally appear in a
/// "shards" group (`pid:2`, one lane per conflict-domain shard) and — for
/// the event-driven runtime — a "workers" group (`pid:3`, one lane per
/// worker), so per-shard contention and per-worker load are visible
/// side-by-side with the per-process view. Timestamps are the journal's
/// virtual times, interpreted as microseconds.
///
/// [Perfetto]: https://ui.perfetto.dev
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    const PROCESS_GROUP: u64 = 1;
    const SHARD_GROUP: u64 = 2;
    const WORKER_GROUP: u64 = 3;
    let mut events: Vec<Value> = Vec::new();
    let mut shards: Vec<u32> = Vec::new();
    let mut workers: Vec<u32> = Vec::new();
    for rec in records {
        let Some(pid) = rec.event.pid() else { continue };
        // Mirror the decision into the shard / worker lane groups.
        for (group, lane, lanes) in [
            (SHARD_GROUP, rec.shard, &mut shards),
            (WORKER_GROUP, rec.worker, &mut workers),
        ] {
            let Some(lane) = lane else { continue };
            lanes.push(lane);
            events.push(map(vec![
                ("name", Value::Str(rec.event.kind().to_string())),
                ("ph", Value::Str("i".into())),
                ("s", Value::Str("t".into())),
                ("ts", Value::U64(rec.time)),
                ("pid", Value::U64(group)),
                ("tid", Value::U64(lane as u64)),
                (
                    "args",
                    map(vec![
                        ("seq", Value::U64(rec.seq)),
                        ("process", Value::U64(pid.0 as u64)),
                        ("detail", Value::Str(rec.event.to_string())),
                    ]),
                ),
            ]));
        }
        events.push(map(vec![
            ("name", Value::Str(rec.event.kind().to_string())),
            ("ph", Value::Str("i".into())),
            ("s", Value::Str("t".into())),
            ("ts", Value::U64(rec.time)),
            ("pid", Value::U64(PROCESS_GROUP)),
            ("tid", Value::U64(pid.0 as u64)),
            (
                "args",
                map(vec![
                    ("seq", Value::U64(rec.seq)),
                    ("history_len", Value::U64(rec.history_len as u64)),
                    ("detail", Value::Str(rec.event.to_string())),
                ]),
            ),
        ]));
        // Blocked span: closes at the same process's next decision.
        if let TraceEvent::RequestBlocked { gid, blockers, .. } = &rec.event {
            let end = records
                .iter()
                .filter(|r| r.seq > rec.seq && r.event.pid() == Some(pid))
                .map(|r| r.time)
                .next()
                .unwrap_or(rec.time);
            events.push(map(vec![
                ("name", Value::Str(format!("blocked {gid}"))),
                ("ph", Value::Str("X".into())),
                ("ts", Value::U64(rec.time)),
                ("dur", Value::U64(end.saturating_sub(rec.time).max(1))),
                ("pid", Value::U64(PROCESS_GROUP)),
                ("tid", Value::U64(pid.0 as u64)),
                (
                    "args",
                    map(vec![(
                        "blockers",
                        Value::Str(
                            blockers
                                .iter()
                                .map(|p| p.to_string())
                                .collect::<Vec<_>>()
                                .join(","),
                        ),
                    )]),
                ),
            ]));
        }
    }
    // Lane names.
    let mut pids: Vec<u32> = records
        .iter()
        .filter_map(|r| r.event.pid())
        .map(|p| p.0)
        .collect();
    pids.sort_unstable();
    pids.dedup();
    for p in pids {
        events.push(map(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(PROCESS_GROUP)),
            ("tid", Value::U64(p as u64)),
            ("args", map(vec![("name", Value::Str(format!("P{p}")))])),
        ]));
    }
    // Shard / worker lane groups: a process_name per group and a
    // thread_name per lane, emitted only when any record used the group.
    for (group, group_name, lane_prefix, mut lanes) in [
        (SHARD_GROUP, "shards", "shard", shards),
        (WORKER_GROUP, "workers", "worker", workers),
    ] {
        lanes.sort_unstable();
        lanes.dedup();
        if lanes.is_empty() {
            continue;
        }
        events.push(map(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(group)),
            (
                "args",
                map(vec![("name", Value::Str(group_name.to_string()))]),
            ),
        ]));
        for lane in lanes {
            events.push(map(vec![
                ("name", Value::Str("thread_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::U64(group)),
                ("tid", Value::U64(lane as u64)),
                (
                    "args",
                    map(vec![("name", Value::Str(format!("{lane_prefix} {lane}")))]),
                ),
            ]));
        }
    }
    let root = map(vec![
        ("traceEvents", Value::Seq(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ]);
    serde_json::to_string(&root).unwrap_or_else(|_| "{\"traceEvents\":[]}".into())
}

/// Explain a process's fate by walking the journal: its own decision chain in
/// order, then the abort causality (reason, group-abort membership, and — for
/// cascades — one level of the initiator's own cause).
pub fn explain_process(records: &[TraceRecord], pid: ProcessId) -> String {
    let mut out = String::new();
    let fate = records
        .iter()
        .rev()
        .find_map(|r| match &r.event {
            TraceEvent::ProcessCommitted { pid: p } if *p == pid => Some("committed"),
            TraceEvent::ProcessAborted { pid: p } if *p == pid => Some("aborted"),
            _ => None,
        })
        .unwrap_or("still active / never seen");
    out.push_str(&format!("{pid}: {fate}\n"));

    let own: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| r.event.pid() == Some(pid) || r.event.mentions(pid))
        .collect();
    if own.is_empty() {
        out.push_str("  no trace records mention this process\n");
        return out;
    }
    out.push_str("  decision chain:\n");
    for r in &own {
        let marker = if r.event.pid() == Some(pid) {
            "•"
        } else {
            "◦"
        };
        out.push_str(&format!("  {marker} {r}\n"));
    }

    // Abort causality.
    if let Some(abort) = records.iter().rev().find_map(|r| match &r.event {
        TraceEvent::AbortStarted { pid: p, reason } if *p == pid => Some((r, *reason)),
        _ => None,
    }) {
        let (rec, reason) = abort;
        out.push_str(&format!(
            "  why aborted: {reason} (at t={}, h={})\n",
            rec.time, rec.history_len
        ));
        match reason {
            AbortReason::Cascade => {
                if let Some((grec, initiator, trigger)) =
                    records.iter().find_map(|r| match &r.event {
                        TraceEvent::GroupAbort {
                            initiator,
                            victims,
                            trigger,
                        } if victims.contains(&pid) => Some((r, *initiator, *trigger)),
                        _ => None,
                    })
                {
                    match initiator {
                        Some(init) => {
                            out.push_str(&format!(
                                "  cascade: victim of {init}'s group abort{} (seq {})\n",
                                trigger
                                    .map(|g| format!(", triggered by {g}"))
                                    .unwrap_or_default(),
                                grec.seq
                            ));
                            if let Some(cause) = records.iter().rev().find_map(|r| match &r.event {
                                TraceEvent::AbortStarted { pid: p, reason } if *p == init => {
                                    Some(*reason)
                                }
                                _ => None,
                            }) {
                                out.push_str(&format!("  root cause: {init} aborted — {cause}\n"));
                            }
                        }
                        None => out.push_str("  cascade: aborted by crash recovery\n"),
                    }
                }
            }
            AbortReason::Rejected => {
                if let Some(r) = own.iter().rev().find(|r| {
                    matches!(&r.event, TraceEvent::RequestRejected { gid, .. } if gid.process == pid)
                }) {
                    out.push_str(&format!("  rejection: {}\n", r.event));
                }
            }
            AbortReason::Failure => {
                if let Some(r) = own.iter().rev().find(|r| {
                    matches!(&r.event, TraceEvent::ActivityFailed { gid, .. } if gid.process == pid)
                }) {
                    out.push_str(&format!("  failure: {}\n", r.event));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ActivityId, GlobalActivityId, ProcessId, ServiceId};

    fn gid(p: u32, a: u32) -> GlobalActivityId {
        GlobalActivityId {
            process: ProcessId(p),
            activity: ActivityId(a),
        }
    }

    fn fixture() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                seq: 0,
                time: 1,
                history_len: 0,
                shard: None,
                worker: None,
                event: TraceEvent::RequestAdmitted {
                    gid: gid(1, 0),
                    service: ServiceId(3),
                    deferred: false,
                    blockers: vec![],
                    edges_added: vec![],
                },
            },
            TraceRecord {
                seq: 1,
                time: 2,
                history_len: 1,
                shard: None,
                worker: None,
                event: TraceEvent::RequestBlocked {
                    gid: gid(2, 0),
                    service: ServiceId(3),
                    blockers: vec![ProcessId(1)],
                },
            },
            TraceRecord {
                seq: 2,
                time: 5,
                history_len: 1,
                shard: None,
                worker: None,
                event: TraceEvent::RequestAdmitted {
                    gid: gid(2, 0),
                    service: ServiceId(3),
                    deferred: true,
                    blockers: vec![ProcessId(1)],
                    edges_added: vec![(ProcessId(1), ProcessId(2))],
                },
            },
            TraceRecord {
                seq: 3,
                time: 6,
                history_len: 2,
                shard: None,
                worker: None,
                event: TraceEvent::AbortStarted {
                    pid: ProcessId(2),
                    reason: AbortReason::Cascade,
                },
            },
            TraceRecord {
                seq: 4,
                time: 6,
                history_len: 2,
                shard: None,
                worker: None,
                event: TraceEvent::GroupAbort {
                    initiator: Some(ProcessId(1)),
                    victims: vec![ProcessId(2)],
                    trigger: Some(gid(1, 1)),
                },
            },
            TraceRecord {
                seq: 5,
                time: 7,
                history_len: 3,
                shard: None,
                worker: None,
                event: TraceEvent::ProcessAborted { pid: ProcessId(2) },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let recs = fixture();
        let jsonl = to_jsonl(&recs);
        assert_eq!(jsonl.lines().count(), recs.len());
        let back = from_jsonl(&jsonl).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn journal_survives_a_poisoning_panic() {
        // A worker that dies while holding the journal lock poisons the std
        // mutex; the surviving handles must keep reading and writing — the
        // push mutation is atomic, so the buffer is always coherent.
        let journal = Journal::new();
        let j = journal.clone();
        std::thread::spawn(move || {
            let _jg = j.inner.lock().unwrap();
            panic!("simulated worker crash");
        })
        .join()
        .unwrap_err();
        let recs = fixture();
        let mut j = journal.clone();
        j.record(recs[0].clone());
        assert_eq!(journal.snapshot(), recs[..1]);
        assert_eq!(journal.take(), recs[..1]);
        assert!(journal.is_empty());
    }

    #[test]
    fn journal_handles_share_buffer() {
        let journal = Journal::new();
        let mut sink = journal.clone();
        for rec in fixture() {
            sink.record(rec);
        }
        assert_eq!(journal.len(), 6);
        let taken = journal.take();
        assert_eq!(taken.len(), 6);
        assert!(journal.is_empty());
    }

    #[test]
    fn noop_sink_is_disabled() {
        assert!(!NoopSink.enabled());
        assert!(Journal::new().enabled());
    }

    #[test]
    fn chrome_trace_has_lanes_and_blocked_span() {
        let out = chrome_trace(&fixture());
        assert!(out.contains("\"traceEvents\""));
        assert!(out.contains("thread_name"));
        assert!(out.contains("blocked a2_0"));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"tid\":2"));
    }

    #[test]
    fn chrome_trace_mirrors_shard_and_worker_lanes() {
        let mut recs = fixture();
        recs[0].shard = Some(0);
        recs[0].worker = Some(1);
        recs[2].shard = Some(3);
        let out = chrome_trace(&recs);
        // Group names and lane names for the stamped records.
        assert!(out.contains("\"shards\""));
        assert!(out.contains("\"workers\""));
        assert!(out.contains("shard 0"));
        assert!(out.contains("shard 3"));
        assert!(out.contains("worker 1"));
        // Mirrored instant events land in the group pids.
        assert!(out.contains("\"pid\":2"));
        assert!(out.contains("\"pid\":3"));
        // Unstamped journals emit no extra groups.
        let plain = chrome_trace(&fixture());
        assert!(!plain.contains("\"shards\""));
        assert!(!plain.contains("\"workers\""));
    }

    #[test]
    fn sample_sink_keeps_whole_process_chains() {
        // Keep 1-in-2 processes: P2's records (2 % 2 == 0) survive, P1's
        // are dropped — but the recovery-initiated GroupAbort (no actor)
        // would always be kept.
        let journal = Journal::new();
        let mut sink = SampleSink::new(journal.clone(), 2);
        for rec in fixture() {
            sink.record(rec);
        }
        let kept = journal.snapshot();
        assert!(!kept.is_empty());
        assert!(kept
            .iter()
            .all(|r| r.event.pid().map(|p| p.0 % 2 == 0).unwrap_or(true)));
        // P2's full chain survived: blocked, admitted, aborted.
        assert!(kept.len() >= 4);
        assert_eq!(sink.dropped() as usize, fixture().len() - kept.len());
        // n == 1 keeps everything.
        let all = Journal::new();
        let mut keep_all = SampleSink::new(all.clone(), 1);
        for rec in fixture() {
            keep_all.record(rec);
        }
        assert_eq!(all.len(), fixture().len());
    }

    #[test]
    fn explain_walks_cascade_to_root_cause() {
        let out = explain_process(&fixture(), ProcessId(2));
        assert!(out.contains("P2: aborted"));
        assert!(out.contains("cascaded from another abort"));
        assert!(out.contains("victim of P1's group abort"));
        assert!(out.contains("triggered by a1_1"));
    }
}
