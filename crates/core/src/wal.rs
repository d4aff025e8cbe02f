//! Durable write-ahead journal: length-prefixed, CRC-framed typed records.
//!
//! The PR-3 trace journal is a totally-ordered record of every scheduler
//! decision, but it lives in memory; nothing survives a real crash. This
//! module gives that record a durable on-disk form. Each frame is
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][u8 tag][little-endian fields]
//! ```
//!
//! The payload is one tag byte per record shape — [`WalRecord::Event`]'s six
//! kinds are flattened into the tag — followed by that shape's fields at
//! fixed widths (`u32` ids, `u64` counters, one byte per `bool`); the two
//! lists (`GroupAbort`'s processes, `Decision`'s participants) are a `u32`
//! count and then the entries. The encoding is canonical: a payload decodes
//! only if every byte of it is accounted for, so a record has exactly one
//! encoding. The reader stops at the first frame that is short, fails its
//! CRC, or does not decode (unknown tag, a `bool` byte that is neither 0 nor
//! 1, a count that disagrees with the bytes left, trailing bytes) — the *torn
//! tail* a kill -9 mid-write leaves behind. The clean byte length is reported
//! so recovery can truncate the log back to the last complete record and
//! re-append from there.
//!
//! Two disciplines are load-bearing (the icydb audit in SNIPPETS.md #2):
//!
//! 1. **Write-ahead ordering** — the record describing an effect is appended
//!    to the log *before* the effect is applied to any in-memory or
//!    subsystem state. A crash can therefore lose intent (a logged record
//!    whose effect never happened — replay re-applies it) but never an
//!    effect (an applied change with no record — impossible by ordering).
//! 2. **Idempotent replay** — replaying a prefix of the log against fresh
//!    state reconstructs exactly the state the prefix describes; replaying
//!    it again is a no-op. The crash-point sweep in
//!    `crates/engine/tests/wal_crash_sweep.rs` pins both.
//!
//! Sync cadence is a [`DurabilityPolicy`]: per-record fsync for the
//! paranoid, group fsync on epoch seals for throughput, buffered
//! (OS-flushed, never fsynced) for tests and benches; no durability is no
//! writer.
//!
//! The seal cadence belongs to the writer, not to the driver feeding it: a
//! driver calls [`WalWriter::seal_every`] once, when it installs the writer,
//! and from then on the writer appends an [`WalRecord::EpochSeal`] after
//! every `N`-th record that carries a history event
//! ([`WalRecord::carries_event`]). No driver decides when to seal, so none
//! can forget to.

use crate::ids::{ActivityId, GlobalActivityId, ProcessId};
use crate::schedule::Event;
use std::io::Write as _;
use std::num::NonZeroU64;
use std::sync::{Arc, Mutex};

/// Version tag written in the [`WalRecord::Begin`] header record. Versions
/// 1 and 2 framed JSON payloads, which this reader does not decode: it would
/// take such a log's `Begin` for a torn tail and recover the *empty* prefix,
/// so recovery asks [`foreign_head`] first and refuses the log instead.
pub const WAL_VERSION: u32 = 3;

/// How aggressively the WAL writer makes appended records durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// Records are written to the store promptly but never fsynced —
    /// survives a process crash, not a machine crash.
    Buffered,
    /// fsync after every `n` appended records (`n = 1` is classic
    /// commit-record-to-disk-before-ack).
    FsyncEveryN(u64),
    /// Group fsync once per sealed epoch (at most
    /// [`WalWriter::seal_every`] history events between two syncs).
    FsyncPerEpoch,
}

impl DurabilityPolicy {
    /// Short CLI/bench label, e.g. `fsync-epoch`.
    pub fn label(&self) -> String {
        match self {
            DurabilityPolicy::Buffered => "buffered".to_string(),
            DurabilityPolicy::FsyncEveryN(n) => format!("fsync-{n}"),
            DurabilityPolicy::FsyncPerEpoch => "fsync-epoch".to_string(),
        }
    }

    /// Parses a CLI label: `buffered | fsync-N | fsync-epoch`.
    pub fn parse(raw: &str) -> Option<DurabilityPolicy> {
        match raw {
            "buffered" => Some(DurabilityPolicy::Buffered),
            "fsync-epoch" => Some(DurabilityPolicy::FsyncPerEpoch),
            other => other
                .strip_prefix("fsync-")
                .and_then(|n| n.parse().ok())
                .filter(|&n| n > 0)
                .map(DurabilityPolicy::FsyncEveryN),
        }
    }
}

/// One typed durable record.
///
/// Subsystem and invocation identifiers are carried as raw integers so the
/// core crate stays decoupled from `txproc-subsystem`; the engine's
/// durability layer owns the mapping back to typed ids.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// First record of every log: format version and workload seed.
    Begin {
        /// WAL format version ([`WAL_VERSION`]).
        version: u32,
        /// Seed of the workload this log belongs to.
        seed: u64,
    },
    /// A history event, appended atomically with its in-memory effect.
    /// `Fail`/`Commit`/`Abort`/`GroupAbort` are history-only; an `Execute`
    /// here is the *release* of a previously prepared invocation (the
    /// prepare itself was a [`WalRecord::Invocation`]); a `Compensate`
    /// additionally implies the compensating transaction at the agent —
    /// replay re-applies both halves from the one record, so every log
    /// prefix is a consistent state.
    Event {
        /// The history event.
        event: Event,
    },
    /// A service invocation accepted by a subsystem agent. Replaying these
    /// in log order against fresh agents reproduces the same invocation
    /// ids (agents allocate ids densely and only on success). When
    /// `prepared` is false the record also implies the `Execute` history
    /// event — one atomic record for agent effect + history append.
    Invocation {
        /// The activity the invocation executes.
        gid: GlobalActivityId,
        /// Subsystem that accepted the invocation.
        subsystem: u32,
        /// Invocation id the agent allocated.
        invocation: u64,
        /// `true` when invoked prepare-and-defer (Lemma 2); the commit is
        /// released by a later 2PC [`WalRecord::Decision`].
        prepared: bool,
    },
    /// A prepared invocation was aborted directly at its agent (the owning
    /// process aborted before its deferred commit was released).
    PreparedAborted {
        /// Subsystem holding the prepared invocation.
        subsystem: u32,
        /// The aborted invocation.
        invocation: u64,
    },
    /// A 2PC decision was logged by the coordinator (phase 1 complete).
    /// Appended before any participant learns the outcome.
    Decision {
        /// Coordinator-assigned group id.
        group: u64,
        /// `true` = commit, `false` = abort.
        commit: bool,
        /// `(subsystem, invocation)` participants.
        participants: Vec<(u32, u64)>,
    },
    /// Phase 2 of the group completed: every participant applied the
    /// decision. A crash between `Decision` and `DecisionApplied` leaves
    /// the group in doubt; recovery finishes it from the decision record.
    DecisionApplied {
        /// The completed group.
        group: u64,
    },
    /// An epoch boundary was sealed (group-commit point under
    /// [`DurabilityPolicy::FsyncPerEpoch`]).
    EpochSeal {
        /// Monotonic epoch counter.
        epoch: u64,
    },
}

impl WalRecord {
    /// Whether replaying this record appends a history event: an `Event`, or
    /// an immediate `Invocation` (which implies its `Execute`). These are
    /// what [`WalWriter::seal_every`] counts.
    pub fn carries_event(&self) -> bool {
        matches!(
            self,
            WalRecord::Event { .. }
                | WalRecord::Invocation {
                    prepared: false,
                    ..
                }
        )
    }
}

/// Computes the CRC-32 (IEEE 802.3, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Small table built on first use; no external crc dependency.
    fn table() -> &'static [u32; 256] {
        use std::sync::OnceLock;
        static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut t = [0u32; 256];
            for (i, slot) in t.iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                *slot = c;
            }
            t
        })
    }
    let t = table();
    let mut c = !0u32;
    for &b in bytes {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Frame header: payload length and payload CRC, four bytes each.
const HEADER: usize = 8;
/// The smallest frame: header, tag and one `u32` (`Commit` / `Abort`).
const MIN_FRAME: usize = HEADER + 1 + 4;

// Payload tags, one per record shape, with the fields that follow the tag.
const TAG_BEGIN: u8 = 1; // version u32, seed u64
const TAG_EXECUTE: u8 = 2; // process u32, activity u32
const TAG_FAIL: u8 = 3; // process u32, activity u32
const TAG_COMPENSATE: u8 = 4; // process u32, activity u32
const TAG_COMMIT: u8 = 5; // process u32
const TAG_ABORT: u8 = 6; // process u32
const TAG_GROUP_ABORT: u8 = 7; // count u32, count × process u32
const TAG_INVOCATION: u8 = 8; // process u32, activity u32, subsystem u32, invocation u64, prepared u8
const TAG_PREPARED_ABORTED: u8 = 9; // subsystem u32, invocation u64
const TAG_DECISION: u8 = 10; // group u64, commit u8, count u32, count × (subsystem u32, invocation u64)
const TAG_DECISION_APPLIED: u8 = 11; // group u64
const TAG_EPOCH_SEAL: u8 = 12; // epoch u64
/// Bytes of one `Decision` participant: subsystem `u32`, invocation `u64`.
const PARTICIPANT: usize = 4 + 8;

/// Chainable little-endian field writers over the frame buffer.
trait Put {
    fn u8(&mut self, v: u8) -> &mut Self;
    fn u32(&mut self, v: u32) -> &mut Self;
    fn u64(&mut self, v: u64) -> &mut Self;
    fn gid(&mut self, gid: &GlobalActivityId) -> &mut Self {
        self.u32(gid.process.0).u32(gid.activity.0)
    }
}

impl Put for Vec<u8> {
    fn u8(&mut self, v: u8) -> &mut Self {
        self.push(v);
        self
    }
    fn u32(&mut self, v: u32) -> &mut Self {
        self.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn u64(&mut self, v: u64) -> &mut Self {
        self.extend_from_slice(&v.to_le_bytes());
        self
    }
}

/// Appends `record`'s payload — tag, then fields — to `out`.
fn encode_payload(out: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::Begin { version, seed } => out.u8(TAG_BEGIN).u32(*version).u64(*seed),
        WalRecord::Event { event } => match event {
            Event::Execute(gid) => out.u8(TAG_EXECUTE).gid(gid),
            Event::Fail(gid) => out.u8(TAG_FAIL).gid(gid),
            Event::Compensate(gid) => out.u8(TAG_COMPENSATE).gid(gid),
            Event::Commit(p) => out.u8(TAG_COMMIT).u32(p.0),
            Event::Abort(p) => out.u8(TAG_ABORT).u32(p.0),
            Event::GroupAbort(ps) => {
                out.u8(TAG_GROUP_ABORT).u32(ps.len() as u32);
                ps.iter().fold(out, |out, p| out.u32(p.0))
            }
        },
        WalRecord::Invocation {
            gid,
            subsystem,
            invocation,
            prepared,
        } => out
            .u8(TAG_INVOCATION)
            .gid(gid)
            .u32(*subsystem)
            .u64(*invocation)
            .u8(u8::from(*prepared)),
        WalRecord::PreparedAborted {
            subsystem,
            invocation,
        } => out
            .u8(TAG_PREPARED_ABORTED)
            .u32(*subsystem)
            .u64(*invocation),
        WalRecord::Decision {
            group,
            commit,
            participants,
        } => {
            out.u8(TAG_DECISION).u64(*group).u8(u8::from(*commit));
            out.u32(participants.len() as u32);
            participants
                .iter()
                .fold(out, |out, &(s, i)| out.u32(s).u64(i))
        }
        WalRecord::DecisionApplied { group } => out.u8(TAG_DECISION_APPLIED).u64(*group),
        WalRecord::EpochSeal { epoch } => out.u8(TAG_EPOCH_SEAL).u64(*epoch),
    };
}

/// Appends `record`'s frame to `out`: the payload is encoded in place behind
/// an eight-byte gap, then its length and CRC are patched into the gap. (A
/// list too long for the `u32` length would wrap it; the frame then fails
/// its CRC on the read side, like any other torn write.)
fn encode_into(out: &mut Vec<u8>, record: &WalRecord) {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER]);
    encode_payload(out, record);
    let payload = &out[start + HEADER..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes one record as a framed byte sequence.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    // Room for any list-free frame (the largest is `Invocation`, 8 + 22).
    let mut out = Vec::with_capacity(32);
    encode_into(&mut out, record);
    out
}

/// Reads fixed-width little-endian fields off the front of a payload.
struct Fields<'a>(&'a [u8]);

impl Fields<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    fn bool(&mut self) -> Option<bool> {
        match self.take()? {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }

    fn gid(&mut self) -> Option<GlobalActivityId> {
        Some(GlobalActivityId {
            process: ProcessId(self.u32()?),
            activity: ActivityId(self.u32()?),
        })
    }

    /// A list's count, accepted only when `count` entries of `width` bytes
    /// are exactly what is left of the payload (a list is its record's last
    /// field) — so the caller may allocate for `count` entries.
    fn count(&mut self, width: usize) -> Option<usize> {
        let count = self.u32()? as usize;
        (count.checked_mul(width)? == self.0.len()).then_some(count)
    }
}

/// Decodes one payload; `None` unless every byte of it belongs to the record.
fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let (&tag, fields) = payload.split_first()?;
    let mut f = Fields(fields);
    let event = |event| WalRecord::Event { event };
    let record = match tag {
        TAG_BEGIN => WalRecord::Begin {
            version: f.u32()?,
            seed: f.u64()?,
        },
        TAG_EXECUTE => event(Event::Execute(f.gid()?)),
        TAG_FAIL => event(Event::Fail(f.gid()?)),
        TAG_COMPENSATE => event(Event::Compensate(f.gid()?)),
        TAG_COMMIT => event(Event::Commit(ProcessId(f.u32()?))),
        TAG_ABORT => event(Event::Abort(ProcessId(f.u32()?))),
        TAG_GROUP_ABORT => {
            let count = f.count(4)?;
            let mut processes = Vec::with_capacity(count);
            for _ in 0..count {
                processes.push(ProcessId(f.u32()?));
            }
            event(Event::GroupAbort(processes))
        }
        TAG_INVOCATION => WalRecord::Invocation {
            gid: f.gid()?,
            subsystem: f.u32()?,
            invocation: f.u64()?,
            prepared: f.bool()?,
        },
        TAG_PREPARED_ABORTED => WalRecord::PreparedAborted {
            subsystem: f.u32()?,
            invocation: f.u64()?,
        },
        TAG_DECISION => {
            let (group, commit) = (f.u64()?, f.bool()?);
            let count = f.count(PARTICIPANT)?;
            let mut participants = Vec::with_capacity(count);
            for _ in 0..count {
                participants.push((f.u32()?, f.u64()?));
            }
            WalRecord::Decision {
                group,
                commit,
                participants,
            }
        }
        TAG_DECISION_APPLIED => WalRecord::DecisionApplied { group: f.u64()? },
        TAG_EPOCH_SEAL => WalRecord::EpochSeal { epoch: f.u64()? },
        _ => return None,
    };
    f.0.is_empty().then_some(record)
}

/// Splits the first length- and CRC-clean frame off `bytes`: its payload and
/// the bytes after it. `None` is a short header, a short payload or a CRC
/// mismatch (bit rot or a torn rewrite).
fn next_frame(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = bytes.split_first_chunk::<4>()?;
    let (crc, rest) = rest.split_first_chunk::<4>()?;
    let (payload, rest) = rest.split_at_checked(u32::from_le_bytes(*len) as usize)?;
    (crc32(payload) == u32::from_le_bytes(*crc)).then_some((payload, rest))
}

/// Parses every complete, CRC-clean record from `bytes`.
///
/// Returns the records plus the *clean length*: the byte offset just past
/// the last intact frame. Anything beyond it is a torn tail (short header,
/// short payload, CRC mismatch, or a payload that does not decode) and must
/// be truncated before appending resumes.
pub fn read_records(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::with_capacity(bytes.len() / MIN_FRAME);
    let mut rest = bytes;
    while let Some((payload, after)) = next_frame(rest) {
        let Some(record) = decode_payload(payload) else {
            break;
        };
        records.push(record);
        rest = after;
    }
    (records, bytes.len() - rest.len())
}

/// Whether `bytes` opens with a frame that is intact — full length, matching
/// CRC — yet is no record of this format: a log of another version (1 and 2
/// framed JSON) or of another program. [`read_records`] reads such a log as
/// empty, which recovery must not mistake for a crash inside the `Begin`
/// write: *that* leaves a short or CRC-failing first frame, and is not
/// foreign.
pub fn foreign_head(bytes: &[u8]) -> bool {
    next_frame(bytes).is_some_and(|(payload, _)| decode_payload(payload).is_none())
}

/// Byte sink a [`WalWriter`] appends frames to.
pub trait WalStore: Send {
    /// Appends raw bytes at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Makes everything appended so far durable (fsync or its stand-in).
    fn sync(&mut self) -> std::io::Result<()>;
}

#[derive(Debug, Default)]
struct MemWalInner {
    bytes: Vec<u8>,
    syncs: u64,
}

/// In-memory WAL store with a cloneable read handle — the crash-sweep
/// harness truncates its contents at arbitrary offsets to model kill -9.
#[derive(Debug, Clone, Default)]
pub struct MemWal {
    inner: Arc<Mutex<MemWalInner>>,
}

impl MemWal {
    /// Creates an empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the full log contents appended so far.
    pub fn contents(&self) -> Vec<u8> {
        self.lock().bytes.clone()
    }

    /// Number of bytes appended so far.
    pub fn len(&self) -> usize {
        self.lock().bytes.len()
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many times `sync` was called (the mem-store fsync stand-in).
    pub fn syncs(&self) -> u64 {
        self.lock().syncs
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemWalInner> {
        // Poison-tolerant: a panicking writer must not wedge the reader the
        // crash harness uses to inspect the surviving prefix.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl WalStore for MemWal {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.lock().bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.lock().syncs += 1;
        Ok(())
    }
}

/// File-backed WAL store (`sync` = `File::sync_data`).
#[derive(Debug)]
pub struct FileWal {
    file: std::fs::File,
}

impl FileWal {
    /// Creates (truncating) a log file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<FileWal> {
        Ok(FileWal {
            file: std::fs::File::create(path)?,
        })
    }

    /// Opens an existing log for appending (recovery re-opens the clean
    /// prefix this way after truncating the torn tail).
    pub fn append_to(path: &std::path::Path) -> std::io::Result<FileWal> {
        Ok(FileWal {
            file: std::fs::OpenOptions::new().append(true).open(path)?,
        })
    }
}

impl WalStore for FileWal {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

/// Buffering, policy-driven writer of framed records.
///
/// Encoded frames accumulate in an internal buffer; the policy decides when
/// they reach the store (`flush`) and when the store is made durable
/// (`sync`). The writer flushes on drop so a clean shutdown never loses
/// records, and the buffer is bounded so `Buffered` runs do not hold the
/// whole log in memory.
pub struct WalWriter {
    store: Box<dyn WalStore>,
    policy: DurabilityPolicy,
    buf: Vec<u8>,
    since_sync: u64,
    records: u64,
    bytes: u64,
    syncs: u64,
    epochs_sealed: u64,
    /// Seal after this many event-carrying records (`None`: never on its own).
    seal_every: Option<NonZeroU64>,
    /// Event-carrying records appended since the last seal.
    unsealed: u64,
}

/// Flush the buffer to the store once it crosses this many bytes, even
/// under `Buffered` (keeps memory bounded on long runs).
const FLUSH_THRESHOLD: usize = 64 * 1024;

impl WalWriter {
    /// Creates a writer over `store` with the given sync policy, appending
    /// the [`WalRecord::Begin`] header.
    pub fn new(store: Box<dyn WalStore>, policy: DurabilityPolicy, seed: u64) -> WalWriter {
        let mut w = WalWriter {
            store,
            policy,
            buf: Vec::new(),
            since_sync: 0,
            records: 0,
            bytes: 0,
            syncs: 0,
            epochs_sealed: 0,
            seal_every: None,
            unsealed: 0,
        };
        w.append(&WalRecord::Begin {
            version: WAL_VERSION,
            seed,
        });
        w
    }

    /// Turns on the writer's own seal cadence: from now on every `n`-th
    /// record that carries a history event is followed by an
    /// [`WalRecord::EpochSeal`] (`0` means every such record, like `1`), so
    /// under `FsyncPerEpoch` at most `max(n, 1)` history events are ever
    /// unsynced. A writer this was never called on seals only when told to
    /// ([`Self::seal_epoch`]).
    pub fn seal_every(&mut self, n: usize) {
        self.seal_every = NonZeroU64::new((n as u64).max(1));
    }

    /// Appends one record, applying the sync policy and the seal cadence.
    pub fn append(&mut self, record: &WalRecord) {
        let before = self.buf.len();
        encode_into(&mut self.buf, record);
        self.bytes += (self.buf.len() - before) as u64;
        self.records += 1;
        match self.policy {
            DurabilityPolicy::FsyncEveryN(n) => {
                self.since_sync += 1;
                if self.since_sync >= n {
                    self.flush();
                    self.sync();
                }
            }
            DurabilityPolicy::Buffered | DurabilityPolicy::FsyncPerEpoch => {
                if self.buf.len() >= FLUSH_THRESHOLD {
                    self.flush();
                }
            }
        }
        if let (Some(every), true) = (self.seal_every, record.carries_event()) {
            self.unsealed += 1;
            if self.unsealed >= every.get() {
                self.seal_epoch(self.epochs_sealed);
            }
        }
    }

    /// Appends an [`WalRecord::EpochSeal`] and, under `FsyncPerEpoch`,
    /// group-fsyncs everything the epoch appended. The writer numbers its
    /// own seals ([`Self::seal_every`]); `epoch` stays a parameter only for
    /// the frozen benchmark's replay, until benchmark v2 can drop it.
    pub fn seal_epoch(&mut self, epoch: u64) {
        self.append(&WalRecord::EpochSeal { epoch });
        self.epochs_sealed += 1;
        self.unsealed = 0;
        match self.policy {
            DurabilityPolicy::FsyncPerEpoch => {
                self.flush();
                self.sync();
            }
            DurabilityPolicy::Buffered => self.flush(),
            _ => {}
        }
    }

    /// Writes buffered frames to the store (no fsync).
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            // A full store is unrecoverable mid-run; surfacing it as a panic
            // keeps the write-ahead invariant honest (no effect proceeds
            // past an unlogged record).
            self.store.append(&self.buf).expect("WAL store append");
            self.buf.clear();
        }
    }

    /// Flushes and makes the store durable.
    pub fn sync(&mut self) {
        self.flush();
        self.store.sync().expect("WAL store sync");
        self.syncs += 1;
        self.since_sync = 0;
    }

    /// Clean end of run: flushes, and makes the store durable under the
    /// fsync policies. `Buffered` stays unsynced — it never promised
    /// durability and must not masquerade as having it.
    pub fn finish(&mut self) {
        self.flush();
        if matches!(
            self.policy,
            DurabilityPolicy::FsyncEveryN(_) | DurabilityPolicy::FsyncPerEpoch
        ) {
            self.sync();
        }
    }

    /// Total records appended (including `Begin` and epoch seals).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Total framed bytes appended.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// How many times the store was synced.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Best-effort flush — including during a panic unwind, so the log's
        // durable prefix is as long as the run got. Never sync here: a
        // crashing `Buffered` run should not masquerade as durable.
        if !self.buf.is_empty() {
            let _ = self.store.append(&self.buf);
            self.buf.clear();
        }
    }
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("policy", &self.policy)
            .field("records", &self.records)
            .field("bytes", &self.bytes)
            .field("syncs", &self.syncs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gid(p: u32, a: u32) -> GlobalActivityId {
        GlobalActivityId {
            process: ProcessId(p),
            activity: ActivityId(a),
        }
    }

    /// One record of each of the twelve shapes.
    fn sample_records() -> Vec<WalRecord> {
        let event = |event| WalRecord::Event { event };
        vec![
            WalRecord::Begin {
                version: WAL_VERSION,
                seed: 7,
            },
            WalRecord::Invocation {
                gid: gid(1, 0),
                subsystem: 2,
                invocation: 5,
                prepared: true,
            },
            event(Event::Execute(gid(1, 0))),
            WalRecord::Decision {
                group: 3,
                commit: true,
                participants: vec![(2, 5), (0, 1)],
            },
            WalRecord::DecisionApplied { group: 3 },
            WalRecord::PreparedAborted {
                subsystem: 2,
                invocation: 6,
            },
            WalRecord::EpochSeal { epoch: 1 },
            event(Event::Fail(gid(2, 1))),
            event(Event::Compensate(gid(2, 0))),
            event(Event::Abort(ProcessId(2))),
            event(Event::GroupAbort(vec![ProcessId(3), ProcessId(4)])),
            event(Event::Commit(ProcessId(1))),
        ]
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
        }
        let (parsed, clean) = read_records(&bytes);
        assert_eq!(parsed, records);
        assert_eq!(clean, bytes.len());
    }

    #[test]
    fn torn_tail_truncates_to_record_boundary() {
        let records = sample_records();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
            boundaries.push(bytes.len());
        }
        // Every truncation point — boundary or mid-record — parses back to
        // the longest complete prefix at or before it.
        for cut in 0..=bytes.len() {
            let (parsed, clean) = read_records(&bytes[..cut]);
            let expect = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(parsed.len(), expect, "cut at {cut}");
            assert_eq!(clean, boundaries[expect], "cut at {cut}");
            assert_eq!(parsed[..], records[..expect], "cut at {cut}");
        }
    }

    #[test]
    fn crc_mismatch_stops_parse() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
        }
        let first_len = encode_record(&records[0]).len();
        // Flip one payload byte of the second record.
        bytes[first_len + 9] ^= 0x01;
        let (parsed, clean) = read_records(&bytes);
        assert_eq!(parsed.len(), 1);
        assert_eq!(clean, first_len);
    }

    #[test]
    fn insane_length_prefix_is_a_torn_tail() {
        let mut bytes = encode_record(&sample_records()[0]);
        let clean_len = bytes.len();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        let (parsed, clean) = read_records(&bytes);
        assert_eq!(parsed.len(), 1);
        assert_eq!(clean, clean_len);
    }

    /// `payload` framed under a freshly computed CRC: damage the CRC cannot
    /// see, so only the decoder stands between it and replay.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Reads `head ++ frame ++ tail` for an intact `head` and `tail`: the
    /// middle record if the read went through it, `None` if the read stopped
    /// at the boundary before it. Anything else fails the test.
    fn read_between(frame: &[u8]) -> Option<WalRecord> {
        let head = encode_record(&WalRecord::EpochSeal { epoch: 0 });
        let tail = encode_record(&WalRecord::DecisionApplied { group: 9 });
        let log = [&head[..], frame, &tail[..]].concat();
        let (mut records, clean) = read_records(&log);
        match records.len() {
            1 => assert_eq!(clean, head.len()),
            3 => assert_eq!(clean, log.len()),
            n => panic!("{n} records read around {frame:?}"),
        }
        (records.len() == 3).then(|| records.swap_remove(1))
    }

    #[test]
    fn every_payload_byte_mutation_fails_closed_or_is_canonical() {
        for record in sample_records() {
            let clean = encode_record(&record);
            assert_eq!(read_between(&clean), Some(record.clone()));
            for at in HEADER..clean.len() {
                for byte in (0..=u8::MAX).filter(|&b| b != clean[at]) {
                    let mut payload = clean[HEADER..].to_vec();
                    payload[at - HEADER] = byte;
                    let mutated = frame(&payload);
                    if let Some(read) = read_between(&mutated) {
                        assert_ne!(read, record, "{record:?} has two encodings");
                        assert_eq!(encode_record(&read), mutated, "{read:?} is not canonical");
                    }
                }
            }
        }
    }

    #[test]
    fn undecodable_payloads_stop_the_read() {
        assert_eq!(read_between(&frame(&[])), None, "empty payload");
        for tag in [0, TAG_EPOCH_SEAL + 1, u8::MAX] {
            let payload = [&[tag][..], &[0; 8]].concat();
            assert_eq!(read_between(&frame(&payload)), None, "tag {tag}");
        }
        for record in sample_records() {
            let payload = &encode_record(&record)[HEADER..];
            let longer = [payload, &[0]].concat();
            assert_eq!(read_between(&frame(&longer)), None, "{record:?} + 1 byte");
            let shorter = &payload[..payload.len() - 1];
            assert_eq!(read_between(&frame(shorter)), None, "{record:?} - 1 byte");
        }
        // A `bool` is one byte, 0 or 1: `prepared` ends an `Invocation`,
        // `commit` follows a `Decision`'s tag and group.
        let mut invocation = encode_record(&sample_records()[1])[HEADER..].to_vec();
        *invocation.last_mut().unwrap() = 2;
        assert_eq!(read_between(&frame(&invocation)), None);
        let mut decision = encode_record(&sample_records()[3])[HEADER..].to_vec();
        decision[1 + 8] = 2;
        assert_eq!(read_between(&frame(&decision)), None);
    }

    #[test]
    fn list_count_must_match_the_bytes_left() {
        let group_abort = |count: u32, entries: usize| {
            let mut payload = vec![TAG_GROUP_ABORT];
            payload.extend_from_slice(&count.to_le_bytes());
            payload.extend_from_slice(&vec![0; entries * 4]);
            frame(&payload)
        };
        let decision = |count: u32, entries: usize| {
            let mut payload = vec![TAG_DECISION];
            payload.extend_from_slice(&[0; 8 + 1]);
            payload.extend_from_slice(&count.to_le_bytes());
            payload.extend_from_slice(&vec![0; entries * PARTICIPANT]);
            frame(&payload)
        };
        for list in [group_abort, decision] {
            assert!(read_between(&list(0, 0)).is_some());
            assert!(read_between(&list(2, 2)).is_some());
            assert_eq!(read_between(&list(3, 2)), None);
            assert_eq!(read_between(&list(1, 2)), None);
            // The count is checked before anything is reserved for it: were
            // it not, this would ask the allocator for 16–48 GiB.
            assert_eq!(read_between(&list(u32::MAX, 2)), None);
            assert_eq!(read_between(&list(u32::MAX, 0)), None);
        }
    }

    #[test]
    fn foreign_head_is_an_intact_frame_that_does_not_decode() {
        let v2 = frame(br#"{"Begin":{"version":2,"seed":7}}"#);
        assert!(foreign_head(&v2));
        assert_eq!(read_records(&v2), (vec![], 0));
        let begin = encode_record(&sample_records()[0]);
        assert!(!foreign_head(&begin));
        for cut in 0..begin.len() {
            assert!(!foreign_head(&begin[..cut]), "cut at {cut} is a torn tail");
            assert!(!foreign_head(&v2[..cut]), "cut at {cut} is a torn tail");
        }
        let mut rotten = v2.clone();
        rotten[HEADER] ^= 1;
        assert!(!foreign_head(&rotten), "a CRC failure is a torn tail");
    }

    fn record_strategy() -> impl Strategy<Value = WalRecord> {
        let gid = || (any::<u32>(), any::<u32>()).prop_map(|(p, a)| gid(p, a));
        let pid = || any::<u32>().prop_map(ProcessId);
        let event = prop_oneof![
            gid().prop_map(Event::Execute),
            gid().prop_map(Event::Fail),
            gid().prop_map(Event::Compensate),
            pid().prop_map(Event::Commit),
            pid().prop_map(Event::Abort),
            proptest::collection::vec(pid(), 0..9).prop_map(Event::GroupAbort),
        ];
        prop_oneof![
            (any::<u32>(), any::<u64>())
                .prop_map(|(version, seed)| WalRecord::Begin { version, seed }),
            event.prop_map(|event| WalRecord::Event { event }),
            (gid(), any::<u32>(), any::<u64>(), any::<bool>()).prop_map(
                |(gid, subsystem, invocation, prepared)| WalRecord::Invocation {
                    gid,
                    subsystem,
                    invocation,
                    prepared,
                }
            ),
            (any::<u32>(), any::<u64>()).prop_map(|(subsystem, invocation)| {
                WalRecord::PreparedAborted {
                    subsystem,
                    invocation,
                }
            }),
            (
                any::<u64>(),
                any::<bool>(),
                proptest::collection::vec((any::<u32>(), any::<u64>()), 0..9)
            )
                .prop_map(|(group, commit, participants)| WalRecord::Decision {
                    group,
                    commit,
                    participants,
                }),
            any::<u64>().prop_map(|group| WalRecord::DecisionApplied { group }),
            any::<u64>().prop_map(|epoch| WalRecord::EpochSeal { epoch }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A log of generated records reads back as itself, to its last byte.
        #[test]
        fn generated_records_round_trip(records in proptest::collection::vec(record_strategy(), 0..24)) {
            let bytes: Vec<u8> = records.iter().flat_map(encode_record).collect();
            prop_assert_eq!(read_records(&bytes), (records, bytes.len()));
        }
    }

    #[test]
    fn writer_policies_drive_sync_cadence() {
        for (policy, appends, seals, want_syncs) in [
            (DurabilityPolicy::FsyncEveryN(1), 4u64, 0u64, 5u64), // + Begin
            (DurabilityPolicy::FsyncEveryN(2), 4, 0, 2),          // Begin+1, then 2
            (DurabilityPolicy::FsyncPerEpoch, 4, 2, 2),
            (DurabilityPolicy::Buffered, 4, 2, 0),
        ] {
            let mem = MemWal::new();
            let mut w = WalWriter::new(Box::new(mem.clone()), policy, 1);
            for i in 0..appends {
                w.append(&WalRecord::Event {
                    event: Event::Commit(ProcessId(i as u32)),
                });
            }
            for e in 0..seals {
                w.seal_epoch(e);
            }
            assert_eq!(mem.syncs(), want_syncs, "{policy:?}");
            drop(w);
            let (records, clean) = read_records(&mem.contents());
            assert_eq!(clean, mem.len(), "{policy:?}: clean drop leaves no tail");
            assert_eq!(records.len(), (1 + appends + seals) as usize, "{policy:?}");
        }
    }

    #[test]
    fn file_store_round_trips() {
        let dir = std::env::temp_dir().join("txproc_wal_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.wal");
        let store = FileWal::create(&path).unwrap();
        let mut w = WalWriter::new(Box::new(store), DurabilityPolicy::FsyncEveryN(1), 9);
        w.append(&WalRecord::Event {
            event: Event::Abort(ProcessId(3)),
        });
        w.seal_epoch(0);
        drop(w);
        let (records, clean) = read_records(&std::fs::read(&path).unwrap());
        assert_eq!(records.len(), 3);
        assert_eq!(clean, std::fs::metadata(&path).unwrap().len() as usize);
        assert!(matches!(
            records[0],
            WalRecord::Begin {
                version: WAL_VERSION,
                seed: 9
            }
        ));
        // Truncate to the torn tail and confirm append_to resumes cleanly.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..clean - 3]).unwrap();
        let (records, clean2) = read_records(&std::fs::read(&path).unwrap());
        assert_eq!(records.len(), 2);
        let keep = bytes[..clean2].to_vec();
        std::fs::write(&path, &keep).unwrap();
        let store = FileWal::append_to(&path).unwrap();
        let mut w = WalWriter::new(Box::new(store), DurabilityPolicy::Buffered, 9);
        w.append(&WalRecord::EpochSeal { epoch: 7 });
        drop(w);
        let (records, _) = read_records(&std::fs::read(&path).unwrap());
        assert_eq!(records.len(), 4, "resumed log parses end to end");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durability_policy_labels_round_trip() {
        for p in [
            DurabilityPolicy::Buffered,
            DurabilityPolicy::FsyncEveryN(1),
            DurabilityPolicy::FsyncEveryN(8),
            DurabilityPolicy::FsyncPerEpoch,
        ] {
            assert_eq!(DurabilityPolicy::parse(&p.label()), Some(p));
        }
        assert_eq!(DurabilityPolicy::parse("fsync-0"), None);
        assert_eq!(DurabilityPolicy::parse("bogus"), None);
    }
}
