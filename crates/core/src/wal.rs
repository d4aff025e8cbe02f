//! Durable write-ahead journal: length-prefixed, CRC-framed typed records.
//!
//! The PR-3 trace journal is a totally-ordered record of every scheduler
//! decision, but it lives in memory; nothing survives a real crash. This
//! module gives that record a durable on-disk form. Each frame is
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload JSON]
//! ```
//!
//! and the reader stops at the first frame that is short, fails its CRC, or
//! does not parse — the *torn tail* a kill -9 mid-write leaves behind. The
//! clean byte length is reported so recovery can truncate the log back to
//! the last complete record and re-append from there.
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

use crate::ids::GlobalActivityId;
use crate::schedule::Event;
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::num::NonZeroU64;
use std::sync::{Arc, Mutex};

/// Version tag written in the [`WalRecord::Begin`] header record. Version 1
/// logs could carry full-state snapshot markers, a record this reader no
/// longer knows: it would take one for a torn tail and recover a *prefix*,
/// so replay refuses a version-1 log at its first record instead.
pub const WAL_VERSION: u32 = 2;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Encodes one record as a framed byte sequence.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let payload = serde_json::to_string(record)
        .expect("WAL records serialize infallibly")
        .into_bytes();
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parses every complete, CRC-clean record from `bytes`.
///
/// Returns the records plus the *clean length*: the byte offset just past
/// the last intact frame. Anything beyond it is a torn tail (short header,
/// short payload, CRC mismatch, or unparseable JSON) and must be truncated
/// before appending resumes.
pub fn read_records(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= 8 {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        let Some(end) = at.checked_add(8).and_then(|s| s.checked_add(len)) else {
            break;
        };
        if end > bytes.len() {
            break; // torn payload
        }
        let payload = &bytes[at + 8..end];
        if crc32(payload) != crc {
            break; // bit rot or a torn rewrite
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Ok(record) = serde_json::from_str::<WalRecord>(text) else {
            break;
        };
        records.push(record);
        at = end;
    }
    (records, at)
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

/// Reads a WAL file, returning its records and clean byte length.
pub fn read_wal_file(path: &std::path::Path) -> std::io::Result<(Vec<WalRecord>, usize)> {
    let bytes = std::fs::read(path)?;
    Ok(read_records(&bytes))
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
        let frame = encode_record(record);
        self.bytes += frame.len() as u64;
        self.records += 1;
        self.buf.extend_from_slice(&frame);
        match self.policy {
            DurabilityPolicy::FsyncEveryN(n) => {
                self.since_sync += 1;
                if self.since_sync >= n {
                    self.flush();
                    self.sync();
                }
            }
            DurabilityPolicy::Buffered => {
                if self.buf.len() >= FLUSH_THRESHOLD {
                    self.flush();
                }
            }
            DurabilityPolicy::FsyncPerEpoch => {
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
    use crate::ids::{ActivityId, GlobalActivityId, ProcessId};

    fn gid(p: u32, a: u32) -> GlobalActivityId {
        GlobalActivityId {
            process: ProcessId(p),
            activity: ActivityId(a),
        }
    }

    fn sample_records() -> Vec<WalRecord> {
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
            WalRecord::Event {
                event: Event::Execute(gid(1, 0)),
            },
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
            WalRecord::Event {
                event: Event::Commit(ProcessId(1)),
            },
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
        let (records, clean) = read_wal_file(&path).unwrap();
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
        let (records, clean2) = read_wal_file(&path).unwrap();
        assert_eq!(records.len(), 2);
        let keep = bytes[..clean2].to_vec();
        std::fs::write(&path, &keep).unwrap();
        let store = FileWal::append_to(&path).unwrap();
        let mut w = WalWriter::new(Box::new(store), DurabilityPolicy::Buffered, 9);
        w.append(&WalRecord::EpochSeal { epoch: 7 });
        drop(w);
        let (records, _) = read_wal_file(&path).unwrap();
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
