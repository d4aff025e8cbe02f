//! A run that panics mid-flight must still leave readable tails: the
//! decision journal holds exactly the records its sink accepted, and the WAL
//! salvages to a clean prefix that rebuilds and recovers. This pins the
//! `WalWriter` drop path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use txproc_core::trace::{Journal, TraceRecord, TraceSink};
use txproc_core::wal::{read_records, DurabilityPolicy, MemWal, WalWriter};
use txproc_engine::durability::rebuild_image;
use txproc_engine::engine::RunConfig;
use txproc_engine::recovery::recover;
use txproc_engine::RunBuilder;
use txproc_sim::workload::{generate, WorkloadConfig};

/// Delegates to the wrapped sink, then panics after `left` records — the
/// deterministic stand-in for a run crashing mid-epoch.
struct PanicAfter<S> {
    inner: S,
    left: usize,
}

impl<S: TraceSink> TraceSink for PanicAfter<S> {
    fn enabled(&self) -> bool {
        true
    }
    fn record(&mut self, rec: TraceRecord) {
        if self.left == 0 {
            panic!("injected crash mid-run");
        }
        self.left -= 1;
        self.inner.record(rec);
    }
}

#[test]
fn panicking_run_leaves_readable_journal_and_wal_tails() {
    let w = generate(&WorkloadConfig {
        seed: 11,
        processes: 6,
        conflict_density: 0.4,
        failure_probability: 0.1,
        ..WorkloadConfig::default()
    });
    let journal = Journal::new();
    let mem = MemWal::new();
    let cfg = RunConfig {
        seed: 11,
        epoch: 4,
        ..RunConfig::default()
    };
    let sink = PanicAfter {
        inner: journal.clone(),
        left: 25,
    };
    let writer = WalWriter::new(Box::new(mem.clone()), DurabilityPolicy::Buffered, 11);
    let builder = RunBuilder::new(&w)
        .config(cfg)
        .sink(Box::new(sink))
        .durability(writer, 0);
    let panicked = catch_unwind(AssertUnwindSafe(move || builder.run())).is_err();
    assert!(panicked, "the injected sink crash must unwind the run");

    // Journal tail: the sink panicked mid-batch, under the run's sink lock;
    // the caller's handle reads back exactly the records it accepted, in
    // journal order (a lock poisoned under the `Journal` itself is
    // recovered too: `journal_survives_a_poisoning_panic`).
    let records = journal.snapshot();
    assert_eq!(records.len(), 25, "every accepted record is kept");
    assert!(records.iter().enumerate().all(|(i, r)| r.seq == i as u64));

    // WAL tail: drop-flushed frames salvage cleanly, and the salvaged
    // prefix rebuilds into a recoverable crash image.
    let wal_bytes = mem.contents();
    let (wal_records, clean) = read_records(&wal_bytes);
    assert_eq!(clean, wal_bytes.len(), "drop flush lands whole frames");
    assert!(!wal_records.is_empty());
    let image = rebuild_image(&w, &wal_records).expect("rebuild from panic tail");
    let report = recover(&w, image).expect("recover from panic tail");
    assert!(txproc_core::pred::is_pred(&w.spec, &report.history).unwrap());
}
