//! A run that panics mid-flight must still leave durable, parseable tails:
//! the JSONL trace ends on a record boundary (prefix-complete) and the WAL
//! salvages to a clean prefix that rebuilds and recovers. This pins the
//! poison-safe flush guards in `JsonlSink` / `WalWriter` drop paths.

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use txproc_core::trace::{from_jsonl, JsonlSink, TraceRecord, TraceSink};
use txproc_core::wal::{read_records, DurabilityPolicy, MemWal, WalWriter};
use txproc_engine::durability::rebuild_image;
use txproc_engine::engine::RunConfig;
use txproc_engine::recovery::recover;
use txproc_engine::RunBuilder;
use txproc_sim::workload::{generate, WorkloadConfig};

/// Shared byte buffer that outlives the sink (and the panic).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

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
    fn flush(&mut self) {
        self.inner.flush();
    }
}

#[test]
fn panicking_run_leaves_parseable_jsonl_and_wal_tails() {
    let w = generate(&WorkloadConfig {
        seed: 11,
        processes: 6,
        conflict_density: 0.4,
        failure_probability: 0.1,
        ..WorkloadConfig::default()
    });
    let buf = SharedBuf::default();
    let mem = MemWal::new();
    let cfg = RunConfig {
        seed: 11,
        epoch: 4,
        ..RunConfig::default()
    };
    let sink = PanicAfter {
        inner: JsonlSink::new(buf.clone()),
        left: 25,
    };
    let writer = WalWriter::new(Box::new(mem.clone()), DurabilityPolicy::Buffered, 11);
    let builder = RunBuilder::new(&w)
        .config(cfg)
        .sink(Box::new(sink))
        .durability(writer, 0);
    let panicked = catch_unwind(AssertUnwindSafe(move || builder.run())).is_err();
    assert!(panicked, "the injected sink crash must unwind the run");

    // JSONL tail: the unwinding drop flushed every record the sink accepted;
    // the file parses line by line with nothing torn.
    let bytes = buf.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let text = String::from_utf8(bytes).expect("utf8 journal");
    let records = from_jsonl(&text).expect("parseable journal tail");
    assert_eq!(records.len(), 25, "every accepted record is on disk");

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
