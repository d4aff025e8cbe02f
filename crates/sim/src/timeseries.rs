//! Time-series sampling of the telemetry registry.
//!
//! A [`TimeSeries`] is a bounded ring of [`Sample`]s — full
//! [`Snapshot`]s stamped with wall time and, when the driver has one, virtual
//! time. Two feeders exist:
//!
//! * [`Sampler::spawn`] — a background thread snapshotting an enabled
//!   [`Telemetry`] handle every N ms of wall time (the concurrent driver's
//!   mode: real threads, real clocks);
//! * [`TimeSeries::push_virtual`] — an in-loop hook the virtual-time engine
//!   calls every K processed events, stamping the simulated clock.
//!
//! The ring keeps the most recent `cap` samples (flight-recorder semantics)
//! and exports the whole series as a JSON document
//! (`txproc-timeseries/v1`) for `txproc stats` and the CI artifacts.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use txproc_core::telemetry::{Snapshot, Telemetry};

/// One sampled registry state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sample {
    /// Wall nanoseconds since the registry was created (from the snapshot).
    pub wall_ns: u64,
    /// Driver virtual time at the sample, when the driver keeps one (the
    /// engine's simulated clock); `None` for wall-clock samplers.
    pub virtual_time: Option<u64>,
    /// The full registry snapshot.
    pub snapshot: Snapshot,
}

#[derive(Debug, Default)]
struct SeriesInner {
    cap: usize,
    buf: VecDeque<Sample>,
    dropped: u64,
}

/// A shared bounded ring of samples. Cloning yields another handle onto the
/// same buffer (the sampler thread holds one, the exporter another).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    inner: Arc<Mutex<SeriesInner>>,
}

impl TimeSeries {
    /// New ring holding at most `cap` samples (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(SeriesInner {
                cap: cap.max(1),
                buf: VecDeque::with_capacity(cap.clamp(1, 1024)),
                dropped: 0,
            })),
        }
    }

    fn push_sample(&self, s: Sample) {
        let mut g = self.inner.lock().expect("timeseries poisoned");
        if g.buf.len() == g.cap {
            g.buf.pop_front();
            g.dropped += 1;
        }
        g.buf.push_back(s);
    }

    /// Append a wall-clock-stamped sample.
    pub fn push(&self, snapshot: Snapshot) {
        self.push_sample(Sample {
            wall_ns: snapshot.wall_ns,
            virtual_time: None,
            snapshot,
        });
    }

    /// Append a sample stamped with the driver's virtual time.
    pub fn push_virtual(&self, virtual_time: u64, snapshot: Snapshot) {
        self.push_sample(Sample {
            wall_ns: snapshot.wall_ns,
            virtual_time: Some(virtual_time),
            snapshot,
        });
    }

    /// Copy of the retained samples, oldest first.
    pub fn samples(&self) -> Vec<Sample> {
        self.inner
            .lock()
            .expect("timeseries poisoned")
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("timeseries poisoned").buf.len()
    }

    /// Whether no samples were taken.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of samples evicted by the ring.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("timeseries poisoned").dropped
    }

    /// Export the series as a `txproc-timeseries/v1` JSON document.
    pub fn to_json(&self) -> String {
        let g = self.inner.lock().expect("timeseries poisoned");
        let doc = SeriesDoc {
            schema: "txproc-timeseries/v1".to_string(),
            dropped: g.dropped,
            samples: g.buf.iter().cloned().collect(),
        };
        serde_json::to_string(&doc).unwrap_or_else(|_| "{}".into())
    }
}

/// The on-disk shape of an exported series.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesDoc {
    /// Schema tag, `txproc-timeseries/v1`.
    pub schema: String,
    /// Samples evicted by the ring before export.
    pub dropped: u64,
    /// Retained samples, oldest first.
    pub samples: Vec<Sample>,
}

/// Parse a series document back (for tests and downstream tooling).
pub fn from_json(s: &str) -> Result<SeriesDoc, serde_json::Error> {
    serde_json::from_str(s)
}

/// A background wall-clock sampler thread. Stops (and takes one final
/// sample) on [`Sampler::stop`] or drop.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Snapshot `tele` into `series` every `every` until stopped. A disabled
    /// handle yields a sampler that records nothing.
    pub fn spawn(tele: Telemetry, every: Duration, series: TimeSeries) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let every = every.max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("txproc-sampler".into())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    if let Some(snap) = tele.snapshot() {
                        series.push(snap);
                    }
                    // Nap in small slices so stop() returns promptly even
                    // for long sampling intervals.
                    let mut left = every;
                    while !flag.load(Ordering::Relaxed) && left > Duration::ZERO {
                        let nap = left.min(Duration::from_millis(5));
                        std::thread::sleep(nap);
                        left = left.saturating_sub(nap);
                    }
                }
                if let Some(snap) = tele.snapshot() {
                    series.push(snap);
                }
            })
            .expect("spawn sampler thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Signal the thread, wait for its final sample, and return.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txproc_core::telemetry::Phase;

    #[test]
    fn ring_keeps_most_recent_samples() {
        let tele = Telemetry::on();
        let series = TimeSeries::new(3);
        for vt in 0..5u64 {
            tele.phase_ns(Phase::Certify, 10);
            series.push_virtual(vt, tele.snapshot().unwrap());
        }
        let samples = series.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(series.dropped(), 2);
        assert_eq!(samples[0].virtual_time, Some(2));
        assert_eq!(samples[2].virtual_time, Some(4));
        // Monotone counts: later samples saw more records.
        let counts: Vec<u64> = samples
            .iter()
            .map(|s| s.snapshot.phase(Phase::Certify).unwrap().count)
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sampler_collects_and_stops() {
        let tele = Telemetry::on();
        tele.counter("events_total", &[]).add(7);
        let series = TimeSeries::new(128);
        let sampler = Sampler::spawn(tele.clone(), Duration::from_millis(2), series.clone());
        std::thread::sleep(Duration::from_millis(20));
        sampler.stop();
        let n = series.len();
        assert!(n >= 2, "expected ≥2 samples, got {n}");
        // No further samples after stop.
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(series.len(), n);
        assert!(series.samples()[0]
            .snapshot
            .instruments
            .iter()
            .any(|i| i.name == "events_total" && i.value == 7));
    }

    #[test]
    fn disabled_telemetry_yields_empty_series() {
        let series = TimeSeries::new(16);
        let sampler = Sampler::spawn(Telemetry::off(), Duration::from_millis(1), series.clone());
        std::thread::sleep(Duration::from_millis(10));
        sampler.stop();
        assert!(series.is_empty());
    }

    #[test]
    fn json_export_round_trips() {
        let tele = Telemetry::on();
        tele.phase_ns(Phase::Policy, 42);
        let series = TimeSeries::new(8);
        series.push_virtual(100, tele.snapshot().unwrap());
        series.push(tele.snapshot().unwrap());
        let json = series.to_json();
        let doc = from_json(&json).expect("series parses back");
        assert_eq!(doc.schema, "txproc-timeseries/v1");
        assert_eq!(doc.samples.len(), 2);
        assert_eq!(doc.samples[0].virtual_time, Some(100));
        assert_eq!(doc.samples[1].virtual_time, None);
        assert_eq!(doc.samples, series.samples());
    }
}
