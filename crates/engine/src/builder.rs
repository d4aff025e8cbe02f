//! The run entry point: one builder on which trace sinks, telemetry and
//! durability compose as orthogonal options, for both the virtual-time
//! engine and the concurrent driver. [`crate::engine::run`]
//! and [`crate::concurrent::run_concurrent`] are shorthands for a builder
//! run with no option set; there is no other way in.
//!
//! ```ignore
//! // Virtual-time engine, traced, journaled to a WAL:
//! let out = RunBuilder::new(&workload)
//!     .config(RunConfig { seed, epoch: 16, ..RunConfig::default() })
//!     .sink(Box::new(journal.clone()))
//!     .durability(WalWriter::new(store, DurabilityPolicy::FsyncPerEpoch, seed), 0)
//!     .run()
//!     .into_engine();
//!
//! // Concurrent driver with telemetry:
//! let out = RunBuilder::new(&workload)
//!     .concurrent(ConcurrentConfig { seed, ..ConcurrentConfig::default() })
//!     .telemetry(tele)
//!     .run()
//!     .into_concurrent();
//! ```

use crate::concurrent::{run_concurrent_impl, ConcurrentConfig, ConcurrentResult};
use crate::engine::{Engine, RunConfig, RunResult};
use txproc_core::schedule::Schedule;
use txproc_core::telemetry::Telemetry;
use txproc_core::trace::{NoopSink, TraceSink};
use txproc_core::wal::WalWriter;
use txproc_sim::metrics::Metrics;
use txproc_sim::workload::Workload;

/// What a [`RunBuilder`] run produced. History and metrics come from one
/// scheduler step either way and differ only in the clock their times were
/// read off (virtual ticks or wall microseconds); the two
/// result types differ in what their driver adds — a PRED verdict and the
/// stalled list, or runtime metrics and the durable state the run ended
/// with.
#[derive(Debug)]
pub enum RunOutcome {
    /// A virtual-time engine run.
    Engine(RunResult),
    /// A concurrent-driver run.
    Concurrent(ConcurrentResult),
}

impl RunOutcome {
    /// The emitted (engine) or ticket-merged (concurrent) history.
    pub fn history(&self) -> &Schedule {
        match self {
            RunOutcome::Engine(r) => &r.history,
            RunOutcome::Concurrent(r) => &r.history,
        }
    }

    /// The run's metrics.
    pub fn metrics(&self) -> &Metrics {
        match self {
            RunOutcome::Engine(r) => &r.metrics,
            RunOutcome::Concurrent(r) => &r.metrics,
        }
    }

    /// Unwraps an engine run; panics on a concurrent one.
    pub fn into_engine(self) -> RunResult {
        match self {
            RunOutcome::Engine(r) => r,
            RunOutcome::Concurrent(_) => {
                panic!("RunOutcome::into_engine on a concurrent run; use into_concurrent")
            }
        }
    }

    /// Unwraps a concurrent run; panics on an engine one.
    pub fn into_concurrent(self) -> ConcurrentResult {
        match self {
            RunOutcome::Concurrent(r) => r,
            RunOutcome::Engine(_) => {
                panic!("RunOutcome::into_concurrent on an engine run; use into_engine")
            }
        }
    }
}

/// Builder over one workload run. Defaults to the virtual-time engine with
/// [`RunConfig::default`]; [`Self::concurrent`] switches to the concurrent
/// driver. Every other option composes with either driver.
pub struct RunBuilder<'a> {
    workload: &'a Workload,
    engine_cfg: RunConfig,
    concurrent_cfg: Option<ConcurrentConfig>,
    sink: Option<Box<dyn TraceSink + 'a>>,
    tele: Telemetry,
    wal: Option<WalWriter>,
}

impl<'a> RunBuilder<'a> {
    /// A builder for `workload`, set up as a default engine run.
    pub fn new(workload: &'a Workload) -> Self {
        Self {
            workload,
            engine_cfg: RunConfig::default(),
            concurrent_cfg: None,
            sink: None,
            tele: Telemetry::off(),
            wal: None,
        }
    }

    /// Engine configuration (seed, policy, failure injection, the journal's
    /// seal cadence, …).
    /// Ignored after [`Self::concurrent`].
    pub fn config(mut self, cfg: RunConfig) -> Self {
        self.engine_cfg = cfg;
        self
    }

    /// Switches the run to the concurrent driver with `cfg` (shards,
    /// workers, the journal's seal cadence, …).
    pub fn concurrent(mut self, cfg: ConcurrentConfig) -> Self {
        self.concurrent_cfg = Some(cfg);
        self
    }

    /// Emits the decision trace into `sink`. Install a cloned
    /// [`txproc_core::trace::Journal`] handle to read the trace back after
    /// the run.
    pub fn sink(mut self, sink: Box<dyn TraceSink + 'a>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Feeds phase timers into `tele`'s registry. A disabled handle keeps
    /// the hot paths at one branch per site.
    pub fn telemetry(mut self, tele: Telemetry) -> Self {
        self.tele = tele;
        self
    }

    /// Journals every durable state transition through `writer` (policy
    /// decides flush/fsync cadence; the driver's `epoch` becomes the writer's
    /// seal cadence, [`WalWriter::seal_every`]), the same records on either
    /// driver.
    /// `_snapshot_every` is unused: the frozen benchmark passes `0` (gone with v2).
    pub fn durability(mut self, writer: WalWriter, _snapshot_every: usize) -> Self {
        self.wal = Some(writer);
        self
    }

    /// Runs the configured driver. Panics on an invalid concurrent
    /// configuration; use [`Self::try_run`] for a `Result`.
    pub fn run(self) -> RunOutcome {
        match self.try_run() {
            Ok(out) => out,
            Err(msg) => panic!("invalid concurrent configuration: {msg}"),
        }
    }

    /// Fallible variant of [`Self::run`]: returns the configuration error
    /// (naming the knob to change) instead of panicking.
    pub fn try_run(self) -> Result<RunOutcome, String> {
        let sink = self.sink.unwrap_or_else(|| Box::new(NoopSink));
        match self.concurrent_cfg {
            Some(cfg) => {
                cfg.validate()?;
                Ok(RunOutcome::Concurrent(run_concurrent_impl(
                    self.workload,
                    cfg,
                    sink,
                    self.tele,
                    self.wal,
                )))
            }
            None => {
                let mut engine = Engine::assemble(self.workload, self.engine_cfg, sink, self.tele);
                if let Some(writer) = self.wal {
                    engine.set_wal(writer);
                }
                Ok(RunOutcome::Engine(engine.run()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txproc_sim::workload::{generate, WorkloadConfig};

    #[test]
    fn try_run_rejects_an_empty_worker_pool() {
        let w = generate(&WorkloadConfig {
            seed: 1,
            processes: 4,
            ..WorkloadConfig::default()
        });
        let err = RunBuilder::new(&w)
            .concurrent(ConcurrentConfig {
                workers: Some(0),
                ..ConcurrentConfig::default()
            })
            .try_run()
            .unwrap_err();
        assert!(err.contains("--workers"), "error names the knob: {err}");
        let ok = RunBuilder::new(&w)
            .concurrent(ConcurrentConfig::default())
            .try_run()
            .expect("default configuration is valid");
        assert_eq!(ok.metrics().terminated(), 4);
    }
}
