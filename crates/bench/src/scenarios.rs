//! Ready-made scenarios: the paper's schedules as histories, the CIM world
//! of Figure 1 deployed over simulated subsystems so the engine can execute
//! it, and the adversarial scenario gauntlet — every named scenario from
//! [`txproc_sim::scenario`] replayed over many seeds through the batch PRED
//! and Proc-REC checkers with its acceptance envelope enforced.

use serde::Serialize;
use std::time::Instant;
use txproc_core::fixtures::{cim_world, paper_world, CimWorld, PaperWorld};
use txproc_core::ids::ProcessId;
use txproc_core::pred_incremental::check_pred_incremental;
use txproc_core::recoverability::proc_rec_violations;
use txproc_core::schedule::Schedule;
use txproc_engine::concurrent::{run_concurrent, ConcurrentConfig, ShardMode};
use txproc_engine::engine::{run, RunConfig};
use txproc_engine::policy::PolicyKind;
use txproc_sim::metrics::Metrics;
use txproc_sim::scenario::{registry, Envelope, Scenario};
use txproc_sim::workload::{try_generate, ArrivalModel, Workload, WorkloadConfig};
use txproc_subsystem::deploy::Deployment;
use txproc_subsystem::kv::{Key, Program};
use txproc_subsystem::subsystem::SubsystemId;

/// Figure 4(a)'s schedule S at time t2 (Examples 4-6).
pub fn figure4a_st2(fx: &PaperWorld) -> Schedule {
    let mut s = Schedule::new();
    s.execute(fx.a(1, 1))
        .execute(fx.a(2, 1))
        .execute(fx.a(2, 2))
        .execute(fx.a(2, 3))
        .execute(fx.a(1, 2))
        .execute(fx.a(2, 4))
        .execute(fx.a(1, 3));
    s
}

/// Figure 4(b)'s schedule S' at time t2 (Example 3, non-serializable).
pub fn figure4b_st2(fx: &PaperWorld) -> Schedule {
    let mut s = Schedule::new();
    s.execute(fx.a(1, 1))
        .execute(fx.a(2, 1))
        .execute(fx.a(2, 2))
        .execute(fx.a(2, 3))
        .execute(fx.a(2, 4))
        .execute(fx.a(1, 2))
        .execute(fx.a(1, 3));
    s
}

/// Figure 7's schedule S'' (Examples 7 and 9, PRED).
pub fn figure7(fx: &PaperWorld) -> Schedule {
    let mut s = Schedule::new();
    s.execute(fx.a(2, 1))
        .execute(fx.a(2, 2))
        .execute(fx.a(2, 3))
        .execute(fx.a(2, 4))
        .execute(fx.a(1, 1))
        .execute(fx.a(2, 5))
        .commit(ProcessId(2))
        .execute(fx.a(1, 2))
        .execute(fx.a(1, 3));
    s
}

/// Figure 9's quasi-commit interleaving (Example 10).
pub fn figure9(fx: &PaperWorld) -> Schedule {
    let mut s = Schedule::new();
    s.execute(fx.a(1, 1))
        .execute(fx.a(1, 2))
        .execute(fx.a(3, 1))
        .execute(fx.a(1, 3));
    s
}

/// The CIM scenario (Figure 1) as an executable workload: the construction
/// and production processes deployed over five subsystems (CAD, PDM, test
/// database, documentation, business application / production floor).
pub fn cim_workload(failure_probability: f64) -> (CimWorld, Workload) {
    let fx = cim_world();
    let mut deployment = Deployment::new();
    let cad = SubsystemId(0);
    let pdm = SubsystemId(1);
    let testdb = SubsystemId(2);
    let doc = SubsystemId(3);
    let floor = SubsystemId(4);
    let svc = |name: &str, proc_: &txproc_core::process::Process| {
        proc_.service(proc_.find(name).expect("activity"))
    };
    let bom = Key(100);
    deployment.place_with_duration(
        svc("design", &fx.construction),
        cad,
        Program::set(Key(1), 7),
        50,
    );
    deployment.place_with_duration(
        svc("pdm_entry", &fx.construction),
        pdm,
        Program::set(bom, 42),
        5,
    );
    deployment.place_with_duration(
        svc("test", &fx.construction),
        testdb,
        Program::set(Key(2), 1),
        20,
    );
    deployment.place_with_duration(
        svc("tech_doc", &fx.construction),
        doc,
        Program::set(Key(3), 1),
        10,
    );
    deployment.place_with_duration(
        svc("doc_cad", &fx.construction),
        doc,
        Program::set(Key(4), 1),
        10,
    );
    deployment.place_with_duration(svc("read_bom", &fx.production), pdm, Program::read(bom), 2);
    deployment.place_with_duration(
        svc("schedule", &fx.production),
        floor,
        Program::set(Key(5), 1),
        8,
    );
    deployment.place_with_duration(
        svc("production", &fx.production),
        floor,
        Program::set(Key(6), 1),
        30,
    );
    deployment.place_with_duration(
        svc("deliver", &fx.production),
        floor,
        Program::set(Key(7), 1),
        5,
    );

    let config = WorkloadConfig {
        processes: fx.spec.process_count(),
        failure_probability,
        ..WorkloadConfig::default()
    };
    let workload = Workload::new(fx.spec.clone(), deployment, config);
    (fx, workload)
}

/// [`cim_workload`] on Figure 1's timeline: production arrives 70 ticks
/// after construction, so it reads the BOM construction wrote.
pub fn figure1_workload(failure_probability: f64) -> (CimWorld, Workload) {
    let (fx, mut workload) = cim_workload(failure_probability);
    workload.config.arrivals = ArrivalModel::staggered(workload.config.processes, 70);
    (fx, workload)
}

/// A paper-world workload (P₁, P₂, P₃ over three subsystems) executable by
/// the engine.
pub fn paper_workload(failure_probability: f64) -> (PaperWorld, Workload) {
    let fx = paper_world();
    let mut deployment = Deployment::new();
    // Conflicting service pairs share a key; everything else is private.
    // (a1_1, a2_1, a3_1) on key 10; (a1_2, a2_4) on key 20; (a1_5, a2_5) on
    // key 30.
    let s = |p: u32, k: u32| fx.spec.service_of(fx.a(p, k)).unwrap();
    let sub = SubsystemId(0);
    deployment.place(s(1, 1), sub, Program::set(Key(10), 1));
    deployment.place(s(2, 1), sub, Program::set(Key(10), 2));
    deployment.place(s(3, 1), sub, Program::set(Key(10), 3));
    deployment.place(s(1, 2), sub, Program::set(Key(20), 1));
    deployment.place(s(2, 4), sub, Program::set(Key(20), 2));
    deployment.place(s(1, 5), sub, Program::set(Key(30), 1));
    deployment.place(s(2, 5), sub, Program::set(Key(30), 2));
    deployment.place(s(1, 3), sub, Program::set(Key(40), 1));
    deployment.place(s(1, 4), sub, Program::set(Key(41), 1));
    deployment.place(s(1, 6), sub, Program::set(Key(42), 1));
    deployment.place(s(2, 2), sub, Program::set(Key(43), 1));
    deployment.place(s(2, 3), sub, Program::set(Key(44), 1));
    deployment.place(s(3, 2), sub, Program::set(Key(45), 1));
    let config = WorkloadConfig {
        processes: fx.spec.process_count(),
        failure_probability,
        ..WorkloadConfig::default()
    };
    let workload = Workload::new(fx.spec.clone(), deployment, config);
    (fx, workload)
}

// ---------------------------------------------------------------------------
// Scenario gauntlet
// ---------------------------------------------------------------------------

/// Configuration of a gauntlet sweep.
#[derive(Debug, Clone)]
pub struct GauntletConfig {
    /// Seeds per scenario (`seed_base..seed_base + seeds`).
    pub seeds: u64,
    /// First seed.
    pub seed_base: u64,
    /// Scheduling policy driven through the gauntlet.
    pub policy: PolicyKind,
    /// Shard topology for concurrent runs.
    pub shards: ShardMode,
    /// Worker-pool override for the concurrent runs (`None` = auto).
    pub workers: Option<usize>,
}

impl GauntletConfig {
    /// The acceptance-grade sweep: 128 seeds, engine + sharded concurrent.
    pub fn full() -> Self {
        Self {
            seeds: 128,
            seed_base: 0,
            policy: PolicyKind::Pred,
            shards: ShardMode::Auto,
            workers: None,
        }
    }

    /// CI smoke mode: the same pipeline over a handful of seeds.
    pub fn smoke() -> Self {
        Self {
            seeds: 4,
            ..Self::full()
        }
    }
}

/// Aggregated result of one scenario in one execution mode.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioModeReport {
    /// `engine` (virtual time) or `concurrent` (sharded wall-clock driver).
    pub mode: &'static str,
    /// Runs aggregated (one per seed).
    pub runs: u64,
    /// Committed processes across all runs.
    pub committed: u64,
    /// Aborted processes across all runs.
    pub aborted: u64,
    /// Compensations executed across all runs.
    pub compensations: u64,
    /// `committed / (processes × runs)`.
    pub commit_rate: f64,
    /// Pooled latency p50 (virtual ticks for engine, wall-clock µs for
    /// concurrent).
    pub latency_p50: Option<u64>,
    /// Pooled latency p95.
    pub latency_p95: Option<u64>,
    /// Histories the batch PRED checker rejected (must be 0).
    pub pred_violations: u64,
    /// Histories with Proc-REC (Definition 11) violations (must be 0).
    pub proc_rec_violations: u64,
    /// Envelope breaches against the aggregate (empty = pass).
    pub envelope_breaches: Vec<String>,
    /// Wall-clock milliseconds spent on this mode's runs.
    pub wall_ms: f64,
}

/// Gauntlet outcome of one named scenario.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Registry name.
    pub name: String,
    /// One-line description.
    pub summary: String,
    /// Seeds swept.
    pub seeds: u64,
    /// The acceptance envelope that was enforced.
    pub envelope: Envelope,
    /// Whether every mode passed: zero PRED / Proc-REC violations and no
    /// envelope breach.
    pub pass: bool,
    /// Per-mode aggregates: engine, then concurrent.
    pub modes: Vec<ScenarioModeReport>,
}

impl ScenarioModeReport {
    /// Whether this mode is clean: zero PRED / Proc-REC violations and no
    /// envelope breach.
    pub fn pass(&self) -> bool {
        self.pred_violations == 0
            && self.proc_rec_violations == 0
            && self.envelope_breaches.is_empty()
    }
}

fn check_history(spec: &txproc_core::spec::Spec, history: &Schedule) -> (u64, u64) {
    let pred = match check_pred_incremental(spec, history) {
        Ok(report) => u64::from(!report.pred),
        Err(_) => 1,
    };
    let proc_rec = match proc_rec_violations(spec, history) {
        Ok(v) => u64::from(!v.is_empty()),
        Err(_) => 1,
    };
    (pred, proc_rec)
}

fn mode_report(
    scenario: &Scenario,
    cfg: &GauntletConfig,
    mode: &'static str,
    mut one_run: impl FnMut(&Workload) -> (Schedule, Metrics),
) -> ScenarioModeReport {
    let t = Instant::now();
    let mut agg = Metrics::new();
    let mut pred_bad = 0u64;
    let mut proc_rec_bad = 0u64;
    for seed in cfg.seed_base..cfg.seed_base + cfg.seeds {
        let workload = try_generate(&scenario.config_for_seed(seed))
            .unwrap_or_else(|e| panic!("scenario {}: {e}", scenario.name));
        let (history, metrics) = one_run(&workload);
        let (p, r) = check_history(&workload.spec, &history);
        pred_bad += p;
        proc_rec_bad += r;
        agg.merge(&metrics);
    }
    let processes_total = scenario.config.processes * cfg.seeds as usize;
    let breaches = scenario
        .envelope
        .check(&agg, processes_total, mode == "engine");
    ScenarioModeReport {
        mode,
        runs: cfg.seeds,
        committed: agg.committed,
        aborted: agg.aborted,
        compensations: agg.compensations,
        commit_rate: agg.committed as f64 / processes_total.max(1) as f64,
        latency_p50: agg.latency_percentile(0.5),
        latency_p95: agg.latency_percentile(0.95),
        pred_violations: pred_bad,
        proc_rec_violations: proc_rec_bad,
        envelope_breaches: breaches,
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

/// Runs one scenario through the gauntlet: engine and sharded concurrent
/// runs over every seed, every history checked by the batch PRED and
/// Proc-REC checkers.
pub fn run_scenario(scenario: &Scenario, cfg: &GauntletConfig) -> ScenarioReport {
    let engine = mode_report(scenario, cfg, "engine", |w| {
        let r = run(
            w,
            RunConfig {
                policy: cfg.policy,
                seed: w.config.seed,
                ..RunConfig::default()
            },
        );
        (r.history, r.metrics)
    });
    let concurrent = mode_report(scenario, cfg, "concurrent", |w| {
        let r = run_concurrent(
            w,
            ConcurrentConfig {
                policy: cfg.policy,
                seed: w.config.seed,
                shards: cfg.shards,
                workers: cfg.workers,
                ..ConcurrentConfig::default()
            },
        );
        (r.history, r.metrics)
    });
    let modes = vec![engine, concurrent];
    ScenarioReport {
        name: scenario.name.to_string(),
        summary: scenario.summary.to_string(),
        seeds: cfg.seeds,
        envelope: scenario.envelope,
        pass: modes.iter().all(ScenarioModeReport::pass),
        modes,
    }
}

/// Runs every registered scenario through the gauntlet.
pub fn run_gauntlet(cfg: &GauntletConfig) -> Vec<ScenarioReport> {
    registry().iter().map(|s| run_scenario(s, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use txproc_core::pred::is_pred;
    use txproc_core::serializability::is_serializable;

    #[test]
    fn paper_schedules_replay() {
        let fx = paper_world();
        for s in [
            figure4a_st2(&fx),
            figure4b_st2(&fx),
            figure7(&fx),
            figure9(&fx),
        ] {
            assert!(s.replay(&fx.spec).is_ok());
        }
    }

    #[test]
    fn figure_properties_hold() {
        let fx = paper_world();
        assert!(is_serializable(&fx.spec, &figure4a_st2(&fx)).unwrap());
        assert!(!is_serializable(&fx.spec, &figure4b_st2(&fx)).unwrap());
        assert!(is_pred(&fx.spec, &figure7(&fx)).unwrap());
        assert!(is_pred(&fx.spec, &figure9(&fx)).unwrap());
        assert!(!is_pred(&fx.spec, &figure4a_st2(&fx)).unwrap());
    }

    #[test]
    fn cim_workload_is_deployable() {
        let (fx, w) = cim_workload(0.0);
        for p in w.spec.processes() {
            for (id, _) in p.iter() {
                assert!(w.deployment.site(p.service(id)).is_some());
            }
        }
        let pdm = fx.construction_activity("pdm_entry");
        let read = fx.production_activity("read_bom");
        assert!(w.spec.activities_conflict(pdm, read).unwrap());
    }

    #[test]
    fn gauntlet_checks_histories_on_both_modes() {
        let cfg = GauntletConfig {
            seeds: 2,
            ..GauntletConfig::smoke()
        };
        let s = txproc_sim::scenario::find("zipf-hotspot").expect("registered");
        let report = run_scenario(&s, &cfg);
        assert_eq!(report.name, "zipf-hotspot");
        assert_eq!(report.seeds, 2);
        let modes: Vec<&str> = report.modes.iter().map(|m| m.mode).collect();
        assert_eq!(modes, vec!["engine", "concurrent"]);
        for m in &report.modes {
            assert_eq!(m.runs, 2);
            assert_eq!(m.pred_violations, 0, "{}: non-PRED history", m.mode);
            assert_eq!(m.proc_rec_violations, 0, "{}: Proc-REC violation", m.mode);
            assert!(m.committed + m.aborted > 0);
        }
    }

    #[test]
    fn paper_workload_is_deployable() {
        let (_, w) = paper_workload(0.0);
        for p in w.spec.processes() {
            for (id, _) in p.iter() {
                assert!(w.deployment.site(p.service(id)).is_some());
            }
        }
    }
}
