//! The experiment suite: one function per experiment of EXPERIMENTS.md,
//! regenerating every figure and formal result of the paper plus the
//! extrapolated performance studies.

use crate::cells;
use crate::scenarios::{figure1_workload, figure4a_st2, figure4b_st2, figure7, figure9};
use crate::tables::{ExperimentResult, Table};
use txproc_core::completion::complete;
use txproc_core::fixtures::paper_world;
use txproc_core::flex::{valid_executions, FlexAnalysis};
use txproc_core::pred::{check_pred, is_pred};
use txproc_core::recoverability::{is_proc_rec, proc_rec_violations, sot_like, theorem1_holds};
use txproc_core::reduction::reduce;
use txproc_core::schedule::render;
use txproc_core::serializability::{is_serializable, serialization_order};
use txproc_core::weak::{makespan, OrderConstraint, OrderKind, Task};
use txproc_engine::engine::{run, Engine, RunConfig};
use txproc_engine::policy::PolicyKind;
use txproc_engine::recovery::recover;
use txproc_sim::workload::{generate, WorkloadConfig};

/// Runs one experiment by id (`"e1"`..`"e17"`, `"e21"`, `"e22"`).
/// The other numbers of EXPERIMENTS.md are measurements, not experiments:
/// `cargo bench` and the repository benchmark (`benchmark/`) regenerate
/// them. No `pass` below reads a wall clock.
pub fn run_experiment(id: &str) -> Option<ExperimentResult> {
    match id {
        "e1" => Some(e1_cim()),
        "e2" => Some(e2_process_p1()),
        "e3" => Some(e3_valid_executions()),
        "e4" => Some(e4_serializability()),
        "e5" => Some(e5_completion()),
        "e6" => Some(e6_reduction()),
        "e7" => Some(e7_figure7_pred()),
        "e8" => Some(e8_prefix_violation()),
        "e9" => Some(e9_quasi_commit()),
        "e10" => Some(e10_theorem1()),
        "e11" => Some(e11_lemmas()),
        "e12" => Some(e12_sot()),
        "e13" => Some(e13_throughput()),
        "e14" => Some(e14_violations()),
        "e15" => Some(e15_weak_order()),
        "e16" => Some(e16_crash_recovery()),
        "e17" => Some(e17_scalability()),
        "e21" => Some(e21_conflict_domain_sharding()),
        "e22" => Some(e22_scenario_gauntlet()),
        _ => None,
    }
}

/// All experiment ids in order.
pub fn all_ids() -> Vec<String> {
    (1..=17).chain([21, 22]).map(|i| format!("e{i}")).collect()
}

/// E1 — Figure 1: the CIM interleaving is incorrect; the PRED scheduler
/// defers the production process behind the construction process's outcome.
pub fn e1_cim() -> ExperimentResult {
    let mut t = Table::new(
        "CIM scenario: construction + production under each scheduler (test activity fails)",
        &[
            "scheduler",
            "committed",
            "aborted",
            "compensations",
            "history PRED?",
        ],
    );
    let mut pass = true;
    for kind in [PolicyKind::Pred, PolicyKind::Serial, PolicyKind::UnsafeCc] {
        // Seed chosen so the construction test activity fails (the paper's
        // §2.2 situation). High failure rate plus a seed scan makes sure the
        // failure actually hits the pivot.
        let (fx, w) = figure1_workload(0.45);
        let mut chosen = None;
        for seed in 0..200 {
            let r = run(
                &w,
                RunConfig {
                    policy: kind,
                    seed,
                    ..RunConfig::default()
                },
            );
            let test_failed = r.history.events().iter().any(|e| {
                matches!(e, txproc_core::schedule::Event::Fail(g)
                    if *g == fx.construction_activity("test"))
            });
            if test_failed {
                chosen = Some(r);
                break;
            }
        }
        let r = chosen.expect("a seed with a failing test activity exists");
        let ok = is_pred(&w.spec, &r.history).unwrap_or(false);
        if kind != PolicyKind::UnsafeCc && !ok {
            pass = false;
        }
        if kind == PolicyKind::UnsafeCc && ok {
            // The unsafe scheduler may get lucky on this workload; that is
            // acceptable — E14 quantifies the violation rate.
        }
        t.row(cells![
            kind.label(),
            r.metrics.committed,
            r.metrics.aborted,
            r.metrics.compensations,
            ok
        ]);
    }
    ExperimentResult {
        id: "E1".into(),
        source: "Figure 1, §2.2, §3.5".into(),
        title: "CIM scenario: correct coordination of construction and production".into(),
        expectation:
            "PRED and serial schedulers keep the history prefix-reducible even when the test fails"
                .into(),
        tables: vec![t],
        pass,
    }
}

/// E2 — Figure 2: process P₁'s structure and flex analysis.
pub fn e2_process_p1() -> ExperimentResult {
    let fx = paper_world();
    let analysis = FlexAnalysis::analyze(&fx.p1, &fx.spec.catalog);
    let mut t = Table::new("Process P₁ (Figure 2)", &["property", "value"]);
    t.row(cells!["activities", fx.p1.len()]);
    t.row(cells![
        "guaranteed termination",
        analysis.has_guaranteed_termination()
    ]);
    t.row(cells![
        "strict well-formed flex",
        analysis.strict_well_formed
    ]);
    t.row(cells![
        "state-determining activity s_1_0",
        analysis
            .state_determining
            .map(|a| format!("a1_{}", a.0 + 1))
            .unwrap_or_default()
    ]);
    let pass = analysis.has_guaranteed_termination()
        && analysis.strict_well_formed
        && analysis.state_determining == Some(txproc_core::ids::ActivityId(1));
    ExperimentResult {
        id: "E2".into(),
        source: "Figure 2, Example 2".into(),
        title: "P₁ is a process with guaranteed termination; its pivot a1_2 is s_1_0".into(),
        expectation: "well-formed flex structure, s_1_0 = a1_2".into(),
        tables: vec![t],
        pass,
    }
}

/// E3 — Figure 3: the four valid executions of P₁.
pub fn e3_valid_executions() -> ExperimentResult {
    let fx = paper_world();
    let execs = valid_executions(&fx.p1, &fx.spec.catalog, 100).unwrap();
    let mut t = Table::new(
        "Valid executions of P₁ (Figure 3)",
        &["#", "execution", "terminates"],
    );
    for (i, e) in execs.iter().enumerate() {
        t.row(cells![
            i + 1,
            e,
            if e.committed { "commit" } else { "abort" }
        ]);
    }
    ExperimentResult {
        id: "E3".into(),
        source: "Figure 3, Example 1".into(),
        title: "Four possible valid executions of P₁".into(),
        expectation: "exactly 4 executions".into(),
        pass: execs.len() == 4,
        tables: vec![t],
    }
}

/// E4 — Figure 4: serializable vs. non-serializable interleavings.
pub fn e4_serializability() -> ExperimentResult {
    let fx = paper_world();
    let a = figure4a_st2(&fx);
    let b = figure4b_st2(&fx);
    let ser_a = is_serializable(&fx.spec, &a).unwrap();
    let ser_b = is_serializable(&fx.spec, &b).unwrap();
    let order_a = serialization_order(&fx.spec, &a).unwrap();
    let mut t = Table::new(
        "Conflict serializability (Figure 4)",
        &["schedule", "history", "serializable", "serialization order"],
    );
    t.row(cells![
        "S_t2 (4a)",
        render(&a),
        ser_a,
        order_a
            .map(|o| format!("{o:?}"))
            .unwrap_or_else(|| "-".into())
    ]);
    t.row(cells!["S'_t2 (4b)", render(&b), ser_b, "-"]);
    ExperimentResult {
        id: "E4".into(),
        source: "Figure 4, Examples 3-4".into(),
        title: "S_t2 is serializable (P₁ before P₂); S'_t2 has cyclic dependencies".into(),
        expectation: "4(a) serializable, 4(b) not".into(),
        pass: ser_a && !ser_b,
        tables: vec![t],
    }
}

/// E5 — Figure 5 / Definition 8: the completion of S_t2.
pub fn e5_completion() -> ExperimentResult {
    let fx = paper_world();
    let s = figure4a_st2(&fx);
    let completed = complete(&fx.spec, &s).unwrap();
    let mut t = Table::new(
        "Completion activities added to S_t2 (Example 5)",
        &["activity", "kind"],
    );
    for op in completed.completion_ops() {
        t.row(cells![
            op,
            match op.kind {
                txproc_core::schedule::OpKind::Forward => "forward recovery",
                txproc_core::schedule::OpKind::Compensation => "compensation",
            }
        ]);
    }
    // Example 5: {a1_3⁻¹, a1_5, a1_6} for P₁ and {a2_5} for P₂.
    let pass = completed.completion_ops().len() == 4
        && completed
            .completion_ops()
            .iter()
            .filter(|o| o.kind == txproc_core::schedule::OpKind::Compensation)
            .count()
            == 1;
    ExperimentResult {
        id: "E5".into(),
        source: "Figure 5, Definition 8, Example 5".into(),
        title: "Completed process schedule S̃_t2 adds {a1_3⁻¹, a1_5, a1_6, a2_5}".into(),
        expectation: "four completion activities, one compensation".into(),
        pass,
        tables: vec![t],
    }
}

/// E6 — Figure 6 / Example 6: reduction of S̃_t2.
pub fn e6_reduction() -> ExperimentResult {
    let fx = paper_world();
    let s = figure4a_st2(&fx);
    let completed = complete(&fx.spec, &s).unwrap();
    let outcome = reduce(&fx.spec, &completed);
    let mut t = Table::new("Reduction of S̃_t2 (Example 6)", &["property", "value"]);
    t.row(cells!["cancelled pairs", outcome.cancelled_pairs.len()]);
    t.row(cells![
        "cancelled",
        outcome
            .cancelled_pairs
            .iter()
            .map(|&(f, _)| completed.ops[f].to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ]);
    t.row(cells!["reducible (RED)", outcome.reducible]);
    t.row(cells![
        "serialization of reduced schedule",
        outcome
            .process_graph
            .topological_order()
            .map(|o| format!("{o:?}"))
            .unwrap_or_else(|| "-".into())
    ]);
    let pass = outcome.reducible && outcome.cancelled_pairs.len() == 1;
    ExperimentResult {
        id: "E6".into(),
        source: "Figure 6, Example 6".into(),
        title: "Only ⟨a1_3, a1_3⁻¹⟩ cancels; the reduced schedule serializes P₁ → P₂".into(),
        expectation: "S_t2 ∈ RED with exactly one cancelled pair".into(),
        pass,
        tables: vec![t],
    }
}

/// E7 — Figure 7 / Examples 7 and 9: S″ is PRED.
pub fn e7_figure7_pred() -> ExperimentResult {
    let fx = paper_world();
    let s = figure7(&fx);
    let report = check_pred(&fx.spec, &s).unwrap();
    let mut t = Table::new(
        "Prefix reducibility of S″ (Figure 7)",
        &["prefix", "reducible"],
    );
    for (k, red) in report.prefix_reducible.iter().enumerate() {
        t.row(cells![k, red]);
    }
    ExperimentResult {
        id: "E7".into(),
        source: "Figure 7, Examples 7 and 9".into(),
        title: "Every prefix of S″ is reducible: S″ ∈ PRED".into(),
        expectation: "PRED".into(),
        pass: report.pred,
        tables: vec![t],
    }
}

/// E8 — Figure 8 / Example 8: the prefix S_t1 breaks reducibility.
pub fn e8_prefix_violation() -> ExperimentResult {
    let fx = paper_world();
    let s = figure4a_st2(&fx);
    let report = check_pred(&fx.spec, &s).unwrap();
    let mut t = Table::new(
        "Prefix reducibility of S_t2 (Example 8)",
        &["prefix", "reducible"],
    );
    for (k, red) in report.prefix_reducible.iter().enumerate() {
        t.row(cells![k, red]);
    }
    let pass = report.reducible() && !report.pred && report.first_violation == Some(4);
    ExperimentResult {
        id: "E8".into(),
        source: "Figure 8, Example 8".into(),
        title: "S_t2 is RED but not PRED: completing S_t1 yields the cycle a1_1 ≪ a2_1 ≪ a1_1⁻¹"
            .into(),
        expectation: "full schedule reducible, first violating prefix = S_t1 (4 events)".into(),
        pass,
        tables: vec![t],
    }
}

/// E9 — Figure 9 / Example 10: quasi-commit of non-compensatable activities.
pub fn e9_quasi_commit() -> ExperimentResult {
    let fx = paper_world();
    let good = figure9(&fx);
    let mut bad = txproc_core::schedule::Schedule::new();
    bad.execute(fx.a(1, 1))
        .execute(fx.a(3, 1))
        .execute(fx.a(3, 2));
    bad.commit(txproc_core::ids::ProcessId(3));
    let good_pred = is_pred(&fx.spec, &good).unwrap();
    let bad_pred = is_pred(&fx.spec, &bad).unwrap();
    let mut t = Table::new(
        "Quasi-commit (Figure 9): conflicting access after vs. before P₁'s pivot",
        &["schedule", "history", "PRED"],
    );
    t.row(cells!["after pivot (Fig. 9)", render(&good), good_pred]);
    t.row(cells!["before pivot + P₃ F-REC", render(&bad), bad_pred]);
    ExperimentResult {
        id: "E9".into(),
        source: "Figure 9, Example 10, §3.5".into(),
        title: "After P₁'s pivot commits, a1_1 can no longer be compensated: P₃'s conflicting access is safe".into(),
        expectation: "Figure 9 interleaving PRED; same access before the quasi-commit not PRED".into(),
        pass: good_pred && !bad_pred,
        tables: vec![t],
    }
}

/// E10 — Theorem 1 on randomized histories: PRED ⇒ serializable ∧ Proc-REC.
pub fn e10_theorem1() -> ExperimentResult {
    let mut checked = 0u32;
    let mut pred_count = 0u32;
    let mut holds = 0u32;
    for seed in 0..20u64 {
        let w = generate(&WorkloadConfig {
            seed,
            processes: 4,
            conflict_density: 0.5,
            failure_probability: 0.2,
            ..WorkloadConfig::default()
        });
        for kind in [
            PolicyKind::Pred,
            PolicyKind::UnsafeCc,
            PolicyKind::PredProtocol,
        ] {
            let r = run(
                &w,
                RunConfig {
                    policy: kind,
                    seed,
                    ..RunConfig::default()
                },
            );
            checked += 1;
            if is_pred(&w.spec, &r.history).unwrap_or(false) {
                pred_count += 1;
            }
            if theorem1_holds(&w.spec, &r.history).unwrap_or(false) {
                holds += 1;
            }
        }
    }
    let mut t = Table::new("Theorem 1 validation", &["metric", "count"]);
    t.row(cells!["histories checked", checked]);
    t.row(cells!["PRED histories", pred_count]);
    t.row(cells!["Theorem 1 implication holds", holds]);
    ExperimentResult {
        id: "E10".into(),
        source: "Theorem 1".into(),
        title: "PRED implies serializability and process-recoverability on every checked history"
            .into(),
        expectation: "implication holds for all histories; a healthy mix of PRED/non-PRED".into(),
        pass: holds == checked && pred_count > 0 && pred_count < checked,
        tables: vec![t],
    }
}

/// E11 — Lemmas 1–3: PRED histories never violate the lemma obligations.
pub fn e11_lemmas() -> ExperimentResult {
    let mut pred_histories = 0u32;
    let mut proc_rec_ok = 0u32;
    for seed in 0..40u64 {
        let w = generate(&WorkloadConfig {
            seed,
            processes: 6,
            conflict_density: 0.5,
            failure_probability: 0.2,
            ..WorkloadConfig::default()
        });
        let r = run(
            &w,
            RunConfig {
                seed,
                ..RunConfig::default()
            },
        );
        if is_pred(&w.spec, &r.history).unwrap_or(false) {
            pred_histories += 1;
            if is_proc_rec(&w.spec, &r.history).unwrap_or(false) {
                proc_rec_ok += 1;
            }
        }
    }
    // And the directed counterexample: violating Lemma 1.1 (pivot order)
    // breaks Proc-REC and PRED.
    let fx = paper_world();
    let mut bad = txproc_core::schedule::Schedule::new();
    bad.execute(fx.a(1, 1))
        .execute(fx.a(2, 1))
        .execute(fx.a(2, 2))
        .execute(fx.a(2, 3))
        .execute(fx.a(1, 2));
    let bad_violations = proc_rec_violations(&fx.spec, &bad).unwrap();
    let bad_pred = is_pred(&fx.spec, &bad).unwrap();
    let mut t = Table::new(
        "Lemma obligations on scheduler output",
        &["metric", "value"],
    );
    t.row(cells!["PRED histories emitted", pred_histories]);
    t.row(cells!["of which process-recoverable", proc_rec_ok]);
    t.row(cells![
        "directed Lemma-1 violation: Proc-REC violations",
        bad_violations.len()
    ]);
    t.row(cells!["directed Lemma-1 violation: PRED", bad_pred]);
    ExperimentResult {
        id: "E11".into(),
        source: "Lemmas 1-3, Definition 11".into(),
        title: "Scheduler output satisfies the lemma obligations; violating them breaks PRED"
            .into(),
        expectation: "all PRED histories Proc-REC; the directed violation is neither".into(),
        pass: pred_histories > 0
            && proc_rec_ok == pred_histories
            && !bad_violations.is_empty()
            && !bad_pred,
        tables: vec![t],
    }
}

/// E12 — §3.5: an SOT-like criterion cannot exist for processes.
pub fn e12_sot() -> ExperimentResult {
    let fx = paper_world();
    let mut s_t1 = txproc_core::schedule::Schedule::new();
    s_t1.execute(fx.a(1, 1))
        .execute(fx.a(2, 1))
        .execute(fx.a(2, 2))
        .execute(fx.a(2, 3));
    let sot = sot_like(&fx.spec, &s_t1).unwrap();
    let pred = is_pred(&fx.spec, &s_t1).unwrap();
    let mut t = Table::new(
        "SOT-like criterion vs PRED on S_t1",
        &["criterion", "verdict"],
    );
    t.row(cells!["SOT-like (inspects only S)", sot]);
    t.row(cells!["PRED (inspects S̃)", pred]);
    ExperimentResult {
        id: "E12".into(),
        source: "§3.5 (SOT discussion)".into(),
        title: "A criterion that never inspects the completed schedule accepts the non-PRED S_t1"
            .into(),
        expectation: "SOT-like accepts, PRED rejects".into(),
        pass: sot && !pred,
        tables: vec![t],
    }
}

/// E13 — Throughput/latency of the schedulers across conflict densities.
pub fn e13_throughput() -> ExperimentResult {
    let mut t = Table::new(
        "Scheduler performance vs conflict density (16 processes, 10% failures, mean of 5 seeds)",
        &[
            "density",
            "scheduler",
            "makespan",
            "committed",
            "aborted",
            "latency p50",
            "waits",
        ],
    );
    let mut pass = true;
    for &density in &[0.0, 0.2, 0.4, 0.6, 0.8] {
        let mut serial_makespan = 0.0;
        let mut pred_makespan = 0.0;
        for kind in [
            PolicyKind::Pred,
            PolicyKind::PredProtocol,
            PolicyKind::Conservative,
            PolicyKind::Serial,
        ] {
            let mut agg = txproc_sim::metrics::Metrics::new();
            let reps = 5;
            for seed in 0..reps {
                let w = generate(&WorkloadConfig {
                    seed,
                    processes: 16,
                    conflict_density: density,
                    failure_probability: 0.1,
                    ..WorkloadConfig::default()
                });
                let r = run(
                    &w,
                    RunConfig {
                        policy: kind,
                        seed,
                        ..RunConfig::default()
                    },
                );
                agg.merge(&r.metrics);
            }
            let makespan = agg.makespan as f64 / reps as f64;
            if kind == PolicyKind::Serial {
                serial_makespan = makespan;
            }
            if kind == PolicyKind::Pred {
                pred_makespan = makespan;
            }
            t.row(cells![
                format!("{density:.1}"),
                kind.label(),
                format!("{makespan:.0}"),
                agg.committed,
                agg.aborted,
                agg.latency_percentile(0.5).unwrap_or(0),
                agg.waits
            ]);
        }
        // Shape claim: PRED beats serial execution.
        if pred_makespan > serial_makespan {
            pass = false;
        }
    }
    ExperimentResult {
        id: "E13".into(),
        source: "extrapolated (the paper reports no numbers)".into(),
        title: "The PRED scheduler admits more parallelism than serial/conservative execution"
            .into(),
        expectation: "pred makespan ≤ serial makespan at every density".into(),
        pass,
        tables: vec![t],
    }
}

/// E14 — Correctness-violation rates under failures.
pub fn e14_violations() -> ExperimentResult {
    let mut t = Table::new(
        "Non-PRED history rate under failures (20 seeds, 6 processes, density 0.7, 30% failures)",
        &["scheduler", "runs", "non-PRED histories", "rate"],
    );
    let mut rates = std::collections::BTreeMap::new();
    for kind in [
        PolicyKind::Pred,
        PolicyKind::PredProtocol,
        PolicyKind::UnsafeCc,
        PolicyKind::Serial,
    ] {
        let mut violations = 0u32;
        let runs = 20u32;
        for seed in 0..u64::from(runs) {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 6,
                conflict_density: 0.7,
                failure_probability: 0.3,
                ..WorkloadConfig::default()
            });
            let r = run(
                &w,
                RunConfig {
                    policy: kind,
                    seed,
                    ..RunConfig::default()
                },
            );
            if !is_pred(&w.spec, &r.history).unwrap_or(false) {
                violations += 1;
            }
        }
        rates.insert(kind.label(), violations);
        t.row(cells![
            kind.label(),
            runs,
            violations,
            format!("{:.0}%", violations as f64 * 100.0 / runs as f64)
        ]);
    }
    let pass = rates["pred"] == 0 && rates["serial"] == 0 && rates["unsafe-cc"] > 0;
    ExperimentResult {
        id: "E14".into(),
        source: "§2.2, Example 8 (extrapolated measurement)".into(),
        title: "Concurrency control alone is insufficient: the unsafe scheduler emits non-PRED histories".into(),
        expectation: "pred/serial: 0 violations; unsafe-cc: > 0".into(),
        pass,
        tables: vec![t],
    }
}

/// E15 — §3.6: parallelism gained by weak orders.
pub fn e15_weak_order() -> ExperimentResult {
    let mut t = Table::new(
        "Makespan of a chain of n conflicting activities (duration 10 each)",
        &["n", "strong order", "weak order", "speedup"],
    );
    let mut pass = true;
    for n in [2u32, 4, 8, 16] {
        let tasks: Vec<Task> = (0..n)
            .map(|i| Task {
                gid: txproc_core::ids::GlobalActivityId::new(
                    txproc_core::ids::ProcessId(i),
                    txproc_core::ids::ActivityId(0),
                ),
                duration: 10,
                subsystem: 0,
            })
            .collect();
        let constraints = |kind: OrderKind| -> Vec<OrderConstraint> {
            tasks
                .windows(2)
                .map(|w| OrderConstraint {
                    first: w[0].gid,
                    second: w[1].gid,
                    kind,
                })
                .collect()
        };
        let strong = makespan(&tasks, &constraints(OrderKind::Strong)).unwrap();
        let weak = makespan(&tasks, &constraints(OrderKind::Weak)).unwrap();
        if weak.makespan > strong.makespan {
            pass = false;
        }
        t.row(cells![
            n,
            strong.makespan,
            weak.makespan,
            format!("{:.2}x", strong.makespan as f64 / weak.makespan as f64)
        ]);
    }
    ExperimentResult {
        id: "E15".into(),
        source: "§3.6 (composite systems / weak orders)".into(),
        title: "Weak (commit-order) constraints let conflicting activities overlap".into(),
        expectation: "weak makespan ≤ strong makespan, gap grows with chain length".into(),
        pass,
        tables: vec![t],
    }
}

/// E16 — Crash recovery by completion replay (§3.3).
pub fn e16_crash_recovery() -> ExperimentResult {
    let mut t = Table::new(
        "Scheduler crash at event k, then recovery (seed 11, 6 processes)",
        &[
            "crash after",
            "active at crash",
            "compensations",
            "forward steps",
            "recovered history RED",
        ],
    );
    let mut pass = true;
    for crash_at in [1usize, 4, 8, 12, 20, 30] {
        let w = generate(&WorkloadConfig {
            seed: 11,
            processes: 6,
            conflict_density: 0.4,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        });
        let mut engine = Engine::new(&w, RunConfig::default());
        engine.run_until_history(crash_at);
        let image = engine.crash();
        let report = recover(&w, image).expect("recovery succeeds");
        let red = txproc_core::reduction::is_reducible(&w.spec, &report.history).unwrap();
        if !red {
            pass = false;
        }
        t.row(cells![
            crash_at,
            report.aborted.len(),
            report.compensations,
            report.forward,
            red
        ]);
    }
    ExperimentResult {
        id: "E16".into(),
        source: "§3.3 (group abort), Definition 8".into(),
        title: "After a scheduler crash, the group-abort completion yields a reducible history"
            .into(),
        expectation: "every recovered history is RED".into(),
        pass,
        tables: vec![t],
    }
}

/// E17 — Scalability with the number of concurrent processes.
pub fn e17_scalability() -> ExperimentResult {
    let mut t = Table::new(
        "Makespan vs number of processes (density 0.3, 10% failures)",
        &["processes", "scheduler", "makespan", "throughput/kilotick"],
    );
    let mut pass = true;
    for &n in &[4usize, 8, 16, 32] {
        let mut results = std::collections::BTreeMap::new();
        for kind in [PolicyKind::PredProtocol, PolicyKind::Serial] {
            let w = generate(&WorkloadConfig {
                seed: 3,
                processes: n,
                conflict_density: 0.3,
                failure_probability: 0.1,
                ..WorkloadConfig::default()
            });
            let r = run(
                &w,
                RunConfig {
                    policy: kind,
                    seed: 3,
                    ..RunConfig::default()
                },
            );
            results.insert(kind.label(), r.metrics.makespan);
            t.row(cells![
                n,
                kind.label(),
                r.metrics.makespan,
                format!("{:.2}", r.metrics.throughput_per_kilotick())
            ]);
        }
        if results["pred-protocol"] > results["serial"] {
            pass = false;
        }
    }
    ExperimentResult {
        id: "E17".into(),
        source: "extrapolated".into(),
        title: "The PRED protocol's advantage over serial execution grows with concurrency".into(),
        expectation: "pred-protocol makespan ≤ serial at every scale".into(),
        pass,
        tables: vec![t],
    }
}

/// E21 — Conflict-domain sharding: where conflict domains exist.
///
/// Two tables. First, the *structure*: on the classic single-pool workload
/// the conflict graph birthday-collides into one giant component — shards
/// collapse to 1 as density grows, so sharding is honest about buying
/// nothing there. Second, a multi-tenant workload (disjoint clusters of
/// services/subsystems) gives the partitioner real domains; the table
/// reports the shard count and, for the reader, the measured wall-clock
/// ratio of the sharded to the single-shard run. The experiment passes on
/// the structure alone: how much a second shard buys depends on the host's
/// cores, and `closed_disjoint` of the repository benchmark measures it.
pub fn e21_conflict_domain_sharding() -> ExperimentResult {
    use txproc_engine::concurrent::{run_concurrent, ConcurrentConfig, ShardMode};
    let processes = 128;
    let mut structure = Table::new(
        format!("Conflict-domain structure, classic single-pool workload ({processes} processes)"),
        &["density", "domains", "biggest domain"],
    );
    let mut collapse_ok = true;
    for density in [0.0, 0.3, 0.6, 1.0] {
        let w = generate(&WorkloadConfig {
            seed: 3,
            processes,
            conflict_density: density,
            ..WorkloadConfig::default()
        });
        let part = w.partition();
        let biggest = part.domains().iter().map(Vec::len).max().unwrap_or(0);
        if density >= 1.0 && part.domain_count() != 1 {
            collapse_ok = false;
        }
        structure.row(cells![
            format!("{density:.1}"),
            part.domain_count(),
            biggest
        ]);
    }
    let mut gain = Table::new(
        format!("Sharded vs single-shard driver, multi-tenant workload ({processes} processes, 8 clusters)"),
        &[
            "density",
            "shards",
            "single-shard ms",
            "sharded ms",
            "ratio (events/s, not asserted)",
        ],
    );
    let mut shards_at_03 = 0;
    for density in [0.0, 0.3, 0.9] {
        let w = generate(&WorkloadConfig {
            seed: 3,
            processes,
            clusters: 8,
            conflict_density: density,
            failure_probability: 0.1,
            prefix_len: (2, 5),
            tail_len: (1, 3),
            alternative_probability: 0.5,
            ..WorkloadConfig::default()
        });
        // Reported, never asserted: aggregate events/sec over a few
        // repetitions, since a single run of a few ms is noisy.
        let timed = |shards: ShardMode| {
            let reps = 3;
            let (mut wall, mut events, mut shard_count) = (0.0f64, 0usize, 0usize);
            for _ in 0..reps {
                let t = std::time::Instant::now();
                let r = run_concurrent(
                    &w,
                    ConcurrentConfig {
                        seed: 3,
                        shards,
                        ..ConcurrentConfig::default()
                    },
                );
                wall += t.elapsed().as_secs_f64();
                events += r.history.len();
                shard_count = r.metrics.shards.len();
            }
            let eps = events as f64 / wall.max(1e-9);
            (wall * 1e3 / reps as f64, eps, shard_count)
        };
        let (single_ms, single_eps, _) = timed(ShardMode::Single);
        let (auto_ms, auto_eps, shards) = timed(ShardMode::Auto);
        let speedup = auto_eps / single_eps.max(1e-9);
        if density == 0.3 {
            shards_at_03 = shards;
        }
        gain.row(cells![
            format!("{density:.1}"),
            shards,
            format!("{single_ms:.1}"),
            format!("{auto_ms:.1}"),
            format!("{speedup:.2}x")
        ]);
    }
    ExperimentResult {
        id: "E21".into(),
        source: "extrapolated (conflict-domain sharding)".into(),
        title: "Conflict-domain sharding finds domains exactly where the workload has them".into(),
        expectation: format!(
            "classic workload collapses to one domain at density 1; clustered \
             {processes}-process workload at density 0.3 yields more than one shard"
        ),
        pass: collapse_ok && shards_at_03 > 1,
        tables: vec![structure, gain],
    }
}

/// E22 — scenario gauntlet: every named adversarial scenario runs through
/// both drivers under the certified PRED policy and must land inside its
/// acceptance envelope with zero PRED / Proc-REC violations. CI's nightly
/// `txproc gauntlet` job sweeps 128 seeds for the recorded result; the
/// experiment uses a smaller sweep so the `report` binary stays interactive.
pub fn e22_scenario_gauntlet() -> ExperimentResult {
    use crate::scenarios::{run_gauntlet, GauntletConfig};
    let cfg = GauntletConfig {
        seeds: 8,
        ..GauntletConfig::full()
    };
    let reports = run_gauntlet(&cfg);
    let mut table = Table::new(
        format!("Scenario gauntlet, {} seeds per scenario", cfg.seeds),
        &[
            "scenario",
            "mode",
            "commit rate",
            "p50",
            "p95",
            "PRED viol.",
            "Proc-REC viol.",
            "envelope",
        ],
    );
    let mut pass = true;
    for r in &reports {
        pass &= r.pass;
        for m in &r.modes {
            table.row(cells![
                r.name.clone(),
                m.mode,
                format!("{:.3}", m.commit_rate),
                m.latency_p50.map_or("-".into(), |v| v.to_string()),
                m.latency_p95.map_or("-".into(), |v| v.to_string()),
                m.pred_violations,
                m.proc_rec_violations,
                if m.pass() { "ok" } else { "BREACH" }
            ]);
        }
    }
    ExperimentResult {
        id: "E22".into(),
        source: "extrapolated (adversarial scenario gauntlet)".into(),
        title: "Named adversarial scenarios stay inside their acceptance envelopes".into(),
        expectation: "all 6 scenarios pass their envelopes with zero PRED or \
                      Proc-REC violations on both drivers"
            .into(),
        pass,
        tables: vec![table],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The experiment status of the repository ("N/N experiments pass") is
    /// this test's result, nothing else.
    #[test]
    fn every_experiment_passes() {
        for id in all_ids() {
            let e = run_experiment(&id).expect("every listed id runs");
            assert!(e.pass, "{id} failed: {e:#?}");
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        // e18–e20, e23 and e24 are measurements, not experiments: `cargo
        // bench` and the repository benchmark own every number that depends
        // on a clock. E25 compared epoch sizes; the epoch selects nothing but
        // the journal's seal cadence now (EXPERIMENTS.md E34).
        for id in ["e99", "e18", "e19", "e20", "e23", "e24", "e25"] {
            assert!(run_experiment(id).is_none(), "{id}");
        }
        assert_eq!(all_ids().len(), 19);
        assert_eq!(all_ids().last().map(String::as_str), Some("e22"));
    }
}
