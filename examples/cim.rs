//! The paper's CIM scenario (Figure 1): a construction process and a
//! production process coupled through the PDM system, executed by the
//! transactional process scheduler.
//!
//! §2.2: "as no inverse for the production activity exists, it must not be
//! executed before the test terminated successfully." The PRED scheduler
//! enforces exactly that; the unsafe concurrency-control-only scheduler does
//! not, and its histories stop being prefix-reducible when the test fails.
//!
//! ```text
//! cargo run --example cim
//! ```

use txproc_bench::scenarios::figure1_workload;
use txproc_core::pred::check_pred;
use txproc_core::schedule::render;
use txproc_engine::engine::{run, RunConfig};
use txproc_engine::policy::PolicyKind;

fn main() {
    // 45% failure probability + seed scan: find a run where the test
    // activity of the construction process actually fails.
    // Figure 1's timeline: production reads the BOM construction wrote.
    let (fx, workload) = figure1_workload(0.45);
    for kind in [PolicyKind::Pred, PolicyKind::UnsafeCc] {
        println!("=== scheduler: {} ===", kind.label());
        for seed in 0..200 {
            let result = run(
                &workload,
                RunConfig {
                    policy: kind,
                    seed,
                    ..RunConfig::default()
                },
            );
            let test_failed = result.history.events().iter().any(|e| {
                matches!(e, txproc_core::schedule::Event::Fail(g)
                    if *g == fx.construction_activity("test"))
            });
            if !test_failed {
                continue;
            }
            println!("history: {}", render(&result.history));
            println!(
                "committed: {}, aborted: {}, compensations: {}, deferred 2PC commits: {}",
                result.metrics.committed,
                result.metrics.aborted,
                result.metrics.compensations,
                result.metrics.deferred_commits,
            );
            let report = check_pred(&workload.spec, &result.history).unwrap();
            println!(
                "PRED: {}{}",
                report.pred,
                report
                    .first_violation
                    .map(|k| format!(" (violating prefix: {k})"))
                    .unwrap_or_default()
            );
            break;
        }
        println!();
    }
}
