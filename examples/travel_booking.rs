//! A workflow-management scenario: many concurrent trip-booking processes
//! (flight ≪ hotel ≪ charge ≪ ticket, with a refund-voucher fallback)
//! competing for shared inventory, scheduled by the PRED protocol.
//!
//! Demonstrates the engine end to end: alternative execution paths on pivot
//! failure, compensation, deferred 2PC commits, cascading aborts, metrics.
//!
//! ```text
//! cargo run --example travel_booking
//! ```

use txproc_core::activity::Catalog;
use txproc_core::conflict::ConflictMatrix;
use txproc_core::ids::ProcessId;
use txproc_core::pred::is_pred;
use txproc_core::process::ProcessBuilder;
use txproc_core::spec::Spec;
use txproc_engine::engine::{run, RunConfig};
use txproc_engine::policy::PolicyKind;
use txproc_sim::workload::{Workload, WorkloadConfig};
use txproc_subsystem::deploy::Deployment;
use txproc_subsystem::kv::{Key, KvOp, Program};
use txproc_subsystem::subsystem::SubsystemId;

fn main() {
    let trips = 8;
    // Services: booking decrements shared inventory (compensatable),
    // charging is the pivot, ticketing/vouchers are retriable.
    let mut catalog = Catalog::new();
    let (book_flight, _) = catalog.compensatable("book_flight");
    let (book_hotel, _) = catalog.compensatable("book_hotel");
    let charge = catalog.pivot("charge_card");
    let ticket = catalog.retriable("issue_ticket");
    let voucher = catalog.retriable("issue_voucher");

    let mut conflicts = ConflictMatrix::new(&catalog);
    for s in [book_flight, book_hotel] {
        conflicts.declare_self_conflict(&catalog, s).unwrap();
    }

    let mut spec_processes = Vec::new();
    for i in 0..trips {
        let mut b = ProcessBuilder::new(ProcessId(i), format!("trip-{i}"));
        let f = b.activity("flight", book_flight);
        let h = b.activity("hotel", book_hotel);
        let c = b.activity("charge", charge);
        let t = b.activity("ticket", ticket);
        let v = b.activity("voucher", voucher);
        b.chain(&[f, h, c, t]);
        // If charging ultimately cannot complete the preferred path, issue a
        // voucher instead (the all-retriable fallback of the flex structure).
        b.precede(h, v);
        b.prefer(h, c, v);
        spec_processes.push(b.build(&catalog).expect("valid trip process"));
    }

    // Physical deployment: airline, hotel chain, payment provider, mailer.
    let airline = SubsystemId(0);
    let hotels = SubsystemId(1);
    let payments = SubsystemId(2);
    let mailer = SubsystemId(3);
    let seats = Key(1);
    let rooms = Key(2);
    let mut deployment = Deployment::new();
    deployment.place_with_duration(book_flight, airline, Program::add(seats, -1), 8);
    deployment.place_with_duration(book_hotel, hotels, Program::add(rooms, -1), 6);
    deployment.place_with_duration(
        charge,
        payments,
        Program::empty().then(KvOp::Add(Key(3), 100)),
        12,
    );
    deployment.place_with_duration(ticket, mailer, Program::add(Key(4), 1), 3);
    deployment.place_with_duration(voucher, mailer, Program::add(Key(5), 1), 3);

    let mut spec = Spec::new(catalog, conflicts);
    for p in spec_processes {
        spec.add_process(p);
    }
    let config = WorkloadConfig {
        failure_probability: 0.25,
        ..WorkloadConfig::default()
    };
    let workload = Workload::new(spec, deployment, config);

    for kind in [PolicyKind::Pred, PolicyKind::Serial] {
        let result = run(
            &workload,
            RunConfig {
                policy: kind,
                seed: 2026,
                ..RunConfig::default()
            },
        );
        println!("=== scheduler: {} ===", kind.label());
        println!(
            "makespan: {}  committed: {}/{trips}  aborted: {}  compensations: {}  retries: {}",
            result.metrics.makespan,
            result.metrics.committed,
            result.metrics.aborted,
            result.metrics.compensations,
            result.metrics.retries,
        );
        println!(
            "latency p50/p95: {:?}/{:?}  waits: {}  deferred 2PC commits: {}",
            result.metrics.latency_percentile(0.5),
            result.metrics.latency_percentile(0.95),
            result.metrics.waits,
            result.metrics.deferred_commits,
        );
        let pred = is_pred(&workload.spec, &result.history).unwrap_or(false);
        println!("history PRED: {pred}\n");
    }
}
