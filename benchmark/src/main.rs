//! The txproc benchmark: four named workloads measured from outside,
//! through `RunBuilder` and `Recovery` only. See `benchmark/README.md`.

mod alloc;
mod calib;
mod contract;
mod layers;
mod measure;
mod report;
mod spans;
mod stats;
mod verify;
mod workloads;

use contract::{Better, END_TO_END, RUN_SECONDS};
use report::Report;
use workloads::Kind;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: txproc-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                        [--traced] [--smoke] [--selftest] [--print-benchmark-json]

  --workload W   closed_contended | closed_disjoint | open_poisson |
                 durable_recovery (default: all four, one after the other)
  --seed N       every input is generated from N (default 1)
  --seconds S    length of the measured window per workload (default 20)
  --trace 1      (or --traced) per-layer run: prints the per-layer metrics and
                 writes benchmark/out/trace-<workload>.jsonl
  --smoke        same shapes, quarter-size pools, 1 s windows; bounds not enforced
  --selftest     runs the suite twice and fails if a gated metric moves by more
                 than its bound or an exact count differs

The human-readable table goes to stderr; stdout carries one JSON line per
workload, the last line being the result the driver reads.";

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    selftest: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workloads: Kind::ALL.to_vec(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        selftest: false,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let raw = value("a workload name")?;
                let kind = Kind::parse(&raw)
                    .ok_or_else(|| format!("unknown workload `{raw}`\n{USAGE}"))?;
                args.workloads = vec![kind];
            }
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds: expected a number in (0, 600]")?;
                seconds_given = true;
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                };
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--selftest" => args.selftest = true,
            "--print-benchmark-json" => {
                print!("{}", contract::benchmark_json());
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = 1.0;
    }
    Ok(Some(args))
}

fn run_suite(args: &Args) -> Vec<Report> {
    args.workloads
        .iter()
        .map(|&kind| {
            let report = report::run(kind, args.seed, args.seconds, args.traced, args.smoke);
            report.print_table();
            println!("{}", report.json_line());
            report
        })
        .collect()
}

/// Compares two suites of the same code: every gated metric within its own
/// bound, every exact count identical. Prints the observed differences.
fn selftest(first: &[Report], second: &[Report]) -> bool {
    let mut ok = true;
    eprintln!("\nselftest: second suite against the first");
    for (a, b) in first.iter().zip(second) {
        for m in &END_TO_END {
            let (x, y) = (a.end_to_end(m.name), b.end_to_end(m.name));
            let worse = match m.better {
                Better::Higher => (x - y) / x,
                Better::Lower => (y - x) / x,
            };
            let pass = worse <= m.bound;
            ok &= pass;
            eprintln!(
                "  {:<17} {:<15} {:>14.4} -> {:>14.4}  {:+6.1}% (bound {:.0}%) {}",
                a.kind.name(),
                m.name,
                x,
                y,
                worse * 100.0,
                m.bound * 100.0,
                if pass { "ok" } else { "WORSE THAN BOUND" }
            );
        }
        if a.kind.deterministic() && a.exact_counts != b.exact_counts {
            ok = false;
            eprintln!(
                "  {:<17} exact counts differ: {:?} vs {:?}",
                a.kind.name(),
                a.exact_counts,
                b.exact_counts
            );
        }
    }
    ok
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return std::process::ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            return std::process::ExitCode::from(2);
        }
    };
    let first = run_suite(&args);
    let mut ok = first.iter().all(|r| r.correct());
    if args.selftest {
        let second = run_suite(&args);
        ok &= second.iter().all(|r| r.correct());
        ok &= selftest(&first, &second);
    }
    if ok {
        std::process::ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: see the verification failures above");
        std::process::ExitCode::FAILURE
    }
}
