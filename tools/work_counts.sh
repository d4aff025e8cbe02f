#!/usr/bin/env bash
# The exact work-count gate (ROADMAP item 4). On the benchmark's two
# deterministic workloads a traced smoke run at a fixed seed repeats its
# work counts bit for bit on any host, so a change in the amount of work the
# scheduler does — certifier calls, protocol calls, log bytes, fsyncs,
# events, commits — is a diff against BENCH_counts.txt, however fast or slow
# the machine is. Integer counts only: times depend on the host, and
# `certify.alloc_bytes_per_call` on the toolchain's std.
#
#   tools/work_counts.sh           compare against BENCH_counts.txt
#   tools/work_counts.sh --write   refresh it (then review the diff)
set -euo pipefail
cd "$(dirname "$0")/.."

rows='(certify|protocol|subsystem|tpc|rebuild|recover)\.calls|runtime\.(steps|repolls)|wal\.(records|bytes|fsyncs)|work\.[a-z_]+'

# Prints `workload row value` for every gated row of both workloads, in the
# order the benchmark's last stdout line lists them.
counts() {
    for workload in closed_contended durable_recovery; do
        cargo run --release --quiet --locked --offline --manifest-path benchmark/Cargo.toml -- \
            --smoke --traced --seed 1 --workload "$workload" |
            tail -n 1 |
            grep -oE "\"($rows)\": \{\"value\": [0-9]+," |
            sed -E "s/^\"([^\"]+)\".* ([0-9]+),\$/$workload \1 \2/"
    done
}

if [ "${1:-}" = --write ]; then
    counts >BENCH_counts.txt
else
    counts | diff -u BENCH_counts.txt -
fi
