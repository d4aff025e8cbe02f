#!/usr/bin/env bash
# The body of the `benchmark` CI job. The package is deliberately not a
# member of the root workspace, so the root jobs never see it: run this from
# the repository root (the workflow file itself is outside this directory and
# is wired up by a later change).
set -euo pipefail
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --manifest-path "$manifest" --all-targets --locked --offline -- -D warnings
cargo test --manifest-path "$manifest" --locked --offline
cargo run --release --manifest-path "$manifest" --locked --offline -- --smoke
# The per-layer path (traced rounds, replays, trace files) at the same size.
cargo run --release --manifest-path "$manifest" --locked --offline -- --smoke --traced
