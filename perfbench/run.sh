#!/usr/bin/env bash
# Builds the `mmlib` server binary and the benchmark from source, then runs
# one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload pua-chain --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p mmlib-cli
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/mmlib" \
    --work-dir .bench_out \
    "$@"
