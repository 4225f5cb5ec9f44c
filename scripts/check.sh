#!/usr/bin/env bash
# Tier-1 gate: everything must build, every test must pass, clippy must be
# silent. `cargo test -q` at the root only covers the facade package (the
# root Cargo.toml is itself a package), so the test step is --workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace -q

# Static-analysis gate, run before the expensive stress/bench gates so a
# lint violation fails fast: determinism hygiene, panic-freedom, cast
# audit, unsafe-code forbid, protocol/metric cross-checks, and the
# concurrency passes (L1 lock order, H1 lock-held I/O, G1 guard balance
# from lint-pairs.txt). Pragma use is bounded by the committed ratchet in
# lint-budget.txt (decrease-only).
if ! cargo run --release --quiet -p mmlib-lint -- --workspace; then
    echo "check.sh: mmlib-lint FAILED (see violations above)" >&2
    echo "reproduce one rule: cargo run --release -q -p mmlib-lint -- --workspace --rule <ID>" >&2
    echo "rules and pragma syntax: DESIGN.md 'Static analysis'" >&2
    exit 1
fi

# Fault matrix: BA/PUA/MPA x 32 seeded fault plans, pinned to a fixed seed
# base so every run exercises the identical fault schedule. Failures print
# the offending plan; reproduce any cell with the same seed base.
FAULT_SEED_BASE=1024151
if ! MMLIB_FAULT_SEED_BASE="$FAULT_SEED_BASE" cargo test --test fault_matrix -q; then
    echo "check.sh: fault matrix FAILED at seed base $FAULT_SEED_BASE" >&2
    echo "reproduce: MMLIB_FAULT_SEED_BASE=$FAULT_SEED_BASE cargo test --test fault_matrix" >&2
    exit 1
fi

# Wire-protocol stress gate: 512 concurrent clients multiplexed over one
# pipelined RemoteStore pool against the sharded v2 server, asserting zero
# lost/misrouted responses and exact byte-ledger equality between client
# and server counters. Release mode keeps the bounded fast run under a few
# seconds; plain `cargo test` runs the same test at a modest default scale.
if ! MMLIB_STRESS_CLIENTS=512 cargo test -p mmlib-net --release --test stress -q; then
    echo "check.sh: wire-protocol stress FAILED at 512 clients" >&2
    echo "reproduce: MMLIB_STRESS_CLIENTS=512 cargo test -p mmlib-net --release --test stress" >&2
    exit 1
fi

# Phase-regression gate: the repro harness in fast mode writes per-approach
# TTS/TTR/storage phase breakdowns (plus per-save durability sync counts) to
# BENCH_PR7.json (pinned scale + seed) and gates them against the frozen
# pre-optimization baseline BENCH_PR4.json (which is committed history —
# never regenerated here). Fails if any instrumented phase reports zero
# samples, if the PUA `hash` phase is not >= 2x faster than the baseline
# (CPU-bound, so wall clock is stable), or if a BA save issues more than
# 12/1.5 = 8 sync ops — the write win is held as a sync *count* because
# shared-storage throughput varies severalfold run to run, while the number
# of fdatasync/fsync calls the batch commit coalesces is machine-invariant.
# The root `cargo build --release` builds only the facade package, so the
# repro binary is built here from the current source (never a stale one).
cargo build --release -p mmlib-bench --bins
if [ ! -x ./target/release/repro ]; then
    echo "check.sh: repro binary missing after building mmlib-bench (./target/release/repro)" >&2
    exit 1
fi
if ! ./target/release/repro --fast --scale 0.001 --json BENCH_PR7.json --baseline BENCH_PR4.json; then
    echo "check.sh: phase benchmark FAILED (zero-sample phase or hot-path speedup regression)" >&2
    exit 1
fi

# Lineage gate: a depth-64 delta chain is compacted to a depth bound of 8;
# the benchmark writes before/after/control TTR breakdowns to BENCH_PR6.json
# and exits nonzero if recovery is no longer byte-identical or the compacted
# chain's TTR exceeds 1.5x a fresh depth-8 chain.
if ! ./target/release/repro --fast --lineage-json BENCH_PR6.json; then
    echo "check.sh: lineage depth benchmark FAILED (identity or TTR regression)" >&2
    exit 1
fi

cargo clippy --workspace --all-targets -- -D warnings
echo "check.sh: all gates passed"
