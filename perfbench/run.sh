#!/usr/bin/env bash
# Builds the benchmark package (the `dircc-bench` load generator and the
# `dircc` CLI it drives) and runs `dircc-bench` with the given arguments.
# Run from the root of the repository:
#
#   bash perfbench/run.sh --workload replay_matrix --seed 1988 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build) and to
# stderr, so the result JSON stays the last line of stdout.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/dircc-bench" "$@"
