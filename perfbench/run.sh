#!/usr/bin/env bash
# Builds the served binaries and the benchmark from source, then runs it.
#
#   bash perfbench/run.sh --workload serve_small --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh smoke
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target); the benchmark's scratch files and span dumps go to
# $CARGO_TARGET_DIR/perfbench.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet -p lb-serve --bin lb-serve -p lowerbounds --bin lbtool
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
