#!/usr/bin/env bash
# Build the benchmark from source, then run one workload.
#
#   bash bench_e2e/run.sh --workload train_full --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line on stdout is the result record. Honours CARGO_TARGET_DIR
# (default: .bench_build).
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/tcss-bench-e2e" "$@"
