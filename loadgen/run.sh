#!/usr/bin/env bash
# Builds the cluster binaries and loadgen from source, then runs loadgen
# with the given arguments. Run from the repository root:
#
#   bash loadgen/run.sh --workload hit_cluster --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr, so loadgen's JSON line stays the last line
# of stdout. Both builds share $CARGO_TARGET_DIR when it is set.
set -euo pipefail
cargo build --release --offline -p gcco-api -p gcco-router --bins >&2
cargo build --release --offline --manifest-path loadgen/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-loadgen/target}/release/loadgen" "$@"
