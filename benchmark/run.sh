#!/usr/bin/env bash
# The benchmark's single entry point: build the shipped CLI and the
# harness from the checked-out source (offline), then hand every argument
# to the harness. Run it from the repository root or from anywhere; see
# benchmark/README.md for the arguments.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both builds; the caller's choice wins.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# Build output goes to stderr: stdout carries only the benchmark's result.
cargo build --release --offline --quiet --bin paretofab >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/pareto-perf" \
    --paretofab "$CARGO_TARGET_DIR/release/paretofab" "$@"
