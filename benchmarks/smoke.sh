#!/usr/bin/env bash
# CI smoke for dqbench: every workload at 1/20 of its frames, one
# untraced and one traced run each. Checks metric names, units, the
# result schema and correctness; gates no timing. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet \
    --manifest-path benchmarks/dqbench/Cargo.toml -- --smoke "$@"
