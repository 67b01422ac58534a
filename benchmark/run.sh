#!/usr/bin/env bash
# The repo benchmark's one command: builds the benchmark (a crate of its
# own, release profile) and passes every argument through to it.
#
#   benchmark/run.sh                      every workload, untraced and traced
#   benchmark/run.sh --agree 2            two sets that must agree within each bound
#   benchmark/run.sh --record-baseline    also writes benchmark/BASELINE.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the result is the last line
#
# Run it from the repository root: the driver sets a relative
# CARGO_TARGET_DIR, which cargo resolves against the current directory.
set -euo pipefail
dir=$(dirname "$0")
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" >&2
BENCHMARK_DIR=$dir exec "${CARGO_TARGET_DIR:-$dir/target}/release/progmp-benchmark" "$@"
