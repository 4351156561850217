#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       build, then measure one workload (what BENCHMARK.json names);
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#       build, then measure every workload, one fresh process each, one
#       at a time, printing every metric by name with its unit.
#
# Builds the shipped `insitu` binary and `insitu-perf` from source into
# $CARGO_TARGET_DIR (default target/benchmark), so neither the root
# Cargo.lock nor target/release is touched. Run from the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"

# Build output goes to stderr: standard output carries only results.
cargo build --release --offline --quiet -p insitu-cli --bin insitu >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
perf="$CARGO_TARGET_DIR/release/insitu-perf"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$perf" "$@"
    fi
done

status=0
for workload in $("$perf" list); do
    "$perf" --workload "$workload" "$@" || status=$?
    echo
done
exit "$status"
