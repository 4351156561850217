#!/usr/bin/env bash
# Two full end-to-end sets of the same build, then `insitu-perf agree`:
# every end-to-end metric on every workload must repeat within its bound
# from BENCHMARK.json. Exits nonzero on any disagreement.
#
#   benchmark/selfcheck.sh [--seed N] [--seconds S]
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
out="$CARGO_TARGET_DIR/insitu-perf-out"
mkdir -p "$out"
rm -f "$out/selfcheck_A.jsonl" "$out/selfcheck_B.jsonl"

benchmark/run.sh --trace 0 "$@" --out "$out/selfcheck_A.jsonl"
benchmark/run.sh --trace 0 "$@" --out "$out/selfcheck_B.jsonl"
"$CARGO_TARGET_DIR/release/insitu-perf" agree "$out/selfcheck_A.jsonl" "$out/selfcheck_B.jsonl"
