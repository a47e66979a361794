#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it; see README.md.
#
#   benchmark/run.sh                      all six workloads, untraced
#   benchmark/run.sh --trace              ... then again with spans
#   benchmark/run.sh --check-repeat       ... twice, and compare
#   benchmark/run.sh --smoke              small sizes, a few seconds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload (BENCHMARK.json)
set -euo pipefail

# Paths below are relative to the root of the checkout, which is also
# what a relative CARGO_TARGET_DIR is relative to.
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/drugtree-benchmark" "$@"
