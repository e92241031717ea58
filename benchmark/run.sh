#!/usr/bin/env bash
# The one command of the benchmark: build it from source, then run it.
#
#   bash benchmark/run.sh                       every workload, untraced then
#                                               traced; writes benchmark/out/result.json
#   bash benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#   bash benchmark/run.sh --list                workload and metric names
#   bash benchmark/run.sh --compare a.json b.json
#
# Run it from the root of the checkout. The last line of a single
# workload's output is the result object BENCHMARK.json describes.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/sctm-benchmark" "$@"
