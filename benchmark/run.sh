#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it. See benchmark/README.md.
#
#   benchmark/run.sh                       every workload: timed pass, then traced pass
#   benchmark/run.sh --workload NAME       one workload
#   benchmark/run.sh --seed N              another input seed (default 1; 2 is the hold-out)
#   benchmark/run.sh --check               every workload at 1/20 length: compile-and-correctness smoke test
#   benchmark/run.sh --aa N                A/A self-check, two interleaved sets of N timed passes
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one pass, one JSON result as the last line (what BENCHMARK.json runs)
#
# The build goes to $CARGO_TARGET_DIR when cargo is given one, else to the
# repo's own target/. Nothing else is read from the environment.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/inkbench" "$@"
