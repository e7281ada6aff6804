#!/usr/bin/env bash
# The benchmark's one command: build (release, offline) and run.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S | --quick]
#                    [--trace 0|1 | --traced] [--compare A.json[,..] B.json[,..]]
#
# Run from anywhere; everything it writes lands under $CARGO_TARGET_DIR
# (default: target/ at the repository root) in benchmark/. In a directory
# without ../crates the build fails and nothing is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
export MEDEA_BENCH_OUT="$CARGO_TARGET_DIR/benchmark"
MEDEA_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
MEDEA_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export MEDEA_BENCH_COMMIT MEDEA_BENCH_RUSTC
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/medea-benchmark" "$@"
