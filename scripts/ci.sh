#!/usr/bin/env bash
# CI gate for the workspace. Everything runs offline: the workspace has
# no external crates, so any registry access is a regression this script
# must catch. Every test binary runs once per profile (debug keeps
# overflow checks and `debug_assert!`, release is what ships); each step
# prints its wall time and the gate prints the total, so CI cost is
# itself a tracked number.
set -euo pipefail
cd "$(dirname "$0")/.."

gate_start=$SECONDS
step() {
    local title=$1 start=$SECONDS
    shift
    echo "==> $title"
    "$@"
    echo "<== $title: $((SECONDS - start))s"
}

bench_smoke() {
    cargo run --release --offline -p medea-bench --bin "$1" -- --smoke
}

step "cargo fmt --check" cargo fmt --all -- --check
step "cargo clippy (warnings denied)" \
    cargo clippy --workspace --all-targets --offline -- -D warnings
step "cargo build --release --offline (all targets)" \
    cargo build --release --offline --workspace --tests
step "cargo test (debug)" cargo test --offline --workspace -q
step "cargo test (release)" cargo test --release --offline --workspace -q
step "non-test lines (the count CHANGES entries quote)" scripts/loc.sh

# The examples are documentation that asserts: each must still run to
# completion against the current API.
run_examples() {
    local e
    for e in examples/*.rs; do
        cargo run --release --offline -q --example "$(basename "$e" .rs)" >/dev/null
    done
}
step "examples (each runs to exit 0)" run_examples

# The benchmark package has its own manifest and lock file; building and
# testing it here makes an API break against it fail CI, not the pipeline.
step "benchmark package build (--locked)" \
    cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
step "benchmark package tests (--locked)" \
    cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml
# Building it is not running it: the benchmark's own output checks (every
# burst in one batch, the audit, responses == requests, generator lag)
# are what the pipeline judges a change by, so a change that breaks one
# must fail here first. All four workloads, 3 s windows, traced.
step "benchmark run (--quick --traced; exits nonzero on any failed check)" \
    benchmark/run.sh --quick --traced

# The committed BENCH_*.json are full-mode results; a smoke run writes
# under target/bench-smoke/ and must never replace one.
no_committed_smoke() {
    if grep -l '"mode": "smoke"' BENCH_*.json; then
        echo "error: the files above are committed smoke-mode results" >&2
        return 1
    fi
}
step "no committed BENCH_*.json in smoke mode" no_committed_smoke

# A committed result without the binary that writes it can only go stale,
# and a binary without a committed result has no trajectory.
no_orphan_bench() {
    local f b status=0
    for f in BENCH_*.json; do
        b=${f#BENCH_}
        b=crates/bench/src/bin/${b%.json}_bench.rs
        [ -f "$b" ] || { echo "error: $f has no $b" >&2; status=1; }
    done
    for b in crates/bench/src/bin/*_bench.rs; do
        f=$(basename "$b" _bench.rs)
        f=BENCH_$f.json
        [ -f "$f" ] || { echo "error: $b has no committed $f" >&2; status=1; }
    done
    return $status
}
step "every BENCH_<x>.json has its <x>_bench binary and vice versa" no_orphan_bench

# Each smoke run exits nonzero when its own gate fails (solver: the
# frontier contract and hbase3's <= 400 anchor probes; lifecycle: hard
# violations, budget overruns, broken ledger).
for bench in solver scale recovery lifecycle; do
    step "$bench benchmark smoke (writes target/bench-smoke/BENCH_$bench.json)" \
        bench_smoke "${bench}_bench"
done
step "chaos smoke (fixed-seed fault injection + recovery)" bench_smoke fig8_resilience

# The two-scheduler figures run at full size (about a second each, on the
# simulated clock) and exit nonzero when a claim they print fails: zero
# sync conflicts, monotone sync latency and async conflicts against the
# solve deadline (11b); async within 10% of YARN, sync above async (11c).
two_scheduler_figures() {
    local bin
    for bin in fig11b_two_scheduler fig11c_task_latency; do
        cargo run --release --offline -q -p medea-bench --bin "$bin" >/dev/null
    done
}
step "two-scheduler figures 11b/11c (full size, their assertions)" two_scheduler_figures

# One of Fig. 10's 36 exact solves stops at its 2,000-node limit on a
# quiet host and at its 2 s deadline on a loaded one; the printed figure
# was the same either way in every run measured. A solver or placer
# change that moves it fails here. Regenerate the golden file only for
# an intended change.
fig10_golden() {
    cargo run --release --offline -q -p medea-bench --bin fig10_global \
        | diff -u scripts/golden/fig10_global.txt -
}
step "fig10_global matches scripts/golden/fig10_global.txt" fig10_golden

echo "CI gate passed in $((SECONDS - gate_start))s."
