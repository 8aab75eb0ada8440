#!/usr/bin/env bash
# The full local gate: everything CI runs, in tier order.
#
#   scripts/verify.sh            # run all gates
#   scripts/verify.sh --docs     # docs gates only (rustdoc + doc tests)
#
# Tier 1 (build + tests) must pass before anything merges; the docs gates
# keep `#![warn(missing_docs)]` honest and every doc example compiling.
set -euo pipefail
cd "$(dirname "$0")/.."

docs_only=false
if [[ "${1:-}" == "--docs" ]]; then
    docs_only=true
fi

if ! $docs_only; then
    echo "== tier 1: release build"
    cargo build --release
    echo "== tier 1: test suite"
    cargo test -q
    echo "== fault smoke: matrix test under metrics export"
    BISCUIT_METRICS=/tmp/fault-metrics.json cargo test -q --test faults
    echo "== scale-out: merge proptests, soak, determinism export"
    cargo test -q -p biscuit-host --test array_proptests
    cargo test -q --test scaleout
    cargo test -q --test determinism scaleout
    echo "== parallel DES: kernel windowing, fleet determinism stress"
    cargo test -q -p biscuit-sim par
    cargo test -q --test parallel
    BISCUIT_PAR=2 cargo test -q --test parallel
    echo "== observability: query-profile determinism + span closure"
    cargo test -q -p biscuit-sim qprof
    cargo test -q --test qprof
    BISCUIT_PAR=2 cargo test -q --test qprof
    echo "== qos: WFQ proptests, workload determinism, 64k soak gate"
    cargo test -q -p biscuit-host --test wfq_proptests
    cargo test -q --test workload
    BISCUIT_PAR=2 cargo test -q --test workload
    QOS_SMOKE=1 cargo bench -p biscuit-bench --bench qos
    cargo run --release -q -p biscuit-bench --bin bench_check -- --only qos
    echo "== write path: crash proptests, power-loss fault rows, GC bench gate"
    cargo test -q -p biscuit-ssd --test crash_proptests
    cargo test -q --test faults power_loss
    BISCUIT_PAR=2 cargo test -q --test faults power_loss
    WRITEPATH_SMOKE=1 cargo bench -p biscuit-bench --bench writepath
    cargo run --release -q -p biscuit-bench --bin bench_check -- --only writepath
    echo "== lint: clippy, warnings as errors"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "== docs: rustdoc, warnings as errors"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== docs: doc tests"
cargo test --doc --workspace

echo "verify: all gates passed"
