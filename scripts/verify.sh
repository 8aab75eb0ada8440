#!/usr/bin/env bash
# The full local gate: tier 1, then what tier 1 cannot see.
#
#   scripts/verify.sh
#
# Tier 1 is the one build and the one test run: the workspace has no
# third-party crate and `default-members` names every crate, so these two
# commands build and test everything (unit, integration, property and doc
# tests) with or without a network. Nothing below re-runs a test tier 1
# already ran in the same configuration.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: release build"
cargo build --release
echo "== tier 1: test suite (every crate)"
cargo test -q

# The one configuration tier 1 does not run: the one suite that takes its
# fleet thread policy from the environment, under the single-threaded
# reference policy.
echo "== env-selected fleet policy (BISCUIT_PAR=0, single thread)"
BISCUIT_PAR=0 cargo test -q --test parallel

# biscuit-perf pins every workload to one CPU, where each fiber hand-off is
# a switch between threads that cannot run side by side.
echo "== kernel, parallel and golden suites on one CPU (taskset -c 0)"
if command -v taskset >/dev/null; then
    taskset -c 0 cargo test -q -p biscuit-sim
    taskset -c 0 cargo test -q --test parallel --test datapath_golden
else
    echo "taskset not found: skipped"
fi

echo "== lint: rustfmt, clippy (warnings are errors)"
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings

echo "== loc: benchmarks/loc.txt is what scripts/loc.sh prints"
diff <(scripts/loc.sh) benchmarks/loc.txt ||
    { echo "stale: scripts/loc.sh > benchmarks/loc.txt"; exit 1; }

echo "== docs: rustdoc, warnings as errors"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== bench gate: all 14 harnesses against benchmarks/baseline.json"
scripts/bench_check.sh

echo "verify: all gates passed"
