#!/usr/bin/env bash
# The bench regression gate: regenerate every BENCH_<id>.json and diff the
# results against the committed baseline.
#
#   scripts/bench_check.sh             # run benches + gate
#   scripts/bench_check.sh --no-run    # gate existing BENCH_*.json only
#   scripts/bench_check.sh --update    # run benches, then rewrite
#                                      # benchmarks/baseline.json
#
# Every bench harness writes BENCH_<id>.json at the workspace root (or
# $BISCUIT_BENCH_DIR); `bench_check` compares each gated row against
# benchmarks/baseline.json and exits nonzero past tolerance. Every row is a
# pure function of a seed: counts gate exactly, the rest at ±2% — see
# docs/METRICS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

run_benches=true
check_args=()
for arg in "$@"; do
    case "$arg" in
        --no-run) run_benches=false ;;
        *) check_args+=("$arg") ;;
    esac
done

if $run_benches; then
    echo "== regenerating bench reports (cargo bench --workspace)"
    cargo bench --workspace
fi

echo "== bench_check"
cargo run --release -q -p biscuit-bench --bin bench_check -- ${check_args[@]+"${check_args[@]}"}
