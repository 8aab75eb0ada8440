#!/usr/bin/env bash
# Product lines of Rust per crate: the count ROADMAP's north star (net-negative
# line count) and its item 12 (a public surface the product uses) track.
#
#   scripts/loc.sh                        # print `crate lines` pairs
#   scripts/loc.sh > benchmarks/loc.txt   # refresh the committed row
#
# Counts every `src/**/*.rs` line that is neither blank nor a `//` comment,
# and stops reading a file at its first top-level `#[cfg(test)] mod`, so
# unit tests, doc comments and rustdoc examples are not product code. The
# last pair is the workspace total.
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s globstar nullglob

for dir in crates/*/; do
    files=("$dir"src/**/*.rs)
    awk -v crate="$(basename "$dir")" '
        FNR == 1 { in_tests = 0; pending = 0 }
        in_tests { next }
        pending {
            pending = 0
            if ($0 ~ /^mod /) { in_tests = 1; next }
            n++
        }
        /^#\[cfg\(test\)\]$/ { pending = 1; next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print crate, n + 0 }
    ' "${files[@]}"
done | awk '{ print; total += $2 } END { print "total", total }'
