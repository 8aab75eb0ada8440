#!/usr/bin/env bash
# Product lines of Rust per crate: the count ROADMAP's north star (net-negative
# line count) and its item 12 (a public surface the product uses) track.
#
#   scripts/loc.sh                        # print `crate lines` pairs
#   scripts/loc.sh > benchmarks/loc.txt   # refresh the committed row
#
# Counts every `src/**/*.rs` line that is neither blank nor a `//` comment,
# except the lines of test-only items: an item (a `mod`, `fn`, `use`, impl
# block, statement, ...) carrying `#[cfg(test)]` is skipped whole, with the
# attributes around it, at any indentation. An item ends where its braces
# close, or at a `;` that ends its line before any brace opens. String, raw
# string and character literals and trailing comments are ignored when
# counting braces.
# So unit tests, test-only helpers, doc comments and rustdoc examples are not
# product code. The last pair is the workspace total.
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s globstar nullglob

for dir in crates/*/; do
    files=("$dir"src/**/*.rs)
    awk -v crate="$(basename "$dir")" '
        # Scans one line of a test-only item; true once the item has ended.
        function item_ends(line,    opens, closes) {
            gsub(/r#"([^"]|"[^#])*"#/, "", line)
            gsub(/"([^"\\]|\\.)*"/, "", line)
            gsub(/'\''\\?.'\''/, "", line)
            sub(/\/\/.*/, "", line)
            opens = gsub(/\{/, "", line)
            closes = gsub(/\}/, "", line)
            depth += opens - closes
            if (opens > 0) opened = 1
            return opened ? depth <= 0 : line ~ /;[[:space:]]*$/
        }
        FNR == 1 { held = 0; test = 0; skipping = 0 }
        skipping {
            if (item_ends($0)) skipping = 0
            next
        }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        # Attributes wait for the item they belong to.
        /^[[:space:]]*#\[/ {
            held++
            if ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) test = 1
            next
        }
        test {
            held = 0; test = 0; depth = 0; opened = 0
            skipping = !item_ends($0)
            next
        }
        { n += held + 1; held = 0 }
        END { print crate, n + 0 }
    ' "${files[@]}"
done | awk '{ print; total += $2 } END { print "total", total }'
