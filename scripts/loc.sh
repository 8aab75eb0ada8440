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
# counting braces. A file that its parent includes as a test-only module
# (`#[cfg(test)] mod x;`, with or without `#[path]`) is skipped whole.
# So unit tests, test-only helpers, doc comments and rustdoc examples are not
# product code. The last pair is the workspace total.
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s globstar nullglob

# Prints the files that the given sources include as `#[cfg(test)] mod x;`.
test_module_files() {
    awk '
        FNR == 1 { test = 0; path = "" }
        /^[[:space:]]*#\[/ {
            if ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) test = 1
            if (match($0, /#\[path = "[^"]*"\]/)) path = substr($0, RSTART + 10, RLENGTH - 12)
            next
        }
        test && /^[[:space:]]*mod [A-Za-z0-9_]+;/ {
            dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
            name = $0; sub(/^[[:space:]]*mod /, "", name); sub(/;.*/, "", name)
            # A crate root or mod.rs holds its modules beside it; foo.rs in foo/.
            sub_dir = dir
            if (FILENAME !~ /\/(lib|main|mod)\.rs$/ && FILENAME !~ /\/src\/bin\/[^\/]*$/) {
                sub_dir = FILENAME; sub(/\.rs$/, "", sub_dir)
            }
            if (path != "") print dir "/" path
            else print sub_dir "/" name ".rs\n" sub_dir "/" name "/mod.rs"
        }
        { test = 0; path = "" }
    ' "$@"
}

for dir in crates/*/; do
    skip=$'\n'"$(test_module_files "$dir"src/**/*.rs)"$'\n'
    files=()
    for f in "$dir"src/**/*.rs; do
        [[ $skip == *$'\n'"$f"$'\n'* ]] || files+=("$f")
    done
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
