#!/usr/bin/env bash
# The public surface of the eight product crates: the count ROADMAP item 16
# (the test-only public surface closes) tracks.
#
#   scripts/surface.sh                            # print `crate pub_mods pub_items`
#   scripts/surface.sh > benchmarks/surface.txt   # refresh the committed rows
#
# `pub_mods` counts the `pub mod` lines of a crate's `src/lib.rs`: the
# modules its root exports. `pub_items` counts the `pub` item declarations
# (fn, struct, enum, trait, type, const, static, mod) anywhere under its
# `src/`; `pub(crate)` items and `pub use` lines are not counted. The last
# row is the workspace total.
set -euo pipefail
cd "$(dirname "$0")/.."

for dir in crates/biscuit-{apps,core,db,fs,host,proto,sim,ssd}/; do
    mods=$(grep -cE '^pub mod ' "$dir"src/lib.rs || true)
    items=$(grep -rE '^\s*pub (const |unsafe )?(fn|struct|enum|trait|type|const|static|mod) ' \
        "$dir"src | wc -l)
    echo "$(basename "$dir") $mods $items"
done | awk '{ print; mods += $2; items += $3 } END { print "total", mods, items }'
