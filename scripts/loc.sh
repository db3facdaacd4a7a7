#!/usr/bin/env bash
# Per-crate count of product source lines: every line under crates/*/src
# that is not blank, not a `//` comment (doc comments included) and not
# inside a `#[cfg(test)] mod … { … }` block. ROADMAP item 4 tracks this
# number; quote the table in CHANGES.md when a PR moves it.
#
# Usage: scripts/loc.sh [repo-root]   (default: the checkout this script is in)
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

for dir in crates/*/src; do
    crate="${dir#crates/}"
    find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk -v crate="${crate%/src}" '
        FNR == 1 { pending = 0; in_test = 0 }
        # rustfmt puts the attribute and the closing brace of a top-level
        # test module at column 0.
        in_test { if ($0 == "}") in_test = 0; next }
        /^#\[cfg\(test\)\]$/ { pending = 1; next }
        pending { pending = 0; if ($0 ~ /^(pub )?mod [a-z_]+ \{$/) { in_test = 1; next } }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { printf "%-12s %6d\n", crate, n }'
done | awk '{ print; total += $2 } END { printf "%-12s %6d\n", "total", total }'
