#!/usr/bin/env bash
# Added, removed and net Rust lines of the working tree against a base
# revision, from `git diff --numstat`, split into test code (any path
# with a `tests/` or `benches/` directory) and the rest. Untracked
# `*.rs` files count as added. Inline `#[cfg(test)]` modules count as
# the rest: numstat sees files, not items.
#
# Usage: scripts/rust_lines.sh [base]   (base defaults to HEAD)
set -euo pipefail

cd "$(dirname "$0")/.."
base="${1:-HEAD}"

{
    git diff --numstat "$base" -- '*.rs'
    git ls-files --others --exclude-standard -- '*.rs' | while read -r path; do
        printf '%s\t0\t%s\n' "$(wc -l <"$path")" "$path"
    done
} | awk -v base="$base" '
    function signed(n) { return (n > 0 ? "+" : "") n }
    {
        kind = ($3 ~ /(^|\/)(tests|benches)\//) ? "tests" : "other"
        added[kind] += $1
        removed[kind] += $2
    }
    END {
        printf "Rust lines vs %s\n", base
        printf "%-14s %8s %8s %8s\n", "", "added", "removed", "net"
        split("tests other", kinds, " ")
        for (i = 1; i <= 2; i++) {
            k = kinds[i]
            printf "%-14s %8d %8d %8s\n", (k == "tests" ? "tests/benches" : "other"),
                added[k], removed[k], signed(added[k] - removed[k])
            total_added += added[k]
            total_removed += removed[k]
        }
        printf "%-14s %8d %8d %8s\n", "total", total_added, total_removed,
            signed(total_added - total_removed)
    }'
