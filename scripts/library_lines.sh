#!/usr/bin/env bash
# Library lines: every line of a tracked library source file before its
# first column-0 `#[cfg(test)]`, over crates/*/src and the root src/. The
# pattern is anchored on purpose: an indented, field-level `#[cfg(test)]`
# does not start a file's tests.
#
# Usage: scripts/library_lines.sh [FILE...]
# Prints one line per crate (the root package as `root`), the total, and
# then the count of each FILE given.
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files 'crates/*/src/*.rs' 'src/*.rs' | xargs awk '
    /^#\[cfg\(test\)\]/ { nextfile }
    {
        split(FILENAME, part, "/")
        crate = part[1] == "crates" ? part[2] : "root"
        lines[crate]++
        total++
    }
    END {
        for (c in lines) printf "%-10s %6d\n", c, lines[c] | "sort"
        close("sort")
        printf "%-10s %6d\n", "total", total
    }'

for file in "$@"; do
    printf '%s %d\n' "$file" "$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
done
