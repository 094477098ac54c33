#!/usr/bin/env bash
# Non-test Rust line count, per crate and in total.
#
#   scripts/loc.sh          # the working tree (tracked and untracked files)
#   scripts/loc.sh <rev>    # any git revision, read with `git show`, no checkout
#
# A file counts up to its first top-level `#[cfg(test)]` line (unit tests
# sit below it); files under a `tests/` or `benches/` directory do not
# count at all. Files under `crates/<name>/` count for `<name>`; the rest
# count for their top-level directory (`src`, `examples`, `perfbench`).
# Comments and blank lines count: this is the size a reader faces.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [[ -n "$rev" ]]; then
    files=$(git ls-tree -r --name-only "$rev")
else
    files=$(git ls-files --cached --others --exclude-standard)
fi

# Counts the lines of one file, up to `#[cfg(test)]`. It reads to the end
# so that `git show` never writes into a closed pipe.
count='/^#\[cfg\(test\)\]/ { seen = 1 } !seen { n++ } END { print n + 0 }'

grep -E '\.rs$' <<< "$files" | grep -vE '(^|/)(tests|benches)/' | sort | while read -r path; do
    if [[ -n "$rev" ]]; then
        lines=$(git show "$rev:$path" | awk "$count")
    elif [[ -f "$path" ]]; then
        lines=$(awk "$count" "$path")
    else
        continue # deleted in the working tree, not yet staged
    fi
    case "$path" in
        crates/*) unit=$(cut -d/ -f2 <<< "$path") ;;
        *) unit=$(cut -d/ -f1 <<< "$path") ;;
    esac
    echo "$unit $lines"
done | awk '
    { sum[$1] += $2; total += $2 }
    END {
        for (unit in sum) printf "%-10s %6d\n", unit, sum[unit] | "sort"
        close("sort")
        printf "%-10s %6d\n", "total", total
    }'
