#!/usr/bin/env bash
# The line report every simplicity change states: `.rs` lines per crate,
# in `examples/` and in `tests/`, then the total.
#
#   scripts/lines.sh
#
# Each count is `find <dir> -name '*.rs' | xargs cat | wc -l`, so unit
# tests, doc comments and blank lines count as code does.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
total=0
for dir in "$root"/crates/* "$root/examples" "$root/tests"; do
    n=$(find "$dir" -name '*.rs' | xargs cat | wc -l)
    printf '%-10s %6d\n' "$(basename "$dir")" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
