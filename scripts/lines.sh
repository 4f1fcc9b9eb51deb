#!/usr/bin/env bash
# The line report every simplicity change states: `.rs` lines per crate,
# in `examples/` and in `tests/`, then the total; beside each, the
# non-test lines.
#
#   scripts/lines.sh
#
# `all` is `find <dir> -name '*.rs' | xargs cat | wc -l`, so tests, doc
# comments and blank lines count as code does. `non-test` is the lines
# of each file under `src/` before its first top-level `#[cfg(test)]`,
# and every line of `examples/`: what ships, with its docs.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"

# Lines before the first top-level `#[cfg(test)]` of each file named.
shipped() {
    [ "$#" -eq 0 ] && { echo 0; return; }
    awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' "$@"
}

total=0
total_shipped=0
printf '%-10s %6s %9s\n' "" all non-test
for dir in "$root"/crates/* "$root/examples" "$root/tests"; do
    n=$(find "$dir" -name '*.rs' | xargs cat | wc -l)
    case "$dir" in
        "$root/examples") s=$n ;;
        "$root/tests") s=0 ;;
        *) mapfile -t src < <(find "$dir/src" -name '*.rs' | sort)
           s=$(shipped "${src[@]}") ;;
    esac
    printf '%-10s %6d %9d\n' "$(basename "$dir")" "$n" "$s"
    total=$((total + n))
    total_shipped=$((total_shipped + s))
done
printf '%-10s %6d %9d\n' total "$total" "$total_shipped"
