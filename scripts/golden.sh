#!/usr/bin/env bash
# The byte-identity contract: regenerates every contract artifact and
# checks it against the digests committed in GOLDEN.sha256.
#
#   scripts/golden.sh [--threads T] [--write]
#
# The artifacts are the deterministic outputs of the figure rigs, the
# fault matrix and the three soak presets at smoke size. Each is a
# function of its seed alone, at any thread count, so a change that
# claims to move no behaviour leaves every line of GOLDEN.sha256 as it
# is. A change that moves an artifact on purpose regenerates the file
# with `--write` and commits the edited line: the diff of GOLDEN.sha256
# is its statement of what moved. Wall-clock sidecars
# (`*.wall.json`) and stderr are never digested.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
threads=1
write=0
while [ "$#" -gt 0 ]; do
    case "$1" in
        --threads) threads="$2"; shift 2 ;;
        --write) write=1; shift ;;
        *) echo "usage: $0 [--threads T] [--write]" >&2; exit 2 ;;
    esac
done

cargo build --release -q --manifest-path "$root/Cargo.toml" -p dlaas-bench
bin="${CARGO_TARGET_DIR:-$root/target}/release"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
cd "$out"

"$bin/fig2" --threads "$threads" > fig2.txt
"$bin/fig4" 2018 2 --threads "$threads" > fig4-2018-2.txt
"$bin/fault_matrix" --seeds 2 --threads "$threads" --out fault_matrix-seeds-2.json > /dev/null
"$bin/soak" uniform --threads "$threads" 2018 200 soak-uniform-2018-200.json > /dev/null
"$bin/soak" traffic --threads "$threads" 2018 1000 soak-traffic-2018-1000.json > /dev/null
"$bin/soak" chaos --threads "$threads" 2018 120 soak-chaos-2018-120.json > /dev/null

artifacts=(fig2.txt fig4-2018-2.txt fault_matrix-seeds-2.json
           soak-uniform-2018-200.json soak-traffic-2018-1000.json soak-chaos-2018-120.json)
if [ "$write" = 1 ]; then
    sha256sum "${artifacts[@]}" > "$root/GOLDEN.sha256"
    echo "wrote $root/GOLDEN.sha256"
else
    sha256sum -c "$root/GOLDEN.sha256"
fi
