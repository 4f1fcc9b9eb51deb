#!/usr/bin/env bash
# Alternating pairs of the benchmark: a base revision against this
# checkout's working tree, one workload, one pair per seed.
#
#   scripts/pairs.sh [--base REV] [--workload W] [--seeds S1,S2,...]
#                    [--out DIR]
#
# Defaults: --base HEAD, --workload steady, --seeds 101..110, --out a
# fresh temporary directory (kept, and named at the end). Every run is
# as long as BENCHMARK.json's `run_seconds`.
#
# The base revision is exported with `git archive` into DIR/base, and
# each side's benchmark is built into a target directory of its own
# under DIR, so `benchmark/` and its build directory are never touched.
# DIR/base-rev names the exported commit: a later run with the same DIR
# reuses the base build only when --base resolves to that commit.
# On seed i the base runs first when i is even and second when i is
# odd. Only each run's result line (the last line of its stdout) is
# kept, in DIR/base.jsonl and DIR/change.jsonl; stderr goes to DIR/log.
#
# For every end-to-end metric of BENCHMARK.json it prints each pair,
# both sides' quartiles and medians, the change's wins and losses (ties
# count for neither) and the verdict of the pairs rule: a GAIN needs the
# change better in at least nine tenths of the pairs and the medians
# apart by more than the base's interquartile range. It then runs
# `benchmark/compare.sh` on the two sets, and exits with its status.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
base=HEAD
workload=steady
seeds=101,102,103,104,105,106,107,108,109,110
out=""
while [ "$#" -gt 0 ]; do
    case "$1" in
        --base) base="$2"; shift 2 ;;
        --workload) workload="$2"; shift 2 ;;
        --seeds) seeds="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        *) echo "usage: $0 [--base REV] [--workload W] [--seeds S1,S2,...] [--out DIR]" >&2
           exit 2 ;;
    esac
done
if [ -z "$out" ]; then
    out="$(mktemp -d)"
fi
mkdir -p "$out"
out="$(cd "$out" && pwd)"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")"
rev="$(git -C "$root" rev-parse --verify "$base^{commit}")"

build() { # <checkout> <target dir>
    CARGO_TARGET_DIR="$2" cargo build --release --quiet --offline \
        --manifest-path "$1/benchmark/Cargo.toml" >> "$out/log" 2>&1
}
if [ ! -x "$out/target-base/release/dlaas-benchmark" ] \
    || [ "$(cat "$out/base-rev" 2>/dev/null)" != "$rev" ]; then
    rm -rf "$out/base" "$out/base-rev"
    mkdir -p "$out/base"
    git -C "$root" archive "$rev" | tar -x -C "$out/base"
    build "$out/base" "$out/target-base"
    echo "$rev" > "$out/base-rev"
fi
build "$root" "$out/target-change"

run() { # <side> <seed>
    "$out/target-$1/release/dlaas-benchmark" --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace 0 2>> "$out/log" | tail -n 1 >> "$out/$1.jsonl"
}
: > "$out/base.jsonl"
: > "$out/change.jsonl"
i=0
for seed in ${seeds//,/ }; do
    if [ $((i % 2)) -eq 0 ]; then
        run base "$seed"; run change "$seed"
    else
        run change "$seed"; run base "$seed"
    fi
    i=$((i + 1))
done

python3 - "$root/BENCHMARK.json" "$out/base.jsonl" "$out/change.jsonl" "$seeds" "$workload" <<'PY'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
base = [json.loads(line) for line in open(sys.argv[2]) if line.strip()]
change = [json.loads(line) for line in open(sys.argv[3]) if line.strip()]
seeds = sys.argv[4].split(",")
print(f"workload {sys.argv[5]}: {len(base)} pairs, base vs change")


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    return tuple(statistics.quantiles(vals, n=4))


for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    vb = [r["metrics"][name]["value"] for r in base]
    vc = [r["metrics"][name]["value"] for r in change]
    wins = sum((c < b) if lower else (c > b) for b, c in zip(vb, vc))
    losses = sum((c > b) if lower else (c < b) for b, c in zip(vb, vc))
    qb, qc = quartiles(vb), quartiles(vc)
    mb, mc = statistics.median(vb), statistics.median(vc)
    gap = (mb - mc) if lower else (mc - mb)
    iqr = qb[2] - qb[0]
    gain = wins * 10 >= 9 * len(vb) and gap > iqr
    verdict = "GAIN" if gain else ("same" if wins == losses == 0 else "no claim")
    rel = f"{(mc - mb) / mb:+.1%}" if mb else "n/a"
    print(f"\n{name} ({m['unit']}, {'lower' if lower else 'higher'} is better)")
    print("  pairs: " + "  ".join(f"{s}:{b:.6g}/{c:.6g}" for s, b, c in zip(seeds, vb, vc)))
    print(f"  base   q1 {qb[0]:.6g}  median {mb:.6g}  q3 {qb[2]:.6g}  (IQR {iqr:.6g})")
    print(f"  change q1 {qc[0]:.6g}  median {mc:.6g}  q3 {qc[2]:.6g}")
    print(f"  change vs base {rel}: {wins} wins, {losses} losses of {len(vb)}  -> {verdict}")
PY
echo
echo "benchmark/compare.sh base change:"
status=0
"$root/benchmark/compare.sh" "$out/base.jsonl" "$out/change.jsonl" || status=$?
echo "runs, builds and logs kept in $out"
exit "$status"
