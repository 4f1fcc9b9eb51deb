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
# reuses the base build only when --base resolves to that commit, and
# otherwise deletes it: `git archive` stamps every file with its commit's
# time, older than the kept build, so cargo would judge that build fresh.
# On seed i the base runs first when i is even and second when i is
# odd. Each run's result line (the last line of its stdout) is kept in
# DIR/base.jsonl and DIR/change.jsonl, and its `host:` line (raw and
# normalised host times and the reference kernel's rate, on stderr) in
# DIR/base.host and DIR/change.host; all of stderr goes to DIR/log.
#
# For every end-to-end metric of BENCHMARK.json it prints each pair,
# both sides' quartiles and medians, the change's wins and losses (ties
# count for neither) and the verdict of the pairs rule: a GAIN needs the
# change better in at least nine tenths of the pairs and the medians
# apart by more than the base's interquartile range. It prints the
# ruler beside them: each pair and each side's median of `raw_host_s`,
# `raw_setup_s` and `ref_events_per_s` — `host_s` and `setup_s` are raw
# time over the reference kernel's slowdown, so a shift in them is read
# against these. The reference kernel runs inside the binary under
# test, so its rate moves with that binary: when the two sides' median
# `ref_events_per_s` differ by more than the base's interquartile range
# of that rate, the ruler itself shifted, and the `host_s` and `setup_s`
# verdicts read CONFOUNDED (the raw medians are what to go by then). It
# then runs `benchmark/compare.sh` on the two sets, and exits with its
# status.
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
    rm -rf "$out/base" "$out/base-rev" "$out/target-base"
    mkdir -p "$out/base"
    git -C "$root" archive "$rev" | tar -x -C "$out/base"
    build "$out/base" "$out/target-base"
    echo "$rev" > "$out/base-rev"
fi
build "$root" "$out/target-change"

run() { # <side> <seed>
    "$out/target-$1/release/dlaas-benchmark" --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace 0 2> "$out/stderr" | tail -n 1 >> "$out/$1.jsonl"
    cat "$out/stderr" >> "$out/log"
    sed -n 's/^  host://p' "$out/stderr" >> "$out/$1.host"
}
for side in base change; do
    : > "$out/$side.jsonl"
    : > "$out/$side.host"
done
i=0
for seed in ${seeds//,/ }; do
    if [ $((i % 2)) -eq 0 ]; then
        run base "$seed"; run change "$seed"
    else
        run change "$seed"; run base "$seed"
    fi
    i=$((i + 1))
done

python3 - "$root/BENCHMARK.json" "$out/base.jsonl" "$out/change.jsonl" "$seeds" "$workload" \
    "$out/base.host" "$out/change.host" <<'PY'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
base = [json.loads(line) for line in open(sys.argv[2]) if line.strip()]
change = [json.loads(line) for line in open(sys.argv[3]) if line.strip()]
seeds = sys.argv[4].split(",")
# `host:` line fields: raw_host_s host_s raw_setup_s setup_s ref_events_per_s
hosts = [[[float(f) for f in line.split()[:5]] for line in open(p) if line.strip()]
         for p in sys.argv[6:8]]
print(f"workload {sys.argv[5]}: {len(base)} pairs, base vs change")


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    return tuple(statistics.quantiles(vals, n=4))


# The ruler shifted: the sides' reference rates are further apart than
# the base's own spread of that rate.
ref_base, ref_change = ([r[4] for r in side] for side in hosts)
ruler_shift = None
if ref_base and ref_change:
    q = quartiles(ref_base)
    gap = statistics.median(ref_change) - statistics.median(ref_base)
    ruler_shift = (gap, q[2] - q[0])
confounded = ruler_shift is not None and abs(ruler_shift[0]) > ruler_shift[1]

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
    if confounded and name in ("host_s", "setup_s"):
        verdict = f"CONFOUNDED (the ruler shifted; by the pairs rule: {verdict})"
    rel = f"{(mc - mb) / mb:+.1%}" if mb else "n/a"
    print(f"\n{name} ({m['unit']}, {'lower' if lower else 'higher'} is better)")
    print("  pairs: " + "  ".join(f"{s}:{b:.6g}/{c:.6g}" for s, b, c in zip(seeds, vb, vc)))
    print(f"  base   q1 {qb[0]:.6g}  median {mb:.6g}  q3 {qb[2]:.6g}  (IQR {iqr:.6g})")
    print(f"  change q1 {qc[0]:.6g}  median {mc:.6g}  q3 {qc[2]:.6g}")
    print(f"  change vs base {rel}: {wins} wins, {losses} losses of {len(vb)}  -> {verdict}")

print("\nthe ruler (each run's stderr `host:` line)")
for col, name in [(0, "raw_host_s"), (2, "raw_setup_s"), (4, "ref_events_per_s")]:
    vb, vc = ([r[col] for r in side] for side in hosts)
    if not vb or not vc:
        print(f"  {name}: no host lines")
        continue
    mb, mc = statistics.median(vb), statistics.median(vc)
    rel = f"{(mc - mb) / mb:+.1%}" if mb else "n/a"
    print(f"  {name}: base median {mb:.6g}, change median {mc:.6g} ({rel})")
    print("    pairs: " + "  ".join(f"{s}:{b:.6g}/{c:.6g}" for s, b, c in zip(seeds, vb, vc)))
if ruler_shift is not None:
    gap, iqr = ruler_shift
    state = "SHIFTED: host_s and setup_s are CONFOUNDED" if confounded else "steady"
    print(f"  ref_events_per_s median gap {gap:+.6g} against the base's IQR {iqr:.6g}: {state}")
PY
echo
echo "benchmark/compare.sh base change:"
status=0
"$root/benchmark/compare.sh" "$out/base.jsonl" "$out/change.jsonl" || status=$?
echo "runs, builds and logs kept in $out"
exit "$status"
