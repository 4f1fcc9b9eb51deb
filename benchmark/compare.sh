#!/usr/bin/env bash
# Two-set agreement check.
#
#   benchmark/compare.sh A.jsonl B.jsonl
#
# A and B each hold the result lines (the last stdout line of a run) of
# several `--trace 0` runs of ONE workload, one JSON object per line.
# For every end-to-end metric in BENCHMARK.json this prints each set's
# median, each set's spread (interquartile range over median, as
# `statistics.quantiles(values, n=4)` gives it) and whether B's median is
# worse than A's by more than the metric's own bound. Exits 1 if any
# metric is, or if a spread exceeds its bound (then the comparison is
# unresolved, not passed).
set -euo pipefail
if [ "$#" -ne 2 ]; then
    echo "usage: $0 A.jsonl B.jsonl" >&2
    exit 2
fi
here="$(cd "$(dirname "$0")" && pwd)"
exec python3 - "$here/../BENCHMARK.json" "$1" "$2" <<'PY'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))


def load(path):
    runs = [json.loads(line) for line in open(path) if line.strip()]
    if not runs:
        sys.exit(f"{path}: no runs")
    for r in runs:
        if not r["correct"]:
            sys.exit(f"{path}: holds an incorrect run")
    return runs


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def spread(vals):
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


a, b = load(sys.argv[2]), load(sys.argv[3])
bad = False
print(f"{'metric':<26}{'median A':>14}{'median B':>14}{'B vs A':>9}{'spread A':>10}{'spread B':>10}{'bound':>7}  verdict")
for m in spec["end_to_end"]:
    name, bound = m["name"], m["bound"]
    va, vb = values(a, name), values(b, name)
    ma, mb = statistics.median(va), statistics.median(vb)
    worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
    sa, sb = spread(va), spread(vb)
    if name != "setup_s" and max(sa, sb) > bound:
        verdict, bad = "UNRESOLVED (spread > bound)", True
    elif worse > bound:
        verdict, bad = "WORSE", True
    else:
        verdict = "ok"
    print(f"{name:<26}{ma:>14.6g}{mb:>14.6g}{worse:>+9.2%}{sa:>10.2%}{sb:>10.2%}{bound:>7.2f}  {verdict}")
sys.exit(1 if bad else 0)
PY
