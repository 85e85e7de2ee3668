#!/usr/bin/env bash
# Alternating parent/change pairs of one repository-benchmark workload:
# the measurement every perf PR owes (choosing-metrics §8), in one
# command instead of by hand.
#
# Usage:
#   scripts/ab-pairs.sh <parent-rev> <workload> [pairs=5]
#
#   scripts/ab-pairs.sh HEAD open-sharded        # the working tree against its last commit
#   scripts/ab-pairs.sh HEAD~1 cell-default 10
#
# The parent is exported from git (`git archive <parent-rev>`, so the
# repository's own metadata is not touched and a dirty tree is fine) into
# a temporary directory with its own CARGO_TARGET_DIR; the change is the
# working tree, built into .bench_build as `benchmark/run.sh` always
# does. Each side is built and warmed by one discarded 1 s run, then
# every pair runs
#   benchmark/run.sh --workload W --seed 42 --seconds 20 --trace 0
# on both, the side that goes first alternating from pair to pair. For
# each of BENCHMARK.json's end-to-end metrics it prints every pair's
# change ÷ parent, both sides' median and quartiles, the median ratio,
# and how many pairs the change won in the metric's own direction.
# AB_SEED / AB_SECONDS override the seed and run length (a claim should
# also hold on a seed not used while the change was written). A run that
# does not end in `"correct": true` stops the script.
#
# AB_TRACE=1 makes every run the traced pass (`--trace 1`) instead, and
# the table covers BENCHMARK.json's per-layer metrics — each one that is
# non-zero on either side — so a claimed move can be attributed to the
# layer it came from (`sim.finish_s`, `sim.phase.*`, work counts that
# must repeat exactly).
#
# Needs TMPDIR (default /tmp) to hold a second checkout and its build,
# about 1 GB.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:?usage: scripts/ab-pairs.sh <parent-rev> <workload> [pairs=5]}"
workload="${2:?usage: scripts/ab-pairs.sh <parent-rev> <workload> [pairs=5]}"
pairs="${3:-5}"
seed="${AB_SEED:-42}"
seconds="${AB_SECONDS:-20}"
trace="${AB_TRACE:-0}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$tmp/parent"

# run <side> <seconds>: the result line of one benchmark run.
run() {
    local line
    if [[ "$1" == parent ]]; then
        line="$(CARGO_TARGET_DIR="$tmp/target" bash "$tmp/parent/benchmark/run.sh" \
            --workload "$workload" --seed "$seed" --seconds "$2" --trace "$trace" | tail -n 1)"
    else
        line="$(bash benchmark/run.sh \
            --workload "$workload" --seed "$seed" --seconds "$2" --trace "$trace" | tail -n 1)"
    fi
    grep -q '"correct": true' <<<"$line" || {
        echo "$1 did not report \"correct\": true: $line" >&2
        exit 1
    }
    echo "$line"
}

echo "== build and warm both sides ($rev vs the working tree)" >&2
run parent 1 >/dev/null
run change 1 >/dev/null

for i in $(seq "$pairs"); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "== pair $i/$pairs: $side" >&2
        run "$side" "$seconds" >>"$tmp/$side.jsonl"
    done
done

python3 - BENCHMARK.json "$tmp/parent.jsonl" "$tmp/change.jsonl" "$trace" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
load = lambda p: [json.loads(line)["metrics"] for line in open(p)]
parent, change = load(sys.argv[2]), load(sys.argv[3])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


traced = sys.argv[4] == "1"
for m in spec["per_layer" if traced else "end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    value = lambda r: r.get(name, {}).get("value", 0.0)
    a = [value(r) for r in parent]
    b = [value(r) for r in change]
    if traced and not any(a + b):
        continue
    ratios = [y / x if x else float("nan") for x, y in zip(a, b)]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    bound = "" if traced else f", bound {m['bound']:.0%}"
    print(f"{name} ({m['unit']}, {m['better']} is better{bound})")
    print("  change / parent per pair: " + "  ".join(f"{r:.3f}" for r in ratios))
    print(f"  parent median {a2:.6g} (quartiles {a1:.6g} .. {a3:.6g})")
    print(f"  change median {b2:.6g} (quartiles {b1:.6g} .. {b3:.6g})")
    print(f"  median ratio {statistics.median(ratios):.3f}, change better in {wins}/{len(ratios)} pairs")
EOF
