#!/usr/bin/env bash
# Profile one repository-benchmark workload under gprofng and print the
# hottest functions. The harness is built and run exactly as
# benchmark/run.sh builds and runs it (release, offline, into
# .bench_build), one untraced pass at seed 42, so the profile covers the
# same code the benchmark's end-to-end numbers time.
#
# Usage:
#   scripts/profile.sh <workload> [seconds]
#
#   scripts/profile.sh cell-ema            # 10 s of the EMA cells
#   scripts/profile.sh open-sharded 30     # more seconds = more samples
#
# Workloads are the names in BENCHMARK.json. gprofng percentages are
# trustworthy on a shared VM, absolute times are not; load the
# experiment with `gprofng display text -functions <exp>` for the full
# table. `gateway-live` spends its time in jmso-gateway daemons, child
# processes recorded as descendant experiments: the printed table is the
# harness's side of the socket, `<exp>/_x<N>.er` each daemon life's.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/profile.sh <workload> [seconds]}"
seconds="${2:-10}"

command -v gprofng >/dev/null || {
    echo "gprofng not found on PATH" >&2
    exit 1
}

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
echo "== build the benchmark harness and jmso-gateway into $CARGO_TARGET_DIR"
cargo build --release --offline --quiet -p jmso-gateway-svc --bin jmso-gateway
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
export JMSO_GATEWAY_BIN="$CARGO_TARGET_DIR/release/jmso-gateway"

expdir="$(mktemp -d)/$workload.er"
echo "== gprofng collect app ($workload, seed 42, $seconds s, --trace 0)"
gprofng collect app -o "$expdir" \
    "$CARGO_TARGET_DIR/release/jmso-benchmark" \
    --workload "$workload" --seed 42 --seconds "$seconds" --trace 0 >/dev/null

echo "== hottest functions (exclusive CPU)"
gprofng display text -limit 25 -functions "$expdir"
echo
echo "experiment kept at: $expdir"
echo "drill down with: gprofng display text -callers-callees <fn> $expdir"
