#!/usr/bin/env bash
# Build the program under test and the harness, then run the harness.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh [--seed N] [--seconds S]        every workload, both passes
#   bash benchmark/run.sh --aa [--seed N] [--seconds S]   the full set twice, compared
#   bash benchmark/run.sh report [workload...]            self-time table from the spans
#
# Both builds are release builds from source, offline, into
# $CARGO_TARGET_DIR (default .bench_build at the repository root); build
# output goes to stderr so the harness's last stdout line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p jmso-gateway-svc --bin jmso-gateway 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
export JMSO_GATEWAY_BIN="$CARGO_TARGET_DIR/release/jmso-gateway"
exec "$CARGO_TARGET_DIR/release/jmso-benchmark" "$@"
