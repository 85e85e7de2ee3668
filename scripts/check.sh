#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from anywhere inside the repo; fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

# CHANGES.md stays readable: the newest `- PR N` entry, its sub-bullets
# included, is at most 600 characters (the detail goes in the commit
# message). `FOUND:` lines are bullets of their own and do not count.
echo "== CHANGES.md newest PR entry (<= 600 characters)"
python3 - CHANGES.md <<'EOF'
import re, sys
lines = open(sys.argv[1], encoding="utf-8").read().splitlines()
starts = [i for i, line in enumerate(lines) if re.match(r"- PR \d+", line)]
if not starts:
    sys.exit("CHANGES.md has no `- PR N` entry")
entry = [lines[starts[-1]]]
for line in lines[starts[-1] + 1 :]:
    if not line.startswith("  "):
        break
    entry.append(line)
size = len("\n".join(entry))
print(f"{entry[0][:40]}...: {size} characters")
if size > 600:
    sys.exit(f"the newest CHANGES.md entry is {size} characters, over 600")
EOF

# One invocation carries the panic burn-down too: the root manifest's
# `[workspace.lints]` table denies unwrap/expect/panic in the six crates
# that opt in with `[lints] workspace = true` (sched, sim, media,
# gateway, radio, gateway-svc), and clippy.toml keeps their test code
# exempt — so a stray unwrap in, say, the information collector fails
# here.
echo "== cargo clippy (deny warnings; no unwrap/expect/panic in library code)"
cargo clippy --workspace --all-targets -- -D warnings

# Broken or private intra-doc links, private items included: the docs
# name items across module boundaries, so a moved item shows up here.
echo "== cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --document-private-items -q

# Tier-1: the root package and every crate under crates/ (the root
# manifest's `default-members`), unit, integration and doc tests.
echo "== cargo test"
cargo test -q

# The paper as a gate: every figure and ablation, regenerated in a
# scratch directory at the default width and again at one thread, must
# be byte-equal to its committed file in results/ (≈ 5 s a run). An
# empty JMSO_THREADS falls back to the machine's width.
repo=$PWD
for threads in "" 1; do
    echo "== repro all ablations --svg ≡ results/ (JMSO_THREADS=${threads:-unset})"
    figs=$(mktemp -d)
    (cd "$figs" && JMSO_THREADS="$threads" cargo run --release -q \
        --manifest-path "$repo/Cargo.toml" -p jmso-bench --bin repro -- all ablations --svg \
        >/dev/null)
    diff -r "$figs/results" results \
        || { echo "repro output differs from results/"; rm -rf "$figs"; exit 1; }
    rm -rf "$figs"
done

# `vendor/*` stays outside the default set. Every durable byte (traces,
# sidecars, scenario files) is printed by the vendored serde stubs, and
# every socket line is read by them: the writer-vs-reference-printer
# oracle, the reader-vs-tree-parser differential (generated documents,
# every truncation and byte substitution of a sample), the derive shape
# pins, the edge corpus and the nesting cap live in their own test
# targets (the seeded fuzz loop over socket lines, sidecars and traces
# is Tier-1's `tests/wire_formats.rs`). Every property test above draws
# its cases from the proptest and rand stubs, and the gateway's protocol
# parser, DPI and receiver carry payloads in the bytes stub, so their
# own unit tests run here too.
echo "== cargo test -p serde -p serde_json -p serde_derive -p proptest -p rand -p bytes"
cargo test -q -p serde -p serde_json -p serde_derive -p proptest -p rand -p bytes

# The repository benchmark is a workspace of its own (benchmark/) that
# compiles against the crates' public surface; a PR that breaks that
# surface would otherwise first fail in the pipeline that runs it. Its
# own tests run too: among them, that the `gateway-live` feed lines stay
# under the protocol's line cap and carry every event.
echo "== benchmark harness builds against the tree, and its tests pass"
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}" \
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}" \
    cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# Two short passes of the open-system workload: their checks (rep ≡
# rep, the harness's "sharded" path ≡ serial, the committed seed-42
# digest, exact work counts) are the only default gate on the slot loop
# at pool scale, and the harness is already built. The traced pass records
# every admission ruling; the untraced one runs the tick as the clock
# sees it, whose recorder gets none.
for trace in 1 0; do
    echo "== benchmark open-sharded, 3 s, --trace $trace"
    bash benchmark/run.sh --workload open-sharded --seconds 3 --trace "$trace" \
        | tail -n 1 | grep -q '"correct": true' \
        || { echo "open-sharded --trace $trace did not report \"correct\": true"; exit 1; }
done

# One short pass of the EMA cell: its seed-42 digest was committed when
# EMA's production solver was a table DP, so `"correct": true` here is
# the standing whole-run evidence that the greedy allocates what the DP
# did (alongside rep ≡ rep and run ≡ run_reference).
echo "== benchmark cell-ema, 3 s"
bash benchmark/run.sh --workload cell-ema --seed 42 --seconds 3 --trace 0 \
    | tail -n 1 | grep -q '"correct": true' \
    || { echo "cell-ema did not report \"correct\": true"; exit 1; }

# And one of the Default cell: its digest and rep ≡ rep checks are the
# whole-run evidence for Default's live-row sweep, which no other
# default gate runs under the paper's closed cell.
echo "== benchmark cell-default, 3 s"
bash benchmark/run.sh --workload cell-default --seed 42 --seconds 3 --trace 0 \
    | tail -n 1 | grep -q '"correct": true' \
    || { echo "cell-default did not report \"correct\": true"; exit 1; }

# And one of the daemon: the real jmso-gateway fed its 80k-event script
# over a Unix socket. Every feed line goes through the JSON reader and
# every `arrive` through DPI, and `"correct": true` is the daemon's trace
# ≡ the batch run's bytes and the committed seed-42 digest.
echo "== benchmark gateway-live, 3 s"
bash benchmark/run.sh --workload gateway-live --seed 42 --seconds 3 --trace 0 \
    | tail -n 1 | grep -q '"correct": true' \
    || { echo "gateway-live did not report \"correct\": true"; exit 1; }

# Golden-trace drift gate: the byte-equality tests above already diff
# the six committed traces (and Tier-1 runs the fault and ABR property
# packs); this *regenerates* them from the current engine and fails if
# a file changed, catching a trace that was hand-edited or left stale
# after an intentional model change.
echo "== golden trace regeneration"
scripts/regen-golden.sh
git diff --exit-code -- tests/golden

# Service-mode gate: SVC=1 launches the real jmso-gateway binary on a
# Unix socket, feeds a scripted session schedule, kill -9s it mid-run,
# restarts it, and asserts the resumed trace is byte-identical to the
# uninterrupted batch golden under the Stall policy; then the same
# through a twenty-life kill storm with a sidecar in flight at every slot.
if [[ "${SVC:-0}" == "1" ]]; then
    echo "== service crash-recovery gate (SVC=1)"
    scripts/svc-gate.sh
    # The benchmark's own live checks (daemon trace ≡ batch bytes, the
    # committed seed-42 digest, exit codes, the --fail-at restart life)
    # on the traced pass; the default path above ran the untraced one.
    echo "== benchmark gateway-live, 3 s, --trace 1 (SVC=1)"
    bash benchmark/run.sh --workload gateway-live --seconds 3 --trace 1 \
        | tail -n 1 | grep -q '"correct": true' \
        || { echo "gateway-live --trace 1 did not report \"correct\": true"; exit 1; }
fi

# For information: the counts the ROADMAP re-anchors quote. Two gates
# ride beside them: the daemon's `signal(2)` is the only `unsafe` left
# under crates/, and a second one fails the check; and DESIGN.md may
# shrink but not grow past its size when the ratchet was set.
echo "== line counts"
loc=$(scripts/loc.sh)
echo "$loc"
unsafe=$(echo "$loc" | awk -F: '/^unsafe mentions under crates\// { print $2 + 0 }')
if (( unsafe > 1 )); then
    echo "unsafe mentions under crates/ rose to $unsafe (at most 1)"
    exit 1
fi
design=$(wc -c <DESIGN.md)
if (( design > 116222 )); then
    echo "DESIGN.md grew to $design bytes (at most 116222)"
    exit 1
fi

echo "All checks passed."
