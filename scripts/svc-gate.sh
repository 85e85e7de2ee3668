#!/usr/bin/env bash
# Service-mode crash-recovery gate (SVC=1 scripts/check.sh).
#
# End-to-end over the real binary and a real Unix socket:
#   1. emit a matched scenario pack (live + declared-batch + feed),
#   2. produce the batch golden trace with jmso-sim,
#   3. serve the live scenario paced in real time, feed the scripted
#      sessions over the socket, then kill -9 the service mid-run,
#   4. restart it and let it resume from the periodic checkpoint,
#   5. assert the resumed run's trace is byte-identical to the batch
#      golden under the Stall policy.
# A cold start instead of a resume would re-enter the holding state
# (nobody re-feeds the schedule) and trip the completion timeout.
#
# Then a kill storm on the persist thread: an unpaced run that hands a
# sidecar off at every slot boundary, so twenty kill -9s a few ms apart
# land inside spool syncs, staged sidecars and renames:
#   6. serve a 200-user pack with --ckpt-every 1, up to twenty lives,
#      each fed if it came up holding and killed 5–50 ms later (a life
#      may finish the run first, even before its socket is seen),
#   7. one more life to completion unless the run is over and clean;
#      assert its trace is the batch golden and no sidecar, spool or
#      staged `.tmp` is left.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q -p jmso-gateway-svc -p jmso-sim
GW=target/debug/jmso-gateway
SIM=target/debug/jmso-sim

D=$(mktemp -d)
SOCK="$D/gw.sock"
SERVE_ARGS=("$D/scenario.live.json" --listen "unix:$SOCK" --ingest
            --trace "$D/live.jsonl" --ckpt "$D/ckpt.json" --ckpt-every 4
            --policy stall --slot-ms 100)
cleanup() {
    [[ -n "${PID:-}" ]] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$D"
}
trap cleanup EXIT

echo "== svc gate: scenario pack"
"$GW" template 4 --slots 240 --out-dir "$D"

echo "== svc gate: batch golden"
"$SIM" run "$D/scenario.batch.json" --trace "$D/golden.jsonl" >/dev/null

echo "== svc gate: serve, feed, kill -9 mid-run"
"$GW" serve "${SERVE_ARGS[@]}" &
PID=$!
for _ in $(seq 50); do [[ -S "$SOCK" ]] && break; sleep 0.1; done
[[ -S "$SOCK" ]] || { echo "service socket never appeared"; exit 1; }
"$GW" send "unix:$SOCK" --file "$D/feed.jsonl" >/dev/null
sleep 0.5
kill -9 "$PID" 2>/dev/null || { echo "service finished before the kill"; exit 1; }
wait "$PID" 2>/dev/null || true
PID=
[[ -f "$D/ckpt.json" ]] || { echo "no durable checkpoint at kill time"; exit 1; }
[[ -f "$D/live.jsonl" ]] && { echo "trace written before completion"; exit 1; }

echo "== svc gate: restart and resume"
timeout 60 "$GW" serve "${SERVE_ARGS[@]}"

[[ -f "$D/ckpt.json" ]] && { echo "completion left the checkpoint behind"; exit 1; }
cmp "$D/live.jsonl" "$D/golden.jsonl" || {
    echo "resumed live trace differs from the batch golden"; exit 1;
}
echo "svc gate passed: resumed trace is byte-identical to the batch golden."

echo "== svc gate: kill storm, scenario pack and batch golden"
S="$D/storm"
mkdir "$S"
"$GW" template 200 --slots 1800 --out-dir "$S" >/dev/null
"$SIM" run "$S/scenario.batch.json" --trace "$S/golden.jsonl" >/dev/null
STORM_ARGS=("$S/scenario.live.json" --listen "unix:$S/gw.sock" --ingest
            --trace "$S/live.jsonl" --ckpt "$S/ckpt.json" --ckpt-every 1
            --policy stall)

# One daemon life: wait for its socket, and feed it if it came up holding
# (no usable sidecar yet, or an unusable pair: a resumed life carries the
# schedule in its sidecar and is already stepping).
start_life() {
    rm -f "$S/gw.sock"
    "$GW" serve "${STORM_ARGS[@]}" 2>>"$S/serve.log" &
    PID=$!
    for _ in $(seq 100); do [[ -S "$S/gw.sock" ]] && break; sleep 0.05; done
    if [[ ! -S "$S/gw.sock" ]]; then
        # A resumed life can run the rest of the horizon between two polls.
        [[ -f "$S/live.jsonl" ]] && return 0
        echo "storm: service socket never appeared"; exit 1
    fi
    if "$GW" send "unix:$S/gw.sock" '{"cmd":"status"}' 2>/dev/null | grep -q '"state":"holding"'; then
        "$GW" send "unix:$S/gw.sock" --file "$S/feed.jsonl" >/dev/null
    fi
}

echo "== svc gate: kill storm, twenty lives"
delays=()
for _ in $(seq 20); do
    [[ -f "$S/live.jsonl" ]] && break
    start_life
    ms=$((RANDOM % 46 + 5))
    delays+=("$ms")
    sleep "$(printf '0.%03d' "$ms")"
    kill -9 "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    PID=
done
echo "killed after (ms): ${delays[*]}"

echo "== svc gate: kill storm, one life to completion"
# A life killed between writing the trace and removing its sidecar left
# both: the next one resumes, runs the tail again and cleans up.
if [[ ! -f "$S/live.jsonl" || -f "$S/ckpt.json" ]]; then
    [[ -f "$S/ckpt.json" ]] || { echo "storm: no durable checkpoint after twenty lives"; exit 1; }
    echo "resuming at $(grep -o '"slot":[0-9]*' "$S/ckpt.json" | head -n 1)"
    start_life
    timeout 120 tail --pid="$PID" -f /dev/null || { echo "storm: the last life did not finish"; exit 1; }
    wait "$PID" || { echo "storm: the last life failed"; cat "$S/serve.log"; exit 1; }
    PID=
fi
cmp "$S/live.jsonl" "$S/golden.jsonl" || {
    echo "storm: final trace differs from the batch golden"; exit 1;
}
for left in "$S/ckpt.json" "$S/ckpt.json.tmp" "$S/live.jsonl.spool" "$S/live.jsonl.tmp"; do
    [[ -e "$left" ]] && { echo "storm: completion left $left behind"; exit 1; }
done
echo "svc gate passed: after ${#delays[@]} lives of the storm the trace is still the batch golden."
