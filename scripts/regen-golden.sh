#!/usr/bin/env bash
# Regenerate the committed goldens under tests/golden/ from the current
# engine: the slot traces (rtma, ema, ema_fast, the fault-injected
# `faulted` trace, the ABR-ladder `abr` trace and the multicell trace),
# the 84 lines of `multicell.digests`, and `sidecar.digests` (the bytes
# of an open cell's sidecar at slot 200 and a closed VBR cell's at slot
# 150). The scenario definitions live in tests/golden_trace.rs (this
# script just reruns that harness with REGEN_GOLDEN=1, so harness and
# generator can never disagree).
#
# Review the diff before committing: a golden change means the simulation
# output changed, which is either an intentional model change or a bug.
set -euo pipefail
cd "$(dirname "$0")/.."

REGEN_GOLDEN=1 cargo test -q --test golden_trace
git --no-pager diff --stat -- tests/golden
echo "Golden traces regenerated (diff above; empty means no drift)."
