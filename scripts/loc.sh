#!/usr/bin/env bash
# The line counts ROADMAP re-anchors report, measured instead of by hand:
# the non-test count the round's size budget targets (every .rs file
# under crates/*/src, src/ and examples/, each up to its first
# `#[cfg(test)]`) and, on a line of its own, the test lines beside it
# (tests/ and crates/*/tests/, reported, never targeted); the slot
# loop's (engine.rs, its child modules under engine/, and multicell.rs)
# and the sim crate's non-test lines, then each sim module's, Rust
# source lines by tree, and mentions of the `unsafe` keyword under
# crates/ (as a word, so the `unsafe_code` lint's allows are not
# counted). Information, apart from the `unsafe` count, on which
# scripts/check.sh fails above 1.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of each file before its first `#[cfg(test)]`, summed.
nontest() {
    awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }' "$@"
}

# Lines of every .rs file under the given trees.
rs_lines() {
    find "$@" -name '*.rs' -not -path '*/target/*' -exec cat {} + | wc -l | tr -d ' '
}

# shellcheck disable=SC2046 # one word per path
echo "non-test (crates/*/src, src/, examples/): $(nontest $(find crates/*/src src examples -name '*.rs'))"
echo "test lines (tests/, crates/*/tests/):     $(rs_lines tests crates/*/tests)"
echo "engine.rs + engine/*.rs + multicell.rs non-test: $(nontest crates/sim/src/engine.rs crates/sim/src/engine/*.rs crates/sim/src/multicell.rs)"
# shellcheck disable=SC2046 # one word per path
echo "crates/sim/src non-test:           $(nontest $(find crates/sim/src -name '*.rs'))"
for f in $(find crates/sim/src -name '*.rs' | sort); do
    printf '  %-32s %6s\n' "${f#crates/sim/src/}" "$(nontest "$f")"
done
echo "crates/ src/ tests/ examples/:     $(rs_lines crates src tests examples)"
echo "vendor/:                           $(rs_lines vendor)"
echo "benchmark/:                        $(rs_lines benchmark)"
echo "unsafe mentions under crates/:     $(grep -rnw --include='*.rs' unsafe crates | wc -l | tr -d ' ')"
