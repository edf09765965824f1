#!/usr/bin/env bash
# Differential fuzz smoke: a seeded sbd-fuzz campaign across every engine,
# failing on any discrepancy of any oracle law (arena_history_independence
# included: every sample is also solved on a fresh stack and on a stack
# polluted by unrelated patterns, and must come out byte-equal), plus the
# --corrupt self-check proving the oracle still *catches* an injected bug
# (a fuzzer that can never fail is worthless — this guards the guard).
#
# Environment:
#   SBD_FUZZ_SEED        campaign seed (default 1; the CI job runs a small
#                        seed matrix so regressions can't hide behind one
#                        lucky stream)
#   SBD_FUZZ_ITERATIONS  regex count (default 2000)
#   SBD_FUZZ_JSON        report path (default /tmp/sbd-fuzz-report.json;
#                        uploaded as a CI artifact)
#
# Usage: fuzz_smoke.sh [build-dir]
. "$(dirname "$0")/common.sh"

BUILD_DIR="${1:-build}"
SEED="${SBD_FUZZ_SEED:-1}"
ITERATIONS="${SBD_FUZZ_ITERATIONS:-2000}"
REPORT="${SBD_FUZZ_JSON:-/tmp/sbd-fuzz-report.json}"

sbd_configure "$BUILD_DIR"
sbd_build "$BUILD_DIR" sbd-fuzz
FUZZ_BIN="$BUILD_DIR/tools/sbd-fuzz"
[ -x "$FUZZ_BIN" ] || {
  echo "error: $FUZZ_BIN was not built" >&2
  exit 1
}

echo "== fuzz smoke: seed=$SEED iterations=$ITERATIONS =="
"$FUZZ_BIN" --seed "$SEED" --iterations "$ITERATIONS" --json "$REPORT"

echo "== oracle self-check: injected bug must be caught =="
"$FUZZ_BIN" --seed "$SEED" --iterations 500 --corrupt --quiet \
  --json "${REPORT%.json}-corrupt.json"
