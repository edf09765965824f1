#!/usr/bin/env bash
# Nightly differential fuzz campaign: keep launching seeded sbd-fuzz runs
# (dist_consistency law included — every 8th arena batch re-solves through
# forked coordinator/worker processes — and arena_history_independence on
# every sample) until the wall-clock budget is
# spent. Much deeper than the 3-seed PR smoke: fresh seeds every night,
# shrunken discrepancies collected as ready-to-paste regression tests.
#
# A failing run does NOT stop the campaign — the remaining budget keeps
# hunting for more counterexamples; the script exits 1 at the end if any
# run failed. Every report and repro lands in SBD_NIGHTLY_OUT, which the
# nightly workflow uploads as an artifact.
#
# Environment:
#   SBD_NIGHTLY_SECONDS    wall-clock budget (default 60)
#   SBD_NIGHTLY_SEED_BASE  first seed (default: day-stamp, so every night
#                          explores a fresh seed range; each report records
#                          its exact seed for reproduction)
#   SBD_NIGHTLY_ITERATIONS regexes per run (default 4000)
#   SBD_NIGHTLY_OUT        report/repro directory (default /tmp/sbd-nightly)
#
# Usage: fuzz_nightly.sh [build-dir]
. "$(dirname "$0")/common.sh"

require python3 "needed to extract shrunken repros from the reports"

BUILD_DIR="${1:-build}"
BUDGET="${SBD_NIGHTLY_SECONDS:-60}"
SEED_BASE="${SBD_NIGHTLY_SEED_BASE:-$(date +%Y%m%d)}"
ITERATIONS="${SBD_NIGHTLY_ITERATIONS:-4000}"
OUT="${SBD_NIGHTLY_OUT:-/tmp/sbd-nightly}"
mkdir -p "$OUT"

sbd_configure "$BUILD_DIR"
sbd_build "$BUILD_DIR" sbd-fuzz
FUZZ_BIN="$BUILD_DIR/tools/sbd-fuzz"
[ -x "$FUZZ_BIN" ] || {
  echo "error: $FUZZ_BIN was not built" >&2
  exit 1
}

echo "== fuzz nightly: budget=${BUDGET}s seed-base=$SEED_BASE" \
  "iterations/run=$ITERATIONS =="
ROUND=0
FAILED=0
SECONDS=0
while [ "$SECONDS" -lt "$BUDGET" ]; do
  SEED=$((SEED_BASE + ROUND))
  REPORT="$OUT/report-seed-$SEED.json"
  echo "-- round $ROUND: seed=$SEED (${SECONDS}s/${BUDGET}s elapsed) --"
  if ! "$FUZZ_BIN" --seed "$SEED" --iterations "$ITERATIONS" \
    --dist 8 --dist-workers 3 --json "$REPORT" \
    2> "$OUT/summary-seed-$SEED.log"; then
    FAILED=1
    echo "seed $SEED FAILED — extracting shrunken repros" >&2
    # The report carries the already-shrunk counterexamples; the summary
    # log carries the rendered regression tests. Condense both into one
    # repro file per seed for the artifact.
    python3 - "$REPORT" "$OUT/repro-seed-$SEED.txt" << 'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    rep = json.load(f)
with open(sys.argv[2], "w") as out:
    out.write(f"# sbd-fuzz nightly repro: seed={rep['seed']} "
              f"iterations={rep['iterations']}\n")
    out.write(f"# rerun: sbd-fuzz --seed {rep['seed']} "
              f"--iterations {rep['iterations']} --dist 8\n\n")
    for i, d in enumerate(rep.get("discrepancies", []), 1):
        out.write(f"## discrepancy {i}\n")
        out.write(f"law:     {d['law']}\n")
        out.write(f"engine:  {d['engine']}\n")
        out.write(f"pattern: {d['pattern']} ({d['regex_nodes']} nodes, "
                  "shrunk)\n")
        out.write(f"word:    {d['word']} (utf8 {d['word_utf8']!r})\n")
        out.write(f"detail:  {d['detail']}\n\n")
EOF
  fi
  ROUND=$((ROUND + 1))
done

echo "== fuzz nightly: $ROUND runs in ${SECONDS}s =="
if [ "$FAILED" -ne 0 ]; then
  echo "fuzz nightly: FAILED — see $OUT/repro-seed-*.txt" >&2
  exit 1
fi
echo "fuzz nightly: all $ROUND runs clean"
