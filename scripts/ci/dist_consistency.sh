#!/usr/bin/env bash
# Distributed-consistency gate (DESIGN.md §16): the corpus through the
# sbd-dist coordinator/worker layer must produce the same canonical
# verdict stream no matter how many worker processes solve it, and a
# worker crash mid-run must recover through requeue-once with zero lost or
# duplicated verdicts.
#
# Gates (all hard failures):
#   - 1-worker and N-worker verdict streams byte-identical;
#   - worker-kill run (worker 1 dies on its 3rd request): stream still
#     byte-identical, >= 1 crash observed, >= 1 requeue, 0 lost verdicts;
#   - every run emits exactly one verdict line per corpus pattern;
#   - both clean runs solved the same nonzero query count with 0 lost;
#   - perf: N-worker wall <= 0.6x 1-worker wall, enforced only on
#     multi-core hosts (the CI runners; a 1-core container cannot speed
#     up by adding processes, so there the check is skipped loudly).
#
# Besides its build tree it writes only into a temporary directory, so no
# tracked file changes.
#
# Environment:
#   SBD_DIST_SCALE     corpus scale (default 0.05)
#   SBD_DIST_SEED      corpus seed (default 2021)
#   SBD_DIST_WORKERS   N for the multi-process runs (default 4)
#
# Usage: dist_consistency.sh [build-dir]
. "$(dirname "$0")/common.sh"

require python3 "needed to evaluate the stats JSON"

BUILD_DIR="${1:-build-release}"
SCALE="${SBD_DIST_SCALE:-0.05}"
SEED="${SBD_DIST_SEED:-2021}"
WORKERS="${SBD_DIST_WORKERS:-4}"
sbd_workdir WORK dist-consistency # trap-managed: removed on any exit

# The gate times a worker-scaling ratio, so measure an optimized build.
sbd_configure "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
sbd_build "$BUILD_DIR" sbd-dist
DIST="$BUILD_DIR/tools/sbd-dist"
[ -x "$DIST" ] || {
  echo "error: sbd-dist was not built" >&2
  exit 1
}

echo "== dist-consistency: exporting corpus (scale=$SCALE seed=$SEED) =="
"$DIST" --gen --scale "$SCALE" --seed "$SEED" \
  --export-corpus "$WORK/corpus.txt"
PATTERNS=$(wc -l < "$WORK/corpus.txt")
[ "$PATTERNS" -gt 0 ] || {
  echo "error: exported corpus is empty" >&2
  exit 1
}
echo "corpus: $PATTERNS patterns"

run_dist() { # run_dist <label> <extra flags...>
  local label="$1"
  shift
  "$DIST" --corpus "$WORK/corpus.txt" --stats "$@" \
    > "$WORK/$label.out" 2> "$WORK/$label.json"
}

echo "== pass 1: 1 worker =="
run_dist w1 --workers 1
echo "== pass 2: $WORKERS workers =="
run_dist wn --workers "$WORKERS"
echo "== pass 3: $WORKERS workers, worker 1 killed on its 3rd request =="
run_dist kill --workers "$WORKERS" --test-crash-worker 1:3

for label in w1 wn kill; do
  LINES=$(wc -l < "$WORK/$label.out")
  [ "$LINES" -eq "$PATTERNS" ] || {
    echo "error: $label run emitted $LINES verdicts for $PATTERNS patterns" \
      >&2
    exit 1
  }
done

if ! cmp -s "$WORK/w1.out" "$WORK/wn.out"; then
  echo "error: 1-worker and $WORKERS-worker verdict streams differ" >&2
  diff "$WORK/w1.out" "$WORK/wn.out" | head -20 >&2
  exit 1
fi
echo "1-worker vs $WORKERS-worker: byte-identical ($PATTERNS verdicts)"

if ! cmp -s "$WORK/w1.out" "$WORK/kill.out"; then
  echo "error: worker-kill run diverged from the clean stream" >&2
  diff "$WORK/w1.out" "$WORK/kill.out" | head -20 >&2
  exit 1
fi

python3 - "$WORK/w1.json" "$WORK/wn.json" "$WORK/kill.json" << 'EOF'
import json
import os
import sys

w1, wn, kill = (json.load(open(path)) for path in sys.argv[1:4])
workers = wn.get("workers")

failures = []
for doc, label in ((w1, "1-worker"), (wn, f"{workers}-worker")):
    if doc.get("queries", 0) <= 0:
        failures.append(f"{label} run solved no queries")
    if doc.get("lost", 0) != 0:
        failures.append(f"{label} run lost {doc['lost']} verdicts")
if w1.get("queries") != wn.get("queries"):
    failures.append(f"query counts differ: {w1.get('queries')} vs "
                    f"{wn.get('queries')}")
if kill.get("worker_crashes", 0) < 1:
    failures.append("kill run observed no worker crash (test hook inert?)")
if kill.get("requeues", 0) < 1:
    failures.append("kill run recovered without requeuing (lost in-flight?)")
if kill.get("lost", 0) != 0:
    failures.append(f"kill run lost {kill['lost']} verdicts")

# Forked workers time-slice a single core, so the scaling ratio only
# means something on a host with >= 2 cores.
DIST_GATE = 0.60
w1_us, wn_us = w1.get("wall_us", 0), wn.get("wall_us", 0)
cores = os.cpu_count() or 1
ratio = wn_us / w1_us if w1_us > 0 else None
if ratio is None:
    failures.append("1-worker run recorded no wall time")
elif cores < 2:
    print(f"dist-consistency: SCALING GATE SKIPPED: this host has {cores} "
          f"core, and {workers} forked workers cannot beat one process on "
          "one core. The correctness checks still apply.")
elif ratio > DIST_GATE:
    failures.append(
        f"{workers}-worker wall {wn_us}us > {DIST_GATE}x the 1-worker wall "
        f"{w1_us}us ({ratio:.2f}x): adding workers is not buying "
        "throughput (admission control stalled, or steals stopped firing?)")

if failures:
    print("dist-consistency: FAILED")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print(f"worker-kill recovery: ok ({kill['worker_crashes']} crash, "
      f"{kill['requeues']} requeued, 0 lost)")
print(f"scaling: {workers} workers {wn_us}us vs 1 worker {w1_us}us = "
      f"{ratio:.2f}x, gate {DIST_GATE}x "
      f"{'enforced' if cores >= 2 else 'skipped'} on {cores} cores, "
      f"steals={wn.get('steals', 0)}")
EOF
