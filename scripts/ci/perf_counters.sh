#!/usr/bin/env bash
# Exact work-counter gate over the repository benchmark (DESIGN.md §10).
# Runs perfbench at seed 1 with one-second traced runs and requires, per
# workload, "correct": true and every metric whose unit is `count` equal to
# the checked-in baseline scripts/ci/perf_counters.json. These counters
# repeat exactly across processes, so any difference is a change in the
# work done, not noise.
#
# corpus_dist is left out: its solver counters stay in the worker
# processes, and dist.steals varies between runs.
#
# Usage: perf_counters.sh [--update]
#   --update  rewrite the baseline from this tree's counters. Re-baselining
#             is a reviewed step: record each counter delta in CHANGES.md.
. "$(dirname "$0")/common.sh"

require python3 "needed to run perfbench/run.py"

exec python3 - "$@" << 'EOF'
import json
import subprocess
import sys

BASELINE = "scripts/ci/perf_counters.json"
WORKLOADS = ("corpus_batch", "hard_boolean", "session_replay")

if sys.argv[1:] not in ([], ["--update"]):
    sys.exit("usage: perf_counters.sh [--update]")

measured, failures = {}, []
for workload in WORKLOADS:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode == 2 or not proc.stdout.strip():
        sys.exit(f"perf-counters: perfbench could not build or run {workload}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if not result["correct"]:
        failures.append(f"  {workload}: a correctness check failed")
    measured[workload] = {name: metric["value"]
                          for name, metric in result["metrics"].items()
                          if metric["unit"] == "count"}

if not failures and sys.argv[1:] == ["--update"]:
    with open(BASELINE, "w") as f:
        json.dump(measured, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perf-counters: wrote {BASELINE}")
    sys.exit(0)

with open(BASELINE) as f:
    baseline = json.load(f)
for workload in WORKLOADS:
    base, cur = baseline.get(workload, {}), measured[workload]
    for name in sorted(set(base) | set(cur)):
        if base.get(name) != cur.get(name):
            failures.append(f"  {workload} {name}: {cur.get(name)} vs "
                            f"baseline {base.get(name)}")
if failures:
    print("perf-counters: FAILED")
    print("\n".join(failures))
    print("If the change in work is intended, rerun with --update and "
          "record the deltas in CHANGES.md.")
    sys.exit(1)
count = sum(len(c) for c in measured.values())
print(f"perf-counters: ok ({count} counters over {len(WORKLOADS)} workloads "
      "equal to the baseline)")
EOF
