#!/usr/bin/env bash
# Debug-build bench pass at --quick scale: exercises every harness binary's
# full code path without turning the tier-1 gate into a benchmark run. Also
# runs the release-mode bench smoke and validates the observability JSON
# outputs (DESIGN.md §8).
#
# Usage: bench_debug.sh [debug-build-dir]
. "$(dirname "$0")/common.sh"

BUILD_DIR="${1:-build}"

# Every harness binary must exist and exit 0. The loop counts what it ran:
# a glob that matches nothing (e.g. after a build-layout change) must fail
# the step, not silently pass it.
ran=0
for b in "$BUILD_DIR"/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    "$b" --quick
    ran=$((ran + 1))
  fi
done
if [ "$ran" -eq 0 ]; then
  echo "error: no bench binaries found under $BUILD_DIR/bench — did the build run?" >&2
  exit 1
fi
echo "bench smoke: $ran harness binaries ran clean"

# Release-mode bench smoke: catches perf-path regressions that only compile
# (or only crash) under optimization, and keeps the --quick flag working.
sbd_configure build-release -DCMAKE_BUILD_TYPE=Release
sbd_build build-release bench_micro bench_smt_corpus
build-release/bench/bench_micro --quick
build-release/bench/bench_smt_corpus --quick --trace /tmp/sbd-trace.json \
  --stats-json /tmp/sbd-stats.json

# Stats smoke: the observability outputs must stay valid JSON with the
# documented keys.
require python3 "needed for the stats smoke assertions"
python3 - << 'EOF'
import json
trace = json.load(open("/tmp/sbd-trace.json"))
assert trace["traceEvents"], "empty traceEvents"
assert all(k in trace["traceEvents"][0] for k in ("name", "ph", "ts", "dur"))
stats = json.load(open("/tmp/sbd-stats.json"))
for key in ("derivative_calls", "dnf_calls", "memo_hits", "solve_time_us",
            "trace_events_dropped", "slow_queries_captured"):
    assert key in stats["counters"], key
for key in ("engine", "parse_us", "minterm_us", "derive_us", "dnf_us",
            "scan_us", "search_us", "total_us"):
    assert key in stats["aggregate"], key
for hist in ("solve_latency_us", "dnf_expansion_arcs"):
    for key in ("count", "p50", "p90", "p99", "buckets"):
        assert key in stats["histograms"][hist], f"{hist}.{key}"
print("stats smoke ok")
EOF
