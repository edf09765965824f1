#!/usr/bin/env bash
# Debug-build bench pass at --quick scale: exercises every harness binary's
# full code path without turning the tier-1 gate into a benchmark run. Also
# runs the release-mode bench smoke and validates the observability JSON
# outputs (DESIGN.md §8).
#
# Usage: bench_debug.sh [debug-build-dir]
. "$(dirname "$0")/common.sh"

BUILD_DIR="${1:-build}"

# Runs exactly the harnesses bench/CMakeLists.txt declares (sbd_add_bench /
# add_executable): each must exist and exit 0. Leftover binaries of deleted
# benches in an old build dir are not run.
mapfile -t benches < <(sed -nE \
  's/^[[:space:]]*(sbd_add_bench|add_executable)\(([A-Za-z0-9_]+).*/\2/p' \
  bench/CMakeLists.txt)
if [ "${#benches[@]}" -eq 0 ]; then
  echo "error: no harness declared in bench/CMakeLists.txt" >&2
  exit 1
fi
for b in "${benches[@]}"; do
  if [ ! -x "$BUILD_DIR/bench/$b" ]; then
    echo "error: declared harness $BUILD_DIR/bench/$b is missing — did the build run?" >&2
    exit 1
  fi
done
for b in "${benches[@]}"; do
  "$BUILD_DIR/bench/$b" --quick
done
echo "bench smoke: ${#benches[@]} harness binaries ran clean"

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
