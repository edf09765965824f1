#!/usr/bin/env bash
# One-shot verification. Every step is a shared script under scripts/ci/
# — the exact same files the GitHub Actions workflow runs — so local
# verification and CI cannot drift:
#
#   - ci/build_and_test.sh    configure + build + full test suite
#   - ci/lint.sh              lint_sbd.py + clang-tidy vs baseline
#   - ci/validate_workflow.py GitHub Actions workflow structure lint
#   - ci/bench_debug.sh       every bench harness at --quick + stats smoke
#   - ci/perf_counters.sh     perfbench work counters == perf_counters.json
#   - ci/fuzz_smoke.sh        differential fuzz campaign + oracle self-check
#   - ci/analyze_corpus.sh    corpus classification regression + overhead gate
#   - ci/session_cache.sh     sbd-server warm-vs-cold verdict-cache gate
#   - ci/dist_consistency.sh  sbd-dist 1-vs-N verdict equality + crash requeue
#   - ci/werror.sh            -Wall -Wextra -Wshadow -Wconversion -Werror
#   - ci/audit.sh             full suite with term-DAG invariant audits live
#   - ci/obs_off.sh           observability layer compiles out cleanly
#   - ci/obs_overhead.sh      obs ON-vs-OFF bench ratio + sbd-explain replay
#   - ci/asan.sh              ASan+UBSan full suite (mandatory, not opt-in)
#
#   scripts/check.sh          # everything above
#
# Timing comparisons against another revision are scripts/perf_ab.py.
set -euo pipefail
cd "$(dirname "$0")/.."
CI_DIR=scripts/ci

"$CI_DIR"/build_and_test.sh build
"$CI_DIR"/lint.sh build
python3 "$CI_DIR"/validate_workflow.py
"$CI_DIR"/bench_debug.sh build
"$CI_DIR"/perf_counters.sh
"$CI_DIR"/fuzz_smoke.sh build
"$CI_DIR"/analyze_corpus.sh build
"$CI_DIR"/session_cache.sh
"$CI_DIR"/dist_consistency.sh
"$CI_DIR"/werror.sh
"$CI_DIR"/audit.sh
"$CI_DIR"/obs_off.sh
"$CI_DIR"/obs_overhead.sh
"$CI_DIR"/asan.sh

echo "all checks passed"
