#!/usr/bin/env bash
# Shared helpers for the CI step scripts (scripts/ci/*.sh). Sourced, never
# executed. These scripts are the single source of truth for how each
# verification step runs: check.sh calls them locally and
# .github/workflows/ci.yml calls the same files, so the two cannot drift.
#
# Environment knobs (all optional):
#   SBD_CC / SBD_CXX   compiler pair for the build matrix (e.g. gcc/g++ or
#                      clang/clang++). Fails fast when the requested
#                      compiler is not installed — a CI matrix leg silently
#                      building with the wrong default compiler is worse
#                      than a red X.
#   SBD_NO_CCACHE=1    disable the automatic ccache launcher wiring.
set -euo pipefail

SBD_REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$SBD_REPO_ROOT"

# Fail fast with an actionable message instead of a bash "command not
# found" half-way through a multi-minute step.
require() {
  command -v "$1" > /dev/null 2>&1 || {
    echo "error: required tool '$1' not found in PATH${2:+ — $2}" >&2
    exit 1
  }
}

require cmake "install CMake 3.16+"

SBD_CMAKE_ARGS=()

# Compiler selection from the CI matrix.
if [ -n "${SBD_CC:-}" ] || [ -n "${SBD_CXX:-}" ]; then
  : "${SBD_CC:?SBD_CXX set without SBD_CC}"
  : "${SBD_CXX:?SBD_CC set without SBD_CXX}"
  require "$SBD_CC" "requested via SBD_CC"
  require "$SBD_CXX" "requested via SBD_CXX"
  SBD_CMAKE_ARGS+=(-DCMAKE_C_COMPILER="$SBD_CC"
                   -DCMAKE_CXX_COMPILER="$SBD_CXX")
fi

# ccache when available (the CI workflow restores its cache dir).
if [ -z "${SBD_NO_CCACHE:-}" ] && command -v ccache > /dev/null 2>&1; then
  SBD_CMAKE_ARGS+=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                   -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# Managed scratch directories: sbd_workdir VAR [slug] creates a temp dir,
# assigns its path to VAR, and arms one shared EXIT trap that removes every
# workdir created through this helper — on success, failure, and signals
# alike, so an aborted gate never leaves corpus/cache litter in /tmp.
# (Assignment via printf -v rather than command substitution: a subshell
# could not register the trap in the sourcing script.)
SBD_WORKDIRS=()
sbd_cleanup_workdirs() {
  local d
  for d in ${SBD_WORKDIRS[@]+"${SBD_WORKDIRS[@]}"}; do
    rm -rf "$d"
  done
}
sbd_workdir() { # sbd_workdir <var-name> [slug]
  local __var="$1" __slug="${2:-work}" __dir
  __dir="$(mktemp -d "/tmp/sbd-${__slug}.XXXXXX")"
  SBD_WORKDIRS+=("$__dir")
  trap sbd_cleanup_workdirs EXIT
  printf -v "$__var" '%s' "$__dir"
}

# sbd_configure <build-dir> [extra cmake args...]
# Prefers Ninja on a fresh build dir and falls back to the default generator
# rather than failing: the build matrix must run on minimal containers too.
# An already-configured dir keeps its generator (CMake refuses to switch).
sbd_configure() {
  local dir="$1" gen=()
  shift
  if [ ! -f "$dir/CMakeCache.txt" ] && command -v ninja > /dev/null 2>&1; then
    gen=(-G Ninja)
  fi
  cmake -B "$dir" -S . ${gen[@]+"${gen[@]}"} \
    ${SBD_CMAKE_ARGS[@]+"${SBD_CMAKE_ARGS[@]}"} "$@"
}

# sbd_build <build-dir> [targets...]
sbd_build() {
  local dir="$1"
  shift
  if [ "$#" -gt 0 ]; then
    cmake --build "$dir" --target "$@"
  else
    cmake --build "$dir"
  fi
}
