#!/usr/bin/env bash
# Tier-1 verification: build and test the tree in the three
# configurations CI's release, asan-ubsan and tsan jobs run:
#   1. Release (-DNDEBUG): the guards that must survive assert() removal,
#      plus ngdlint over the tree.
#   2. Debug + ASan/UBSan: memory and signed-overflow regressions.
#   3. Debug + TSan: data races in the parallel, recovery, spill, graph
#      and incremental suites (TSan cannot share a build with ASan).
#
# Usage: ci/verify.sh [build-dir-prefix]
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

build_config() {
  local name="$1"
  shift
  echo "==== [${name}] configure ===="
  cmake -B "${prefix}-${name}" -S . "$@"
  echo "==== [${name}] build ===="
  cmake --build "${prefix}-${name}" -j "${jobs}"
}

run_config() {
  build_config "$@"
  echo "==== [$1] ctest ===="
  ctest --test-dir "${prefix}-$1" --output-on-failure -j "${jobs}"
}

run_config release -DCMAKE_BUILD_TYPE=Release
# Project-invariant lint over the tree (failpoint arming, format-magic
# uniqueness, banned constructs, header hygiene) — the same binary the
# CI lint job runs, so regressions fail tier-1 locally first.
echo "==== ngdlint ===="
"${prefix}-release/ngdlint" .
# Reduced randomized sweeps under the sanitizers, matching the CI job
# (full sweeps run in the release configuration above).
(
  export NGD_DIFF_CASES=150 NGD_SIGMA_CASES=120 NGD_IO_CASES=8 \
    NGD_RECOVERY_CASES=3 NGD_VIO_CASES=40 NGD_SPILL_CASES=6 \
    NGD_SPILL_HEAVY=0
  run_config asan -DCMAKE_BUILD_TYPE=Debug -DNGD_SANITIZE=ON
)
# The concurrent core under TSan, as the CI tsan job configures it.
(
  export NGD_FRAG_CASES=3 NGD_RECOVERY_CASES=2 NGD_SPILL_HEAVY=0 \
    NGD_DIFF_CASES=150
  build_config tsan -DCMAKE_BUILD_TYPE=Debug -DNGD_SANITIZE=thread \
    -DNGD_BUILD_EXAMPLES=OFF
  echo "==== [tsan] ctest ===="
  ctest --test-dir "${prefix}-tsan" --output-on-failure -j "${jobs}" \
    -L "parallel|recovery|spill|graph|incremental"
)

echo "==== tier-1 verification passed ===="
