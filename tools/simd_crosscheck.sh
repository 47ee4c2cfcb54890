#!/usr/bin/env bash
# Compile-only cross-check for every dispatch branch of exec/simd.h.
#
# CI machines only ever *run* one branch (whatever the host CPU is),
# so a typo inside, say, the NEON block of FilterEqualHashes would
# survive until someone builds on an arm64 host. This script
# compiles a translation unit that odr-uses every simd helper once
# per reachable branch:
#   * host      — the default dispatch (SSE2 on x86-64 CI runners);
#   * neon      — only where <arm_neon.h> targets the host (aarch64);
#     skipped, not failed, elsewhere — there is no cross-compiler in
#     the CI image;
#   * scalar    — -DPUNCTSAFE_NO_SIMD, the portable fallback.
# Compile-only (-c): no linking, no execution — behavioral equivalence
# of the branches is covered by batch_exec_test and the scalar ctest
# leg; this guards "does the branch even build".
#
# Usage: tools/simd_crosscheck.sh   (CXX overrides the compiler)

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CXX="${CXX:-g++}"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

# One TU instantiating each helper, so the compiler has to emit the
# intrinsic-bearing bodies rather than just parse the header.
cat > "${WORK}/probe.cc" <<'EOF'
#include "exec/simd.h"

#include <cstdint>

namespace {
uint64_t hashes[8] = {1, 1, 2, 3, 3, 3, 4, 5};
uint8_t tags[16] = {0};
uint32_t idx[8];
}  // namespace

const char* probe_dispatch() { return punctsafe::simd::kDispatchName; }

size_t probe_all() {
  size_t n = punctsafe::simd::HashRunLength(hashes, 8);
  n += punctsafe::simd::MatchTags16(tags, 3);
  n += punctsafe::simd::FilterEqualHashes(hashes, hashes + 0, 8, idx);
  return n;
}
EOF

compiles_with() {
  "${CXX}" -std=c++17 -O2 -c "$@" -I "${ROOT}/src" \
    "${WORK}/probe.cc" -o "${WORK}/probe.o" 2> "${WORK}/err.txt"
}

failures=0

check_leg() {
  local name="$1"
  shift
  echo "--- simd_crosscheck: ${name} ($*)"
  if compiles_with "$@"; then
    echo "    OK"
  else
    echo "    FAILED:"
    sed 's/^/    /' "${WORK}/err.txt"
    failures=$((failures + 1))
  fi
}

check_leg host
check_leg scalar -DPUNCTSAFE_NO_SIMD

# NEON needs an aarch64 target; probe whether the NEON branch is even
# reachable for this compiler before attempting it.
echo '#include <arm_neon.h>' > "${WORK}/neon.cc"
if "${CXX}" -fsyntax-only "${WORK}/neon.cc" 2>/dev/null; then
  check_leg neon
else
  echo "--- simd_crosscheck: neon SKIPPED (host toolchain does not" \
       "target aarch64; branch is covered on arm64 runners)"
fi

if [ "${failures}" -ne 0 ]; then
  echo "simd_crosscheck: ${failures} branch(es) failed to build" >&2
  exit 1
fi
echo "simd_crosscheck: all reachable branches build"
