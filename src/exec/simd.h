// SIMD primitives for the vectorized probe and expansion paths:
// 16-wide control-tag matching (exec/flat_index.h), equal-hash run
// detection over the per-hop probe-key hash column
// (MJoinOperator::Expand), and the pairwise equal-hash filter that
// prefilters expansion verification (also MJoinOperator::Expand).
//
// Dispatch is compile-time: SSE2 (implied by x86-64) with an AVX2
// refinement for the 4-wide uint64 hash compare, NEON on AArch64, and
// a portable scalar fallback everywhere else. Defining
// PUNCTSAFE_NO_SIMD (CMake option of the same name) forces the scalar
// path on any architecture — the CI matrix builds and tests that leg
// so the fallback cannot rot. All variants are exact drop-ins: same
// results, same iteration order, only the instructions differ.

#ifndef PUNCTSAFE_EXEC_SIMD_H_
#define PUNCTSAFE_EXEC_SIMD_H_

#include <cstddef>
#include <cstdint>

#if !defined(PUNCTSAFE_NO_SIMD) && \
    (defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64))
#define PUNCTSAFE_SIMD_SSE2 1
#include <emmintrin.h>
#if defined(__AVX2__)
#define PUNCTSAFE_SIMD_AVX2 1
#include <immintrin.h>
#endif
#elif !defined(PUNCTSAFE_NO_SIMD) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define PUNCTSAFE_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace punctsafe {
namespace simd {

/// Name of the active dispatch, surfaced in bench JSON and docs so a
/// measurement records which code path produced it.
inline constexpr const char* kDispatchName =
#if defined(PUNCTSAFE_SIMD_AVX2)
    "avx2";
#elif defined(PUNCTSAFE_SIMD_SSE2)
    "sse2";
#elif defined(PUNCTSAFE_SIMD_NEON)
    "neon";
#else
    "scalar";
#endif

/// \brief Compares 16 control tags against `tag` in one step; bit i of
/// the result is set iff tags[i] == tag. `tags` needs no alignment.
inline uint32_t MatchTags16(const uint8_t* tags, uint8_t tag) {
#if defined(PUNCTSAFE_SIMD_SSE2)
  const __m128i group =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
  const __m128i match = _mm_cmpeq_epi8(group, _mm_set1_epi8(
                                                  static_cast<char>(tag)));
  return static_cast<uint32_t>(_mm_movemask_epi8(match));
#elif defined(PUNCTSAFE_SIMD_NEON)
  const uint8x16_t group = vld1q_u8(tags);
  const uint8x16_t match = vceqq_u8(group, vdupq_n_u8(tag));
  // Emulate movemask: AND each matched lane (0xFF) down to its
  // positional bit, then horizontal-add each half.
  const uint8x16_t bits = {1, 2, 4, 8, 16, 32, 64, 128,
                           1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t masked = vandq_u8(match, bits);
  const uint32_t lo = vaddv_u8(vget_low_u8(masked));
  const uint32_t hi = vaddv_u8(vget_high_u8(masked));
  return lo | (hi << 8);
#else
  uint32_t mask = 0;
  for (int i = 0; i < 16; ++i) {
    if (tags[i] == tag) mask |= 1u << i;
  }
  return mask;
#endif
}

/// \brief Length of the prefix of `hashes[0..n)` equal to `hashes[0]`
/// (n == 0 returns 0). The vectorized variants compare 4 (AVX2) or 2
/// (SSE2/NEON) cached hashes per step; MJoinOperator::Expand, its only
/// caller, uses the run length to reuse one bucket resolution across a
/// run of same-key rows.
inline size_t HashRunLength(const uint64_t* hashes, size_t n) {
  if (n == 0) return 0;
  const uint64_t head = hashes[0];
  size_t i = 1;
#if defined(PUNCTSAFE_SIMD_AVX2)
  const __m256i splat = _mm256_set1_epi64x(static_cast<long long>(head));
  for (; i + 4 <= n; i += 4) {
    const __m256i block =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hashes + i));
    const uint32_t eq = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi64(block, splat)));
    if (eq != 0xFFFFFFFFu) {
      // First non-matching lane: each lane owns 8 mask bits.
      unsigned bit = 0;
      uint32_t miss = ~eq;
      while ((miss & 1u) == 0) {
        miss >>= 1;
        ++bit;
      }
      return i + bit / 8;
    }
  }
#elif defined(PUNCTSAFE_SIMD_SSE2)
  const __m128i splat = _mm_set1_epi64x(static_cast<long long>(head));
  for (; i + 2 <= n; i += 2) {
    const __m128i block =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hashes + i));
    // SSE2 has no 64-bit compare; 32-bit lanes are exact when both
    // halves of each 64-bit lane match.
    const uint32_t eq = static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi32(block, splat)));
    if (eq != 0xFFFFu) {
      return ((eq & 0x00FFu) == 0x00FFu) ? i + 1 : i;
    }
  }
#elif defined(PUNCTSAFE_SIMD_NEON)
  const uint64x2_t splat = vdupq_n_u64(head);
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t block = vld1q_u64(hashes + i);
    const uint64x2_t eq = vceqq_u64(block, splat);
    if (vgetq_lane_u64(eq, 0) != ~uint64_t{0}) return i;
    if (vgetq_lane_u64(eq, 1) != ~uint64_t{0}) return i + 1;
  }
#endif
  for (; i < n; ++i) {
    if (hashes[i] != head) return i;
  }
  return n;
}

/// \brief Writes the indices i (ascending) where a[i] == b[i] into
/// `out_idx` (caller-sized to >= n); returns the survivor count. The
/// verification prefilter of batched expansion: both columns carry
/// *cached* Value hashes, so equal hashes almost always mean equal
/// values and exact equality only runs on the survivors (a collision
/// survives the filter and is rejected by the exact check — the filter
/// has false positives, never false negatives).
inline size_t FilterEqualHashes(const uint64_t* a, const uint64_t* b,
                                size_t n, uint32_t* out_idx) {
  size_t count = 0;
  size_t i = 0;
#if defined(PUNCTSAFE_SIMD_AVX2)
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const uint32_t eq = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi64(va, vb)));
    // Each 64-bit lane owns 8 mask bits; a lane matches when all 8 are
    // set.
    for (unsigned lane = 0; lane < 4; ++lane) {
      if (((eq >> (8 * lane)) & 0xFFu) == 0xFFu) {
        out_idx[count++] = static_cast<uint32_t>(i + lane);
      }
    }
  }
#elif defined(PUNCTSAFE_SIMD_SSE2)
  for (; i + 2 <= n; i += 2) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    // 32-bit compares are exact when both halves of a 64-bit lane
    // match (same trick as HashRunLength).
    const uint32_t eq = static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi32(va, vb)));
    if ((eq & 0x00FFu) == 0x00FFu) out_idx[count++] = static_cast<uint32_t>(i);
    if ((eq & 0xFF00u) == 0xFF00u) {
      out_idx[count++] = static_cast<uint32_t>(i + 1);
    }
  }
#elif defined(PUNCTSAFE_SIMD_NEON)
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(a + i);
    const uint64x2_t vb = vld1q_u64(b + i);
    const uint64x2_t eq = vceqq_u64(va, vb);
    if (vgetq_lane_u64(eq, 0) == ~uint64_t{0}) {
      out_idx[count++] = static_cast<uint32_t>(i);
    }
    if (vgetq_lane_u64(eq, 1) == ~uint64_t{0}) {
      out_idx[count++] = static_cast<uint32_t>(i + 1);
    }
  }
#endif
  for (; i < n; ++i) {
    if (a[i] == b[i]) out_idx[count++] = static_cast<uint32_t>(i);
  }
  return count;
}

}  // namespace simd
}  // namespace punctsafe

#endif  // PUNCTSAFE_EXEC_SIMD_H_
