// Vectorized first-match and minimum search over small arrays of 64-bit
// keys.
//
// The engine's innermost operations are all variations of "find the slot
// whose 64-bit key equals X" over a handful of contiguous entries: cache tag
// scans (8/24/32 ways), MSHR line matches, invalid-way searches, the store
// buffer's collapse and first-drain searches.  At -O2 gcc
// compiles the natural early-exit loop to scalar compares with one
// data-dependent mispredict per lookup; the AVX2 form compares 4 keys per
// instruction and turns the result into a branch-free bit mask.  Every
// helper falls back to a portable scalar loop when AVX2 is unavailable —
// results are identical (bit position of the FIRST match).
#pragma once

#include <bit>
#include <cstdint>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace hm {

/// Bit i of the result is set iff keys[i] == key, for i in [0, n).  @p n
/// must be <= 64.
inline std::uint64_t match_mask_u64(const std::uint64_t* keys, std::uint32_t n,
                                    std::uint64_t key) {
  std::uint64_t mask = 0;
  std::uint32_t i = 0;
#if defined(__AVX512F__)
  const __m512i k8 = _mm512_set1_epi64(static_cast<long long>(key));
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_loadu_si512(keys + i);
    mask |= static_cast<std::uint64_t>(_mm512_cmpeq_epi64_mask(v, k8)) << i;
  }
#endif
#if defined(__AVX2__)
  const __m256i k = _mm256_set1_epi64x(static_cast<long long>(key));
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i eq = _mm256_cmpeq_epi64(v, k);
    mask |= static_cast<std::uint64_t>(
                static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq))))
            << i;
  }
#endif
  for (; i < n; ++i) mask |= static_cast<std::uint64_t>(keys[i] == key) << i;
  return mask;
}

/// Bit i of the result is set iff keys[i] > bound as SIGNED 64-bit values,
/// for i in [0, n) (n <= 64).  Simulated cycle counts never reach 2^63, so
/// this equals the unsigned comparison on the engine's data.
inline std::uint64_t gt_mask_s64(const std::uint64_t* keys, std::uint32_t n,
                                 std::uint64_t bound) {
  std::uint64_t mask = 0;
  std::uint32_t i = 0;
#if defined(__AVX512F__)
  const __m512i b8 = _mm512_set1_epi64(static_cast<long long>(bound));
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_loadu_si512(keys + i);
    mask |= static_cast<std::uint64_t>(_mm512_cmpgt_epi64_mask(v, b8)) << i;
  }
#endif
#if defined(__AVX2__)
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(bound));
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i gt = _mm256_cmpgt_epi64(v, b);
    mask |= static_cast<std::uint64_t>(
                static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(gt))))
            << i;
  }
#endif
  for (; i < n; ++i)
    mask |= static_cast<std::uint64_t>(static_cast<std::int64_t>(keys[i]) >
                                       static_cast<std::int64_t>(bound))
            << i;
  return mask;
}

/// Index of the first smallest of keys[0, n), for 1 <= n <= 64.  The
/// vector form needs AVX-512: AVX2 has no 64-bit min.
inline std::uint32_t argmin_u64(const std::uint64_t* keys, std::uint32_t n) {
#if defined(__AVX512F__)
  if (n >= 8) {
    // The all-lanes masked forms: the plain ones pass gcc an undefined
    // pass-through operand that -Wmaybe-uninitialized reports.
    const auto vmin = [](__m512i a, __m512i b) { return _mm512_mask_min_epu64(a, 0xFF, a, b); };
    __m512i v = _mm512_loadu_si512(keys);
    std::uint32_t i = 8;
    for (; i + 8 <= n; i += 8) v = vmin(v, _mm512_loadu_si512(keys + i));
    // Fold the eight lanes: swap 256-bit halves, 128-bit pairs, then the
    // two 64-bit lanes of each pair.
    v = vmin(v, _mm512_mask_shuffle_i64x2(v, 0xFF, v, v, 0x4E));
    v = vmin(v, _mm512_mask_shuffle_i64x2(v, 0xFF, v, v, 0xB1));
    v = vmin(v, _mm512_mask_shuffle_epi32(v, 0xFFFF, v, _MM_PERM_BADC));
    auto m = static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm512_maskz_extracti32x4_epi32(0xF, v, 0)));
    for (; i < n; ++i) m = keys[i] < m ? keys[i] : m;
    return static_cast<std::uint32_t>(std::countr_zero(match_mask_u64(keys, n, m)));
  }
#endif
  std::uint32_t best = 0;
  for (std::uint32_t i = 1; i < n; ++i)
    if (keys[i] < keys[best]) best = i;
  return best;
}

/// One search over two parallel arrays: @p n when some i in [0, n) has
/// keys[i] == @p key and vals[i] > @p bound (the signed compare of
/// gt_mask_s64), else argmin_u64(vals, n); for 1 <= n <= 64.  Without AVX2
/// one early-exit loop does both.
inline std::uint32_t eq_gt_or_argmin_u64(const std::uint64_t* keys, const std::uint64_t* vals,
                                         std::uint32_t n, std::uint64_t key,
                                         std::uint64_t bound) {
#if defined(__AVX2__) || defined(__AVX512F__)
  if ((match_mask_u64(keys, n, key) & gt_mask_s64(vals, n, bound)) != 0) return n;
  return argmin_u64(vals, n);
#else
  std::uint32_t best = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (keys[i] == key && static_cast<std::int64_t>(vals[i]) > static_cast<std::int64_t>(bound))
      return n;
    if (vals[i] < vals[best]) best = i;
  }
  return best;
#endif
}

/// Index of the first element equal to @p key, or @p n if absent.  Handles
/// any @p n (scans in 64-element chunks).
inline std::uint32_t find_first_eq_u64(const std::uint64_t* keys, std::uint32_t n,
                                       std::uint64_t key) {
  for (std::uint32_t base = 0; base < n; base += 64) {
    const std::uint32_t chunk = (n - base) < 64 ? (n - base) : 64;
    const std::uint64_t mask = match_mask_u64(keys + base, chunk, key);
    if (mask != 0) return base + static_cast<std::uint32_t>(std::countr_zero(mask));
  }
  return n;
}

}  // namespace hm
