// Tests for the engine fast-path primitives: magic-multiplier division
// (common/bitops.hpp) and vectorized first-match and minimum scans
// (common/find64.hpp).
// Both must agree EXACTLY with their scalar definitions — the cache set
// index and MSHR/tag matches feed the simulated metrics, which are required
// to be bit-identical across hosts and SIMD availability.
#include <gtest/gtest.h>

#include <vector>

#include "common/bitops.hpp"
#include "common/find64.hpp"
#include "common/rng.hpp"

namespace hm {
namespace {

TEST(MagicDivisor, MatchesHardwareDivideExactly) {
  // Divisors the engine actually meets (cache set counts, bandwidth gaps)
  // plus adversarial ones for the magic-number algorithm.
  const std::uint64_t divisors[] = {
      2, 3, 4, 5, 6, 7, 10, 24, 96, 170, 682, 1000003,
      (1ull << 31) - 1, (1ull << 31) + 1, (1ull << 32) - 1, (1ull << 32) + 1,
      (1ull << 63) - 1, 1ull << 63};
  Rng rng(42);
  for (const std::uint64_t d : divisors) {
    const MagicDivisor m(d);
    // Structured edge numerators.
    const std::uint64_t edges[] = {0, 1, d - 1, d, d + 1, 2 * d - 1, 2 * d, 2 * d + 1,
                                   (1ull << 32) - 1, 1ull << 32, (1ull << 63) - 1,
                                   1ull << 63, ~0ull - 1, ~0ull};
    for (const std::uint64_t x : edges) {
      ASSERT_EQ(m.div(x), x / d) << "d=" << d << " x=" << x;
      ASSERT_EQ(m.mod(x), x % d) << "d=" << d << " x=" << x;
    }
    // Random 64-bit numerators.
    for (int i = 0; i < 200000; ++i) {
      const std::uint64_t x = rng.next();
      ASSERT_EQ(m.div(x), x / d) << "d=" << d << " x=" << x;
      ASSERT_EQ(m.mod(x), x % d) << "d=" << d << " x=" << x;
    }
  }
}

TEST(Find64, FirstMatchSemantics) {
  std::vector<std::uint64_t> keys = {5, 9, 7, 9, 1, 9, 3, 2};
  const auto n = static_cast<std::uint32_t>(keys.size());
  EXPECT_EQ(find_first_eq_u64(keys.data(), n, 5), 0u);
  EXPECT_EQ(find_first_eq_u64(keys.data(), n, 9), 1u);   // first of three
  EXPECT_EQ(find_first_eq_u64(keys.data(), n, 2), 7u);   // last element
  EXPECT_EQ(find_first_eq_u64(keys.data(), n, 42), n);   // absent
  EXPECT_EQ(find_first_eq_u64(keys.data(), 0, 5), 0u);   // empty range
}

TEST(Find64, MatchMaskAgreesWithScalar) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.below(64));
    std::vector<std::uint64_t> keys(n);
    for (auto& k : keys) k = rng.below(8);  // dense duplicates
    const std::uint64_t key = rng.below(8);
    std::uint64_t expect = 0;
    for (std::uint32_t i = 0; i < n; ++i)
      expect |= static_cast<std::uint64_t>(keys[i] == key) << i;
    ASSERT_EQ(match_mask_u64(keys.data(), n, key), expect) << "n=" << n;
  }
}

TEST(Find64, GtMaskAgreesWithScalar) {
  Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.below(64));
    std::vector<std::uint64_t> keys(n);
    for (auto& k : keys) k = rng.below(1000);
    const std::uint64_t bound = rng.below(1000);
    std::uint64_t expect = 0;
    for (std::uint32_t i = 0; i < n; ++i)
      expect |= static_cast<std::uint64_t>(keys[i] > bound) << i;
    ASSERT_EQ(gt_mask_s64(keys.data(), n, bound), expect) << "n=" << n;
  }
}

TEST(Find64, StoreBufferSearchesAgreeWithScalar) {
  // The store buffer's victim (first smallest drain cycle) and collapse
  // (same address, not yet drained) searches, over every length the core
  // accepts and with dense ties.
  Rng rng(13);
  for (int trial = 0; trial < 4000; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.below(64));
    std::vector<std::uint64_t> keys(n), vals(n);
    for (auto& k : keys) k = rng.below(8);
    for (auto& v : vals) v = rng.below(16);
    std::uint32_t first_min = 0;
    for (std::uint32_t i = 1; i < n; ++i)
      if (vals[i] < vals[first_min]) first_min = i;
    ASSERT_EQ(argmin_u64(vals.data(), n), first_min) << "n=" << n;
    const std::uint64_t key = rng.below(8);
    const std::uint64_t bound = rng.below(16);
    bool any = false;
    for (std::uint32_t i = 0; i < n; ++i) any = any || (keys[i] == key && vals[i] > bound);
    ASSERT_EQ(eq_gt_or_argmin_u64(keys.data(), vals.data(), n, key, bound), any ? n : first_min)
        << "n=" << n;
  }
}

TEST(Find64, ChunkedScanBeyond64) {
  std::vector<std::uint64_t> keys(130, 0);
  keys[100] = 77;
  keys[129] = 77;
  EXPECT_EQ(find_first_eq_u64(keys.data(), 130, 77), 100u);
  EXPECT_EQ(find_first_eq_u64(keys.data(), 130, 99), 130u);
}

}  // namespace
}  // namespace hm
