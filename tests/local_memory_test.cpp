// Unit tests for the local memory: the §2.1 range check, deterministic
// latency and activity counting.
#include <gtest/gtest.h>

#include "lm/local_memory.hpp"

namespace hm {
namespace {

TEST(LocalMemory, DefaultsMatchTable1) {
  LocalMemory lm;
  EXPECT_EQ(lm.size(), 32u * 1024u);
  EXPECT_EQ(lm.latency(), 2u);
}

TEST(LocalMemory, RangeCheck) {
  LocalMemory lm;
  EXPECT_TRUE(lm.contains(lm.base()));
  EXPECT_TRUE(lm.contains(lm.base() + lm.size() - 1));
  EXPECT_FALSE(lm.contains(lm.base() + lm.size()));
  EXPECT_FALSE(lm.contains(lm.base() - 1));
  EXPECT_FALSE(lm.contains(0x1000));  // an SM address
}

TEST(LocalMemory, DeterministicLatency) {
  LocalMemory lm;
  for (Cycle t : {Cycle{0}, Cycle{100}, Cycle{12345}}) {
    EXPECT_EQ(lm.access(t, lm.base(), AccessType::Read), t + lm.latency());
    EXPECT_EQ(lm.access(t, lm.base() + 8, AccessType::Write), t + lm.latency());
  }
}

TEST(LocalMemory, CountsReadsAndWrites) {
  LocalMemory lm;
  lm.access(0, lm.base(), AccessType::Read);
  lm.access(0, lm.base(), AccessType::Read);
  lm.access(0, lm.base(), AccessType::Write);
  EXPECT_EQ(lm.stats().accesses, 3u);
  EXPECT_EQ(lm.stats().reads, 2u);
  EXPECT_EQ(lm.stats().writes, 1u);
}

TEST(LocalMemory, OutOfRangeAccessThrows) {
  LocalMemory lm;
  EXPECT_THROW(lm.access(0, 0x1000, AccessType::Read), std::out_of_range);
}

TEST(LocalMemory, RejectsBadGeometry) {
  EXPECT_THROW(LocalMemory({.virtual_base = 0x1000, .size = 3000}), std::invalid_argument);
  // Base must be aligned to the size (direct mapping of the VA range).
  EXPECT_THROW(LocalMemory({.virtual_base = 0x1000, .size = 32 * 1024}), std::invalid_argument);
}

class LocalMemorySizes : public ::testing::TestWithParam<Bytes> {};

TEST_P(LocalMemorySizes, WholeRangeAccessible) {
  const Bytes size = GetParam();
  LocalMemory lm({.virtual_base = 0x7F80'0000'0000ull, .size = size, .latency = 2});
  for (Addr off = 0; off < size; off += size / 8)
    EXPECT_EQ(lm.access(0, lm.base() + off, AccessType::Read), 2u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LocalMemorySizes,
                         ::testing::Values(8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024,
                                           128 * 1024));

}  // namespace
}  // namespace hm
