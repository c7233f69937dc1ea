// Unit tests for the set-associative cache tag array.
#include <gtest/gtest.h>

#include "memory/cache.hpp"

namespace hm {
namespace {

CacheConfig small_cache(WritePolicy wp = WritePolicy::WriteBack) {
  // 4 sets x 2 ways x 64 B lines = 512 B: easy to reason about.
  return CacheConfig{.name = "test", .size = 512, .associativity = 2, .line_size = 64,
                     .latency = 2, .write_policy = wp};
}

TEST(CacheConfig, Validation) {
  CacheConfig c = small_cache();
  EXPECT_NO_THROW(c.validate());
  c.line_size = 48;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_cache();
  c.associativity = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_cache();
  c.size = 64;  // smaller than one 2-way set of 64 B lines
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(CacheConfig, NumSets) {
  EXPECT_EQ(small_cache().num_sets(), 4u);
  CacheConfig l1{.name = "L1", .size = 32 * 1024, .associativity = 8, .line_size = 64};
  EXPECT_EQ(l1.num_sets(), 64u);
  // The paper's L2 (Table 1): 256 KB, 24-way — a non-power-of-two set count.
  CacheConfig l2{.name = "L2", .size = 256 * 1024, .associativity = 24, .line_size = 64};
  EXPECT_EQ(l2.num_sets(), 170u);
}

// Install the line of @p addr the way a prefetch does: a silent peek that
// must miss, then a fill at the victim it chose.  Returns the evicted line.
std::optional<EvictedLine> install(SetAssocCache& c, Addr addr, bool from_prefetch = false) {
  const auto at = c.peek(addr);
  EXPECT_FALSE(at.hit) << "addr=" << addr;
  return c.fill_at(at, addr, from_prefetch);
}

TEST(Cache, MissThenHit) {
  SetAssocCache c(small_cache());
  const auto miss = c.access(0x1000, AccessType::Read);
  EXPECT_FALSE(miss.hit);
  c.fill_at(miss, 0x1000);
  EXPECT_TRUE(c.access(0x1000, AccessType::Read).hit);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SameLineDifferentOffsetsHit) {
  SetAssocCache c(small_cache());
  install(c, 0x1000);
  EXPECT_TRUE(c.access(0x1004, AccessType::Read).hit);
  EXPECT_TRUE(c.access(0x103F, AccessType::Write).hit);
}

TEST(Cache, LruEviction) {
  SetAssocCache c(small_cache());
  // Three lines mapping to the same set (set stride = 4 sets * 64 B = 256 B).
  install(c, 0x0000);
  install(c, 0x0100);
  c.access(0x0000, AccessType::Read);  // make 0x0000 MRU
  auto evicted = install(c, 0x0200);   // must evict 0x0100 (LRU)
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->line_addr, 0x0100u);
  EXPECT_TRUE(c.contains(0x0000));
  EXPECT_FALSE(c.contains(0x0100));
  EXPECT_TRUE(c.contains(0x0200));
}

TEST(Cache, PeekOfResidentLineCountsNothing) {
  SetAssocCache c(small_cache());
  install(c, 0x1000);
  EXPECT_TRUE(c.peek(0x1000).hit);
  EXPECT_EQ(c.stats().lookups, 0u);
  EXPECT_EQ(c.stats().fills, 1u);
}

TEST(Cache, WriteBackMarksDirty) {
  SetAssocCache c(small_cache(WritePolicy::WriteBack));
  install(c, 0x0000);
  c.access(0x0000, AccessType::Write);  // write hit: dirty
  const auto miss = c.access(0x0100, AccessType::Write);
  c.fill_at(miss, 0x0100);
  c.set_dirty_at(miss);  // write miss: dirty once filled
  for (const Addr victim : {Addr{0x0000}, Addr{0x0100}}) {
    auto evicted = install(c, victim + 0x0200);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->line_addr, victim);
    EXPECT_TRUE(evicted->dirty);
  }
  EXPECT_EQ(c.stats().dirty_evictions, 2u);
}

TEST(Cache, WriteThroughNeverDirty) {
  SetAssocCache c(small_cache(WritePolicy::WriteThrough));
  install(c, 0x0000);
  c.set_dirty_at(c.access(0x0000, AccessType::Write));  // must be ignored on WT
  install(c, 0x0100);
  auto evicted = install(c, 0x0200);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_FALSE(evicted->dirty);
}

TEST(Cache, InvalidatePresentLine) {
  SetAssocCache c(small_cache());
  install(c, 0x1000);
  c.access(0x1000, AccessType::Write);
  auto inv = c.invalidate(0x1000);
  ASSERT_TRUE(inv.has_value());
  EXPECT_TRUE(inv->dirty);
  EXPECT_FALSE(c.contains(0x1000));
  EXPECT_EQ(c.stats().invalidations, 1u);
}

TEST(Cache, InvalidateAbsentLine) {
  SetAssocCache c(small_cache());
  EXPECT_FALSE(c.invalidate(0x1000).has_value());
  EXPECT_EQ(c.stats().invalidations, 1u);  // the bus request is counted
}

TEST(Cache, ProbeCountsSnoopWithoutLruUpdate) {
  SetAssocCache c(small_cache());
  install(c, 0x0000);
  install(c, 0x0100);
  EXPECT_TRUE(c.probe(0x0000));
  EXPECT_EQ(c.stats().snoops, 1u);
  // 0x0000 is still LRU despite the probe: it gets evicted next.
  auto evicted = install(c, 0x0200);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->line_addr, 0x0000u);
}

TEST(Cache, FlushAll) {
  SetAssocCache c(small_cache());
  install(c, 0x0000);
  install(c, 0x1000);
  EXPECT_EQ(c.valid_lines(), 2u);
  c.flush_all();
  EXPECT_EQ(c.valid_lines(), 0u);
  EXPECT_FALSE(c.contains(0x0000));
}

TEST(Cache, PrefetchFillCounted) {
  SetAssocCache c(small_cache());
  install(c, 0x1000, /*from_prefetch=*/true);
  EXPECT_EQ(c.stats().prefetch_fills, 1u);
  EXPECT_EQ(c.stats().fills, 1u);
}

TEST(Cache, ReadWriteHitCounters) {
  SetAssocCache c(small_cache());
  install(c, 0x1000);
  c.access(0x1000, AccessType::Read);
  c.access(0x1000, AccessType::Write);
  c.access(0x1000, AccessType::Write);
  EXPECT_EQ(c.stats().read_hits, 1u);
  EXPECT_EQ(c.stats().write_hits, 2u);
}

// Property sweep: capacity is respected and a linear walk of exactly
// `size` bytes fits after warm-up for any (size, assoc) combination.
class CacheGeometry : public ::testing::TestWithParam<std::tuple<Bytes, unsigned>> {};

TEST_P(CacheGeometry, LinearWalkFitsCapacity) {
  const auto [size, assoc] = GetParam();
  CacheConfig cfg{.name = "g", .size = size, .associativity = assoc, .line_size = 64,
                  .latency = 1, .write_policy = WritePolicy::WriteBack};
  SetAssocCache c(cfg);
  // Capacity in lines = sets * ways (<= size/line when sets don't divide).
  const unsigned capacity = cfg.num_sets() * assoc;
  for (unsigned i = 0; i < capacity; ++i) install(c, static_cast<Addr>(i) * 64);
  if (is_pow2(cfg.num_sets())) {
    // With a power-of-two set count the hashed index permutes lines within
    // aligned blocks, so a linear walk still fits exactly.
    EXPECT_EQ(c.valid_lines(), capacity);
    for (unsigned i = 0; i < capacity; ++i) EXPECT_TRUE(c.contains(static_cast<Addr>(i) * 64));
  } else {
    // Non-power-of-two set counts (the paper's 24-way L2) distribute almost
    // evenly; a linear capacity walk retains nearly everything.
    EXPECT_GE(c.valid_lines(), capacity * 95 / 100);
  }
  // One more distinct line cannot grow occupancy beyond capacity.
  install(c, static_cast<Addr>(capacity) * 64);
  EXPECT_LE(c.valid_lines(), capacity);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(Bytes{512}, 2u), std::make_tuple(Bytes{1024}, 4u),
                      std::make_tuple(Bytes{4096}, 8u), std::make_tuple(Bytes{32768}, 8u),
                      std::make_tuple(Bytes{65536}, 8u), std::make_tuple(Bytes{262144}, 24u),
                      std::make_tuple(Bytes{4194304}, 32u)));

}  // namespace
}  // namespace hm
