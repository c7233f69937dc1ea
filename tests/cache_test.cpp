// Unit tests for the set-associative cache tag array.
#include <gtest/gtest.h>

#include "common/rng.hpp"
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

TEST(Cache, MissThenHit) {
  SetAssocCache c(small_cache());
  EXPECT_FALSE(c.touch(0x1000, AccessType::Read));
  c.fill(0x1000);
  EXPECT_TRUE(c.touch(0x1000, AccessType::Read));
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SameLineDifferentOffsetsHit) {
  SetAssocCache c(small_cache());
  c.fill(0x1000);
  EXPECT_TRUE(c.touch(0x1004, AccessType::Read));
  EXPECT_TRUE(c.touch(0x103F, AccessType::Write));
}

TEST(Cache, LruEviction) {
  SetAssocCache c(small_cache());
  // Three lines mapping to the same set (set stride = 4 sets * 64 B = 256 B).
  c.fill(0x0000);
  c.fill(0x0100);
  c.touch(0x0000, AccessType::Read);  // make 0x0000 MRU
  auto evicted = c.fill(0x0200);      // must evict 0x0100 (LRU)
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->line_addr, 0x0100u);
  EXPECT_TRUE(c.contains(0x0000));
  EXPECT_FALSE(c.contains(0x0100));
  EXPECT_TRUE(c.contains(0x0200));
}

TEST(Cache, FillOfResidentLineIsNoop) {
  SetAssocCache c(small_cache());
  c.fill(0x1000);
  EXPECT_FALSE(c.fill(0x1000).has_value());
  EXPECT_EQ(c.stats().fills, 1u);
}

TEST(Cache, WriteBackMarksDirty) {
  SetAssocCache c(small_cache(WritePolicy::WriteBack));
  c.fill(0x0000);
  c.touch(0x0000, AccessType::Write);
  c.fill(0x0100);
  auto evicted = c.fill(0x0200);  // evicts 0x0000
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->line_addr, 0x0000u);
  EXPECT_TRUE(evicted->dirty);
  EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

TEST(Cache, WriteThroughNeverDirty) {
  SetAssocCache c(small_cache(WritePolicy::WriteThrough));
  c.fill(0x0000);
  c.touch(0x0000, AccessType::Write);
  c.set_dirty(0x0000);  // must be ignored on WT
  c.fill(0x0100);
  auto evicted = c.fill(0x0200);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_FALSE(evicted->dirty);
}

TEST(Cache, InvalidatePresentLine) {
  SetAssocCache c(small_cache());
  c.fill(0x1000);
  c.touch(0x1000, AccessType::Write);
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
  c.fill(0x0000);
  c.fill(0x0100);
  EXPECT_TRUE(c.probe(0x0000));
  EXPECT_EQ(c.stats().snoops, 1u);
  // 0x0000 is still LRU despite the probe: it gets evicted next.
  auto evicted = c.fill(0x0200);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->line_addr, 0x0000u);
}

TEST(Cache, FlushAll) {
  SetAssocCache c(small_cache());
  c.fill(0x0000);
  c.fill(0x1000);
  EXPECT_EQ(c.valid_lines(), 2u);
  c.flush_all();
  EXPECT_EQ(c.valid_lines(), 0u);
  EXPECT_FALSE(c.contains(0x0000));
}

TEST(Cache, PrefetchFillCounted) {
  SetAssocCache c(small_cache());
  c.fill(0x1000, /*from_prefetch=*/true);
  EXPECT_EQ(c.stats().prefetch_fills, 1u);
  EXPECT_EQ(c.stats().fills, 1u);
}

TEST(Cache, ReadWriteHitCounters) {
  SetAssocCache c(small_cache());
  c.fill(0x1000);
  c.touch(0x1000, AccessType::Read);
  c.touch(0x1000, AccessType::Write);
  c.touch(0x1000, AccessType::Write);
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
  for (unsigned i = 0; i < capacity; ++i) c.fill(static_cast<Addr>(i) * 64);
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
  c.fill(static_cast<Addr>(capacity) * 64);
  EXPECT_LE(c.valid_lines(), capacity);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(Bytes{512}, 2u), std::make_tuple(Bytes{1024}, 4u),
                      std::make_tuple(Bytes{4096}, 8u), std::make_tuple(Bytes{32768}, 8u),
                      std::make_tuple(Bytes{65536}, 8u), std::make_tuple(Bytes{262144}, 24u),
                      std::make_tuple(Bytes{4194304}, 32u)));

// The single-pass API — access()/fill_at()/set_dirty_at() — must be
// observably identical to the legacy touch()/fill()/set_dirty() sequence:
// same hits, same victims, same dirty bits, same statistics.  Drive two
// caches through the same randomized trace, one per API, and compare
// everything.  Runs over both write policies and both power-of-two and
// non-power-of-two (the paper's 170-set L2) geometries.
class CacheApiEquivalence
    : public ::testing::TestWithParam<std::tuple<Bytes, unsigned, WritePolicy>> {};

TEST_P(CacheApiEquivalence, RandomTraceMatchesLegacyApi) {
  const auto [size, assoc, wp] = GetParam();
  const CacheConfig cfg{.name = "eq", .size = size, .associativity = assoc, .line_size = 64,
                        .latency = 1, .write_policy = wp};
  SetAssocCache legacy(cfg);
  SetAssocCache fast(cfg);
  Rng rng(0xC0FFEEu);

  // Working set ~4x the cache so misses, evictions and LRU decisions are
  // all exercised.
  const Addr span = static_cast<Addr>(size) * 4;
  for (int i = 0; i < 60000; ++i) {
    const Addr addr = rng.below(span);
    const auto op = rng.below(100);
    if (op < 70) {
      const AccessType type = rng.chance(0.4) ? AccessType::Write : AccessType::Read;
      const bool l_hit = legacy.touch(addr, type);
      std::optional<EvictedLine> l_ev;
      if (!l_hit) {
        l_ev = legacy.fill(addr);
        if (type == AccessType::Write) legacy.set_dirty(addr);
      }

      const auto f = fast.access(addr, type);
      std::optional<EvictedLine> f_ev;
      if (!f.hit) {
        f_ev = fast.fill_at(f, addr);
        if (type == AccessType::Write) fast.set_dirty_at(f);
      }

      ASSERT_EQ(l_hit, f.hit) << "addr=" << addr;
      ASSERT_EQ(l_ev.has_value(), f_ev.has_value()) << "addr=" << addr;
      if (l_ev) {
        ASSERT_EQ(l_ev->line_addr, f_ev->line_addr);
        ASSERT_EQ(l_ev->dirty, f_ev->dirty);
      }
    } else if (op < 85) {
      // Prefetch-style fill of a possibly-resident line.
      const auto l_ev = legacy.fill(addr, /*from_prefetch=*/true);
      const auto p = fast.peek(addr);
      std::optional<EvictedLine> f_ev;
      if (!p.hit) f_ev = fast.fill_at(p, addr, /*from_prefetch=*/true);
      ASSERT_EQ(l_ev.has_value(), f_ev.has_value());
      if (l_ev) {
        ASSERT_EQ(l_ev->line_addr, f_ev->line_addr);
        ASSERT_EQ(l_ev->dirty, f_ev->dirty);
      }
    } else if (op < 95) {
      const auto l_inv = legacy.invalidate(addr);
      const auto f_inv = fast.invalidate(addr);
      ASSERT_EQ(l_inv.has_value(), f_inv.has_value());
      if (l_inv) {
        ASSERT_EQ(l_inv->line_addr, f_inv->line_addr);
        ASSERT_EQ(l_inv->dirty, f_inv->dirty);
      }
    } else {
      ASSERT_EQ(legacy.probe(addr), fast.probe(addr));
    }
  }

  EXPECT_EQ(legacy.valid_lines(), fast.valid_lines());
  // Both sides performed the same logical operations, so every counter —
  // lookups, hits, misses, fills, evictions, dirty evictions — must agree.
  EXPECT_EQ(legacy.stats(), fast.stats());
  // Residency agrees across the whole working set.
  for (Addr a = 0; a < span; a += 64) {
    ASSERT_EQ(legacy.contains(a), fast.contains(a)) << "addr=" << a;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CacheApiEquivalence,
    ::testing::Values(
        std::make_tuple(Bytes{4096}, 8u, WritePolicy::WriteBack),
        std::make_tuple(Bytes{4096}, 8u, WritePolicy::WriteThrough),
        std::make_tuple(Bytes{32768}, 8u, WritePolicy::WriteThrough),
        std::make_tuple(Bytes{262144}, 24u, WritePolicy::WriteBack),   // 170 sets
        std::make_tuple(Bytes{4194304}, 32u, WritePolicy::WriteBack)));

}  // namespace
}  // namespace hm
