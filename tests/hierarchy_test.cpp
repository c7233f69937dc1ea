// Unit tests for the three-level hierarchy: latency composition, fill paths,
// write-through traffic, dirty write-backs, and the coherent DMA bus ops.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "memory/hierarchy.hpp"

namespace hm {
namespace {

HierarchyConfig quiet_config() {
  HierarchyConfig cfg;
  cfg.pf_l1.enabled = false;  // deterministic latency tests without prefetch
  cfg.pf_l2.enabled = false;
  cfg.pf_l3.enabled = false;
  return cfg;
}

TEST(Hierarchy, ColdLoadGoesToMemory) {
  MemoryHierarchy h(quiet_config());
  const auto r = h.access(0, 0x1000, AccessType::Read, 0x400);
  EXPECT_EQ(r.served_by, ServedBy::MainMemory);
  // L1 (2) + L2 (15) + L3 (40) lookup latencies precede the DRAM access.
  EXPECT_GE(r.latency, 2u + 15u + 40u + 200u);
  EXPECT_EQ(h.memory().stats().accesses, 1u);
}

TEST(Hierarchy, SecondLoadHitsL1) {
  MemoryHierarchy h(quiet_config());
  h.access(0, 0x1000, AccessType::Read, 0x400);
  const auto r = h.access(1000, 0x1008, AccessType::Read, 0x400);
  EXPECT_EQ(r.served_by, ServedBy::CacheL1);
  EXPECT_EQ(r.latency, 2u);
}

TEST(Hierarchy, FillAllocatesWholePath) {
  MemoryHierarchy h(quiet_config());
  h.access(0, 0x1000, AccessType::Read, 0x400);
  EXPECT_TRUE(h.l1d().contains(0x1000));
  EXPECT_TRUE(h.l2().contains(0x1000));
  EXPECT_TRUE(h.l3().contains(0x1000));
}

TEST(Hierarchy, L2HitLatency) {
  MemoryHierarchy h(quiet_config());
  h.access(0, 0x1000, AccessType::Read, 0x400);
  // Evict from L1 only: walk 32 KB + a bit of conflicting lines.
  for (Addr a = 0x10'0000; a < 0x10'0000 + 64 * 1024; a += 64)
    h.access(100, a, AccessType::Read, 0x500);
  ASSERT_FALSE(h.l1d().contains(0x1000));
  ASSERT_TRUE(h.l2().contains(0x1000));
  const auto r = h.access(10'000'000, 0x1000, AccessType::Read, 0x400);
  EXPECT_EQ(r.served_by, ServedBy::CacheL2);
  EXPECT_EQ(r.latency, 2u + 15u);
}

TEST(Hierarchy, WriteThroughPropagatesToL2) {
  MemoryHierarchy h(quiet_config());
  h.access(0, 0x1000, AccessType::Read, 0x400);  // warm the line
  const auto before = h.stats().writethrough_traffic;
  h.access(10, 0x1000, AccessType::Write, 0x404);
  EXPECT_EQ(h.stats().writethrough_traffic, before + 1);
  EXPECT_TRUE(h.l2().contains(0x1000));
}

TEST(Hierarchy, StoreHitLatencyIsL1) {
  MemoryHierarchy h(quiet_config());
  h.access(0, 0x1000, AccessType::Read, 0x400);
  const auto r = h.access(10, 0x1000, AccessType::Write, 0x404);
  EXPECT_EQ(r.latency, 2u);  // the store buffer hides the write-through
}

TEST(Hierarchy, DmaReadPrefersCaches) {
  MemoryHierarchy h(quiet_config());
  h.access(0, 0x1000, AccessType::Read, 0x400);  // line now in all levels
  const auto mem_before = h.memory().stats().accesses;
  const Cycle done = h.dma_read_line(1000, 0x1000);
  EXPECT_EQ(done, 1000u + 2u);  // copied from L1
  EXPECT_EQ(h.memory().stats().accesses, mem_before);  // no DRAM access
  EXPECT_EQ(h.stats().bus_dma, 1u);
}

TEST(Hierarchy, DmaReadFallsBackToMemory) {
  MemoryHierarchy h(quiet_config());
  const Cycle done = h.dma_read_line(1000, 0x1000);
  EXPECT_GE(done, 1000u + 200u);
  EXPECT_EQ(h.memory().stats().reads, 1u);
}

TEST(Hierarchy, DmaWriteInvalidatesAllLevels) {
  MemoryHierarchy h(quiet_config());
  h.access(0, 0x1000, AccessType::Read, 0x400);
  ASSERT_TRUE(h.l1d().contains(0x1000));
  h.dma_write_line(1000, 0x1000);
  EXPECT_FALSE(h.l1d().contains(0x1000));
  EXPECT_FALSE(h.l2().contains(0x1000));
  EXPECT_FALSE(h.l3().contains(0x1000));
  EXPECT_EQ(h.memory().stats().writes, 1u);
}

TEST(Hierarchy, L2DirtyVictimWritesBackToL3) {
  HierarchyConfig cfg = quiet_config();
  // Tiny L2 so evictions are easy to force.
  cfg.l2 = CacheConfig{.name = "L2", .size = 8 * 1024, .associativity = 4, .line_size = 64,
                       .latency = 15, .write_policy = WritePolicy::WriteBack};
  MemoryHierarchy h(cfg);
  h.access(0, 0x1000, AccessType::Read, 0x400);
  h.access(1, 0x1000, AccessType::Write, 0x404);  // dirty in L2 via write-through
  ASSERT_TRUE(h.l2().contains(0x1000));
  // Stream enough lines through L2 to evict 0x1000.
  for (Addr a = 0x20'0000; a < 0x20'0000 + 32 * 1024; a += 64)
    h.access(100, a, AccessType::Read, 0x500);
  EXPECT_FALSE(h.l2().contains(0x1000));
  EXPECT_GE(h.l2().stats().dirty_evictions, 1u);
  EXPECT_TRUE(h.l3().contains(0x1000));  // the write-back landed in L3
}

TEST(Hierarchy, MshrMergesConcurrentMissesToSameLine) {
  MemoryHierarchy h(quiet_config());
  h.access(0, 0x2000, AccessType::Read, 0x400);    // cold miss: one MSHR entry
  h.access(1, 0x2008, AccessType::Read, 0x404);    // same line: served by the fill
  EXPECT_EQ(h.mshr().stats().allocations, 1u);
}

TEST(Hierarchy, PrefetcherFillsAhead) {
  HierarchyConfig cfg;  // prefetchers on
  MemoryHierarchy h(cfg);
  // Walk a stream line by line; after confidence builds the next lines are
  // prefetched into L1 and demand accesses hit.
  for (int i = 0; i < 8; ++i)
    h.access(static_cast<Cycle>(i) * 1000, 0x10'0000 + static_cast<Addr>(i) * 64,
             AccessType::Read, 0x400);
  EXPECT_GT(h.pf_l1().stats().prefetches_issued, 0u);
  // Line 8 was prefetched: the access hits L1.
  const auto r = h.access(100'000, 0x10'0000 + 8 * 64, AccessType::Read, 0x400);
  EXPECT_EQ(r.served_by, ServedBy::CacheL1);
}

TEST(Hierarchy, ResetClearsEverything) {
  MemoryHierarchy h(quiet_config());
  h.access(0, 0x1000, AccessType::Read, 0x400);
  h.reset();
  EXPECT_FALSE(h.l1d().contains(0x1000));
  EXPECT_FALSE(h.l2().contains(0x1000));
  EXPECT_FALSE(h.l3().contains(0x1000));
}

TEST(Hierarchy, TotalActivityCountsAllBusWork) {
  MemoryHierarchy h(quiet_config());
  h.access(0, 0x1000, AccessType::Read, 0x400);  // lookup + fill at L1
  h.dma_write_line(100, 0x1000);                 // invalidation
  const SetAssocCache::Stats& s = h.l1d().stats();
  const auto l1 = s.activity();
  EXPECT_EQ(l1, s.lookups + s.fills + s.invalidations + s.snoops);
  EXPECT_GE(l1, 3u);
}

TEST(Hierarchy, MemoryBandwidthGapQueues) {
  MainMemory mem({.latency = 100, .gap = 10});
  const Cycle a = mem.access(0, AccessType::Read);
  const Cycle b = mem.access(0, AccessType::Read);  // same-cycle request queues
  EXPECT_EQ(a, 100u);
  EXPECT_EQ(b, 110u);
  EXPECT_EQ(mem.channels().total().queue_cycles, 10u);
}

/// Strided plus random loads and stores: the mixed stream the access-path
/// equivalence test feeds to both entry points.  Calls
/// @p issue(now, addr, type, pc) once per access, in bursts of eight
/// same-cycle accesses 1000 cycles apart: stores within a burst merge in
/// the write-combining buffer, and every drain lands before the next burst.
/// The merge window is the one place timing feeds back into traffic, so
/// this pacing makes the merge decisions independent of when each path
/// books its misses.
template <typename Issue>
void mixed_stream(std::size_t n, Issue issue) {
  Rng rng(0xACCE55u);
  constexpr unsigned kStreams = 6;
  Addr pos[kStreams];
  for (unsigned s = 0; s < kStreams; ++s) pos[s] = 0x10'0000ull * (s + 1);
  for (std::size_t i = 0; i < n; ++i) {
    Addr addr;
    Addr pc;
    if (rng.chance(0.25)) {
      addr = 0x4000'0000ull + rng.below(1 << 22);
      pc = 0x480;
    } else {
      const unsigned s = static_cast<unsigned>(rng.below(kStreams));
      addr = pos[s];
      pos[s] += 8 * (s + 1);
      pc = 0x400 + s * 4;
    }
    const AccessType type = rng.chance(0.3) ? AccessType::Write : AccessType::Read;
    issue(static_cast<Cycle>(i / 8) * 1000, addr, type, pc);
  }
}

TEST(Hierarchy, FunctionalAccessMovesTheSameTrafficAsAccess) {
  // Fast-forward must leave the machine as the timed path would: the same
  // tag state AND the same traffic (bus legs, write-through writes, port and
  // DRAM bookings).  The two entry points share one implementation, so this
  // pins that they stay one path.
  MemoryHierarchy timed(HierarchyConfig{});  // prefetchers on
  MemoryHierarchy functional(HierarchyConfig{});
  mixed_stream(50'000, [&](Cycle now, Addr addr, AccessType type, Addr pc) {
    timed.access(now, addr, type, pc);
  });
  mixed_stream(50'000, [&](Cycle now, Addr addr, AccessType type, Addr pc) {
    functional.functional_access(now, addr, type, pc);
  });

  EXPECT_TRUE(timed.l1d().dump_state() == functional.l1d().dump_state()) << "L1D diverged";
  EXPECT_TRUE(timed.l2().dump_state() == functional.l2().dump_state()) << "L2 diverged";
  EXPECT_TRUE(timed.l3().dump_state() == functional.l3().dump_state()) << "L3 diverged";
  // Every hierarchy counter but the port queue cycles, which are timing:
  // the functional path books an L1 miss at the issue cycle, the timed path
  // one L1 latency later, so the same bookings can queue by different
  // amounts.
  const auto traffic = [](const MemoryHierarchy& h) {
    MemoryHierarchy::Stats s = h.stats();
    s.l2_queue_cycles = 0;
    s.l3_queue_cycles = 0;
    return s;
  };
  EXPECT_EQ(traffic(timed), traffic(functional));
  EXPECT_EQ(timed.uncore().l2_port_contention().requests,
            functional.uncore().l2_port_contention().requests);
  EXPECT_EQ(timed.uncore().l3_port_contention().requests,
            functional.uncore().l3_port_contention().requests);
  EXPECT_EQ(timed.uncore().dram_contention().requests,
            functional.uncore().dram_contention().requests);
  EXPECT_GT(timed.stats().writethrough_traffic, 0u);
  EXPECT_LT(timed.stats().writethrough_traffic, timed.stats().stores)
      << "no write-combining merges exercised";
  EXPECT_GT(timed.uncore().dram_contention().requests, 0u);
}

}  // namespace
}  // namespace hm
