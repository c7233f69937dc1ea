// Unit tests for the MSHR model: merging and structural stalls.
#include <gtest/gtest.h>

#include "memory/mshr.hpp"

namespace hm {
namespace {

TEST(Mshr, SimpleMissCompletesAfterFillLatency) {
  Mshr m({.entries = 4});
  EXPECT_EQ(m.on_miss(0x1000, 100, 50), 150u);
  EXPECT_EQ(m.stats().allocations, 1u);
}

TEST(Mshr, SecondMissToSameLineMerges) {
  Mshr m({.entries = 4});
  const Cycle ready = m.on_miss(0x1000, 100, 50);
  EXPECT_EQ(m.on_miss(0x1000, 120, 50), ready);  // merged: same completion
  EXPECT_EQ(m.stats().merges, 1u);
  EXPECT_EQ(m.stats().allocations, 1u);
}

TEST(Mshr, CompletedEntryDoesNotMerge) {
  Mshr m({.entries = 4});
  m.on_miss(0x1000, 100, 50);
  // At cycle 200 the fill has completed; a new miss is a fresh allocation.
  EXPECT_EQ(m.on_miss(0x1000, 200, 50), 250u);
  EXPECT_EQ(m.stats().merges, 0u);
  EXPECT_EQ(m.stats().allocations, 2u);
}

TEST(Mshr, StructuralStallWhenFull) {
  Mshr m({.entries = 2});
  m.on_miss(0x1000, 100, 50);  // ready 150
  m.on_miss(0x2000, 100, 60);  // ready 160
  // Third distinct miss at 110 must wait for the earliest entry (150).
  EXPECT_EQ(m.on_miss(0x3000, 110, 10), 160u);
  EXPECT_EQ(m.stats().structural_stalls, 1u);
  EXPECT_EQ(m.stats().stall_cycles, 40u);
}

TEST(Mshr, FreeEntryPreferredOverOccupied) {
  Mshr m({.entries = 2});
  m.on_miss(0x1000, 100, 1000);  // long fill occupies one entry
  // Second miss uses the free entry with no stall.
  EXPECT_EQ(m.on_miss(0x2000, 100, 10), 110u);
  EXPECT_EQ(m.stats().structural_stalls, 0u);
}

TEST(Mshr, ResetClearsInflight) {
  Mshr m({.entries = 1});
  m.on_miss(0x1000, 100, 1000);
  m.reset();
  EXPECT_EQ(m.on_miss(0x2000, 0, 10), 10u);  // no stall after reset
}

class MshrSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(MshrSweep, NDistinctMissesNeverReorder) {
  const unsigned entries = GetParam();
  Mshr m({.entries = entries});
  Cycle prev = 0;
  for (unsigned i = 0; i < entries * 3; ++i) {
    const Cycle ready = m.on_miss(0x1000 + static_cast<Addr>(i) * 64, 10, 100);
    EXPECT_GE(ready, prev);  // completion times are monotone per issue order
    prev = ready;
  }
  // With all entries busy, exactly 2*entries structural stalls happened.
  EXPECT_EQ(m.stats().structural_stalls, 2u * entries);
}

INSTANTIATE_TEST_SUITE_P(Capacities, MshrSweep, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace hm
