// Unit tests for src/common: bit ops, address masks, stats, RNG, byte store.
#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "common/byte_store.hpp"
#include "common/paged_table.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace hm {
namespace {

TEST(BitOps, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2((1ull << 40) + 1));
}

TEST(BitOps, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(1024), 10u);
  EXPECT_EQ(log2_floor(~0ull), 63u);
}

TEST(BitOps, AlignDownUp) {
  EXPECT_EQ(align_down(0x1234, 0x100), 0x1200u);
  EXPECT_EQ(align_up(0x1234, 0x100), 0x1300u);
  EXPECT_EQ(align_down(0x1200, 0x100), 0x1200u);
  EXPECT_EQ(align_up(0x1200, 0x100), 0x1200u);
  EXPECT_EQ(align_down(63, 64), 0u);
  EXPECT_EQ(align_up(1, 64), 64u);
}

TEST(BitOps, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(12), 0xFFFull);
  EXPECT_EQ(low_mask(64), ~0ull);
}

TEST(AddressMasks, DecomposeAndRecombine) {
  const auto m = AddressMasks::for_buffer_size(4096);
  const Addr a = 0x0010'2345;
  EXPECT_EQ(m.base(a), 0x0010'2000u);
  EXPECT_EQ(m.offset(a), 0x345u);
  EXPECT_EQ(m.combine(m.base(a), m.offset(a)), a);
}

TEST(AddressMasks, DivertPreservesOffset) {
  // The hardware path of Fig. 4: SM base swapped for LM base, offset OR-ed.
  const auto m = AddressMasks::for_buffer_size(1024);
  const Addr sm = 0x2000'0000 + 0x3FF;
  const Addr lm_base = 0x7F80'0000'0000;
  EXPECT_EQ(m.combine(lm_base, m.offset(sm)), lm_base + 0x3FF);
}

class AddressMasksSweep : public ::testing::TestWithParam<Bytes> {};

TEST_P(AddressMasksSweep, BaseOffsetPartitionAddress) {
  const Bytes size = GetParam();
  const auto m = AddressMasks::for_buffer_size(size);
  Rng rng(size);
  for (int i = 0; i < 200; ++i) {
    const Addr a = rng.next() & low_mask(48);
    EXPECT_EQ(m.base(a) | m.offset(a), a);
    EXPECT_EQ(m.base(a) & m.offset(a), 0u);
    EXPECT_LT(m.offset(a), size);
    EXPECT_EQ(m.base(a) % size, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBufferSizes, AddressMasksSweep,
                         ::testing::Values(64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
                                           32768));

TEST(Stats, SafeRatio) {
  EXPECT_DOUBLE_EQ(safe_ratio(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(safe_ratio(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(safe_ratio(1, 0, -1.0), -1.0);
}

TEST(Stats, Accumulator) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  a.add(2.0);
  a.add(4.0);
  a.add(9.0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ReseedReproduces) {
  Rng a(7);
  const auto first = a.next();
  a.reseed(7);
  EXPECT_EQ(a.next(), first);
}

TEST(Rng, BelowInRange) {
  Rng r(99);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng r(77);
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) hits += r.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10'000.0, 0.25, 0.03);
}

TEST(PagedTable, UnwrittenSlotsReadEmpty) {
  constexpr std::size_t kPage = PagedTable<std::uint64_t>::kPageSlots;  // 512
  constexpr std::size_t kSlots = 3 * kPage + 100;  // the last page partial
  PagedTable<std::uint64_t> t(kSlots);
  EXPECT_EQ(t.max_pages(), 4u);
  EXPECT_EQ(t[5], 0u);  // absent page
  t.write(kPage + 6) = 1;
  t.write(kSlots - 1) = 3;
  for (std::size_t i = 0; i < kSlots; ++i)
    EXPECT_EQ(t[i], i == kPage + 6 ? 1u : i == kSlots - 1 ? 3u : 0u) << i;
  // clear() drops every page; a page allocated afterwards (likely on the
  // memory just freed, slot kPage + 6's 1 included) holds empty entries.
  t.clear();
  t.write(kPage) = 2;
  EXPECT_EQ(t[kPage], 2u);
  EXPECT_EQ(t[kPage + 6], 0u);
  EXPECT_EQ(t[kSlots - 1], 0u);
}

TEST(ByteStore, ReadBackWritten) {
  ByteStore s;
  s.store64(0x1000, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(s.load64(0x1000), 0xDEADBEEFCAFEBABEull);
}

TEST(ByteStore, UntouchedReadsZero) {
  ByteStore s;
  EXPECT_EQ(s.load64(0x9999'0000), 0u);
  EXPECT_EQ(s.touched_pages(), 0u);  // reads never allocate
}

TEST(ByteStore, CrossPageWrite) {
  ByteStore s;
  const Addr a = ByteStore::kPageSize - 4;  // straddles two pages
  s.store64(a, 0x1122334455667788ull);
  EXPECT_EQ(s.load64(a), 0x1122334455667788ull);
  EXPECT_EQ(s.touched_pages(), 2u);
}

TEST(ByteStore, CopyBetweenRegions) {
  ByteStore s;
  for (int i = 0; i < 64; ++i) s.store64(0x1000 + 8 * static_cast<Addr>(i), 1000u + static_cast<std::uint64_t>(i));
  s.copy_from(s, 0x1000, 0x8000, 64 * 8);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(s.load64(0x8000 + 8 * static_cast<Addr>(i)), 1000u + static_cast<std::uint64_t>(i));
}

TEST(ByteStore, CopyLargerThanInternalChunk) {
  ByteStore s;
  for (Addr off = 0; off < 1024; off += 8) s.store64(0x1000 + off, off * 3 + 1);
  s.copy_from(s, 0x1000, 0x40'0000, 1024);  // > the 256-byte internal buffer
  for (Addr off = 0; off < 1024; off += 8) EXPECT_EQ(s.load64(0x40'0000 + off), off * 3 + 1);
}

TEST(ByteStore, CopyOfAbsentOntoAbsentAllocatesNothing) {
  ByteStore s;
  s.store64(0x1000, 1);
  s.copy_from(s, 0x10'0000, 0x20'0000, 3 * ByteStore::kPageSize);
  EXPECT_EQ(s.touched_pages(), 1u);
  for (Addr off = 0; off < 3 * ByteStore::kPageSize; off += 8) EXPECT_EQ(s.load64(0x20'0000 + off), 0u);
}

TEST(ByteStore, CopyOfAbsentOntoPresentZeroes) {
  ByteStore s;
  for (Addr off = 0; off < 256; off += 8) s.store64(0x20'0000 + off, 0xFFu);
  s.copy_from(s, 0x10'0000, 0x20'0000 + 64, 128);
  EXPECT_EQ(s.touched_pages(), 1u);
  for (Addr off = 0; off < 256; off += 8)
    EXPECT_EQ(s.load64(0x20'0000 + off), off >= 64 && off < 192 ? 0u : 0xFFu) << off;
}

TEST(ByteStore, CopyOfPresentOntoAbsentCreatesThePage) {
  ByteStore s;
  s.store64(0x1008, 0xABCDu);
  s.copy_from(s, 0x1000, 0x20'0000, 16);
  EXPECT_EQ(s.touched_pages(), 2u);
  EXPECT_EQ(s.load64(0x20'0000), 0u);
  EXPECT_EQ(s.load64(0x20'0008), 0xABCDu);
}

TEST(ByteStore, CopyStraddlingPresentAndAbsentPages) {
  // Source pages S0 (present), S1 (absent), S2 (absent), S3 (present) onto
  // destination pages D0 (absent), D1 (present), D2 (absent), D3 (absent),
  // D4 (absent), misaligned by 0x100 so every span ends at one side's page
  // boundary.  The absent S2 lands on D2 and D3: skipped, nothing allocated.
  constexpr Bytes P = ByteStore::kPageSize;
  constexpr Addr src = 0x10'0000, dst = 0x80'0000 - 0x100;
  ByteStore s;
  const auto pattern = [](Addr a) { return a * 0x9E37u + 1; };
  for (Addr off = 0; off < P; off += 8) s.store64(src + off, pattern(off));
  for (Addr off = 3 * P; off < 4 * P; off += 8) s.store64(src + off, pattern(off));
  for (Addr off = 0; off < P; off += 8) s.store64(0x80'0000 + off, 0x77u);  // D1
  ASSERT_EQ(s.touched_pages(), 3u);
  s.copy_from(s, src, dst, 4 * P);
  for (Addr off = 0; off < 4 * P; off += 8) {
    const bool present = off < P || off >= 3 * P;
    EXPECT_EQ(s.load64(dst + off), present ? pattern(off) : 0u) << off;
  }
  // New pages: D0, D3 and D4, where S0 and S3 land; not D2.
  EXPECT_EQ(s.touched_pages(), 3u + 3u);
}

TEST(ByteStore, ClearDropsEverything) {
  ByteStore s;
  s.store64(0x1000, 7);
  s.clear();
  EXPECT_EQ(s.load64(0x1000), 0u);
  EXPECT_EQ(s.touched_pages(), 0u);
}

}  // namespace
}  // namespace hm
