// Unit tests for the coherence directory: configuration, update, CAM lookup,
// address diversion, presence bit and entry-capacity rules (§3.2, Fig. 4).
#include <gtest/gtest.h>

#include "coherence/directory.hpp"

namespace hm {
namespace {

constexpr Addr kLmBase = 0x7F80'0000'0000ull;
constexpr Bytes kLmSize = 32 * 1024;

class DirectoryTest : public ::testing::Test {
 protected:
  DirectoryTest() : dir_(DirectoryConfig{.entries = 32}) {
    dir_.configure(1024, kLmBase, kLmSize);
  }
  CoherenceDirectory dir_;
};

TEST_F(DirectoryTest, MissPreservesSmAddress) {
  const auto r = dir_.lookup(0x1234'5678, 10);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.address, 0x1234'5678u);
  EXPECT_EQ(r.available_at, 10u);
  EXPECT_EQ(dir_.stats().misses, 1u);
}

TEST_F(DirectoryTest, HitDivertsToLm) {
  dir_.map(0x10'0000, kLmBase + 2048, 0);
  const auto r = dir_.lookup(0x10'0000 + 0x3A0, 10);
  EXPECT_TRUE(r.hit);
  // LM buffer base OR-ed with the offset inside the buffer (Fig. 4).
  EXPECT_EQ(r.address, kLmBase + 2048 + 0x3A0);
  EXPECT_EQ(dir_.stats().hits, 1u);
}

TEST_F(DirectoryTest, LookupOutsideMappedChunkMisses) {
  dir_.map(0x10'0000, kLmBase, 0);
  EXPECT_FALSE(dir_.lookup(0x10'0000 + 1024, 10).hit);  // next chunk
  EXPECT_FALSE(dir_.lookup(0x10'0000 - 1, 10).hit);     // previous chunk
  EXPECT_TRUE(dir_.lookup(0x10'0000 + 1023, 10).hit);   // last byte of chunk
}

TEST_F(DirectoryTest, MapOverwritesBufferEntry) {
  // A dma-get into an already-used buffer unmaps the previous chunk.
  dir_.map(0x10'0000, kLmBase, 0);
  dir_.map(0x20'0000, kLmBase, 0);
  EXPECT_FALSE(dir_.lookup(0x10'0000, 10).hit);
  EXPECT_TRUE(dir_.lookup(0x20'0000 + 4, 10).hit);
}

TEST_F(DirectoryTest, UnmapRemovesEntry) {
  dir_.map(0x10'0000, kLmBase, 0);
  dir_.unmap(kLmBase);
  EXPECT_FALSE(dir_.lookup(0x10'0000, 10).hit);
}

TEST_F(DirectoryTest, EntryIndexIsBufferNumber) {
  EXPECT_EQ(dir_.entry_index(kLmBase), 0u);
  EXPECT_EQ(dir_.entry_index(kLmBase + 1024), 1u);
  EXPECT_EQ(dir_.entry_index(kLmBase + 31 * 1024), 31u);
  EXPECT_THROW(dir_.entry_index(kLmBase + kLmSize), std::out_of_range);
  EXPECT_THROW(dir_.entry_index(0x1000), std::out_of_range);
}

TEST_F(DirectoryTest, PresenceStallUntilTransferCompletes) {
  dir_.map(0x10'0000, kLmBase, /*completes_at=*/500);
  const auto r = dir_.lookup(0x10'0000 + 8, 100);
  EXPECT_TRUE(r.hit);
  EXPECT_TRUE(r.presence_stall);
  EXPECT_EQ(r.available_at, 500u);
  EXPECT_EQ(dir_.stats().presence_stalls, 1u);
  EXPECT_EQ(dir_.stats().presence_stall_cycles, 400u);
  // After the transfer: no stall.
  const auto r2 = dir_.lookup(0x10'0000 + 8, 501);
  EXPECT_FALSE(r2.presence_stall);
  EXPECT_EQ(r2.available_at, 501u);
}

TEST_F(DirectoryTest, ConfigureClearsEntries) {
  dir_.map(0x10'0000, kLmBase, 0);
  dir_.configure(2048, kLmBase, kLmSize);
  EXPECT_FALSE(dir_.lookup(0x10'0000, 10).hit);
  EXPECT_EQ(dir_.buffer_size(), 2048u);
}

TEST_F(DirectoryTest, MapRequiresAlignedSmBase) {
  EXPECT_THROW(dir_.map(0x10'0001, kLmBase, 0), std::invalid_argument);
  EXPECT_THROW(dir_.map(0x10'0000 + 512, kLmBase, 0), std::invalid_argument);
}

TEST_F(DirectoryTest, ConfigureRejectsBadGeometry) {
  EXPECT_THROW(dir_.configure(1000, kLmBase, kLmSize), std::invalid_argument);  // not pow2
  // 32 KB of 512-byte buffers would need 64 entries > 32.
  EXPECT_THROW(dir_.configure(512, kLmBase, kLmSize), std::invalid_argument);
  // Not a multiple.
  EXPECT_THROW(dir_.configure(1024, kLmBase, kLmSize + 100), std::invalid_argument);
}

TEST_F(DirectoryTest, PeekIsSilent) {
  dir_.map(0x10'0000, kLmBase, 0);
  const auto before = dir_.stats().lookups;
  const auto p = dir_.peek(0x10'0000 + 0x55);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, kLmBase + 0x55);
  EXPECT_FALSE(dir_.peek(0x99'0000).has_value());
  EXPECT_EQ(dir_.stats().lookups, before);  // no statistics perturbed
}

TEST_F(DirectoryTest, UpdateCounterTracksMaps) {
  dir_.map(0x10'0000, kLmBase, 0);
  dir_.map(0x20'0000, kLmBase + 1024, 0);
  EXPECT_EQ(dir_.stats().updates, 2u);
}

TEST(Directory, RejectsZeroEntries) {
  EXPECT_THROW(CoherenceDirectory(DirectoryConfig{.entries = 0}), std::invalid_argument);
}

TEST(Directory, LookupBeforeConfigureMisses) {
  CoherenceDirectory dir;
  const auto r = dir.lookup(0x1000, 0);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.address, 0x1000u);
}

// Property sweep over buffer sizes: every byte of a mapped chunk diverts to
// the right LM byte, and the first byte past the chunk does not.
class DirectoryBufferSweep : public ::testing::TestWithParam<Bytes> {};

TEST_P(DirectoryBufferSweep, ExactChunkCoverage) {
  const Bytes bufsize = GetParam();
  CoherenceDirectory dir(DirectoryConfig{.entries = 32});
  dir.configure(bufsize, kLmBase, kLmSize);
  const Addr sm = 0x40'0000;  // aligned to any of the swept sizes
  // Buffer #1 when it exists; with one single LM-sized buffer use buffer #0.
  const Addr lm = bufsize < kLmSize ? kLmBase + bufsize : kLmBase;
  dir.map(sm, lm, 0);
  for (Addr off = 0; off < bufsize; off += bufsize / 16) {
    const auto r = dir.lookup(sm + off, 10);
    ASSERT_TRUE(r.hit) << "offset " << off;
    EXPECT_EQ(r.address, lm + off);
  }
  EXPECT_FALSE(dir.lookup(sm + bufsize, 10).hit);
}

INSTANTIATE_TEST_SUITE_P(BufferSizes, DirectoryBufferSweep,
                         ::testing::Values(1024, 2048, 4096, 8192, 16384, 32768));

// Mid-run re-programming: a dir.config while mappings are live (a new
// transformed loop starting with a different buffer size) must drop every
// entry, switch the masks to the new geometry, and keep the statistics
// accumulating (configure is not a statistics reset).
TEST_F(DirectoryTest, ConfigureReprogramsGeometryMidRun) {
  dir_.map(0x10'0000, kLmBase, 0);
  dir_.map(0x20'0000, kLmBase + 1024, 0);
  ASSERT_TRUE(dir_.lookup(0x10'0000 + 8, 10).hit);
  const auto lookups_before = dir_.stats().lookups;
  const auto updates_before = dir_.stats().updates;

  dir_.configure(4096, kLmBase, kLmSize);
  EXPECT_EQ(dir_.buffer_size(), 4096u);
  // Old mappings are gone under the new geometry.
  EXPECT_FALSE(dir_.lookup(0x10'0000 + 8, 20).hit);
  EXPECT_FALSE(dir_.is_mapped(0x20'0000));

  // New-geometry mapping: 4 KB chunks divert across the whole chunk, and
  // the old 1 KB boundary no longer ends the hit range.
  dir_.map(0x40'0000, kLmBase, 0);
  EXPECT_TRUE(dir_.lookup(0x40'0000 + 2048, 30).hit);
  EXPECT_EQ(dir_.lookup(0x40'0000 + 2048, 30).address, kLmBase + 2048);
  EXPECT_FALSE(dir_.lookup(0x40'0000 + 4096, 30).hit);
  // The old buffer-size alignment is now rejected for map().
  EXPECT_THROW(dir_.map(0x50'0400, kLmBase, 0), std::invalid_argument);

  // Statistics kept accumulating across the re-program.
  EXPECT_GT(dir_.stats().lookups, lookups_before);
  EXPECT_GT(dir_.stats().updates, updates_before);
}

// unmap() of a buffer whose entry holds no mapping is a harmless no-op
// (explicit teardown may race a never-filled buffer); unmap() outside the
// LM — or before configure — is a programming error and throws.
TEST_F(DirectoryTest, UnmapOfNonResidentBufferIsANoOp) {
  EXPECT_NO_THROW(dir_.unmap(kLmBase + 2048));  // empty entry
  dir_.map(0x10'0000, kLmBase, 0);
  dir_.unmap(kLmBase + 1024);  // different (empty) buffer: mapping survives
  EXPECT_TRUE(dir_.lookup(0x10'0000 + 4, 10).hit);
  dir_.unmap(kLmBase);
  EXPECT_FALSE(dir_.lookup(0x10'0000 + 4, 10).hit);
  EXPECT_NO_THROW(dir_.unmap(kLmBase));  // already unmapped: still a no-op
  EXPECT_THROW(dir_.unmap(kLmBase + kLmSize), std::out_of_range);
  EXPECT_THROW(dir_.unmap(0x1000), std::out_of_range);
}

TEST(Directory, UnmapBeforeConfigureThrows) {
  CoherenceDirectory dir;
  EXPECT_THROW(dir.unmap(kLmBase), std::logic_error);
}

// Full-capacity CAM: all 32 entries usable simultaneously.
TEST(Directory, AllEntriesUsable) {
  CoherenceDirectory dir(DirectoryConfig{.entries = 32});
  dir.configure(1024, kLmBase, kLmSize);
  for (unsigned b = 0; b < 32; ++b)
    dir.map(0x100'0000 + static_cast<Addr>(b) * 1024, kLmBase + static_cast<Addr>(b) * 1024, 0);
  for (unsigned b = 0; b < 32; ++b) {
    const auto r = dir.lookup(0x100'0000 + static_cast<Addr>(b) * 1024 + 7, 10);
    ASSERT_TRUE(r.hit) << "buffer " << b;
    EXPECT_EQ(r.address, kLmBase + static_cast<Addr>(b) * 1024 + 7);
  }
}

}  // namespace
}  // namespace hm
