// Unit tests for the DMA controller: coherent gets/puts, tag synchronization,
// directory updates and the functional transfer semantics.
#include <gtest/gtest.h>

#include "common/byte_store.hpp"
#include "lm/dmac.hpp"

namespace hm {
namespace {

class DmacTest : public ::testing::Test {
 protected:
  DmacTest()
      : hierarchy_(make_hierarchy()),
        lm_(),
        dir_(DirectoryConfig{}),
        dmac_({.startup = 16, .per_line = 2, .num_tags = 32}, hierarchy_, lm_, &dir_, &image_) {
    dir_.configure(4096, lm_.base(), lm_.size());
  }

  static HierarchyConfig make_hierarchy() {
    HierarchyConfig cfg;
    cfg.pf_l1.enabled = cfg.pf_l2.enabled = cfg.pf_l3.enabled = false;
    return cfg;
  }

  MemoryHierarchy hierarchy_;
  LocalMemory lm_;
  CoherenceDirectory dir_;
  ByteStore image_;
  DmaController dmac_;
};

TEST_F(DmacTest, GetTransfersFunctionally) {
  for (Addr off = 0; off < 4096; off += 8) image_.store64(0x1'0000 + off, off + 1);
  dmac_.get(0, 0x1'0000, lm_.base(), 4096, 0);
  for (Addr off = 0; off < 4096; off += 8) EXPECT_EQ(image_.load64(lm_.base() + off), off + 1);
}

TEST_F(DmacTest, PutTransfersFunctionally) {
  for (Addr off = 0; off < 4096; off += 8) image_.store64(lm_.base() + off, off + 7);
  dmac_.put(0, lm_.base(), 0x2'0000, 4096, 1);
  for (Addr off = 0; off < 4096; off += 8) EXPECT_EQ(image_.load64(0x2'0000 + off), off + 7);
}

TEST_F(DmacTest, GetUpdatesDirectory) {
  EXPECT_FALSE(dir_.is_mapped(0x1'0000));
  dmac_.get(0, 0x1'0000, lm_.base(), 4096, 0);
  EXPECT_TRUE(dir_.is_mapped(0x1'0000));
  const auto look = dir_.lookup(0x1'0000 + 0x123, 1'000'000);
  EXPECT_TRUE(look.hit);
  EXPECT_EQ(look.address, lm_.base() + 0x123);
}

TEST_F(DmacTest, GetSnoopsCaches) {
  // Warm one line of the source into the caches.
  hierarchy_.access(0, 0x1'0000, AccessType::Read, 0x400);
  const auto snoops_before = hierarchy_.l1d().stats().snoops;
  dmac_.get(100, 0x1'0000, lm_.base(), 4096, 0);
  EXPECT_GT(hierarchy_.l1d().stats().snoops, snoops_before);
}

TEST_F(DmacTest, PutInvalidatesCaches) {
  hierarchy_.access(0, 0x2'0000, AccessType::Read, 0x400);
  ASSERT_TRUE(hierarchy_.l1d().contains(0x2'0000));
  dmac_.put(100, lm_.base(), 0x2'0000, 4096, 1);
  EXPECT_FALSE(hierarchy_.l1d().contains(0x2'0000));
  EXPECT_FALSE(hierarchy_.l2().contains(0x2'0000));
  EXPECT_FALSE(hierarchy_.l3().contains(0x2'0000));
}

TEST_F(DmacTest, SynchWaitsForTaggedTransfers) {
  const Cycle done0 = dmac_.get(0, 0x1'0000, lm_.base(), 4096, 3);
  EXPECT_EQ(dmac_.synch(0, 1u << 3), done0);
  EXPECT_EQ(dmac_.synch(0, 1u << 4), 0u);          // other tag: nothing to wait
  EXPECT_EQ(dmac_.synch(done0 + 5, 1u << 3), done0 + 5);  // already complete
}

TEST_F(DmacTest, SynchMaskCoversMultipleTags) {
  const Cycle d0 = dmac_.get(0, 0x1'0000, lm_.base(), 4096, 0);
  const Cycle d1 = dmac_.get(0, 0x2'0000, lm_.base() + 4096, 4096, 1);
  EXPECT_GT(d1, d0);  // the single engine serializes the two commands
  EXPECT_EQ(dmac_.synch(0, 0b11), d1);
}

TEST_F(DmacTest, BackToBackCommandsPipeline) {
  // The second command must not serialize behind the first one's full
  // startup + DRAM latency: its memory fetch overlaps the first command's
  // streaming tail, leaving only bandwidth (DRAM gap per line) plus the
  // engine's per-line rate.
  const Cycle d0 = dmac_.get(0, 0x1'0000, lm_.base(), 4096, 0);
  const Cycle d1 = dmac_.get(0, 0x2'0000, lm_.base() + 4096, 4096, 1);
  const Bytes lines = 4096 / 64;
  const Cycle serialized = 16 + 200 + lines * 2;  // startup + DRAM + stream
  EXPECT_LT(d1 - d0, serialized);
  EXPECT_LE(d1 - d0, lines * 4 + 64);  // bounded by DRAM bandwidth (gap=4)
}

TEST_F(DmacTest, LineAndByteAccounting) {
  dmac_.get(0, 0x1'0000, lm_.base(), 4096, 0);
  EXPECT_EQ(dmac_.stats().gets, 1u);
  EXPECT_EQ(dmac_.stats().lines, 4096u / 64u);
  EXPECT_EQ(dmac_.stats().bytes, 4096u);
}

TEST_F(DmacTest, RejectsOutOfLmTransfers) {
  EXPECT_THROW(dmac_.get(0, 0x1'0000, 0x1000, 64, 0), std::out_of_range);
  EXPECT_THROW(dmac_.get(0, 0x1'0000, lm_.base() + lm_.size() - 8, 64, 0), std::out_of_range);
  EXPECT_THROW(dmac_.put(0, 0x1000, 0x1'0000, 64, 0), std::out_of_range);
}

TEST_F(DmacTest, RejectsBadTag) {
  EXPECT_THROW(dmac_.get(0, 0x1'0000, lm_.base(), 64, 32), std::out_of_range);
}

TEST_F(DmacTest, ResetClearsEngineState) {
  dmac_.get(0, 0x1'0000, lm_.base(), 4096, 5);
  dmac_.reset();
  EXPECT_EQ(dmac_.tag_complete(5), 0u);
  EXPECT_EQ(dmac_.synch(0, ~0u), 0u);
}

TEST_F(DmacTest, PresenceBitClearedUntilCompletion) {
  const Cycle done = dmac_.get(0, 0x1'0000, lm_.base(), 4096, 0);
  // A guarded access racing the transfer stalls until the dma-get ends.
  const auto early = dir_.lookup(0x1'0000 + 8, done / 2);
  EXPECT_TRUE(early.hit);
  EXPECT_TRUE(early.presence_stall);
  EXPECT_EQ(early.available_at, done);
  // After completion: no stall.
  const auto late = dir_.lookup(0x1'0000 + 8, done + 1);
  EXPECT_TRUE(late.hit);
  EXPECT_FALSE(late.presence_stall);
}

TEST_F(DmacTest, GetWithoutDirectoryOrImage) {
  // Timing-only operation must work with both optional attachments absent.
  DmaController bare({.startup = 16, .per_line = 2, .num_tags = 8}, hierarchy_, lm_,
                     nullptr, nullptr);
  EXPECT_GT(bare.get(0, 0x9'0000, lm_.base(), 256, 0), 0u);
  EXPECT_GT(bare.put(1000, lm_.base(), 0x9'0000, 256, 1), 1000u);
}

}  // namespace
}  // namespace hm
