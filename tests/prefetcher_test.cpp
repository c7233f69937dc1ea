// Unit tests for the IP-based stream prefetcher, including the history-table
// collision behaviour the paper's §4.3 analysis depends on.
#include <gtest/gtest.h>

#include <set>

#include "memory/prefetcher.hpp"

namespace hm {
namespace {

PrefetcherConfig small_pf() {
  return PrefetcherConfig{.table_entries = 8, .degree = 2, .confidence_threshold = 2};
}

TEST(Prefetcher, NoPrefetchBeforeConfidence) {
  StreamPrefetcher pf(small_pf(), 64);
  EXPECT_TRUE(pf.train(0x400, 0x1000).empty());   // allocate entry
  EXPECT_TRUE(pf.train(0x400, 0x1040).empty());   // first stride observation
  // Second repeat reaches the threshold.
  const auto lines = pf.train(0x400, 0x1080);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], 0x10C0u);
  EXPECT_EQ(lines[1], 0x1100u);
}

TEST(Prefetcher, NegativeStride) {
  StreamPrefetcher pf(small_pf(), 64);
  pf.train(0x400, 0x2000);
  pf.train(0x400, 0x1FC0);
  const auto lines = pf.train(0x400, 0x1F80);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], 0x1F40u);
  EXPECT_EQ(lines[1], 0x1F00u);
}

TEST(Prefetcher, StrideChangeResetsConfidence) {
  StreamPrefetcher pf(small_pf(), 64);
  pf.train(0x400, 0x1000);
  pf.train(0x400, 0x1040);
  pf.train(0x400, 0x1080);          // confident now
  EXPECT_TRUE(pf.train(0x400, 0x5000).empty());  // stride broke
  EXPECT_TRUE(pf.train(0x400, 0x5040).empty());  // rebuilt to confidence 1...
  EXPECT_FALSE(pf.train(0x400, 0x5080).empty()); // ...and confident again
}

TEST(Prefetcher, SameLineAccessesLearnNothing) {
  StreamPrefetcher pf(small_pf(), 64);
  pf.train(0x400, 0x1000);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(pf.train(0x400, 0x1008).empty());
}

TEST(Prefetcher, CollisionEvictsEntry) {
  PrefetcherConfig cfg = small_pf();
  StreamPrefetcher pf(cfg, 64);
  // Two IPs that collide in an 8-entry table: the index is a hash, so find a
  // colliding pair by search.
  Addr pc_a = 0x400;
  Addr pc_b = 0;
  StreamPrefetcher probe(cfg, 64);
  for (Addr cand = 0x404; cand < 0x4000; cand += 4) {
    // Train A to confidence, then touch the candidate and see if A forgot.
    StreamPrefetcher t(cfg, 64);
    t.train(pc_a, 0x1000);
    t.train(pc_a, 0x1040);
    t.train(cand, 0x9000);
    if (t.train(pc_a, 0x1080).empty()) { pc_b = cand; break; }
  }
  ASSERT_NE(pc_b, 0u) << "no colliding pc found";
  pf.train(pc_a, 0x1000);
  pf.train(pc_a, 0x1040);
  pf.train(pc_b, 0x9000);  // collision: evicts A's entry
  EXPECT_GE(pf.stats().collisions, 1u);
  EXPECT_TRUE(pf.train(pc_a, 0x1080).empty());  // A must re-learn
}

TEST(Prefetcher, ManyStreamsOverflowSmallTable) {
  // The §4.3 effect: more concurrent streams than table entries means
  // constant collisions and almost no useful prefetches.
  StreamPrefetcher pf(small_pf(), 64);
  std::uint64_t issued_total = 0;
  for (int round = 0; round < 64; ++round) {
    for (Addr s = 0; s < 32; ++s) {  // 32 streams, 8 entries
      const Addr pc = 0x400 + s * 4;
      const Addr addr = 0x10'0000 * (s + 1) + static_cast<Addr>(round) * 64;
      issued_total += pf.train(pc, addr).size();
    }
  }
  EXPECT_GT(pf.stats().collisions, 500u);
  // With a big-enough table the same streams prefetch constantly.
  StreamPrefetcher big({.table_entries = 64, .degree = 2, .confidence_threshold = 2}, 64);
  std::uint64_t issued_big = 0;
  for (int round = 0; round < 64; ++round) {
    for (Addr s = 0; s < 32; ++s) {
      const Addr pc = 0x400 + s * 4;
      const Addr addr = 0x10'0000 * (s + 1) + static_cast<Addr>(round) * 64;
      issued_big += big.train(pc, addr).size();
    }
  }
  EXPECT_GT(issued_big, issued_total * 2);
}

TEST(Prefetcher, DisabledIssuesNothing) {
  PrefetcherConfig cfg = small_pf();
  cfg.enabled = false;
  StreamPrefetcher pf(cfg, 64);
  pf.train(0x400, 0x1000);
  pf.train(0x400, 0x1040);
  EXPECT_TRUE(pf.train(0x400, 0x1080).empty());
  EXPECT_EQ(pf.stats().trainings, 0u);
}

TEST(Prefetcher, ResetForgetsStreams) {
  StreamPrefetcher pf(small_pf(), 64);
  pf.train(0x400, 0x1000);
  pf.train(0x400, 0x1040);
  pf.reset();
  EXPECT_TRUE(pf.train(0x400, 0x1080).empty());
}

TEST(Prefetcher, RejectsNonPow2Table) {
  EXPECT_THROW(StreamPrefetcher(PrefetcherConfig{.table_entries = 12}, 64), std::invalid_argument);
}

class PrefetcherDegree : public ::testing::TestWithParam<unsigned> {};

TEST_P(PrefetcherDegree, IssuesExactlyDegreeLines) {
  const unsigned degree = GetParam();
  StreamPrefetcher pf({.table_entries = 8, .degree = degree, .confidence_threshold = 2}, 64);
  pf.train(0x400, 0x1000);
  pf.train(0x400, 0x1040);
  const auto lines = pf.train(0x400, 0x1080);
  ASSERT_EQ(lines.size(), degree);
  std::set<Addr> unique(lines.begin(), lines.end());
  EXPECT_EQ(unique.size(), degree);  // all distinct, ahead of the stream
  for (const Addr a : lines) EXPECT_GT(a, 0x1080u);
}

INSTANTIATE_TEST_SUITE_P(Degrees, PrefetcherDegree, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace hm
