// Unit tests for the full-run occupancy layer (gap-slot booking on
// SharedResource, slot and span booking on SpanLanes / SharedLanes checked
// against per-bucket references, epoch reset, saturation, gap-0 rejection,
// the overflow guard and the contention statistics), the core's issue-slot
// model and the write-combining behaviour of the write-through L1.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/occupancy.hpp"
#include "common/rng.hpp"
#include "core/ooo_core.hpp"
#include "memory/hierarchy.hpp"
#include "memory/uncore.hpp"

namespace hm {
namespace {

TEST(SharedResource, ZeroGapIsRejected) {
  EXPECT_THROW(SharedResource("port", 0), std::invalid_argument);
  EXPECT_THROW(MainMemory(MainMemoryConfig{.gap = 0}), std::invalid_argument);
  for (const bool l3 : {false, true}) {
    HierarchyConfig cfg;
    (l3 ? cfg.l3_gap : cfg.l2_gap) = 0;
    EXPECT_THROW(Uncore{cfg}, std::invalid_argument) << (l3 ? "l3_gap" : "l2_gap");
    EXPECT_THROW((Uncore{cfg, NocConfig{.topology = Topology::Mesh}, 4}), std::invalid_argument);
  }
}

TEST(SharedResource, OnePerGapBucket) {
  SharedResource t("port", 4);
  EXPECT_EQ(t.book(0), 0u);   // bucket 0
  EXPECT_EQ(t.book(0), 4u);   // bucket 0 taken -> bucket 1 starts at 4
  EXPECT_EQ(t.book(0), 8u);
  EXPECT_EQ(t.book(12), 12u); // far bucket still free
}

TEST(SharedResource, OutOfOrderRequestsFillHoles) {
  SharedResource t("port", 4);
  EXPECT_EQ(t.book(100), 100u);  // a future booking...
  // ...must not delay an earlier request (the bug a single next-free
  // register has).
  EXPECT_EQ(t.book(0), 0u);
  EXPECT_EQ(t.book(4), 4u);
}

TEST(SharedResource, BookNeverStartsBeforeRequest) {
  SharedResource t("port", 8);
  for (int i = 0; i < 100; ++i) {
    const Cycle when = static_cast<Cycle>(i * 3);
    EXPECT_GE(t.book(when), when);
  }
}

TEST(SharedResource, NonMonotonicTimestampsKeepFullRunMemory) {
  // The bounded ring forgot bookings older than its window; the bitmap
  // must not.  Book far in the future, fill the present, then revisit the
  // future bucket: it is still occupied.
  SharedResource t("port", 2);
  EXPECT_EQ(t.book(1'000'000), 1'000'000u);
  for (int i = 0; i < 1000; ++i) t.book(0);  // a dense present-day burst
  // The future slot booked first is remembered across the whole run.
  EXPECT_EQ(t.book(1'000'000), 1'000'002u);
  // And the present-day burst is remembered from the future's perspective.
  EXPECT_EQ(t.book(0), 2000u);
}

TEST(SharedResource, EpochResetFreesEverything) {
  SharedResource t("port", 4);
  t.book(0);
  t.book(1'000'000);  // a second block, so reset covers multiple blocks
  t.reset();
  EXPECT_EQ(t.book(0), 0u);
  EXPECT_EQ(t.book(1'000'000), 1'000'000u);
}

TEST(SharedResource, EpochResetRecyclesSaturatedBlocks) {
  // Saturate well past one 4096-bucket block, reset, and saturate again:
  // the recycled blocks must behave exactly like fresh ones (the lazily
  // cleared epoch path), including the row-full summary words.
  SharedResource t("port", 1);
  for (int round = 0; round < 2; ++round) {
    for (Cycle i = 0; i < 10'000; ++i) EXPECT_EQ(t.book(0), i) << "round " << round;
    t.reset();
  }
}

TEST(SharedResource, DenseSaturationSerializesAcrossBlocks) {
  // N same-cycle requests serialize at exactly one per gap, across block
  // boundaries (4096 buckets per block; 6000 bookings span two blocks).
  SharedResource t("port", 3);
  Cycle last = 0;
  for (int i = 0; i < 6000; ++i) last = t.book(0);
  EXPECT_EQ(last, 3u * 5999u);
  // The saturated prefix reports its depth: the next booking skips all
  // 6000 occupied buckets.
  t.book(0);
  EXPECT_EQ(t.contention().peak_occupancy, 6000u);
}

TEST(SharedResource, OverflowPastHorizonIsGrantedButFlagged) {
  SharedResource t("bus", 1);
  const Cycle beyond = SpanLanes::max_buckets() + 17;
  EXPECT_EQ(t.book(beyond), beyond);  // served as if free — but never silently
  EXPECT_EQ(t.contention().overflows, 1u);
  t.book(SpanLanes::max_buckets() + 1);
  EXPECT_EQ(t.contention().overflows, 2u);
  t.book(0);
  EXPECT_EQ(t.contention().overflows, 2u);
}

TEST(SpanLanes, SpanBookingPushesPastOverlap) {
  SpanLanes t(1);
  EXPECT_EQ(t.book(0, 10, 5).start, 10u);   // [10,15)
  EXPECT_EQ(t.book(0, 12, 4).start, 15u);   // overlaps -> pushed to the end
  EXPECT_EQ(t.book(0, 0, 10).start, 0u);    // the earlier gap is still free
  EXPECT_EQ(t.book(0, 0, 2).start, 19u);    // everything before is booked
}

TEST(SpanLanes, SpanBookingFitsIntoGapsBetweenWindows) {
  SpanLanes t(1);
  t.book(0, 0, 4);    // [0,4)
  t.book(0, 10, 4);   // [10,14)
  const auto fit = t.book(0, 0, 6);       // exactly fills [4,10)
  EXPECT_EQ(fit.start, 4u);
  EXPECT_EQ(fit.skipped, 4u);             // only the BUSY buckets [0,4)
  const auto tail = t.book(0, 0, 1);      // nothing left before 14
  EXPECT_EQ(tail.start, 14u);
  EXPECT_EQ(tail.skipped, 14u);           // [0,14) is now solidly busy
}

TEST(SpanLanes, SpanSkippedCountsBusyBucketsNotFreeGaps) {
  // Free gaps too small for the span are not backlog: the depth statistic
  // must count occupied buckets only, matching the slot-mode unit.
  SpanLanes t(1);
  t.book(0, 0, 4);    // [0,4)
  t.book(0, 6, 4);    // [6,10)  — a 2-cycle free gap at [4,6)
  const auto b = t.book(0, 0, 3);
  EXPECT_EQ(b.start, 10u);
  EXPECT_EQ(b.skipped, 8u);  // 4 + 4 busy buckets; the gap [4,6) is free
}

TEST(SpanLanes, SpanBookingCrossesChunkBoundaries) {
  SpanLanes t(1);
  const Cycle len = 10'000;  // > 2 blocks of 4096 cycles
  EXPECT_EQ(t.book(0, 100, len).start, 100u);
  EXPECT_EQ(t.book(0, 100, 1).start, 100u + len);
}

TEST(SpanLanes, LanesAreIndependent) {
  SpanLanes t(3);
  EXPECT_EQ(t.book(0, 10, 5).start, 10u);
  EXPECT_EQ(t.book(1, 10, 5).start, 10u);  // another lane: no queueing
  EXPECT_EQ(t.book(2, 12, 2).start, 12u);
  EXPECT_EQ(t.book(1, 10, 5).start, 15u);
  EXPECT_EQ(t.book(0, 0, 0).start, 0u);     // an empty span books nothing
  EXPECT_EQ(t.book(0, 0, 10).start, 0u);
}

TEST(SpanLanes, OneBucketBookingJumpsRowsFilledBySpans) {
  // Rows 0 and 1 fill through the in-word span fast path; bucket 128 (row
  // 2) is busy.  A one-bucket booking at 0 must take the row-full summary
  // to row 2 and land on 129, never re-book a busy bucket.
  SpanLanes t(1);
  EXPECT_EQ(t.book_one(0, 128).start, 128u);
  EXPECT_EQ(t.book(0, 64, 32).start, 64u);
  EXPECT_EQ(t.book(0, 96, 32).start, 96u);
  EXPECT_EQ(t.book(0, 0, 64).start, 0u);
  const Booking b = t.book_one(0, 0);
  EXPECT_EQ(b.start, 129u);
  EXPECT_EQ(b.skipped, 129u);
}

/// Per-cycle reference for SpanLanes: one std::vector<bool> per lane over
/// the window [base, base + size), searched one cycle at a time.  Cycles at
/// or past the horizon are never booked, exactly like the real bitmap.
class NaiveLanes {
 public:
  NaiveLanes(unsigned lanes, std::uint64_t base, std::uint64_t size)
      : base_(base), busy_(lanes, std::vector<bool>(size, false)) {}

  Booking book(unsigned lane, Cycle when, Cycle len) {
    if (len == 0) return Booking{when, 0, false};
    std::uint64_t p = when;
    for (;;) {
      if (p + len > kHorizon) return Booking{when, 0, true};
      std::uint64_t q = p;
      while (q < p + len && !is_busy(lane, q)) ++q;
      if (q == p + len) break;
      p = q + 1;  // the span cannot start at or before the busy cycle q
    }
    std::uint64_t skipped = 0;
    for (std::uint64_t c = when; c < p; ++c) skipped += is_busy(lane, c) ? 1 : 0;
    for (std::uint64_t c = p; c < p + len; ++c) bit(lane, c) = true;
    return Booking{p, skipped, false};
  }

  void reset() {
    for (auto& lane : busy_) std::fill(lane.begin(), lane.end(), false);
  }

 private:
  static constexpr std::uint64_t kHorizon = SpanLanes::max_buckets();

  bool is_busy(unsigned lane, std::uint64_t c) {
    return c < kHorizon && bit(lane, c);
  }
  std::vector<bool>::reference bit(unsigned lane, std::uint64_t c) {
    EXPECT_GE(c, base_);
    EXPECT_LT(c - base_, busy_[lane].size()) << "reference window too small";
    return busy_[lane][c - base_];
  }

  std::uint64_t base_;
  std::vector<std::vector<bool>> busy_;
};

/// A request cycle in [lo, lo + range), biased onto the word (63/64) and
/// block (4095/4096) edges of the time-major layout.
Cycle edgy_cycle(Rng& rng, std::uint64_t lo, std::uint64_t range) {
  const std::uint64_t c = lo + rng.below(range);
  switch (rng.below(4)) {
    case 0: return (c & ~std::uint64_t{63}) + 63 + rng.below(3) - 1;      // 62..64
    case 1: return (c & ~std::uint64_t{4095}) + 4095 + rng.below(3) - 1;  // 4094..4096
    default: return c;
  }
}

/// Books @p n random requests on both bitmaps — about half one-bucket
/// slots, the rest spans of 1..@p max_len — and requires identical
/// start/skipped/overflow for every booking.
void expect_same_bookings(SpanLanes& real, NaiveLanes& ref, Rng& rng, unsigned lanes,
                          std::uint64_t lo, std::uint64_t range, int n,
                          std::uint64_t max_len = 300) {
  for (int i = 0; i < n; ++i) {
    const unsigned lane = static_cast<unsigned>(rng.below(lanes));
    const Cycle when = edgy_cycle(rng, lo, range);
    // Half are one-bucket slot bookings; spans include len 1 too.
    const bool slot = rng.chance(0.5);
    const Cycle len = slot ? 1 : 1 + rng.below(max_len);
    const Booking a = slot ? real.book_one(lane, when) : real.book(lane, when, len);
    const Booking b = ref.book(lane, when, len);
    ASSERT_EQ(a.start, b.start) << "booking " << i << " lane " << lane << " at " << when
                                << " len " << len;
    ASSERT_EQ(a.skipped, b.skipped) << "booking " << i;
    ASSERT_EQ(a.overflow, b.overflow) << "booking " << i;
  }
}

TEST(SpanLanes, MatchesPerCycleReferenceOnRandomStreams) {
  constexpr unsigned kLanes = 5;
  Rng rng(0x5A4Eu);
  SpanLanes real(kLanes);
  NaiveLanes ref(kLanes, 0, 1 << 20);
  // Sparse (mostly fast-path) then dense (long pushes across words and
  // blocks, carried runs, busy popcounts) traffic on the same lanes, then
  // a burst that saturates whole rows and blocks, so one-bucket bookings
  // jump over full rows and blocks through the summary words.
  expect_same_bookings(real, ref, rng, kLanes, 0, 200'000, 2000);
  expect_same_bookings(real, ref, rng, kLanes, 0, 40'000, 1500);
  expect_same_bookings(real, ref, rng, kLanes, 0, 9'000, 2500);
  // After reset() every lane is free again, recycled blocks included.
  real.reset();
  ref.reset();
  expect_same_bookings(real, ref, rng, kLanes, 0, 20'000, 1500);
}

TEST(SpanLanes, MatchesPerCycleReferenceAtTheHorizon) {
  constexpr unsigned kLanes = 2;
  const std::uint64_t h = SpanLanes::max_buckets();
  Rng rng(0x40A1u);
  SpanLanes real(kLanes);
  NaiveLanes ref(kLanes, h - 20'000, 20'000);
  // Requests straddle the horizon: spans that would end past it overflow
  // (granted at the request cycle, nothing booked), the rest book exactly.
  expect_same_bookings(real, ref, rng, kLanes, h - 12'000, 12'100, 1500);
  real.reset();
  ref.reset();
  expect_same_bookings(real, ref, rng, kLanes, h - 4'000, 4'100, 500);
  const Booking far = real.book(0, h + 17, 1);
  EXPECT_TRUE(far.overflow);
  EXPECT_EQ(far.start, h + 17);  // served as if free — but never silently
}

TEST(SpanLanes, SpanScanOverSaturatedRowsAndBlocksMatchesPerCycleReference) {
  constexpr unsigned kLanes = 3;
  constexpr std::uint64_t kBlock = 4096;
  SpanLanes real(kLanes);
  NaiveLanes ref(kLanes, 0, 128 * kBlock);
  const auto same = [&](unsigned lane, Cycle when, Cycle len) {
    const Booking a = real.book(lane, when, len);
    const Booking b = ref.book(lane, when, len);
    EXPECT_EQ(a.start, b.start) << "lane " << lane << " at " << when << " len " << len;
    EXPECT_EQ(a.skipped, b.skipped) << "lane " << lane << " at " << when << " len " << len;
    EXPECT_FALSE(a.overflow);
    return a;
  };
  // Lane 0: word 0 busy from bucket 40 to its end, then rows 1..10 full.
  // A span of 8 at 35 cannot fit before 40, so it steps over the rest of
  // word 0 and the ten full rows to land on row 11.
  same(0, 40, 24);
  same(0, 64, 10 * 64);
  Booking b = same(0, 35, 8);
  EXPECT_EQ(b.start, 11u * 64);
  EXPECT_EQ(b.skipped, 24u + 10 * 64);
  // Lane 1: blocks 0..2 full and block 3 booked up to bucket 100: a span
  // steps over three whole blocks, counting every bucket as skipped.
  same(1, 0, 3 * kBlock + 100);
  b = same(1, 10, 5);
  EXPECT_EQ(b.start, 3 * kBlock + 100);
  EXPECT_EQ(b.skipped, 3 * kBlock + 90);
  // Lane 2: blocks 60..67 full (a run crossing the full-block bitmap's
  // 64-block word), every row of block 68 but its last full, and a single
  // free bucket in the last row — too small for a span of 2.
  same(2, 60 * kBlock, 9 * kBlock - 64);
  same(2, 69 * kBlock - 64, 31);
  same(2, 69 * kBlock - 32, 32);
  b = same(2, 60 * kBlock + 7, 2);
  EXPECT_EQ(b.start, 69 * kBlock);
  EXPECT_EQ(b.skipped, 9 * kBlock - 8);
  // Lane 0 still holds row 0's free head: a fitting span lands there.
  EXPECT_EQ(same(0, 0, 30).start, 0u);
  // Dense random traffic on top: spans up to two blocks long saturate
  // more rows and blocks, and every booking must still match.
  Rng rng(0x5A7Fu);
  expect_same_bookings(real, ref, rng, kLanes, 0, 24 * kBlock, 300, 2 * kBlock);
}

/// Per-bucket reference for gap-G slot booking: a request at cycle c takes
/// the first free bucket b >= floor(c / G), starts at max(c, b * G), and
/// observes a backlog of b - floor(c / G) buckets.
class NaiveSlots {
 public:
  NaiveSlots(unsigned lanes, Cycle gap, std::uint64_t buckets)
      : gap_(gap), busy_(lanes, std::vector<bool>(buckets, false)), stats_(lanes) {}

  Cycle book(unsigned lane, Cycle when) {
    const std::uint64_t first = when / gap_;
    std::uint64_t b = first;
    while (busy_[lane].at(b)) ++b;
    busy_[lane][b] = true;
    const Cycle start = std::max(when, b * gap_);
    stats_[lane].count(Booking{start, b - first, false}, when);
    return start;
  }
  const Contention& contention(unsigned lane) const { return stats_[lane]; }

 private:
  Cycle gap_;
  std::vector<std::vector<bool>> busy_;
  std::vector<Contention> stats_;
};

class SlotReferenceSweep : public ::testing::TestWithParam<Cycle> {};

TEST_P(SlotReferenceSweep, GapSlotsMatchPerBucketReference) {
  const Cycle gap = GetParam();
  constexpr unsigned kLanes = 3;
  Rng rng(0x510u + gap);
  SharedLanes real(kLanes, gap, [](unsigned k) { return "slot" + std::to_string(k); });
  NaiveSlots ref(kLanes, gap, 1 << 18);
  // Sparse out-of-order traffic, then a burst several times the service
  // rate that saturates whole rows and blocks (4096 buckets each).
  for (const auto& [range, n] : {std::pair<std::uint64_t, int>{400'000, 3000},
                                 std::pair<std::uint64_t, int>{6'000 * gap, 20'000}}) {
    for (int i = 0; i < n; ++i) {
      const unsigned lane = static_cast<unsigned>(rng.below(kLanes));
      const Cycle when = edgy_cycle(rng, 0, range);
      ASSERT_EQ(real.book(lane, when), ref.book(lane, when))
          << "gap " << gap << " booking " << i << " lane " << lane << " at " << when;
    }
  }
  for (unsigned k = 0; k < kLanes; ++k) EXPECT_EQ(real.contention(k), ref.contention(k));
}

INSTANTIATE_TEST_SUITE_P(Gaps, SlotReferenceSweep, ::testing::Values(2, 3, 4, 6));

TEST(SharedResource, ContentionStatisticsAccumulate) {
  SharedResource r("port", 4);
  EXPECT_EQ(r.book(0), 0u);
  EXPECT_EQ(r.book(0), 4u);
  EXPECT_EQ(r.book(0), 8u);
  EXPECT_EQ(r.book(100), 100u);
  const auto& c = r.contention();
  EXPECT_EQ(c.requests, 4u);
  EXPECT_EQ(c.delayed, 2u);
  EXPECT_EQ(c.queue_cycles, 4u + 8u);
  EXPECT_EQ(c.peak_occupancy, 2u);  // the third booking skipped two buckets
  EXPECT_EQ(c.overflows, 0u);
}

TEST(SharedResource, ResetStatsClearsCountersButKeepsBookings) {
  SharedResource r("l9_port", 2);
  r.book(0);
  r.book(0);
  EXPECT_EQ(r.contention().requests, 2u);
  EXPECT_EQ(r.contention().delayed, 1u);
  EXPECT_EQ(r.contention().queue_cycles, 2u);
  r.reset_stats();
  EXPECT_EQ(r.contention(), Contention{});
  // The bitmap is untouched: slots 0 and 2 are still booked.
  EXPECT_EQ(r.book(0), 4u);
  EXPECT_EQ(r.contention().queue_cycles, 4u);
  // ...and reset() frees the slots without touching the statistics.
  r.reset();
  EXPECT_EQ(r.book(0), 0u);
  EXPECT_EQ(r.contention().requests, 2u);
}

TEST(SharedLanes, PerLaneStatisticsAndOverflowCounter) {
  SharedLanes lanes(2, 1, [](unsigned k) { return "lane" + std::to_string(k); });
  EXPECT_EQ(lanes.book(0, 10, 4), 10u);
  EXPECT_EQ(lanes.book(0, 10, 4), 14u);  // queued behind [10,14)
  EXPECT_EQ(lanes.book(1, 10, 4), 10u);
  lanes.book(1, SpanLanes::max_buckets() - 1, 8);  // ends past the horizon
  EXPECT_EQ(lanes.contention(0),
            (Contention{.requests = 2, .delayed = 1, .queue_cycles = 4,
                        .peak_occupancy = 4, .overflows = 0}));
  EXPECT_EQ(lanes.contention(1).overflows, 1u);
  EXPECT_EQ(lanes.total().requests, 4u);
  EXPECT_EQ(lanes.total().overflows, 1u);
  EXPECT_EQ(lanes.name(1), "lane1");
  // reset_stats() keeps the bookings; reset() frees them.
  lanes.reset_stats();
  EXPECT_EQ(lanes.total(), Contention{});
  EXPECT_EQ(lanes.book(0, 10, 1), 18u);
  lanes.reset();
  EXPECT_EQ(lanes.book(0, 10, 1), 10u);
}

TEST(SharedLanes, OverflowWarnsOncePerLane) {
  ::testing::internal::CaptureStderr();
  SharedLanes dram(2, 4, [](unsigned k) {
    return k == 0 ? std::string("dram") : "dram_ch" + std::to_string(k);
  });
  const Cycle beyond = 4 * SpanLanes::max_buckets();
  EXPECT_EQ(dram.book(0, beyond), beyond);
  EXPECT_EQ(dram.book(0, beyond + 4), beyond + 4);  // counted, not warned again
  EXPECT_EQ(dram.book(1, beyond), beyond);
  const std::string err = ::testing::internal::GetCapturedStderr();
  const auto warning = [](const std::string& name) {
    return "[WARN] occupancy: resource '" + name +
           "' (gap 4) booked beyond the tracked horizon of 2147483648 buckets; contention is "
           "understated and counted in its 'overflows' statistic\n";
  };
  EXPECT_EQ(err, warning("dram") + warning("dram_ch1"));
  EXPECT_EQ(dram.total().overflows, 3u);
}

TEST(SharedResource, MultiTileSlowdownIsMonotonicInCoreCount) {
  // Property: on a shared port of gap G, the aggregate per-tile slowdown
  // (mean queueing cycles per request) is monotonically non-decreasing in
  // the number of tiles.  Each tile issues the same request stream on its
  // own local clock — exactly how System::run drives the shared uncore —
  // so more tiles can only deepen the full-run occupancy.
  constexpr Cycle kGap = 3;
  constexpr int kRequests = 400;
  double prev = -1.0;
  for (const unsigned tiles : {1u, 2u, 4u, 8u, 16u}) {
    SharedResource port("l2_port", kGap);
    for (unsigned t = 0; t < tiles; ++t) {
      Cycle now = 0;
      for (int i = 0; i < kRequests; ++i) {
        const Cycle start = port.book(now);
        now = std::max(now + 2, start);  // a tile-local clock, gap-agnostic
      }
    }
    const auto& c = port.contention();
    ASSERT_EQ(c.requests, static_cast<std::uint64_t>(tiles) * kRequests);
    const double slowdown =
        static_cast<double>(c.queue_cycles) / static_cast<double>(c.requests);
    EXPECT_GE(slowdown, prev) << tiles << " tiles";
    EXPECT_EQ(c.overflows, 0u);
    prev = slowdown;
  }
}

TEST(IssuePool, WidthPerCycle) {
  OooCore::IssuePool pool(2);
  EXPECT_EQ(pool.book(10), 10u);
  EXPECT_EQ(pool.book(10), 10u);  // second slot in the same cycle
  EXPECT_EQ(pool.book(10), 11u);  // third spills to the next cycle
}

TEST(IssuePool, YoungOpsFillOldHoles) {
  OooCore::IssuePool pool(1);
  EXPECT_EQ(pool.book(50), 50u);  // op with late-ready operands
  EXPECT_EQ(pool.book(10), 10u);  // younger op issues earlier — no blocking
}

TEST(WriteCombining, SameLineStoresMerge) {
  HierarchyConfig cfg;
  cfg.pf_l1.enabled = cfg.pf_l2.enabled = cfg.pf_l3.enabled = false;
  MemoryHierarchy h(cfg);
  h.access(0, 0x1000, AccessType::Read, 0x400);  // warm the line into L1
  const auto before = h.stats().writethrough_traffic;
  // Eight stores into one line close together: one combining entry.
  for (Addr off = 0; off < 64; off += 8) h.access(10, 0x1000 + off, AccessType::Write, 0x404);
  EXPECT_EQ(h.stats().writethrough_traffic, before + 1);
}

TEST(WriteCombining, DistinctLinesDoNotMerge) {
  HierarchyConfig cfg;
  cfg.pf_l1.enabled = cfg.pf_l2.enabled = cfg.pf_l3.enabled = false;
  MemoryHierarchy h(cfg);
  for (Addr a = 0x1000; a < 0x1000 + 4 * 64; a += 64) h.access(0, a, AccessType::Read, 0x400);
  const auto before = h.stats().writethrough_traffic;
  for (Addr a = 0x1000; a < 0x1000 + 4 * 64; a += 64) h.access(10, a, AccessType::Write, 0x404);
  EXPECT_EQ(h.stats().writethrough_traffic, before + 4);
}

TEST(WriteCombining, EntryExpiresAfterDrain) {
  HierarchyConfig cfg;
  cfg.pf_l1.enabled = cfg.pf_l2.enabled = cfg.pf_l3.enabled = false;
  MemoryHierarchy h(cfg);
  h.access(0, 0x1000, AccessType::Read, 0x400);
  h.access(10, 0x1000, AccessType::Write, 0x404);
  const auto before = h.stats().writethrough_traffic;
  // Long after the drain the same line needs a fresh write-through.
  h.access(100'000, 0x1000, AccessType::Write, 0x404);
  EXPECT_EQ(h.stats().writethrough_traffic, before + 1);
}

TEST(SharedResource, ContentionAggregatesAddCountsAndMaxPeak) {
  Contention agg{.requests = 3, .delayed = 1, .queue_cycles = 5,
                                 .peak_occupancy = 4, .overflows = 0};
  agg += Contention{.requests = 2, .delayed = 2, .queue_cycles = 7,
                                    .peak_occupancy = 2, .overflows = 1};
  EXPECT_EQ(agg.requests, 5u);
  EXPECT_EQ(agg.delayed, 3u);
  EXPECT_EQ(agg.queue_cycles, 12u);
  EXPECT_EQ(agg.peak_occupancy, 4u);  // the deeper backlog, not the sum
  EXPECT_EQ(agg.overflows, 1u);
}

class OccupancyGapSweep : public ::testing::TestWithParam<Cycle> {};

TEST_P(OccupancyGapSweep, ThroughputMatchesGap) {
  const Cycle gap = GetParam();
  SharedResource t("port", gap);
  // N same-cycle requests serialize at exactly one per gap.
  const int n = 64;
  Cycle last = 0;
  for (int i = 0; i < n; ++i) last = t.book(0);
  EXPECT_EQ(last, gap * static_cast<Cycle>(n - 1));
}

INSTANTIATE_TEST_SUITE_P(Gaps, OccupancyGapSweep, ::testing::Values(1, 2, 3, 4, 8));

}  // namespace
}  // namespace hm
