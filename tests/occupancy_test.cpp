// Unit tests for the full-run occupancy layer (slot booking, span booking
// on SpanLanes checked against a per-cycle reference, epoch reset,
// saturation, the overflow guard and the SharedResource / SharedLanes
// contention statistics), the core's issue-slot model and the
// write-combining behaviour of the write-through L1.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/occupancy.hpp"
#include "common/rng.hpp"
#include "core/ooo_core.hpp"
#include "memory/hierarchy.hpp"

namespace hm {
namespace {

TEST(OccupancyTimeline, ZeroGapIsInfinite) {
  OccupancyTimeline t(0);
  for (Cycle c : {Cycle{0}, Cycle{5}, Cycle{5}, Cycle{5}}) EXPECT_EQ(t.book(c).start, c);
}

TEST(OccupancyTimeline, OnePerGapBucket) {
  OccupancyTimeline t(4);
  EXPECT_EQ(t.book(0).start, 0u);   // bucket 0
  EXPECT_EQ(t.book(0).start, 4u);   // bucket 0 taken -> bucket 1 starts at 4
  EXPECT_EQ(t.book(0).start, 8u);
  EXPECT_EQ(t.book(12).start, 12u); // far bucket still free
}

TEST(OccupancyTimeline, OutOfOrderRequestsFillHoles) {
  OccupancyTimeline t(4);
  EXPECT_EQ(t.book(100).start, 100u);  // a future booking...
  // ...must not delay an earlier request (the bug a single next-free
  // register has).
  EXPECT_EQ(t.book(0).start, 0u);
  EXPECT_EQ(t.book(4).start, 4u);
}

TEST(OccupancyTimeline, BookNeverStartsBeforeRequest) {
  OccupancyTimeline t(8);
  for (int i = 0; i < 100; ++i) {
    const Cycle when = static_cast<Cycle>(i * 3);
    EXPECT_GE(t.book(when).start, when);
  }
}

TEST(OccupancyTimeline, NonMonotonicTimestampsKeepFullRunMemory) {
  // The bounded ring forgot bookings older than its window; the timeline
  // must not.  Book far in the future, fill the present, then revisit the
  // future bucket: it is still occupied.
  OccupancyTimeline t(2);
  EXPECT_EQ(t.book(1'000'000).start, 1'000'000u);
  for (int i = 0; i < 1000; ++i) t.book(0);  // a dense present-day burst
  // The future slot booked first is remembered across the whole run.
  EXPECT_EQ(t.book(1'000'000).start, 1'000'002u);
  // And the present-day burst is remembered from the future's perspective.
  EXPECT_EQ(t.book(0).start, 2000u);
}

TEST(OccupancyTimeline, EpochResetFreesEverything) {
  OccupancyTimeline t(4);
  t.book(0);
  t.book(1'000'000);  // a second chunk, so reset covers multiple chunks
  t.reset();
  EXPECT_EQ(t.book(0).start, 0u);
  EXPECT_EQ(t.book(1'000'000).start, 1'000'000u);
}

TEST(OccupancyTimeline, EpochResetRecyclesSaturatedChunks) {
  // Saturate well past one 4096-bucket chunk, reset, and saturate again:
  // the recycled chunks must behave exactly like fresh ones (the lazily
  // cleared epoch path), including the level-2 full-chunk summary.
  OccupancyTimeline t(1);
  for (int round = 0; round < 2; ++round) {
    for (Cycle i = 0; i < 10'000; ++i) EXPECT_EQ(t.book(0).start, i) << "round " << round;
    t.reset();
  }
}

TEST(OccupancyTimeline, DenseSaturationSerializesAcrossChunks) {
  // N same-cycle requests serialize at exactly one per gap, across chunk
  // boundaries (4096 buckets per chunk; 6000 bookings span two chunks).
  OccupancyTimeline t(3);
  Cycle last = 0;
  for (int i = 0; i < 6000; ++i) last = t.book(0).start;
  EXPECT_EQ(last, 3u * 5999u);
  // The saturated prefix reports its depth: the last booking skipped 5999
  // occupied buckets.
  EXPECT_EQ(t.book(0).skipped, 6000u);
}

TEST(OccupancyTimeline, OverflowPastHorizonIsGrantedButFlagged) {
  OccupancyTimeline t(1);
  const Cycle beyond = OccupancyTimeline::max_buckets() + 17;
  const auto b = t.book(beyond);
  EXPECT_TRUE(b.overflow);
  EXPECT_EQ(b.start, beyond);  // served as if free — but never silently
  EXPECT_FALSE(t.book(0).overflow);
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

/// Books @p n random spans (len 1..300) on both bitmaps and requires
/// identical start/skipped/overflow for every booking.
void expect_same_bookings(SpanLanes& real, NaiveLanes& ref, Rng& rng, unsigned lanes,
                          std::uint64_t lo, std::uint64_t range, int n) {
  for (int i = 0; i < n; ++i) {
    const unsigned lane = static_cast<unsigned>(rng.below(lanes));
    const Cycle when = edgy_cycle(rng, lo, range);
    const Cycle len = 1 + rng.below(300);
    const Booking a = real.book(lane, when, len);
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
  // blocks, carried runs, busy popcounts) traffic on the same lanes.
  expect_same_bookings(real, ref, rng, kLanes, 0, 200'000, 2000);
  expect_same_bookings(real, ref, rng, kLanes, 0, 40'000, 1500);
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
  EXPECT_EQ(r.contention(), SharedResource::Contention{});
  // The timeline is untouched: slots 0 and 2 are still booked.
  EXPECT_EQ(r.book(0), 4u);
  EXPECT_EQ(r.contention().queue_cycles, 4u);
  // ...and reset() frees the slots without touching the statistics.
  r.reset();
  EXPECT_EQ(r.book(0), 0u);
  EXPECT_EQ(r.contention().requests, 2u);
}

TEST(SharedResource, OverflowCounterTracksHorizonBreaches) {
  SharedResource r("bus", 1);
  r.book(OccupancyTimeline::max_buckets() + 1);
  r.book(OccupancyTimeline::max_buckets() + 9);
  EXPECT_EQ(r.contention().overflows, 2u);
  r.book(0);
  EXPECT_EQ(r.contention().overflows, 2u);
}

TEST(SharedLanes, PerLaneStatisticsAndOverflowCounter) {
  SharedLanes lanes(2, [](unsigned k) { return "lane" + std::to_string(k); });
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
  SharedResource::Contention agg{.requests = 3, .delayed = 1, .queue_cycles = 5,
                                 .peak_occupancy = 4, .overflows = 0};
  agg += SharedResource::Contention{.requests = 2, .delayed = 2, .queue_cycles = 7,
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
  OccupancyTimeline t(gap);
  // N same-cycle requests serialize at exactly one per gap.
  const int n = 64;
  Cycle last = 0;
  for (int i = 0; i < n; ++i) last = t.book(0).start;
  EXPECT_EQ(last, gap * static_cast<Cycle>(n - 1));
}

INSTANTIATE_TEST_SUITE_P(Gaps, OccupancyGapSweep, ::testing::Values(1, 2, 3, 4, 8));

}  // namespace
}  // namespace hm
