// Full-run occupancy model for shared uncore resources.
//
// A structure with a minimum gap G between request starts serves at most one
// request per G-cycle bucket.  Requests arrive with non-monotonic timestamps
// (demand misses at the present, store-buffer drains in the future, prefetch
// fills in between), so a single "next free" register would charge phantom
// queueing.  The predecessor of this file (common/bandwidth.hpp) booked
// per-bucket slots in a bounded ring: order-insensitive, but bookings older
// than the ring window were silently forgotten, so cross-tile contention on
// a shared port was understated beyond the trailing window — the model-
// fidelity caveat PR 3 left in System::run.
//
// One bitmap, SpanLanes, books every shared resource over the ENTIRE run.
// Its lanes are the resources of one class, and it counts time in buckets:
// a resource of gap G serves one request per bucket floor(cycle / G).  A
// booking holds @c len consecutive buckets of one lane — one bucket for an
// L2/L3 port or a DRAM channel, a span of gap-1 cycles for a DMA window or
// a message crossing a NoC link.
//
//  * Busy bits are stored TIME-MAJOR: a block covers 4096 buckets as 64
//    rows of one u64 word per lane, so the bookings of one moment on every
//    lane share a row (a message's hops, made within a few hundred cycles,
//    touch one or two rows).  An extra summary row holds one word per lane
//    whose bit r says "row r of this lane is fully booked".
//  * A slot booking (one bucket, book_one) takes the first free bit of its
//    word; when the word is full, the summary word jumps to the first open
//    row of the block, and a per-lane full-block bitmap skips a run of up
//    to 64 saturated blocks in one test.
//  * A span booking (book, two or more buckets) runs one forward word scan
//    for the first free run of @c len buckets: a shift-AND for runs inside
//    a word, a carried run counter across words, and a popcount of the busy
//    buckets it steps over.
//  * Blocks are allocated lazily as simulated time reaches them, from
//    slabs of 16 one-lane blocks (fewer blocks for a set of more lanes).
//  * reset() is an epoch bump: blocks are recycled in place and lazily
//    cleared on first touch of the new epoch, so repeated System::run
//    calls reuse the previous run's memory without a teardown pass.
//  * Bookings past max_buckets() (a horizon far beyond any simulated run)
//    are granted untracked — the only remaining understatement — and are
//    COUNTED by the SharedLanes wrapper, which also warns once per lane,
//    so the silent-understatement failure mode of the bounded ring cannot
//    reappear unnoticed.
//
// SharedLanes adds the gap and per-lane contention statistics (requests,
// delayed requests, queueing cycles, peak occupancy depth, overflows).
// The uncore holds one per resource class: L2 ports, L3 ports, DRAM
// channels, DMA ports and NoC links.  SharedResource is a one-lane
// SharedLanes with a fixed name.
//
// Thread-safety: none.  The bitmap is not internally synchronized —
// directory growth and the booking bit-twiddles race if called
// concurrently.  One System runs on one thread, so every booking against a
// shared bitmap is serial.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"

namespace hm {

/// Result of one booking.  @p skipped is the number of already-booked
/// buckets stepped over before the granted one — the queue depth this
/// request observed.  @p overflow marks a grant beyond the tracked horizon.
struct Booking {
  Cycle start = 0;
  std::uint64_t skipped = 0;
  bool overflow = false;
};

/// The occupancy bitmap: a set of resources ("lanes") booked over the
/// whole run in bucket time.  A booking holds @p len consecutive buckets of
/// one lane.  See the file comment for the time-major layout.
class SpanLanes {
 public:
  explicit SpanLanes(unsigned lanes)
      : lanes_(lanes), slab_blocks_(std::max(1u, kSlabLaneBlocks / std::max(lanes, 1u))) {}
  SpanLanes(const SpanLanes&) = delete;
  SpanLanes& operator=(const SpanLanes&) = delete;

  /// Book @p len consecutive buckets of @p lane starting at the first
  /// bucket >= @p when where they are all free.  Booking::skipped counts
  /// only the BUSY buckets stepped over (free gaps too small for the span
  /// are not backlog); for a one-bucket booking every bucket stepped over
  /// is busy.  A span that would end past max_buckets() is granted at
  /// @p when, untracked, with Booking::overflow set.  @p len == 0 books
  /// nothing.
  Booking book(unsigned lane, std::uint64_t when, std::uint64_t len) {
    assert(lane < lanes_);
    if (len == 1) return book_one(lane, when);  // a one-flit NoC hop, say
    // Fast path: the span sits inside one word of the block the previous
    // booking touched and that word is free there — most span bookings.
    const unsigned lo = static_cast<unsigned>(when & 63);
    if ((when >> kBlockShift) == cached_bi_ && len != 0 && lo + len <= 64) {
      const std::uint64_t mask = low_mask(static_cast<unsigned>(len)) << lo;
      if ((cached_[word_index(when, lane)] & mask) == 0) {
        set_bits(cached_, lane, when, mask);
        return Booking{when, 0, false};
      }
    }
    return book_scan(lane, when, len);
  }

  /// Book the first free bucket >= @p when of @p lane: book(lane, when, 1)
  /// without the span machinery.  Booking::skipped == start - when, since
  /// every bucket stepped over is busy.
  Booking book_one(unsigned lane, std::uint64_t when) {
    // Fast path: a free bucket in @p when's word of the block the previous
    // booking touched (nearly every port booking of a run lands there).
    if ((when >> kBlockShift) == cached_bi_) {
      const std::uint64_t free = ~cached_[word_index(when, lane)] & ~low_mask(when & 63);
      if (free != 0) {
        set_bits(cached_, lane, when, free & (0 - free));
        const std::uint64_t start = (when & ~std::uint64_t{63}) |
                                    static_cast<unsigned>(std::countr_zero(free));
        return Booking{start, start - when, false};
      }
    }
    const std::uint64_t at = claim_from(lane, when);
    if (at == kOverflow) [[unlikely]] return Booking{when, 0, true};
    return Booking{at, at - when, false};
  }

  /// Epoch reset: every lane reads as free again.  Block memory is kept and
  /// recycled (lazily cleared on first touch of the new epoch).
  void reset() {
    ++epoch_;
    cached_bi_ = kNoBlock;
    cached_ = nullptr;
    std::fill(full_.begin(), full_.end(), 0);
  }

  unsigned lanes() const { return lanes_; }

  /// Buckets the bitmap can track; spans ending beyond it overflow.
  static constexpr std::uint64_t max_buckets() { return kMaxBuckets; }

 private:
  static constexpr unsigned kBlockRows = 64;   ///< one row = 64 buckets
  static constexpr unsigned kBlockShift = 12;  ///< log2(64 rows x 64 buckets)
  static constexpr std::uint64_t kNoBlock = ~std::uint64_t{0};
  static constexpr std::uint64_t kOverflow = ~std::uint64_t{0};
  /// Blocks per slab for a one-lane set; a set of n lanes takes 16/n (at
  /// least one), so a many-lane set never allocates blocks ahead of time.
  static constexpr unsigned kSlabLaneBlocks = 16;
  /// Horizon: 2^31 buckets (>= 2^31 cycles even at gap 1 — beyond any run
  /// this engine simulates).  A whole number of blocks.
  static constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 31;

  struct Block {
    std::uint64_t* words = nullptr;  ///< (kBlockRows + 1) x lanes_, row-major
    std::uint64_t epoch = 0;         ///< stale when != epoch_
  };

  /// Index, inside its block, of the word holding @p bucket on @p lane.
  std::size_t word_index(std::uint64_t bucket, unsigned lane) const {
    return static_cast<std::size_t>((bucket >> 6) & (kBlockRows - 1)) * lanes_ + lane;
  }
  /// Index of @p lane's summary word (the extra row): bit r set iff row r
  /// of the lane is fully booked.
  std::size_t summary_index(unsigned lane) const {
    return static_cast<std::size_t>(kBlockRows) * lanes_ + lane;
  }

  /// OR @p mask into the word of @p lane holding @p bucket in block @p blk;
  /// once the word is full, mark its row full in the summary, and once
  /// every row is, the block full in full_.
  void set_bits(std::uint64_t* blk, unsigned lane, std::uint64_t bucket, std::uint64_t mask) {
    std::uint64_t& word = blk[word_index(bucket, lane)];
    word |= mask;
    if (word == ~std::uint64_t{0}) [[unlikely]] {
      std::uint64_t& summary = blk[summary_index(lane)];
      summary |= std::uint64_t{1} << ((bucket >> 6) & (kBlockRows - 1));
      if (summary == ~std::uint64_t{0}) mark_block_full(lane, bucket >> kBlockShift);
    }
  }

  /// Index in full_ of the word holding block @p bi's bit for @p lane.
  std::size_t full_index(unsigned lane, std::uint64_t bi) const {
    return static_cast<std::size_t>(bi >> 6) * lanes_ + lane;
  }

  /// Block @p bi's words, or null when it holds no current-epoch booking.
  std::uint64_t* peek_block(std::uint64_t bi) const {
    if (bi >= blocks_.size()) return nullptr;
    const Block& b = blocks_[bi];
    return b.epoch == epoch_ ? b.words : nullptr;
  }

  /// Book the first free bucket >= @p when; returns it, or kOverflow past
  /// the horizon (occupancy.cpp).
  std::uint64_t claim_from(unsigned lane, std::uint64_t when);
  void mark_block_full(unsigned lane, std::uint64_t bi);
  Booking book_scan(unsigned lane, std::uint64_t when, std::uint64_t len);
  void fill(unsigned lane, std::uint64_t start, std::uint64_t len);
  std::uint64_t* touch_block(std::uint64_t bi);

  unsigned lanes_;
  unsigned slab_blocks_;                ///< blocks per slab allocation
  unsigned slab_used_ = slab_blocks_;   ///< blocks handed out of slabs_.back()
  std::uint64_t epoch_ = 1;
  std::uint64_t cached_bi_ = kNoBlock;  ///< block of the last booking...
  std::uint64_t* cached_ = nullptr;     ///< ...guaranteed current-epoch
  std::vector<Block> blocks_;           ///< dense directory, index = bucket >> 12
  std::vector<std::unique_ptr<std::uint64_t[]>> slabs_;  ///< block arena
  /// Full-block bitmap: bit (bi & 63) of word full_index(lane, bi) set iff
  /// block bi is fully booked on the lane, so a one-bucket booking steps
  /// over up to 64 saturated blocks in one test.
  std::vector<std::uint64_t> full_;
};

/// Contention observed at one shared resource (or one lane of a
/// SharedLanes) over a run.
struct Contention {
  std::uint64_t requests = 0;        ///< bookings
  std::uint64_t delayed = 0;         ///< bookings pushed past their request cycle
  std::uint64_t queue_cycles = 0;    ///< total cycles of push-back
  std::uint64_t peak_occupancy = 0;  ///< deepest backlog any booking observed
  std::uint64_t overflows = 0;       ///< grants beyond the tracked horizon

  /// Count booking @p b, requested at @p when; returns its delay.
  /// Branch-light: start >= when always, so the undelayed case adds zeros.
  Cycle count(const Booking& b, Cycle when) {
    ++requests;
    const Cycle delay = b.start - when;
    delayed += delay != 0 ? 1 : 0;
    queue_cycles += delay;
    if (b.skipped > peak_occupancy) peak_occupancy = b.skipped;
    overflows += b.overflow ? 1 : 0;
    return delay;
  }

  /// Aggregate another resource into this one: counts add, the peak is
  /// the deeper of the two.
  Contention& operator+=(const Contention& o) {
    requests += o.requests;
    delayed += o.delayed;
    queue_cycles += o.queue_cycles;
    overflows += o.overflows;
    peak_occupancy = std::max(peak_occupancy, o.peak_occupancy);
    return *this;
  }
  bool operator==(const Contention&) const = default;
};

/// True when booking @p b (delayed by @p delay) has side effects beyond
/// the counters: a trace span (delayed while tracing is active) or an
/// overflow.  Cost when tracing is off: the delay test and one relaxed
/// load, only on delayed bookings.
inline bool booking_is_notable(const Booking& b, Cycle delay) {
  return b.overflow || (delay != 0 && obs::tracing_active());
}

/// The side effects of a notable booking of resource @p name (occupancy.cpp
/// — keeps logging and tracing off this header): delay windows above the
/// sink-side threshold become trace spans on lane res.<name>, never
/// feeding back into timing; the first overflow warns (@p warned makes
/// the warning one-shot per resource).
void note_booking(const std::string& name, bool& warned, const Booking& b, Cycle when,
                  Cycle delay, Cycle gap);

/// A class of shared resources booked on one SpanLanes, one lane each, with
/// a minimum gap G between request starts (the L2 or L3 ports of every
/// home slice and the DRAM channels at their config gaps; the DMA ports
/// and the NoC links at G = 1), plus per-lane contention statistics in one
/// array.  A booking of @p len buckets at cycle @p when books from bucket
/// floor(when / G) and is granted at max(when, bucket * G).  Lane names
/// are built on demand by @p name_of — only trace emission and the
/// overflow warning need them.
class SharedLanes {
 public:
  using NameFn = std::function<std::string(unsigned lane)>;

  /// Throws std::invalid_argument for @p gap == 0.
  SharedLanes(unsigned lanes, Cycle gap, NameFn name_of);

  /// Book one bucket (one gap slot) of @p lane at or after @p when;
  /// returns the start cycle.
  Cycle book(unsigned lane, Cycle when) {
    return grant(lane, when, lanes_.book_one(lane, bucket_of(when)));
  }

  /// Book @p len consecutive buckets of @p lane at or after @p when;
  /// returns the start cycle.
  Cycle book(unsigned lane, Cycle when, Cycle len) {
    return grant(lane, when, lanes_.book(lane, bucket_of(when), len));
  }

  /// Free every lane (epoch reset); statistics are left alone — the owner
  /// clears them with reset_stats() alongside its own Stats.
  void reset() { lanes_.reset(); }
  void reset_stats() { std::fill(stats_.begin(), stats_.end(), Contention{}); }

  unsigned size() const { return lanes_.lanes(); }
  std::string name(unsigned lane) const { return name_of_(lane); }
  const Contention& contention(unsigned lane) const { return stats_[lane]; }
  /// Every lane's contention summed (counts added, peak maxed).
  Contention total() const {
    Contention agg;
    for (const Contention& c : stats_) agg += c;
    return agg;
  }

 private:
  SpanLanes lanes_;
  Cycle gap_;
  MagicDivisor gap_magic_;  ///< div by gap, valid when gap_ >= 2
  std::vector<Contention> stats_;
  std::unique_ptr<bool[]> warned_;
  NameFn name_of_;

  std::uint64_t bucket_of(Cycle when) const {
    return gap_ == 1 ? when : gap_magic_.div(when);
  }

  /// Turn bucket booking @p b, requested at cycle @p when, into its start
  /// cycle, and count it.
  Cycle grant(unsigned lane, Cycle when, const Booking& b) {
    const Booking granted{b.overflow ? when : std::max(when, b.start * gap_), b.skipped,
                          b.overflow};
    const Cycle delay = stats_[lane].count(granted, when);
    if (booking_is_notable(granted, delay)) [[unlikely]]
      note_booking(name_of_(lane), warned_[lane], granted, when, delay, gap_);
    return granted.start;
  }
};

/// One named shared resource: a one-lane SharedLanes.
class SharedResource : public SharedLanes {
 public:
  SharedResource(std::string name, Cycle gap)
      : SharedLanes(1, gap, [name = std::move(name)](unsigned) { return name; }) {}

  /// Book one gap slot at or after @p when; returns the start cycle.
  Cycle book(Cycle when) { return SharedLanes::book(0, when); }
  const Contention& contention() const { return SharedLanes::contention(0); }
};

}  // namespace hm
