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
// Two bitmaps book over the ENTIRE run, one per booking shape:
//
//  * OccupancyTimeline — slot mode, one resource of gap G >= 1 (the L2/L3
//    ports and DRAM channels).  One bit per bucket, grouped into
//    4096-bucket chunks (64 x u64 words) with a hierarchical summary — a
//    per-chunk word whose bit w says "word w is fully booked", and a
//    per-timeline bitmap whose bit c says "chunk c is fully booked" — so a
//    booking skips saturated regions 64 words at a time instead of probing
//    bucket by bucket.  Chunks are allocated lazily from slabs as simulated
//    time reaches them.
//  * SpanLanes — span mode, many gap-1 resources at once (the NoC links and
//    the DMA ports are its lanes).  A booking holds @c len consecutive
//    cycles.  Busy bits are stored TIME-MAJOR: a block covers 4096 cycles
//    as 64 rows of one u64 word per lane, so the bookings of one moment on
//    every lane share a row (a message's hops, made within a few hundred
//    cycles, touch one or two rows).  One forward word scan finds the
//    first free run of @c len cycles: a shift-AND for runs inside a word, a
//    carried run counter across words, and a popcount of the busy cycles
//    it steps over.  Blocks are allocated whole and lazily.
//
// Both share the rest of the discipline:
//
//  * reset() is an epoch bump: chunks/blocks are recycled in place and
//    lazily cleared on first touch of the new epoch, so repeated
//    System::run calls reuse the previous run's memory without a teardown
//    pass.
//  * Bookings past max_buckets() (a horizon far beyond any simulated run)
//    are granted untracked — the only remaining understatement — and are
//    COUNTED by the SharedResource / SharedLanes wrappers, which also warn
//    once per resource, so the silent-understatement failure mode of the
//    bounded ring cannot reappear unnoticed.
//
// SharedResource wraps a timeline, and SharedLanes a SpanLanes, with
// per-resource contention statistics (requests, delayed requests, queueing
// cycles, peak occupancy depth, overflows); the uncore's L2/L3 ports and
// DRAM channels arbitrate through the former, its DMA ports and the NoC
// links through the latter.
//
// Thread-safety: none.  Bitmaps are not internally synchronized — directory
// growth and the booking bit-twiddles race if called concurrently.  One
// System runs on one thread, so every booking against a shared bitmap is
// serial.
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

/// Slot-mode bitmap of one resource with a minimum gap between request
/// starts.
class OccupancyTimeline {
 public:
  /// @p gap: minimum cycles between request starts (0 = infinite bandwidth).
  explicit OccupancyTimeline(Cycle gap) : gap_(gap) {
    if (gap_ >= 2) gap_magic_ = MagicDivisor(gap_);
  }

  /// Book the first free slot at or after @p when; Booking::start is the
  /// slot's start cycle (>= when).
  Booking book(Cycle when) {
    if (gap_ == 0) return Booking{when, 0, false};
    const std::uint64_t first = bucket_of(when);
    // Fast path: the chunk the previous booking touched (nearly every
    // booking of a run lands in the currently-advancing chunk).  One
    // pointer compare replaces the directory/summary walk, and the word is
    // loaded exactly once; the summary only needs updating when the word
    // fills, which is the slow path's business.
    if ((first >> kChunkShift) == cached_ci_) {
      const std::uint64_t off = first & (kBucketsPerChunk - 1);
      const std::uint64_t w0 = off >> 6;
      std::uint64_t& word = cached_->words[w0];
      const std::uint64_t free = ~word & ~low_mask(off & 63);
      if (free != 0) {
        const std::uint64_t lowbit = free & (0 - free);
        word |= lowbit;
        if (word == ~std::uint64_t{0}) [[unlikely]] {
          cached_->summary |= std::uint64_t{1} << w0;
          if (cached_->summary == ~std::uint64_t{0}) mark_chunk_full(cached_ci_);
        }
        const std::uint64_t b = (cached_ci_ << kChunkShift) |
                                ((w0 << 6) | static_cast<unsigned>(std::countr_zero(free)));
        return Booking{std::max(when, b * gap_), b - first, false};
      }
    }
    const std::uint64_t b = claim_from(first);
    if (b == kOverflow) [[unlikely]] return Booking{when, 0, true};
    return Booking{std::max(when, b * gap_), b - first, false};
  }

  /// Epoch reset: every slot reads as free again.  Chunk memory is kept and
  /// recycled (lazily cleared on first touch of the new epoch).
  void reset() {
    ++epoch_;
    cached_ci_ = kNoChunk;
    cached_ = nullptr;
    std::fill(chunk_full_.begin(), chunk_full_.end(), 0);
  }

  Cycle gap() const { return gap_; }

  /// Buckets the timeline can track; bookings beyond it overflow.
  static constexpr std::uint64_t max_buckets() { return kMaxBuckets; }

 private:
  static constexpr unsigned kChunkWords = 64;  ///< 64 x u64 = 4096 buckets
  static constexpr std::uint64_t kBucketsPerChunk = kChunkWords * 64;
  static constexpr unsigned kChunkShift = 12;  ///< log2(kBucketsPerChunk)
  static constexpr std::uint64_t kNoChunk = ~std::uint64_t{0};
  static constexpr unsigned kSlabChunks = 16;  ///< chunks per slab allocation
  /// Horizon: 2^31 buckets (>= 2^31 cycles even at gap 1 — beyond any run
  /// this engine simulates; the chunk directory tops out at 4 MB of slots).
  static constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 31;
  static constexpr std::uint64_t kMaxChunks = kMaxBuckets / kBucketsPerChunk;
  static constexpr std::uint64_t kOverflow = ~std::uint64_t{0};

  struct Chunk {
    std::uint64_t epoch = 0;             ///< stale when != timeline epoch
    std::uint64_t summary = 0;           ///< bit w: words[w] fully booked
    std::uint64_t words[kChunkWords] = {};
  };

  std::uint64_t bucket_of(Cycle when) const {
    if (gap_ == 1) return when;
    return gap_magic_.div(when);
  }

  /// Chunk pointer for @p ci, or null when the chunk holds no current-epoch
  /// booking (never been touched, or stale from a previous epoch).
  Chunk* peek_chunk(std::uint64_t ci) const {
    if (ci >= chunks_.size()) return nullptr;
    Chunk* c = chunks_[ci];
    if (c == nullptr || c->epoch != epoch_) return nullptr;
    return c;
  }

  /// Chunk for @p ci, allocated (from the slab arena) and epoch-cleared so
  /// it is writable for the current epoch.
  Chunk* touch_chunk(std::uint64_t ci) {
    if (ci >= chunks_.size()) chunks_.resize(ci + 1, nullptr);
    Chunk* c = chunks_[ci];
    if (c == nullptr) {
      if (slab_used_ == kSlabChunks) {
        slabs_.push_back(std::make_unique<Chunk[]>(kSlabChunks));
        slab_used_ = 0;
      }
      c = &slabs_.back()[slab_used_++];
      chunks_[ci] = c;
    }
    if (c->epoch != epoch_) {
      c->epoch = epoch_;
      c->summary = 0;
      std::fill(std::begin(c->words), std::end(c->words), 0);
    }
    cached_ci_ = ci;
    cached_ = c;
    return c;
  }

  void mark_chunk_full(std::uint64_t ci) {
    const std::uint64_t w = ci >> 6;
    if (w >= chunk_full_.size()) chunk_full_.resize(w + 1, 0);
    chunk_full_[w] |= std::uint64_t{1} << (ci & 63);
  }

  bool chunk_is_full(std::uint64_t ci) const {
    const std::uint64_t w = ci >> 6;
    return w < chunk_full_.size() &&
           (chunk_full_[w] >> (ci & 63)) & 1u;
  }

  /// Claim the first free bucket >= @p first; returns its index, or
  /// kOverflow past the horizon.
  std::uint64_t claim_from(std::uint64_t first) {
    std::uint64_t ci = first / kBucketsPerChunk;
    std::uint64_t off = first % kBucketsPerChunk;
    while (ci < kMaxChunks) {
      if (chunk_is_full(ci)) {  // summary level 2: skip saturated chunks
        ++ci;
        off = 0;
        continue;
      }
      Chunk* c = peek_chunk(ci);
      if (c == nullptr) {  // empty chunk: the requested offset is free
        c = touch_chunk(ci);
        set_bit(c, ci, off);
        return (ci << kChunkShift) | off;
      }
      const std::uint64_t w0 = off >> 6;
      // Within the start word, only bits at or after the requested offset.
      std::uint64_t free = ~c->words[w0] & ~low_mask(off & 63);
      if (free != 0) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(free));
        set_bit(c, ci, (w0 << 6) | bit);
        cached_ci_ = ci;
        cached_ = c;
        return (ci << kChunkShift) | ((w0 << 6) | bit);
      }
      // Summary level 1: first not-fully-booked word after w0.
      const std::uint64_t open = ~c->summary & ~low_mask(w0 + 1);
      if (open != 0) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(open));
        const unsigned bit = static_cast<unsigned>(std::countr_zero(~c->words[w]));
        set_bit(c, ci, (static_cast<std::uint64_t>(w) << 6) | bit);
        cached_ci_ = ci;
        cached_ = c;
        return (ci << kChunkShift) | ((static_cast<std::uint64_t>(w) << 6) | bit);
      }
      ++ci;  // chunk saturated past off; continue in the next one
      off = 0;
    }
    return kOverflow;
  }

  void set_bit(Chunk* c, std::uint64_t ci, std::uint64_t off) {
    const std::uint64_t w = off >> 6;
    c->words[w] |= std::uint64_t{1} << (off & 63);
    if (c->words[w] == ~std::uint64_t{0}) {
      c->summary |= std::uint64_t{1} << w;
      if (c->summary == ~std::uint64_t{0}) mark_chunk_full(ci);
    }
  }

  Cycle gap_;
  MagicDivisor gap_magic_;  ///< div by gap, valid when gap_ >= 2
  std::uint64_t epoch_ = 1;
  std::uint64_t cached_ci_ = kNoChunk;  ///< chunk of the last booking...
  Chunk* cached_ = nullptr;             ///< ...guaranteed current-epoch
  std::vector<Chunk*> chunks_;  ///< dense directory, index = bucket >> 12
  std::vector<std::unique_ptr<Chunk[]>> slabs_;  ///< chunk arena
  unsigned slab_used_ = kSlabChunks;
  std::vector<std::uint64_t> chunk_full_;  ///< level-2 summary, bit per chunk
};

/// Span-mode bitmap of many gap-1 resources ("lanes"): a booking holds
/// @p len consecutive cycles of one lane.  See the file comment for the
/// time-major layout.
class SpanLanes {
 public:
  explicit SpanLanes(unsigned lanes) : lanes_(lanes) {}

  SpanLanes(const SpanLanes&) = delete;
  SpanLanes& operator=(const SpanLanes&) = delete;

  /// Book @p len consecutive cycles of @p lane starting at the first cycle
  /// >= @p when where they are all free.  Booking::skipped counts only the
  /// BUSY cycles stepped over (free gaps too small for the span are not
  /// backlog), keeping the unit identical to the slot-mode depth.  A span
  /// that would end past max_buckets() is granted at @p when, untracked,
  /// with Booking::overflow set.  @p len == 0 books nothing.
  Booking book(unsigned lane, Cycle when, Cycle len) {
    assert(lane < lanes_);
    // Fast path: the span sits inside one word of the block the previous
    // booking touched and that word is free there — most bookings.
    const unsigned lo = static_cast<unsigned>(when & 63);
    if ((when >> kBlockShift) == cached_bi_ && len != 0 && lo + len <= 64) {
      std::uint64_t& word = cached_[word_index(when, lane)];
      const std::uint64_t mask = low_mask(static_cast<unsigned>(len)) << lo;
      if ((word & mask) == 0) {
        word |= mask;
        return Booking{when, 0, false};
      }
    }
    return book_scan(lane, when, len);
  }

  /// Epoch reset: every lane reads as free again.  Block memory is kept and
  /// recycled (lazily cleared on first touch of the new epoch).
  void reset() {
    ++epoch_;
    cached_bi_ = kNoBlock;
    cached_ = nullptr;
  }

  unsigned lanes() const { return lanes_; }

  /// Cycles the bitmap can track; spans ending beyond it overflow.
  static constexpr std::uint64_t max_buckets() { return OccupancyTimeline::max_buckets(); }

 private:
  static constexpr unsigned kBlockRows = 64;   ///< one row = 64 cycles
  static constexpr unsigned kBlockShift = 12;  ///< log2(64 rows x 64 cycles)
  static constexpr std::uint64_t kNoBlock = ~std::uint64_t{0};

  struct Block {
    std::unique_ptr<std::uint64_t[]> words;  ///< kBlockRows x lanes_, row-major
    std::uint64_t epoch = 0;                 ///< stale when != epoch_
  };

  /// Index, inside its block, of the word holding @p cycle on @p lane.
  std::size_t word_index(std::uint64_t cycle, unsigned lane) const {
    return static_cast<std::size_t>((cycle >> 6) & (kBlockRows - 1)) * lanes_ + lane;
  }

  /// Block @p bi's words, or null when it holds no current-epoch booking.
  const std::uint64_t* peek_block(std::uint64_t bi) const {
    if (bi >= blocks_.size()) return nullptr;
    const Block& b = blocks_[bi];
    return b.epoch == epoch_ ? b.words.get() : nullptr;
  }

  Booking book_scan(unsigned lane, Cycle when, Cycle len);  // occupancy.cpp
  void fill(unsigned lane, std::uint64_t start, Cycle len);
  std::uint64_t* touch_block(std::uint64_t bi);

  unsigned lanes_;
  std::uint64_t epoch_ = 1;
  std::uint64_t cached_bi_ = kNoBlock;  ///< block of the last booking...
  std::uint64_t* cached_ = nullptr;     ///< ...guaranteed current-epoch
  std::vector<Block> blocks_;           ///< dense directory, index = cycle >> 12
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

/// A shared hardware resource (cache port, DRAM channel) arbitrated on a
/// full-run OccupancyTimeline, carrying per-resource contention
/// statistics.  The owner reads them through contention() and clears them
/// with reset_stats() alongside its own Stats.
class SharedResource {
 public:
  using Contention = hm::Contention;

  SharedResource(std::string name, Cycle gap)
      : name_(std::move(name)), timeline_(gap) {}

  /// Book one slot at or after @p when; returns the start cycle.
  Cycle book(Cycle when) {
    const Booking b = timeline_.book(when);
    const Cycle delay = stats_.count(b, when);
    if (booking_is_notable(b, delay)) [[unlikely]]
      note_booking(name_, warned_, b, when, delay, timeline_.gap());
    return b.start;
  }

  /// Free every slot (epoch reset).  Statistics are left alone — the owner
  /// clears them with reset_stats().
  void reset() { timeline_.reset(); }

  void reset_stats() { stats_ = Contention{}; }

  Cycle gap() const { return timeline_.gap(); }
  const std::string& name() const { return name_; }
  const Contention& contention() const { return stats_; }

 private:
  std::string name_;
  OccupancyTimeline timeline_;
  Contention stats_;
  bool warned_ = false;
};

/// A set of gap-1 resources booked in whole spans (the NoC links, the DMA
/// ports): one SpanLanes plus per-lane contention statistics in one array.
/// Lane names are built on demand by @p name_of — only trace emission and
/// the overflow warning need them.
class SharedLanes {
 public:
  using NameFn = std::function<std::string(unsigned lane)>;

  SharedLanes(unsigned lanes, NameFn name_of)
      : lanes_(lanes),
        stats_(lanes),
        warned_(std::make_unique<bool[]>(lanes)),
        name_of_(std::move(name_of)) {}

  /// Book @p len consecutive cycles of @p lane at or after @p when;
  /// returns the start cycle.
  Cycle book(unsigned lane, Cycle when, Cycle len) {
    const Booking b = lanes_.book(lane, when, len);
    const Cycle delay = stats_[lane].count(b, when);
    if (booking_is_notable(b, delay)) [[unlikely]]
      note_booking(name_of_(lane), warned_[lane], b, when, delay, Cycle{1});
    return b.start;
  }

  /// Free every lane (epoch reset); statistics are left alone.
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
  std::vector<Contention> stats_;
  std::unique_ptr<bool[]> warned_;
  NameFn name_of_;
};

}  // namespace hm
