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
// OccupancyTimeline removes the window: it books slots over the ENTIRE run.
//
//  * One bit per bucket, grouped into 4096-bucket chunks (64 x u64 words)
//    with a hierarchical summary — a per-chunk word whose bit w says "word w
//    is fully booked", and a per-timeline bitmap whose bit c says "chunk c
//    is fully booked" — so a booking skips saturated regions 64 words at a
//    time instead of probing bucket by bucket.
//  * Chunks are allocated lazily from slabs as simulated time reaches them:
//    memory stays proportional to the busy span of the run, and the
//    steady-state booking path allocates only when it crosses into a fresh
//    chunk (amortized: one slab allocation per kSlabChunks * 4096 buckets).
//  * reset() is an epoch bump: chunks are recycled in place and lazily
//    cleared on first touch of the new epoch, so repeated System::run calls
//    reuse the previous run's memory without a teardown pass.
//  * Bookings past kMaxBuckets (a horizon far beyond any simulated run) are
//    granted untracked — the only remaining understatement — and are
//    COUNTED by the SharedResource wrapper, which also warns once, so the
//    silent-understatement failure mode of the bounded ring cannot
//    reappear unnoticed.
//
// SharedResource wraps a timeline with per-resource contention statistics
// (requests, delayed requests, queueing cycles, peak occupancy depth,
// overflows); the uncore's L2/L3 ports, DRAM channels, DMA ports and NoC
// links all arbitrate through it.
//
// Thread-safety: none.  Timelines are not internally synchronized —
// chunk-directory growth (touch_chunk's resize + slab bump) and the
// booking bit-twiddles race if called concurrently.  One System runs on
// one thread, so every booking against a shared timeline is serial.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"

namespace hm {

class OccupancyTimeline {
 public:
  /// Result of one booking.  @p skipped is the number of already-booked
  /// buckets probed before the granted one — the queue depth this request
  /// observed.  @p overflow marks a grant beyond the tracked horizon.
  struct Booking {
    Cycle start = 0;
    std::uint64_t skipped = 0;
    bool overflow = false;
  };

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

  /// Book @p len consecutive cycles starting at or after @p when; requires
  /// gap() == 1 (the bus-style resources construct with gap 1, so a bucket
  /// is a cycle).  Booking::start is the first cycle of the span;
  /// Booking::skipped counts only the BUSY buckets stepped over (free gaps
  /// too small for the span are not backlog), keeping the unit identical
  /// to the slot-mode depth.
  Booking book_span(Cycle when, Cycle len) {
    assert(gap_ == 1);
    if (len == 0) return Booking{when, 0, false};
    std::uint64_t s = when;
    std::uint64_t busy_skipped = 0;
    for (;;) {
      if (s + len > kMaxBuckets) return Booking{when, 0, true};
      const std::uint64_t blocker = first_busy_in(s, len);
      if (blocker == kFree) break;
      // Jump over the whole busy run in one summary-guided step instead of
      // re-probing bucket by bucket.
      const std::uint64_t next_free = find_free_from(blocker);
      if (next_free == kOverflow) return Booking{when, 0, true};
      busy_skipped += next_free - blocker;
      s = next_free;
    }
    fill_span(s, len);
    return Booking{s, busy_skipped, false};
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
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};

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

  /// First FREE bucket >= @p first without booking it (read-only twin of
  /// claim_from: never allocates or clears a chunk), or kOverflow past the
  /// horizon.
  std::uint64_t find_free_from(std::uint64_t first) const {
    std::uint64_t ci = first >> kChunkShift;
    std::uint64_t off = first & (kBucketsPerChunk - 1);
    while (ci < kMaxChunks) {
      if (chunk_is_full(ci)) {
        ++ci;
        off = 0;
        continue;
      }
      const Chunk* c = peek_chunk(ci);
      if (c == nullptr) return (ci << kChunkShift) | off;  // untouched: free
      const std::uint64_t w0 = off >> 6;
      const std::uint64_t free = ~c->words[w0] & ~low_mask(off & 63);
      if (free != 0)
        return (ci << kChunkShift) |
               ((w0 << 6) | static_cast<unsigned>(std::countr_zero(free)));
      const std::uint64_t open = ~c->summary & ~low_mask(w0 + 1);
      if (open != 0) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(open));
        return (ci << kChunkShift) |
               ((static_cast<std::uint64_t>(w) << 6) |
                static_cast<unsigned>(std::countr_zero(~c->words[w])));
      }
      ++ci;
      off = 0;
    }
    return kOverflow;
  }

  /// First booked bucket inside [start, start+len), or kFree when the whole
  /// span is free.  gap() == 1 spans only.
  std::uint64_t first_busy_in(std::uint64_t start, Cycle len) const {
    std::uint64_t b = start;
    const std::uint64_t end = start + len;
    while (b < end) {
      const std::uint64_t ci = b / kBucketsPerChunk;
      const Chunk* c = peek_chunk(ci);
      if (c == nullptr) {  // whole chunk free: jump to the next chunk
        b = (ci + 1) * kBucketsPerChunk;
        continue;
      }
      const std::uint64_t chunk_end = std::min(end, (ci + 1) * kBucketsPerChunk);
      std::uint64_t off = b % kBucketsPerChunk;
      while (b < chunk_end) {
        const std::uint64_t w = off >> 6;
        const std::uint64_t busy = c->words[w] & ~low_mask(off & 63);
        if (busy != 0) {
          const std::uint64_t hit =
              ci * kBucketsPerChunk + (w << 6) +
              static_cast<unsigned>(std::countr_zero(busy));
          if (hit < end) return hit;
          return kFree;
        }
        const std::uint64_t word_end = ci * kBucketsPerChunk + ((w + 1) << 6);
        b = word_end;
        off = (w + 1) << 6;
      }
    }
    return kFree;
  }

  /// Mark [start, start+len) booked.  gap() == 1 spans only.
  void fill_span(std::uint64_t start, Cycle len) {
    std::uint64_t b = start;
    const std::uint64_t end = start + len;
    while (b < end) {
      const std::uint64_t ci = b / kBucketsPerChunk;
      Chunk* c = touch_chunk(ci);
      const std::uint64_t chunk_end = std::min(end, (ci + 1) * kBucketsPerChunk);
      while (b < chunk_end) {
        const std::uint64_t off = b % kBucketsPerChunk;
        const std::uint64_t w = off >> 6;
        const std::uint64_t word_end = std::min(chunk_end, (b - (off & 63)) + 64);
        const unsigned lo = static_cast<unsigned>(off & 63);
        const unsigned n = static_cast<unsigned>(word_end - b);
        const std::uint64_t mask =
            (n >= 64 ? ~std::uint64_t{0} : low_mask(lo + n)) & ~low_mask(lo);
        c->words[w] |= mask;
        if (c->words[w] == ~std::uint64_t{0}) {
          c->summary |= std::uint64_t{1} << w;
          if (c->summary == ~std::uint64_t{0}) mark_chunk_full(ci);
        }
        b = word_end;
      }
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

/// A shared hardware resource (cache port, DRAM channel, bus) arbitrated on
/// a full-run OccupancyTimeline, carrying per-resource contention
/// statistics.  The owner reads them through contention() and clears them
/// with reset_stats() alongside its own Stats.
class SharedResource {
 public:
  struct Contention {
    std::uint64_t requests = 0;        ///< bookings
    std::uint64_t delayed = 0;         ///< bookings pushed past their request cycle
    std::uint64_t queue_cycles = 0;    ///< total cycles of push-back
    std::uint64_t peak_occupancy = 0;  ///< deepest backlog any booking observed
    std::uint64_t overflows = 0;       ///< grants beyond the tracked horizon

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

  SharedResource(std::string name, Cycle gap)
      : name_(std::move(name)), timeline_(gap) {}

  /// Book one slot at or after @p when; returns the start cycle.
  Cycle book(Cycle when) {
    const OccupancyTimeline::Booking b = timeline_.book(when);
    account(b, when);
    return b.start;
  }

  /// Book @p len consecutive cycles at or after @p when (gap-1 resources,
  /// e.g. a bus granting whole transfer windows); returns the start cycle.
  Cycle book_span(Cycle when, Cycle len) {
    const OccupancyTimeline::Booking b = timeline_.book_span(when, len);
    account(b, when);
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
  void account(const OccupancyTimeline::Booking& b, Cycle when) {
    // Branch-light: start >= when always, so the undelayed case adds zeros.
    ++stats_.requests;
    const Cycle delay = b.start - when;
    stats_.delayed += delay != 0 ? 1 : 0;
    stats_.queue_cycles += delay;
    // Observability: delay windows above the sink-side threshold become
    // trace spans.  Cost when disabled: this branch only runs on DELAYED
    // bookings, and tracing_active() is one relaxed load.  Never feeds
    // back into timing — the booking is already made.
    if (delay != 0 && obs::tracing_active()) [[unlikely]]
      obs::sim_resource_delay(name_.c_str(), when, delay);
    if (b.skipped > stats_.peak_occupancy) stats_.peak_occupancy = b.skipped;
    if (b.overflow) [[unlikely]] {
      ++stats_.overflows;
      if (!warned_) {
        warned_ = true;
        warn_overflow();
      }
    }
  }

  void warn_overflow() const;  // occupancy.cpp — keeps logging off this header

  std::string name_;
  OccupancyTimeline timeline_;
  Contention stats_;
  bool warned_ = false;
};

}  // namespace hm
