// Set-associative cache tag array with true-LRU replacement.
//
// The simulator's caches are tag-only: functional data lives in the
// sim::FunctionalMemory image (system memory is internally coherent, so one
// image suffices; tests/coherence_property_test.cpp checks the images end
// to end).  The cache model provides the timing
// and activity counts the paper's evaluation depends on: hits, misses,
// evictions, invalidations and fills, including those caused by prefetchers
// and DMA bus requests (Table 3 counts all of them as "accesses").
//
// Fast-path layout: tags, LRU stamps and dirty bits live in separate
// structure-of-arrays vectors so the per-access tag scan touches exactly one
// contiguous run of Addr words per set (one host cache line for an 8-way
// set), and set indexing uses a precomputed shift (+ mask for power-of-two
// set counts) instead of division.  The single-pass API — access() /
// peek() / fill_at() — resolves hit way and replacement victim in one scan;
// the legacy touch()/fill() entry points are thin wrappers over it and must
// produce bit-identical statistics (tests/cache_test.cpp enforces this on
// randomized traces).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/find64.hpp"
#include "common/types.hpp"

namespace hm {

enum class WritePolicy : std::uint8_t {
  WriteThrough,  ///< writes propagate to the next level; lines never dirty
  WriteBack,     ///< dirty lines written back on eviction
};

struct CacheConfig {
  std::string name = "cache";
  Bytes size = 32 * 1024;
  unsigned associativity = 8;
  Bytes line_size = 64;
  Cycle latency = 2;
  WritePolicy write_policy = WritePolicy::WriteBack;

  /// Number of sets.  Not required to be a power of two (the paper's L2 is
  /// 256 KB 24-way: 170 sets); indexing is modulo the set count.
  unsigned num_sets() const {
    const Bytes way_bytes = line_size * associativity;
    return static_cast<unsigned>(size >= way_bytes ? size / way_bytes : 1);
  }
  void validate() const;
};

/// Result of removing a line (by eviction or invalidation).
struct EvictedLine {
  Addr line_addr = kNoAddr;
  bool dirty = false;
};

class SetAssocCache {
 public:
  /// Outcome of one single-pass set scan.  On a hit, (set, way) locate the
  /// matching line.  On a miss, (set, way) locate the replacement victim the
  /// scan selected (first invalid way, else true-LRU), so a subsequent
  /// fill_at() installs the line without re-walking the set.
  struct LookupResult {
    bool hit = false;
    std::uint32_t set = 0;
    std::uint32_t way = 0;
  };

  /// Event counters.  Prefetch and DMA bus traffic count like demand
  /// traffic (Table 3 counts all of them as "accesses").
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t read_hits = 0;
    std::uint64_t write_hits = 0;
    std::uint64_t fills = 0;
    std::uint64_t prefetch_fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirty_evictions = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t snoops = 0;

    /// Total activity (lookups + fills + invalidations + snoops), the
    /// quantity reported in Table 3's "Accesses" columns.
    std::uint64_t activity() const { return lookups + fills + invalidations + snoops; }
    bool operator==(const Stats&) const = default;
  };

  explicit SetAssocCache(CacheConfig cfg);

  const CacheConfig& config() const { return cfg_; }

  /// Single-pass silent lookup: no statistics, no LRU update.  Used where
  /// the caller needs residency *and* the would-be victim (prefetch fills).
  /// Defined inline: this is the engine's innermost loop.  Dispatches to a
  /// way-count-specialized scan — with a compile-time trip count the tag
  /// compare vectorizes and carries no data-dependent loop-exit branch
  /// (which costs a mispredict per lookup in the naive early-exit form).
  /// The switch itself predicts perfectly: one case per cache instance.
  LookupResult peek(Addr addr) const {
    switch (assoc_) {
      case 2: return peek_ways<2>(addr);
      case 4: return peek_ways<4>(addr);
      case 8: return peek_ways<8>(addr);
      case 16: return peek_ways<16>(addr);
      case 24: return peek_ways<24>(addr);
      case 32: return peek_ways<32>(addr);
      default: return peek_ways<0>(addr);  // 0 = runtime associativity
    }
  }

  /// Single-pass lookup: counts a lookup and a hit/miss, updates LRU (and
  /// the dirty bit for write-back write hits) on a hit, and reports the
  /// replacement victim on a miss.  Does not allocate.
  LookupResult access(Addr addr, AccessType type) {
    ++stats_.lookups;
    LookupResult r = peek(addr);
    if (!r.hit) {
      ++stats_.misses;
      return r;
    }
    ++stats_.hits;
    const std::size_t idx = slot(r.set, r.way);
    std::uint32_t dirty = meta_[idx] & 1u;
    if (type == AccessType::Read) {
      ++stats_.read_hits;
    } else {
      ++stats_.write_hits;
      if (cfg_.write_policy == WritePolicy::WriteBack) dirty = 1;
    }
    meta_[idx] = (bump_clock() << 1) | dirty;
    return r;
  }

  /// Install the line containing @p addr at the victim slot reported by a
  /// missing access()/peek() on the SAME address, with no intervening
  /// mutation of this cache.  Returns the victim line if a valid line was
  /// evicted.  Counts a fill (and a prefetch fill when requested).
  std::optional<EvictedLine> fill_at(const LookupResult& miss, Addr addr,
                                     bool from_prefetch = false) {
    ++stats_.fills;
    if (from_prefetch) ++stats_.prefetch_fills;

    const std::size_t idx = slot(miss.set, miss.way);
    std::optional<EvictedLine> evicted;
    if (tags_[idx] != kNoAddr) {
      ++stats_.evictions;
      const bool was_dirty = (meta_[idx] & 1u) != 0;
      if (was_dirty) ++stats_.dirty_evictions;
      evicted = EvictedLine{tags_[idx], was_dirty};
    }
    tags_[idx] = addr & ~line_mask_;
    meta_[idx] = bump_clock() << 1;  // clean
    return evicted;
  }

  /// Mark the line located by a hit or just-filled LookupResult dirty
  /// (write-back caches; no-op for write-through).  No re-scan.
  void set_dirty_at(const LookupResult& at) {
    if (cfg_.write_policy != WritePolicy::WriteBack) return;
    meta_[slot(at.set, at.way)] |= 1u;
  }

  /// Lookup with LRU update.  Returns true on hit.  Counts a lookup and a
  /// hit/miss.  Does not allocate.  (Legacy wrapper over access().)
  bool touch(Addr addr, AccessType type) { return access(addr, type).hit; }

  /// Lookup without LRU update and without statistics side effects on
  /// hit/miss counters (counts a snoop).  Used by coherent DMA bus requests.
  bool probe(Addr addr) const;

  /// Insert the line containing @p addr (does nothing if already present).
  /// Returns the victim line if a valid line was evicted.
  std::optional<EvictedLine> fill(Addr addr, bool from_prefetch = false);

  /// Mark the line containing @p addr dirty (write-back caches).  No-op if
  /// the line is absent or the cache is write-through.
  void set_dirty(Addr addr);

  /// Invalidate the line containing @p addr, returning it if present.
  /// Counts an invalidation.  Used by dma-put bus requests (§2.1).
  std::optional<EvictedLine> invalidate(Addr addr);

  /// Drop every line (used between benchmark repetitions).
  void flush_all();

  /// Number of currently valid lines (for tests).
  std::size_t valid_lines() const;

  /// One valid line of a canonical tag-state dump (see dump_state()).
  struct LineState {
    std::uint32_t set = 0;
    std::uint32_t rank = 0;  ///< recency rank within the set, 0 = LRU
    Addr line_addr = kNoAddr;
    bool dirty = false;
    bool operator==(const LineState& o) const {
      return set == o.set && rank == o.rank && line_addr == o.line_addr &&
             dirty == o.dirty;
    }
  };

  /// Canonical replacement-state dump for equivalence tests: every valid
  /// line as (set, recency rank within the set, line address, dirty), set-
  /// major and rank-ordered.  Recency is expressed as the per-set RANK of
  /// the raw LRU stamp, not the stamp itself — stamps are a global
  /// monotonic clock (occasionally renumbered) whose absolute values differ
  /// between two runs that made the same per-set replacement decisions, and
  /// rank is exactly the information victim selection consumes.
  std::vector<LineState> dump_state() const;

  bool contains(Addr addr) const { return peek(addr).hit; }

  Addr line_base(Addr addr) const { return addr & ~line_mask_; }

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  unsigned set_index(Addr addr) const {
    // XOR-folded set index: large power-of-two allocation alignments would
    // otherwise map the k-th line of every array to the same set and thrash
    // (physically indexed caches avoid this through page colouring; index
    // hashing is the standard simulator equivalent).
    const Addr line = addr >> line_shift_;
    const Addr hashed = line ^ (line >> 11) ^ (line >> 23);
    // Power-of-two set counts reduce with the mask (identical to the modulo
    // below); non-power-of-two geometries (the paper's 170-set L2) keep the
    // modulo — computed with a precomputed magic multiplier — so simulated
    // placement is unchanged.
    if (sets_pow2_) return static_cast<unsigned>(hashed & set_mask_);
    return static_cast<unsigned>(set_magic_.mod(hashed));
  }

  std::size_t slot(std::uint32_t set, std::uint32_t way) const {
    return static_cast<std::size_t>(set) * assoc_ + way;
  }

  template <unsigned WS>
  LookupResult peek_ways(Addr addr) const {
    const std::uint32_t ways = WS != 0 ? WS : assoc_;
    const Addr base = addr & ~line_mask_;
    LookupResult r;
    r.set = set_index(addr);
    const std::size_t row = static_cast<std::size_t>(r.set) * ways;
    const Addr* tags = tags_.data() + row;

    // Vectorized hit scan over one contiguous run of Addr words (one host
    // cache line for an 8-way set).  A set holds at most one copy of a tag,
    // so the first match is the match.
    const std::uint32_t hit_way = find_first_eq_u64(tags, ways, base);
    if (hit_way != ways) {
      r.hit = true;
      r.way = hit_way;
      return r;
    }

    // Miss: victim is the first invalid way...
    const std::uint32_t invalid_way = find_first_eq_u64(tags, ways, kNoAddr);
    if (invalid_way != ways) {
      r.way = invalid_way;
      return r;
    }
    // ...else true-LRU.  Recency stamps are unique (monotonic clock), so a
    // strict minimum needs no tie rule; the dirty bit in bit 0 cannot flip
    // an ordering decided by the clock bits above it.
    const std::uint32_t* meta = meta_.data() + row;
    std::uint32_t victim = 0;
    std::uint32_t victim_meta = meta[0];
    for (std::uint32_t w = 1; w < ways; ++w) {
      if (meta[w] < victim_meta) {
        victim_meta = meta[w];
        victim = w;
      }
    }
    r.way = victim;
    return r;
  }

  void reset_slot(std::size_t idx) {
    tags_[idx] = kNoAddr;
    meta_[idx] = 0;
  }

  /// Advance the recency clock.  Stamps carry the dirty bit in bit 0, so
  /// the clock lives in 31 bits; on exhaustion every valid stamp is
  /// renumbered 1..K in the same relative order (victim selection — a
  /// strict min per set — is unchanged by any order-preserving renumber).
  std::uint32_t bump_clock() {
    if (lru_clock_ == kClockMax) renumber_stamps();
    return ++lru_clock_;
  }
  void renumber_stamps();

  static constexpr std::uint32_t kClockMax = 0x7FFFFFFFu;

  CacheConfig cfg_;
  // Hot geometry, precomputed at construction and packed together.
  unsigned num_sets_ = 1;
  std::uint32_t assoc_ = 1;   ///< == cfg_.associativity
  unsigned line_shift_ = 0;   ///< log2(line_size)
  Addr line_mask_ = 0;        ///< line_size - 1
  bool sets_pow2_ = false;
  Addr set_mask_ = 0;         ///< num_sets - 1, valid when sets_pow2_
  MagicDivisor set_magic_;    ///< mod num_sets, valid when !sets_pow2_

  // Structure-of-arrays line storage, row-major by set.  The tag scan is the
  // hot loop; keeping tags densely packed makes it one contiguous host cache
  // line per (8-way) set.  Replacement metadata packs (recency_clock << 1 |
  // dirty) into 32 bits: half the metadata footprint of a 64-bit stamp plus
  // a dirty array, and one host cache line fewer touched per fill.
  std::vector<Addr> tags_;            // kNoAddr = invalid
  std::vector<std::uint32_t> meta_;   // (clock << 1) | dirty; 0 = never used

  std::uint32_t lru_clock_ = 0;  ///< monotonic; shared by every install path

  // Inline counters: same cache lines as the geometry above.  mutable:
  // probe() is a const lookup that counts.
  mutable Stats stats_;
};

}  // namespace hm
