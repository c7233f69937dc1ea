// IP-based stream prefetcher (Table 1: "IP-based stream prefetcher to L1, L2
// and L3", after Chen & Baer and Intel's smart memory access).
//
// The prefetcher keeps a small history table indexed by a hash of the
// instruction pointer.  Each entry tracks the last line touched by that IP
// and the observed stride; once the stride repeats enough times the entry is
// confident and the prefetcher issues `degree` line fills ahead of the
// stream.
//
// The table is deliberately small: the paper's analysis (§4.3) hinges on the
// fact that loops with many concurrent strided streams overflow the history
// table ("collisions in the history tables of the prefetchers"), wasting
// prefetches and polluting the caches.  Collisions are counted so the
// ablation bench can show this effect directly.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"

namespace hm {

struct PrefetcherConfig {
  unsigned table_entries = 16;     ///< IP history table size (power of two)
  unsigned degree = 4;             ///< lines prefetched per trigger
  unsigned confidence_threshold = 2;  ///< stride repeats before prefetching
  bool enabled = true;
};

/// Hard cap on the prefetch degree, sized so a trigger's candidate list fits
/// inline: train() is called up to three times per simulated access (L1, L2,
/// L3) and must not heap-allocate.
inline constexpr unsigned kMaxPrefetchDegree = 8;

/// Candidate line list produced by one training event.
using PrefetchList = SmallVec<Addr, kMaxPrefetchDegree>;

class StreamPrefetcher {
 public:
  struct Stats {
    std::uint64_t trainings = 0;
    std::uint64_t collisions = 0;  ///< history-table entries stolen by another IP
    std::uint64_t prefetches_issued = 0;
    std::uint64_t triggers = 0;
  };

  StreamPrefetcher(PrefetcherConfig cfg, Bytes line_size);

  /// Observe a demand access at @p pc touching @p addr.  Returns the list of
  /// line base addresses to prefetch (possibly empty).  Allocation-free and
  /// defined inline — the L1 instance runs once per simulated access.
  PrefetchList train(Addr pc, Addr addr) {
    PrefetchList out;
    if (!cfg_.enabled) return out;
    ++stats_.trainings;

    const Addr line = align_down(addr, line_size_);
    Entry& e = table_[index_of(pc)];

    if (e.ip_tag != pc) {
      if (e.ip_tag != 0) ++stats_.collisions;
      e = Entry{.ip_tag = pc, .last_line = line, .stride = 0, .confidence = 0};
      return out;
    }

    const auto stride = static_cast<std::int64_t>(line >> line_shift_) -
                        static_cast<std::int64_t>(e.last_line >> line_shift_);
    if (stride == 0) return out;  // same line, nothing to learn

    if (stride == e.stride) {
      if (e.confidence < cfg_.confidence_threshold) ++e.confidence;
    } else {
      e.stride = stride;
      e.confidence = 1;
    }
    e.last_line = line;

    if (e.confidence >= cfg_.confidence_threshold) issue(line, e, out);
    return out;
  }

  void reset();

  const PrefetcherConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  struct Entry {
    std::uint64_t ip_tag = 0;     // full pc for collision detection; 0 = empty
    Addr last_line = kNoAddr;
    std::int64_t stride = 0;      // in lines
    unsigned confidence = 0;
  };

  std::size_t index_of(Addr pc) const {
    // Xor-fold hash over the instruction-aligned pc; different IPs landing
    // on the same index model the finite history table the paper blames for
    // prefetcher breakdown.  Dropping the two alignment bits first keeps
    // adjacent instructions from aliasing systematically.
    const std::uint64_t w = pc >> 2;
    const std::uint64_t h = w ^ (w >> 9) ^ (w >> 17);
    return static_cast<std::size_t>(h & (cfg_.table_entries - 1));
  }

  /// Cold path of train(): the stream is confident, emit `degree` lines.
  void issue(Addr line, Entry& e, PrefetchList& out);

  PrefetcherConfig cfg_;
  Bytes line_size_;
  unsigned line_shift_ = 0;  ///< log2(line_size): line <-> address without divides
  std::vector<Entry> table_;
  Stats stats_;  ///< inline: train runs once per simulated access at L1
};

}  // namespace hm
