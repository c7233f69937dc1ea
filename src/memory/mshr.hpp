// Miss Status Holding Registers.
//
// Models the two first-order effects of a finite miss-handling capacity:
//  * merging — a demand miss to a line that is already in flight completes
//    when the in-flight fill completes (no second bus request);
//  * structural stalls — when all entries are busy a new miss waits for the
//    earliest entry to free up.
//
// The model is latency-based rather than port-accurate: on_miss() returns
// the cycle at which the miss data is available, and the caller turns that
// into an access latency.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace hm {

struct MshrConfig {
  unsigned entries = 16;
};

class Mshr {
 public:
  struct Stats {
    std::uint64_t allocations = 0;
    std::uint64_t merges = 0;
    std::uint64_t structural_stalls = 0;
    std::uint64_t stall_cycles = 0;
  };

  explicit Mshr(MshrConfig cfg);

  /// Register a miss for @p line_addr issued at cycle @p now whose fill
  /// would take @p fill_latency cycles if it could start immediately.
  /// Returns the cycle at which the line becomes available.
  Cycle on_miss(Addr line_addr, Cycle now, Cycle fill_latency);

  /// Drop all in-flight state (between benchmark repetitions).
  void reset(Cycle now = 0);

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  // Structure-of-arrays entry storage: the line tags are scanned (vectorized)
  // on every miss, the ready cycles only for the matching/victim entries.
  MshrConfig cfg_;
  std::vector<Addr> lines_;
  std::vector<Cycle> ready_;
  Stats stats_;
};

}  // namespace hm
