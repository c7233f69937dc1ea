// Flat DRAM model: fixed access latency plus a simple bandwidth/bank-conflict
// approximation (consecutive accesses closer than `gap` cycles queue up).
//
// With a NoC-sliced uncore the memory has several channels: home slice s
// drains through channel s % channels, each an independent lane, with the
// same gap, of one SharedLanes (common/occupancy.hpp).  Channel 0 is the
// "dram" lane, the others "dram_ch<k>"; a single-channel (flat) machine
// has only channel 0.  Contention statistics stay on the lanes; the access
// counts live in Stats.
#pragma once

#include <string>

#include "common/occupancy.hpp"
#include "common/types.hpp"

namespace hm {

struct MainMemoryConfig {
  Cycle latency = 200;  ///< row access latency, cycles
  Cycle gap = 4;        ///< minimum cycles between request starts (bandwidth)
};

class MainMemory {
 public:
  struct Stats {
    std::uint64_t accesses = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };

  /// Memory with @p channels independent channels (NoC-sliced uncore; 1
  /// when flat).  The channel count is fixed for the object's lifetime.
  /// Throws std::invalid_argument for a zero gap.
  explicit MainMemory(MainMemoryConfig cfg = {}, unsigned channels = 1)
      : cfg_(cfg), channels_(channels, cfg_.gap, [](unsigned k) {
          return k == 0 ? std::string("dram") : "dram_ch" + std::to_string(k);
        }) {}

  /// Access at cycle @p now; returns completion cycle.  Bank-level
  /// parallelism is approximated by the shared channel resource: one
  /// request may start per `gap` cycles, booked over the full run with
  /// out-of-order slot filling (on a multi-tile machine every tile books
  /// against the same bitmap, so cross-tile DRAM contention is exact).
  Cycle access(Cycle now, AccessType type, unsigned channel = 0) {
    ++stats_.accesses;
    ++(type == AccessType::Read ? stats_.reads : stats_.writes);
    return channels_.book(channel, now) + cfg_.latency;
  }

  /// Free every channel's slots (epoch reset); statistics are left alone.
  void reset() { channels_.reset(); }

  /// Clear the access counts and every channel's contention statistics.
  void reset_stats() {
    stats_ = Stats{};
    channels_.reset_stats();
  }

  const MainMemoryConfig& config() const { return cfg_; }
  /// The channels, lane k = channel k; total() is the RunReport "dram"
  /// section.
  const SharedLanes& channels() const { return channels_; }
  const Stats& stats() const { return stats_; }

 private:
  MainMemoryConfig cfg_;
  SharedLanes channels_;
  Stats stats_;
};

}  // namespace hm
