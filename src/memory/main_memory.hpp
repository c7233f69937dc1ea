// Flat DRAM model: fixed access latency plus a simple bandwidth/bank-conflict
// approximation (consecutive accesses closer than `gap` cycles queue up).
//
// With a NoC-sliced uncore the memory has several channels: home slice s
// drains through channel s % channels, each an independent occupancy
// timeline with the same gap.  Channel 0 is the "dram" resource, the others
// "dram_ch<k>"; a single-channel (flat) machine has only channel 0.
// Contention statistics stay on the channels and are summed by
// aggregate_contention(); the access counts live in Stats.
#pragma once

#include <string>
#include <vector>

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
  explicit MainMemory(MainMemoryConfig cfg = {}, unsigned channels = 1) : cfg_(cfg) {
    channels_.reserve(channels);
    channels_.emplace_back("dram", cfg_.gap);
    for (unsigned k = 1; k < channels; ++k)
      channels_.emplace_back("dram_ch" + std::to_string(k), cfg_.gap);
  }

  /// Access at cycle @p now; returns completion cycle.  Bank-level
  /// parallelism is approximated by the shared channel resource: one
  /// request may start per `gap` cycles, booked over the full run with
  /// out-of-order slot filling (on a multi-tile machine every tile books
  /// against the same timeline, so cross-tile DRAM contention is exact).
  Cycle access(Cycle now, AccessType type, unsigned channel = 0) {
    ++stats_.accesses;
    ++(type == AccessType::Read ? stats_.reads : stats_.writes);
    return channels_[channel].book(now) + cfg_.latency;
  }

  unsigned channels() const { return static_cast<unsigned>(channels_.size()); }

  /// Contention summed over all channels (the RunReport "dram" section);
  /// equals channel_port(0).contention() on a single-channel machine.
  SharedResource::Contention aggregate_contention() const {
    SharedResource::Contention agg;
    for (const SharedResource& c : channels_) agg += c.contention();
    return agg;
  }

  /// Free every channel's slots (epoch reset); statistics are left alone.
  void reset() {
    for (SharedResource& c : channels_) c.reset();
  }

  /// Clear the access counts and every channel's contention statistics.
  void reset_stats() {
    stats_ = Stats{};
    for (SharedResource& c : channels_) c.reset_stats();
  }

  const MainMemoryConfig& config() const { return cfg_; }
  const SharedResource& channel_port(unsigned channel) const { return channels_[channel]; }
  const Stats& stats() const { return stats_; }

 private:
  MainMemoryConfig cfg_;
  std::vector<SharedResource> channels_;  ///< sized at construction
  Stats stats_;
};

}  // namespace hm
