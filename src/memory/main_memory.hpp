// Flat DRAM model: fixed access latency plus a simple bandwidth/bank-conflict
// approximation (consecutive accesses closer than `gap` cycles queue up).
//
// With a NoC-sliced uncore the memory grows extra channels (set_channels):
// home slice s drains through channel s % channels, each an independent
// occupancy timeline with the same gap.  Channel 0 IS the historical
// "dram" port — its statistics stay bound into the StatGroup under the
// historical bare field names — so a single-channel (flat) machine is
// byte-identical to the pre-channel model.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/occupancy.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace hm {

struct MainMemoryConfig {
  Cycle latency = 200;  ///< row access latency, cycles
  Cycle gap = 4;        ///< minimum cycles between request starts (bandwidth)
};

class MainMemory {
 public:
  explicit MainMemory(MainMemoryConfig cfg = {})
      : cfg_(cfg), port_("dram", cfg.gap), stats_("main_memory"),
        accesses_(&stats_.counter("accesses")),
        reads_(&stats_.counter("reads")),
        writes_(&stats_.counter("writes")) {
    // The channel's contention statistics ARE the DRAM queueing statistics;
    // "queue_cycles" keeps its historical name, the rest are new fields.
    port_.bind_into(stats_, "");
  }

  /// Access at cycle @p now; returns completion cycle.  Bank-level
  /// parallelism is approximated by the shared channel resource: one
  /// request may start per `gap` cycles, booked over the full run with
  /// out-of-order slot filling (on a multi-tile machine every tile books
  /// against the same timeline, so cross-tile DRAM contention is exact).
  Cycle access(Cycle now, AccessType type, unsigned channel = 0) {
    accesses_->inc();
    (type == AccessType::Read ? reads_ : writes_)->inc();
    return channel_port(channel).book(now) + cfg_.latency;
  }

  /// Grow to @p n independent channels (NoC-sliced uncore).  Channel 0 is
  /// the existing "dram" port; channels 1..n-1 get their own timelines and
  /// contention counters ("dram_ch<k>", aggregated at report time, not
  /// bound into the StatGroup).  Call before the run; shrinking is not
  /// supported.
  void set_channels(unsigned n) {
    while (1 + extra_.size() < n)
      extra_.push_back(std::make_unique<SharedResource>(
          "dram_ch" + std::to_string(extra_.size() + 1), cfg_.gap));
  }
  unsigned channels() const { return 1 + static_cast<unsigned>(extra_.size()); }

  /// Contention summed over all channels (the RunReport "dram" section);
  /// equals port().contention() on a single-channel machine.
  SharedResource::Contention aggregate_contention() const {
    SharedResource::Contention agg = port_.contention();
    for (const auto& c : extra_) agg += c->contention();
    return agg;
  }

  void reset() {
    port_.reset();
    for (const auto& c : extra_) c->reset();
  }

  void reset_channel_stats() {
    for (const auto& c : extra_) c->reset_stats();
  }

  const MainMemoryConfig& config() const { return cfg_; }
  SharedResource& channel_port(unsigned channel) {
    return channel == 0 ? port_ : *extra_[channel - 1];
  }
  const SharedResource& channel_port(unsigned channel) const {
    return channel == 0 ? port_ : *extra_[channel - 1];
  }
  StatGroup& stats() { return stats_; }
  const StatGroup& stats() const { return stats_; }

 private:
  MainMemoryConfig cfg_;
  SharedResource port_;  ///< channel 0; historical stats shape
  std::vector<std::unique_ptr<SharedResource>> extra_;  ///< channels 1..n-1
  StatGroup stats_;
  Counter* accesses_;
  Counter* reads_;
  Counter* writes_;
};

}  // namespace hm
