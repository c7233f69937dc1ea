// Hybrid branch predictor (Table 1): a 4K-entry selector choosing between a
// 4K-entry G-share and a 4K-entry bimodal predictor, a 4K-entry 4-way BTB
// for targets, and a 32-entry return address stack.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace hm {

struct BranchPredictorConfig {
  unsigned selector_entries = 4096;
  unsigned gshare_entries = 4096;
  unsigned bimodal_entries = 4096;
  unsigned history_bits = 12;
  unsigned btb_entries = 4096;
  unsigned btb_ways = 4;
  unsigned ras_entries = 32;
};

class BranchPredictor {
 public:
  struct Stats {
    std::uint64_t predictions = 0;
    std::uint64_t mispredictions = 0;
    std::uint64_t direction_misses = 0;
    std::uint64_t target_misses = 0;
    std::uint64_t btb_hits = 0;
    std::uint64_t ras_overflows = 0;
  };

  explicit BranchPredictor(BranchPredictorConfig cfg = {});

  struct Prediction {
    bool taken = false;
    Addr target = 0;
    bool btb_hit = false;
  };

  /// Predict the branch at @p pc.
  Prediction predict(Addr pc);

  /// Update with the resolved outcome; returns true iff the prediction was
  /// correct (direction and, for taken branches, target).
  bool update(Addr pc, bool taken, Addr target);

  // Return-address stack (unused by the generated workloads but part of the
  // modeled frontend; exercised by unit tests).
  void ras_push(Addr return_addr);
  Addr ras_pop();

  void reset();

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  static void train(std::uint8_t& ctr, bool taken) {
    if (taken && ctr < 3) ++ctr;
    if (!taken && ctr > 0) --ctr;
  }
  std::size_t bimodal_index(Addr pc) const;
  std::size_t gshare_index(Addr pc) const;
  std::size_t selector_index(Addr pc) const;

  BranchPredictorConfig cfg_;
  std::vector<std::uint8_t> bimodal_;   // 2-bit counters
  std::vector<std::uint8_t> gshare_;    // 2-bit counters
  std::vector<std::uint8_t> selector_;  // 2-bit: >=2 prefer gshare
  struct BtbEntry {
    Addr pc = kNoAddr;
    Addr target = 0;
    std::uint64_t lru = 0;
  };
  std::vector<BtbEntry> btb_;
  std::vector<Addr> ras_;
  std::size_t ras_top_ = 0;
  std::uint64_t history_ = 0;
  std::uint64_t btb_clock_ = 0;

  Stats stats_;
};

}  // namespace hm
