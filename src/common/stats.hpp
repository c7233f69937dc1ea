// Statistics helpers shared by every structure.
//
// Event counters are not here: each hardware structure keeps its own in a
// plain `struct Stats` of std::uint64_t fields, exposed as `stats()` and
// cleared by `reset_stats()`.  Reporting (sim/tile.cpp, sim/system.cpp)
// reads those fields directly to fill ActivityCounts and RunReport.
#pragma once

#include <cstdint>

namespace hm {

/// Ratio of two counters with a safe default when the denominator is zero.
double safe_ratio(std::uint64_t num, std::uint64_t den, double if_zero = 0.0);

/// Accumulates min/max/mean of a stream of samples (e.g. per-access latency).
class Accumulator {
 public:
  void add(double sample) noexcept;
  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  void reset() noexcept { *this = Accumulator{}; }

  /// Rebuild from serialized statistics (inverse of reading count/sum/min/
  /// max) — used when reports are rehydrated from the sweep memo cache.
  void restore(std::uint64_t count, double sum, double min, double max) noexcept {
    count_ = count;
    sum_ = sum;
    min_ = min;
    max_ = max;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace hm
