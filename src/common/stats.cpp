#include "common/stats.hpp"

#include <algorithm>

namespace hm {

double safe_ratio(std::uint64_t num, std::uint64_t den, double if_zero) {
  if (den == 0) return if_zero;
  return static_cast<double>(num) / static_cast<double>(den);
}

void Accumulator::add(double sample) noexcept {
  if (count_ == 0) {
    min_ = max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  sum_ += sample;
}

}  // namespace hm
