#include "memory/mshr.hpp"

#include <algorithm>
#include <bit>

#include "common/bitops.hpp"
#include "common/find64.hpp"

namespace hm {

Mshr::Mshr(MshrConfig cfg) : cfg_(cfg) {
  lines_.assign(cfg_.entries, kNoAddr);
  ready_.assign(cfg_.entries, 0);
}

Cycle Mshr::on_miss(Addr line_addr, Cycle now, Cycle fill_latency) {
  const auto n = static_cast<std::uint32_t>(lines_.size());

  // Merge with an in-flight fill of the same line.  Stale entries (already
  // drained) may share the tag; take the first still-active one, scanning
  // 64-entry chunks so any configured capacity works.
  for (std::uint32_t base = 0; base < n; base += 64) {
    const std::uint32_t chunk = (n - base) < 64 ? (n - base) : 64;
    std::uint64_t m = match_mask_u64(lines_.data() + base, chunk, line_addr);
    while (m != 0) {
      const auto i = base + static_cast<std::uint32_t>(std::countr_zero(m));
      if (ready_[i] > now) {
        ++stats_.merges;
        return ready_[i];
      }
      m &= m - 1;
    }
  }

  // Find a free entry (first with ready <= now), or the one that frees up
  // first.
  std::uint32_t slot = n;
  for (std::uint32_t base = 0; base < n && slot == n; base += 64) {
    const std::uint32_t chunk = (n - base) < 64 ? (n - base) : 64;
    const std::uint64_t busy = gt_mask_s64(ready_.data() + base, chunk, now);
    const std::uint64_t free = ~busy & low_mask(chunk);
    if (free != 0) slot = base + static_cast<std::uint32_t>(std::countr_zero(free));
  }

  Cycle start = now;
  if (slot == n) {
    slot = 0;
    Cycle earliest = ready_[0];
    for (std::uint32_t i = 1; i < n; ++i) {
      if (ready_[i] < earliest) {
        earliest = ready_[i];
        slot = i;
      }
    }
    ++stats_.structural_stalls;
    stats_.stall_cycles += earliest - now;
    start = earliest;
  }
  ++stats_.allocations;
  lines_[slot] = line_addr;
  ready_[slot] = start + fill_latency;
  return ready_[slot];
}

void Mshr::reset(Cycle now) {
  std::fill(lines_.begin(), lines_.end(), kNoAddr);
  std::fill(ready_.begin(), ready_.end(), now);
}

}  // namespace hm
