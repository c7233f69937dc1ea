// The per-core local memory (scratchpad), §2.1 of the paper.
//
// A range of the virtual address space is reserved for the LM and direct-
// mapped to its physical storage.  The CPU keeps three registers: the base
// of the virtual range, the base of the physical range and the LM size.  A
// range check on the virtual address — performed before any MMU action —
// decides whether an access is served by the LM (bypassing the TLB, with a
// fixed deterministic latency) or by the cache hierarchy.
//
// This class models those three registers, the range check, the fixed
// latency, and the access counting the energy model consumes.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace hm {

struct LocalMemoryConfig {
  Addr virtual_base = 0x7F80'0000'0000ull;  ///< base of the reserved VA range
  Bytes size = 32 * 1024;                   ///< Table 1: 32 KB
  Cycle latency = 2;                        ///< Table 1: 2 cycles
};

class LocalMemory {
 public:
  struct Stats {
    std::uint64_t accesses = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };

  explicit LocalMemory(LocalMemoryConfig cfg = {});

  /// The §2.1 range check: is @p addr inside the LM virtual range?
  bool contains(Addr addr) const {
    return addr >= cfg_.virtual_base && addr < cfg_.virtual_base + cfg_.size;
  }

  /// Access the LM at cycle @p now; returns the completion cycle.  The
  /// latency is deterministic — no TLB, no tag comparison.
  Cycle access(Cycle now, Addr addr, AccessType type);

  Addr base() const { return cfg_.virtual_base; }
  Bytes size() const { return cfg_.size; }
  Cycle latency() const { return cfg_.latency; }
  const LocalMemoryConfig& config() const { return cfg_; }

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  LocalMemoryConfig cfg_;
  Stats stats_;
};

}  // namespace hm
