#include "lm/local_memory.hpp"

#include <stdexcept>

#include "common/bitops.hpp"

namespace hm {

LocalMemory::LocalMemory(LocalMemoryConfig cfg) : cfg_(cfg) {
  if (!is_pow2(cfg_.size)) throw std::invalid_argument("LM size must be a power of two");
  if (cfg_.virtual_base % cfg_.size != 0)
    throw std::invalid_argument("LM virtual base must be aligned to its size");
}

Cycle LocalMemory::access(Cycle now, Addr addr, AccessType type) {
  if (!contains(addr)) throw std::out_of_range("LM access outside the reserved range");
  ++stats_.accesses;
  ++(type == AccessType::Read ? stats_.reads : stats_.writes);
  return now + cfg_.latency;
}

}  // namespace hm
