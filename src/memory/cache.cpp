#include "memory/cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hm {

void CacheConfig::validate() const {
  if (!is_pow2(line_size)) throw std::invalid_argument(name + ": line size must be a power of two");
  if (size == 0 || associativity == 0) throw std::invalid_argument(name + ": zero size/assoc");
  if (size < line_size * associativity)
    throw std::invalid_argument(name + ": size smaller than one set");
}

SetAssocCache::SetAssocCache(CacheConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  num_sets_ = cfg_.num_sets();
  assoc_ = cfg_.associativity;
  line_shift_ = log2_exact(cfg_.line_size);
  line_mask_ = cfg_.line_size - 1;
  sets_pow2_ = is_pow2(num_sets_);
  set_mask_ = sets_pow2_ ? num_sets_ - 1 : 0;
  if (!sets_pow2_) set_magic_ = MagicDivisor(num_sets_);
  const std::size_t slots = static_cast<std::size_t>(num_sets_) * assoc_;
  tags_.assign(slots, kNoAddr);
  meta_.assign(slots, 0);
}

bool SetAssocCache::probe(Addr addr) const {
  ++stats_.snoops;
  return peek(addr).hit;
}

std::optional<EvictedLine> SetAssocCache::fill(Addr addr, bool from_prefetch) {
  const LookupResult r = peek(addr);
  if (r.hit) return std::nullopt;  // already resident
  return fill_at(r, addr, from_prefetch);
}

void SetAssocCache::set_dirty(Addr addr) {
  if (cfg_.write_policy != WritePolicy::WriteBack) return;
  const LookupResult r = peek(addr);
  if (r.hit) meta_[slot(r.set, r.way)] |= 1u;
}

std::optional<EvictedLine> SetAssocCache::invalidate(Addr addr) {
  ++stats_.invalidations;
  const LookupResult r = peek(addr);
  if (!r.hit) return std::nullopt;
  const std::size_t idx = slot(r.set, r.way);
  EvictedLine out{tags_[idx], (meta_[idx] & 1u) != 0};
  reset_slot(idx);  // full reset: tag, recency stamp and dirty bit together
  return out;
}

void SetAssocCache::renumber_stamps() {
  // The 31-bit recency clock is exhausted (once per ~2 billion installs):
  // renumber every valid stamp 1..K in ascending stamp order.  Victim
  // selection only compares stamps within a set, so any order-preserving
  // renumber leaves every future decision unchanged.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;  // (stamp, slot)
  order.reserve(tags_.size());
  for (std::uint32_t i = 0; i < tags_.size(); ++i) {
    if (tags_[i] != kNoAddr) order.emplace_back(meta_[i] >> 1, i);
  }
  std::sort(order.begin(), order.end());
  std::uint32_t next = 0;
  for (const auto& [stamp, idx] : order) {
    meta_[idx] = (++next << 1) | (meta_[idx] & 1u);
  }
  lru_clock_ = next;
}

void SetAssocCache::flush_all() {
  for (std::size_t i = 0; i < tags_.size(); ++i) reset_slot(i);
  lru_clock_ = 0;
}

std::size_t SetAssocCache::valid_lines() const {
  std::size_t n = 0;
  for (const Addr tag : tags_)
    if (tag != kNoAddr) ++n;
  return n;
}

std::vector<SetAssocCache::LineState> SetAssocCache::dump_state() const {
  std::vector<LineState> out;
  out.reserve(valid_lines());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> set_lines;  // (stamp, way)
  for (std::uint32_t set = 0; set < num_sets_; ++set) {
    set_lines.clear();
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      const std::size_t idx = slot(set, w);
      if (tags_[idx] != kNoAddr) set_lines.emplace_back(meta_[idx] >> 1, w);
    }
    std::sort(set_lines.begin(), set_lines.end());  // stamps unique per set
    for (std::uint32_t rank = 0; rank < set_lines.size(); ++rank) {
      const std::size_t idx = slot(set, set_lines[rank].second);
      out.push_back(LineState{set, rank, tags_[idx], (meta_[idx] & 1u) != 0});
    }
  }
  return out;
}

}  // namespace hm
