#include "coherence/directory.hpp"

#include <stdexcept>

namespace hm {

CoherenceDirectory::CoherenceDirectory(DirectoryConfig cfg) : cfg_(cfg) {
  if (cfg_.entries == 0) throw std::invalid_argument("directory needs at least one entry");
  entries_.resize(cfg_.entries);
}

void CoherenceDirectory::configure(Bytes buffer_size, Addr lm_base, Addr lm_size) {
  if (!is_pow2(buffer_size)) throw std::invalid_argument("LM buffer size must be a power of two");
  if (lm_size % buffer_size != 0) throw std::invalid_argument("LM size not a multiple of buffer size");
  if (lm_size / buffer_size > cfg_.entries)
    throw std::invalid_argument("more LM buffers than directory entries");
  buffer_size_ = buffer_size;
  lm_base_ = lm_base;
  lm_size_ = lm_size;
  masks_ = AddressMasks::for_buffer_size(buffer_size);
  for (Entry& e : entries_) e = Entry{};
}

unsigned CoherenceDirectory::entry_index(Addr lm_buffer_base) const {
  if (buffer_size_ == 0) throw std::logic_error("directory not configured");
  if (lm_buffer_base < lm_base_ || lm_buffer_base >= lm_base_ + lm_size_)
    throw std::out_of_range("LM buffer base outside the local memory");
  // All buffers are equally sized, so the buffer base is equivalent to the
  // buffer number, which is the directory entry index (§3.2).
  return static_cast<unsigned>((lm_buffer_base - lm_base_) / buffer_size_);
}

void CoherenceDirectory::map(Addr sm_base, Addr lm_buffer_base, Cycle completes_at) {
  if ((sm_base & masks_.offset_mask) != 0)
    throw std::invalid_argument("SM chunk base must be aligned to the LM buffer size");
  ++stats_.updates;
  Entry& e = entries_[entry_index(lm_buffer_base)];
  e.valid = true;
  e.sm_tag = sm_base;
  e.lm_base = lm_buffer_base;
  e.present_at = completes_at;  // Presence bit cleared until the dma-get ends
}

void CoherenceDirectory::unmap(Addr lm_buffer_base) {
  entries_[entry_index(lm_buffer_base)] = Entry{};
}

CoherenceDirectory::LookupResult CoherenceDirectory::lookup(Addr sm_addr, Cycle now) {
  ++stats_.lookups;
  LookupResult r;
  r.available_at = now + cfg_.lookup_latency;

  const Addr base = masks_.base(sm_addr);
  const Addr offset = masks_.offset(sm_addr);

  // CAM match over all valid tags.
  for (const Entry& e : entries_) {
    if (!e.valid || e.sm_tag != base) continue;
    ++stats_.hits;
    r.hit = true;
    r.address = masks_.combine(e.lm_base, offset);
    if (e.present_at > r.available_at) {
      // Double-buffering race: the dma-get filling this buffer has not
      // completed.  The guarded access takes an internal exception and
      // retries until the Presence bit is set (§3.2 "Double buffer
      // support"); modeled as a stall until the transfer completion.
      ++stats_.presence_stalls;
      stats_.presence_stall_cycles += e.present_at - r.available_at;
      r.presence_stall = true;
      r.available_at = e.present_at;
    }
    return r;
  }

  ++stats_.misses;
  r.hit = false;
  r.address = sm_addr;  // preserve the original SM address (Fig. 4)
  return r;
}

std::optional<Addr> CoherenceDirectory::peek(Addr sm_addr) const {
  if (buffer_size_ == 0) return std::nullopt;
  const Addr base = masks_.base(sm_addr);
  for (const Entry& e : entries_) {
    if (e.valid && e.sm_tag == base) return masks_.combine(e.lm_base, masks_.offset(sm_addr));
  }
  return std::nullopt;
}

bool CoherenceDirectory::is_mapped(Addr sm_base) const {
  for (const Entry& e : entries_)
    if (e.valid && e.sm_tag == masks_.base(sm_base)) return true;
  return false;
}

std::vector<std::pair<Addr, Addr>> CoherenceDirectory::dump_mappings() const {
  std::vector<std::pair<Addr, Addr>> out;
  for (const Entry& e : entries_)
    if (e.valid) out.emplace_back(e.sm_tag, e.lm_base);
  return out;
}

}  // namespace hm
