// Sparse byte-addressable functional memory image.
//
// The timing model (caches, LM, directory) is tag-only; actual data values
// live in ByteStore images so kernels can be checked end-to-end: the system
// keeps one image for the SM (caches + main memory are internally coherent,
// so a single image is faithful) and one for the LM.  The coherence protocol
// decides which image each access reads/writes — running the same program
// without the protocol demonstrably reads stale data (see the integration
// tests).
#pragma once

#include <array>
#include <cstring>
#include <span>
#include <unordered_map>

#include "common/types.hpp"

namespace hm {

class ByteStore {
 public:
  static constexpr Bytes kPageSize = 4096;

  void write(Addr addr, std::span<const std::byte> data) {
    for (std::size_t i = 0; i < data.size();) {
      Page& page = page_for(addr + i);
      const std::size_t off = static_cast<std::size_t>((addr + i) % kPageSize);
      const std::size_t chunk = std::min(data.size() - i, static_cast<std::size_t>(kPageSize) - off);
      std::memcpy(page.data() + off, data.data() + i, chunk);
      i += chunk;
    }
  }

  void read(Addr addr, std::span<std::byte> out) const {
    for (std::size_t i = 0; i < out.size();) {
      const std::size_t off = static_cast<std::size_t>((addr + i) % kPageSize);
      const std::size_t chunk = std::min(out.size() - i, static_cast<std::size_t>(kPageSize) - off);
      auto it = pages_.find((addr + i) / kPageSize);
      if (it == pages_.end()) {
        std::memset(out.data() + i, 0, chunk);  // untouched memory reads zero
      } else {
        std::memcpy(out.data() + i, it->second.data() + off, chunk);
      }
      i += chunk;
    }
  }

  std::uint64_t load64(Addr addr) const {
    std::uint64_t v = 0;
    read(addr, std::as_writable_bytes(std::span{&v, 1}));
    return v;
  }

  void store64(Addr addr, std::uint64_t v) {
    write(addr, std::as_bytes(std::span{&v, 1}));
  }

  /// Copy @p size bytes from @p src in @p from into @p dst here.  Used by the
  /// DMA controller's functional side.
  void copy_from(const ByteStore& from, Addr src, Addr dst, Bytes size) {
    std::array<std::byte, 256> buf;
    for (Bytes i = 0; i < size;) {
      const Bytes chunk = std::min<Bytes>(buf.size(), size - i);
      from.read(src + i, std::span{buf.data(), static_cast<std::size_t>(chunk)});
      write(dst + i, std::span{buf.data(), static_cast<std::size_t>(chunk)});
      i += chunk;
    }
  }

  void clear() { pages_.clear(); }
  std::size_t touched_pages() const { return pages_.size(); }

  /// Byte-for-byte logical equality with @p other: absent pages read as
  /// zero, so a written-then-zeroed page equals a never-touched one.
  /// Equivalence-test helper (sampled vs detailed memory images).
  bool same_contents(const ByteStore& other) const {
    static const Page kZero{};
    for (const auto& [idx, page] : pages_) {
      const auto it = other.pages_.find(idx);
      const Page& theirs = it == other.pages_.end() ? kZero : it->second;
      if (std::memcmp(page.data(), theirs.data(), kPageSize) != 0) return false;
    }
    for (const auto& [idx, page] : other.pages_) {
      if (pages_.find(idx) == pages_.end() &&
          std::memcmp(page.data(), kZero.data(), kPageSize) != 0)
        return false;
    }
    return true;
  }

 private:
  using Page = std::array<std::byte, kPageSize>;

  Page& page_for(Addr addr) {
    auto [it, inserted] = pages_.try_emplace(addr / kPageSize);
    if (inserted) it->second.fill(std::byte{0});
    return it->second;
  }

  std::unordered_map<Addr, Page> pages_;
};

}  // namespace hm
