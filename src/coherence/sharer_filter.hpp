// Sharded DMA-coherence sharer filter for the NoC uncore.
//
// The flat uncore broadcasts every dma-put invalidation to all tiles' L1s
// (memory/uncore.cpp): correct, and cheap at 16 tiles, but at 256 tiles a
// broadcast per written line is exactly the non-scalable traffic a
// directory exists to filter.  With a NoC active, the home slice of every
// line keeps a direct-mapped sharer entry: L1 fills set the filling tile's
// bit, and a dma-put consults its line's home entry to invalidate only the
// recorded sharers.
//
// The filter is conservative and lossy by design:
//
//  * an untracked line (never filled, or its entry reclaimed by an
//    index-conflicting fill) falls back to the full broadcast — missing
//    state can only ADD invalidations, never lose one;
//  * L1 evictions do not clear sharer bits, so a recorded sharer may no
//    longer hold the line — the spurious invalidation is a harmless no-op
//    on a non-resident line.
//
// Either way the filter perturbs only *timing* (which L1s get snooped, and
// which NoC invalidation messages travel): functional values live in the
// ByteStore image, and the tag caches are timing state, so lossiness here
// cannot corrupt results.
//
// Thread-safety: none, like every shared occupancy bitmap
// (common/occupancy.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "common/paged_table.hpp"
#include "common/types.hpp"

namespace hm {

class SharerFilter {
 public:
  static constexpr unsigned kMaxTiles = 256;
  using Mask = std::array<std::uint64_t, kMaxTiles / 64>;

  /// @p line_shift: log2(line size) — entries are indexed by line number
  /// with the slice interleave divided out, so consecutive resident lines
  /// of one slice map to consecutive entries.
  SharerFilter(unsigned n_slices, unsigned line_shift, unsigned entries_per_slice = 1024)
      : n_slices_(n_slices), line_shift_(line_shift), entries_per_slice_(entries_per_slice),
        entries_(static_cast<std::size_t>(n_slices) * entries_per_slice) {
    if (n_slices_ == 0 || entries_per_slice_ == 0)
      throw std::invalid_argument("SharerFilter: slices and entries must be nonzero");
  }

  /// Record tile @p tile as a sharer of @p line at its home @p slice.  A
  /// fill of a different line mapping to the same entry reclaims it (the
  /// old line becomes untracked -> broadcast on its next dma-put).
  void note_fill(unsigned slice, Addr line, unsigned tile) {
    Entry& e = entries_.write(index(slice, line));
    if (e.line != line) {
      e.line = line;
      e.mask = {};
    }
    e.mask[tile >> 6] |= std::uint64_t{1} << (tile & 63);
  }

  struct Lookup {
    bool tracked = false;  ///< false => caller must broadcast
    Mask mask{};           ///< bit t: tile t recorded as sharer
  };

  /// dma-put consult-and-clear: the sharer set for @p line if tracked.
  /// The entry is cleared either way — after the put the DMA data is the
  /// valid version and no L1 holds the line.
  Lookup invalidate(unsigned slice, Addr line) {
    const std::size_t i = index(slice, line);
    if (entries_[i].line != line) return {};
    Entry& e = entries_.write(i);  // present: it holds the line
    Lookup r{true, e.mask};
    e = Entry{};
    return r;
  }

  void reset() { entries_.clear(); }

  unsigned entries_per_slice() const { return entries_per_slice_; }
  /// The most entry pages a run can allocate (one per page of the table).
  std::size_t max_pages() const { return entries_.max_pages(); }

 private:
  struct Entry {
    Addr line = kNoAddr;  ///< line base address, kNoAddr = invalid
    Mask mask{};
  };

  std::size_t index(unsigned slice, Addr line) const {
    const std::uint64_t idx = ((line >> line_shift_) / n_slices_) % entries_per_slice_;
    return static_cast<std::size_t>(slice) * entries_per_slice_ + idx;
  }

  unsigned n_slices_;
  unsigned line_shift_;
  unsigned entries_per_slice_;
  /// n_slices x entries_per_slice, slice-major, paged (10 MB in full at
  /// 256 slices; a run writes a small part of it).
  PagedTable<Entry> entries_;
};

}  // namespace hm
