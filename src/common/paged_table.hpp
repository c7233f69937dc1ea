// A fixed-size table allocated a page at a time, on first write.
//
// A many-tile System gives every core a BTB and every home slice a block
// of sharer-filter entries, but a run writes only a few slots of each.  A
// PagedTable holds its slots in pages of kPageSlots slots (about 4 KB).  A
// page is allocated, every slot a value-initialized T (the empty entry), on
// the first write to any of its slots; a read of a slot whose page is
// absent sees the empty entry.  The System thereby holds table memory only
// where a run writes, and clear() gives it back.
#pragma once

#include <bit>
#include <cstddef>
#include <memory>
#include <vector>

namespace hm {

template <class T>
class PagedTable {
 public:
  /// Slots per page: the most that fit in 4 KB, a power of two.
  static constexpr std::size_t kPageSlots = std::bit_floor(std::size_t{4096} / sizeof(T));

  /// @p slots slots, all empty.
  explicit PagedTable(std::size_t slots) : pages_((slots + kPageSlots - 1) / kPageSlots) {}

  /// Slot @p i, or the empty entry while its page is absent.
  const T& operator[](std::size_t i) const {
    const T* page = pages_[i / kPageSlots].get();
    return page != nullptr ? page[i % kPageSlots] : kEmpty;
  }

  /// Slot @p i for writing.  Allocates its page, every slot empty, on the
  /// first write; the slots of one aligned page stay contiguous.
  T& write(std::size_t i) {
    std::unique_ptr<T[]>& page = pages_[i / kPageSlots];
    if (page == nullptr) [[unlikely]]
      page = std::make_unique<T[]>(kPageSlots);
    return page[i % kPageSlots];
  }

  /// The table's page count: the most pages it can allocate.
  std::size_t max_pages() const { return pages_.size(); }

  /// Drop every page: every slot reads as empty again.
  void clear() {
    for (std::unique_ptr<T[]>& page : pages_) page.reset();
  }

 private:
  static inline const T kEmpty{};

  std::vector<std::unique_ptr<T[]>> pages_;  ///< null = absent
};

}  // namespace hm
