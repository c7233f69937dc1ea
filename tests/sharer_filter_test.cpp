// Unit tests for the sharded DMA-coherence sharer filter.
#include <gtest/gtest.h>

#include <vector>

#include "coherence/sharer_filter.hpp"
#include "common/rng.hpp"

namespace hm {
namespace {

// The filter before its entries were cleared lazily: every entry starts at
// {kNoAddr, {}} and reset() rewrites the whole table.
class EagerFilter {
 public:
  EagerFilter(unsigned n_slices, unsigned line_shift, unsigned entries_per_slice)
      : n_slices_(n_slices), line_shift_(line_shift), per_slice_(entries_per_slice),
        entries_(static_cast<std::size_t>(n_slices) * entries_per_slice) {}

  void note_fill(unsigned slice, Addr line, unsigned tile) {
    Entry& e = at(slice, line);
    if (e.line != line) e = Entry{line, {}};
    e.mask[tile >> 6] |= std::uint64_t{1} << (tile & 63);
  }

  SharerFilter::Lookup invalidate(unsigned slice, Addr line) {
    Entry& e = at(slice, line);
    if (e.line != line) return {};
    const SharerFilter::Lookup r{true, e.mask};
    e = Entry{};
    return r;
  }

  void reset() {
    for (Entry& e : entries_) e = Entry{};
  }

 private:
  struct Entry {
    Addr line = kNoAddr;
    SharerFilter::Mask mask{};
  };
  Entry& at(unsigned slice, Addr line) {
    const std::uint64_t idx = ((line >> line_shift_) / n_slices_) % per_slice_;
    return entries_[static_cast<std::size_t>(slice) * per_slice_ + idx];
  }
  unsigned n_slices_, line_shift_, per_slice_;
  std::vector<Entry> entries_;
};

TEST(SharerFilter, UntrackedUntilFilledAndClearedByInvalidate) {
  SharerFilter f(4, 6);
  EXPECT_FALSE(f.invalidate(1, 0x1040).tracked);
  f.note_fill(1, 0x1040, 3);
  f.note_fill(1, 0x1040, 2);
  const SharerFilter::Lookup r = f.invalidate(1, 0x1040);
  ASSERT_TRUE(r.tracked);
  EXPECT_EQ(r.mask[0], 0b1100u);
  EXPECT_FALSE(f.invalidate(1, 0x1040).tracked);  // consult-and-clear
  f.note_fill(1, 0x1040, 0);
  f.reset();
  EXPECT_FALSE(f.invalidate(1, 0x1040).tracked);
}

// The lazily cleared filter against the eager reference on a 256-slice
// filter with 16 entries per slice: lines of four home slices (0, 1, 77,
// 255) that conflict in their entries, fills from tiles across all four
// mask words, consult-and-clear puts, and reset() at random points.
TEST(SharerFilter, LazyEntriesMatchEagerReference) {
  constexpr unsigned kSlices = 256, kShift = 6, kEntries = 16;
  SharerFilter lazy(kSlices, kShift, kEntries);
  EagerFilter ref(kSlices, kShift, kEntries);
  std::vector<Addr> lines;
  for (unsigned home : {0u, 1u, 77u, 255u})
    for (Addr k = 0; k < 40; ++k) lines.push_back((k * kSlices + home) << kShift);
  const auto home_of = [](Addr line) { return static_cast<unsigned>((line >> kShift) % kSlices); };
  Rng rng(0x5F17u);
  std::uint64_t tracked = 0;
  for (int step = 0; step < 60'000; ++step) {
    const Addr line = lines[rng.below(lines.size())];
    if (rng.chance(0.7)) {
      const auto tile = static_cast<unsigned>(rng.below(SharerFilter::kMaxTiles));
      lazy.note_fill(home_of(line), line, tile);
      ref.note_fill(home_of(line), line, tile);
    } else {
      const SharerFilter::Lookup a = lazy.invalidate(home_of(line), line);
      const SharerFilter::Lookup b = ref.invalidate(home_of(line), line);
      ASSERT_EQ(a.tracked, b.tracked) << "step " << step;
      ASSERT_EQ(a.mask, b.mask) << "step " << step;
      tracked += a.tracked ? 1 : 0;
    }
    if (rng.chance(0.001)) {
      lazy.reset();
      ref.reset();
    }
  }
  EXPECT_GT(tracked, 1000u);
  for (const Addr line : lines) {
    const SharerFilter::Lookup a = lazy.invalidate(home_of(line), line);
    const SharerFilter::Lookup b = ref.invalidate(home_of(line), line);
    EXPECT_EQ(a.tracked, b.tracked);
    EXPECT_EQ(a.mask, b.mask);
  }
}

}  // namespace
}  // namespace hm
