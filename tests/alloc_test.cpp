// Enforces the engine's allocation-free fast path: once warm, the
// MemoryHierarchy access path (demand accesses — timed and functional —
// prefetcher trains and fills, MSHR traffic, write-through stores, DMA bus
// requests) must not allocate per access.  A counting global operator new
// catches any regression — the seed's three std::vector allocations per
// access would trip this immediately.  The single permitted allocation
// source is the full-run occupancy bitmaps (common/occupancy.hpp) growing
// a block slab as simulated time advances: amortized one slab per tens of
// thousands of simulated cycles, so the budget below is a function of
// elapsed simulated time, not of the access count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "common/rng.hpp"
#include "memory/hierarchy.hpp"

namespace {
std::uint64_t g_news = 0;
}

// Count every allocation path (the aligned/nothrow variants funnel through
// these in libstdc++; sized deletes must pair with the malloc below).
void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hm {
namespace {

TEST(AllocationFreeFastPath, SteadyStateAccessAllocatesOnlyTimelineChunks) {
  MemoryHierarchy h(HierarchyConfig{});
  Rng rng(0xF00Du);

  constexpr unsigned kStreams = 12;
  Addr pos[kStreams];
  for (unsigned s = 0; s < kStreams; ++s) pos[s] = 0x10'0000ull * (s + 1);

  const auto step = [&](std::size_t n, Cycle& now) {
    for (std::size_t i = 0; i < n; ++i) {
      Addr addr;
      Addr pc;
      AccessType type = AccessType::Read;
      if (rng.chance(0.2)) {
        addr = 0x4000'0000ull + rng.below(1 << 20);
        pc = 0x480;
      } else {
        const unsigned s = static_cast<unsigned>(rng.below(kStreams));
        addr = pos[s];
        pos[s] += 8;
        pc = 0x400 + s * 4;
        if (rng.chance(0.3)) type = AccessType::Write;
      }
      // Every fourth access takes the sampled fast-forward entry point.
      const Cycle done = i % 4 == 3 ? h.functional_access(now, addr, type, pc)
                                    : h.access(now, addr, type, pc).complete;
      now = done > now ? done : now + 1;
      if (rng.chance(0.01)) {
        // Coherent DMA bus requests ride the same fast path.
        h.dma_read_line(now, h.l1d().line_base(addr));
        h.dma_write_line(now, h.l1d().line_base(addr));
      }
    }
  };

  Cycle now = 0;
  step(100'000, now);  // warm up: caches, MSHR, occupancy chunks, prefetchers

  const Cycle t0 = now;
  const std::uint64_t before = g_news;
  step(200'000, now);
  const std::uint64_t after = g_news;

  // Time-proportional budget: each of the three one-lane port/channel
  // bitmaps (L2 gap 3, L3 gap 6, DRAM gap 4) covers >= 12288 cycles per
  // 4096-bucket block and allocates blocks in 16-block slabs, so the
  // steady-state rate is well under one allocation per 50k simulated
  // cycles.  The +8 slack
  // absorbs directory-vector regrowth.  Per-ACCESS allocations (the seed's
  // three vectors per access) would exceed this budget ~1000x over.
  const std::uint64_t budget = (now - t0) / 50'000 + 8;
  EXPECT_LE(after - before, budget)
      << "steady-state access path performed " << (after - before)
      << " heap allocations over " << (now - t0) << " simulated cycles";
}

}  // namespace
}  // namespace hm
