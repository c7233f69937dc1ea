// Enforces the engine's allocation-free fast path: once warm, the
// MemoryHierarchy access path (demand accesses — timed and functional —
// prefetcher trains and fills, MSHR traffic, write-through stores, DMA bus
// requests) must not allocate per access.  A counting global operator new
// catches any regression — the seed's three std::vector allocations per
// access would trip this immediately.  The permitted allocation sources:
//  * the full-run occupancy bitmaps (common/occupancy.hpp) growing a block
//    slab as simulated time advances: amortized one slab per thousands of
//    simulated cycles, so that budget is a function of elapsed simulated
//    time, not of the access count;
//  * on a NoC machine, the sharer filter's pages (common/paged_table.hpp),
//    each allocated on the first fill that lands in it and never again
//    until a reset: at most the filter table's page count over a run.
// The same counter bounds the heap of a 256-tile mesh System, built and run
// on a short kernel: the live bytes at their peak, not a host RSS reading,
// so the bound holds on any host.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "driver/sweep.hpp"
#include "memory/hierarchy.hpp"
#include "sim/system.hpp"

namespace {
std::uint64_t g_news = 0;
std::uint64_t g_live_bytes = 0;  ///< requested and not yet freed
std::uint64_t g_peak_bytes = 0;  ///< high-water mark of g_live_bytes

/// Prefix of every counted block: its requested size, so a delete without
/// a size still takes the right amount off g_live_bytes.
struct alignas(std::max_align_t) Header {
  std::size_t bytes;
};
}  // namespace

// Count every allocation path (the nothrow variants funnel through these in
// libstdc++; every delete must pair with the malloc below).
void* operator new(std::size_t n) {
  ++g_news;
  g_live_bytes += n;
  g_peak_bytes = std::max(g_peak_bytes, g_live_bytes);
  if (void* p = std::malloc(sizeof(Header) + n)) {
    static_cast<Header*>(p)->bytes = n;
    return static_cast<Header*>(p) + 1;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Out of line, so gcc does not pair an inlined free() with operator new.
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  Header* h = static_cast<Header*>(p) - 1;
  g_live_bytes -= h->bytes;
  std::free(h);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

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

TEST(AllocationFreeFastPath, MeshAccessPathAddsOnlyFilterPages) {
  // A 64-tile mesh: every L1 fill records a sharer at the line's home
  // slice, so the filter's pages join the occupancy slabs as a source.
  // Each tile issues dependent accesses on its own clock, round-robin.
  constexpr unsigned kTiles = 64;
  MachineConfig cfg = MachineConfig::hybrid_coherent();
  cfg.noc.topology = Topology::Mesh;
  System sys(cfg, kTiles);
  Rng rng(0xBEEFu);
  std::vector<Cycle> now(kTiles, 0);

  // No warm-up: the filter's first fills fall inside the counted window.
  const std::uint64_t before = g_news;
  for (std::size_t i = 0; i < 200'000; ++i) {
    const unsigned t = static_cast<unsigned>(i % kTiles);
    // Each tile sweeps its own region, and every tile re-reads a shared
    // one: fills land on every home slice, fresh lines keep coming.
    const Addr addr = rng.chance(0.3) ? 0x4000'0000ull + 64 * rng.below(1 << 14)
                                      : 0x10'0000ull * (t + 1) + 64 * rng.below(1 << 16);
    const AccessType type = rng.chance(0.3) ? AccessType::Write : AccessType::Read;
    const Cycle done = sys.tile(t).hierarchy().access(now[t], addr, type, 0x400).complete;
    now[t] = std::max(done, now[t] + 1);
  }
  const std::uint64_t after = g_news;
  const Cycle elapsed = *std::max_element(now.begin(), now.end());

  // Occupancy: a set of many lanes takes one block per slab, so the gap-1
  // link set allocates once per 4096 cycles of simulated time and the
  // slower port and channel sets together less often; +64 for directory
  // regrowth.  Filter pages: at most the page count of the 64 x 1024-entry
  // table (a fresh one here: about 1000 of this run's 1400 allocations).
  const std::uint64_t time_budget = 2 * (elapsed / 4096 + 1) + 64;
  ASSERT_NE(sys.uncore().sharers(), nullptr);
  const std::uint64_t filter_pages = sys.uncore().sharers()->max_pages();
  EXPECT_LE(after - before, time_budget + filter_pages)
      << "mesh access path performed " << (after - before) << " heap allocations over "
      << elapsed << " simulated cycles";
}

// The heap a 256-tile hybrid_coherent mesh point needs: the System's
// construction, then the whole point (workload build and an SPMD run of a
// short FT) under run_point.  Measured 6.9 MB and 21.9 MB of live bytes at
// their peak; the bounds are about 1.5x that.  Allocating the BTBs and the
// sharer filter in full would put the two at 42.5 MB and 64.9 MB.
TEST(HeapFootprint, ManyTileMeshPointStaysSmall) {
  MachineConfig cfg = MachineConfig::hybrid_coherent();
  cfg.noc.topology = Topology::Mesh;
  std::uint64_t base = g_live_bytes;
  g_peak_bytes = base;
  { System sys(cfg, 256); }
  EXPECT_LE(g_peak_bytes - base, 10'000'000u) << "256-tile System construction";

  driver::SweepPoint p;
  p.machine = "hybrid_coherent";
  p.workload = "FT";
  p.scale = 0.001;
  p.knobs = {{"topology", "mesh"}, {"cores", "256"}};
  base = g_live_bytes;
  g_peak_bytes = base;
  const driver::PointResult r = driver::run_point(p);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.report.noc_dir_filtered + r.report.noc_dir_broadcasts, 0u);  // dma-puts ran
  EXPECT_LE(g_peak_bytes - base, 33'000'000u) << "256-tile FT point";
}

}  // namespace
}  // namespace hm
