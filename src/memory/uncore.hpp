// The shared uncore of the tile-based multicore machine.
//
// The paper's design is a multicore: every core pairs its L1 with a local
// memory, DMA controller and coherence directory, while the outer cache
// levels and DRAM are shared (§2.1).  This class owns everything *behind*
// the per-tile L1 port:
//
//  * the shared L2 and L3 caches with their port resources (one request may
//    start per `l2_gap`/`l3_gap` cycles across ALL tiles — the arbitration
//    point where tiles contend; each class of ports is one full-run
//    occupancy bitmap (SharedLanes, one lane per home slice), so an earlier
//    tile's bookings stay visible to every later tile for the whole run —
//    see common/occupancy.hpp),
//  * the L2/L3 stream prefetchers (trained by every tile's miss stream,
//    like a physically shared prefetch engine),
//  * main memory (its DRAM channels are the lanes of one such bitmap),
//  * the coherent DMA bus: dma-put bus requests write to main memory and
//    broadcast an invalidation to the shared levels AND to every tile's L1
//    (§3.4.2 — the DMA data is the valid version everywhere), and the bus
//    grants whole per-command transfer windows on a gap-1 span-bitmap
//    lane, serializing transfers whose simulated spans overlap.  Tiles
//    run in fixed order, so earlier tiles book first — the fixed-priority
//    arbitration of PR 3, now expressed as occupancy.
//    The DMA ports are the lanes of one such bitmap too, like the NoC
//    links.
//
// Tiles register their L1 at construction; a single-tile machine behaves
// bit-identically to the pre-tile monolithic hierarchy (one L1 registered;
// a lone DMAC's commands never overlap their own bus windows, so every
// grant equals its ready cycle).
//
// Topology (src/noc) only sets counts at construction; there is one code
// path.  Line L lives at home slice (L / line_size) % n_slices; a miss
// traverses the NoC from its tile to the home node, books that slice's
// L2/L3 port, and drains DRAM through the home's channel; the response
// traverses back.  DMA commands book DMA port (initiator % n_dma_ports).
// Cache CONTENT stays in the single shared L2/L3 structures (a
// distributed-but-unified LLC: slicing moves timing and occupancy, never
// data).  With a sharer filter, dma-put invalidations go to the line's
// recorded sharers (coherence/sharer_filter.hpp); without one, or for an
// untracked line, they are broadcast.
//
//  * Topology::Flat: 1 home slice, 1 DMA port shared by every tile (the
//    bus above), 1 DRAM channel, no links and no sharer filter — every
//    traversal is zero cycles and every put broadcasts.
//  * mesh/ring: one home slice and one DMA injection port per tile, DRAM
//    channels per NocConfig::channels_for, the link graph and the sharded
//    sharer filter.
#pragma once

#include <memory>
#include <vector>

#include "coherence/sharer_filter.hpp"
#include "common/occupancy.hpp"
#include "common/types.hpp"
#include "memory/cache.hpp"
#include "memory/main_memory.hpp"
#include "memory/mshr.hpp"
#include "memory/prefetcher.hpp"
#include "noc/noc.hpp"

namespace hm {

struct HierarchyConfig {
  CacheConfig l1d{.name = "L1D", .size = 32 * 1024, .associativity = 8, .line_size = 64,
                  .latency = 2, .write_policy = WritePolicy::WriteThrough};
  CacheConfig l2{.name = "L2", .size = 256 * 1024, .associativity = 24, .line_size = 64,
                 .latency = 15, .write_policy = WritePolicy::WriteBack};
  CacheConfig l3{.name = "L3", .size = 4 * 1024 * 1024, .associativity = 32, .line_size = 64,
                 .latency = 40, .write_policy = WritePolicy::WriteBack};
  MainMemoryConfig mem{};
  /// The L1 prefetcher's IP table is small (latency-critical structure);
  /// loops with many concurrent streams overflow it — the collision effect
  /// §4.3 reports.  The L2/L3 prefetchers are less latency-constrained and
  /// carry larger tables, so streams that die in L1 still partially cover
  /// from L2/L3 (matching the cache-based AMATs of Table 3).
  PrefetcherConfig pf_l1{.table_entries = 16};
  PrefetcherConfig pf_l2{.table_entries = 64};
  PrefetcherConfig pf_l3{.table_entries = 64};
  MshrConfig mshr{.entries = 16};
  /// Minimum cycles between request starts at L2/L3 (port bandwidth).  A
  /// write-through L1 sends every store to L2, so write-heavy loops contend
  /// here — one of the costs the hybrid machine avoids by serving regular
  /// stores from the LM.  The port resources live in the shared uncore:
  /// with several tiles, requests whose simulated cycles overlap contend
  /// for the same port slots regardless of which tile issued them.
  Cycle l2_gap = 3;
  Cycle l3_gap = 6;
};

class Uncore {
 public:
  struct Stats {
    /// dma-put invalidations delivered to an L1 other than the initiator's.
    std::uint64_t dma_invalidate_broadcasts = 0;
    /// dma-puts whose invalidation went to recorded sharers only / was
    /// broadcast (reported only with a NoC).
    std::uint64_t noc_dir_filtered = 0;
    std::uint64_t noc_dir_broadcasts = 0;
  };

  /// Uncore for an @p n_tiles machine under @p noc.  Flat (the default)
  /// builds one home slice and one shared DMA bus; mesh/ring build the
  /// link graph, one slice and one DMA injection port per tile, the DRAM
  /// channels and the sharded sharer filter.
  explicit Uncore(const HierarchyConfig& cfg, const NocConfig& noc = {}, unsigned n_tiles = 1);

  // Tiles hold references to the member caches/prefetchers and the
  // registered-L1 list holds raw pointers; not movable, not copyable.
  Uncore(const Uncore&) = delete;
  Uncore& operator=(const Uncore&) = delete;
  Uncore(Uncore&&) = delete;
  Uncore& operator=(Uncore&&) = delete;

  /// Attach one tile's L1 (invalidation-broadcast target).  Returns the
  /// port id (registration order), which is also the tile's NoC node.
  unsigned register_l1(SetAssocCache* l1);

  /// Coherent dma-get bus request for one line below the initiating tile's
  /// L1: read from the shared caches if the line is resident, else from
  /// main memory.  Returns completion cycle.  The request traverses
  /// @p initiator_port -> home slice and the line traverses back.
  Cycle dma_get_line(Cycle now, Addr line_addr, unsigned initiator_port);

  /// Coherent dma-put bus request for one line: write to main memory and
  /// invalidate the line in the shared levels and in every tile's L1 that
  /// may hold it — including tiles other than the initiator, which is what
  /// keeps a dma-put from tile A coherent with a line cached by tile B.
  /// @p initiator_port is the calling tile's NoC source node.
  Cycle dma_put_line(Cycle now, Addr line_addr, unsigned initiator_port);

  /// DMA arbitration at command granularity: grant a window of @p len
  /// cycles on DMA port (@p initiator_port % n_dma_ports) starting at or
  /// after @p ready, pushed past any window that overlaps it in simulated
  /// time.  Windows are booked on full-run span-bitmap lanes; tiles execute
  /// in fixed order, so lower tile ids book — and therefore win a shared
  /// port — first (fixed-priority arbitration).  A port is exclusive
  /// against every window, its own included; since each DMAC's
  /// engine_free_ keeps its own windows disjoint for all shipped configs
  /// (per_line <= first-line latency — see lm/dmac.hpp), single-core
  /// timing is untouched.  Flat has one port — the bus every tile shares;
  /// mesh/ring have one injection port per tile, and cross-tile
  /// serialization comes from link, slice-port and channel contention on
  /// the per-line operations instead.
  Cycle dma_bus_grant(Cycle ready, Cycle len, unsigned initiator_port) {
    return dma_ports_.book(initiator_port % dma_ports_.size(), ready, len);
  }

  /// Drop all shared cache contents and every port, channel and DMA
  /// booking.
  /// Idempotent — every tile's reset may call it.
  void reset();

  /// Clear the uncore-owned statistics (shared caches, DRAM, prefetchers,
  /// port/bus/link contention and Stats).
  void reset_stats();

  /// Observability: emit one end-of-run contention-summary trace instant
  /// per shared resource that saw traffic (L2/L3 ports, DRAM channels, DMA
  /// ports, links) at @p end on the current thread's trace sink.  No-op
  /// without an installed sink.
  void emit_contention_trace(Cycle end) const;

  SetAssocCache& l2() { return l2_; }
  SetAssocCache& l3() { return l3_; }
  MainMemory& memory() { return mem_; }
  StreamPrefetcher& pf_l2() { return pf_l2_; }
  StreamPrefetcher& pf_l3() { return pf_l3_; }
  const SetAssocCache& l2() const { return l2_; }
  const SetAssocCache& l3() const { return l3_; }
  const MainMemory& memory() const { return mem_; }
  const StreamPrefetcher& pf_l2() const { return pf_l2_; }
  const StreamPrefetcher& pf_l3() const { return pf_l3_; }

  unsigned num_ports() const { return static_cast<unsigned>(l1s_.size()); }

  // --- topology ----------------------------------------------------------

  /// The interconnect, or null when flat.
  const Noc* noc() const { return noc_.get(); }
  /// The DMA sharer filter; null when flat.
  const SharerFilter* sharers() const { return sharers_.get(); }

  /// Move a @p flits-flit message from node @p src to node @p dst starting
  /// at @p now; returns the arrival cycle.  The only way into the NoC:
  /// flat has no links, so every traversal arrives at @p now.
  Cycle traverse(unsigned src, unsigned dst, Cycle now, unsigned flits) {
    if (noc_ == nullptr) [[likely]] return now;
    return noc_->traverse(src, dst, now, flits);
  }
  /// Flits of one cache line on the NoC.
  unsigned line_flits() const { return line_flits_; }

  /// Home slice (== node id) of @p line_addr under the interleave.  The
  /// single-slice test keeps the 64-bit divide off the flat access path.
  unsigned home_of(Addr line_addr) const {
    if (n_slices_ == 1) [[likely]] return 0;
    return static_cast<unsigned>((line_addr >> line_shift_) % n_slices_);
  }
  /// DRAM channel draining @p line_addr's home slice.
  unsigned dram_channel_of(Addr line_addr) const {
    if (n_slices_ == 1) [[likely]] return 0;
    return home_of(line_addr) % mem_.channels().size();
  }

  /// The L2 (resp. L3) ports, lane = home slice.
  SharedLanes& l2_ports() { return l2_ports_; }
  SharedLanes& l3_ports() { return l3_ports_; }

  /// Sharer-filter hook: tile @p port filled @p line into its L1.  No-op
  /// without a filter.
  void note_l1_fill(unsigned port, Addr line) {
    if (sharers_ == nullptr) return;
    sharers_->note_fill(home_of(line), line, port);
  }

  // Report-facing contention: each resource class summed over its slices/
  // channels/DMA ports (requests/delayed/queue_cycles/overflows added, peak
  // maxed) — so RunReport's l2_port/l3_port/dram/dma_bus sections mean
  // "that resource class, machine-wide" under every topology.
  Contention l2_port_contention() const { return l2_ports_.total(); }
  Contention l3_port_contention() const { return l3_ports_.total(); }
  Contention dram_contention() const { return mem_.channels().total(); }
  Contention dma_bus_contention() const { return dma_ports_.total(); }

  const Stats& stats() const { return stats_; }

 private:

  HierarchyConfig cfg_;
  SetAssocCache l2_;
  SetAssocCache l3_;
  MainMemory mem_;
  StreamPrefetcher pf_l2_;
  StreamPrefetcher pf_l3_;
  std::vector<SetAssocCache*> l1s_;  ///< invalidation targets, port order
  Stats stats_;

  unsigned n_slices_ = 1;
  unsigned line_shift_ = 6;   ///< log2(line size), interleave granularity
  unsigned line_flits_ = 4;   ///< flits of one cache line on the NoC
  // One lane per home slice.
  SharedLanes l2_ports_;
  SharedLanes l3_ports_;
  /// DMA ports: commands book whole windows.
  SharedLanes dma_ports_;
  std::unique_ptr<Noc> noc_;               ///< null when flat
  std::unique_ptr<SharerFilter> sharers_;  ///< null when flat
};

}  // namespace hm
