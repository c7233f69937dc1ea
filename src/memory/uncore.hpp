// The shared uncore of the tile-based multicore machine.
//
// The paper's design is a multicore: every core pairs its L1 with a local
// memory, DMA controller and coherence directory, while the outer cache
// levels and DRAM are shared (§2.1).  This class owns everything *behind*
// the per-tile L1 port:
//
//  * the shared L2 and L3 caches with their port resources (one request may
//    start per `l2_gap`/`l3_gap` cycles across ALL tiles — the arbitration
//    point where tiles contend; slots are booked on a full-run
//    OccupancyTimeline, so an earlier tile's bookings stay visible to every
//    later tile for the whole run — see common/occupancy.hpp),
//  * the L2/L3 stream prefetchers (trained by every tile's miss stream,
//    like a physically shared prefetch engine),
//  * main memory (its DRAM channel is a shared resource the same way),
//  * the coherent DMA bus: dma-put bus requests write to main memory and
//    broadcast an invalidation to the shared levels AND to every tile's L1
//    (§3.4.2 — the DMA data is the valid version everywhere), and the bus
//    grants whole per-command transfer windows on a gap-1 occupancy
//    timeline, serializing transfers whose simulated spans overlap.  Tiles
//    run in fixed order, so earlier tiles book first — the fixed-priority
//    arbitration of PR 3, now expressed as occupancy.
//
// Tiles register their L1 at construction; a single-tile machine behaves
// bit-identically to the pre-tile monolithic hierarchy (one L1 registered;
// a lone DMAC's commands never overlap their own bus windows, so every
// grant equals its ready cycle).
//
// Topology (src/noc): with an active NocConfig (mesh/ring) the flat
// arbiter is replaced by address-interleaved home slices — one per tile.
// Line L lives at home slice (L / line_size) % n_tiles; a miss traverses
// the NoC from its tile to the home node, books that slice's private
// L2/L3 port, and drains DRAM through the home's channel; the response
// traverses back.  Cache CONTENT stays in the single shared L2/L3
// structures (a distributed-but-unified LLC: slicing moves timing and
// occupancy, never data), and dma-put invalidations are filtered by a
// per-home-slice sharer directory (coherence/sharer_filter.hpp) instead
// of broadcast.  Topology::Flat constructs none of this and keeps the
// historical single-arbiter code paths byte-identical.
#pragma once

#include <memory>
#include <vector>

#include "coherence/sharer_filter.hpp"
#include "common/occupancy.hpp"
#include "common/stats.hpp"
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
  /// Flat single-arbiter uncore (the historical machine).
  explicit Uncore(const HierarchyConfig& cfg);

  /// Uncore for an @p n_tiles machine under @p noc.  An inactive (flat)
  /// topology is identical to the single-argument constructor; mesh/ring
  /// build the link graph, per-slice L2/L3 ports, per-tile DMA injection
  /// ports, DRAM channels and the sharded sharer filter.
  Uncore(const HierarchyConfig& cfg, const NocConfig& noc, unsigned n_tiles);

  // The member caches/prefetchers own StatGroups and the registered-L1 list
  // holds raw pointers; not movable, not copyable.
  Uncore(const Uncore&) = delete;
  Uncore& operator=(const Uncore&) = delete;
  Uncore(Uncore&&) = delete;
  Uncore& operator=(Uncore&&) = delete;

  /// Attach one tile's L1 (invalidation-broadcast target).  Returns the
  /// port id (registration order), which is also the tile's NoC node.
  unsigned register_l1(SetAssocCache* l1);

  /// Coherent dma-get bus request for one line below the initiating tile's
  /// L1: read from the shared caches if the line is resident, else from
  /// main memory.  Returns completion cycle.  With a NoC the request
  /// traverses initiator -> home slice and the line traverses back;
  /// @p initiator_port kNoPort (standalone callers) is treated as node 0.
  Cycle dma_get_line(Cycle now, Addr line_addr, unsigned initiator_port = ~0u);

  /// Coherent dma-put bus request for one line: write to main memory and
  /// invalidate the line in the shared levels and in EVERY tile's L1 —
  /// including tiles other than the initiator, which is what keeps a
  /// dma-put from tile A coherent with a line cached by tile B.
  /// @p initiator_port is the calling tile's NoC source node (kNoPort =
  /// standalone caller, treated as node 0).
  static constexpr unsigned kNoPort = ~0u;
  Cycle dma_put_line(Cycle now, Addr line_addr, unsigned initiator_port = kNoPort);

  /// DMA bus arbitration at command granularity: grant a bus window of
  /// @p len cycles starting at or after @p ready, pushed past any window
  /// that overlaps it in simulated time.  Windows are booked on the shared
  /// full-run bus timeline; tiles execute in fixed order, so lower tile ids
  /// book — and therefore win the bus — first (fixed-priority arbitration).
  /// The bus is exclusive against every window, a port's own included;
  /// since each DMAC's engine_free_ keeps its own windows disjoint for all
  /// shipped configs (per_line <= first-line latency — see lm/dmac.hpp),
  /// single-core timing is untouched.
  ///
  /// With a NoC there is no global bus: each tile books its own injection
  /// port (@p initiator_port; cross-tile serialization comes from link,
  /// slice-port and channel contention on the per-line operations instead).
  Cycle dma_bus_grant(Cycle ready, Cycle len, unsigned initiator_port = ~0u) {
    if (noc_ != nullptr) [[unlikely]]
      return dma_inj_[initiator_port == kNoPort ? 0 : initiator_port]->book_span(ready, len);
    return dma_bus_.book_span(ready, len);
  }

  /// Drop all shared cache contents, occupancy timelines and bus windows.
  /// Idempotent — every tile's reset may call it.
  void reset();

  /// Clear the uncore-owned statistics (shared caches, DRAM, prefetchers,
  /// port/bus contention).
  void reset_stats();

  /// Observability: emit one end-of-run contention-summary trace instant
  /// per shared resource (l2_port / l3_port / dram / dma_bus) at @p end on
  /// the current thread's trace sink.  No-op without an installed sink.
  void emit_contention_trace(Cycle end) const;

  SetAssocCache& l2() { return l2_; }
  SetAssocCache& l3() { return l3_; }
  MainMemory& memory() { return mem_; }
  StreamPrefetcher& pf_l2() { return pf_l2_; }
  StreamPrefetcher& pf_l3() { return pf_l3_; }
  SharedResource& l2_port() { return l2_port_; }
  SharedResource& l3_port() { return l3_port_; }
  SharedResource& dma_bus() { return dma_bus_; }
  const SetAssocCache& l2() const { return l2_; }
  const SetAssocCache& l3() const { return l3_; }
  const MainMemory& memory() const { return mem_; }
  const StreamPrefetcher& pf_l2() const { return pf_l2_; }
  const StreamPrefetcher& pf_l3() const { return pf_l3_; }
  const SharedResource& l2_port() const { return l2_port_; }
  const SharedResource& l3_port() const { return l3_port_; }
  const SharedResource& dma_bus() const { return dma_bus_; }

  unsigned num_ports() const { return static_cast<unsigned>(l1s_.size()); }

  // --- topology ----------------------------------------------------------

  /// The interconnect, or null for the flat arbiter.
  Noc* noc() { return noc_.get(); }
  const Noc* noc() const { return noc_.get(); }

  /// Home slice (== node id) of @p line_addr under the interleave; flat
  /// machines have one implicit slice.
  unsigned home_of(Addr line_addr) const {
    return noc_ == nullptr
               ? 0
               : static_cast<unsigned>((line_addr >> line_shift_) % n_slices_);
  }
  /// DRAM channel draining @p line_addr's home slice (0 when flat).
  unsigned dram_channel_of(Addr line_addr) const {
    return noc_ == nullptr ? 0 : home_of(line_addr) % mem_.channels();
  }

  SharedResource& slice_l2_port(unsigned slice) { return *slice_l2_ports_[slice]; }
  SharedResource& slice_l3_port(unsigned slice) { return *slice_l3_ports_[slice]; }

  /// Sharer-filter hook: tile @p port filled @p line into its L1.  No-op
  /// when flat.
  void note_l1_fill(unsigned port, Addr line) {
    if (noc_ == nullptr) return;
    sharers_->note_fill(home_of(line), line, port);
  }

  // Report-facing contention: the flat resource's counters, or the sum
  // over slices/channels/injection ports when a NoC is active (requests/
  // delayed/queue_cycles/overflows added, peak maxed) — so RunReport's
  // l2_port/l3_port/dram/dma_bus sections mean "that resource class,
  // machine-wide" under either topology.
  SharedResource::Contention l2_port_contention() const;
  SharedResource::Contention l3_port_contention() const;
  SharedResource::Contention dram_contention() const { return mem_.aggregate_contention(); }
  SharedResource::Contention dma_bus_contention() const;

  /// dma-put invalidations filtered to recorded sharers / forced to
  /// broadcast by an untracked line (NoC only; both 0 when flat).
  std::uint64_t noc_dir_filtered() const { return noc_dir_filtered_; }
  std::uint64_t noc_dir_broadcasts() const { return noc_dir_broadcasts_; }

  StatGroup& stats() { return stats_; }
  const StatGroup& stats() const { return stats_; }

 private:
  HierarchyConfig cfg_;
  SetAssocCache l2_;
  SetAssocCache l3_;
  MainMemory mem_;
  StreamPrefetcher pf_l2_;
  StreamPrefetcher pf_l3_;
  SharedResource l2_port_;
  SharedResource l3_port_;
  SharedResource dma_bus_;  ///< gap-1 timeline; commands book whole windows
  std::vector<SetAssocCache*> l1s_;  ///< broadcast targets, port order
  StatGroup stats_;
  Counter* dma_invalidate_broadcasts_;

  // Topology state; all empty/null under Topology::Flat.
  std::unique_ptr<Noc> noc_;
  unsigned n_slices_ = 1;
  unsigned line_shift_ = 6;   ///< log2(line size), interleave granularity
  unsigned line_flits_ = 4;   ///< flits of one cache line on the NoC
  std::vector<std::unique_ptr<SharedResource>> slice_l2_ports_;
  std::vector<std::unique_ptr<SharedResource>> slice_l3_ports_;
  std::vector<std::unique_ptr<SharedResource>> dma_inj_;  ///< per-tile DMA injection
  std::unique_ptr<SharerFilter> sharers_;
  std::uint64_t noc_dir_filtered_ = 0;
  std::uint64_t noc_dir_broadcasts_ = 0;
};

}  // namespace hm
