// Per-tile private side of the memory system, over a shared Uncore.
//
// The paper's machine is a multicore (§2.1): each core owns its L1, MSHRs,
// L1 prefetcher and write-combining buffer, while L2/L3, main memory and
// the DMA bus are shared.  MemoryHierarchy models ONE tile's port into that
// machine: it owns the private structures and drives the shared ones
// through the Uncore it is registered with.  The standalone constructor
// wraps a private single-tile Uncore, which is the pre-tile monolithic
// hierarchy — bit-identical timing and statistics.
//
// Coherent-DMA bus operations (§2.1 of the paper):
//
//  * dma-get bus requests look the line up in the caches and copy from there
//    when present, otherwise from main memory;
//  * dma-put bus requests copy to main memory and invalidate the line in the
//    whole hierarchy — every tile's L1 included (the uncore broadcast).
//
// Timing model: an access that hits at level N pays the sum of the lookup
// latencies of levels 1..N (sequential lookup, no early restart).  Fills
// allocate on the whole path back to L1.  Store latency is the L1 latency on
// a hit — the store buffer hides the write-through — but all induced traffic
// is counted for activity/energy purposes, matching the accounting of
// Table 3 ("hits, misses, lookups and invalidations provoked by memory
// instructions, prefetchers, placement of cache lines by the MSHRs,
// write-through and write-back policies and bus requests of the DMA
// commands").  Uncore traffic (bus transfers, port-queue cycles) is counted
// in the *initiating* tile's Stats, so per-tile activity attribution falls
// out for free and a single-tile machine reports exactly the pre-tile
// numbers.
#pragma once

#include <memory>
#include <string>

#include "common/occupancy.hpp"
#include "common/types.hpp"
#include "memory/cache.hpp"
#include "memory/main_memory.hpp"
#include "memory/mshr.hpp"
#include "memory/prefetcher.hpp"
#include "memory/uncore.hpp"

namespace hm {

struct AccessResult {
  Cycle complete = 0;    ///< cycle at which the data is available
  Cycle latency = 0;     ///< complete - issue cycle
  ServedBy served_by = ServedBy::CacheL1;
};

class MemoryHierarchy {
 public:
  /// Hierarchy-level counters.  All of them — including the uncore bus
  /// legs — are attributed to this (initiating) tile.
  struct Stats {
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t writethrough_traffic = 0;
    std::uint64_t bus_l1_l2 = 0;
    std::uint64_t bus_l2_l3 = 0;
    std::uint64_t bus_l3_mem = 0;
    std::uint64_t bus_dma = 0;
    std::uint64_t l2_queue_cycles = 0;
    std::uint64_t l3_queue_cycles = 0;
    bool operator==(const Stats&) const = default;
  };

  /// Standalone single-tile hierarchy: owns a private Uncore.  This is the
  /// pre-tile monolithic configuration the unit tests and the engine
  /// benchmark drive directly.
  explicit MemoryHierarchy(HierarchyConfig cfg);

  /// One tile's private side over a shared @p uncore (which must outlive
  /// this object).  The tile's L1 is registered with the uncore for
  /// dma-put invalidation broadcasts.
  MemoryHierarchy(HierarchyConfig cfg, Uncore& uncore);

  // The uncore holds a pointer to l1d_ (invalidation target); not movable,
  // not copyable.
  MemoryHierarchy(const MemoryHierarchy&) = delete;
  MemoryHierarchy& operator=(const MemoryHierarchy&) = delete;
  MemoryHierarchy(MemoryHierarchy&&) = delete;
  MemoryHierarchy& operator=(MemoryHierarchy&&) = delete;

  /// Demand access from the core.  @p pc identifies the memory instruction
  /// for prefetcher training.
  AccessResult access(Cycle now, Addr addr, AccessType type, Addr pc);

  /// Sampled fast-forward entry point: runs access()'s code — the same
  /// cache tag/LRU/dirty updates, prefetcher training, fill/victim traffic
  /// and L2/L3 port, NoC and DRAM bookings with their queued starts — minus
  /// the MSHRs, and books an L1 miss at the issue cycle @p now rather than
  /// after the L1 lookup.  The bookings keep the shared bitmaps as dense
  /// as detailed execution would, so the detailed windows that follow see
  /// realistic contention.  Returns the completion cycle, which the
  /// replayed store buffer drains on.
  Cycle functional_access(Cycle now, Addr addr, AccessType type, Addr pc);

  /// Coherent dma-get bus request for one line: read from this tile's L1 if
  /// resident, else from the shared caches, else from main memory.
  /// Returns completion cycle.
  Cycle dma_read_line(Cycle now, Addr line_addr);

  /// Coherent dma-put bus request for one line: write to main memory and
  /// invalidate the line everywhere — shared levels and all tiles' L1s.
  Cycle dma_write_line(Cycle now, Addr line_addr);

  /// DMA bus arbitration for one command occupying the bus for @p len
  /// cycles from @p ready (see Uncore::dma_bus_grant).  Equals @p ready on
  /// a single-tile machine.
  Cycle dma_bus_grant(Cycle ready, Cycle len) {
    return uncore_.dma_bus_grant(ready, len, port_id_);
  }

  /// Drop all cache contents and in-flight state.  A standalone hierarchy
  /// also resets its owned uncore (the whole machine); over a shared
  /// uncore only the private side resets — the machine owner resets the
  /// uncore once per run.
  void reset();

  Bytes line_size() const { return cfg_.l1d.line_size; }
  const HierarchyConfig& config() const { return cfg_; }

  Uncore& uncore() { return uncore_; }
  const Uncore& uncore() const { return uncore_; }

  SetAssocCache& l1d() { return l1d_; }
  SetAssocCache& l2() { return uncore_.l2(); }
  SetAssocCache& l3() { return uncore_.l3(); }
  MainMemory& memory() { return uncore_.memory(); }
  Mshr& mshr() { return mshr_; }
  StreamPrefetcher& pf_l1() { return pf_l1_; }
  StreamPrefetcher& pf_l2() { return uncore_.pf_l2(); }
  StreamPrefetcher& pf_l3() { return uncore_.pf_l3(); }
  const SetAssocCache& l1d() const { return l1d_; }
  const SetAssocCache& l2() const { return uncore_.l2(); }
  const SetAssocCache& l3() const { return uncore_.l3(); }
  const MainMemory& memory() const { return uncore_.memory(); }
  const Mshr& mshr() const { return mshr_; }
  const StreamPrefetcher& pf_l1() const { return pf_l1_; }
  const StreamPrefetcher& pf_l2() const { return uncore_.pf_l2(); }
  const StreamPrefetcher& pf_l3() const { return uncore_.pf_l3(); }

  const Stats& stats() const { return stats_; }
  /// Clear the private statistics: Stats, the L1, the MSHRs and the L1
  /// prefetcher.  Like reset(), a standalone hierarchy also clears its
  /// owned uncore; a shared uncore is cleared once by the machine owner.
  void reset_stats();

 private:
  /// Shared implementation of the two public constructors: @p shared is the
  /// machine's uncore, or null to own a private single-tile one.
  MemoryHierarchy(HierarchyConfig cfg, Uncore* shared);

  /// Per-access scratch for the hierarchy-level counters: the hot path
  /// accumulates into narrow locals and access() commits them to stats_
  /// once.  (Structure-local counters — cache hits, MSHR merges — stay
  /// with their structures.)
  struct Scratch {
    std::uint32_t loads = 0;
    std::uint32_t stores = 0;
    std::uint32_t wt_traffic = 0;
    std::uint32_t bus_l1_l2 = 0;
    std::uint32_t bus_l2_l3 = 0;
    std::uint32_t bus_l3_mem = 0;
    Cycle l2_queue = 0;
    Cycle l3_queue = 0;
  };
  void commit(const Scratch& sc);

  /// The one access path behind access() (kTimed) and functional_access()
  /// (!kTimed); they differ only in the L1-miss branch.
  template <bool kTimed>
  AccessResult access_impl(Cycle now, Addr addr, AccessType type, Addr pc);

  /// Miss path below L1: lookup L2 then L3 then memory; fill back.  Returns
  /// the added latency beyond L1 and reports the serving level.  When
  /// @p l2_loc is non-null it receives the L2 slot now holding the line, so
  /// the caller can mark it dirty without another tag scan.
  Cycle fill_from_below(Cycle now, Addr addr, Addr pc, ServedBy& served, Scratch& sc,
                        SetAssocCache::LookupResult* l2_loc = nullptr);

  /// Handle a victim evicted from @p level ("L2"/"L3"): dirty lines are
  /// written down (L2 victim -> L3, L3 victim -> memory).
  void handle_l2_victim(Cycle now, const EvictedLine& v, Scratch& sc);
  void handle_l3_victim(Cycle now, const EvictedLine& v, Scratch& sc);

  /// Bring a line into L2 from L3/memory (prefetch fill path).  @p l2_miss
  /// is the missing L2 lookup for @p line (victim slot precomputed).
  void fetch_below_l2(Cycle now, Addr line, const SetAssocCache::LookupResult& l2_miss,
                      Scratch& sc);

  /// Book one L2 (resp. L3) port slot for @p addr at or after @p when;
  /// returns the start cycle.  Models finite cache bandwidth — the port
  /// resource is shared across all tiles of the machine (uncore port
  /// arbitration) and booked over the full run, so cross-tile contention
  /// never falls off a window.  The request first traverses the network
  /// to @p addr's home slice (zero cycles when flat) and the slot is
  /// booked on that slice's port.
  Cycle book_l2(Cycle when, Addr addr, Scratch& sc);
  Cycle book_l3(Cycle when, Addr addr, Scratch& sc);

  /// DRAM access for @p line routed to its home slice's channel.
  Cycle mem_access(Cycle when, Addr line, AccessType type) {
    return mem_.access(when, type, uncore_.dram_channel_of(line));
  }

  /// Response leg: the line travels home slice -> this tile, data ready at
  /// @p ready.  Identity when flat.
  Cycle noc_response(Cycle ready, Addr addr) {
    return uncore_.traverse(uncore_.home_of(addr), port_id_, ready, uncore_.line_flits());
  }

  /// Sharer-filter hook for L1 fills.
  void note_l1_fill(Addr addr) { uncore_.note_l1_fill(port_id_, l1d_.line_base(addr)); }

  /// Write-combining buffer for write-through stores: stores to a line with
  /// a pending write merge into it instead of consuming another L2 slot.
  /// Returns the drain cycle of the write (merged or newly booked).
  Cycle wt_store(Cycle now, Addr addr, Addr pc, Scratch& sc);

  void run_prefetches_l1(Cycle now, Addr pc, Addr addr, Scratch& sc);
  void run_prefetches_l2(Cycle now, Addr pc, Addr addr, Scratch& sc);
  void run_prefetches_l3(Cycle now, Addr pc, Addr addr, Scratch& sc);

  HierarchyConfig cfg_;
  /// Non-null only for the standalone constructor; uncore_ points at it.
  std::unique_ptr<Uncore> owned_uncore_;
  Uncore& uncore_;
  unsigned port_id_;  ///< this tile's registration index with the uncore
  SetAssocCache l1d_;
  Mshr mshr_;
  StreamPrefetcher pf_l1_;
  // Shared structures, bound once at construction so the hot path keeps the
  // direct references it had when the hierarchy was monolithic.
  SetAssocCache& l2_;
  SetAssocCache& l3_;
  MainMemory& mem_;
  StreamPrefetcher& pf_l2_;
  StreamPrefetcher& pf_l3_;
  struct WcbEntry {
    Addr line = kNoAddr;
    Cycle drain = 0;
  };
  static constexpr unsigned kWcbEntries = 4;
  WcbEntry wcb_[kWcbEntries] = {};
  Stats stats_;
};

}  // namespace hm
