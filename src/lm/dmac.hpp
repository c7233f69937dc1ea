// Programmable DMA controller (§2.1).
//
// Offers the three operations of the paper: dma-get (SM -> LM), dma-put
// (LM -> SM) and dma-synch (wait for tagged transfers).  Transfers are
// coherent with the SM:
//
//  * dma-get bus requests snoop the cache hierarchy and copy from a cache
//    when the line is resident, otherwise from main memory;
//  * dma-put bus requests copy to main memory and invalidate the line in the
//    whole hierarchy — on a multi-tile machine the uncore broadcasts the
//    invalidation to every tile's L1.
//
// On the tile-based machine each tile owns a DMAC; commands are granted a
// window on the shared DMA bus first.  The bus is one lane of a full-run
// span bitmap (SpanLanes, common/occupancy.hpp): each command books the whole
// interval it streams for, pushed past any window already booked — by any
// tile, at any earlier point of the run.  Tiles execute in fixed order, so
// lower tile ids book first and win the bus (fixed-priority arbitration).
// The bus is exclusive even against its own port: back-to-back commands
// whose windows would overlap serialize.  With per_line <= the minimum
// first-line latency (true of every shipped config: per_line 1..2, L1
// latency 2) a port's engine_free_ serialization already keeps its windows
// disjoint, so single-core grants always equal their ready cycle — the
// pre-occupancy arbiter's behavior; a config with a larger per_line would
// additionally charge the (physical) self-serialization the old
// windows-of-other-ports-only arbiter ignored.
//
// The DMAC is also the component that updates the coherence directory: every
// dma-get maps (source SM base -> destination LM buffer) and the Presence
// bit of the entry is set when the transfer completes (§3.2 "Update").
//
// Timing: one engine processes commands in order; a command takes a fixed
// startup plus a pipelined per-line cost, with the first line paying its
// full snoop/DRAM latency.  Functionally the transfer copies bytes between
// the SM and LM regions of the shared ByteStore image (the two regions are
// disjoint address ranges, so "which copy" is encoded in the address).
#pragma once

#include <array>
#include <cstdint>

#include "common/byte_store.hpp"
#include "common/types.hpp"
#include "coherence/directory.hpp"
#include "lm/local_memory.hpp"
#include "memory/hierarchy.hpp"

namespace hm {

struct DmaConfig {
  Cycle startup = 8;     ///< MMIO command decode + engine kick-off
  Cycle per_line = 1;    ///< pipelined per-line transfer cost (bus 64 B/cycle)
  unsigned num_tags = 32;
};

class DmaController {
 public:
  struct Stats {
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t synchs = 0;
    std::uint64_t lines = 0;
    std::uint64_t bytes = 0;
  };

  DmaController(DmaConfig cfg, MemoryHierarchy& hierarchy, LocalMemory& lm,
                CoherenceDirectory* directory, ByteStore* image);

  /// dma-get: transfer @p size bytes from SM address @p sm_src to LM address
  /// @p lm_dst.  Returns the completion cycle.  Updates the directory entry
  /// of the destination buffer (when a directory is attached).
  Cycle get(Cycle now, Addr sm_src, Addr lm_dst, Bytes size, unsigned tag);

  /// dma-put: transfer @p size bytes from LM address @p lm_src to SM address
  /// @p sm_dst, invalidating stale cache copies.
  Cycle put(Cycle now, Addr lm_src, Addr sm_dst, Bytes size, unsigned tag);

  /// dma-synch: cycle at which every transfer whose tag is in @p tag_mask
  /// has completed (at least @p now).
  Cycle synch(Cycle now, std::uint32_t tag_mask) const;

  /// Completion cycle of the last transfer issued on @p tag.
  Cycle tag_complete(unsigned tag) const { return tag_complete_.at(tag); }

  void reset();

  const DmaConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Names this DMAC's trace lane "tile<id>.dma" (observability only; the
  /// DMAC itself does not know which tile owns it).  Defaults to tile 0.
  void set_trace_lane(unsigned tile_id);

 private:
  void check_tag(unsigned tag) const;

  DmaConfig cfg_;
  MemoryHierarchy& hierarchy_;
  LocalMemory& lm_;
  CoherenceDirectory* directory_;  ///< null on the incoherent/oracle machine
  ByteStore* image_;               ///< null when running timing-only
  Cycle engine_free_ = 0;
  char trace_lane_[16] = "tile0.dma";
  std::array<Cycle, 64> tag_complete_{};
  mutable Stats stats_;  ///< mutable: synch() is a const query that counts
};

}  // namespace hm
