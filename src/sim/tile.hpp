// One tile of the multicore machine: a core plus its private memory-side
// hardware — L1D/MSHR/L1-prefetcher (MemoryHierarchy over the shared
// Uncore), the local memory, the DMA controller and the per-core coherence
// directory (§2.1: "each core... keeps its cache hierarchy... the SPM, the
// DMAC and the directory are per-core structures").
//
// A tile runs one InstrStream per System::run call on its own local clock
// starting at cycle 0; the shared uncore structures (L2/L3 ports, DRAM
// banks, the DMA bus) arbitrate between tiles whose simulated cycles
// overlap.  Functional note: all tiles share the System's ByteStore image;
// the per-tile LMs alias the same virtual range, so value-checking
// (functional_stores) workloads are meaningful on single-tile runs only —
// multi-tile runs are timing/activity studies.
#pragma once

#include <optional>

#include "coherence/directory.hpp"
#include "common/byte_store.hpp"
#include "core/ooo_core.hpp"
#include "energy/energy.hpp"
#include "lm/dmac.hpp"
#include "lm/local_memory.hpp"
#include "memory/hierarchy.hpp"
#include "sim/machine.hpp"

namespace hm {

class Tile {
 public:
  /// Wire one tile of @p cfg's machine kind over @p uncore.  @p image is
  /// the System-owned shared memory image (may be null for timing-only).
  Tile(const MachineConfig& cfg, Uncore& uncore, ByteStore* image);

  // The core, DMAC and uncore hold references into the tile; immovable.
  Tile(const Tile&) = delete;
  Tile& operator=(const Tile&) = delete;

  MemoryHierarchy& hierarchy() { return hierarchy_; }
  LocalMemory* lm() { return lm_ ? &*lm_ : nullptr; }
  CoherenceDirectory* directory() { return directory_ ? &*directory_ : nullptr; }
  DmaController* dmac() { return dmac_ ? &*dmac_ : nullptr; }
  OooCore& core() { return core_; }
  const MemoryHierarchy& hierarchy() const { return hierarchy_; }

  /// Cold-start this tile: drop private cache/DMA/predictor state and
  /// clear every tile-private statistic.  The shared uncore is reset once
  /// by the System, not per tile.
  void reset();

  /// This tile's private activity after a run: core pipeline, L1, L1
  /// prefetcher, LM, directory, DMAC and the bus traffic this tile
  /// initiated.  Shared-structure activity (L2/L3/DRAM, L2/L3 prefetchers)
  /// is uncore-wide and is added once by the System aggregation.
  ActivityCounts collect_private_activity(const RunResult& res) const;

 private:
  MemoryHierarchy hierarchy_;
  std::optional<LocalMemory> lm_;
  std::optional<CoherenceDirectory> directory_;
  std::optional<DmaController> dmac_;
  OooCore core_;
};

}  // namespace hm
