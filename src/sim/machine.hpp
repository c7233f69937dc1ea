// Machine configurations for the evaluation (§4.1, Table 1).
//
// Three machines are modeled:
//
//  * HybridCoherent — the proposal: 32 KB L1 + 32 KB LM, DMAC, and the
//    32-entry coherence directory; the compiler emits guarded instructions.
//  * HybridOracle — the §4.2 overhead baseline: the same hybrid hardware but
//    an incoherent memory system driven by an oracle compiler that resolved
//    every aliasing problem (no guards, no directory cost).
//  * CacheBased — the §4.3 comparison machine: no LM; for fairness the L1
//    grows to 64 KB, matching 32 KB L1 + 32 KB LM of the hybrid machine.
#pragma once

#include <string>

#include "coherence/directory.hpp"
#include "core/ooo_core.hpp"
#include "energy/energy.hpp"
#include "lm/dmac.hpp"
#include "lm/local_memory.hpp"
#include "memory/hierarchy.hpp"
#include "noc/noc.hpp"

namespace hm {

enum class MachineKind : std::uint8_t {
  HybridCoherent,
  HybridOracle,
  CacheBased,
};

const char* to_string(MachineKind k);

struct MachineConfig {
  MachineKind kind = MachineKind::HybridCoherent;
  CoreConfig core{};
  HierarchyConfig hierarchy{};
  LocalMemoryConfig lm{};
  DirectoryConfig directory{};
  DmaConfig dma{};
  EnergyParams energy{};
  /// Interconnect topology (src/noc).  The default (flat) gives the shared
  /// uncore 1 home slice, 1 DMA port shared by every tile, 1 DRAM channel,
  /// no links and no sharer filter — byte-identical to every golden;
  /// mesh/ring give it one home slice and one DMA port per tile.
  NocConfig noc{};

  bool has_lm() const { return kind != MachineKind::CacheBased; }
  bool has_directory_hardware() const { return kind == MachineKind::HybridCoherent; }

  /// Table 1 machine with the coherence protocol.
  static MachineConfig hybrid_coherent();
  /// Incoherent hybrid machine with the oracle compiler (§4.2 baseline).
  static MachineConfig hybrid_oracle();
  /// Cache-based machine with the enlarged 64 KB L1 (§4.3).
  static MachineConfig cache_based();

  /// Human-readable configuration dump (regenerates Table 1).
  std::string describe() const;
};

}  // namespace hm
