// Wattch-style activity-based energy model.
//
// Wattch derives per-access energies from capacitance models and multiplies
// them by per-structure activity counts; we substitute a fixed per-event
// energy table with CACTI-like ratios (LM access ≪ L1 ≪ L2 ≪ L3 ≪ DRAM;
// 32-entry CAM lookup ≈ a register-file read) plus per-cycle leakage.  Since
// the paper's energy results are activity-driven (§4.3: fewer cache
// accesses, fewer prefetches, fewer re-executed instructions), preserving
// activity counts and energy ratios preserves the shape of Figs. 8 and 10.
//
// The breakdown follows Fig. 10's legend:
//   CPU    — pipeline: fetch/decode, ROB, issue queue, register file, ALUs,
//            branch predictor, LSQ, plus misprediction flushes and
//            miss-replay re-execution;
//   Caches — L1/L2/L3 dynamic + leakage;
//   LM     — local memory dynamic + leakage;
//   Others — prefetchers, DMA engine, buses and the coherence directory.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace hm {

/// Per-event energies (picojoules) and per-cycle leakage (pJ/cycle).
struct EnergyParams {
  // Memory structures, per access.
  PicoJoule lm_access = 9.0;       ///< 32 KB SRAM, no tag path, no TLB
  PicoJoule l1_access_32k = 24.0;  ///< scaled by sqrt(size/32K) for other sizes
  PicoJoule l2_access = 62.0;
  PicoJoule l3_access = 160.0;
  PicoJoule mem_access = 2100.0;
  PicoJoule dir_lookup = 3.5;      ///< 32-entry CAM (§3.2, CACTI 0.348 ns @45 nm)
  PicoJoule dir_update = 3.5;

  // Pipeline, per event.
  PicoJoule fetch_group = 32.0;    ///< fetch + decode of up to 4 uops
  PicoJoule rob_dispatch = 6.0;    ///< per uop
  PicoJoule issue_op = 8.0;        ///< wakeup + select, per issued uop
  PicoJoule regfile_read = 2.0;
  PicoJoule regfile_write = 3.0;
  PicoJoule int_op = 10.0;
  PicoJoule fp_op = 28.0;
  PicoJoule bpred_lookup = 3.0;
  PicoJoule lsq_op = 6.0;          ///< per memory uop
  PicoJoule replay_uop = 14.0;     ///< re-executed uop after a miss replay
  PicoJoule flushed_slot = 9.0;    ///< wasted fetch/execute slot on flush

  // Others.
  PicoJoule prefetch_train = 1.5;
  PicoJoule prefetch_issue = 6.0;
  PicoJoule dma_line = 28.0;
  PicoJoule bus_transfer = 7.0;

  // Leakage, pJ per cycle.
  PicoJoule leak_core = 45.0;
  PicoJoule leak_l1_32k = 4.0;     ///< scaled linearly with size
  PicoJoule leak_l2 = 14.0;
  PicoJoule leak_l3 = 70.0;
  PicoJoule leak_lm = 2.4;         ///< SRAM without tags/TLB: lower leakage
  PicoJoule leak_dir = 0.15;
};

/// Raw activity counts the model charges.  The sim layer fills this from the
/// per-structure Stats after a run.
struct ActivityCounts {
  // Memory structures.
  std::uint64_t l1_activity = 0;   ///< lookups + fills + invalidations + snoops
  std::uint64_t l2_activity = 0;
  std::uint64_t l3_activity = 0;
  std::uint64_t mem_accesses = 0;
  std::uint64_t lm_accesses = 0;
  std::uint64_t dir_lookups = 0;
  std::uint64_t dir_updates = 0;

  // Pipeline.
  std::uint64_t fetch_groups = 0;
  std::uint64_t uops = 0;
  std::uint64_t regfile_reads = 0;
  std::uint64_t regfile_writes = 0;
  std::uint64_t int_ops = 0;
  std::uint64_t fp_ops = 0;
  std::uint64_t branches = 0;
  std::uint64_t mem_uops = 0;
  std::uint64_t replay_uops = 0;
  std::uint64_t flushed_slots = 0;

  // Others.
  std::uint64_t prefetch_trainings = 0;
  std::uint64_t prefetch_issues = 0;
  std::uint64_t dma_lines = 0;
  std::uint64_t bus_transfers = 0;

  std::uint64_t cycles = 0;

  // Configuration that scales structure energy.
  Bytes l1_size = 32 * 1024;
  bool has_lm = false;
  bool has_directory = false;
};

/// Energy broken down by the Fig. 10 components, in picojoules.
struct EnergyBreakdown {
  PicoJoule cpu = 0;
  PicoJoule caches = 0;
  PicoJoule lm = 0;
  PicoJoule others = 0;
  PicoJoule total() const { return cpu + caches + lm + others; }
};

class EnergyModel {
 public:
  explicit EnergyModel(EnergyParams params = {}) : params_(params) {}

  EnergyBreakdown compute(const ActivityCounts& a) const;

  /// Per-access L1 energy for a given capacity (sqrt scaling, CACTI-like).
  PicoJoule l1_access_energy(Bytes l1_size) const;
  PicoJoule l1_leak(Bytes l1_size) const;

  const EnergyParams& params() const { return params_; }

 private:
  EnergyParams params_;
};

}  // namespace hm
