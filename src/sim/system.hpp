// Top-level simulated system: N tiles (core + L1 + LM + DMAC + coherence
// directory each) over a shared uncore (L2/L3, DRAM, DMA bus), wired per
// MachineConfig, with run-level reporting (activity, AMAT, energy breakdown,
// phase cycles) — everything the paper's tables, figures and the scaling
// experiments consume.
#pragma once

#include <memory>
#include <vector>

#include "common/byte_store.hpp"
#include "core/isa.hpp"
#include "energy/energy.hpp"
#include "memory/uncore.hpp"
#include "sim/machine.hpp"
#include "sim/tile.hpp"

namespace hm {

/// Sampled-simulation configuration (interval sampling à la SMARTS): the
/// controller alternates detailed execution with functional fast-forward of
/// batch-compiled work iterations.  Each sampling unit runs `warmup_uops` of
/// detailed execution (warming the pipeline after a fast-forward), then a
/// `detail_uops` measured interval (the CPI sample), then fast-forwards
/// about `ff_uops` micro-ops functionally — memory/directory/LM/prefetcher
/// state evolves exactly, the pipeline clock advances at the measured CPI.
/// Cycles and energy are therefore extrapolated, with a per-point relative
/// error bound reported in RunReport::sample_error.  Sampling runs
/// single-tile points only: System::run rejects it on a multi-program run.
/// Off (the default) is byte-identical to the serial reference engine.
struct SamplingConfig {
  enum class Mode : std::uint8_t { Off, Interval };
  Mode mode = Mode::Off;
  std::uint64_t warmup_uops = 2000;
  std::uint64_t detail_uops = 10000;
  std::uint64_t ff_uops = 500000;
  bool enabled() const { return mode != Mode::Off; }
};

/// Engine configuration.  Every run executes on the calling thread.
///
/// `quantum` picks the multi-tile schedule.  0 (the default) is the serial
/// reference engine: tiles run to completion one after another in tile
/// order.  A finite quantum Q interleaves the tiles in simulated time: round
/// r advances every unfinished tile, in tile order, until its dispatch front
/// passes (r+1)*Q - 1, so shared-uncore bookings interleave at quantum
/// granularity.  Both are deterministic; a finite quantum is a different
/// (more barrier-faithful) contention model than serial, not a faster one.
/// Sampling runs single-tile points only, where the quantum plays no part.
///
/// `max_cycles` is a per-tile budget on the dispatch front (0 = none): a
/// tile whose front passes it stops at that uop and the run throws
/// CycleBudgetExceeded.  A pure function of the simulation, so a point
/// overruns identically on every host and at every job count.
struct EngineConfig {
  Cycle quantum = 0;  ///< tile turn length in cycles; 0 = whole-run turns
  /// Sampled simulation; cycles/energy become estimates.
  SamplingConfig sampling;
  Cycle max_cycles = 0;  ///< simulated-cycle budget per tile; 0 = none
};

/// True when @p e can produce results that differ from the serial engine
/// (sampling estimates, or a finite quantum).  Callers keying caches/
/// journals on the canonical point identity — which elides engine knobs —
/// must not store such results.  The cycle budget never alters a result:
/// a run either fits it unchanged or throws.
inline bool engine_alters_results(const EngineConfig& e) {
  return e.sampling.enabled() || e.quantum != 0;
}

/// Per-tile section of a run: one entry per tile that executed a program.
/// The activity figures are the tile-private share (core pipeline, L1, LM,
/// directory, DMAC, initiated bus traffic); shared-uncore activity is
/// reported once in the aggregate.
struct TileReport {
  Cycle cycles = 0;
  std::uint64_t uops = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1_accesses = 0;
  std::uint64_t lm_accesses = 0;
  std::uint64_t directory_accesses = 0;
  std::uint64_t dma_lines = 0;
  PicoJoule energy = 0.0;  ///< tile-private energy share (no shared levels)

  bool operator==(const TileReport&) const = default;
};

/// Contention observed at one shared uncore resource over a whole run.
/// `overflows` must be zero for the numbers to be trusted — a non-zero
/// value means bookings fell past the occupancy horizon and contention is
/// understated (run_point fails such points; the golden/scaling tests
/// assert the counters directly).
using ResourceContention = Contention;

/// Everything measured in one run; the inputs to Table 3, Figs. 7-10 and
/// the scaling experiment.  On a multi-tile run the flat fields are the
/// machine-wide aggregate — cycles is the barrier time (max over tiles),
/// counts and energy are summed — and `tiles` carries the per-tile split.
/// A single-tile run reports exactly the pre-tile numbers.
struct RunReport {
  RunResult core;               ///< aggregate: cycles = max, counts summed
  EnergyBreakdown energy;       ///< Fig. 10 component split (machine-wide)
  ActivityCounts activity;      ///< raw counts fed to the energy model

  // Table 3 rows.
  double amat = 0.0;
  double l1_hit_ratio = 0.0;    ///< percent
  std::uint64_t l1_accesses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t l3_accesses = 0;
  std::uint64_t lm_accesses = 0;
  std::uint64_t directory_accesses = 0;

  // Machine-wide shared-resource contention (full-run occupancy): the L2
  // and L3 port pools, the DRAM channel and the DMA bus.  With a NoC the
  // port/DRAM/bus figures are summed over slices/channels/injection ports
  // (peak maxed) — "that resource class, machine-wide".
  ResourceContention l2_port;
  ResourceContention l3_port;
  ResourceContention dram;
  ResourceContention dma_bus;

  // Interconnect section, populated only when the machine has an active
  // topology (noc_nodes > 0 is the presence marker — flat runs leave the
  // whole section zero and it is never serialized for them).
  std::uint64_t noc_nodes = 0;    ///< routers (== tiles); 0 = flat machine
  std::uint64_t noc_mesh_x = 0;   ///< mesh dims (ring: n x 1)
  std::uint64_t noc_mesh_y = 0;
  std::uint64_t noc_msgs = 0;     ///< messages traversed
  std::uint64_t noc_hops = 0;     ///< total hops over all messages
  std::uint64_t noc_flits = 0;    ///< total payload flits
  std::uint64_t noc_dir_filtered = 0;    ///< sharer-filtered dma-put invals
  std::uint64_t noc_dir_broadcasts = 0;  ///< untracked-line broadcasts
  ResourceContention noc_links;   ///< summed over every directed link
  std::vector<std::uint64_t> noc_hop_hist;  ///< [h] = messages with h hops

  std::vector<TileReport> tiles;  ///< per-tile sections, tile order

  /// Sampled engine only: conservative relative error bound on the cycle
  /// (and hence energy) estimate, derived from the spread of the measured
  /// per-interval CPI samples over the fast-forwarded uops.  0 when
  /// sampling is off or nothing was fast-forwarded.
  /// In-memory diagnostic — never serialized.
  double sample_error = 0.0;

  /// Sampled engine only: fraction of all retired uops that were replayed
  /// functionally instead of simulated in detail (0 when sampling is off).
  /// In-memory diagnostic — never serialized.
  double sampled_fraction = 0.0;

  /// Total occupancy-horizon overflows across the shared resources (NoC
  /// links included) — zero whenever the contention model covered the
  /// whole run.
  std::uint64_t contention_overflows() const {
    return l2_port.overflows + l3_port.overflows + dram.overflows +
           dma_bus.overflows + noc_links.overflows;
  }

  Cycle cycles() const { return core.cycles; }
  PicoJoule total_energy() const { return energy.total(); }
  /// Barrier time of the run — identical to cycles(), named for the
  /// scaling tables ("max-tile cycles").
  Cycle max_tile_cycles() const { return core.cycles; }

  bool operator==(const RunReport&) const = default;
};

class System {
 public:
  /// Build an @p n_cores-tile machine (>= 1).  Tile 0 of a 1-core system is
  /// wired exactly like the historical single-core System.
  explicit System(MachineConfig cfg, unsigned n_cores = 1);

  /// Run @p program to completion on tile 0 of a cold machine (caches,
  /// MSHRs, predictors and DMA state reset on every tile and in the uncore;
  /// all statistics cleared).  The functional memory image is preserved
  /// across runs — clear_image() starts a fresh one.
  RunReport run(InstrStream& program);

  /// SPMD run: one program per tile (programs.size() <= num_tiles()), all
  /// started cold at local cycle 0 with a barrier at the end of the stream
  /// — the aggregate cycle count is the slowest tile.  Tiles take turns
  /// in tile order against the shared uncore (see EngineConfig), which is
  /// what makes the contention (port slots, DMA bus windows) deterministic.
  /// A tile that overruns EngineConfig::max_cycles aborts the run with
  /// CycleBudgetExceeded.  Sampling runs single-tile points only: with
  /// sampling on, more than one program throws std::invalid_argument.
  RunReport run(const std::vector<InstrStream*>& programs);

  /// Select the engine for subsequent run() calls.  The quantum matters
  /// only on multi-program SPMD runs (a lone tile's turns concatenate to
  /// the serial run).  See EngineConfig for the determinism contract.
  void set_engine(const EngineConfig& engine) { engine_ = engine; }
  const EngineConfig& engine() const { return engine_; }

  ByteStore& image() { return image_; }
  void clear_image() { image_.clear(); }

  unsigned num_tiles() const { return static_cast<unsigned>(tiles_.size()); }
  Tile& tile(unsigned i) { return *tiles_.at(i); }
  Uncore& uncore() { return uncore_; }

  // Tile-0 accessors, kept for the (large) single-core surface: tests,
  // examples and bench_engine address "the" core/LM/directory.
  MemoryHierarchy& hierarchy() { return tiles_.front()->hierarchy(); }
  LocalMemory* lm() { return tiles_.front()->lm(); }
  CoherenceDirectory* directory() { return tiles_.front()->directory(); }
  DmaController* dmac() { return tiles_.front()->dmac(); }
  OooCore& core() { return tiles_.front()->core(); }
  const MachineConfig& config() const { return cfg_; }

 private:
  void reset_timing_state();

  /// Sampled-engine execution of @p program on tile 0: detailed warmup +
  /// measured intervals alternating with functional fast-forward of whole
  /// work iterations.  Sets @p report's sample_error and sampled_fraction.
  /// Streams that are not ReplayableStream (or have no work iterations)
  /// silently run fully detailed.
  RunResult run_sampled(InstrStream& program, RunReport& report);

  MachineConfig cfg_;
  ByteStore image_;
  Uncore uncore_;
  std::vector<std::unique_ptr<Tile>> tiles_;
  EnergyModel energy_model_;
  EngineConfig engine_;
  bool fresh_ = true;  ///< no run() yet: the machine is in its constructed, cold state
};

}  // namespace hm
