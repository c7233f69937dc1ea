// Speculative out-of-order core timing model (Table 1 of the paper).
//
// The model is event-driven per micro-op rather than cycle-by-cycle: every
// dynamic micro-op is assigned a dispatch cycle (bounded by fetch width and
// ROB occupancy), an issue cycle (bounded by operand readiness and
// functional-unit availability), a completion cycle (execution or memory
// latency) and an in-order retirement cycle (bounded by retire width).
// This reproduces the first-order mechanisms the paper's evaluation relies
// on:
//
//  * guarded instructions: the directory lookup happens in the address-
//    generation stage and fits in the cycle (§3.2 "Access time"), so a
//    guarded load costs the same as a plain load — the Fig. 7 RD result;
//  * the double store: the two stores are independent, so with two LSU
//    ports they issue in the same cycle, and the Load/Store Queue collapses
//    the second store with the first when it has not drained yet, saving
//    the extra cache access (§3.1) — the Fig. 7 WR slope comes purely from
//    the extra dispatch bandwidth;
//  * presence-bit stalls on double-buffering races (§3.2);
//  * branch mispredictions (flush + redirect penalty) and PTLsim-style
//    scheduler replays on L1 misses, which the paper identifies as the CPU
//    energy cost of cache-based execution ("re-executed instructions",
//    §4.3);
//  * dma-synch serialization, which creates the synchronization phase time
//    of Fig. 9.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "coherence/directory.hpp"
#include "common/byte_store.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/bpred.hpp"
#include "core/isa.hpp"
#include "lm/dmac.hpp"
#include "lm/local_memory.hpp"
#include "memory/hierarchy.hpp"

namespace hm {

struct ReplayBatch;

struct CoreConfig {
  unsigned fetch_width = 4;        ///< Table 1: 4 instructions wide
  unsigned retire_width = 4;
  unsigned rob_size = 128;
  unsigned int_alus = 3;           ///< Table 1: 3 INT ALUs
  unsigned fp_alus = 3;            ///< Table 1: 3 FP ALUs
  unsigned lsu_ports = 2;          ///< Table 1: 2 load/store units
  Cycle int_latency = 1;
  Cycle fp_latency = 4;
  Cycle mispredict_penalty = 14;   ///< frontend redirect cost
  /// Extra latency dependents of an L1-missing load observe: the scheduler
  /// speculatively woke them at L1-hit latency and must replay them
  /// (PTLsim-style), costing wakeup/select round trips.
  Cycle replay_penalty = 4;
  unsigned store_buffer_entries = 32;
  Cycle store_drain_latency = 8;   ///< cycles a store stays collapsible
  /// Oracle mode (§4.2 baseline): plain SM accesses are silently diverted by
  /// the directory at zero cost, modeling an incoherent hybrid machine whose
  /// compiler resolved every aliasing problem.
  bool oracle_divert = false;
  BranchPredictorConfig bpred{};
};

/// Thrown by the stepper when a run's dispatch front passes its cycle
/// budget (EngineConfig::max_cycles).  The budget is a pure function of the
/// simulation, so the same run overruns at the same uop on every host.
struct CycleBudgetExceeded : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Aggregate outcome of running one instruction stream to completion.
struct RunResult {
  Cycle cycles = 0;                                 ///< total execution time
  std::array<Cycle, kNumPhases> phase_cycles{};     ///< work/control/synch
  std::uint64_t uops = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t guarded_loads = 0;
  std::uint64_t guarded_stores = 0;
  std::uint64_t value_mismatches = 0;  ///< functional check failures (must be 0)
  Accumulator load_latency;            ///< AMAT source (Table 3)
  double ipc() const {
    return cycles == 0 ? 0.0 : static_cast<double>(uops) / static_cast<double>(cycles);
  }
  double amat() const { return load_latency.mean(); }
};

class OooCore {
 public:
  /// Pipeline event counters (the energy model's CPU activity inputs).
  struct Stats {
    std::uint64_t int_ops = 0;
    std::uint64_t fp_ops = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t guarded_loads = 0;
    std::uint64_t guarded_stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t dma_commands = 0;
    std::uint64_t collapsed_stores = 0;
    std::uint64_t replay_uops = 0;
    std::uint64_t flushed_slots = 0;
    std::uint64_t rob_stall_cycles = 0;
    std::uint64_t regfile_reads = 0;
    std::uint64_t regfile_writes = 0;
    std::uint64_t lm_loads = 0;
    std::uint64_t lm_stores = 0;
    std::uint64_t store_buffer_stall_cycles = 0;
    std::uint64_t value_mismatches = 0;
    std::uint64_t fetch_groups = 0;
  };

  /// @p lm, @p directory, @p dmac and @p image may be null: a cache-based
  /// machine has none of them, the oracle machine has no *guard* cost but
  /// keeps the structures.
  OooCore(CoreConfig cfg, MemoryHierarchy& hierarchy, LocalMemory* lm,
          CoherenceDirectory* directory, DmaController* dmac, ByteStore* image);

  /// Run @p program to completion from a cold pipeline (caches keep their
  /// contents; call hierarchy.reset() separately for a cold-cache run).
  /// @p max_cycles (0 = none) is the run's cycle budget, see begin_run.
  /// Implemented as begin_run + step_until(kNoCycle) + finish_run, so the
  /// sliced and unsliced paths can never drift apart.
  RunResult run(InstrStream& program, Cycle max_cycles = 0);

  // --- resumable stepper (quantum schedule, sampling) ----------------------
  // System::run advances each tile in bounded quanta: begin_run binds the
  // stream and allocates the pipeline state, step_until advances until the
  // dispatch front (the model's monotone progress measure) passes the cycle
  // limit or the stream ends, finish_run yields the aggregate result.  The
  // uop sequence and every per-uop computation are identical to run() —
  // slicing only chooses where the loop pauses between micro-ops.

  /// Binds @p program and resets the pipeline state for a new run.  Any
  /// in-flight stepper state from a previous (e.g. aborted) run is dropped.
  /// @p max_cycles (0 = none) bounds the dispatch front exactly: a step
  /// stops at the first micro-op boundary where the front has passed the
  /// budget and throws CycleBudgetExceeded.  A run that fits is unchanged.
  void begin_run(InstrStream& program, Cycle max_cycles = 0);

  /// Advances until the dispatch front exceeds @p limit (pass kNoCycle for
  /// "to completion") or the stream is exhausted.  Returns true once the
  /// stream is exhausted (further calls are no-ops returning true).
  /// Requires a begin_run.
  bool step_until(Cycle limit);

  /// Advances until @p max_uops further micro-ops have been processed (or
  /// the stream ends).  Identical uop sequence to step_until — only the
  /// suspension criterion differs.  The sampling controller's unit of
  /// detailed progress.
  bool step_uops(std::uint64_t max_uops);

  /// Micro-ops processed so far in the current run.  Valid between
  /// begin_run and finish_run.
  std::uint64_t uops_done() const;

  /// Functional fast-forward (sampled engine): replays descriptor-batch work
  /// iterations [@p first, @p first+count) against the REAL memory system —
  /// cache tags, directory, LM, prefetchers and the store buffer evolve
  /// exactly as they would under detailed execution — while the pipeline
  /// clock advances analytically at the measured @p cpi instead of being
  /// simulated.  One unified time domain: the functional clock CONTINUES
  /// the detailed clock, so store-buffer collapse windows, WCB merge
  /// windows and directory presence stalls stay coherent across the
  /// detailed/functional boundary.  Requires begin_run; the bound stream
  /// must already have been advanced past the replayed iterations
  /// (ReplayableStream::skip_work_iterations).
  void replay_functional(const ReplayBatch& batch, std::uint64_t first,
                         std::uint64_t count, double cpi);

  /// The dispatch front: cycle of the current fetch group.  Monotone over a
  /// run.  Valid between begin_run and finish_run.
  Cycle front() const;

  /// Completes the run: finalizes and returns the RunResult, releasing the
  /// stepper state.
  RunResult finish_run();

  /// Issue-slot pool for a class of fully pipelined functional units: up to
  /// `width` operations may start per cycle.  Unlike a greedy busy-until
  /// reservation, this lets younger operations fill holes older long-latency
  /// operations left behind — the out-of-order scheduler's job.
  class IssuePool {
   public:
    IssuePool(unsigned width, std::size_t window = 4096)
        : ring_(window, Slot{kNoCycle, 0}), width_(width) {}

    /// Earliest cycle >= ready with a free slot; books it.
    Cycle book(Cycle ready) {
      for (Cycle t = ready;; ++t) {
        Slot& s = ring_[static_cast<std::size_t>(t % ring_.size())];
        if (s.cycle != t) {
          s = Slot{t, 1};
          return t;
        }
        if (s.used < width_) {
          ++s.used;
          return t;
        }
      }
    }

   private:
    struct Slot {
      Cycle cycle;
      unsigned used;
    };
    std::vector<Slot> ring_;
    unsigned width_;
  };

  BranchPredictor& bpred() { return bpred_; }
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }
  const CoreConfig& config() const { return cfg_; }

 private:
  struct StoreBufferEntry {
    Addr addr = kNoAddr;   ///< 8-byte-aligned store address
    Cycle drains_at = 0;   ///< after this cycle the entry is not collapsible
  };

  /// Everything run()'s loop used to keep on the stack, so a run can pause
  /// at a cycle boundary and resume: scoreboard, issue pools, ROB/store-
  /// buffer occupancy, dispatch/retire pacing, and the accumulating result.
  struct RunState {
    explicit RunState(const CoreConfig& cfg)
        : int_units(cfg.int_alus),
          fp_units(cfg.fp_alus),
          lsu_units(cfg.lsu_ports),
          rob_free(cfg.rob_size, 0),
          store_buffer(cfg.store_buffer_entries) {}

    InstrStream* program = nullptr;
    Cycle max_cycles = 0;  ///< cycle budget on the dispatch front; 0 = none
    RunResult res;
    std::array<Cycle, kNumRegs> reg_ready{};
    IssuePool int_units;
    IssuePool fp_units;
    IssuePool lsu_units;
    std::vector<Cycle> rob_free;
    std::vector<StoreBufferEntry> store_buffer;
    Cycle dispatch_cycle = 0;  ///< current fetch group's cycle
    unsigned dispatched_in_cycle = 0;
    Cycle last_retire = 0;
    unsigned retired_in_cycle = 0;
    Cycle retire_pace_cycle = 0;
    std::uint64_t uop_index = 0;
    bool exhausted = false;
  };

  /// Shared loop behind step_until/step_uops: suspends once the dispatch
  /// front passes @p limit OR @p stop_uop micro-ops have been processed;
  /// throws CycleBudgetExceeded once it passes the run's budget.
  bool step_impl(Cycle limit, std::uint64_t stop_uop);

  CoreConfig cfg_;
  MemoryHierarchy& hierarchy_;
  LocalMemory* lm_;
  CoherenceDirectory* directory_;
  DmaController* dmac_;
  ByteStore* image_;
  BranchPredictor bpred_;
  Stats stats_;
  std::unique_ptr<RunState> run_state_;
};

}  // namespace hm
