// Phase 3 of the compiler support (§3.1): code generation.
//
// CompiledKernel is an InstrStream that replays the transformed loop:
//
//   dir.config                      (program the LM buffer size, §3.2)
//   for each tile:
//     control phase:  dma-put dirty chunks of the previous tile,
//                     dma-get the chunks of this tile
//     synch phase:    dma-synch on all buffer tags
//     work phase:     the inner iterations; regular references use LM
//                     addresses, irregular references SM addresses, and
//                     potentially incoherent references guarded accesses
//                     with an initial SM address (plus the double store for
//                     writes that may alias read-only buffers)
//   epilogue:         final write-backs + synch
//
// Three variants share identical address streams (same RNG seeds), making
// runs directly comparable:
//
//   HybridProtocol — the paper's proposal: guarded instructions + directory.
//   HybridOracle   — the §4.2 baseline: an incoherent hybrid machine whose
//                    compiler resolved every aliasing problem; potentially
//                    incoherent accesses are emitted unguarded and the core
//                    diverts them at zero cost (oracle_divert).
//   CacheOnly      — the untransformed loop on a cache-based machine: every
//                    reference is a plain SM access (§4.3 comparison).
//
// Blocks: the stream hands out one phase step per next_block() — the
// dir.config, one tile's control ops, a synch, one work iteration, the
// epilogue puts, the final synch.  Every work iteration has the same ops
// in the same order, so the kernel builds them once, at the first work
// iteration (the work template), and each iteration patches only what
// varies in place: addresses, store values, the two branch outcomes and
// the register window.  The core reads the template directly; nothing is
// copied per micro-op.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "compiler/classify.hpp"
#include "compiler/transform.hpp"
#include "core/isa.hpp"
#include "core/replay.hpp"

namespace hm {

enum class CodegenVariant : std::uint8_t {
  HybridProtocol,
  HybridOracle,
  CacheOnly,
};

struct CodegenOptions {
  CodegenVariant variant = CodegenVariant::HybridProtocol;
  Addr code_base = 0x40'0000;     ///< pc of the first static instruction
  std::uint64_t global_seed = 42; ///< xor-ed into per-ref seeds
  /// Ablation (§3.1): instead of the double store, disable the read-only
  /// write-back optimization — every buffer is written back every tile and
  /// potentially incoherent writes become single guarded stores.
  bool disable_readonly_opt = false;
  /// Make every store carry a deterministic value so final SM images can be
  /// compared across variants (the end-to-end coherence check in
  /// tests/coherence_property_test.cpp).
  bool functional_stores = false;
  /// Suppress guard emission entirely (used by tests to demonstrate the
  /// incoherence the protocol exists to solve: this generates *incorrect*
  /// code when potentially incoherent references exist).
  bool drop_guards = false;
  /// Emit single guarded stores even where the double store is required
  /// (used by tests/ablations to demonstrate the §3.1 lost-update problem on
  /// read-only buffers: *incorrect* code by design).
  bool suppress_double_store = false;
};

class CompiledKernel final : public ReplayableStream {
 public:
  CompiledKernel(LoopNest loop, Classification cls, TilePlan plan, CodegenOptions opt);

  std::span<const MicroOp> next_block() override;
  void reset() override;

  // ReplayableStream: batch-compiled work phase for sampled simulation.
  // replay_batch() resolves every work iteration once (through the shared
  // process-wide descriptor cache in compiler/replay.cpp); bind_replay()
  // switches work-phase emission to the pre-resolved addresses so
  // skip_work_iterations() can fast-forward without replaying RNG draws.
  std::shared_ptr<const ReplayBatch> replay_batch() override;
  void bind_replay(std::shared_ptr<const ReplayBatch> batch) override;
  std::uint64_t work_cursor() const override;
  std::uint64_t skip_work_iterations(std::uint64_t n) override;

  /// Cache key of this kernel's descriptor batch: a digest of the loop,
  /// classification-relevant options, plan geometry, seed and engine
  /// version (see compiler/replay.cpp).
  std::uint64_t replay_key() const;

  const LoopNest& loop() const { return loop_; }
  const Classification& classification() const { return cls_; }
  const TilePlan& plan() const { return plan_; }
  const CodegenOptions& options() const { return opt_; }

  /// Deterministic value stored by reference @p ref at iteration @p iter
  /// when functional_stores is on.
  static std::uint64_t store_value(unsigned ref, std::uint64_t iter);

 private:
  friend ReplayBatch build_replay_batch(const CompiledKernel& kernel);

  enum class State : std::uint8_t { Init, Control, Synch, Work, Epilogue, EpilogueSynch, Done };

  void refill();
  std::span<const MicroOp> current_block() const;
  void emit_init();
  void emit_control(std::uint64_t tile);
  void emit_synch();
  void build_work_template();
  void emit_work_iteration(std::uint64_t global_iter);
  void emit_epilogue();

  /// Resolve the data-dependent parts of work iteration @p g, consuming the
  /// per-reference and branch RNG draws exactly as unbatched emission
  /// would: one address per memory slot (loads in ref order, then stores in
  /// ref order) into @p addrs, and the data-branch draw into @p db (0
  /// absent / 1 not taken / 2 taken).  Both emission and the descriptor
  /// compiler funnel through this so the streams cannot drift.
  void resolve_work_iteration(std::uint64_t g, Addr* addrs, std::uint8_t& db);

  /// Static memory-slot shape shared by every work iteration (the per-ref
  /// half of a ReplayBatch, and the skeleton of the work template).
  std::vector<ReplaySlot> replay_slots() const;
  /// First iteration (exclusive) past the current tile: the end of tile_'s
  /// chunk, or of the loop.
  std::uint64_t tile_end() const;

  Addr irregular_address(unsigned ref, std::uint64_t global_iter, Rng& rng) const;
  std::uint32_t all_tags_mask() const;

  LoopNest loop_;
  Classification cls_;
  TilePlan plan_;
  CodegenOptions opt_;
  bool tiled_ = false;  ///< hybrid variants with at least one mapped ref
  std::vector<Addr> addr_scratch_;   ///< per-iteration resolved addresses

  // How resolve_work_iteration addresses each memory slot, fixed at
  // construction.  A strided ref walks base + i * step, where i is the
  // iteration within the tile for a ref mapped to an LM buffer and the
  // global iteration for an SM address (cache variant, or a demoted ref);
  // every other ref draws a data-dependent SM address (irregular_address).
  struct SlotAddress {
    unsigned ref = 0;
    bool irregular = false;
    bool tile_local = false;
    Addr base = 0;
    std::uint64_t step = 0;
  };
  std::vector<SlotAddress> slot_addr_;

  // Static code layout: one pc per (ref, role) slot, assigned once.
  std::vector<Addr> load_pc_;    // per ref
  std::vector<Addr> store_pc_;   // per ref
  std::vector<Addr> extra_store_pc_;  // the st of a double store
  Addr alu_pc_base_ = 0;
  Addr branch_pc_ = 0;
  Addr data_branch_pc_ = 0;

  // Per-reference RNGs (reset() restores identical streams).
  std::vector<Rng> ref_rng_;
  Rng branch_rng_;

  // Bound descriptor batch: when set, work-iteration resolution reads the
  // batch instead of drawing from the RNGs (sampled mode).
  std::shared_ptr<const ReplayBatch> bound_;

  // The work template: one iteration's ops (loads, ALU chain, stores with
  // their double-store twins, back edge, data branch last), patched in
  // place per iteration.  Each memory op is patched from one resolved
  // address slot; a double store's twin shares its store's slot.
  struct MemPatch {
    std::uint32_t op;    ///< index into work_
    std::uint32_t slot;  ///< index into addr_scratch_
    std::uint16_t ref;   ///< store-value seed
  };
  std::vector<MicroOp> work_;
  std::vector<MemPatch> mem_patches_;
  std::uint8_t window_ = 0;  ///< register-window base work_ is written for

  // Stream cursor.  The current block is work_'s first work_len_ ops when
  // work_block_, else ctrl_ (control, synch and epilogue ops); positions
  // are indices, so a copied or moved kernel continues where it was.
  State state_ = State::Init;
  std::uint64_t tile_ = 0;
  std::uint64_t iter_ = 0;  // global iteration index
  std::vector<MicroOp> ctrl_;
  std::size_t work_len_ = 0;
  bool work_block_ = false;
};

/// Run all three compiler phases over @p loop and build the kernel.
/// @p lm_base / @p lm_size locate the local memory (ignored by CacheOnly,
/// but the plan is still computed so address streams match across variants).
CompiledKernel compile(const LoopNest& loop, const CodegenOptions& opt,
                       Addr lm_base, Bytes lm_size, unsigned max_buffers = 32);

}  // namespace hm
