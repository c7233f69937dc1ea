// The micro-op ISA consumed by the out-of-order core model.
//
// The paper extends x86 with guarded forms of memory instructions (gld/gst,
// implemented with instruction prefixes, §3.1).  Our simulator uses a small
// RISC-like micro-op vocabulary with the same semantics:
//
//   ld / st      conventional loads/stores — the §2.1 range check routes
//                them to the LM (address in the LM range) or the SM;
//   gld / gst    guarded loads/stores — the AGU looks the SM address up in
//                the coherence directory and diverts the access on a hit;
//   int / fp     ALU operations with register dependencies;
//   br           conditional branch (resolved against `taken`);
//   dma.get/put/synch   MMIO commands to the DMA controller;
//   dir.config   memory-mapped write of the LM buffer size (§3.2).
//
// Every micro-op carries the phase of the transformed code it belongs to
// (control / synch / work, Fig. 2) for the Fig. 9 breakdown.
//
// Register dependencies use a flat namespace of `kNumRegs` logical registers
// (0 = "no register").  The core renames implicitly by tracking, per logical
// register, the cycle its latest producer completes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace hm {

inline constexpr unsigned kNumRegs = 64;

enum class OpKind : std::uint8_t {
  IntAlu,
  FpAlu,
  Load,
  Store,
  GuardedLoad,
  GuardedStore,
  Branch,
  DmaGet,
  DmaPut,
  DmaSynch,
  DirConfig,
};

/// Execution phase of the transformed code (Fig. 2).  Untransformed code
/// (the cache-based machine) runs entirely in Work.
enum class ExecPhase : std::uint8_t {
  Work = 0,
  Control = 1,
  Synch = 2,
};
inline constexpr unsigned kNumPhases = 3;

struct MicroOp {
  Addr pc = 0;

  // Memory operand.
  Addr addr = kNoAddr;

  // Branch target (resolution: `taken` below).
  Addr target = 0;

  // DMA command operands.
  Addr dma_sm = kNoAddr;
  Addr dma_lm = kNoAddr;
  Bytes dma_size = 0;

  // dir.config operand.
  Bytes dir_buffer_size = 0;

  // Functional payload: stores carry the value to write; loads optionally
  // carry the value the generator expects to read (the end-to-end coherence
  // check in tests/coherence_property_test.cpp).
  std::uint64_t value = 0;

  std::uint32_t synch_mask = 0;  ///< dma.synch operand

  OpKind kind = OpKind::IntAlu;
  ExecPhase phase = ExecPhase::Work;

  // Register operands (0 = unused).
  std::uint8_t dst = 0;
  std::uint8_t src1 = 0;
  std::uint8_t src2 = 0;

  std::uint8_t dma_tag = 0;
  bool taken = false;  ///< branch ground truth the predictor is checked against
  bool has_value = false;
  bool check_value = false;

  bool is_load() const { return kind == OpKind::Load || kind == OpKind::GuardedLoad; }
  bool is_store() const { return kind == OpKind::Store || kind == OpKind::GuardedStore; }
  bool is_mem() const { return is_load() || is_store(); }
  bool is_guarded() const { return kind == OpKind::GuardedLoad || kind == OpKind::GuardedStore; }
  bool is_dma() const {
    return kind == OpKind::DmaGet || kind == OpKind::DmaPut || kind == OpKind::DmaSynch;
  }
  bool operator==(const MicroOp&) const = default;
};
// Streams hand micro-ops out by the block and the core reads them in place,
// so the op's size is the front end's memory traffic per simulated uop.
static_assert(sizeof(MicroOp) <= 80, "MicroOp grew: the core streams it per uop");

/// Pull-model instruction source.  Workload generators and the compiler's
/// code generator implement this; the core consumes it until exhaustion.
///
/// A stream hands out micro-ops a block at a time (next_block) and the
/// consumer reads them in place.  A consumer that stops inside a block hands
/// the unread tail back (unread), so the stream's position always equals
/// what has been consumed: the tail is the start of the next block.
class InstrStream {
 public:
  virtual ~InstrStream() = default;

  /// The next micro-ops in program order; empty at end of program.  The
  /// block stays valid until the next call on the stream, and begins with
  /// any tail handed back by unread().
  virtual std::span<const MicroOp> next_block() = 0;

  /// Restart from the beginning (used between benchmark repetitions).
  virtual void reset() = 0;

  /// Hand back the last @p n ops of the block next_block() just returned:
  /// they were not consumed and come first in the next block.
  void unread(std::size_t n) { held_ = n; }

  /// Produce the next micro-op into @p op; false at end of program.
  bool next(MicroOp& op) {
    const std::span<const MicroOp> block = next_block();
    if (block.empty()) return false;
    op = block.front();
    unread(block.size() - 1);
    return true;
  }

 protected:
  /// Ops of the current block handed back by unread() and not yet re-read.
  /// next_block() serves them first and clears the count; reset() drops it.
  std::size_t held_ = 0;
};

}  // namespace hm
