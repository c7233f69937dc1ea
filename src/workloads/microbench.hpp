// The Table 2 microbenchmark: a load/add/store loop over an array,
//
//     for (i = 0; i < N-1; i++)  a[i+1] = a[i] + c;
//
// configurable in four modes that decide which references are assumed
// potentially incoherent (and therefore guarded):
//
//   Baseline — no guarded instructions;
//   RD       — the read of a[i] is guarded (gld);
//   WR       — the write of a[i+1] is guarded and, because a write-back to
//              the SM cannot be ensured, the double store is emitted
//              (gst + st);
//   RDWR     — both of the above.
//
// The fraction of dynamic references that are guarded is adjustable — the X
// axis of Fig. 7.  The array is *not* mapped to the LM: every guarded access
// looks up the directory and misses, isolating the pure protocol overhead
// from any data-placement effect, exactly like the paper's experiment.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "core/isa.hpp"

namespace hm {

enum class MicroMode : std::uint8_t { Baseline, RD, WR, RDWR };

const char* to_string(MicroMode m);

struct MicrobenchConfig {
  MicroMode mode = MicroMode::Baseline;
  unsigned guarded_pct = 100;        ///< % of references guarded (0..100)
  std::uint64_t iterations = 100'000;
  Addr array_base = 0x1000'0000;
  /// The array is L1-resident (16 KB) so the measurement isolates the pure
  /// instruction overhead of the guards, as the paper's microbenchmark does
  /// (its Fig. 7 overheads track the instruction-count increase).
  std::uint64_t elements = 2048;
  Addr code_base = 0x50'0000;
  Bytes dir_buffer_size = 4096;      ///< programmed but never mapped
};

class Microbenchmark final : public InstrStream {
 public:
  explicit Microbenchmark(MicrobenchConfig cfg);

  std::span<const MicroOp> next_block() override;
  void reset() override;

  const MicrobenchConfig& config() const { return cfg_; }
  /// Dynamic micro-op count of one full run (for overhead accounting).
  std::uint64_t total_uops() const;

 private:
  void emit_iteration(std::uint64_t i);

  MicrobenchConfig cfg_;
  std::uint64_t iter_ = 0;
  bool emitted_config_ = false;
  // ops_[0] is the dir.config; ops_[1..] hold one iteration, built once and
  // patched per iteration: ld, add, st, then the double store's plain twin
  // when the store is guarded, then the back edge.  The current block is
  // ops_[first_, first_ + len_).
  std::array<MicroOp, 6> ops_{};
  MicroOp branch_;  ///< the back edge, copied to the end of each iteration
  std::size_t first_ = 0;
  std::size_t len_ = 0;
};

}  // namespace hm
