// KernelBuilder: the one construction API behind every workload suite.
//
// A workload in this codebase is a LoopNest — arrays laid out in the SM,
// one MemRef per static reference, alias facts and compute intensity —
// wrapped in a Workload with reporting metadata.  KernelBuilder packages
// the moves every kernel needs (aligned SM layout, per-reference seeds,
// ref/alias/compute accumulation) behind a small fluent API, so both the
// NAS-signature kernels (workloads/nas.*) and the irregular suite
// (workloads/irregular.*) are a dozen declarative lines each:
//
//   KernelBuilder b("SPMV");
//   const unsigned val = b.array("val", nnz);
//   const unsigned x   = b.array("x", cols);
//   b.read(val);
//   b.gather(x, /*hot_bytes=*/32 * 1024);
//   b.compute(1, 2).iterations(nnz);
//   Workload w = b.build();
//
// Array bases start at 256 MB and advance in 64 KB steps (>= any LM
// buffer size), so chunk bases stay aligned for every tiling geometry.  Every irregular reference receives a deterministic
// seed: the caller's literal one, or one derived from (kernel name, base
// seed, ref index).  Two builds of the same kernel replay identical address
// streams, and distinct kernels never share a derived stream.
#pragma once

#include <cstdint>
#include <string>

#include "compiler/ir.hpp"

namespace hm {

struct Workload {
  std::string name;
  LoopNest loop;
  /// Reference counts as reported in Table 3's "Guarded References" column
  /// (whole-benchmark statics in the paper; our loop's counts here).
  unsigned reported_guarded = 0;
  unsigned reported_total = 0;
};

/// Scale factor for iteration counts: tests use a small scale, benches the
/// default.  1 => default iteration counts (tens of thousands).
struct WorkloadScale {
  double factor = 1.0;
};

/// SPMD partition of a kernel for the tile-based multicore (strong
/// scaling): tile @p tile of @p n_tiles receives a balanced slice of the
/// iterations (earlier tiles absorb the remainder; slices sum to exactly
/// the original count, so a slice may be empty when tiles outnumber
/// iterations — run nothing on that tile) and a block-distributed private
/// copy of the arrays — every array base is shifted into a tile-private
/// 64 GB region, which keeps chunk bases aligned to any LM buffer size and
/// the tiles' SM footprints disjoint.  Irregular address streams are
/// decorrelated per tile through the codegen global seed, not here.
/// `make_spmd_slice(w, 0, 1)` returns @p w unchanged, so a one-tile
/// "partition" replays the exact single-core address stream.
Workload make_spmd_slice(const Workload& w, unsigned tile, unsigned n_tiles);

class KernelBuilder {
 public:
  /// @p base_seed decorrelates this kernel's irregular streams from other
  /// kernels'; 0 derives it from @p name, so distinct names are enough.
  explicit KernelBuilder(std::string name, std::uint64_t base_seed = 0);

  /// Place an array in the SM (64 KB-aligned base).  Returns the array
  /// index the reference builders below take.
  unsigned array(const std::string& name, std::uint64_t elements, Bytes elem_size = 8);

  /// Strided reference over @p array — the LM-tiling candidate class.
  /// Returns the reference index (for alias()).
  unsigned read(unsigned array, std::int64_t stride = 1);
  unsigned write(unsigned array, std::int64_t stride = 1);

  /// Indirect a[idx[i]]-style access over @p target.  @p hot_bytes
  /// concentrates the element draws on the array's first hot_bytes
  /// (0 = uniform over the array); @p in_chunk is the fraction landing in
  /// the LM-mapped chunk (drives directory hits for guarded refs).  A
  /// non-zero @p seed pins the reference's address stream; 0 derives it.
  unsigned gather(unsigned target, Bytes hot_bytes = 0, double in_chunk = 0.0,
                  std::uint64_t seed = 0);
  unsigned scatter(unsigned target, Bytes hot_bytes = 0, double in_chunk = 0.0);

  /// Pointer-chase reference over @p target.  @p range_known models the
  /// analysis bounding the chain to the target allocation (the chase then
  /// takes the structural alias verdict instead of may-alias-everything).
  /// @p seed as for gather().
  unsigned chase(unsigned target, bool range_known, bool is_write = false,
                 Bytes hot_bytes = 0, double in_chunk = 0.0, std::uint64_t seed = 0);

  KernelBuilder& compute(unsigned int_ops, unsigned fp_ops);
  KernelBuilder& data_branches(double fraction);
  KernelBuilder& iterations(std::uint64_t iters);
  KernelBuilder& alias(unsigned ref_a, unsigned ref_b, AliasVerdict verdict);
  /// Table 3-style metadata; build() defaults total to the ref count.
  KernelBuilder& reported(unsigned guarded, unsigned total = 0);

  /// Iteration-count scaling with the suite-wide floor (1024).
  static std::uint64_t scaled(std::uint64_t base_iters, WorkloadScale scale);

  Workload build() const;

 private:
  unsigned push_ref(MemRef ref, std::uint64_t seed = 0);

  Workload w_;
  std::uint64_t base_seed_ = 0;
  Addr next_base_;
  unsigned reported_guarded_ = 0;
  unsigned reported_total_ = 0;
};

}  // namespace hm
