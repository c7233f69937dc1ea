// NAS-like kernel builders (§4.1: CG, EP, FT, IS, MG, SP).
//
// We cannot ship the NAS sources; instead each builder synthesizes a loop
// nest with the *memory behaviour signature* the paper reports for that
// benchmark (Table 3 and §4.2/§4.3):
//
//   CG — few streams, an irregular read with a hot working set, and one
//        potentially incoherent read with high reuse on its critical path;
//   EP — compute-bound, tiny memory traffic, one potentially incoherent
//        write needing the double store (overhead fully hidden by issue
//        width);
//   FT — many streams (30), complex FP computation, 2 potentially
//        incoherent reads + 2 writes treated with the double store;
//   IS — very simple integer computation, data-dependent branches, the
//        double store used in 2 of 5 references (the worst-case overhead);
//   MG — massive regular traffic (many streams) with one reused
//        potentially incoherent read;
//   SP — the most regular code: only strided and irregular references, no
//        guards at all.
//
// The per-benchmark reference counts are scaled to a single representative
// loop (the paper's counts span whole benchmarks); the ratios — guarded
// fraction, streams vs irregular, compute intensity — are the reproduction
// target (docs/EXPERIMENTS.md "Workloads").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

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

Workload make_cg(WorkloadScale scale = {});
Workload make_ep(WorkloadScale scale = {});
Workload make_ft(WorkloadScale scale = {});
Workload make_is(WorkloadScale scale = {});
Workload make_mg(WorkloadScale scale = {});
Workload make_sp(WorkloadScale scale = {});

/// All six, in the paper's order.
std::vector<Workload> all_nas_workloads(WorkloadScale scale = {});

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

}  // namespace hm
