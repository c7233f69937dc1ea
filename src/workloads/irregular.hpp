// The irregular-workload suite: six kernels with the access patterns the
// NAS-signature set does not cover — the patterns caches serve poorly and
// the hybrid hierarchy's classification has to route correctly:
//
//   SPMV    — CSR sparse mat-vec: val/col/y streams on the LM path, the
//             x gather (a[col[k]]) data-dependent on the cache path;
//   STENCIL — 5-point stencil: five strided reads over three row streams
//             (plus a coefficient gather), the all-regular contrast point;
//   PCHASE  — linked traversal: a bounded pointer chase over a dedicated
//             node pool (range-known => cache path, unguarded) plus an
//             unbounded chased update that must be guarded;
//   HIST    — histogram/scatter: read-modify-write of a bin array through
//             data-dependent indices, all on the cache path;
//   TRIAD   — STREAM triad a[i] = b[i] + s*c[i]: the pure-bandwidth
//             baseline, three streams and nothing else;
//   RADIX   — one radix-partition pass: stride-1 key/output streams (LM),
//             a stride-2 count walk the tiling geometry cannot host
//             (demoted to the caches), and an in-place scatter that may
//             alias the mapped key stream (guarded + double store).
//
// Each kernel is parameterized by footprint (array sizes / iteration
// count), sparsity (how dispersed the data-dependent accesses are) and
// stride (the strided-leg advance), with all irregular address streams
// deterministically seed-derived per (kernel, reference) — two builds
// replay byte-identical streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/kernel_builder.hpp"

namespace hm {

/// Suite-wide kernel knobs.  WorkloadScale stays the cross-suite iteration
/// scaling; these shape the kernel itself.
struct IrregularParams {
  /// Multiplies the base footprint (array element counts and iterations).
  double footprint = 1.0;
  /// Dispersal of the data-dependent accesses: 0 = fully reused hot set,
  /// 1 = uniform over the whole target array.  Maps to IrregularSpec::
  /// hot_bytes = array_bytes * sparsity, floored at 4 KB.
  double sparsity = 0.5;
  /// Elements the strided legs advance per iteration (power of two so the
  /// chunk geometry stays buffer-aligned).  Stencil only; the other
  /// kernels fix their strides structurally.
  std::int64_t stride = 1;
};

Workload make_spmv(WorkloadScale scale = {}, const IrregularParams& p = {});
Workload make_stencil(WorkloadScale scale = {}, const IrregularParams& p = {});
Workload make_pchase(WorkloadScale scale = {}, const IrregularParams& p = {});
Workload make_hist(WorkloadScale scale = {}, const IrregularParams& p = {});
Workload make_triad(WorkloadScale scale = {}, const IrregularParams& p = {});
Workload make_radix(WorkloadScale scale = {}, const IrregularParams& p = {});

/// Registry names, in suite order: SPMV, STENCIL, PCHASE, HIST, TRIAD, RADIX.
const std::vector<std::string>& irregular_names();

/// All six with default parameters, in suite order.
std::vector<Workload> all_irregular_workloads(WorkloadScale scale = {});

}  // namespace hm
