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
//
// Each kernel is built with KernelBuilder (workloads/kernel_builder.hpp),
// which also defines Workload, WorkloadScale and make_spmd_slice; every
// irregular reference carries a literal seed, so the address streams are
// fixed by this file alone.
#pragma once

#include <vector>

#include "workloads/kernel_builder.hpp"

namespace hm {

Workload make_cg(WorkloadScale scale = {});
Workload make_ep(WorkloadScale scale = {});
Workload make_ft(WorkloadScale scale = {});
Workload make_is(WorkloadScale scale = {});
Workload make_mg(WorkloadScale scale = {});
Workload make_sp(WorkloadScale scale = {});

/// All six, in the paper's order.
std::vector<Workload> all_nas_workloads(WorkloadScale scale = {});

}  // namespace hm
