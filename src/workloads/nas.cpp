#include "workloads/nas.hpp"

#include <string>

namespace hm {

namespace {

/// Add @p n unit-stride arrays of @p elems elements and one strided ref per
/// array; the first @p writes of them are written.
void add_streams(KernelBuilder& b, unsigned n, unsigned writes, std::uint64_t elems,
                 const std::string& prefix) {
  for (unsigned i = 0; i < n; ++i) {
    const unsigned a = b.array(prefix + std::to_string(i), elems);
    if (i < writes) b.write(a); else b.read(a);
  }
}

}  // namespace

Workload make_cg(WorkloadScale scale) {
  // Sparse mat-vec shape: a few streams, an indirect gather over a reused
  // vector, and a pointer access the compiler cannot disambiguate from the
  // streamed vectors (§4.3: "critical path contains a potentially incoherent
  // access with a high degree of reuse").
  const std::uint64_t iters = KernelBuilder::scaled(131'072, scale);
  KernelBuilder b("CG");
  add_streams(b, 5, 1, iters, "cg_s");
  b.gather(b.array("cg_x_data", iters), 16 * 1024, 0.0, 11);
  b.chase(/*target=*/1, /*range_known=*/false, /*is_write=*/false, /*hot=*/16 * 1024,
          /*in_chunk=*/0.15, 12);
  b.compute(2, 4).iterations(iters).reported(1, 7);
  return b.build();
}

Workload make_ep(WorkloadScale scale) {
  // Embarrassingly parallel: heavy per-element computation, tiny memory
  // traffic, one potentially incoherent write (double store fully hidden by
  // the issue width, §4.2).  The paper counts 16 register-resident local
  // variables among its 20 references; they generate no memory traffic.
  const std::uint64_t iters = KernelBuilder::scaled(65'536, scale);
  KernelBuilder b("EP");
  add_streams(b, 3, 1, iters, "ep_s");
  b.chase(0, false, /*is_write=*/true, 16 * 1024, 0.05, 21);
  b.compute(6, 12).iterations(iters).reported(1, 20);
  return b.build();
}

Workload make_ft(WorkloadScale scale) {
  // FFT shape: many concurrent streams (they overflow the prefetcher history
  // tables of the cache-based machine), complex FP work, 2 potentially
  // incoherent reads and 2 writes treated with the double store.
  const std::uint64_t iters = KernelBuilder::scaled(32'768, scale);
  KernelBuilder b("FT");
  add_streams(b, 30, 8, iters, "ft_s");
  b.chase(0, false, false, 8 * 1024, 0.10, 31);
  b.chase(2, false, false, 8 * 1024, 0.10, 32);
  b.chase(1, false, true, 8 * 1024, 0.05, 33);
  b.chase(3, false, true, 8 * 1024, 0.05, 34);
  b.compute(2, 10).iterations(iters).reported(4, 34);
  return b.build();
}

Workload make_is(WorkloadScale scale) {
  // Integer sort shape: trivial integer computation, data-dependent
  // branches, and the double store on 2 of its 5 references — the paper's
  // worst case for protocol overhead (§4.2: IS pays ~5% energy).
  const std::uint64_t iters = KernelBuilder::scaled(131'072, scale);
  KernelBuilder b("IS");
  add_streams(b, 4, 2, iters, "is_s");
  b.gather(b.array("is_keys_data", iters), 14 * 1024, 0.0, 41);
  b.gather(b.array("is_rank_data", iters), 14 * 1024, 0.0, 44);
  b.chase(0, false, true, 16 * 1024, 0.30, 42);
  b.chase(1, false, true, 16 * 1024, 0.30, 43);
  b.compute(3, 0).data_branches(0.4).iterations(iters).reported(2, 5);
  return b.build();
}

Workload make_mg(WorkloadScale scale) {
  // Multigrid shape: massive regular traffic plus one reused potentially
  // incoherent read.  The stream count stresses both the prefetcher tables
  // (cache-based) and the LM buffer partitioning (hybrid).
  const std::uint64_t iters = KernelBuilder::scaled(32'768, scale);
  KernelBuilder b("MG");
  add_streams(b, 30, 6, iters, "mg_s");
  b.chase(0, false, false, 16 * 1024, 0.20, 51);
  b.compute(2, 6).iterations(iters).reported(1, 60);
  return b.build();
}

Workload make_sp(WorkloadScale scale) {
  // Scalar pentadiagonal shape: the most regular of the six — only strided
  // and provably-irregular references, so no guards at all (Table 3: SP row
  // has zero guarded references and zero directory accesses).
  const std::uint64_t iters = KernelBuilder::scaled(32'768, scale);
  KernelBuilder b("SP");
  add_streams(b, 32, 8, iters, "sp_s");
  b.gather(b.array("sp_i0_data", iters), 16 * 1024, 0.0, 61);
  b.gather(b.array("sp_i1_data", iters), 16 * 1024, 0.0, 62);
  b.compute(2, 8).iterations(iters).reported(0, 497);
  return b.build();
}

std::vector<Workload> all_nas_workloads(WorkloadScale scale) {
  return {make_cg(scale), make_ep(scale), make_ft(scale),
          make_is(scale), make_mg(scale), make_sp(scale)};
}

}  // namespace hm
