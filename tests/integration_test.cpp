// End-to-end integration tests: whole kernels through the three compiler
// phases and the full simulated system, checking the coherence protocol's
// functional correctness and the headline performance relationships.
#include <gtest/gtest.h>

#include "compiler/codegen.hpp"
#include "sim/system.hpp"
#include "workloads/nas.hpp"

namespace hm {
namespace {

constexpr Addr kLmBase = 0x7F80'0000'0000ull;
constexpr Bytes kLmSize = 32 * 1024;

/// A small Fig. 3-style loop with a potentially incoherent write aliasing a
/// mapped array.  With @p target_readonly the pointer targets the read-only
/// array a (the exact case the double store exists for, §3.1); otherwise it
/// targets the written-back array b (where dropping the guard loses updates
/// to the write-back).
LoopNest aliasing_loop(bool target_readonly = true, std::uint64_t iters = 8192) {
  LoopNest loop;
  loop.name = "aliasing";
  loop.arrays = {
      {.name = "a", .base = 0x100'0000, .elem_size = 8, .elements = iters},  // read-only
      {.name = "b", .base = 0x200'0000, .elem_size = 8, .elements = iters},  // written
  };
  loop.refs = {
      {.name = "a[i]", .array = 0, .pattern = PatternKind::Strided, .stride = 1},
      {.name = "b[i]", .array = 1, .pattern = PatternKind::Strided, .stride = 1,
       .is_write = true},
      {.name = "ptr", .array = target_readonly ? 0u : 1u,
       .pattern = PatternKind::PointerChase, .is_write = true,
       .irregular = {.in_chunk_fraction = 0.6, .seed = 9}},
  };
  loop.iterations = iters;
  loop.int_ops_per_iter = 1;
  return loop;
}

/// Final SM contents of every array after running @p variant.
std::vector<std::uint64_t> final_sm_image(System& sys, const LoopNest& loop,
                                          CodegenVariant variant, bool drop_guards = false,
                                          bool suppress_double_store = false) {
  CompiledKernel k = compile(loop, {.variant = variant, .functional_stores = true,
                                    .drop_guards = drop_guards,
                                    .suppress_double_store = suppress_double_store},
                             kLmBase, kLmSize);
  sys.clear_image();
  sys.run(k);
  std::vector<std::uint64_t> out;
  for (const ArrayDecl& arr : loop.arrays)
    for (std::uint64_t e = 0; e < arr.elements; ++e)
      out.push_back(sys.image().load64(arr.base + e * arr.elem_size));
  return out;
}

TEST(Integration, ProtocolMatchesCacheOnlyFinalState) {
  // The coherent hybrid machine and the plain cache machine must leave the
  // identical final memory image: the protocol is functionally transparent —
  // for pointers aliasing both read-only and written-back buffers.
  for (bool target_readonly : {true, false}) {
    const LoopNest loop = aliasing_loop(target_readonly);
    System hybrid(MachineConfig::hybrid_coherent());
    System cache(MachineConfig::cache_based());
    const auto img_h = final_sm_image(hybrid, loop, CodegenVariant::HybridProtocol);
    const auto img_c = final_sm_image(cache, loop, CodegenVariant::CacheOnly);
    ASSERT_EQ(img_h.size(), img_c.size());
    EXPECT_EQ(img_h, img_c) << "target_readonly=" << target_readonly;
  }
}

TEST(Integration, DroppingGuardsCorruptsMemory) {
  // The negative control: the same kernel with guards suppressed (an
  // incoherent hybrid machine with a naive compiler) diverges from the
  // reference — the incoherence the paper's §2.3 describes is real in our
  // model, and the protocol is what fixes it.  The pointer targets the
  // written-back array: its unguarded SM stores are clobbered by dma-puts.
  const LoopNest loop = aliasing_loop(/*target_readonly=*/false);
  System cache(MachineConfig::cache_based());
  const auto img_ref = final_sm_image(cache, loop, CodegenVariant::CacheOnly);
  System broken(MachineConfig::hybrid_coherent());
  const auto img_broken =
      final_sm_image(broken, loop, CodegenVariant::HybridProtocol, /*drop_guards=*/true);
  EXPECT_NE(img_ref, img_broken);
}

TEST(Integration, SingleGuardedStoreLosesUpdatesOnReadOnlyBuffers) {
  // §3.1's motivation for the double store: a guarded store that hits a
  // read-only buffer writes the LM copy, the buffer is never written back,
  // and the dma-get reusing the buffer discards the modification.
  const LoopNest loop = aliasing_loop(/*target_readonly=*/true);
  System cache(MachineConfig::cache_based());
  const auto img_ref = final_sm_image(cache, loop, CodegenVariant::CacheOnly);
  System broken(MachineConfig::hybrid_coherent());
  const auto img_broken = final_sm_image(broken, loop, CodegenVariant::HybridProtocol,
                                         /*drop_guards=*/false,
                                         /*suppress_double_store=*/true);
  EXPECT_NE(img_ref, img_broken);
}

TEST(Integration, OracleMatchesProtocolFinalState) {
  const LoopNest loop = aliasing_loop();
  System a(MachineConfig::hybrid_coherent());
  System b(MachineConfig::hybrid_oracle());
  EXPECT_EQ(final_sm_image(a, loop, CodegenVariant::HybridProtocol),
            final_sm_image(b, loop, CodegenVariant::HybridOracle));
}

TEST(Integration, NoValueMismatchesInProtocolRun) {
  const LoopNest loop = aliasing_loop();
  System sys(MachineConfig::hybrid_coherent());
  CompiledKernel k = compile(loop, {.variant = CodegenVariant::HybridProtocol,
                                    .functional_stores = true},
                             kLmBase, kLmSize);
  const RunReport r = sys.run(k);
  EXPECT_EQ(r.core.value_mismatches, 0u);
}

TEST(Integration, DisableReadonlyOptAlsoCorrect) {
  // The ablation alternative to the double store (§3.1's "naive solution"):
  // always write back.  Slower, but equally correct.
  const LoopNest loop = aliasing_loop();
  System cache(MachineConfig::cache_based());
  const auto ref = final_sm_image(cache, loop, CodegenVariant::CacheOnly);

  System sys(MachineConfig::hybrid_coherent());
  CompiledKernel k = compile(loop, {.variant = CodegenVariant::HybridProtocol,
                                    .disable_readonly_opt = true,
                                    .functional_stores = true},
                             kLmBase, kLmSize);
  sys.clear_image();
  sys.run(k);
  std::vector<std::uint64_t> img;
  for (const ArrayDecl& arr : loop.arrays)
    for (std::uint64_t e = 0; e < arr.elements; ++e)
      img.push_back(sys.image().load64(arr.base + e * arr.elem_size));
  EXPECT_EQ(img, ref);
}

TEST(Integration, GuardedAccessesHitDirectoryForMappedChunks) {
  const LoopNest loop = aliasing_loop();
  System sys(MachineConfig::hybrid_coherent());
  CompiledKernel k = compile(loop, {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  sys.run(k);
  const auto& dir = sys.directory()->stats();
  EXPECT_GT(dir.lookups, 0u);
  EXPECT_GT(dir.hits, 0u);    // in_chunk_fraction > 0
  EXPECT_GT(dir.misses, 0u);  // and < 1
}

TEST(Integration, HybridUsesLmForRegularRefs) {
  const LoopNest loop = aliasing_loop();
  System sys(MachineConfig::hybrid_coherent());
  CompiledKernel k = compile(loop, {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  const RunReport r = sys.run(k);
  // Two regular refs * 8192 iterations served by the LM, plus guarded hits.
  EXPECT_GE(r.lm_accesses, 2u * 8192u);
}

TEST(Integration, ProtocolOverheadVsOracleIsSmall) {
  // Fig. 8's claim: the protocol costs almost nothing next to an oracle
  // compiler on the same hardware.  Realistic potentially-incoherent
  // accesses rarely land in the mapped chunk (the conservatism is in the
  // *analysis*, not the runtime behaviour), so the double store's twin
  // almost always collapses in the LSQ.
  LoopNest loop = aliasing_loop(/*target_readonly=*/true, 16'384);
  loop.refs[2].irregular.in_chunk_fraction = 0.05;
  System hybrid(MachineConfig::hybrid_coherent());
  System oracle(MachineConfig::hybrid_oracle());
  CompiledKernel kh = compile(loop, {.variant = CodegenVariant::HybridProtocol},
                              kLmBase, kLmSize);
  CompiledKernel ko = compile(loop, {.variant = CodegenVariant::HybridOracle},
                              kLmBase, kLmSize);
  const double t_h = static_cast<double>(hybrid.run(kh).cycles());
  const double t_o = static_cast<double>(oracle.run(ko).cycles());
  EXPECT_LT(t_h / t_o, 1.15);  // small even with a double store every iter
  EXPECT_GE(t_h / t_o, 0.99);  // and never faster than the oracle
}

TEST(Integration, CgHybridBeatsCacheBased) {
  // The headline §4.3 relationship on one kernel (full sweep in bench/).
  const Workload w = make_cg({.factor = 0.25});
  System hybrid(MachineConfig::hybrid_coherent());
  System cache(MachineConfig::cache_based());
  CompiledKernel kh = compile(w.loop, {.variant = CodegenVariant::HybridProtocol},
                              kLmBase, kLmSize);
  CompiledKernel kc = compile(w.loop, {.variant = CodegenVariant::CacheOnly},
                              kLmBase, kLmSize);
  const RunReport rh = hybrid.run(kh);
  const RunReport rc = cache.run(kc);
  EXPECT_LT(rh.cycles(), rc.cycles());
  EXPECT_LT(rh.amat, rc.amat);
  EXPECT_GT(rh.l1_hit_ratio, rc.l1_hit_ratio);
}

TEST(Integration, PhaseBreakdownOnlyOnHybrid) {
  const Workload w = make_cg({.factor = 0.05});
  System hybrid(MachineConfig::hybrid_coherent());
  System cache(MachineConfig::cache_based());
  CompiledKernel kh = compile(w.loop, {.variant = CodegenVariant::HybridProtocol},
                              kLmBase, kLmSize);
  CompiledKernel kc = compile(w.loop, {.variant = CodegenVariant::CacheOnly},
                              kLmBase, kLmSize);
  const RunReport rh = hybrid.run(kh);
  const RunReport rc = cache.run(kc);
  EXPECT_GT(rh.core.phase_cycles[static_cast<unsigned>(ExecPhase::Control)], 0u);
  EXPECT_GT(rh.core.phase_cycles[static_cast<unsigned>(ExecPhase::Synch)], 0u);
  EXPECT_EQ(rc.core.phase_cycles[static_cast<unsigned>(ExecPhase::Control)], 0u);
  EXPECT_EQ(rc.core.phase_cycles[static_cast<unsigned>(ExecPhase::Synch)], 0u);
}

TEST(Integration, SpRunsWithZeroDirectoryActivity) {
  // Table 3: SP has no guarded references — the directory sits idle apart
  // from dma-get updates, and with no PI refs there are zero lookups.
  const Workload w = make_sp({.factor = 0.05});
  System sys(MachineConfig::hybrid_coherent());
  CompiledKernel k = compile(w.loop, {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  sys.run(k);
  EXPECT_EQ(sys.directory()->stats().lookups, 0u);
}

TEST(Integration, DeterministicRuns) {
  const Workload w = make_is({.factor = 0.05});
  System sys(MachineConfig::hybrid_coherent());
  CompiledKernel k = compile(w.loop, {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  const RunReport r1 = sys.run(k);
  const RunReport r2 = sys.run(k);
  EXPECT_EQ(r1.cycles(), r2.cycles());
  EXPECT_EQ(r1.activity.dir_lookups, r2.activity.dir_lookups);
  EXPECT_DOUBLE_EQ(r1.total_energy(), r2.total_energy());
}

}  // namespace
}  // namespace hm
