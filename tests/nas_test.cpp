// Tests for the NAS-like workload builders: each kernel must have the
// reference signature the paper reports and must compile cleanly through the
// three compiler phases.
#include <gtest/gtest.h>

#include "compiler/codegen.hpp"
#include "workloads/nas.hpp"

namespace hm {
namespace {

constexpr Addr kLmBase = 0x7F80'0000'0000ull;
constexpr Bytes kLmSize = 32 * 1024;

Classification classify_workload(const Workload& w) {
  AliasOracle oracle(w.loop);
  return classify(w.loop, oracle);
}

TEST(NasWorkloads, AllSixPresent) {
  const auto all = all_nas_workloads();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].name, "CG");
  EXPECT_EQ(all[0].loop.name, "CG");
  EXPECT_EQ(all[1].loop.name, "EP");
  EXPECT_EQ(all[2].loop.name, "FT");
  EXPECT_EQ(all[3].loop.name, "IS");
  EXPECT_EQ(all[4].loop.name, "MG");
  EXPECT_EQ(all[5].loop.name, "SP");
}

TEST(NasWorkloads, CgSignature) {
  const Workload w = make_cg();
  const Classification c = classify_workload(w);
  EXPECT_EQ(c.num_regular, 5u);
  EXPECT_EQ(c.num_irregular, 1u);
  EXPECT_EQ(c.num_potentially_incoherent, 1u);  // Table 3: 1 guarded ref
  // The PI reference is a read (no double store anywhere in CG).
  for (unsigned i = 0; i < w.loop.refs.size(); ++i) {
    if (c.refs[i].cls == RefClass::PotentiallyIncoherent) {
      EXPECT_FALSE(c.refs[i].needs_double_store);
    }
  }
}

TEST(NasWorkloads, EpSignature) {
  const Workload w = make_ep();
  const Classification c = classify_workload(w);
  EXPECT_EQ(c.num_regular, 3u);                  // "3 strided references"
  EXPECT_EQ(c.num_potentially_incoherent, 1u);   // "1 potentially incoherent write"
  bool has_double = false;
  for (const auto& r : c.refs) has_double |= r.needs_double_store;
  EXPECT_TRUE(has_double);                       // "the double store is used"
}

TEST(NasWorkloads, FtSignature) {
  const Workload w = make_ft();
  const Classification c = classify_workload(w);
  EXPECT_EQ(c.num_regular, 30u);
  EXPECT_EQ(c.num_potentially_incoherent, 4u);   // 2 reads + 2 writes
  unsigned double_stores = 0, pi_reads = 0;
  for (unsigned i = 0; i < w.loop.refs.size(); ++i) {
    if (c.refs[i].cls != RefClass::PotentiallyIncoherent) continue;
    if (w.loop.refs[i].is_write) double_stores += c.refs[i].needs_double_store ? 1 : 0;
    else ++pi_reads;
  }
  EXPECT_EQ(pi_reads, 2u);
  EXPECT_EQ(double_stores, 2u);                  // "treated with a double store"
  EXPECT_GT(w.loop.fp_ops_per_iter, 8u);         // "complex operations on FP data"
}

TEST(NasWorkloads, IsSignature) {
  const Workload w = make_is();
  const Classification c = classify_workload(w);
  EXPECT_EQ(c.num_potentially_incoherent, 2u);   // "2 out of 5 references"
  unsigned double_stores = 0;
  for (const auto& r : c.refs) double_stores += r.needs_double_store ? 1 : 0;
  EXPECT_EQ(double_stores, 2u);
  EXPECT_EQ(w.loop.fp_ops_per_iter, 0u);         // "very simple computation"
  EXPECT_GT(w.loop.data_branch_fraction, 0.0);
}

TEST(NasWorkloads, MgSignature) {
  const Workload w = make_mg();
  const Classification c = classify_workload(w);
  EXPECT_EQ(c.num_regular, 30u);
  EXPECT_EQ(c.num_potentially_incoherent, 1u);
}

TEST(NasWorkloads, SpHasNoGuardedRefs) {
  const Workload w = make_sp();
  const Classification c = classify_workload(w);
  EXPECT_EQ(c.num_potentially_incoherent, 0u);   // Table 3: SP 0 guarded
  EXPECT_EQ(c.num_regular, 32u);
  EXPECT_EQ(w.reported_guarded, 0u);
}

TEST(NasWorkloads, AllCompileInAllVariants) {
  for (const Workload& w : all_nas_workloads({.factor = 0.05})) {
    for (CodegenVariant v : {CodegenVariant::HybridProtocol, CodegenVariant::HybridOracle,
                             CodegenVariant::CacheOnly}) {
      CompiledKernel k = compile(w.loop, {.variant = v}, kLmBase, kLmSize);
      MicroOp op;
      std::uint64_t n = 0;
      while (k.next(op) && n < 100'000) ++n;
      EXPECT_GT(n, 0u) << w.loop.name;
    }
  }
}

TEST(NasWorkloads, ScaleFactorShrinksIterations) {
  const Workload full = make_cg({.factor = 1.0});
  const Workload tiny = make_cg({.factor = 0.1});
  EXPECT_LT(tiny.loop.iterations, full.loop.iterations);
  EXPECT_GE(tiny.loop.iterations, 1024u);  // floor
}

TEST(NasWorkloads, ArraysAlignedForAnyBufferSize) {
  for (const Workload& w : all_nas_workloads()) {
    for (const ArrayDecl& a : w.loop.arrays)
      EXPECT_EQ(a.base % (64 * 1024), 0u) << w.loop.name << "/" << a.name;
  }
}

TEST(NasWorkloads, ValidIr) {
  for (const Workload& w : all_nas_workloads()) EXPECT_NO_THROW(w.loop.validate());
}

TEST(NasWorkloads, ReportedRatiosMatchPaper) {
  // Table 3's guarded-reference column.
  EXPECT_EQ(make_cg().reported_guarded, 1u);
  EXPECT_EQ(make_cg().reported_total, 7u);
  EXPECT_EQ(make_ep().reported_total, 20u);
  EXPECT_EQ(make_ft().reported_guarded, 4u);
  EXPECT_EQ(make_is().reported_guarded, 2u);
  EXPECT_EQ(make_is().reported_total, 5u);
  EXPECT_EQ(make_mg().reported_total, 60u);
  EXPECT_EQ(make_sp().reported_guarded, 0u);
}

}  // namespace
}  // namespace hm
