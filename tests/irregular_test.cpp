// The irregular-workload suite: KernelBuilder construction invariants,
// per-kernel classification routing (the hybrid path decisions the suite
// exists to exercise), parameter knobs, and — the regression anchor —
// repeated-run byte identity of every kernel's full RunReport.
#include <gtest/gtest.h>

#include <set>

#include "compiler/classify.hpp"
#include "driver/sweep.hpp"
#include "sim/report.hpp"
#include "workloads/irregular.hpp"
#include "workloads/kernel_builder.hpp"

namespace hm {
namespace {

// ------------------------------------------------------------ builder ----

TEST(KernelBuilder, LaysOutAlignedDisjointArrays) {
  KernelBuilder b("t");
  const unsigned a0 = b.array("a", 100'000);
  const unsigned a1 = b.array("b", 7);
  const unsigned a2 = b.array("c", 8192);
  b.read(a0);
  b.iterations(2048);
  const Workload w = b.build();
  ASSERT_EQ(w.loop.arrays.size(), 3u);
  std::uint64_t prev_end = 0;
  for (const ArrayDecl& arr : w.loop.arrays) {
    EXPECT_EQ(arr.base % (64 * 1024), 0u) << arr.name << " base not 64 KB-aligned";
    EXPECT_GE(arr.base, prev_end) << arr.name << " overlaps its predecessor";
    prev_end = arr.end();
  }
  EXPECT_EQ(a0, 0u);
  EXPECT_EQ(a1, 1u);
  EXPECT_EQ(a2, 2u);
}

TEST(KernelBuilder, DerivesDistinctDeterministicSeeds) {
  const auto build = [] {
    KernelBuilder b("seeds");
    const unsigned a = b.array("a", 4096);
    b.gather(a, 4096);
    b.scatter(a, 4096);
    b.chase(a, /*range_known=*/false);
    b.iterations(2048);
    return b.build();
  };
  const Workload w1 = build();
  const Workload w2 = build();
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < w1.loop.refs.size(); ++i) {
    EXPECT_EQ(w1.loop.refs[i].irregular.seed, w2.loop.refs[i].irregular.seed)
        << "seed not deterministic for ref " << i;
    seeds.insert(w1.loop.refs[i].irregular.seed);
  }
  EXPECT_EQ(seeds.size(), w1.loop.refs.size()) << "per-ref seeds collide";

  // A different kernel name decorrelates every stream.
  KernelBuilder other("other");
  const unsigned a = other.array("a", 4096);
  other.gather(a, 4096);
  other.iterations(2048);
  EXPECT_NE(other.build().loop.refs[0].irregular.seed, w1.loop.refs[0].irregular.seed);
}

TEST(KernelBuilder, BuildValidatesTheLoop) {
  KernelBuilder no_iters("bad");
  const unsigned a = no_iters.array("a", 128);
  no_iters.read(a);
  EXPECT_THROW(no_iters.build(), std::invalid_argument);  // zero iterations

  KernelBuilder no_refs("empty");
  no_refs.array("a", 128);
  no_refs.iterations(1024);
  EXPECT_THROW(no_refs.build(), std::invalid_argument);  // no references

  KernelBuilder b("oob");
  b.array("a", 128);
  EXPECT_THROW(b.read(7), std::invalid_argument);  // unknown array
}

TEST(KernelBuilder, ReportedDefaultsToRefCount) {
  KernelBuilder b("rep");
  const unsigned a = b.array("a", 4096);
  b.read(a);
  b.gather(a, 0);
  b.iterations(1024);
  EXPECT_EQ(b.build().reported_total, 2u);
  b.reported(1, 10);
  const Workload w = b.build();
  EXPECT_EQ(w.reported_guarded, 1u);
  EXPECT_EQ(w.reported_total, 10u);
}

// ----------------------------------------------------- suite structure ----

Classification classify_kernel(const Workload& w) {
  AliasOracle oracle(w.loop);
  return classify(w.loop, oracle);
}

TEST(IrregularSuite, SpmvRoutesStreamsToLmAndGatherToCaches) {
  const Classification c = classify_kernel(make_spmv({.factor = 0.05}));
  EXPECT_EQ(c.num_regular, 3u);      // val, col, y
  EXPECT_EQ(c.num_irregular, 1u);    // the x gather: distinct array, no alias
  EXPECT_EQ(c.guarded_refs(), 0u);
  EXPECT_EQ(c.demoted_stride, 0u);
}

TEST(IrregularSuite, StencilIsFullyTiledPlusCoefficientGather) {
  const Classification c = classify_kernel(make_stencil({.factor = 0.05}));
  EXPECT_EQ(c.num_regular, 5u);      // north, 2x center, south, out
  EXPECT_EQ(c.num_irregular, 1u);    // coef gather
  EXPECT_EQ(c.guarded_refs(), 0u);
}

TEST(IrregularSuite, PchaseSplitsBoundedAndUnboundedChases) {
  const Workload w = make_pchase({.factor = 0.05});
  const Classification c = classify_kernel(w);
  EXPECT_EQ(c.num_regular, 2u);    // work, out
  EXPECT_EQ(c.num_irregular, 1u);  // the bounded pool chase: cache path
  EXPECT_EQ(c.guarded_refs(), 1u); // the unbounded chased update
  // The guarded ref is the chase over `out` and needs the double store.
  for (std::size_t i = 0; i < w.loop.refs.size(); ++i) {
    if (c.refs[i].cls != RefClass::PotentiallyIncoherent) continue;
    EXPECT_EQ(w.loop.refs[i].pattern, PatternKind::PointerChase);
    EXPECT_FALSE(w.loop.refs[i].range_known);
    EXPECT_TRUE(c.refs[i].needs_double_store);
  }
}

TEST(IrregularSuite, HistKeepsBinsOnTheCachePathUnguarded) {
  const Classification c = classify_kernel(make_hist({.factor = 0.05}));
  EXPECT_EQ(c.num_regular, 1u);      // keys
  EXPECT_EQ(c.num_irregular, 2u);    // bin gather + scatter: no alias hazard
  EXPECT_EQ(c.guarded_refs(), 0u);
}

TEST(IrregularSuite, TriadIsPureStreams) {
  const Classification c = classify_kernel(make_triad({.factor = 0.05}));
  EXPECT_EQ(c.num_regular, 3u);
  EXPECT_EQ(c.num_irregular, 0u);
  EXPECT_EQ(c.guarded_refs(), 0u);
}

TEST(IrregularSuite, RadixDemotesCountWalkAndGuardsInPlaceScatter) {
  const Workload w = make_radix({.factor = 0.05});
  const Classification c = classify_kernel(w);
  EXPECT_EQ(c.num_regular, 2u);       // keys, out
  EXPECT_EQ(c.demoted_stride, 1u);    // the stride-2 count walk
  EXPECT_EQ(c.guarded_refs(), 1u);    // the in-place scatter
  for (std::size_t i = 0; i < w.loop.refs.size(); ++i) {
    if (c.refs[i].cls != RefClass::PotentiallyIncoherent) continue;
    // Scatter into the mapped read-only key stream => double store.
    EXPECT_TRUE(w.loop.refs[i].is_write);
    EXPECT_TRUE(c.refs[i].needs_double_store);
  }
}

TEST(IrregularSuite, ParamsShapeTheKernels) {
  // footprint scales iterations (and the arrays with them).
  EXPECT_GT(make_spmv({.factor = 0.1}, {.footprint = 2.0}).loop.iterations,
            make_spmv({.factor = 0.1}, {.footprint = 1.0}).loop.iterations);
  // sparsity disperses the gather: larger sparsity, wider draw range.
  const auto hot = [](const Workload& w) {
    for (const MemRef& r : w.loop.refs)
      if (r.pattern == PatternKind::Indirect) return r.irregular.hot_bytes;
    return Bytes{0};
  };
  EXPECT_GT(hot(make_spmv({.factor = 0.1}, {.sparsity = 0.9})),
            hot(make_spmv({.factor = 0.1}, {.sparsity = 0.1})));
  // stride drives every strided leg of the stencil.
  const Workload strided = make_stencil({.factor = 0.1}, {.stride = 4});
  for (const MemRef& r : strided.loop.refs) {
    if (r.pattern == PatternKind::Strided) {
      EXPECT_EQ(r.stride, 4);
    }
  }
}

// ------------------------------------------------- determinism anchors ----

using driver::SweepPoint;
using driver::run_point;

std::string report_text(const char* kernel, const char* machine, const char* cores) {
  SweepPoint p;
  p.label = std::string(kernel) + "/" + machine + "/c" + cores;
  p.machine = machine;
  p.workload = kernel;
  p.scale = 0.02;
  if (std::string(cores) != "1") p.knobs["cores"] = cores;
  const driver::PointResult r = run_point(p);
  EXPECT_TRUE(r.ok) << p.label << ": " << r.error;
  EXPECT_EQ(r.report.contention_overflows(), 0u) << p.label;
  std::string text;
  append_report_fields(text, r.report);
  return text;
}

class IrregularKernel : public ::testing::TestWithParam<const char*> {};

TEST_P(IrregularKernel, RepeatedRunsAreByteIdentical) {
  for (const char* machine : {"hybrid_coherent", "cache_based"}) {
    const std::string first = report_text(GetParam(), machine, "1");
    const std::string second = report_text(GetParam(), machine, "1");
    EXPECT_EQ(first, second) << GetParam() << " on " << machine
                             << " is not run-to-run deterministic";
  }
}

TEST_P(IrregularKernel, FourCoreSpmdRunsCleanAndDeterministic) {
  const std::string first = report_text(GetParam(), "hybrid_coherent", "4");
  const std::string second = report_text(GetParam(), "hybrid_coherent", "4");
  EXPECT_EQ(first, second) << GetParam() << " 4-core run not deterministic";
}

INSTANTIATE_TEST_SUITE_P(AllSix, IrregularKernel,
                         ::testing::Values("SPMV", "STENCIL", "PCHASE", "HIST",
                                           "TRIAD", "RADIX"));

}  // namespace
}  // namespace hm
