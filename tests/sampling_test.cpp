// Sampled simulation (PR 9): functional fast-forward correctness and the
// sampling controller's contracts (sim/system.hpp, core/replay.hpp).
//
//  * State equivalence — the functional executor must leave the cache tag
//    arrays (addresses, dirty bits, per-set recency order), the directory
//    mapping and the functional memory image in EXACTLY the state detailed
//    execution produces, for every machine and workload, with every store
//    writing its value.  This is the property that lets a fast-forwarded
//    run resume detailed simulation mid-stream without drift, and it is
//    engine-budget independent.
//  * Error-bound honesty — a sampled run's cycle estimate must deviate
//    from the full-detailed run by no more than its self-reported
//    RunReport::sample_error.
//  * Sampling off is byte-identical to the serial reference engine; the
//    golden suite pins the same bytes independently.
//  * Sampled results are estimates: they must be gated out of the memo /
//    session caches and the journal, exactly like finite-quantum results.
//  * Sampling is a single-tile mode: a multi-tile point fails as a config
//    error, and the quantum does not change a single-tile sampled point.
//  * Sampled runs are deterministic across sweep --jobs.
//  * MemoCache counts stale-engine-version entries separately from
//    corruption, and the sweep summary surfaces them.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "compiler/codegen.hpp"
#include "driver/registry.hpp"
#include "driver/result.hpp"
#include "driver/sweep.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"

namespace {

using namespace hm;
using namespace hm::driver;

constexpr const char* kAllWorkloads[] = {"CG", "EP",     "FT",     "IS",
                                         "MG", "SP",     "SPMV",   "STENCIL",
                                         "PCHASE", "HIST", "TRIAD", "RADIX"};

EngineConfig sampled(std::uint64_t warmup = 2000, std::uint64_t detail = 10000,
                     std::uint64_t ff = 500000) {
  EngineConfig e;
  e.sampling.mode = SamplingConfig::Mode::Interval;
  e.sampling.warmup_uops = warmup;
  e.sampling.detail_uops = detail;
  e.sampling.ff_uops = ff;
  return e;
}

SweepPoint make_point(const std::string& workload, double scale,
                      const std::string& machine = "hybrid_coherent") {
  SweepPoint p;
  p.label = "sampling/" + workload + "/" + machine;
  p.machine = machine;
  p.workload = workload;
  p.scale = scale;
  return p;
}

std::string report_text(const PointResult& r) {
  EXPECT_TRUE(r.ok) << r.point.label << ": " << r.error;
  std::string text;
  append_report_fields(text, r.report);
  return text;
}

// --- state equivalence -----------------------------------------------------

/// One manually wired single-core run (the same construction run_point
/// performs, with functional stores on), returning the System so its
/// post-run state can be inspected.
struct ProbeRun {
  std::unique_ptr<System> sys;
  RunReport report;
};

ProbeRun probe_run(const std::string& machine, const std::string& workload, double scale,
                   const EngineConfig& engine) {
  ProbeRun out;
  out.sys = std::make_unique<System>(make_machine(machine));
  out.sys->set_engine(engine);
  const Workload w = make_workload(workload, {.factor = scale});
  CodegenOptions co;
  co.variant = machine == "hybrid_oracle" ? CodegenVariant::HybridOracle
               : machine == "cache_based" ? CodegenVariant::CacheOnly
                                          : CodegenVariant::HybridProtocol;
  co.global_seed = kPaperSeed;
  // Every store writes its value into the image, so the image comparison
  // below covers each store's routing: guarded hits, double-store twins
  // and oracle diversions.
  co.functional_stores = true;
  const MachineConfig geometry = MachineConfig::hybrid_coherent();
  CompiledKernel kernel = compile(w.loop, co, geometry.lm.virtual_base,
                                  geometry.lm.size, /*dir_entries=*/32);
  out.report = out.sys->run(kernel);
  return out;
}

struct EquivalenceCase {
  const char* machine;
  const char* workload;
};

std::vector<EquivalenceCase> equivalence_cases() {
  std::vector<EquivalenceCase> out;
  for (const char* m : {"hybrid_coherent", "hybrid_oracle", "cache_based"})
    for (const char* w : kAllWorkloads) out.push_back({m, w});
  return out;
}

void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << c.machine << "/" << c.workload;
}

/// A cache's tag dump without the recency order: (set, line, dirty).
std::vector<SetAssocCache::LineState> lines_and_dirty_bits(const SetAssocCache& cache) {
  std::vector<SetAssocCache::LineState> lines = cache.dump_state();
  for (auto& l : lines) l.rank = 0;
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    return a.set != b.set ? a.set < b.set : a.line_addr < b.line_addr;
  });
  return lines;
}

class StateEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(StateEquivalence, FunctionalReplayLeavesDetailedMachineState) {
  const std::string machine = GetParam().machine;
  const std::string workload = GetParam().workload;
  // At 0.05 these pairs fast-forward nothing; at 0.2 they do.
  const bool longer = (machine == "hybrid_oracle" && workload == "PCHASE") ||
                      (machine == "cache_based" && (workload == "STENCIL" || workload == "PCHASE"));
  const double scale = longer ? 0.2 : 0.05;
  // Aggressive budgets (tiny warmup/detail, unconstrained ff) so the
  // functional executor replays as much of the run as the controller
  // allows — the property must hold for ANY budget split.
  const ProbeRun detailed = probe_run(machine, workload, scale, EngineConfig{});
  const ProbeRun samp = probe_run(machine, workload, scale, sampled(500, 2000));
  ASSERT_GT(samp.report.sampled_fraction, 0.0) << "nothing was fast-forwarded";

  // Content-exact aggregate op counts (loads/stores resolve through the
  // same oracle/guard decisions on both paths).
  EXPECT_EQ(detailed.report.core.uops, samp.report.core.uops);
  EXPECT_EQ(detailed.report.core.loads, samp.report.core.loads);
  EXPECT_EQ(detailed.report.core.stores, samp.report.core.stores);
  EXPECT_EQ(detailed.report.core.guarded_loads, samp.report.core.guarded_loads);
  EXPECT_EQ(detailed.report.core.guarded_stores, samp.report.core.guarded_stores);

  // Cache tag state: addresses, dirty bits and per-set recency order of
  // every level, canonicalized (raw LRU stamps are clock values and may
  // legitimately differ; per-set rank is what replacement consumes).
  MemoryHierarchy& hd = detailed.sys->hierarchy();
  MemoryHierarchy& hs = samp.sys->hierarchy();
  EXPECT_TRUE(hd.l1d().dump_state() == hs.l1d().dump_state()) << "L1D diverged";
  if (machine == "cache_based") {
    // Every store of the cache-based machine writes through the write-
    // combining buffer, which merges a store into a pending write of the
    // same line only inside that write's drain window.  The functional
    // clock is not the detailed clock, so a few merges differ, and each
    // unmerged write touches its L2 line: L2 recency differs on FT, IS and
    // PCHASE while the lines and dirty bits match.  Compare those.
    EXPECT_TRUE(lines_and_dirty_bits(hd.l2()) == lines_and_dirty_bits(hs.l2()))
        << "L2 contents diverged";
  } else {
    EXPECT_TRUE(hd.l2().dump_state() == hs.l2().dump_state()) << "L2 diverged";
  }
  EXPECT_TRUE(hd.l3().dump_state() == hs.l3().dump_state()) << "L3 diverged";

  // Directory mapping (presence cycles live in the run's — extrapolated —
  // time domain and are excluded by design).
  if (machine != "cache_based") {
    ASSERT_NE(detailed.sys->directory(), nullptr);
    EXPECT_EQ(detailed.sys->directory()->dump_mappings(),
              samp.sys->directory()->dump_mappings());
  }

  // Functional memory image: every store's bytes, LM buffers included.
  EXPECT_TRUE(detailed.sys->image().same_contents(samp.sys->image()))
      << "memory image diverged";
}

INSTANTIATE_TEST_SUITE_P(
    AllMachinesAndWorkloads, StateEquivalence, ::testing::ValuesIn(equivalence_cases()),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return std::string(info.param.machine) + "_" + info.param.workload;
    });

// --- the stream's cursor is what the core stepped ----------------------------

TEST(Sampling, WorkCursorStaysMidIterationUntilTheIterationsLastUopSteps) {
  // The core reads a whole work iteration as one block; stepping it one uop
  // at a time must hand the rest back, so the stream never reports an
  // iteration boundary the core has not reached.
  System sys(make_machine("hybrid_coherent"));
  const Workload w = make_workload("CG", {.factor = 0.05});
  CodegenOptions co;
  co.global_seed = kPaperSeed;
  const MachineConfig geometry = MachineConfig::hybrid_coherent();
  CompiledKernel kernel = compile(w.loop, co, geometry.lm.virtual_base, geometry.lm.size,
                                  /*dir_entries=*/32);
  const std::shared_ptr<const ReplayBatch> batch = kernel.replay_batch();
  kernel.bind_replay(batch);

  OooCore& core = sys.core();
  core.begin_run(kernel);
  while (kernel.work_cursor() == ReplayableStream::kNoIteration)
    ASSERT_FALSE(core.step_uops(1));
  for (int iteration = 0; iteration < 3; ++iteration) {
    const std::uint64_t g = kernel.work_cursor();
    ASSERT_NE(g, ReplayableStream::kNoIteration);
    const std::uint64_t uops = batch->uops_in_range(g, 1);
    ASSERT_GT(uops, 1u);
    for (std::uint64_t k = 1; k < uops; ++k) {
      ASSERT_FALSE(core.step_uops(1));
      EXPECT_EQ(kernel.work_cursor(), ReplayableStream::kNoIteration)
          << "iteration " << g << ": boundary reported after " << k << " of " << uops << " uops";
    }
    ASSERT_FALSE(core.step_uops(1));
    ASSERT_LT(g + 1, batch->iters_per_tile) << "the probe left the first tile";
    EXPECT_EQ(kernel.work_cursor(), g + 1);
  }
  // step_block finishes the block a single step started, and no more.
  const std::uint64_t g = kernel.work_cursor();
  const std::uint64_t before = core.uops_done();
  ASSERT_FALSE(core.step_uops(1));
  ASSERT_FALSE(core.step_block());
  EXPECT_EQ(kernel.work_cursor(), g + 1);
  EXPECT_EQ(core.uops_done() - before, batch->uops_in_range(g, 1));
  core.finish_run();
}

// --- error-bound honesty ---------------------------------------------------

class ErrorBound : public ::testing::TestWithParam<const char*> {};

TEST_P(ErrorBound, SampledCyclesStayWithinTheReportedBound) {
  const SweepPoint p = make_point(GetParam(), 0.2);
  const PointResult full = run_point(p);
  const PointResult samp = run_point(p, sampled());
  ASSERT_TRUE(full.ok) << full.error;
  ASSERT_TRUE(samp.ok) << samp.error;
  const double fc = static_cast<double>(full.report.cycles());
  const double sc = static_cast<double>(samp.report.cycles());
  ASSERT_GT(fc, 0.0);
  const double err = std::abs(sc - fc) / fc;
  if (samp.report.sampled_fraction == 0.0) {
    // Sampling never engaged (run too short / CPI never converged): the
    // run degenerated to fully detailed and must be exact.
    EXPECT_EQ(full.report.cycles(), samp.report.cycles());
  } else {
    EXPECT_LE(err, samp.report.sample_error)
        << GetParam() << ": estimate off by " << err * 100 << "% vs bound "
        << samp.report.sample_error * 100 << "% (sampled fraction "
        << samp.report.sampled_fraction << ", full " << fc << " cycles, "
        << "sampled " << sc << " cycles)";
    EXPECT_GT(samp.report.sample_error, 0.0);
    EXPECT_LE(samp.report.sampled_fraction, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTwelveWorkloads, ErrorBound,
                         ::testing::ValuesIn(kAllWorkloads));

// --- sampling off is the serial engine -------------------------------------

TEST(Sampling, OffModeIsByteIdenticalToTheSerialEngine) {
  // Off-mode with non-default budgets configured must still take the
  // serial path: the budgets are dead knobs until the mode switches.
  const SweepPoint p = make_point("FT", 0.05);
  EngineConfig off;
  off.sampling.warmup_uops = 1;
  off.sampling.detail_uops = 2;
  off.sampling.ff_uops = 3;
  ASSERT_FALSE(off.sampling.enabled());
  EXPECT_EQ(report_text(run_point(p)), report_text(run_point(p, off)));
}

TEST(Sampling, SampledRunsDifferFromDetailedOnlyInTiming) {
  // Not a tautology of the equivalence test: this goes through run_point
  // (the sweep path) and checks the cycles actually were extrapolated.
  const SweepPoint p = make_point("CG", 0.2);
  const PointResult full = run_point(p);
  const PointResult samp = run_point(p, sampled());
  ASSERT_TRUE(samp.ok) << samp.error;
  EXPECT_GT(samp.report.sampled_fraction, 0.0) << "sampling never engaged";
  EXPECT_EQ(full.report.core.uops, samp.report.core.uops);
}

// --- cache / journal gating ------------------------------------------------

TEST(Sampling, SamplingAltersResults) {
  EXPECT_TRUE(engine_alters_results(sampled()));
  EXPECT_FALSE(engine_alters_results(EngineConfig{}));
}

TEST(Sampling, SampledResultsStayOutOfTheSessionCache) {
  // A sampled estimate stored under the engine-independent canonical
  // identity would be consumed as truth by a later exact sweep.
  ExperimentSpec spec;
  spec.name = "sampling_cache_gate_test";
  spec.title = "sampling cache gate";
  spec.scale = 0.05;
  Grid g;
  g.base = {{"machine", "hybrid_coherent"}, {"workload", "FT"}};
  spec.grids.push_back(g);

  RunCache session;
  SweepOptions opt;
  opt.jobs = 1;
  opt.session_cache = &session;
  opt.engine = sampled();
  const SweepOutcome out = run_sweep(spec, opt);
  ASSERT_EQ(out.failures, 0u);
  const std::vector<SweepPoint> pts = expand(spec);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_FALSE(session.lookup(pts.front()).has_value())
      << "sampled result leaked into the session cache";

  // The exact default engine still populates it.
  opt.engine = EngineConfig{};
  run_sweep(spec, opt);
  EXPECT_TRUE(session.lookup(pts.front()).has_value());
}

class SamplingDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("hm_sampling_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(reinterpret_cast<std::uintptr_t>(this) & 0xFFFF)))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ExperimentSpec spec() const {
    ExperimentSpec s;
    s.name = "sampling_disk_test";
    s.title = "sampling disk gate";
    s.scale = 0.05;
    Grid g;
    g.base = {{"machine", "hybrid_coherent"}, {"workload", "CG"}};
    s.grids.push_back(g);
    return s;
  }

  std::string dir_;
};

TEST_F(SamplingDiskTest, SampledSweepWritesNeitherMemoCacheNorJournal) {
  SweepOptions opt;
  opt.jobs = 1;
  opt.cache_dir = dir_ + "/cache";
  opt.journal_dir = dir_ + "/journal";
  opt.engine = sampled();
  const SweepOutcome out = run_sweep(spec(), opt);
  ASSERT_EQ(out.failures, 0u);
  // Nothing may have been persisted: a sampled estimate on disk would be
  // replayed as exact by a later resume or cached sweep.
  EXPECT_FALSE(std::filesystem::exists(opt.cache_dir) &&
               !std::filesystem::is_empty(opt.cache_dir));
  EXPECT_FALSE(std::filesystem::exists(opt.journal_dir) &&
               !std::filesystem::is_empty(opt.journal_dir));

  // The same sweep with the exact engine persists to both.
  opt.engine = EngineConfig{};
  const SweepOutcome exact = run_sweep(spec(), opt);
  ASSERT_EQ(exact.failures, 0u);
  EXPECT_TRUE(std::filesystem::exists(opt.cache_dir) &&
              !std::filesystem::is_empty(opt.cache_dir));
  EXPECT_TRUE(std::filesystem::exists(opt.journal_dir) &&
              !std::filesystem::is_empty(opt.journal_dir));
}

TEST_F(SamplingDiskTest, StaleEngineVersionEntriesAreCountedNotCorrupt) {
  SweepOptions opt;
  opt.jobs = 1;
  opt.cache_dir = dir_;
  const SweepOutcome first = run_sweep(spec(), opt);
  ASSERT_EQ(first.failures, 0u);
  ASSERT_EQ(first.cache_hits, 0u);

  // Rewrite every cached entry as if an older engine had written it.  The
  // next sweep must treat them as misses, count them as STALE (expected
  // after an engine bump), and report zero corruption.
  const std::string needle =
      "\"engine_version\":" + std::to_string(kEngineVersion);
  const std::string older =
      "\"engine_version\":" + std::to_string(kEngineVersion - 1);
  unsigned rewritten = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos) << entry.path();
    text.replace(pos, needle.size(), older);
    std::ofstream out(entry.path(), std::ios::trunc);
    out << text;
    ++rewritten;
  }
  ASSERT_GT(rewritten, 0u);

  const SweepOutcome second = run_sweep(spec(), opt);
  EXPECT_EQ(second.cache_hits, 0u);
  EXPECT_EQ(second.stale_entries, rewritten);
  EXPECT_EQ(second.cache_corrupt, 0u);
  // The re-run repopulated the cache at the current version: hits again,
  // no stale leftovers.
  const SweepOutcome third = run_sweep(spec(), opt);
  EXPECT_EQ(third.cache_hits, third.points.size());
  EXPECT_EQ(third.stale_entries, 0u);
}

// --- single-tile domain ----------------------------------------------------

TEST(Sampling, MultiTilePointsFailAsConfigErrors) {
  // The sweep quarantines a multi-tile sampled point as a config error
  // and still runs the single-tile point next to it.
  ExperimentSpec spec;
  spec.name = "sampling_multi_tile_test";
  spec.title = "sampling multi-tile rejection";
  spec.scale = 0.05;
  Grid g;
  g.base = {{"machine", "hybrid_coherent"}, {"workload", "FT"}};
  g.axes = {{"cores", {"1", "2"}}};
  spec.grids.push_back(g);

  SweepOptions opt;
  opt.jobs = 1;
  opt.engine = sampled();
  const SweepOutcome out = run_sweep(spec, opt);
  ASSERT_EQ(out.points.size(), 2u);
  EXPECT_EQ(out.failures, 1u);
  for (const PointResult& r : out.points) {
    if (r.point.knob("cores", "1") == "1") {
      EXPECT_TRUE(r.ok) << r.point.label << ": " << r.error;
    } else {
      EXPECT_FALSE(r.ok) << r.point.label;
      EXPECT_EQ(r.error_class, ErrorClass::Config) << r.point.label;
    }
  }
}

TEST(Sampling, QuantumDoesNotChangeASampledSingleTilePoint) {
  // A lone tile's quantum turns concatenate to its serial run, so sampling
  // needs no rule about the quantum.
  const SweepPoint p = make_point("FT", 0.05);
  EngineConfig with_quantum = sampled();
  with_quantum.quantum = 64;
  const PointResult plain = run_point(p, sampled());
  const PointResult q64 = run_point(p, with_quantum);
  EXPECT_GT(plain.report.sampled_fraction, 0.0) << "fast-forward never engaged";
  EXPECT_EQ(report_text(plain), report_text(q64));
  EXPECT_EQ(plain.report.sample_error, q64.report.sample_error);
  EXPECT_EQ(plain.report.sampled_fraction, q64.report.sampled_fraction);
}

// --- determinism -----------------------------------------------------------

TEST(Sampling, DeterministicAcrossJobs) {
  // Each point runs on one thread, so the sweep's worker count may not
  // change a single byte.
  ExperimentSpec spec;
  spec.name = "sampling_determinism_test";
  spec.title = "sampling determinism";
  spec.scale = 0.1;
  Grid g;
  g.axes = {{"workload", {"CG", "FT"}}, {"machine", {"hybrid_coherent"}}};
  spec.grids.push_back(g);

  SweepOptions opt;
  opt.jobs = 1;
  opt.engine = sampled();
  const std::string one = to_json(run_sweep(spec, opt));
  opt.jobs = 4;
  EXPECT_EQ(one, to_json(run_sweep(spec, opt))) << "--jobs changed bytes";
}

TEST(Sampling, RepeatedSampledRunsAreByteIdentical) {
  const SweepPoint p = make_point("MG", 0.1);
  const std::string first = report_text(run_point(p, sampled()));
  EXPECT_EQ(first, report_text(run_point(p, sampled())));
}

}  // namespace
