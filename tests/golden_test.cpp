// The refactor correctness anchors.
//
//  * A 1-core system must reproduce the pre-refactor paper tables
//    byte-for-byte: tests/golden/<name>.txt holds every registered paper
//    experiment's rendered table, captured from the pre-tile engine at
//    workload scale 0.05; each test re-renders the experiment and compares
//    bytes.
//  * A 2-core SPMD run must reproduce the serialized multicore report
//    byte-for-byte: tests/golden/multicore_2core.txt holds the full
//    RunReport field serialization of two fixed 2-core points, captured
//    from the full-run-occupancy engine (PR 4), so future refactors
//    preserve MULTI-tile behavior, not just the 1-core fast path.
//  * The irregular suite (PR 5) pins the same two anchors for the six new
//    kernels: tests/golden/irregular.txt holds the rendered table at scale
//    0.05, and tests/golden/irregular_1core.txt the full single-core
//    RunReport serialization of every kernel on both machines.
//  * A finite engine quantum is its own deterministic contention model:
//    tests/golden/quantum_schedule.txt holds three 4-core points run at
//    quantum 64, captured from the multi-threaded lockstep engine (4
//    threads) that the single-threaded quantum schedule replaced; the
//    schedule must reproduce those bytes.
//  * Sampled simulation pins the functional fast-forward path:
//    tests/golden/sampled.txt holds three points run under interval
//    sampling with budgets small enough that fast-forward engages at
//    scale 0.05 — the full RunReport serialization plus the sampling
//    estimate fields (sample_error, sampled_fraction).
//
// If an intentional engine change alters simulated metrics, regenerate
// every golden with scripts/update_goldens.sh (it reruns this binary with
// HM_UPDATE_GOLDENS=1, which rewrites the files instead of comparing) and
// bump hm::kEngineVersion in the same commit.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/experiment.hpp"
#include "driver/sweep.hpp"
#include "sim/report.hpp"

namespace {

using namespace hm::driver;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string golden_path(const std::string& name) {
  return std::string(HM_SOURCE_DIR) + "/tests/golden/" + name + ".txt";
}

/// Compare @p got against the named golden — or, when HM_UPDATE_GOLDENS is
/// set in the environment (scripts/update_goldens.sh), rewrite the golden
/// from @p got and pass.  Every golden assertion funnels through here so
/// the capture path can never drift from the comparison path.
void expect_golden(const std::string& name, const std::string& got, const char* what) {
  const std::string path = golden_path(name);
  if (std::getenv("HM_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    out << got;
    ASSERT_TRUE(static_cast<bool>(out)) << "cannot write golden " << path;
    std::printf("updated golden %s\n", path.c_str());
    return;
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty()) << "missing golden file for " << name
                             << " (capture it with scripts/update_goldens.sh)";
  EXPECT_EQ(got, want) << what;
}

/// Render the named experiment at the golden scale (0.05) and assert zero
/// failures and zero occupancy-horizon overflows along the way.
std::string rendered_table(const char* name) {
  const ExperimentSpec* spec = find_experiment(name);
  if (spec == nullptr) return {};

  SweepOptions opt;
  opt.jobs = 2;  // parallel == serial is separately enforced by driver_test
  opt.scale_override = 0.05;
  const SweepOutcome out = run_sweep(*spec, opt);
  EXPECT_EQ(out.failures, 0u);

  // The tables are only trustworthy when the occupancy model covered the
  // whole run: any horizon overflow means understated contention.
  for (const PointResult& r : out.points) {
    if (r.ok) {
      EXPECT_EQ(r.report.contention_overflows(), 0u)
          << r.point.label << " overflowed the occupancy horizon";
    }
  }
  return render(out);
}

class PaperGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(PaperGolden, SingleCoreTableIsByteIdenticalToPreTileEngine) {
  const std::string got = rendered_table(GetParam());
  ASSERT_FALSE(got.empty()) << GetParam();
  expect_golden(GetParam(), got,
                "table drifted from the pre-tile engine");
}

INSTANTIATE_TEST_SUITE_P(AllNinePaperExperiments, PaperGolden,
                         ::testing::Values("table1", "fig7", "fig8", "fig9", "fig10",
                                           "table3", "ablation_directory",
                                           "ablation_double_store", "ablation_prefetch"));

// ---------------------------------------------------------------------------

/// The 2-core capture: one SPMD point per machine kind, every RunReport
/// field serialized.
std::string multicore_2core_text() {
  std::string text;
  for (const char* machine : {"hybrid_coherent", "cache_based"}) {
    SweepPoint p;
    p.label = std::string("golden_2core/FT/") + machine;
    p.machine = machine;
    p.workload = "FT";
    p.scale = 0.05;
    p.knobs["cores"] = "2";
    const PointResult r = run_point(p);
    if (!r.ok) return "FAILED: " + r.error;
    text += p.label;
    text += '\n';
    hm::append_report_fields(text, r.report);
    text += '\n';
  }
  return text;
}

TEST(MulticoreGolden, TwoCoreReportIsByteIdentical) {
  const std::string got = multicore_2core_text();
  ASSERT_NE(got.rfind("FAILED:", 0), 0u) << got;
  expect_golden("multicore_2core", got,
                "2-core SPMD report drifted from the occupancy-engine capture");
}

// ---------------------------------------------------------------------------

TEST(IrregularGolden, TableIsByteIdentical) {
  const std::string got = rendered_table("irregular");
  ASSERT_FALSE(got.empty());
  expect_golden("irregular", got, "irregular-suite table drifted");
}

/// Single-core pin for every irregular kernel on both machines: the full
/// RunReport field serialization, so any engine or classifier change that
/// shifts a single counter of the new workload family is caught here.
std::string irregular_1core_text() {
  std::string text;
  for (const char* kernel : {"SPMV", "STENCIL", "PCHASE", "HIST", "TRIAD", "RADIX"}) {
    for (const char* machine : {"hybrid_coherent", "cache_based"}) {
      SweepPoint p;
      p.label = std::string("golden_1core/") + kernel + "/" + machine;
      p.machine = machine;
      p.workload = kernel;
      p.scale = 0.05;
      const PointResult r = run_point(p);
      if (!r.ok) return "FAILED: " + r.error;
      text += p.label;
      text += " mapped=" + std::to_string(r.mapped_refs);
      text += " demoted=" + std::to_string(r.demoted_refs);
      text += '\n';
      hm::append_report_fields(text, r.report);
      text += '\n';
    }
  }
  return text;
}

TEST(IrregularGolden, SingleCoreReportsAreByteIdentical) {
  const std::string got = irregular_1core_text();
  ASSERT_NE(got.rfind("FAILED:", 0), 0u) << got;
  expect_golden("irregular_1core", got,
                "irregular-suite 1-core reports drifted");
}

// ---------------------------------------------------------------------------

/// Topology captures (PR 10): full RunReport serialization — including the
/// noc_* section — of fixed mesh and ring points.  These are NEW point
/// identities (topology is a machine knob), so they extend the golden set
/// without touching any flat capture.
std::string topology_text() {
  std::string text;
  const struct {
    const char* machine;
    const char* topology;
    const char* cores;
  } captures[] = {
      {"hybrid_coherent", "mesh", "4"},
      {"cache_based", "mesh", "4"},
      {"hybrid_coherent", "mesh", "16"},
      {"hybrid_coherent", "ring", "8"},
  };
  for (const auto& c : captures) {
    SweepPoint p;
    p.label = std::string("golden_topo/FT/") + c.machine + "/" + c.topology +
              "/" + c.cores;
    p.machine = c.machine;
    p.workload = "FT";
    p.scale = 0.05;
    p.knobs["cores"] = c.cores;
    p.knobs["topology"] = c.topology;
    const PointResult r = run_point(p);
    if (!r.ok) return "FAILED: " + r.error;
    text += p.label;
    text += '\n';
    hm::append_report_fields(text, r.report);
    text += '\n';
  }
  return text;
}

TEST(TopologyGolden, MeshAndRingReportsAreByteIdentical) {
  const std::string got = topology_text();
  ASSERT_NE(got.rfind("FAILED:", 0), 0u) << got;
  expect_golden("topology_reports", got,
                "mesh/ring reports drifted from the NoC-engine capture");
}

TEST(TopologyGolden, ScalingMeshTableIsByteIdentical) {
  const std::string got = rendered_table("scaling_mesh");
  ASSERT_FALSE(got.empty());
  expect_golden("scaling_mesh", got, "scaling_mesh table drifted");
}

TEST(TopologyGolden, IrregularMeshTableIsByteIdentical) {
  const std::string got = rendered_table("irregular_mesh");
  ASSERT_FALSE(got.empty());
  expect_golden("irregular_mesh", got, "irregular_mesh table drifted");
}

// ---------------------------------------------------------------------------

/// Quantum-schedule capture: full RunReport serialization of three 4-core
/// points at quantum 64 (flat hybrid and cache-based FT, mesh CG), scale
/// 0.02.  A finite quantum interleaves the tiles' shared-uncore bookings,
/// so these bytes differ from the serial engine's — they pin the (round,
/// tile) turn order itself.
std::string quantum_schedule_text() {
  hm::EngineConfig engine;
  engine.quantum = 64;
  std::string text;
  const struct {
    const char* workload;
    const char* machine;
    const char* topology;
  } captures[] = {
      {"FT", "hybrid_coherent", "flat"},
      {"FT", "cache_based", "flat"},
      {"CG", "hybrid_coherent", "mesh"},
  };
  for (const auto& c : captures) {
    SweepPoint p;
    p.label = std::string("golden_quantum64/") + c.workload + "/" + c.machine + "/" +
              c.topology + "/4";
    p.machine = c.machine;
    p.workload = c.workload;
    p.scale = 0.02;
    p.knobs["cores"] = "4";
    if (std::string(c.topology) != "flat") p.knobs["topology"] = c.topology;
    const PointResult r = run_point(p, engine);
    if (!r.ok) return "FAILED: " + r.error;
    text += p.label;
    text += '\n';
    hm::append_report_fields(text, r.report);
    text += '\n';
  }
  return text;
}

TEST(QuantumGolden, Quantum64ReportsAreByteIdentical) {
  const std::string got = quantum_schedule_text();
  ASSERT_NE(got.rfind("FAILED:", 0), 0u) << got;
  expect_golden("quantum_schedule", got,
                "quantum-64 reports drifted from the captured turn order");
}

// ---------------------------------------------------------------------------

/// Sampled-simulation capture: two single-tile points under interval
/// sampling (the only points it runs) — flat cache_based FT (write-through
/// store path) and flat hybrid_coherent FT (guarded accesses + LM) — at
/// scale 0.05 with budgets small enough that every point fast-forwards.  Each
/// point renders its full RunReport plus the sampling estimate fields,
/// which append_report_fields leaves out.
std::string sampled_text() {
  hm::EngineConfig engine;
  engine.sampling.mode = hm::SamplingConfig::Mode::Interval;
  engine.sampling.warmup_uops = 500;
  engine.sampling.detail_uops = 2000;
  engine.sampling.ff_uops = 20000;
  std::string text;
  for (const char* machine : {"cache_based", "hybrid_coherent"}) {
    SweepPoint p;
    p.label = std::string("golden_sampled/FT/") + machine + "/flat/1";
    p.machine = machine;
    p.workload = "FT";
    p.scale = 0.05;
    p.knobs["cores"] = "1";
    const PointResult r = run_point(p, engine);
    if (!r.ok) return "FAILED: " + r.error;
    // Without fast-forward the capture would pin only the detailed path.
    EXPECT_GT(r.report.sampled_fraction, 0.0) << p.label << ": fast-forward never engaged";
    text += p.label;
    text += '\n';
    hm::append_report_fields(text, r.report);
    char buf[96];
    std::snprintf(buf, sizeof buf, "\nsample_error=%.17g sampled_fraction=%.17g\n",
                  r.report.sample_error, r.report.sampled_fraction);
    text += buf;
  }
  return text;
}

TEST(SampledGolden, IntervalSampledReportsAreByteIdentical) {
  const std::string got = sampled_text();
  ASSERT_NE(got.rfind("FAILED:", 0), 0u) << got;
  expect_golden("sampled", got, "interval-sampled reports drifted");
}

}  // namespace
