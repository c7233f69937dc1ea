// Tests for the top-level System: wiring, reporting, run isolation, and the
// engine schedule (quantum turns, cancellation, the results-altering gate).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "driver/sweep.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "test_util.hpp"

namespace hm {
namespace {

using test::VecStream;

TEST(System, HybridWiring) {
  System sys(MachineConfig::hybrid_coherent());
  EXPECT_NE(sys.lm(), nullptr);
  EXPECT_NE(sys.directory(), nullptr);
  EXPECT_NE(sys.dmac(), nullptr);
}

TEST(System, CacheBasedWiring) {
  System sys(MachineConfig::cache_based());
  EXPECT_EQ(sys.lm(), nullptr);
  EXPECT_EQ(sys.directory(), nullptr);
  EXPECT_EQ(sys.dmac(), nullptr);
  EXPECT_EQ(sys.hierarchy().config().l1d.size, 64u * 1024u);
}

TEST(System, RunProducesConsistentReport) {
  System sys(MachineConfig::hybrid_coherent());
  VecStream prog({VecStream::load(0x1000, 1), VecStream::int_op(2, 1),
                  VecStream::store(0x1008, 2)});
  const RunReport r = sys.run(prog);
  EXPECT_GT(r.cycles(), 0u);
  EXPECT_EQ(r.core.uops, 3u);
  EXPECT_EQ(r.core.loads, 1u);
  EXPECT_EQ(r.core.stores, 1u);
  EXPECT_GT(r.total_energy(), 0.0);
  EXPECT_GT(r.l1_accesses, 0u);
}

TEST(System, RunsAreIsolated) {
  System sys(MachineConfig::hybrid_coherent());
  VecStream prog({VecStream::load(0x1000, 1)});
  const RunReport r1 = sys.run(prog);
  const RunReport r2 = sys.run(prog);
  // Same cold-start state both times: identical timing and counts.
  EXPECT_EQ(r1.cycles(), r2.cycles());
  EXPECT_EQ(r1.l1_accesses, r2.l1_accesses);
  EXPECT_EQ(r1.activity.mem_accesses, r2.activity.mem_accesses);
}

TEST(System, RepeatedRunsSerializeToIdenticalReports) {
  // Cold-machine guarantee, field-complete: the same program run twice must
  // produce byte-identical serialized RunReports — any statistic, pool or
  // per-tile structure that survives a run would show up here.
  System sys(MachineConfig::hybrid_coherent());
  std::vector<MicroOp> ops;
  for (int i = 0; i < 32; ++i) {
    ops.push_back(VecStream::load(0x10'0000 + 0x840 * i, 1));
    ops.push_back(VecStream::store(0x20'0000 + 0x840 * i, 1));
    ops.push_back(VecStream::branch(i % 3 == 0, 0x500 + 8 * (i % 5)));
  }
  ops.push_back(VecStream::dir_config(1024));
  ops.push_back(VecStream::dma_get(0x40'0000, MachineConfig::hybrid_coherent().lm.virtual_base,
                                   1024, 1));
  ops.push_back(VecStream::dma_synch(0x2));
  ops.push_back(VecStream::gload(0x40'0010, 2));
  VecStream prog(ops);

  std::string first;
  append_report_fields(first, sys.run(prog));
  std::string second;
  append_report_fields(second, sys.run(prog));
  EXPECT_EQ(first, second);
}

TEST(System, ImagePersistsAcrossRunsUntilCleared) {
  System sys(MachineConfig::hybrid_coherent());
  MicroOp st = VecStream::store(0x4000, 0);
  st.value = 99;
  st.has_value = true;
  VecStream w({st});
  sys.run(w);
  EXPECT_EQ(sys.image().load64(0x4000), 99u);
  sys.clear_image();
  EXPECT_EQ(sys.image().load64(0x4000), 0u);
}

TEST(System, OracleMachineChargesNoDirectoryEnergy) {
  System sys(MachineConfig::hybrid_oracle());
  VecStream prog({VecStream::load(0x1000, 1)});
  const RunReport r = sys.run(prog);
  EXPECT_FALSE(r.activity.has_directory);
}

TEST(System, HybridMachineChargesDirectoryEnergy) {
  System sys(MachineConfig::hybrid_coherent());
  VecStream prog({VecStream::dir_config(1024), VecStream::gload(0x10'0000)});
  const RunReport r = sys.run(prog);
  EXPECT_TRUE(r.activity.has_directory);
  EXPECT_EQ(r.activity.dir_lookups, 1u);
}

TEST(System, AmatReflectsLoadLatencies) {
  System sys(MachineConfig::hybrid_coherent());
  // Two loads to the same line: one DRAM miss, one L1 hit.
  VecStream prog({VecStream::load(0x1000, 1), VecStream::int_op(2, 1),
                  VecStream::load(0x1008, 3)});
  const RunReport r = sys.run(prog);
  EXPECT_EQ(r.core.load_latency.count(), 2u);
  EXPECT_GT(r.amat, 2.0);
  EXPECT_DOUBLE_EQ(r.core.load_latency.min(), 2.0);
}

TEST(Report, Table3RowFormatting) {
  System sys(MachineConfig::hybrid_coherent());
  VecStream prog({VecStream::load(0x1000, 1)});
  const RunReport r = sys.run(prog);
  const Table3Row row = make_table3_row("CG", "Hybrid coherent", 1, 7, r);
  EXPECT_EQ(row.guarded_refs, "1/7 (14%)");
  EXPECT_EQ(row.benchmark, "CG");
  const std::string table = format_table3({row});
  EXPECT_NE(table.find("CG"), std::string::npos);
  EXPECT_NE(table.find("Hybrid coherent"), std::string::npos);
  EXPECT_NE(table.find("AMAT"), std::string::npos);
}

TEST(Report, PhaseSplitNormalization) {
  RunReport r;
  r.core.cycles = 100;
  r.core.phase_cycles = {60, 25, 15};  // work, control, synch
  const PhaseSplit s = phase_split(r, 200);
  EXPECT_DOUBLE_EQ(s.work, 0.30);
  EXPECT_DOUBLE_EQ(s.control, 0.125);
  EXPECT_DOUBLE_EQ(s.synch, 0.075);
  EXPECT_DOUBLE_EQ(s.total(), 0.5);
}

TEST(Report, EnergySplitNormalization) {
  RunReport r;
  r.energy = EnergyBreakdown{.cpu = 50, .caches = 30, .lm = 10, .others = 10};
  const EnergySplit s = energy_split(r, 200);
  EXPECT_DOUBLE_EQ(s.cpu, 0.25);
  EXPECT_DOUBLE_EQ(s.total(), 0.5);
}

TEST(Report, ZeroNormalizationIsSafe) {
  RunReport r;
  EXPECT_DOUBLE_EQ(phase_split(r, 0).total(), 0.0);
  EXPECT_DOUBLE_EQ(energy_split(r, 0.0).total(), 0.0);
}

// --- engine schedule --------------------------------------------------------

EngineConfig quantum(Cycle q) {
  EngineConfig e;
  e.quantum = q;
  return e;
}

driver::SweepPoint ft_point(unsigned cores, double scale) {
  driver::SweepPoint p;
  p.label = "system/FT/hybrid_coherent/" + std::to_string(cores);
  p.machine = "hybrid_coherent";
  p.workload = "FT";
  p.scale = scale;
  p.knobs["cores"] = std::to_string(cores);
  return p;
}

std::string report_text(const driver::PointResult& r) {
  EXPECT_TRUE(r.ok) << r.point.label << ": " << r.error;
  std::string text;
  append_report_fields(text, r.report);
  return text;
}

TEST(EngineSchedule, AlteringEngineConfigsAreDetected) {
  EXPECT_FALSE(engine_alters_results(EngineConfig{}));
  EXPECT_TRUE(engine_alters_results(quantum(64)));
  EngineConfig sampled;
  sampled.sampling.mode = SamplingConfig::Mode::Interval;
  EXPECT_TRUE(engine_alters_results(sampled));
}

TEST(EngineSchedule, QuantumOnOneTileEqualsSerial) {
  // With nothing to interleave against, a lone tile's quantum turns
  // concatenate to exactly the serial run.
  const driver::SweepPoint p = ft_point(1, 0.02);
  EXPECT_EQ(report_text(driver::run_point(p)),
            report_text(driver::run_point(p, quantum(64))));
}

TEST(EngineSchedule, SamplingRejectsMultiTileRuns) {
  // Interval sampling is a single-tile mode, whatever the schedule.
  System sys(MachineConfig::hybrid_coherent(), 2);
  VecStream a({VecStream::load(0x1000, 1)});
  VecStream b({VecStream::load(0x2000, 1)});
  for (const Cycle q : {Cycle{0}, Cycle{64}}) {
    EngineConfig e = quantum(q);
    e.sampling.mode = SamplingConfig::Mode::Interval;
    sys.set_engine(e);
    EXPECT_THROW(sys.run({&a, &b}), std::invalid_argument) << "quantum " << q;
    EXPECT_NO_THROW(sys.run({&a})) << "quantum " << q;
  }
}

TEST(EngineSchedule, PreCancelledTokenAbortsTheQuantumSchedule) {
  CancelToken token;
  token.cancel();
  EXPECT_THROW(driver::run_point(ft_point(4, 0.05), quantum(64), &token),
               CancelledError);
}

TEST(EngineSchedule, CycleBudgetCancelsWithDeterministicReason) {
  CancelToken token;
  token.set_cycle_limit(20'000);
  try {
    driver::run_point(ft_point(4, 0.1), quantum(64), &token);
    FAIL() << "cycle budget did not fire";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelledError::Reason::CycleLimit);
  }
}

}  // namespace
}  // namespace hm
