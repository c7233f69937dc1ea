// Unit tests for the out-of-order core model: dispatch pacing, dependencies,
// functional units, guarded-access diversion, the double-store collapse, DMA
// serialization and phase accounting.
#include <gtest/gtest.h>

#include "core/ooo_core.hpp"
#include "test_util.hpp"

namespace hm {
namespace {

using test::VecStream;

struct Rig {
  HierarchyConfig hcfg = [] {
    HierarchyConfig c;
    c.pf_l1.enabled = c.pf_l2.enabled = c.pf_l3.enabled = false;
    return c;
  }();
  MemoryHierarchy hierarchy{hcfg};
  LocalMemory lm{};
  CoherenceDirectory directory{};
  ByteStore image{};
  DmaController dmac{{.startup = 16, .per_line = 2, .num_tags = 32},
                     hierarchy, lm, &directory, &image};

  OooCore make_core(CoreConfig cfg = {}) {
    return OooCore(cfg, hierarchy, &lm, &directory, &dmac, &image);
  }
  OooCore make_cache_core(CoreConfig cfg = {}) {
    return OooCore(cfg, hierarchy, nullptr, nullptr, nullptr, &image);
  }
};

TEST(OooCore, EmptyProgram) {
  Rig rig;
  OooCore core = rig.make_core();
  VecStream prog;
  const RunResult r = core.run(prog);
  EXPECT_EQ(r.cycles, 0u);
  EXPECT_EQ(r.uops, 0u);
}

TEST(OooCore, FourWideDispatchBoundsIpc) {
  Rig rig;
  OooCore core = rig.make_core();
  // 4000 independent INT ops on a 4-wide core with 3 INT ALUs: the ALUs are
  // the bottleneck (3/cycle).
  std::vector<MicroOp> ops(4000, VecStream::int_op());
  VecStream prog(ops);
  const RunResult r = core.run(prog);
  EXPECT_NEAR(r.ipc(), 3.0, 0.3);
}

TEST(OooCore, DependenceChainSerializes) {
  Rig rig;
  OooCore core = rig.make_core();
  // r1 <- r1 + ... chain: one op per int_latency cycle.
  std::vector<MicroOp> ops(1000, VecStream::int_op(1, 1));
  VecStream prog(ops);
  const RunResult r = core.run(prog);
  EXPECT_NEAR(static_cast<double>(r.cycles), 1000.0, 50.0);
}

TEST(OooCore, FpLatencyLongerThanInt) {
  Rig rig;
  OooCore core1 = rig.make_core();
  std::vector<MicroOp> iops(500, VecStream::int_op(1, 1));
  VecStream p1(iops);
  const Cycle int_cycles = core1.run(p1).cycles;

  OooCore core2 = rig.make_core();
  std::vector<MicroOp> fops(500, VecStream::fp_op(1, 1));
  VecStream p2(fops);
  const Cycle fp_cycles = core2.run(p2).cycles;
  EXPECT_GT(fp_cycles, int_cycles * 3);
}

TEST(OooCore, LoadToLmHasFixedLatency) {
  Rig rig;
  OooCore core = rig.make_core();
  VecStream prog({VecStream::load(rig.lm.base())});
  const RunResult r = core.run(prog);
  EXPECT_EQ(r.loads, 1u);
  EXPECT_DOUBLE_EQ(r.amat(), static_cast<double>(rig.lm.latency()));
  EXPECT_EQ(core.stats().lm_loads, 1u);
}

TEST(OooCore, LoadToSmGoesThroughHierarchy) {
  Rig rig;
  OooCore core = rig.make_core();
  VecStream prog({VecStream::load(0x1000)});
  const RunResult r = core.run(prog);
  EXPECT_GT(r.amat(), 200.0);  // cold DRAM miss
  EXPECT_EQ(rig.hierarchy.memory().stats().reads, 1u);
}

TEST(OooCore, GuardedLoadMissGoesToSm) {
  Rig rig;
  OooCore core = rig.make_core();
  VecStream prog({VecStream::dir_config(1024), VecStream::gload(0x1000)});
  core.run(prog);
  EXPECT_EQ(rig.directory.stats().lookups, 1u);
  EXPECT_EQ(rig.directory.stats().misses, 1u);
  EXPECT_EQ(rig.hierarchy.memory().stats().reads, 1u);
}

TEST(OooCore, GuardedLoadHitDivertsToLm) {
  Rig rig;
  rig.directory.configure(1024, rig.lm.base(), rig.lm.size());
  rig.directory.map(0x10'0000, rig.lm.base(), 0);
  OooCore core = rig.make_core();
  VecStream prog({VecStream::gload(0x10'0000 + 8)});
  const RunResult r = core.run(prog);
  EXPECT_EQ(rig.directory.stats().hits, 1u);
  EXPECT_EQ(core.stats().lm_loads, 1u);
  EXPECT_EQ(rig.hierarchy.memory().stats().reads, 0u);
  EXPECT_DOUBLE_EQ(r.amat(), 2.0);
}

TEST(OooCore, GuardedLoadCostsSameAsPlainLoad) {
  // The Fig. 7 RD result: prefix decode + directory lookup fit in the cycle.
  Rig rig1, rig2;
  CoreConfig cfg;
  std::vector<MicroOp> plain, guarded;
  for (int i = 0; i < 2000; ++i) {
    plain.push_back(VecStream::load(0x1000 + static_cast<Addr>(i % 64) * 8));
    plain.push_back(VecStream::int_op(2, 1));
    guarded.push_back(VecStream::gload(0x1000 + static_cast<Addr>(i % 64) * 8));
    guarded.push_back(VecStream::int_op(2, 1));
  }
  OooCore c1 = rig1.make_core(cfg);
  VecStream p1(plain);
  const Cycle t_plain = c1.run(p1).cycles;
  OooCore c2 = rig2.make_core(cfg);
  VecStream p2(guarded);
  const Cycle t_guarded = c2.run(p2).cycles;
  EXPECT_EQ(t_guarded, t_plain);
}

TEST(OooCore, DoubleStoreCollapsesInStoreBuffer) {
  Rig rig;
  OooCore core = rig.make_core();
  // gst + st to the same address back to back: the LSQ collapses the second
  // one — a single cache access (§3.1).
  VecStream prog({VecStream::gstore(0x1000, 1), VecStream::store(0x1000, 1)});
  core.run(prog);
  EXPECT_EQ(core.stats().collapsed_stores, 1u);
  // One hierarchy store only.
  EXPECT_EQ(rig.hierarchy.stats().stores, 1u);
}

TEST(OooCore, DistantStoresDoNotCollapse) {
  Rig rig;
  CoreConfig cfg;
  cfg.store_drain_latency = 2;  // drain quickly
  OooCore core = rig.make_core(cfg);
  std::vector<MicroOp> ops;
  ops.push_back(VecStream::store(0x1000, 0));
  // A dependence chain much longer than the cold-miss drain time of the
  // first store (~260 cycles through DRAM): by the time the second store
  // arrives the entry has drained, so no collapse is possible.
  for (int i = 0; i < 400; ++i) ops.push_back(VecStream::int_op(1, 1));
  ops.push_back(VecStream::store(0x1000, 0));
  VecStream prog(ops);
  core.run(prog);
  EXPECT_EQ(core.stats().collapsed_stores, 0u);
}

TEST(OooCore, MispredictDelaysDispatch) {
  Rig rig1, rig2;
  // Same length program; one with predictable branches, one with a burst of
  // first-seen taken branches (BTB cold => mispredicts).
  std::vector<MicroOp> pred, mispred;
  for (int i = 0; i < 200; ++i) {
    pred.push_back(VecStream::branch(true, 0x500));
    mispred.push_back(VecStream::branch(true, 0x500 + static_cast<Addr>(i) * 8));
  }
  OooCore c1 = rig1.make_core();
  VecStream p1(pred);
  const Cycle t_pred = c1.run(p1).cycles;
  OooCore c2 = rig2.make_core();
  VecStream p2(mispred);
  const Cycle t_mis = c2.run(p2).cycles;
  EXPECT_GT(t_mis, t_pred + 100);
  EXPECT_GT(c2.stats().flushed_slots, 0u);
}

TEST(OooCore, DmaSynchSerializesDispatch) {
  Rig rig;
  OooCore core = rig.make_core();
  VecStream prog({
      VecStream::dir_config(4096),
      VecStream::dma_get(0x10'0000, rig.lm.base(), 4096, 0),
      VecStream::dma_synch(1),
      VecStream::int_op(1),
  });
  const RunResult r = core.run(prog);
  // The int op retires after the transfer completed.
  EXPECT_GE(r.cycles, rig.dmac.tag_complete(0));
  EXPECT_GT(r.phase_cycles[static_cast<unsigned>(ExecPhase::Synch)], 0u);
}

TEST(OooCore, PhaseAccountingSumsToTotal) {
  Rig rig;
  OooCore core = rig.make_core();
  std::vector<MicroOp> ops;
  for (int i = 0; i < 100; ++i) {
    MicroOp op = VecStream::int_op(1, 1);
    op.phase = (i % 2 == 0) ? ExecPhase::Work : ExecPhase::Control;
    ops.push_back(op);
  }
  VecStream prog(ops);
  const RunResult r = core.run(prog);
  Cycle sum = 0;
  for (auto c : r.phase_cycles) sum += c;
  EXPECT_EQ(sum, r.cycles);
}

TEST(OooCore, FunctionalStoreAndLoadRoundTrip) {
  Rig rig;
  OooCore core = rig.make_core();
  MicroOp st = VecStream::store(0x2000, 0);
  st.value = 0xABCD;
  st.has_value = true;
  MicroOp ld = VecStream::load(0x2000, 1);
  ld.value = 0xABCD;
  ld.check_value = true;
  VecStream prog({st, ld});
  const RunResult r = core.run(prog);
  EXPECT_EQ(r.value_mismatches, 0u);
  EXPECT_EQ(rig.image.load64(0x2000), 0xABCDu);
}

TEST(OooCore, FunctionalMismatchDetected) {
  Rig rig;
  OooCore core = rig.make_core();
  MicroOp ld = VecStream::load(0x3000, 1);
  ld.value = 42;  // memory actually holds 0
  ld.check_value = true;
  VecStream prog({ld});
  const RunResult r = core.run(prog);
  EXPECT_EQ(r.value_mismatches, 1u);
}

TEST(OooCore, GuardedOpWithoutDirectoryThrows) {
  Rig rig;
  OooCore core = rig.make_cache_core();
  VecStream prog({VecStream::gload(0x1000)});
  EXPECT_THROW(core.run(prog), std::logic_error);
}

TEST(OooCore, DmaOpWithoutDmacThrows) {
  Rig rig;
  OooCore core = rig.make_cache_core();
  VecStream prog({VecStream::dma_get(0x1000, 0, 64, 0)});
  EXPECT_THROW(core.run(prog), std::logic_error);
}

TEST(OooCore, OracleDivertUsesLmWithoutDirectoryCost) {
  Rig rig;
  rig.directory.configure(1024, rig.lm.base(), rig.lm.size());
  rig.directory.map(0x10'0000, rig.lm.base(), 0);
  CoreConfig cfg;
  cfg.oracle_divert = true;
  OooCore core = rig.make_core(cfg);
  rig.directory.reset_stats();
  VecStream prog({VecStream::load(0x10'0000 + 16)});  // plain load, mapped data
  const RunResult r = core.run(prog);
  EXPECT_EQ(core.stats().lm_loads, 1u);      // diverted
  EXPECT_EQ(rig.directory.stats().lookups, 0u);  // at zero cost
  EXPECT_DOUBLE_EQ(r.amat(), 2.0);
}

TEST(OooCore, RobLimitsInflightWork) {
  Rig rig;
  CoreConfig small;
  small.rob_size = 8;
  OooCore core = rig.make_core(small);
  // A long-latency load followed by many independent ops: with an 8-entry
  // ROB the backlog stalls dispatch.
  std::vector<MicroOp> ops;
  ops.push_back(VecStream::load(0x9000, 1));
  for (int i = 0; i < 100; ++i) ops.push_back(VecStream::int_op(2));
  VecStream prog(ops);
  core.run(prog);
  EXPECT_GT(core.stats().rob_stall_cycles, 0u);
}

TEST(OooCore, ReplaysChargedOnL1Misses) {
  Rig rig;
  OooCore core = rig.make_core();
  VecStream prog({VecStream::load(0x7000)});  // cold miss
  core.run(prog);
  EXPECT_GT(core.stats().replay_uops, 0u);
}

TEST(OooCore, PresenceStallDelaysGuardedAccess) {
  Rig rig;
  OooCore core = rig.make_core();
  VecStream prog({
      VecStream::dir_config(4096),
      VecStream::dma_get(0x10'0000, rig.lm.base(), 4096, 0),
      // No dma-synch: the guarded load races the transfer and must stall on
      // the presence bit instead of reading garbage.
      VecStream::gload(0x10'0000 + 8),
  });
  const RunResult r = core.run(prog);
  EXPECT_EQ(rig.directory.stats().presence_stalls, 1u);
  EXPECT_GE(r.cycles, rig.dmac.tag_complete(0));
}

class RetireWidthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(RetireWidthSweep, IpcNeverExceedsWidth) {
  Rig rig;
  CoreConfig cfg;
  cfg.fetch_width = GetParam();
  cfg.retire_width = GetParam();
  cfg.int_alus = 8;  // not the bottleneck
  OooCore core = rig.make_core(cfg);
  std::vector<MicroOp> ops(2000, VecStream::int_op());
  VecStream prog(ops);
  const RunResult r = core.run(prog);
  EXPECT_LE(r.ipc(), static_cast<double>(GetParam()) + 0.01);
  EXPECT_GT(r.ipc(), static_cast<double>(GetParam()) * 0.7);
}

INSTANTIATE_TEST_SUITE_P(Widths, RetireWidthSweep, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace hm
