// Tile-based multicore tests: shared-uncore wiring, the dma-put
// invalidation broadcast across tiles, SPMD workload partitioning,
// aggregate report semantics (cycles = max over tiles, counts summed),
// per-tile cold-machine isolation across repeated runs, and core-count
// scaling monotonicity on the NAS kernels.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/sweep.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "test_util.hpp"
#include "workloads/nas.hpp"

namespace hm {
namespace {

using test::VecStream;

std::string serialized(const RunReport& r) {
  std::string s;
  append_report_fields(s, r);
  return s;
}

TEST(Tile, MultiTileWiringSharesTheUncore) {
  System sys(MachineConfig::hybrid_coherent(), 4);
  ASSERT_EQ(sys.num_tiles(), 4u);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_NE(sys.tile(i).lm(), nullptr) << i;
    EXPECT_NE(sys.tile(i).directory(), nullptr) << i;
    EXPECT_NE(sys.tile(i).dmac(), nullptr) << i;
    // Private L1s, shared L2/L3/DRAM.
    EXPECT_EQ(&sys.tile(i).hierarchy().l2(), &sys.uncore().l2());
    EXPECT_EQ(&sys.tile(i).hierarchy().l3(), &sys.uncore().l3());
    EXPECT_EQ(&sys.tile(i).hierarchy().memory(), &sys.uncore().memory());
    for (unsigned j = 0; j < i; ++j)
      EXPECT_NE(&sys.tile(i).hierarchy().l1d(), &sys.tile(j).hierarchy().l1d());
  }
  EXPECT_EQ(sys.uncore().num_ports(), 4u);
}

TEST(Tile, SingleCoreSystemRejectsZeroCoresAndExtraPrograms) {
  EXPECT_THROW(System(MachineConfig::hybrid_coherent(), 0), std::invalid_argument);
  System sys(MachineConfig::hybrid_coherent(), 1);
  VecStream a({VecStream::int_op(1)});
  VecStream b({VecStream::int_op(2)});
  EXPECT_THROW(sys.run({&a, &b}), std::invalid_argument);
  EXPECT_THROW(sys.run(std::vector<InstrStream*>{}), std::invalid_argument);
}

TEST(Tile, DmaPutFromTileAInvalidatesTileBsL1) {
  System sys(MachineConfig::hybrid_coherent(), 2);
  const Addr line = 0x40'0000;  // line-aligned SM address

  // Tile B caches the line (demand load fills L1 and the shared levels).
  sys.tile(1).hierarchy().access(0, line, AccessType::Read, /*pc=*/0x400);
  ASSERT_TRUE(sys.tile(1).hierarchy().l1d().probe(line));
  ASSERT_TRUE(sys.uncore().l2().probe(line));

  // Tile A writes the chunk back via its DMAC: the dma-put bus request must
  // invalidate the line in EVERY tile's L1 and in the shared levels.
  const Addr lm_base = sys.tile(0).lm()->base();
  sys.tile(0).dmac()->put(/*now=*/0, lm_base, line, /*size=*/64, /*tag=*/0);
  EXPECT_FALSE(sys.tile(1).hierarchy().l1d().probe(line));
  EXPECT_FALSE(sys.tile(0).hierarchy().l1d().probe(line));
  EXPECT_FALSE(sys.uncore().l2().probe(line));
  EXPECT_FALSE(sys.uncore().l3().probe(line));
  EXPECT_EQ(sys.uncore().stats().dma_invalidate_broadcasts, 1u);
}

TEST(Tile, SpmdSliceIsIdentityForOneTile) {
  const Workload w = make_cg({.factor = 0.1});
  const Workload s = make_spmd_slice(w, 0, 1);
  EXPECT_EQ(s.loop.iterations, w.loop.iterations);
  ASSERT_EQ(s.loop.arrays.size(), w.loop.arrays.size());
  for (std::size_t i = 0; i < w.loop.arrays.size(); ++i)
    EXPECT_EQ(s.loop.arrays[i].base, w.loop.arrays[i].base);
}

TEST(Tile, SpmdSlicesPartitionIterationsAndAddressSpace) {
  const Workload w = make_ft({.factor = 0.1});
  const unsigned n = 4;
  std::uint64_t total = 0;
  std::uint64_t longest = 0;
  for (unsigned t = 0; t < n; ++t) {
    const Workload s = make_spmd_slice(w, t, n);
    total += s.loop.iterations;
    if (t == 0) longest = s.loop.iterations;
    EXPECT_LE(s.loop.iterations, longest) << "tile 0 must be a longest tile";
    // Block-distributed private copies: each tile's arrays live in a
    // disjoint 64 GB region, chunk alignment preserved.
    for (std::size_t i = 0; i < w.loop.arrays.size(); ++i) {
      EXPECT_EQ(s.loop.arrays[i].base,
                w.loop.arrays[i].base + static_cast<Addr>(t) * 0x10'0000'0000ull);
      EXPECT_EQ(s.loop.arrays[i].base % (64 * 1024), 0u);
    }
  }
  EXPECT_EQ(total, w.loop.iterations);
  EXPECT_THROW(make_spmd_slice(w, 4, 4), std::invalid_argument);
  EXPECT_THROW(make_spmd_slice(w, 0, 0), std::invalid_argument);
}

TEST(Tile, SpmdSliceNeverFabricatesWorkWhenTilesOutnumberIterations) {
  Workload w;
  w.loop.iterations = 3;
  std::uint64_t total = 0;
  for (unsigned t = 0; t < 8; ++t) {
    const std::uint64_t it = make_spmd_slice(w, t, 8).loop.iterations;
    EXPECT_EQ(it, t < 3 ? 1u : 0u) << "tile " << t;
    total += it;
  }
  EXPECT_EQ(total, 3u);  // the partition sums to exactly the original work
}

TEST(Tile, AggregateCyclesAreMaxAndCountsAreSummed) {
  System sys(MachineConfig::hybrid_coherent(), 2);
  // Tile 0 runs a long dependent-load chain (each load waits for the
  // previous one), tile 1 a short program; disjoint addresses.
  std::vector<MicroOp> long_ops;
  for (int i = 0; i < 50; ++i) {
    MicroOp ld = VecStream::load(0x100'0000 + 0x1000 * i, 1);
    ld.src1 = 1;  // serialize on the previous load's result
    long_ops.push_back(ld);
  }
  VecStream p0(long_ops);
  VecStream p1({VecStream::int_op(1), VecStream::load(0x900'0000, 2)});

  const RunReport r = sys.run({&p0, &p1});
  ASSERT_EQ(r.tiles.size(), 2u);
  EXPECT_GT(r.tiles[0].cycles, r.tiles[1].cycles);
  EXPECT_EQ(r.cycles(), r.tiles[0].cycles);
  EXPECT_EQ(r.max_tile_cycles(), r.cycles());
  EXPECT_EQ(r.core.uops, r.tiles[0].uops + r.tiles[1].uops);
  EXPECT_EQ(r.core.loads, 51u);
  EXPECT_EQ(r.tiles[1].uops, 2u);
  // Aggregate L1 activity sums the per-tile private activity.
  EXPECT_EQ(r.l1_accesses, r.tiles[0].l1_accesses + r.tiles[1].l1_accesses);
  EXPECT_GT(r.tiles[0].energy, 0.0);
}

TEST(Tile, SingleProgramOnAMulticoreMatchesTheSingleCoreMachine) {
  // Idle tiles contribute nothing: a 4-tile system running one program
  // reports the same aggregate as the 1-tile system.
  VecStream prog({VecStream::load(0x1000, 1), VecStream::int_op(2, 1),
                  VecStream::store(0x2008, 2), VecStream::load(0x3000, 3)});
  System one(MachineConfig::hybrid_coherent(), 1);
  System four(MachineConfig::hybrid_coherent(), 4);
  const std::string a = serialized(one.run(prog));
  const std::string b = serialized(four.run(prog));
  EXPECT_EQ(a, b);
}

TEST(Tile, RepeatedMultiTileRunsAreColdAndIdentical) {
  // Cold-machine guarantee per tile: the same SPMD program set run twice on
  // one System must serialize to identical bytes (stats, uncore pools and
  // DMA bus windows all reset).  A System's first run skips the reset — its
  // constructors already left it cold — so each case below also checks
  // that the never-reset first run equals the reset second one.
  const auto run_twice = [](System& sys, const std::vector<InstrStream*>& progs) {
    const RunReport first = sys.run(progs);
    EXPECT_EQ(serialized(first), serialized(sys.run(progs)));
    return first;
  };
  {
    System sys(MachineConfig::hybrid_coherent(), 2);
    std::vector<MicroOp> ops0;
    for (int i = 0; i < 40; ++i) {
      ops0.push_back(VecStream::load(0x100'0000 + 0x940 * i, 1));
      ops0.push_back(VecStream::store(0x200'0000 + 0x940 * i, 1));
    }
    VecStream p0(ops0);
    VecStream p1({VecStream::dir_config(1024),
                  VecStream::dma_get(0x40'0000, MachineConfig::hybrid_coherent().lm.virtual_base,
                                     1024, 1),
                  VecStream::dma_synch(0x2), VecStream::gload(0x40'0008, 2),
                  VecStream::load(0x300'0000, 3)});
    run_twice(sys, {&p0, &p1});
  }
  {
    // A 2x2 mesh with two DRAM channels.  Tiles 0 and 3 stream over
    // consecutive lines, which home on every slice and so drain through
    // both channels: every channel's statistics must reset between runs,
    // not only channel 0's.
    MachineConfig cfg = MachineConfig::hybrid_coherent();
    cfg.noc.topology = Topology::Mesh;
    cfg.noc.mem_channels = 2;
    System sys(cfg, 4);
    std::vector<MicroOp> ops0, ops3;
    for (int i = 0; i < 64; ++i) {
      ops0.push_back(VecStream::load(0x100'0000 + 64 * i, 1));
      ops3.push_back(VecStream::store(0x200'0000 + 64 * i, 1));
    }
    VecStream p0(ops0), idle1, idle2, p3(ops3);
    const RunReport r = run_twice(sys, {&p0, &idle1, &idle2, &p3});
    EXPECT_GT(r.dram.requests, 0u);
  }
  {
    // Flat single-tile hybrid run that dirties the branch predictor (taken
    // branches train the BTB), the DMA bus (a dma-get and a dma-put book
    // windows) and the LM/directory.
    const MachineConfig cfg = MachineConfig::hybrid_coherent();
    System sys(cfg, 1);
    std::vector<MicroOp> ops = {VecStream::dir_config(1024),
                                VecStream::dma_get(0x40'0000, cfg.lm.virtual_base, 1024, 1),
                                VecStream::dma_synch(0x2)};
    for (int i = 0; i < 32; ++i) {
      ops.push_back(VecStream::gload(0x40'0008 + 8 * i, 2));
      ops.push_back(VecStream::load(0x300'0000 + 0x140 * i, 3));
      ops.push_back(VecStream::branch(i % 4 != 3, 0x500 + 4 * (i % 8)));
    }
    ops.push_back(VecStream::dma_put(cfg.lm.virtual_base, 0x50'0000, 1024, 2));
    ops.push_back(VecStream::dma_synch(0x4));
    VecStream p(ops);
    const RunReport r = run_twice(sys, {&p});
    EXPECT_GT(r.dma_bus.requests, 0u);
    EXPECT_GT(r.activity.branches, 0u);
  }
  {
    // A 4-tile ring: link lanes, per-tile DMA injection ports and the
    // sharer filter must start cold on the first run as on every later one.
    MachineConfig cfg = MachineConfig::hybrid_coherent();
    cfg.noc.topology = Topology::Ring;
    System sys(cfg, 4);
    std::vector<std::vector<MicroOp>> ops(4);
    for (unsigned t = 0; t < 4; ++t) {
      ops[t].push_back(VecStream::dir_config(1024));
      ops[t].push_back(VecStream::dma_get(0x40'0000 + 0x1'0000 * t, cfg.lm.virtual_base, 512, 1));
      ops[t].push_back(VecStream::dma_synch(0x2));
      for (int i = 0; i < 24; ++i) {
        ops[t].push_back(VecStream::load(0x100'0000 + 64 * (4 * i + t), 1));
        ops[t].push_back(VecStream::store(0x200'0000 + 64 * (4 * i + t), 1));
      }
      ops[t].push_back(VecStream::dma_put(cfg.lm.virtual_base, 0x100'0000 + 0x40 * t, 256, 2));
      ops[t].push_back(VecStream::dma_synch(0x4));
    }
    VecStream p0(ops[0]), p1(ops[1]), p2(ops[2]), p3(ops[3]);
    const RunReport r = run_twice(sys, {&p0, &p1, &p2, &p3});
    EXPECT_GT(r.noc_hops, 0u);
    EXPECT_GT(r.noc_links.requests, 0u);
  }
}

TEST(Tile, ScalingIsMonotonicOnEP) {
  // The acceptance bar for the scaling experiment: max-tile cycles must be
  // monotonically non-increasing from 1 to 16 cores on at least one NAS
  // kernel.  EP (compute-bound, minimal shared-resource pressure) is the
  // canonical one; run at the scaling spec's own scale.
  using namespace hm::driver;
  Cycle prev = 0;
  for (const char* cores : {"1", "2", "4", "8", "16"}) {
    SweepPoint p;
    p.label = std::string("scaling_probe/EP/") + cores;
    p.machine = "hybrid_coherent";
    p.workload = "EP";
    p.scale = 0.25;
    if (std::string(cores) != "1") p.knobs["cores"] = cores;
    const PointResult r = run_point(p);
    ASSERT_TRUE(r.ok) << r.error;
    // The occupancy model must cover the whole run at every core count.
    EXPECT_EQ(r.report.contention_overflows(), 0u) << "cores=" << cores;
    if (prev != 0) {
      EXPECT_LE(r.report.cycles(), prev) << "cores=" << cores << " regressed";
    }
    prev = r.report.cycles();
  }
}

TEST(Tile, SharedResourceContentionIsReportedAndGrowsWithTiles) {
  // The RunReport contention sections come straight from the uncore's
  // shared resources: a 2-core SPMD run of the same kernel must book at
  // least as many L2-port slots as the 1-core run and report machine-wide
  // queueing; a 1-core run reports zero DMA-bus delay (a lone DMAC never
  // contends with itself).
  using namespace hm::driver;
  RunReport reports[2];
  for (const unsigned cores : {1u, 2u}) {
    SweepPoint p;
    p.label = "contention_probe/SP/" + std::to_string(cores);
    p.machine = "hybrid_coherent";
    p.workload = "SP";
    p.scale = 0.1;
    if (cores != 1) p.knobs["cores"] = std::to_string(cores);
    const PointResult r = run_point(p);
    ASSERT_TRUE(r.ok) << r.error;
    reports[cores - 1] = r.report;
  }
  EXPECT_GT(reports[0].l2_port.requests, 0u);
  EXPECT_EQ(reports[0].dma_bus.delayed, 0u);
  EXPECT_EQ(reports[0].contention_overflows(), 0u);
  EXPECT_GE(reports[1].l2_port.requests, reports[0].l2_port.requests);
  EXPECT_GT(reports[1].dma_bus.requests, 0u);
  EXPECT_EQ(reports[1].contention_overflows(), 0u);
}

TEST(Tile, CoresKnobValidation) {
  using namespace hm::driver;
  SweepPoint p;
  p.machine = "hybrid_coherent";
  p.workload = "CG";
  p.scale = 0.05;
  p.knobs["cores"] = "0";
  EXPECT_THROW(run_point(p), std::invalid_argument);
  p.knobs["cores"] = "257";
  EXPECT_THROW(run_point(p), std::invalid_argument);
  p.knobs["cores"] = "2";
  p.knobs["topology"] = "grid";  // unknown topology spelling
  EXPECT_THROW(run_point(p), std::invalid_argument);
  p.knobs["topology"] = "flat";
  p.knobs["mesh_dim"] = "2";  // mesh_dim without topology=mesh
  EXPECT_THROW(run_point(p), std::invalid_argument);
  p.knobs["topology"] = "mesh";
  p.knobs["mesh_dim"] = "3";  // 3 does not divide 2 cores
  EXPECT_THROW(run_point(p), std::invalid_argument);
  p.knobs.erase("topology");
  p.knobs.erase("mesh_dim");
  p.workload = "micro";
  p.knobs["cores"] = "2";
  EXPECT_THROW(run_point(p), std::invalid_argument);
}

}  // namespace
}  // namespace hm
