// NoC invariants: Manhattan routing on an idle mesh, the direct route walk
// against the per-hop next_hop reference, flat vs one-tile mesh/ring
// equivalence, the flat machine's one shared DMA port, counted-never-silent
// per-link overflow accounting, trace lane names, and deterministic routing
// across repeated runs.
#include "noc/noc.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "driver/result.hpp"
#include "driver/sweep.hpp"
#include "memory/uncore.hpp"
#include "obs/trace.hpp"
#include "sim/report.hpp"

namespace hm {
namespace {

NocConfig mesh_cfg() {
  NocConfig cfg;
  cfg.topology = Topology::Mesh;
  return cfg;
}

TEST(Noc, MeshHopCountIsManhattanDistance) {
  Noc noc(mesh_cfg(), 16);  // near-square auto-factor: 4x4
  ASSERT_EQ(noc.mesh_x(), 4u);
  ASSERT_EQ(noc.mesh_y(), 4u);
  for (unsigned s = 0; s < 16; ++s) {
    for (unsigned d = 0; d < 16; ++d) {
      const unsigned sx = s % 4, sy = s / 4, dx = d % 4, dy = d / 4;
      const unsigned manhattan =
          (sx > dx ? sx - dx : dx - sx) + (sy > dy ? sy - dy : dy - sy);
      EXPECT_EQ(noc.route_hops(s, d), manhattan) << s << "->" << d;
    }
  }
}

TEST(Noc, IdleMeshTraversalIsHopsTimesHopCost) {
  NocConfig cfg = mesh_cfg();
  cfg.hop_latency = 2;
  Noc noc(cfg, 16);
  // One message on an idle mesh: no queueing, so arrival is exactly
  // hops x (hop_latency + flits) after injection (store-and-forward).
  const unsigned flits = 4;
  const Cycle t = noc.traverse(0, 15, Cycle{100}, flits);
  const unsigned hops = noc.route_hops(0, 15);
  EXPECT_EQ(hops, 6u);
  EXPECT_EQ(t, Cycle{100} + hops * (cfg.hop_latency + flits));
  EXPECT_EQ(noc.messages(), 1u);
  EXPECT_EQ(noc.total_hops(), hops);
  EXPECT_EQ(noc.link_contention().delayed, 0u);
  // Self-traversal is free: the tile IS its own home slice.
  EXPECT_EQ(noc.traverse(3, 3, Cycle{100}, flits), Cycle{100});
}

TEST(Noc, OneByTwoMeshRoutesAlongY) {
  // Regression: on a 1xN mesh node i+1 is the +y neighbor — index
  // arithmetic that assumes +1 means +x used to find no link here.
  Noc noc(mesh_cfg(), 2);  // 1x2
  EXPECT_EQ(noc.route_hops(0, 1), 1u);
  EXPECT_EQ(noc.traverse(0, 1, Cycle{0}, 1),
            Cycle{noc.config().hop_latency + 1});
  EXPECT_EQ(noc.traverse(1, 0, Cycle{0}, 1),
            Cycle{noc.config().hop_latency + 1});
}

TEST(Noc, RingRoutesTheShorterArc) {
  NocConfig cfg;
  cfg.topology = Topology::Ring;
  Noc noc(cfg, 8);
  EXPECT_EQ(noc.route_hops(0, 3), 3u);
  EXPECT_EQ(noc.route_hops(0, 5), 3u);  // counter-clockwise is shorter
  EXPECT_EQ(noc.route_hops(0, 4), 4u);  // tie -> still 4 hops
  EXPECT_EQ(noc.route_hops(6, 1), 3u);  // wraps around
}

using Link = std::pair<unsigned, unsigned>;  ///< directed link (from, to)

/// The per-hop router the direct walk replaced, kept as the reference: XY
/// on the mesh, shorter arc (ties clockwise) on the ring, one hop at a time.
unsigned ref_next_hop(const Noc& noc, unsigned cur, unsigned dst) {
  if (noc.config().topology == Topology::Mesh) {
    const unsigned x = noc.mesh_x();
    const unsigned cx = cur % x, dx = dst % x;
    if (cx < dx) return cur + 1;
    if (cx > dx) return cur - 1;
    return cur / x < dst / x ? cur + x : cur - x;
  }
  const unsigned n = noc.nodes();
  const unsigned cw = (dst + n - cur) % n;
  const unsigned ccw = n - cw;
  return cw <= ccw ? (cur + 1) % n : (cur + n - 1) % n;
}

std::vector<Link> ref_route(const Noc& noc, unsigned src, unsigned dst) {
  std::vector<Link> route;
  for (unsigned cur = src; cur != dst;) {
    const unsigned next = ref_next_hop(noc, cur, dst);
    route.emplace_back(cur, next);
    cur = next;
  }
  return route;
}

/// Link of every lane, read back from its trace name noc_l<from>_<to>.
std::vector<Link> lane_links(const Noc& noc) {
  std::vector<Link> links(noc.links().size());
  for (unsigned lane = 0; lane < links.size(); ++lane) {
    const std::string name = noc.links().name(lane);
    EXPECT_EQ(std::sscanf(name.c_str(), "noc_l%u_%u", &links[lane].first, &links[lane].second),
              2)
        << name;
  }
  return links;
}

TEST(Noc, DirectWalkMatchesNextHopReference) {
  struct Shape {
    Topology topology;
    unsigned nodes;
    unsigned mesh_x;  // 0 = near-square auto-factor
  };
  std::vector<Shape> shapes = {{Topology::Mesh, 7, 0},  // prime: 1x7 line
                               {Topology::Mesh, 4, 0},
                               {Topology::Mesh, 15, 3},
                               {Topology::Mesh, 16, 0},
                               {Topology::Mesh, 256, 0}};
  for (unsigned n = 1; n <= 9; ++n) shapes.push_back({Topology::Ring, n, 0});
  for (const Shape& shape : shapes) {
    NocConfig cfg;
    cfg.topology = shape.topology;
    cfg.mesh_x = shape.mesh_x;
    cfg.mesh_y = shape.mesh_x != 0 ? shape.nodes / shape.mesh_x : 0;
    Noc noc(cfg, shape.nodes);
    SCOPED_TRACE(std::string(topology_name(shape.topology)) + " " +
                 std::to_string(noc.mesh_x()) + "x" + std::to_string(noc.mesh_y()));
    const std::vector<Link> links = lane_links(noc);
    for (unsigned s = 0; s < shape.nodes; ++s) {
      for (unsigned d = 0; d < shape.nodes; ++d) {
        const std::vector<Link> want = ref_route(noc, s, d);
        std::vector<Link> got;
        const unsigned h = noc.walk(s, d, [&](unsigned lane) { got.push_back(links[lane]); });
        ASSERT_EQ(got, want) << s << "->" << d;
        ASSERT_EQ(h, want.size()) << s << "->" << d;
        ASSERT_EQ(noc.route_hops(s, d), want.size()) << s << "->" << d;
      }
    }
  }
}

TEST(Noc, TraverseBooksExactlyTheWalkedLinks) {
  for (const Topology topology : {Topology::Mesh, Topology::Ring}) {
    NocConfig cfg;
    cfg.topology = topology;
    Noc noc(cfg, 6);  // mesh 2x3, ring of 6
    constexpr unsigned kFlits = 3;
    for (unsigned s = 0; s < 6; ++s) {
      for (unsigned d = 0; d < 6; ++d) {
        noc.reset();  // idle network; the statistics keep accumulating
        std::vector<std::uint64_t> before(noc.links().size());
        for (unsigned lane = 0; lane < before.size(); ++lane)
          before[lane] = noc.links().contention(lane).requests;
        std::vector<std::uint64_t> want = before;
        const unsigned h = noc.walk(s, d, [&](unsigned lane) { ++want[lane]; });
        EXPECT_EQ(noc.traverse(s, d, Cycle{50}, kFlits),
                  Cycle{50} + h * (cfg.hop_latency + kFlits));
        for (unsigned lane = 0; lane < want.size(); ++lane)
          EXPECT_EQ(noc.links().contention(lane).requests, want[lane])
              << topology_name(topology) << " " << s << "->" << d << " lane " << lane;
      }
    }
  }
}

TEST(Noc, ZeroFlitWidthIsRejected) {
  // flits_for divides by the flit width: a zero width must fail at
  // construction, like bad mesh dimensions, not crash mid-run.
  NocConfig cfg = mesh_cfg();
  cfg.flit_bytes = 0;
  EXPECT_THROW(Noc(cfg, 4), std::invalid_argument);
  cfg.topology = Topology::Ring;
  EXPECT_THROW(Noc(cfg, 4), std::invalid_argument);
  cfg.flit_bytes = 1;
  EXPECT_EQ(Noc(cfg, 4).flits_for(64), 64u);
}

TEST(Noc, TraceLanesKeepTheirResourceNames) {
  // The lanes are named only when a trace needs them; the names are the
  // res.<resource> lanes trace tooling keys on: delay spans of queued
  // bookings, and the end-of-run contention summaries of every link and
  // DMA port that saw traffic.
  obs::TraceSink sink;
  {
    obs::ScopedThreadSink scope(&sink);
    Noc noc(mesh_cfg(), 4);  // 2x2
    noc.traverse(0, 1, Cycle{10}, 40);  // holds link 0 -> 1 for 40 cycles
    noc.traverse(0, 1, Cycle{10}, 40);  // queued 40 cycles: a delay span

    const HierarchyConfig hcfg;
    SetAssocCache l1(hcfg.l1d);
    Uncore flat(hcfg);
    flat.register_l1(&l1);
    flat.dma_bus_grant(0, 10, 0);
    flat.emit_contention_trace(Cycle{1000});
    Uncore mesh(hcfg, mesh_cfg(), 4);  // 2x2
    mesh.dma_bus_grant(0, 10, 1);
    mesh.traverse(2, 3, Cycle{0}, 1);  // undelayed: only the summary names it
    mesh.emit_contention_trace(Cycle{1000});
  }
  const std::string json = sink.to_json();
  EXPECT_NE(json.find("\"res.noc_l0_1\""), std::string::npos);
  EXPECT_EQ(json.find("res.noc_l1_0"), std::string::npos);  // never delayed
  EXPECT_NE(json.find("\"res.dma_bus\""), std::string::npos);
  EXPECT_NE(json.find("\"res.dma_inj1\""), std::string::npos);
  EXPECT_EQ(json.find("res.dma_inj0"), std::string::npos);  // no traffic, no summary
  EXPECT_NE(json.find("\"res.noc_l2_3\""), std::string::npos);
  EXPECT_EQ(json.find("res.noc_l3_2"), std::string::npos);
}

TEST(Noc, HopHistogramSumsToMessages) {
  Noc noc(mesh_cfg(), 4);  // 2x2
  noc.traverse(0, 0, Cycle{0}, 1);
  noc.traverse(0, 1, Cycle{0}, 1);
  noc.traverse(0, 3, Cycle{0}, 1);
  noc.traverse(3, 0, Cycle{0}, 1);
  const std::vector<std::uint64_t>& hist = noc.hop_histogram();
  ASSERT_EQ(hist.size(), 3u);  // diameter 2
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(hist[2], 2u);
  std::uint64_t sum = 0;
  for (std::uint64_t h : hist) sum += h;
  EXPECT_EQ(sum, noc.messages());
}

TEST(Noc, PerLinkOverflowIsCountedNeverSilent) {
  Noc noc(mesh_cfg(), 4);
  EXPECT_EQ(noc.link_contention().overflows, 0u);
  // A booking past the occupancy horizon must surface in the aggregated
  // link contention — the driver fails any point whose report carries a
  // nonzero overflow count instead of publishing understated numbers.
  noc.traverse(0, 1, Cycle{std::uint64_t{1} << 40}, 1);
  EXPECT_GE(noc.link_contention().overflows, 1u);
}

TEST(Noc, LinkQueueingDelaysOverlappingMessages) {
  Noc noc(mesh_cfg(), 4);
  const Cycle first = noc.traverse(0, 1, Cycle{10}, 4);
  const Cycle second = noc.traverse(0, 1, Cycle{10}, 4);
  EXPECT_GT(second, first);  // same link, same cycle: one of them queues
  const Contention c = noc.link_contention();
  EXPECT_EQ(c.requests, 2u);
  EXPECT_EQ(c.delayed, 1u);
  EXPECT_GT(c.queue_cycles, 0u);
}

driver::SweepPoint cg_point(const std::string& topology, const std::string& cores,
                            const std::string& machine = "hybrid_coherent") {
  driver::SweepPoint p;
  p.machine = machine;
  p.workload = "CG";
  p.scale = 0.05;
  p.label = "noc_test/CG/" + machine + "/" + topology + "/" + cores;
  if (topology != "flat") p.knobs["topology"] = topology;
  if (cores != "1") p.knobs["cores"] = cores;
  return p;
}

std::string serialized(const RunReport& r) {
  std::string s;
  append_report_fields(s, r);
  return s;
}

/// The report's serialized fields minus the noc_* section.
FieldMap fields_without_noc(const RunReport& r) {
  FieldMap fields;
  EXPECT_TRUE(driver::parse_flat_json("{" + serialized(r) + "}", fields));
  std::erase_if(fields, [](const auto& kv) { return kv.first.starts_with("noc_"); });
  return fields;
}

TEST(Noc, FlatMachineMatchesUnitMesh) {
  // A one-tile mesh or ring degenerates to the flat uncore: the tile is
  // its own home slice, every traversal is zero hops, there is one DRAM
  // channel and one DMA port — so every reported field must match the
  // flat machine exactly.  Only the noc_* section differs (presence
  // marker).
  for (const char* machine : {"hybrid_coherent", "cache_based"}) {
    const driver::PointResult flat = driver::run_point(cg_point("flat", "1", machine));
    ASSERT_TRUE(flat.ok) << flat.error;
    EXPECT_EQ(flat.report.noc_nodes, 0u);
    const FieldMap flat_fields = fields_without_noc(flat.report);
    for (const char* topology : {"mesh", "ring"}) {
      SCOPED_TRACE(std::string(machine) + "/" + topology);
      const driver::PointResult one = driver::run_point(cg_point(topology, "1", machine));
      ASSERT_TRUE(one.ok) << one.error;
      EXPECT_EQ(fields_without_noc(one.report), flat_fields);
      EXPECT_EQ(one.report.noc_nodes, 1u);
      EXPECT_EQ(one.report.noc_hops, 0u);  // a single node never crosses a link
    }
  }
}

TEST(Noc, FlatSharesOneDmaBusMeshInjectsPerTile) {
  // What keeps flat from being merely the one-slice case of mesh: flat
  // has ONE DMA bus shared by every tile, so overlapping command windows
  // from two tiles serialize; a mesh gives each tile its own injection
  // port, so they don't.
  const HierarchyConfig cfg;
  SetAssocCache l1_a(cfg.l1d), l1_b(cfg.l1d);

  Uncore flat(cfg);
  ASSERT_EQ(flat.register_l1(&l1_a), 0u);
  ASSERT_EQ(flat.register_l1(&l1_b), 1u);
  EXPECT_EQ(flat.dma_bus_grant(0, 10, 0), 0u);
  EXPECT_EQ(flat.dma_bus_grant(0, 10, 1), 10u);

  Uncore mesh(cfg, mesh_cfg(), 2);  // 1x2
  ASSERT_EQ(mesh.register_l1(&l1_a), 0u);
  ASSERT_EQ(mesh.register_l1(&l1_b), 1u);
  EXPECT_EQ(mesh.dma_bus_grant(0, 10, 0), 0u);
  EXPECT_EQ(mesh.dma_bus_grant(0, 10, 1), 0u);
}

TEST(Noc, MeshRoutingIsDeterministicAcrossRuns) {
  const driver::PointResult serial = driver::run_point(cg_point("mesh", "4"));
  const driver::PointResult again = driver::run_point(cg_point("mesh", "4"));
  ASSERT_TRUE(serial.ok) << serial.error;
  EXPECT_EQ(serialized(serial.report), serialized(again.report));
}

TEST(Noc, MeshReportSurvivesSerializationRoundTrip) {
  const driver::PointResult mesh = driver::run_point(cg_point("mesh", "4"));
  ASSERT_TRUE(mesh.ok) << mesh.error;
  ASSERT_EQ(mesh.report.noc_nodes, 4u);
  EXPECT_GT(mesh.report.noc_msgs, 0u);
  EXPECT_GT(mesh.report.noc_hops, 0u);
  const std::string text = "{" + serialized(mesh.report) + "}";
  FieldMap fields;
  ASSERT_TRUE(driver::parse_flat_json(text, fields));
  const RunReport back = report_from_fields(fields);
  EXPECT_EQ(serialized(back), serialized(mesh.report));
  EXPECT_EQ(back.noc_hop_hist, mesh.report.noc_hop_hist);
  // Flat reports must not even mention the section.
  const driver::PointResult flat = driver::run_point(cg_point("flat", "1"));
  ASSERT_TRUE(flat.ok) << flat.error;
  EXPECT_EQ(serialized(flat.report).find("noc_"), std::string::npos);
}

TEST(Noc, MeshDimKnobPinsTheFactoring) {
  driver::SweepPoint p = cg_point("mesh", "8");
  p.knobs["mesh_dim"] = "2";
  const driver::PointResult r = driver::run_point(p);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.report.noc_mesh_x, 2u);
  EXPECT_EQ(r.report.noc_mesh_y, 4u);
}

}  // namespace
}  // namespace hm
