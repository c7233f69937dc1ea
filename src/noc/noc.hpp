// Network-on-chip topology layer for the tile-based multicore machine.
//
// The flat shared Uncore of PR 3–4 arbitrates every tile against the same
// L2/L3 port pools, one DRAM channel and one DMA bus — fine up to ~16
// tiles, unrealistic beyond.  This subsystem models the interconnect a
// hundreds-of-tiles machine actually has (Graphite's Tile/Network split is
// the exemplar decomposition):
//
//  * a configurable topology — a 2D mesh of routers (XY dimension-ordered
//    routing) or, for small counts, a bidirectional ring — with one node
//    per tile, row-major;
//  * per-hop latency plus store-and-forward serialization: a message of F
//    flits leaving a router occupies the outgoing link for F cycles and
//    arrives hop_latency + F cycles later, so an idle-network traversal
//    takes exactly hops * (hop_latency + flits) cycles;
//  * per-link occupancy on full-run gap-1 OccupancyTimelines (the same
//    counted-never-silent overflow discipline as every other shared
//    resource — see common/occupancy.hpp): two messages crossing the same
//    directed link in overlapping cycles queue, and the queueing is exact
//    over the whole run, not a trailing window.
//
// Topology::Flat constructs no Noc: the Uncore is then 1 home slice, 1
// DMA port shared by every tile, 1 DRAM channel, no links and no sharer
// filter — byte-identical to every existing golden.  Mesh/ring give the
// same Uncore one address-interleaved home slice (L2/L3 ports) and one DMA
// injection port per tile, per-channel DRAM and a sharded DMA-coherence
// sharer filter; a tile's miss traverses the network to its line's home
// slice before booking any slice resource, and the response traverses
// back.
//
// Routing is deterministic (XY on the mesh; shorter arc, clockwise on
// ties, on the ring) so the same access stream books the same links at
// the same cycles regardless of --jobs.  Thread-safety follows the
// occupancy-timeline rule: none (traverse() books shared timelines).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/occupancy.hpp"
#include "common/types.hpp"

namespace hm {

enum class Topology { Flat, Mesh, Ring };

const char* topology_name(Topology t);

struct NocConfig {
  Topology topology = Topology::Flat;
  /// Mesh dimensions; 0 = derive a near-square X*Y == n_nodes factoring
  /// (X <= Y).  When set, mesh_x * mesh_y must equal the tile count.
  unsigned mesh_x = 0;
  unsigned mesh_y = 0;
  Cycle hop_latency = 2;     ///< router traversal + link latency per hop
  unsigned flit_bytes = 16;  ///< link width: a 64 B line moves as 4 flits
  /// DRAM channels behind the home slices; 0 = one channel per 16 nodes
  /// (minimum 1).  Home slice s drains through channel s % channels.
  unsigned mem_channels = 0;

  bool active() const { return topology != Topology::Flat; }
  /// Channel count for an @p n_nodes machine (>= 1; identity 1 when flat).
  unsigned channels_for(unsigned n_nodes) const;
};

class Noc {
 public:
  /// Builds the link graph for @p n_nodes tiles.  Throws
  /// std::invalid_argument for an inactive topology, zero nodes, or mesh
  /// dimensions that do not multiply to @p n_nodes.
  Noc(const NocConfig& cfg, unsigned n_nodes);

  Noc(const Noc&) = delete;
  Noc& operator=(const Noc&) = delete;

  unsigned nodes() const { return n_; }
  unsigned mesh_x() const { return x_; }
  unsigned mesh_y() const { return y_; }
  const NocConfig& config() const { return cfg_; }

  /// Flits a @p bytes-byte payload occupies (>= 1: a header flit carries
  /// request-only messages).
  unsigned flits_for(Bytes bytes) const {
    const unsigned f = static_cast<unsigned>((bytes + cfg_.flit_bytes - 1) / cfg_.flit_bytes);
    return f == 0 ? 1 : f;
  }

  /// Route length in hops (mesh: Manhattan distance; ring: shorter arc).
  unsigned route_hops(unsigned src, unsigned dst) const;

  /// Move a @p flits-flit message from @p src to @p dst starting at
  /// @p now: books every link on the deterministic route and returns the
  /// arrival cycle.  Idle network: now + route_hops * (hop_latency +
  /// flits).  src == dst is a local access — no hops, arrival == now.
  Cycle traverse(unsigned src, unsigned dst, Cycle now, unsigned flits);

  /// Directed link src -> dst (must be neighbors); null when absent.
  /// Test/report access — traverse() is the booking path.
  SharedResource* link(unsigned src, unsigned dst);
  const SharedResource* link(unsigned src, unsigned dst) const;

  /// Contention summed over every link (requests/delayed/queue_cycles/
  /// overflows added, peak_occupancy maxed) — the RunReport aggregate.
  /// Per-link counters stay on the links.
  SharedResource::Contention link_contention() const;

  std::uint64_t messages() const { return msgs_; }
  std::uint64_t total_hops() const { return hops_; }
  std::uint64_t total_flits() const { return flits_; }
  /// hop_histogram()[h] = messages whose route was exactly h hops.
  const std::vector<std::uint64_t>& hop_histogram() const { return hop_hist_; }

  /// Every SharedResource link, for trace emission.  Stable order.
  std::vector<const SharedResource*> all_links() const;

  /// Free all link timelines (epoch reset); statistics are left alone.
  void reset();
  /// Clear link contention statistics and the message/hop/flit counters.
  void reset_stats();

 private:
  unsigned next_hop(unsigned cur, unsigned dst) const;
  SharedResource& link_to(unsigned src, unsigned dst);

  NocConfig cfg_;
  unsigned n_ = 0;
  unsigned x_ = 0, y_ = 0;  ///< mesh dims (ring: x_ = n_, y_ = 1)
  /// Directed links, indexed node * kDirs + dir.  Mesh dirs: 0 = +x,
  /// 1 = -x, 2 = +y, 3 = -y.  Ring dirs: 0 = clockwise (+1), 1 = counter-
  /// clockwise.  Null where the neighbor does not exist.
  static constexpr unsigned kDirs = 4;
  std::vector<std::unique_ptr<SharedResource>> links_;
  std::uint64_t msgs_ = 0;
  std::uint64_t hops_ = 0;
  std::uint64_t flits_ = 0;
  std::vector<std::uint64_t> hop_hist_;
};

}  // namespace hm
