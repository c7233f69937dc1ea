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
//  * per-link occupancy as the lanes of one full-run span bitmap
//    (SharedLanes over SpanLanes, lane = node * 4 + direction — see
//    common/occupancy.hpp; the uncore's DMA ports are lanes of the same
//    kind of bitmap), with the same counted-never-silent overflow
//    discipline as every other shared resource: two messages crossing the
//    same directed link in overlapping cycles queue, and the queueing is
//    exact over the whole run, not a trailing window.
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
// the same cycles regardless of --jobs.  Routes are walked directly: the
// coordinates are computed once per message and each leg steps one
// direction, so a hop is one lane booking.  Thread-safety follows the
// occupancy rule: none (traverse() books the shared link lanes).
#pragma once

#include <cstdint>
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
  /// Builds the link lanes for @p n_nodes tiles.  Throws
  /// std::invalid_argument for an inactive topology, zero nodes, a zero
  /// flit width, or mesh dimensions that do not multiply to @p n_nodes.
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
  unsigned route_hops(unsigned src, unsigned dst) const {
    return walk(src, dst, [](unsigned) {});
  }

  /// Move a @p flits-flit message from @p src to @p dst starting at
  /// @p now: books every link on the deterministic route and returns the
  /// arrival cycle.  Idle network: now + route_hops * (hop_latency +
  /// flits).  src == dst is a local access — no hops, arrival == now.
  Cycle traverse(unsigned src, unsigned dst, Cycle now, unsigned flits);

  /// Visit the directed links of the deterministic @p src -> @p dst route
  /// in order, calling @p hop(lane) once per link (lane = node * 4 +
  /// direction, see links()); returns the hop count.  The coordinates are
  /// computed once and each leg steps one direction.
  template <class Hop>
  unsigned walk(unsigned src, unsigned dst, Hop&& hop) const {
    if (cfg_.topology == Topology::Mesh) {
      // XY dimension-ordered: finish the x dimension, then y.
      // Deterministic and deadlock-free; with X*Y == n every intermediate
      // node exists.
      const unsigned sx = src % x_, sy = src / x_;
      const unsigned dx = dst % x_, dy = dst / x_;
      unsigned node = src;
      for (unsigned x = sx; x < dx; ++x, ++node) hop(kDirs * node + 0);
      for (unsigned x = sx; x > dx; --x, --node) hop(kDirs * node + 1);
      for (unsigned y = sy; y < dy; ++y, node += x_) hop(kDirs * node + 2);
      for (unsigned y = sy; y > dy; --y, node -= x_) hop(kDirs * node + 3);
      return (sx > dx ? sx - dx : dx - sx) + (sy > dy ? sy - dy : dy - sy);
    }
    // Ring: the shorter arc, ties clockwise.  Each hop shortens the chosen
    // arc and lengthens the other, so the direction never changes en route.
    const unsigned cw = (dst + n_ - src) % n_;
    const bool clockwise = cw <= n_ - cw;
    const unsigned h = clockwise ? cw : n_ - cw;
    unsigned node = src;
    for (unsigned i = 0; i < h; ++i) {
      hop(kDirs * node + (clockwise ? 0 : 1));
      node = clockwise ? (node + 1 == n_ ? 0 : node + 1) : (node == 0 ? n_ - 1 : node - 1);
    }
    return h;
  }

  /// Contention summed over every link (requests/delayed/queue_cycles/
  /// overflows added, peak_occupancy maxed) — the RunReport aggregate.
  /// Per-link counters stay on the lanes.
  Contention link_contention() const { return links_.total(); }

  /// The link lanes (lane = node * 4 + direction, named noc_l<src>_<dst>;
  /// lanes of absent links are never booked), for trace emission.
  const SharedLanes& links() const { return links_; }

  std::uint64_t messages() const { return msgs_; }
  std::uint64_t total_hops() const { return hops_; }
  std::uint64_t total_flits() const { return flits_; }
  /// hop_histogram()[h] = messages whose route was exactly h hops.
  const std::vector<std::uint64_t>& hop_histogram() const { return hop_hist_; }

  /// Free all links (epoch reset); statistics are left alone.
  void reset();
  /// Clear link contention statistics and the message/hop/flit counters.
  void reset_stats();

 private:
  /// Name of link lane @p lane: noc_l<src>_<dst>.
  std::string link_name(unsigned lane) const;

  NocConfig cfg_;
  unsigned n_ = 0;
  unsigned x_ = 0, y_ = 0;  ///< mesh dims (ring: x_ = n_, y_ = 1)
  /// Directed links, lane node * kDirs + dir.  Mesh dirs: 0 = +x, 1 = -x,
  /// 2 = +y, 3 = -y.  Ring dirs: 0 = clockwise (+1), 1 = counter-
  /// clockwise.
  static constexpr unsigned kDirs = 4;
  SharedLanes links_;
  std::uint64_t msgs_ = 0;
  std::uint64_t hops_ = 0;
  std::uint64_t flits_ = 0;
  std::vector<std::uint64_t> hop_hist_;
};

}  // namespace hm
