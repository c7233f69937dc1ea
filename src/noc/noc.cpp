#include "noc/noc.hpp"

#include <cmath>
#include <stdexcept>

namespace hm {

const char* topology_name(Topology t) {
  switch (t) {
    case Topology::Flat: return "flat";
    case Topology::Mesh: return "mesh";
    case Topology::Ring: return "ring";
  }
  return "?";
}

unsigned NocConfig::channels_for(unsigned n_nodes) const {
  if (!active()) return 1;
  if (mem_channels != 0) return mem_channels;
  const unsigned c = n_nodes / 16;
  return c == 0 ? 1 : c;
}

namespace {

/// Near-square factoring: the largest divisor of @p n at or below sqrt(n).
/// Powers of two — every shipped core count — give 1x2, 2x2, 2x4, 4x4,
/// 8x8, 16x16; a prime count degenerates to a 1xN line, still a valid
/// mesh.
unsigned near_square_x(unsigned n) {
  unsigned x = static_cast<unsigned>(std::sqrt(static_cast<double>(n)));
  if (x == 0) x = 1;
  while (n % x != 0) --x;
  return x;
}

}  // namespace

Noc::Noc(const NocConfig& cfg, unsigned n_nodes)
    : cfg_(cfg),
      n_(n_nodes),
      links_(n_nodes * kDirs, 1, [this](unsigned lane) { return link_name(lane); }) {
  if (!cfg_.active()) throw std::invalid_argument("Noc requires mesh or ring topology");
  if (n_ == 0) throw std::invalid_argument("Noc requires at least one node");
  if (cfg_.flit_bytes == 0) throw std::invalid_argument("Noc requires a nonzero flit width");
  if (cfg_.topology == Topology::Mesh) {
    x_ = cfg_.mesh_x != 0 ? cfg_.mesh_x : near_square_x(n_);
    y_ = cfg_.mesh_y != 0 ? cfg_.mesh_y : n_ / x_;
    if (x_ * y_ != n_)
      throw std::invalid_argument("mesh dimensions " + std::to_string(x_) + "x" +
                                  std::to_string(y_) + " do not cover " +
                                  std::to_string(n_) + " tiles");
  } else {
    x_ = n_;
    y_ = 1;
  }

  // Longest possible route bounds the histogram: mesh diameter
  // (x-1)+(y-1), ring floor(n/2).
  const unsigned max_hops =
      cfg_.topology == Topology::Mesh ? (x_ - 1) + (y_ - 1) : n_ / 2;
  hop_hist_.assign(max_hops + 1, 0);
}

std::string Noc::link_name(unsigned lane) const {
  const unsigned src = lane / kDirs, dir = lane % kDirs;
  unsigned dst;
  if (cfg_.topology == Topology::Mesh)
    dst = dir == 0 ? src + 1 : dir == 1 ? src - 1 : dir == 2 ? src + x_ : src - x_;
  else
    dst = dir == 0 ? (src + 1) % n_ : (src + n_ - 1) % n_;
  return "noc_l" + std::to_string(src) + "_" + std::to_string(dst);
}

Cycle Noc::traverse(unsigned src, unsigned dst, Cycle now, unsigned flits) {
  ++msgs_;
  flits_ += flits;
  // Store-and-forward: each hop holds its link for the message's own flit
  // count starting when the link is free (queued behind any overlapping
  // message), then spends the hop latency in the next router.
  Cycle t = now;
  const unsigned h = walk(src, dst, [&](unsigned lane) {
    t = links_.book(lane, t, flits) + cfg_.hop_latency + flits;
  });
  hops_ += h;
  hop_hist_[h] += 1;
  return t;
}

void Noc::reset() { links_.reset(); }

void Noc::reset_stats() {
  links_.reset_stats();
  msgs_ = hops_ = flits_ = 0;
  std::fill(hop_hist_.begin(), hop_hist_.end(), 0);
}

}  // namespace hm
