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

Noc::Noc(const NocConfig& cfg, unsigned n_nodes) : cfg_(cfg), n_(n_nodes) {
  if (!cfg_.active()) throw std::invalid_argument("Noc requires mesh or ring topology");
  if (n_ == 0) throw std::invalid_argument("Noc requires at least one node");
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

  // Directed gap-1 links; names feed the res.<name> trace lanes.
  links_.resize(static_cast<std::size_t>(n_) * kDirs);
  const auto make_link = [&](unsigned src, unsigned dir, unsigned dst) {
    links_[static_cast<std::size_t>(src) * kDirs + dir] = std::make_unique<SharedResource>(
        "noc_l" + std::to_string(src) + "_" + std::to_string(dst), Cycle{1});
  };
  if (cfg_.topology == Topology::Mesh) {
    for (unsigned i = 0; i < n_; ++i) {
      const unsigned cx = i % x_, cy = i / x_;
      if (cx + 1 < x_) make_link(i, 0, i + 1);
      if (cx > 0) make_link(i, 1, i - 1);
      if (cy + 1 < y_) make_link(i, 2, i + x_);
      if (cy > 0) make_link(i, 3, i - x_);
    }
  } else if (n_ > 1) {
    for (unsigned i = 0; i < n_; ++i) {
      make_link(i, 0, (i + 1) % n_);
      make_link(i, 1, (i + n_ - 1) % n_);
    }
  }

  // Longest possible route bounds the histogram: mesh diameter
  // (x-1)+(y-1), ring floor(n/2).
  const unsigned max_hops =
      cfg_.topology == Topology::Mesh ? (x_ - 1) + (y_ - 1) : n_ / 2;
  hop_hist_.assign(max_hops + 1, 0);
}

unsigned Noc::route_hops(unsigned src, unsigned dst) const {
  if (cfg_.topology == Topology::Mesh) {
    const unsigned sx = src % x_, sy = src / x_;
    const unsigned dx = dst % x_, dy = dst / x_;
    return (sx > dx ? sx - dx : dx - sx) + (sy > dy ? sy - dy : dy - sy);
  }
  const unsigned cw = (dst + n_ - src) % n_;
  const unsigned ccw = n_ - cw;
  return cw == 0 ? 0 : (cw <= ccw ? cw : ccw);
}

unsigned Noc::next_hop(unsigned cur, unsigned dst) const {
  if (cfg_.topology == Topology::Mesh) {
    // XY dimension-ordered: finish the x dimension, then y.  Deterministic
    // and deadlock-free; with the near-square X*Y == n factoring every
    // intermediate node exists.
    const unsigned cx = cur % x_, dx = dst % x_;
    if (cx < dx) return cur + 1;
    if (cx > dx) return cur - 1;
    return cur / x_ < dst / x_ ? cur + x_ : cur - x_;
  }
  // Ring: shorter arc; ties go clockwise so routing stays deterministic.
  const unsigned cw = (dst + n_ - cur) % n_;
  const unsigned ccw = n_ - cw;
  return cw <= ccw ? (cur + 1) % n_ : (cur + n_ - 1) % n_;
}

SharedResource& Noc::link_to(unsigned src, unsigned dst) {
  SharedResource* l = link(src, dst);
  if (l == nullptr) throw std::logic_error("noc: no link between non-neighbors");
  return *l;
}

SharedResource* Noc::link(unsigned src, unsigned dst) {
  unsigned dir = kDirs;
  if (cfg_.topology == Topology::Mesh) {
    // Coordinate matching, not index arithmetic: on a 1xN mesh src+1 is the
    // +y neighbor, and across a row wrap src+1 is not a neighbor at all.
    const unsigned sx = src % x_, sy = src / x_;
    const unsigned dx = dst % x_, dy = dst / x_;
    if (sy == dy && dx == sx + 1) dir = 0;
    else if (sy == dy && sx >= 1 && dx == sx - 1) dir = 1;
    else if (sx == dx && dy == sy + 1) dir = 2;
    else if (sx == dx && sy >= 1 && dy == sy - 1) dir = 3;
  } else {
    if (dst == (src + 1) % n_) dir = 0;
    else if (dst == (src + n_ - 1) % n_) dir = 1;
  }
  if (dir == kDirs) return nullptr;
  return links_[static_cast<std::size_t>(src) * kDirs + dir].get();
}

const SharedResource* Noc::link(unsigned src, unsigned dst) const {
  return const_cast<Noc*>(this)->link(src, dst);
}

Cycle Noc::traverse(unsigned src, unsigned dst, Cycle now, unsigned flits) {
  ++msgs_;
  flits_ += flits;
  unsigned h = 0;
  Cycle t = now;
  for (unsigned cur = src; cur != dst; ++h) {
    const unsigned next = next_hop(cur, dst);
    // Store-and-forward: the message holds the link for its own flit count
    // starting when the link is free, then spends the hop latency in the
    // next router.  book_span queues us behind any overlapping message.
    const Cycle start = link_to(cur, next).book_span(t, flits);
    t = start + cfg_.hop_latency + flits;
    cur = next;
  }
  hops_ += h;
  hop_hist_[h] += 1;
  return t;
}

SharedResource::Contention Noc::link_contention() const {
  SharedResource::Contention agg;
  for (const auto& l : links_)
    if (l) agg += l->contention();
  return agg;
}

std::vector<const SharedResource*> Noc::all_links() const {
  std::vector<const SharedResource*> out;
  out.reserve(links_.size());
  for (const auto& l : links_)
    if (l) out.push_back(l.get());
  return out;
}

void Noc::reset() {
  for (const auto& l : links_)
    if (l) l->reset();
}

void Noc::reset_stats() {
  for (const auto& l : links_)
    if (l) l->reset_stats();
  msgs_ = hops_ = flits_ = 0;
  std::fill(hop_hist_.begin(), hop_hist_.end(), 0);
}

}  // namespace hm
