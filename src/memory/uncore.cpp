#include "memory/uncore.hpp"

#include <bit>
#include <stdexcept>

#include "obs/trace.hpp"

namespace hm {

Uncore::Uncore(const HierarchyConfig& cfg, const NocConfig& noc, unsigned n_tiles)
    : cfg_(cfg),
      l2_(cfg_.l2),
      l3_(cfg_.l3),
      mem_(cfg_.mem, noc.channels_for(n_tiles)),
      pf_l2_(cfg_.pf_l2, cfg_.l2.line_size),
      pf_l3_(cfg_.pf_l3, cfg_.l3.line_size),
      // Flat: one DMA bus shared by every tile; mesh/ring: one injection
      // port per tile.
      dma_ports_(noc.active() ? n_tiles : 1, [flat = !noc.active()](unsigned k) {
        return flat ? std::string("dma_bus") : "dma_inj" + std::to_string(k);
      }) {
  if (!noc.active()) {
    // Flat: one home slice.
    l2_ports_.emplace_back("l2_port", cfg_.l2_gap);
    l3_ports_.emplace_back("l3_port", cfg_.l3_gap);
    return;
  }
  if (n_tiles == 0 || n_tiles > SharerFilter::kMaxTiles)
    throw std::invalid_argument("NoC tile count out of range (1..256)");
  noc_ = std::make_unique<Noc>(noc, n_tiles);
  n_slices_ = n_tiles;
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.l2.line_size));
  line_flits_ = noc_->flits_for(cfg_.l2.line_size);
  sharers_ = std::make_unique<SharerFilter>(n_tiles, line_shift_);
  // Per-slice ports keep the flat gaps: slicing divides the request
  // stream, it does not change a single slice's service rate.  The
  // *_contention() accessors aggregate them per resource class.
  l2_ports_.reserve(n_tiles);
  l3_ports_.reserve(n_tiles);
  for (unsigned s = 0; s < n_tiles; ++s) {
    l2_ports_.emplace_back("l2_port_s" + std::to_string(s), cfg_.l2_gap);
    l3_ports_.emplace_back("l3_port_s" + std::to_string(s), cfg_.l3_gap);
  }
}

unsigned Uncore::register_l1(SetAssocCache* l1) {
  l1s_.push_back(l1);
  return static_cast<unsigned>(l1s_.size() - 1);
}

Cycle Uncore::dma_get_line(Cycle now, Addr line_addr, unsigned initiator_port) {
  // The initiating tile already snooped its own L1; the SM is internally
  // coherent, so any resident copy in the shared levels is valid.
  const unsigned home = home_of(line_addr);
  const Cycle arrive = traverse(initiator_port, home, now, 1);
  Cycle data;
  if (l2_.probe(line_addr)) data = arrive + cfg_.l2.latency;
  else if (l3_.probe(line_addr)) data = arrive + cfg_.l3.latency;
  else data = mem_.access(arrive, AccessType::Read, dram_channel_of(line_addr));
  return traverse(home, initiator_port, data, line_flits_);
}

Cycle Uncore::dma_put_line(Cycle now, Addr line_addr, unsigned initiator_port) {
  // Coherent dma-put: the line travels to its home node, is written to
  // main memory, and any cached copy is invalidated (dirty or not — the
  // DMA data is the valid version, see §3.4.2): a chunk written back by
  // tile A's DMAC kills stale copies tile B may hold.  A sharer filter
  // sends targeted invalidations (one header flit to each recorded
  // sharer); without one, or for an untracked line, the invalidation is
  // broadcast (modeled as a dedicated invalidation tree — counted, but not
  // booked per link).  Invalidation messages book link occupancy but the
  // put's completion is the home-channel DRAM write — puts are posted,
  // invalidations ride behind.
  const unsigned home = home_of(line_addr);
  const Cycle arrive = traverse(initiator_port, home, now, line_flits_);
  const SharerFilter::Lookup f =
      sharers_ != nullptr ? sharers_->invalidate(home, line_addr) : SharerFilter::Lookup{};
  if (f.tracked) {
    ++stats_.noc_dir_filtered;
    for (unsigned w = 0; w < f.mask.size(); ++w) {
      std::uint64_t bits = f.mask[w];
      while (bits != 0) {
        const unsigned t = (w << 6) + static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        if (t >= l1s_.size()) continue;
        traverse(home, t, arrive, 1);
        l1s_[t]->invalidate(line_addr);
        if (t != initiator_port) ++stats_.dma_invalidate_broadcasts;
      }
    }
  } else {
    ++stats_.noc_dir_broadcasts;
    for (SetAssocCache* l1 : l1s_) l1->invalidate(line_addr);
    if (l1s_.size() > 1) stats_.dma_invalidate_broadcasts += l1s_.size() - 1;
  }
  l2_.invalidate(line_addr);
  l3_.invalidate(line_addr);
  return mem_.access(arrive, AccessType::Write, dram_channel_of(line_addr));
}

SharedResource::Contention Uncore::sum(const std::vector<SharedResource>& rs) {
  SharedResource::Contention agg;
  for (const SharedResource& r : rs) agg += r.contention();
  return agg;
}

void Uncore::reset() {
  l2_.flush_all();
  l3_.flush_all();
  mem_.reset();
  pf_l2_.reset();
  pf_l3_.reset();
  for (auto* ports : {&l2_ports_, &l3_ports_})
    for (SharedResource& p : *ports) p.reset();
  dma_ports_.reset();
  if (noc_ != nullptr) {
    noc_->reset();
    sharers_->reset();
  }
}

void Uncore::emit_contention_trace(Cycle end) const {
  const auto emit = [end](const Contention& c, const std::string& name) {
    if (c.requests == 0) return;
    const std::string lane = "res." + name;
    obs::sim_instant(lane.c_str(), "contention_summary", end, "queue_cycles",
                     static_cast<double>(c.queue_cycles));
  };
  const auto emit_lanes = [&](const SharedLanes& lanes) {
    for (unsigned k = 0; k < lanes.size(); ++k)
      if (lanes.contention(k).requests != 0) emit(lanes.contention(k), lanes.name(k));
  };
  for (const SharedResource& p : l2_ports_) emit(p.contention(), p.name());
  for (const SharedResource& p : l3_ports_) emit(p.contention(), p.name());
  for (unsigned c = 0; c < mem_.channels(); ++c)
    emit(mem_.channel_port(c).contention(), mem_.channel_port(c).name());
  emit_lanes(dma_ports_);
  if (noc_ != nullptr) emit_lanes(noc_->links());
}

void Uncore::reset_stats() {
  stats_ = Stats{};
  l2_.reset_stats();
  l3_.reset_stats();
  mem_.reset_stats();
  pf_l2_.reset_stats();
  pf_l3_.reset_stats();
  for (auto* ports : {&l2_ports_, &l3_ports_})
    for (SharedResource& p : *ports) p.reset_stats();
  dma_ports_.reset_stats();
  if (noc_ != nullptr) noc_->reset_stats();
}

}  // namespace hm
