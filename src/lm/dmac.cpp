#include "lm/dmac.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/bitops.hpp"
#include "obs/trace.hpp"

namespace hm {

DmaController::DmaController(DmaConfig cfg, MemoryHierarchy& hierarchy, LocalMemory& lm,
                             CoherenceDirectory* directory, ByteStore* image)
    : cfg_(cfg), hierarchy_(hierarchy), lm_(lm), directory_(directory), image_(image) {
  if (cfg_.num_tags == 0 || cfg_.num_tags > tag_complete_.size())
    throw std::invalid_argument("dma tag count out of range");
}

void DmaController::check_tag(unsigned tag) const {
  if (tag >= cfg_.num_tags) throw std::out_of_range("dma tag out of range");
}

Cycle DmaController::get(Cycle now, Addr sm_src, Addr lm_dst, Bytes size, unsigned tag) {
  check_tag(tag);
  if (!lm_.contains(lm_dst) || !lm_.contains(lm_dst + size - 1))
    throw std::out_of_range("dma-get destination outside the LM");
  ++stats_.gets;
  stats_.bytes += size;

  const Bytes line = hierarchy_.line_size();
  const Addr first = align_down(sm_src, line);
  const Addr last = align_down(sm_src + size - 1, line);
  const Bytes nlines = (last - first) / line + 1;
  stats_.lines += nlines;

  // Pipelined engine: an idle engine pays the first line's full snoop/DRAM
  // latency; a busy engine hides the next command's fetch behind its own
  // streaming tail (the memory side prefetches across command boundaries),
  // sustaining one line per `per_line` cycles.  The shared DMA bus grants
  // the command a window for the interval the transfer actually streams —
  // from when both the MMIO command and the engine are ready — so
  // arbitration across tiles blocks exactly the busy span.  The bus books
  // that span on its full-run span-bitmap lane in the uncore; with one tile
  // the span is always free and the grant never delays (start ==
  // max(queued, engine_free_)).
  const Cycle queued = now + cfg_.startup;
  const Cycle start = hierarchy_.dma_bus_grant(std::max(queued, engine_free_),
                                               nlines * cfg_.per_line);
  // Observability: the granted bus window.  Windows are globally disjoint
  // (the bus books whole spans on a gap-1 lane), so the emitted spans
  // never overlap within a lane or across tiles.
  if (obs::tracing_active()) [[unlikely]]
    obs::sim_span(trace_lane_, "dma.get", start, nlines * cfg_.per_line,
                  "bytes", static_cast<double>(size));
  Cycle t;
  if (engine_free_ <= queued) {
    t = hierarchy_.dma_read_line(start, first);
  } else {
    hierarchy_.dma_read_line(start, first);  // activity accounting
    t = start + cfg_.per_line;
  }
  for (Addr a = first + line; a <= last; a += line) {
    hierarchy_.dma_read_line(t, a);  // bus + snoop activity for every line
    t += cfg_.per_line;
  }
  engine_free_ = t;
  tag_complete_[tag] = std::max(tag_complete_[tag], t);

  // Directory update: this is the LM-map (and implicit LM-unmap of the
  // previous chunk in the buffer).  Presence is set at completion.
  if (directory_ != nullptr) directory_->map(sm_src, lm_dst, t);

  // Functional transfer (SM image -> LM image).
  if (image_ != nullptr) image_->copy_from(*image_, sm_src, lm_dst, size);
  return t;
}

Cycle DmaController::put(Cycle now, Addr lm_src, Addr sm_dst, Bytes size, unsigned tag) {
  check_tag(tag);
  if (!lm_.contains(lm_src) || !lm_.contains(lm_src + size - 1))
    throw std::out_of_range("dma-put source outside the LM");
  ++stats_.puts;
  stats_.bytes += size;

  const Bytes line = hierarchy_.line_size();
  const Addr first = align_down(sm_dst, line);
  const Addr last = align_down(sm_dst + size - 1, line);
  const Bytes nlines = (last - first) / line + 1;
  stats_.lines += nlines;

  // Every line is written to main memory and invalidated in the caches
  // (all tiles' L1s included — the uncore broadcast); writes are posted, so
  // the engine streams at the pipelined rate without waiting for DRAM write
  // completion.  The bus window covers the streaming interval (both the
  // command and the engine ready); cross-tile arbitration shifts the whole
  // command by `start - bus_ready`, zero on a single tile.
  const Cycle queued = now + cfg_.startup;
  const Cycle bus_ready = std::max(queued, engine_free_);
  const Cycle start = hierarchy_.dma_bus_grant(bus_ready, nlines * cfg_.per_line);
  if (obs::tracing_active()) [[unlikely]]
    obs::sim_span(trace_lane_, "dma.put", start, nlines * cfg_.per_line,
                  "bytes", static_cast<double>(size));
  // The first posted write may slip ahead of a busy engine's tail (it needs
  // only the command decode); it shifts with the cross-tile bus delay.
  hierarchy_.dma_write_line(queued + (start - bus_ready), first);
  Cycle t = start + cfg_.per_line;
  for (Addr a = first + line; a <= last; a += line) {
    hierarchy_.dma_write_line(t, a);
    t += cfg_.per_line;
  }
  engine_free_ = t;
  tag_complete_[tag] = std::max(tag_complete_[tag], t);

  // Functional transfer (LM image -> SM image).  The LM stays mapped: a
  // dma-put is an LM-writeback, not an LM-unmap (§3.4.1).
  if (image_ != nullptr) image_->copy_from(*image_, lm_src, sm_dst, size);
  return t;
}

Cycle DmaController::synch(Cycle now, std::uint32_t tag_mask) const {
  ++stats_.synchs;
  Cycle done = now;
  for (unsigned tag = 0; tag < cfg_.num_tags && tag < 32; ++tag) {
    if ((tag_mask >> tag) & 1u) done = std::max(done, tag_complete_[tag]);
  }
  return done;
}

void DmaController::reset() {
  engine_free_ = 0;
  tag_complete_.fill(0);
}

void DmaController::set_trace_lane(unsigned tile_id) {
  std::snprintf(trace_lane_, sizeof trace_lane_, "tile%u.dma", tile_id);
}

}  // namespace hm
