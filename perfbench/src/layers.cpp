// Standalone per-layer replays for the traced run.  Each drives one layer's
// public entry point on inputs taken from the workload's own points --
// compiled kernels, their address streams, their measured request and
// message rates -- outside System::run, so the figures are standalone costs,
// not self time inside a run.  A layer the workload never uses reports 0.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "coherence/sharer_filter.hpp"
#include "common/occupancy.hpp"
#include "common/rng.hpp"
#include "compiler/replay.hpp"
#include "memory/cache.hpp"
#include "memory/hierarchy.hpp"
#include "noc/noc.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Micro-ops drained from each probe kernel: bounds the cost of the scale-1
/// kernels while keeping every stream well past its cold start.
constexpr std::uint64_t kProbeUops = 400'000;
constexpr std::uint64_t kBookings = std::uint64_t{1} << 20;
constexpr unsigned kConstructReps = 3;
/// NoC messages the traversal replay sends, shared among the workload's NoC
/// points in proportion to the messages each of them sent.
constexpr std::uint64_t kNocMessages = std::uint64_t{1} << 19;

/// Keeps replay results observable so no replay loop can be dropped.
std::atomic<std::uint64_t> g_sink{0};

struct MemOp {
  hm::Addr addr;
  hm::AccessType type;
  hm::Addr pc;
};

/// Time accumulated over a number of operations.
struct Timed {
  double seconds = 0.0;
  std::uint64_t ops = 0;
  double ns_per_op() const {
    return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
  }
};

/// The sampled engine's fast-forward path on one kernel: a cold one-tile
/// machine steps control phases in detail and replays every work chunk
/// through OooCore::replay_functional, which alone is timed.
void time_replay_functional(const hm::MachineConfig& cfg, hm::CompiledKernel& kernel,
                            const std::shared_ptr<const hm::ReplayBatch>& batch, Timed& out) {
  if (batch->iterations == 0 || batch->shape.uops == 0) return;
  hm::System sys(cfg);
  hm::OooCore& core = sys.core();
  kernel.bind_replay(batch);
  kernel.reset();
  core.begin_run(kernel);
  bool fin = false;
  std::uint64_t replayed = 0;
  while (!fin && replayed < 4 * kProbeUops) {
    while (!fin && kernel.work_cursor() == hm::ReplayableStream::kNoIteration)
      fin = core.step_uops(1);
    if (fin) break;
    const std::uint64_t first = kernel.work_cursor();
    const std::uint64_t n = kernel.skip_work_iterations(batch->iterations);
    if (n == 0) {
      fin = core.step_uops(1);
      continue;
    }
    const auto t0 = Clock::now();
    core.replay_functional(*batch, first, n, 1.0);
    out.seconds += seconds_since(t0);
    const std::uint64_t uops = batch->uops_in_range(first, n);
    out.ops += uops;
    replayed += uops;
  }
  kernel.bind_replay(nullptr);
}

/// 2^20 SharedResource::book calls on one L2-sized port (gap 3) at
/// @p density requests per cycle, exponential inter-arrival times.  The
/// clamp keeps the booked span far inside the occupancy horizon.
double time_bookings(double density, hm::Rng& rng) {
  if (!(density > 0.0)) return 0.0;
  const double d = std::clamp(density, 0.01, 1.0);
  std::vector<hm::Cycle> when(kBookings);
  double c = 0.0;
  for (hm::Cycle& w : when) {
    c += -std::log(1.0 - rng.uniform()) / d;
    w = static_cast<hm::Cycle>(c);
  }
  hm::SharedResource port("perfbench_port", 3);
  const auto t0 = Clock::now();
  for (const hm::Cycle w : when) port.book(w);
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(kBookings);
  g_sink += port.contention().queue_cycles;
  return ns;
}

// ------------------------------------------------------------------ noc ----

/// A line a tile moves over the NoC: a demand L1 miss, or one line of a
/// DMA get or put.
struct LineEvent {
  enum Kind { Miss, Get, Put } kind;
  hm::Addr line;
};

/// Tile @p tile's first @p want line events of point @p p, from its own
/// compiled kernel.  Demand accesses to SM go through a standalone L1 of
/// the point's geometry (prefetch fills are not modelled); LM accesses
/// never leave the tile.
std::vector<LineEvent> tile_events(const SweepPoint& p, const hm::MachineConfig& cfg,
                                   unsigned tile, std::size_t want) {
  hm::CompiledKernel kernel = point_kernel(p, tile);
  hm::SetAssocCache l1(cfg.hierarchy.l1d);
  const hm::Addr line_size = cfg.hierarchy.l2.line_size;
  const hm::Addr lm_lo = cfg.lm.virtual_base;
  const hm::Addr lm_hi = lm_lo + cfg.lm.size;
  std::vector<LineEvent> out;
  hm::MicroOp op;
  for (std::uint64_t n = 0; out.size() < want && n < kProbeUops && kernel.next(op); ++n) {
    if (op.kind == hm::OpKind::DmaGet || op.kind == hm::OpKind::DmaPut) {
      const LineEvent::Kind kind = op.kind == hm::OpKind::DmaGet ? LineEvent::Get : LineEvent::Put;
      for (hm::Addr a = op.dma_sm / line_size * line_size;
           a < op.dma_sm + op.dma_size && out.size() < want; a += line_size)
        out.push_back({kind, a});
    } else if (op.is_mem() && !(op.addr >= lm_lo && op.addr < lm_hi)) {
      const auto r = l1.access(op.addr, op.is_store() ? hm::AccessType::Write : hm::AccessType::Read);
      if (r.hit) continue;
      l1.fill_at(r, op.addr);
      out.push_back({LineEvent::Miss, op.addr / line_size * line_size});
    }
  }
  return out;
}

struct Message {
  unsigned src, dst;
  hm::Cycle now;
  unsigned flits;
};

struct Fill {
  unsigned slice;
  hm::Addr line;
  unsigned tile;
};

/// The Noc::traverse and SharerFilter::note_fill calls NoC point @p r makes
/// for about @p budget messages of its own traffic, as Uncore and
/// MemoryHierarchy make them: a miss or DMA get sends one request flit from
/// the tile to the line's home slice and the line back; a miss also records
/// the tile as a sharer; a DMA put sends the line home and one flit to each
/// sharer the filter holds.  The tiles take turns, and messages leave at
/// the point's own machine-wide rate (its messages per simulated cycle).
void noc_calls(const PointResult& r, std::uint64_t budget, std::vector<Message>& messages,
               std::vector<Fill>& fills) {
  const hm::MachineConfig cfg = point_machine(r.point);
  const auto nodes = static_cast<unsigned>(r.report.noc_nodes);
  hm::Noc noc(cfg.noc, nodes);
  const unsigned shift = static_cast<unsigned>(std::countr_zero(cfg.hierarchy.l2.line_size));
  hm::SharerFilter filter(nodes, shift);
  const unsigned line_flits = noc.flits_for(cfg.hierarchy.l2.line_size);

  const std::size_t per_tile = std::max<std::uint64_t>(1, budget / (2 * nodes));
  std::vector<std::vector<LineEvent>> events(nodes);
  for (unsigned t = 0; t < nodes; ++t) events[t] = tile_events(r.point, cfg, t, per_tile);

  const double gap =
      static_cast<double>(r.report.core.cycles) / static_cast<double>(r.report.noc_msgs);
  double clock = 0.0;
  const auto send = [&](unsigned src, unsigned dst, hm::Cycle now, unsigned flits) {
    clock += gap;
    messages.push_back({src, dst, now, flits});
    return noc.traverse(src, dst, now, flits);
  };
  for (std::size_t k = 0; k < per_tile; ++k)
    for (unsigned t = 0; t < nodes; ++t) {
      if (k >= events[t].size()) continue;
      const LineEvent& e = events[t][k];
      const auto home = static_cast<unsigned>((e.line >> shift) % nodes);
      const auto now = static_cast<hm::Cycle>(clock);
      if (e.kind == LineEvent::Put) {
        const hm::Cycle arrive = send(t, home, now, line_flits);
        const hm::SharerFilter::Lookup f = filter.invalidate(home, e.line);
        for (unsigned s = 0; f.tracked && s < nodes; ++s)
          if ((f.mask[s >> 6] >> (s & 63)) & 1u) send(home, s, arrive, 1);
        continue;
      }
      send(home, t, send(t, home, now, 1), line_flits);
      if (e.kind == LineEvent::Miss) {
        filter.note_fill(home, e.line, t);
        fills.push_back({home, e.line, t});
      }
    }
}

/// Noc::traverse and SharerFilter::note_fill replaying the NoC points'
/// own calls (noc_calls) into a fresh network and filter of each point's
/// machine.  Both stay 0 on a workload without NoC traffic.
void time_noc(const std::vector<const PointResult*>& ran, LayerCosts& out) {
  double total = 0.0;
  for (const PointResult* r : ran)
    if (r->report.noc_nodes != 0) total += static_cast<double>(r->report.noc_msgs);
  if (total == 0.0) return;
  Timed traverse, fill;
  for (const PointResult* r : ran) {
    if (r->report.noc_nodes == 0 || r->report.noc_msgs == 0) continue;
    const auto budget = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(kNocMessages) * static_cast<double>(r->report.noc_msgs) / total));
    std::vector<Message> messages;
    std::vector<Fill> fills;
    noc_calls(*r, budget, messages, fills);
    const hm::MachineConfig cfg = point_machine(r->point);
    const auto nodes = static_cast<unsigned>(r->report.noc_nodes);
    {
      hm::Noc noc(cfg.noc, nodes);
      std::uint64_t sum = 0;
      const auto t0 = Clock::now();
      for (const Message& m : messages) sum += noc.traverse(m.src, m.dst, m.now, m.flits);
      traverse.seconds += seconds_since(t0);
      traverse.ops += messages.size();
      g_sink += sum;
    }
    if (!fills.empty()) {
      hm::SharerFilter filter(nodes,
                              static_cast<unsigned>(std::countr_zero(cfg.hierarchy.l2.line_size)));
      const auto t0 = Clock::now();
      for (const Fill& f : fills) filter.note_fill(f.slice, f.line, f.tile);
      fill.seconds += seconds_since(t0);
      fill.ops += fills.size();
      g_sink += filter.invalidate(fills.back().slice, fills.back().line).tracked ? 1 : 0;
    }
  }
  out.traverse_ns = traverse.ns_per_op();
  out.note_fill_ns = fill.ns_per_op();
}

}  // namespace

LayerCosts measure_layers(const std::vector<SweepPoint>& probes,
                          const std::vector<const PointResult*>& ran, std::uint64_t seed) {
  LayerCosts out;
  hm::Rng rng(seed);
  Timed emit, batch_build, functional, access, faccess;
  std::uint64_t batches = 0;
  const hm::MachineConfig geometry = hm::MachineConfig::hybrid_coherent();
  const hm::Addr lm_lo = geometry.lm.virtual_base;
  const hm::Addr lm_hi = lm_lo + geometry.lm.size;

  for (const SweepPoint& p : probes) {
    const hm::MachineConfig cfg = point_machine(p);
    hm::CompiledKernel kernel = point_kernel(p, 0);

    // compiler: the kernel's micro-op emission on its own.
    hm::MicroOp op;
    std::uint64_t n = 0;
    auto t0 = Clock::now();
    while (n < kProbeUops && kernel.next(op)) ++n;
    emit.seconds += seconds_since(t0);
    emit.ops += n;

    // Tile 0's SM address stream over the same prefix; LM accesses never
    // reach the cache hierarchy.
    kernel.reset();
    std::vector<MemOp> sm;
    for (std::uint64_t i = 0; i < n && kernel.next(op); ++i) {
      if (!op.is_mem() || (op.addr >= lm_lo && op.addr < lm_hi)) continue;
      sm.push_back({op.addr, op.is_store() ? hm::AccessType::Write : hm::AccessType::Read, op.pc});
    }

    // memory: the detailed and the functional access path, each on a
    // standalone hierarchy of the point's machine.
    {
      hm::MemoryHierarchy h(cfg.hierarchy);
      hm::Cycle now = 0;
      std::uint64_t sum = 0;
      t0 = Clock::now();
      for (const MemOp& m : sm) sum += h.access(++now, m.addr, m.type, m.pc).latency;
      access.seconds += seconds_since(t0);
      access.ops += sm.size();
      g_sink += sum;
    }
    {
      hm::MemoryHierarchy h(cfg.hierarchy);
      hm::Cycle now = 0;
      std::uint64_t sum = 0;
      t0 = Clock::now();
      for (const MemOp& m : sm) sum += h.functional_access(++now, m.addr, m.type, m.pc);
      faccess.seconds += seconds_since(t0);
      faccess.ops += sm.size();
      g_sink += sum;
    }

    // compiler: descriptor-batch compilation, uncached.
    t0 = Clock::now();
    const auto batch = std::make_shared<const hm::ReplayBatch>(hm::build_replay_batch(kernel));
    batch_build.seconds += seconds_since(t0);
    ++batches;

    // core: functional replay of the batch.
    time_replay_functional(cfg, kernel, batch, functional);
  }
  out.emit_ns_per_uop = emit.ns_per_op();
  out.replay_batch_ms =
      batches == 0 ? 0.0 : batch_build.seconds * 1e3 / static_cast<double>(batches);
  out.replay_functional_ns_per_uop = functional.ns_per_op();
  out.access_ns = access.ns_per_op();
  out.functional_access_ns = faccess.ns_per_op();

  // occupancy: at the L2-port requests per slice-cycle the points measured.
  double port_requests = 0.0, slice_cycles = 0.0;
  for (const PointResult* r : ran) {
    port_requests += static_cast<double>(r->report.l2_port.requests);
    slice_cycles += static_cast<double>(r->report.core.cycles) *
                    static_cast<double>(std::max<std::uint64_t>(1, r->report.noc_nodes));
  }
  out.book_ns = time_bookings(slice_cycles == 0.0 ? 0.0 : port_requests / slice_cycles, rng);

  time_noc(ran, out);

  // sim: System construction at each tile count the workload has, on the
  // machine (topology included) of its first point with that count;
  // destruction is not timed.
  std::map<unsigned, const SweepPoint*> by_tiles;
  for (const PointResult* r : ran)
    by_tiles.emplace(static_cast<unsigned>(std::stoul(r->point.knob("cores", "1"))), &r->point);
  for (const auto& [tiles, p] : by_tiles) {
    const hm::MachineConfig cfg = point_machine(*p);
    std::vector<double> ms;
    for (unsigned rep = 0; rep < kConstructReps; ++rep) {
      const auto t0 = Clock::now();
      const hm::System sys(cfg, tiles);
      ms.push_back(seconds_since(t0) * 1e3);
    }
    std::sort(ms.begin(), ms.end());
    out.construct_ms[tiles] = ms[ms.size() / 2];
  }
  return out;
}

}  // namespace perfbench
