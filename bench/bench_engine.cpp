// Engine throughput benchmark: how many simulated memory accesses (and
// simulated cycles) per wall-clock second the cycle-level engine sustains.
//
// This is the binding constraint on the paper-series sweeps (the hm_sweep
// experiments push many machine configurations x NAS kernels through the
// engine), so its trajectory is tracked from PR 1 onward via
// BENCH_engine.json.  Two views:
//
//  * BM_HierarchyAccess — the per-access hot path in isolation: a
//    deterministic mixed trace (strided streams + irregular accesses +
//    stores) driven straight into MemoryHierarchy::access.  Reports
//    simulated accesses/second.
//  * BM_SystemRun — a whole System::run of a NAS-like kernel per machine
//    kind, through the sweep driver's run_point (the same path hm_sweep
//    jobs take).  Reports simulated cycles/second.
//  * BM_FunctionalReplay / BM_SystemRunSampled — the sampled engine (PR 9):
//    the functional fast-forward loop in isolation, and the same CG point
//    as BM_SystemRun through the interval-sampling engine.  The
//    BM_SystemRunSampled : BM_SystemRun throughput ratio is the sampled
//    point speedup perf_gate.py --sampled-speedup enforces.
//  * BM_NocTraverse / BM_OccupancyBook — per-layer micro-benches for the
//    two layers that dominate NoC points: Noc::traverse on a contended
//    256-tile mesh, and the occupancy bitmaps (a gap-3 slot port and a
//    gap-1 span lane).  Report messages (resp. bookings) per second.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "compiler/codegen.hpp"
#include "core/replay.hpp"
#include "driver/registry.hpp"
#include "driver/sweep.hpp"
#include "memory/hierarchy.hpp"
#include "noc/noc.hpp"
#include "obs/trace.hpp"
#include "sim/system.hpp"

namespace {

using namespace hm;

// ------------------------------------------------------------------------
// A deterministic mixed access trace, regenerated identically per run,
// shaped after the paper's NAS kernel signatures (Table 3, §4.2/§4.3): many
// concurrent strided streams (FT and MG run ~30, overflowing the L1
// prefetcher's 16-entry history table — the §4.3 collision effect), one
// irregular reference with a hot working set (CG's critical-path read), and
// ~30% stores on the streams (write-through pressure on L2).
struct TraceOp {
  Addr addr;
  Addr pc;
  AccessType type;
};

/// Generates the next op of the trace.  Stateful and continuous: streams
/// advance forever (never rewinding into warm caches), exactly like the
/// paper sweeps' kernels, so the engine is measured in streaming steady
/// state rather than replaying a fixed window the caches have memorized.
class TraceGen {
 public:
  TraceGen() {
    for (unsigned s = 0; s < kStreams; ++s) stream_pos_[s] = 0x10'0000ull * (s + 1);
  }

  TraceOp next() {
    TraceOp op;
    if (rng_.chance(0.1)) {
      // Irregular reference over a hot 256 KB working set.
      op.addr = 0x4000'0000ull + rng_.below(256 * 1024);
      op.pc = 0x480;
      op.type = AccessType::Read;
    } else {
      const unsigned which = static_cast<unsigned>(rng_.below(kStreams));
      op.addr = stream_pos_[which];
      stream_pos_[which] += 8;  // strided walk, 8 B elements
      op.pc = 0x400 + which * 4;
      op.type = rng_.chance(0.3) ? AccessType::Write : AccessType::Read;
    }
    return op;
  }

 private:
  static constexpr unsigned kStreams = 30;
  Rng rng_{0xB5EEDu};
  Addr stream_pos_[kStreams];
};

void BM_HierarchyAccess(benchmark::State& state) {
  constexpr std::size_t kOpsPerIteration = 1 << 16;
  const auto kind = static_cast<MachineKind>(state.range(0));
  TraceGen gen;
  MemoryHierarchy hier(driver::make_machine(driver::machine_name(kind)).hierarchy);
  Cycle now = 0;
  std::uint64_t accesses = 0;
  Cycle checksum = 0;  // keeps the access results live without a per-op fence
  for (auto _ : state) {
    for (std::size_t i = 0; i < kOpsPerIteration; ++i) {
      const TraceOp op = gen.next();
      const AccessResult r = hier.access(now, op.addr, op.type, op.pc);
      now = r.complete > now ? r.complete : now + 1;
      checksum += r.latency;
    }
    accesses += kOpsPerIteration;
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
  state.counters["sim_accesses_per_sec"] =
      benchmark::Counter(static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HierarchyAccess)
    ->Arg(static_cast<int>(MachineKind::HybridCoherent))
    ->Arg(static_cast<int>(MachineKind::HybridOracle))
    ->Arg(static_cast<int>(MachineKind::CacheBased))
    ->Unit(benchmark::kMillisecond);

void BM_SystemRun(benchmark::State& state) {
  const auto kind = static_cast<MachineKind>(state.range(0));
  driver::SweepPoint point;
  point.label = "bench_engine/system_run";
  point.machine = driver::machine_name(kind);
  point.workload = "CG";
  point.scale = 0.2;
  std::uint64_t sim_cycles = 0;
  for (auto _ : state) {
    const driver::PointResult res = driver::run_point(point);
    sim_cycles += res.report.cycles();
    benchmark::DoNotOptimize(res.report.amat);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sim_cycles));
  state.counters["sim_cycles_per_sec"] =
      benchmark::Counter(static_cast<double>(sim_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SystemRun)
    ->Arg(static_cast<int>(MachineKind::HybridCoherent))
    ->Arg(static_cast<int>(MachineKind::HybridOracle))
    ->Arg(static_cast<int>(MachineKind::CacheBased))
    ->Unit(benchmark::kMillisecond);

// Functional fast-forward in isolation: replay_functional's descriptor loop
// against the real (warming) cache/directory/LM/prefetcher state, with no
// sampling controller or detailed pipeline around it.  This is the per-uop
// cost CEILING of the sampled engine's fast path — the state updates state
// equivalence demands are all here, which is why the sampled engine's
// end-to-end speedup is bounded well below the uop-skip ratio.
void BM_FunctionalReplay(benchmark::State& state) {
  const Workload w = driver::make_workload("CG", {.factor = 0.2});
  const MachineConfig geometry = MachineConfig::hybrid_coherent();
  System sys(driver::make_machine(driver::machine_name(MachineKind::HybridCoherent)));
  CodegenOptions co;
  co.global_seed = 42;
  CompiledKernel kernel = compile(w.loop, co, geometry.lm.virtual_base,
                                  geometry.lm.size, /*dir_entries=*/32);
  const std::shared_ptr<const ReplayBatch> batch = kernel.replay_batch();
  OooCore& core = sys.core();
  core.begin_run(kernel);
  constexpr std::uint64_t kChunk = 256;  // iterations per replay call
  std::uint64_t uops = 0;
  std::uint64_t pos = 0;
  for (auto _ : state) {
    const std::uint64_t n =
        std::min<std::uint64_t>(kChunk, batch->iterations - pos);
    core.replay_functional(*batch, pos, n, /*cpi=*/1.0);
    uops += batch->uops_in_range(pos, n);
    pos += n;
    if (pos >= batch->iterations) pos = 0;
  }
  core.finish_run();
  state.SetItemsProcessed(static_cast<std::int64_t>(uops));
  state.counters["replayed_uops_per_sec"] =
      benchmark::Counter(static_cast<double>(uops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalReplay)->Unit(benchmark::kMillisecond);

// The sampled-vs-detailed pair perf_gate.py --sampled-speedup scores: the
// SAME hybrid-coherent CG point as BM_SystemRun, run through the interval-
// sampling engine (default warmup/detail/ff budgets).  Both report simulated
// cycles/second and the sampled estimate targets the same total, so the
// items_per_second ratio is the point-throughput speedup.
void BM_SystemRunSampled(benchmark::State& state) {
  const auto kind = static_cast<MachineKind>(state.range(0));
  driver::SweepPoint point;
  point.label = "bench_engine/system_run_sampled";
  point.machine = driver::machine_name(kind);
  point.workload = "CG";
  point.scale = 0.2;
  EngineConfig engine;
  engine.sampling.mode = SamplingConfig::Mode::Interval;
  std::uint64_t sim_cycles = 0;
  for (auto _ : state) {
    const driver::PointResult res = driver::run_point(point, engine);
    sim_cycles += res.report.cycles();
    benchmark::DoNotOptimize(res.report.sample_error);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sim_cycles));
  state.counters["sim_cycles_per_sec"] =
      benchmark::Counter(static_cast<double>(sim_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SystemRunSampled)
    ->Arg(static_cast<int>(MachineKind::HybridCoherent))
    ->Unit(benchmark::kMillisecond);

// A contended 256-tile (16x16) mesh message stream shaped like a NoC
// point's traffic: the tiles take turns, each on its own clock from cycle
// 0, sending one-flit requests to random home slices and four-flit lines
// back — so every tile's messages overlap in simulated time and the
// central links queue.  The network is reset between passes.
void BM_NocTraverse(benchmark::State& state) {
  struct Message {
    unsigned src, dst;
    Cycle now;
    unsigned flits;
  };
  constexpr unsigned kTiles = 256;
  constexpr unsigned kPerTile = 64;
  NocConfig cfg;
  cfg.topology = Topology::Mesh;
  Noc noc(cfg, kTiles);
  Rng rng(0x70Cu);
  std::vector<Message> messages;
  messages.reserve(std::size_t{kTiles} * kPerTile * 2);
  for (unsigned t = 0; t < kTiles; ++t) {
    Cycle now = 0;
    for (unsigned k = 0; k < kPerTile; ++k) {
      now += rng.below(24);
      const auto home = static_cast<unsigned>(rng.below(kTiles));
      messages.push_back({t, home, now, 1});
      messages.push_back({home, t, now + 40, 4});
    }
  }
  std::uint64_t sent = 0;
  Cycle checksum = 0;
  for (auto _ : state) {
    noc.reset();
    for (const Message& m : messages) checksum += noc.traverse(m.src, m.dst, m.now, m.flits);
    sent += messages.size();
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
  state.counters["msgs_per_sec"] =
      benchmark::Counter(static_cast<double>(sent), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NocTraverse)->Unit(benchmark::kMillisecond);

// The occupancy layer in isolation: one stream of requests at ~0.3 per
// cycle with random jitter books a gap-3 slot port (the L2 port) and a
// 1-8 cycle span on one of four gap-1 lanes (DMA ports / links), so both
// bitmaps see queueing.  The bitmaps are reset between passes.
void BM_OccupancyBook(benchmark::State& state) {
  struct Request {
    Cycle when;
    unsigned lane;
    Cycle len;
  };
  constexpr std::size_t kRequests = 1 << 16;
  Rng rng(0x0CCu);
  std::vector<Request> requests(kRequests);
  Cycle clock = 0;
  for (Request& r : requests) {
    clock += rng.below(7);
    r.when = clock - std::min<Cycle>(clock, rng.below(64));  // out of order
    r.lane = static_cast<unsigned>(rng.below(4));
    r.len = 1 + rng.below(8);
  }
  SharedResource port("bench_port", 3);
  SharedLanes lanes(4, [](unsigned k) { return "bench_lane" + std::to_string(k); });
  std::uint64_t booked = 0;
  for (auto _ : state) {
    port.reset();
    lanes.reset();
    for (const Request& r : requests) {
      port.book(r.when);
      lanes.book(r.lane, r.when, r.len);
    }
    booked += 2 * kRequests;
  }
  benchmark::DoNotOptimize(port.contention().queue_cycles + lanes.total().queue_cycles);
  state.SetItemsProcessed(static_cast<std::int64_t>(booked));
  state.counters["bookings_per_sec"] =
      benchmark::Counter(static_cast<double>(booked), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OccupancyBook)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("\n==== Engine throughput (simulated accesses/sec, cycles/sec) ====\n");
  // Default to emitting BENCH_engine.json next to the working directory so
  // the perf trajectory is tracked run over run; an explicit --benchmark_out
  // on the command line wins.
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_engine.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  // Recorded in the JSON context so scripts/perf_gate.py --obs-overhead can
  // assert that the measurement it scores really ran with tracing disabled
  // (the observability layer is compiled in but must cost ~nothing idle).
  benchmark::AddCustomContext(
      "hm_observability", hm::obs::tracing_active() ? "enabled" : "disabled");
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
