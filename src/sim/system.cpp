#include "sim/system.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/replay.hpp"
#include "obs/trace.hpp"

namespace hm {
namespace {

// Per-tile kernel-phase spans on lane "tileN": the whole run plus the three
// ExecPhase buckets stacked in phase order.  The phase buckets are cycle
// ATTRIBUTION (they sum to the tile's busy accounting, not to a literal
// sub-interval timeline), rendered stacked so relative weight is visible.
void emit_tile_phase_trace(std::size_t tile, const RunResult& r) {
  char lane[24];
  std::snprintf(lane, sizeof lane, "tile%u", static_cast<unsigned>(tile));
  obs::sim_span(lane, "tile.run", 0, r.cycles, "uops",
                static_cast<double>(r.uops));
  static constexpr const char* kPhaseNames[kNumPhases] = {"phase.work",
                                                          "phase.control",
                                                          "phase.synch"};
  Cycle at = 0;
  for (unsigned p = 0; p < kNumPhases; ++p) {
    if (r.phase_cycles[p] != 0)
      obs::sim_span(lane, kPhaseNames[p], at, r.phase_cycles[p]);
    at += r.phase_cycles[p];
  }
}

}  // namespace

System::System(MachineConfig cfg, unsigned n_cores)
    : cfg_(std::move(cfg)), uncore_(cfg_.hierarchy, cfg_.noc, n_cores == 0 ? 1 : n_cores),
      energy_model_(cfg_.energy) {
  if (n_cores == 0) throw std::invalid_argument("System needs at least one core");
  tiles_.reserve(n_cores);
  for (unsigned i = 0; i < n_cores; ++i) {
    tiles_.push_back(std::make_unique<Tile>(cfg_, uncore_, &image_));
    if (DmaController* d = tiles_.back()->dmac()) d->set_trace_lane(i);
  }
}

void System::reset_timing_state() {
  uncore_.reset();
  uncore_.reset_stats();
  for (auto& t : tiles_) t->reset();
}

RunReport System::run(InstrStream& program) {
  return run(std::vector<InstrStream*>{&program});
}

RunReport System::run(const std::vector<InstrStream*>& programs) {
  if (programs.empty())
    throw std::invalid_argument("System::run needs at least one program");
  if (programs.size() > tiles_.size())
    throw std::invalid_argument("more programs than tiles");
  for (InstrStream* p : programs)
    if (p == nullptr) throw std::invalid_argument("null program");
  if (engine_.sampling.enabled() && programs.size() > 1)
    throw std::invalid_argument("sampling runs single-tile points only");

  // A fresh System is already cold: its constructors wrote exactly the
  // state reset_timing_state() restores, so only later runs pay for it.
  if (!fresh_) reset_timing_state();
  fresh_ = false;

  // Tiles run in tile order against the shared uncore, each on its own
  // local clock from cycle 0.  The outcome is deterministic and, for a
  // single tile, bit-identical to the pre-tile engine.  Cross-tile
  // interference comes through three shared channels, all full-run exact:
  // cache/prefetcher CONTENT interference (later tiles see exactly what
  // earlier tiles left in L2/L3), the DMA bus (per-command windows booked
  // on a gap-1 span-bitmap lane, serialized wherever their simulated
  // spans overlap), and L2/L3/DRAM port slots (per-gap buckets booked on
  // full-run occupancy timelines — an earlier tile's bookings stay visible
  // to every later tile for the entire run; see common/occupancy.hpp).
  // The only remaining understatement is a booking past the occupancy
  // horizon, which is counted per resource (RunReport::*_overflows) and
  // asserted zero by the paper-table and scaling flows.
  const std::size_t n = programs.size();
  std::vector<RunResult> results(n);
  RunReport report;
  if (engine_.sampling.enabled()) {
    // Interval sampling is a single-tile mode (checked above).  A lone
    // tile's quantum turns concatenate to its serial run, so the quantum
    // plays no part here.
    results[0] = run_sampled(*programs[0], report);
    if (obs::tracing_active()) [[unlikely]] emit_tile_phase_trace(0, results[0]);
  } else {
    // Quantum schedule: round r advances every unfinished tile, in tile
    // order, through dispatch cycle (r+1)*Q - 1.  Q = 0 makes each turn run
    // its tile to completion, so round 0 IS the serial tile loop.  A tile's
    // pipeline state is allocated at its first turn and released when it
    // finishes, so the serial schedule holds one tile's state at a time.
    const Cycle quantum = engine_.quantum;
    std::vector<char> done(n, 0);
    std::size_t remaining = n;
    for (Cycle round = 0; remaining > 0; ++round) {
      const Cycle limit = quantum == 0 ? kNoCycle : (round + 1) * quantum - 1;
      for (std::size_t i = 0; i < n; ++i) {
        if (done[i]) continue;
        if (round == 0) {
          programs[i]->reset();
          tiles_[i]->core().begin_run(*programs[i], engine_.max_cycles);
        }
        if (!tiles_[i]->core().step_until(limit)) continue;
        results[i] = tiles_[i]->core().finish_run();
        done[i] = 1;
        --remaining;
        if (obs::tracing_active()) [[unlikely]] emit_tile_phase_trace(i, results[i]);
      }
    }
  }

  // Aggregate core result: the end-of-stream barrier makes the run as slow
  // as its slowest tile; instruction counts sum; the load-latency
  // accumulators merge exactly (a single tile's accumulator is copied).
  RunResult& agg = report.core;
  for (const RunResult& r : results) {
    agg.cycles = std::max(agg.cycles, r.cycles);
    for (unsigned p = 0; p < kNumPhases; ++p) agg.phase_cycles[p] += r.phase_cycles[p];
    agg.uops += r.uops;
    agg.loads += r.loads;
    agg.stores += r.stores;
    agg.guarded_loads += r.guarded_loads;
    agg.guarded_stores += r.guarded_stores;
    agg.value_mismatches += r.value_mismatches;
    if (r.load_latency.count() == 0) continue;
    if (agg.load_latency.count() == 0) {
      agg.load_latency = r.load_latency;
    } else {
      agg.load_latency.restore(agg.load_latency.count() + r.load_latency.count(),
                               agg.load_latency.sum() + r.load_latency.sum(),
                               std::min(agg.load_latency.min(), r.load_latency.min()),
                               std::max(agg.load_latency.max(), r.load_latency.max()));
    }
  }

  // Per-tile private activity (summed into the aggregate) + per-tile
  // report sections.
  ActivityCounts total;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_lookups = 0;
  report.tiles.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ActivityCounts ta = tiles_[i]->collect_private_activity(results[i]);

    TileReport& t = report.tiles[i];
    t.cycles = results[i].cycles;
    t.uops = results[i].uops;
    t.loads = results[i].loads;
    t.stores = results[i].stores;
    t.l1_accesses = ta.l1_activity;
    t.lm_accesses = ta.lm_accesses;
    t.directory_accesses = ta.dir_lookups + ta.dir_updates;
    t.dma_lines = ta.dma_lines;
    {
      // Tile-private energy share: the tile's own structures and initiated
      // traffic, without the shared levels (those are machine-wide and
      // appear only in the aggregate breakdown).
      ActivityCounts pa = ta;
      pa.l1_size = cfg_.hierarchy.l1d.size;
      pa.has_lm = cfg_.has_lm();
      pa.has_directory = cfg_.has_directory_hardware();
      t.energy = energy_model_.compute(pa).total();
    }

    total.l1_activity += ta.l1_activity;
    total.lm_accesses += ta.lm_accesses;
    total.dir_lookups += ta.dir_lookups;
    total.dir_updates += ta.dir_updates;
    total.fetch_groups += ta.fetch_groups;
    total.uops += ta.uops;
    total.regfile_reads += ta.regfile_reads;
    total.regfile_writes += ta.regfile_writes;
    total.int_ops += ta.int_ops;
    total.fp_ops += ta.fp_ops;
    total.branches += ta.branches;
    total.mem_uops += ta.mem_uops;
    total.replay_uops += ta.replay_uops;
    total.flushed_slots += ta.flushed_slots;
    total.prefetch_trainings += ta.prefetch_trainings;
    total.prefetch_issues += ta.prefetch_issues;
    total.dma_lines += ta.dma_lines;
    total.bus_transfers += ta.bus_transfers;

    const SetAssocCache::Stats& l1s = tiles_[i]->hierarchy().l1d().stats();
    l1_hits += l1s.hits;
    l1_lookups += l1s.lookups;
  }

  // Shared uncore activity, counted once.
  total.l2_activity = uncore_.l2().stats().activity();
  total.l3_activity = uncore_.l3().stats().activity();
  total.mem_accesses = uncore_.memory().stats().accesses;
  total.prefetch_trainings +=
      uncore_.pf_l2().stats().trainings + uncore_.pf_l3().stats().trainings;
  total.prefetch_issues +=
      uncore_.pf_l2().stats().prefetches_issued + uncore_.pf_l3().stats().prefetches_issued;

  total.cycles = agg.cycles;
  total.l1_size = cfg_.hierarchy.l1d.size;
  total.has_lm = cfg_.has_lm();
  // The oracle baseline models an incoherent machine without directory
  // hardware: no directory energy is charged (§4.2).
  total.has_directory = cfg_.has_directory_hardware();

  report.activity = total;
  report.energy = energy_model_.compute(total);

  // Shared-resource contention, machine-wide (the resources are physically
  // shared, so there is exactly one section per resource class, not per
  // tile).  Under a NoC the accessors aggregate over slices/channels/
  // injection ports; flat they are exactly the single resources' counters.
  report.l2_port = uncore_.l2_port_contention();
  report.l3_port = uncore_.l3_port_contention();
  report.dram = uncore_.dram_contention();
  report.dma_bus = uncore_.dma_bus_contention();

  if (const Noc* noc = uncore_.noc()) {
    report.noc_nodes = noc->nodes();
    report.noc_mesh_x = noc->mesh_x();
    report.noc_mesh_y = noc->mesh_y();
    report.noc_msgs = noc->messages();
    report.noc_hops = noc->total_hops();
    report.noc_flits = noc->total_flits();
    report.noc_dir_filtered = uncore_.stats().noc_dir_filtered;
    report.noc_dir_broadcasts = uncore_.stats().noc_dir_broadcasts;
    report.noc_links = noc->link_contention();
    report.noc_hop_hist = noc->hop_histogram();
  }

  if (obs::tracing_active()) [[unlikely]]
    uncore_.emit_contention_trace(agg.cycles);

  report.amat = agg.amat();
  report.l1_hit_ratio = 100.0 * safe_ratio(l1_hits, l1_lookups);
  report.l1_accesses = total.l1_activity;
  report.l2_accesses = total.l2_activity;
  report.l3_accesses = total.l3_activity;
  report.lm_accesses = total.lm_accesses;
  report.directory_accesses = total.dir_lookups + total.dir_updates;
  return report;
}

// ---------------------------------------------------------------------------
// Sampled engine.

namespace {

/// Safety multiplier on the per-region error bound: each fast-forwarded
/// region's true CPI is assumed to lie within kSampleSafety times the CPI
/// delta observed at the measurement bracketing it.  Empirically calibrated
/// against full runs of the NAS kernels (tests/sampling_test.cpp:
/// ErrorBoundIsHonest).
constexpr double kSampleSafety = 2.0;
/// Relative floor on the per-region CPI deviation: even when bracketing
/// measurements agree exactly, the unobserved region may deviate by this
/// fraction of the measured CPI.
constexpr double kSampleSpreadFloor = 0.04;
/// Adjacent-measurement agreement tolerance: gates the start of fast-forward
/// (cold-start transient runs detailed) and drives the adaptive region
/// length (regions double while consecutive measurements agree, halve when
/// they disagree — tight tracking through drift, long regions at steady
/// state).
constexpr double kSampleConvergence = 0.10;

}  // namespace

RunResult System::run_sampled(InstrStream& program, RunReport& report) {
  OooCore& core = tiles_.front()->core();
  auto* rs = dynamic_cast<ReplayableStream*>(&program);
  std::shared_ptr<const ReplayBatch> batch;
  if (rs != nullptr) batch = rs->replay_batch();
  program.reset();
  if (batch == nullptr || batch->iterations == 0 || batch->shape.uops == 0) {
    // Not a batch-compilable stream: run fully detailed.  sampled_fraction
    // stays 0, the estimate is exact.
    return core.run(program, engine_.max_cycles);
  }

  // Bind the batch so the stream serves pre-resolved addresses during the
  // detailed intervals too (identical op sequence, no re-walks of the IR),
  // and so skip_work_iterations can advance the stream without emitting.
  rs->bind_replay(batch);
  program.reset();

  const SamplingConfig& sc = engine_.sampling;
  const std::uint64_t warm = std::max<std::uint64_t>(1, sc.warmup_uops);
  const std::uint64_t det = std::max<std::uint64_t>(1, sc.detail_uops);
  const std::uint64_t ff_budget =
      std::max<std::uint64_t>(batch->shape.uops, sc.ff_uops);

  // Sampling spans get their own lane: they cut across the stacked phase
  // attribution spans on "tile0", which are not a literal timeline.
  constexpr const char* lane = "tile0.sample";
  const bool tracing = obs::tracing_active();

  double cpi = 1.0;
  std::uint64_t ff_uops = 0;
  bool fin = false;

  // Reach a work-iteration boundary in detail (control phases — DMA
  // transfers, dir reconfiguration, synchs — always run detailed).
  const auto to_boundary = [&] {
    while (!fin && rs->work_cursor() == ReplayableStream::kNoIteration)
      fin = core.step_uops(1);
  };

  // Detailed execution of whole work iterations, up to `budget` uops;
  // stops early when the work phase ends.  Stepping exact per-iteration
  // uop counts keeps the stream on iteration boundaries throughout.
  const auto detail_work = [&](std::uint64_t budget) {
    std::uint64_t done = 0;
    while (!fin && done < budget) {
      const std::uint64_t cur = rs->work_cursor();
      if (cur == ReplayableStream::kNoIteration) break;
      const std::uint64_t u = batch->uops_in_range(cur, 1);
      fin = core.step_uops(u);
      done += u;
    }
  };

  // One detailed measured interval: CPI over whole detailed WORK iterations
  // only.  Control phases are never fast-forwarded, so their (often huge)
  // stall cycles must not contaminate the extrapolation CPI — an interval
  // spanning a DMA wait would overestimate work CPI several-fold.  Returns
  // true when the interval produced a usable CPI sample.
  const auto measure = [&]() -> bool {
    to_boundary();
    detail_work(warm);
    to_boundary();  // the warmup may have crossed into a control phase
    const std::uint64_t u1 = core.uops_done();
    const Cycle c1 = core.front();
    detail_work(det);
    const std::uint64_t u2 = core.uops_done();
    const Cycle c2 = core.front();
    const bool usable = u2 > u1 && c2 > c1;
    if (usable) {
      cpi = static_cast<double>(c2 - c1) / static_cast<double>(u2 - u1);
      if (tracing) [[unlikely]] obs::sim_span(lane, "sample.detail", c1, c2 - c1);
    }
    return usable;
  };

  // Adaptive region length: fast-forwarded uops between measurements.
  // Doubles while consecutive measurements agree (steady state earns long
  // regions, up to ff_budget), halves when they disagree (drift — cache
  // warm-up, phase change — earns tight tracking).
  std::uint64_t region = std::max<std::uint64_t>(batch->shape.uops, det);
  std::uint64_t pending_ff = 0;   // ffed uops not yet bracketed by a measurement
  double cpi_used = 1.0;          // the CPI pending_ff was extrapolated at
  double last_delta = 0.0;        // |cpi step| at the latest measurement
  double err_cycles = 0.0;        // accumulated per-region error bound

  // Close the open fast-forward region against a fresh measurement: its
  // true CPI is assumed within kSampleSafety of the observed CPI step
  // across it (never less than the deviation floor).
  const auto account_pending = [&](double new_cpi) {
    if (pending_ff == 0) return;
    last_delta = std::abs(new_cpi - cpi_used);
    err_cycles += static_cast<double>(pending_ff) *
                  std::max(last_delta, kSampleSpreadFloor * cpi_used);
    pending_ff = 0;
  };

  try {
    core.begin_run(program, engine_.max_cycles);

    // Cold-start convergence gate: the run's first intervals execute against
    // empty caches and an untrained directory/prefetcher, and their CPI can
    // be several times the steady state.  Extrapolating it would wreck the
    // estimate, so fast-forward only begins once two consecutive measured
    // intervals agree within kSampleConvergence — everything before that ran
    // detailed anyway, hence is exact.  A run whose CPI never settles
    // degrades gracefully to a fully detailed (exact) run.
    double prev = -1.0;
    bool stable = false;
    while (!fin && !stable) {
      if (measure()) {
        stable = prev > 0.0 &&
                 std::abs(cpi - prev) <= kSampleConvergence * prev;
        prev = cpi;
      }
    }

    // Every fast-forward region must end bracketed by a real measurement —
    // an unbracketed tail's CPI drift would be invisible to the error
    // bound.  Reserving warm + 2*det work uops ahead of any skip keeps
    // enough detailed work at the end of the stream for that closing
    // measurement to produce a usable CPI.
    const std::uint64_t reserve = warm + 2 * det;

    while (!fin) {
      to_boundary();
      if (fin) break;

      // Functional fast-forward of whole work iterations, up to the open
      // region's remainder or the end of the current tile chunk (whichever
      // comes first; the region then continues past the detailed control
      // phase into the next chunk).
      const Cycle ff_start = core.front();
      const std::uint64_t budget = region - std::min(region, pending_ff);
      std::uint64_t done_uops = 0;
      while (done_uops < budget) {
        const std::uint64_t cur = rs->work_cursor();
        if (cur == ReplayableStream::kNoIteration) break;
        const std::uint64_t remaining =
            batch->uops_in_range(cur, batch->iterations - cur);
        if (remaining <= reserve) break;  // tail runs detailed (bracketing)
        std::uint64_t want = std::max<std::uint64_t>(
            1, (budget - done_uops) / batch->shape.uops);
        want = std::min<std::uint64_t>(
            want, std::max<std::uint64_t>(1, (remaining - reserve) /
                                                 batch->shape.uops));
        const std::uint64_t k = rs->skip_work_iterations(want);
        if (k == 0) break;
        core.replay_functional(*batch, cur, k, cpi);
        done_uops += batch->uops_in_range(cur, k);
      }
      if (done_uops == 0 && pending_ff == 0) {
        // Nothing to skip at this boundary (e.g. reserved tail, or the
        // last iteration of a chunk): make detailed progress so the loop
        // cannot spin.
        fin = core.step_uops(1);
        continue;
      }
      ff_uops += done_uops;
      pending_ff += done_uops;
      if (done_uops > 0) {
        cpi_used = cpi;
        if (tracing) [[unlikely]]
          obs::sim_span(lane, "sample.ff", ff_start, core.front() - ff_start);
      }

      // Region complete — or no further fast-forward possible here (the
      // reserved tail or a chunk boundary): bracket the open region with a
      // fresh measurement, charge its error contribution, and adapt the
      // next region's length.
      if ((pending_ff >= region || done_uops == 0) && !fin) {
        if (measure()) {
          const bool agree = std::abs(cpi - cpi_used) <=
                             kSampleConvergence * std::max(cpi_used, 1e-9);
          account_pending(cpi);
          region = agree ? std::min(region * 2, ff_budget)
                         : std::max<std::uint64_t>(det, region / 2);
        } else if (done_uops == 0) {
          fin = core.step_uops(1);  // guaranteed progress
        }
      }
    }
  } catch (...) {
    rs->bind_replay(nullptr);
    throw;
  }

  RunResult r = core.finish_run();
  rs->bind_replay(nullptr);
  if (r.uops > 0)
    report.sampled_fraction =
        static_cast<double>(ff_uops) / static_cast<double>(r.uops);
  // The final region has no bracketing measurement: charge it the larger of
  // the latest observed CPI step and the floor.
  if (pending_ff > 0)
    err_cycles += static_cast<double>(pending_ff) *
                  std::max(last_delta, kSampleSpreadFloor * cpi_used);
  if (ff_uops > 0 && r.cycles > 0)
    report.sample_error =
        kSampleSafety * err_cycles / static_cast<double>(r.cycles);
  return r;
}

}  // namespace hm
