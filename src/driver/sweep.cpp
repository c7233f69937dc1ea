#include "driver/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <filesystem>
#include <fstream>

#include "common/log.hpp"
#include "compiler/codegen.hpp"
#include "driver/faults.hpp"
#include "driver/journal.hpp"
#include "driver/registry.hpp"
#include "driver/scheduler.hpp"
#include "driver/watchdog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads/microbench.hpp"

namespace hm::driver {

namespace {

MicroMode parse_micro_mode(const std::string& s) {
  if (s == "Baseline") return MicroMode::Baseline;
  if (s == "RD") return MicroMode::RD;
  if (s == "WR") return MicroMode::WR;
  if (s == "RDWR") return MicroMode::RDWR;
  throw std::invalid_argument("unknown micro_mode: " + s);
}

CodegenVariant variant_for(MachineKind kind) {
  switch (kind) {
    case MachineKind::HybridCoherent: return CodegenVariant::HybridProtocol;
    case MachineKind::HybridOracle: return CodegenVariant::HybridOracle;
    case MachineKind::CacheBased: return CodegenVariant::CacheOnly;
  }
  return CodegenVariant::CacheOnly;
}

}  // namespace

namespace {

/// Per-tile codegen seed: tile 0 keeps the point's seed bit-for-bit (a
/// one-tile run must replay the historical single-core streams); the other
/// tiles decorrelate their irregular address streams with a SplitMix-style
/// mix of the tile index.
std::uint64_t tile_seed(std::uint64_t seed, unsigned tile) {
  if (tile == 0) return seed;
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tile + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  return z ^ (z >> 31);
}

}  // namespace

PointResult run_point(const SweepPoint& p, const CancelToken* cancel) {
  return run_point(p, EngineConfig{}, cancel);
}

PointResult run_point(const SweepPoint& p, const EngineConfig& engine,
                      const CancelToken* cancel) {
  // Phase profiling: pure wall-clock observation around work the point does
  // anyway; nothing here feeds back into simulated state.  `sim_begin`
  // marks the setup/simulate boundary; compile() calls accumulate into
  // `codegen_s` (one per tile, interleaved with setup).
  using ProfClock = std::chrono::steady_clock;
  const auto prof_begin = ProfClock::now();
  auto prof_sim_begin = prof_begin;
  double codegen_s = 0.0;
  const auto secs = [](ProfClock::time_point a, ProfClock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  PointResult out;
  out.point = p;
  if (p.knob("fail") == "1")
    throw std::runtime_error("injected failure (fail=1 knob) at " + p.label);

  MachineConfig cfg = make_machine(p.machine);
  const unsigned dir_entries =
      static_cast<unsigned>(std::stoul(p.knob("dir_entries", "32")));
  cfg.directory.entries = dir_entries;
  const bool prefetch = p.knob("prefetch", "on") != "off";
  cfg.hierarchy.pf_l1.enabled = prefetch;
  cfg.hierarchy.pf_l2.enabled = prefetch;
  cfg.hierarchy.pf_l3.enabled = prefetch;
  const unsigned cores = static_cast<unsigned>(std::stoul(p.knob("cores", "1")));
  if (cores == 0 || cores > 256)
    throw std::invalid_argument("cores knob out of range (1..256) at " + p.label);
  const std::string topology = p.knob("topology", "flat");
  if (topology == "mesh") {
    cfg.noc.topology = Topology::Mesh;
  } else if (topology == "ring") {
    cfg.noc.topology = Topology::Ring;
  } else if (topology != "flat") {
    throw std::invalid_argument("unknown topology knob '" + topology + "' at " + p.label);
  }
  const unsigned mesh_dim = static_cast<unsigned>(std::stoul(p.knob("mesh_dim", "0")));
  if (mesh_dim != 0) {
    if (cfg.noc.topology != Topology::Mesh)
      throw std::invalid_argument("mesh_dim requires topology=mesh at " + p.label);
    if (cores % mesh_dim != 0)
      throw std::invalid_argument("mesh_dim does not divide cores at " + p.label);
    cfg.noc.mesh_x = mesh_dim;
    cfg.noc.mesh_y = cores / mesh_dim;
  }

  if (p.workload == "micro") {
    if (cores != 1)
      throw std::invalid_argument("workload micro is single-core only (cores=1) at " + p.label);
    MicrobenchConfig mc;
    mc.mode = parse_micro_mode(p.knob("micro_mode", "Baseline"));
    mc.guarded_pct = static_cast<unsigned>(std::stoul(p.knob("micro_pct", "0")));
    // scale 0.5 == the paper microbenchmark's 100'000 iterations.
    mc.iterations = static_cast<std::uint64_t>(std::llround(200'000.0 * p.scale));
    System sys(std::move(cfg));
    sys.set_engine(engine);
    Microbenchmark mb(mc);
    prof_sim_begin = ProfClock::now();
    out.report = sys.run(mb, cancel);
  } else if (!p.workload.empty()) {
    const Workload w = make_workload(p.workload, {.factor = p.scale});
    CodegenOptions co;
    co.variant = variant_for(cfg.kind);
    co.global_seed = p.seed;
    co.disable_readonly_opt = p.knob("readonly_opt", "on") == "off";
    // Compile against the hybrid machine's LM geometry on every machine
    // kind (like the original benches) so address streams match across
    // variants and runs stay directly comparable.
    const MachineConfig geometry = MachineConfig::hybrid_coherent();
    // SPMD: each tile compiles its own slice of the kernel (same loop
    // shape, balanced iteration slice, tile-private array region) against
    // its tile-local LM, and the System runs them with an end-of-stream
    // barrier over the shared uncore.  One tile is the whole kernel at the
    // point's own seed (make_spmd_slice(w, 0, 1) == w, tile_seed(s, 0) == s).
    System sys(std::move(cfg), cores);
    sys.set_engine(engine);
    std::vector<std::unique_ptr<CompiledKernel>> kernels;
    std::vector<InstrStream*> streams;
    kernels.reserve(cores);
    streams.reserve(cores);
    for (unsigned t = 0; t < cores; ++t) {
      const Workload slice = make_spmd_slice(w, t, cores);
      // More tiles than iterations: the trailing slices are empty (the
      // remainder goes to the first tiles) and those tiles stay idle.
      if (t > 0 && slice.loop.iterations == 0) break;
      CodegenOptions cot = co;
      cot.global_seed = tile_seed(p.seed, t);
      const auto cg_begin = ProfClock::now();
      kernels.push_back(std::make_unique<CompiledKernel>(
          compile(slice.loop, cot, geometry.lm.virtual_base, geometry.lm.size, dir_entries)));
      codegen_s += secs(cg_begin, ProfClock::now());
      streams.push_back(kernels.back().get());
    }
    // Both demotion causes (buffer-cap overflow, stride mismatch) leave a
    // strided ref on the cache path, so the column reports their sum.
    out.mapped_refs = kernels.front()->classification().num_regular;
    out.demoted_refs = kernels.front()->classification().demoted_regular +
                       kernels.front()->classification().demoted_stride;
    prof_sim_begin = ProfClock::now();
    out.report = sys.run(streams, cancel);
  }
  // An empty workload (config-only point) is legal and returns a zero report.
  //
  // Occupancy-horizon guard: a run whose bookings fell past the tracked
  // horizon has UNDERSTATED contention, so its numbers must never flow
  // silently into a table, the memo cache or a downstream script — fail the
  // point instead (failure isolation surfaces it per point and exits
  // non-zero).  This is the driver-level half of the guarantee; the unit
  // and golden tests assert the counters directly.
  if (p.workload.empty() || out.report.contention_overflows() == 0) {
    out.ok = true;
  } else {
    out.error = "occupancy horizon overflow (" +
                std::to_string(out.report.contention_overflows()) +
                " bookings untracked; contention understated) at " + p.label;
  }

  const auto prof_end = ProfClock::now();
  out.profile.simulate_seconds =
      prof_sim_begin == prof_begin ? 0.0 : secs(prof_sim_begin, prof_end);
  out.profile.codegen_seconds = codegen_s;
  out.profile.setup_seconds = std::max(
      0.0, secs(prof_begin, prof_end) - out.profile.simulate_seconds - codegen_s);
  out.profile.measured = true;  // serialize_seconds is the caller's (journal)
  return out;
}

namespace {

/// Format the wall deadline into deterministic text ("%g" of the CONFIGURED
/// budget, never the measured elapsed time, so identical configurations
/// produce identical error bytes on every host).
std::string wall_deadline_text(double seconds, const std::string& label) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", seconds);
  return std::string("timeout: wall deadline exceeded (") + buf + " s) at " + label;
}

/// One point, fortified: fault-injection hook, watchdog / cycle-budget
/// cancellation, bounded retry with capped exponential backoff, and the
/// error taxonomy.  Never throws — every failure mode lands in the returned
/// PointResult so the scheduler slot stays clean and the sweep continues.
PointResult run_point_fortified(const SweepPoint& p, const SweepOptions& opt,
                                Watchdog* dog,
                                std::atomic<std::size_t>& retries) {
  const unsigned max_attempts = opt.max_retries + 1;
  double backoff_ms = opt.retry_backoff_ms;
  for (unsigned attempt = 1;; ++attempt) {
    CancelToken token;
    if (opt.max_point_cycles != 0) token.set_cycle_limit(opt.max_point_cycles);
    Watchdog::Guard guard;
    if (dog != nullptr) guard = dog->arm(token, opt.point_deadline_seconds);
    PointResult r;
    r.point = p;
    r.attempts = attempt;
    try {
      trigger_fault(FaultSite::SweepWorker, {p.label, p.index, attempt}, &token);
      r = run_point(p, opt.engine, &token);
      r.attempts = attempt;
      // run_point's only non-throwing failure (occupancy-horizon overflow)
      // is an engine-invariant breach: deterministic, never retried.
      if (!r.ok) r.error_class = ErrorClass::Engine;
      return r;
    } catch (const CancelledError& e) {
      r.ok = false;
      r.error_class = ErrorClass::Timeout;
      if (e.reason() == CancelledError::Reason::CycleLimit) {
        // Deterministic: a pure function of the configured budget, so a
        // budget timeout serializes identically at any --jobs value.
        r.error = "timeout: cycle budget exceeded (" +
                  std::to_string(opt.max_point_cycles) + " simulated cycles) at " +
                  p.label;
      } else {
        r.error = wall_deadline_text(opt.point_deadline_seconds, p.label);
      }
      return r;
    } catch (const TransientError& e) {
      if (attempt < max_attempts) {
        retries.fetch_add(1, std::memory_order_relaxed);
        // The backoff wait becomes a sweep-trace span: dead wall time a
        // stalled sweep spent sleeping is visible, not mysterious.
        obs::TraceSink* ss = obs::sweep_sink();
        const std::uint64_t bk0 = ss != nullptr ? ss->now_us() : 0;
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
        if (ss != nullptr) {
          const auto lane = ss->lane(obs::TraceSink::Track::Wall, "retries");
          ss->span(obs::TraceSink::Track::Wall, lane, "retry.backoff", bk0,
                   ss->now_us() - bk0, "attempt", static_cast<double>(attempt));
        }
        backoff_ms = std::min(backoff_ms * 2.0, 1000.0);
        continue;
      }
      r.ok = false;
      r.error_class = ErrorClass::Transient;
      r.error = std::string("transient failure (") + std::to_string(max_attempts) +
                " attempts exhausted): " + e.what();
      return r;
    } catch (const CorruptCacheError& e) {
      r.ok = false;
      r.error_class = ErrorClass::CorruptCache;
      r.error = e.what();
      return r;
    } catch (const std::invalid_argument& e) {
      r.ok = false;
      r.error_class = ErrorClass::Config;
      r.error = e.what();
      return r;
    } catch (const std::out_of_range& e) {
      r.ok = false;
      r.error_class = ErrorClass::Config;
      r.error = e.what();
      return r;
    } catch (const std::exception& e) {
      r.ok = false;
      r.error_class = ErrorClass::Engine;
      r.error = e.what();
      return r;
    }
  }
}

/// Builtin metric handles resolved once per sweep (registration happened in
/// MetricsRegistry::global(); these lookups only find existing instances).
struct SweepMetrics {
  obs::Counter& points = reg().counter("hm_sweep_points_total", "");
  obs::Counter& failures = reg().counter("hm_sweep_point_failures_total", "");
  obs::Counter& timeouts = reg().counter("hm_sweep_point_timeouts_total", "");
  obs::Counter& retries = reg().counter("hm_sweep_point_retries_total", "");
  obs::Counter& cache_hits = reg().counter("hm_sweep_cache_hits_total", "");
  obs::Counter& cache_misses = reg().counter("hm_sweep_cache_misses_total", "");
  obs::Gauge& cache_ratio = reg().gauge("hm_sweep_cache_hit_ratio", "");
  obs::Gauge& workers = reg().gauge("hm_scheduler_workers", "");
  obs::Gauge& queue_depth = reg().gauge("hm_scheduler_queue_depth", "");
  obs::Gauge& utilization =
      reg().gauge("hm_scheduler_worker_utilization_ratio", "");
  obs::Histogram& wall = reg().histogram("hm_point_wall_seconds", "", {});
  obs::Histogram& ph_setup =
      reg().histogram("hm_point_phase_seconds", "", {}, "phase=\"setup\"");
  obs::Histogram& ph_codegen =
      reg().histogram("hm_point_phase_seconds", "", {}, "phase=\"codegen\"");
  obs::Histogram& ph_simulate =
      reg().histogram("hm_point_phase_seconds", "", {}, "phase=\"simulate\"");
  obs::Histogram& ph_serialize =
      reg().histogram("hm_point_phase_seconds", "", {}, "phase=\"serialize\"");
  obs::Counter& occ_delay =
      reg().counter("hm_occupancy_delay_cycles_total", "");
  obs::Counter& sim_cycles = reg().counter("hm_sim_cycles_total", "");
  obs::Histogram& sampled_fraction = reg().histogram("hm_sampled_fraction", "", {});
  obs::Histogram& sample_error = reg().histogram("hm_sample_error", "", {});
  obs::Counter& noc_msgs = reg().counter("hm_noc_messages_total", "");
  obs::Counter& noc_hops = reg().counter("hm_noc_hops_total", "");
  obs::Counter& noc_flits = reg().counter("hm_noc_flits_total", "");
  obs::Counter& noc_queue = reg().counter("hm_noc_link_queue_cycles_total", "");

 private:
  static obs::MetricsRegistry& reg() { return obs::MetricsRegistry::global(); }
};

/// Sweep-trace worker lanes: one display row per OS thread that ever ran a
/// point.  The id is process-lifetime (lanes are stable across sweeps).
unsigned worker_lane_id() {
  static std::atomic<unsigned> seq{0};
  thread_local unsigned id = seq.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// trace_dir/<experiment>/profile.json: per-point phase attribution (wall
/// seconds per phase + simulated cycles) and the sweep totals.  A trace
/// artifact, not a result: wall times are host-dependent and must never
/// appear in the JSON/CSV the determinism invariants diff.
void write_profile_json(const std::string& path, const SweepOutcome& out) {
  std::string text = "{\n\"experiment\":\"" + out.spec.name + "\",\n";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"executed\":%zu,\n\"setup_seconds\":%.6f,\n"
                "\"codegen_seconds\":%.6f,\n\"simulate_seconds\":%.6f,\n"
                "\"serialize_seconds\":%.6f,\n\"points\":[\n",
                out.executed, out.setup_seconds, out.codegen_seconds,
                out.simulate_seconds, out.serialize_seconds);
  text += buf;
  bool first = true;
  for (const PointResult& r : out.points) {
    if (!r.profile.measured) continue;
    if (!first) text += ",\n";
    first = false;
    text += "{\"label\":\"";
    append_json_escaped(text, r.point.label);
    std::snprintf(buf, sizeof buf,
                  "\",\"setup_seconds\":%.6f,\"codegen_seconds\":%.6f,"
                  "\"simulate_seconds\":%.6f,\"serialize_seconds\":%.6f,"
                  "\"sim_cycles\":%llu}",
                  r.profile.setup_seconds, r.profile.codegen_seconds,
                  r.profile.simulate_seconds, r.profile.serialize_seconds,
                  static_cast<unsigned long long>(r.report.cycles()));
    text += buf;
  }
  text += "\n]\n}\n";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) return;
    f << text;
    if (!f) {
      f.close();
      std::remove(tmp.c_str());
      return;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) std::remove(tmp.c_str());
}

}  // namespace

SweepOutcome run_sweep(const ExperimentSpec& spec, const SweepOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<SweepPoint> points = expand(spec, opt.scale_override);
  if (!opt.knob_overrides.empty()) {
    // Machine-changing overrides (topology, mesh_dim, ...) enter the knob
    // map — and with it the canonical identity — exactly like a grid axis
    // would; values equal to the canonical default are elided so a
    // `--topology flat` invocation stays byte-identical to no flag at all.
    const auto& defaults = default_knobs();
    for (SweepPoint& p : points)
      for (const auto& [k, v] : opt.knob_overrides) {
        const auto d = defaults.find(k);
        if (d != defaults.end() && d->second == v)
          p.knobs.erase(k);
        else
          p.knobs[k] = v;
      }
  }

  SweepOutcome out;
  out.spec = spec;
  out.points.resize(points.size());

  // Engine configurations that can change results (sampling, or a finite
  // quantum) must never feed the caches or the journal: the canonical point
  // identity elides engine knobs — sound because the default engine IS the
  // serial reference — so a result stored under that identity would later
  // satisfy a serial lookup.  Disable all three for such sweeps.
  const bool engine_alters = engine_alters_results(opt.engine);
  if (engine_alters && (!opt.journal_dir.empty() || !opt.cache_dir.empty() ||
                        opt.session_cache != nullptr))
    HM_WARN("sweep " << spec.name
                     << ": engine config alters results (sampled simulation "
                        "or finite quantum) — memo cache, session cache and "
                        "journal disabled for this sweep");
  const std::string journal_dir = engine_alters ? std::string{} : opt.journal_dir;
  RunCache* const session_cache = engine_alters ? nullptr : opt.session_cache;

  SweepJournal journal(journal_dir, spec.name);
  const MemoCache disk(engine_alters ? std::string{} : opt.cache_dir);
  std::vector<char> resolved(points.size(), 0);

  // Observability setup.  The sweep sink collects driver-level events; each
  // executed point gets its own sink (and file) inside the scheduler body so
  // concurrent points never interleave their engine timelines.  Metric
  // handles resolve to pre-registered builtins — no registration happens on
  // worker threads, keeping exposition order deterministic.
  SweepMetrics mx;
  std::string trace_exp_dir;
  std::unique_ptr<obs::TraceSink> sweep_trace;
  if (!opt.trace_dir.empty()) {
    trace_exp_dir = opt.trace_dir + "/" + spec.name;
    std::error_code ec;
    std::filesystem::create_directories(trace_exp_dir, ec);
    if (ec) {
      HM_WARN("trace: cannot create " << trace_exp_dir << ": " << ec.message()
                                      << " — tracing disabled for this sweep");
      trace_exp_dir.clear();
    } else {
      sweep_trace = std::make_unique<obs::TraceSink>();
    }
  }
  obs::ScopedSweepSink sweep_sink_guard(sweep_trace.get());

  // Resume pass: replay intact journal records (ok AND quarantined — a
  // finished point is a finished point) before consulting any cache, so an
  // interrupted sweep re-runs only what had not completed.  Matching is by
  // canonical identity; the replayed record adopts the current expansion's
  // experiment/index/label exactly like a cache hit does.
  if (opt.resume && !journal_dir.empty()) {
    std::unordered_map<std::string, PointResult> prior;
    for (PointResult& rec : SweepJournal::load(journal_dir, spec.name))
      prior[rec.point.canonical()] = std::move(rec);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto it = prior.find(points[i].canonical());
      if (it == prior.end()) continue;
      out.points[i] = it->second;
      out.points[i].point = points[i];
      resolved[i] = 1;
      ++out.resumed;
      if (sweep_trace) {
        const auto lane = sweep_trace->lane(obs::TraceSink::Track::Wall, "journal");
        sweep_trace->instant(obs::TraceSink::Track::Wall, lane, "journal.replay",
                             sweep_trace->now_us());
      }
      if (out.points[i].ok && session_cache) session_cache->store(out.points[i]);
    }
  }

  std::vector<std::size_t> todo;
  todo.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (resolved[i]) continue;
    std::optional<PointResult> hit;
    if (session_cache) hit = session_cache->lookup(points[i]);
    if (!hit && disk.enabled()) {
      hit = disk.lookup(points[i]);
      // Promote disk hits so later experiments sharing the point skip the
      // file read/parse as well.
      if (hit && session_cache) session_cache->store(*hit);
    }
    if (hit) {
      out.points[i] = std::move(*hit);
      ++out.cache_hits;
      if (sweep_trace) {
        const auto lane = sweep_trace->lane(obs::TraceSink::Track::Wall, "cache");
        sweep_trace->instant(obs::TraceSink::Track::Wall, lane, "cache.hit",
                             sweep_trace->now_us());
      }
    } else {
      todo.push_back(i);
      if (sweep_trace) {
        const auto lane = sweep_trace->lane(obs::TraceSink::Track::Wall, "cache");
        sweep_trace->instant(obs::TraceSink::Track::Wall, lane, "cache.miss",
                             sweep_trace->now_us());
      }
    }
  }

  std::optional<Watchdog> dog;
  if (opt.point_deadline_seconds > 0.0) dog.emplace();

  std::atomic<std::size_t> retries{0};
  std::atomic<double> busy_seconds{0.0};
  std::atomic<bool> observer_armed{static_cast<bool>(opt.point_observer)};
  SweepScheduler scheduler(opt.jobs);
  mx.workers.set(static_cast<double>(scheduler.jobs()));
  mx.queue_depth.set(static_cast<double>(todo.size()));
  // Queue depth rides the existing exception-guarded progress callback; the
  // user's callback (if any) is chained after the gauge update.
  const SweepScheduler::Progress progress =
      [&mx, user = opt.progress](std::size_t done, std::size_t total) {
        mx.queue_depth.set(static_cast<double>(total - done));
        if (user) user(done, total);
      };
  const std::vector<std::string> errors = scheduler.run(
      todo.size(),
      [&](std::size_t t) {
        const std::size_t i = todo[t];
        const auto pt_begin = std::chrono::steady_clock::now();
        // Per-point trace sink: installed thread-locally for the duration
        // of the simulation so engine emit sites find it; one file per
        // point keeps concurrent points' timelines apart.
        std::unique_ptr<obs::TraceSink> point_trace;
        if (!trace_exp_dir.empty())
          point_trace = std::make_unique<obs::TraceSink>();
        {
          obs::ScopedThreadSink sink_guard(point_trace.get());
          out.points[i] = run_point_fortified(points[i], opt,
                                              dog ? &*dog : nullptr, retries);
        }
        PointResult& r = out.points[i];
        // Journal as each point lands (ok or quarantined): after a crash at
        // any instant, everything already finished is recoverable.  The
        // append is the point's serialize phase.
        const auto ser_begin = std::chrono::steady_clock::now();
        journal.append(r);
        const auto pt_end = std::chrono::steady_clock::now();
        if (r.profile.measured)
          r.profile.serialize_seconds =
              std::chrono::duration<double>(pt_end - ser_begin).count();

        const double pt_secs =
            std::chrono::duration<double>(pt_end - pt_begin).count();
        busy_seconds.fetch_add(pt_secs, std::memory_order_relaxed);
        mx.points.inc();
        mx.wall.observe(pt_secs);
        if (r.profile.measured) {
          mx.ph_setup.observe(r.profile.setup_seconds);
          mx.ph_codegen.observe(r.profile.codegen_seconds);
          mx.ph_simulate.observe(r.profile.simulate_seconds);
          mx.ph_serialize.observe(r.profile.serialize_seconds);
        }
        mx.sim_cycles.inc(static_cast<double>(r.report.cycles()));
        if (opt.engine.sampling.enabled()) {
          mx.sampled_fraction.observe(r.report.sampled_fraction);
          mx.sample_error.observe(r.report.sample_error);
        }
        mx.occ_delay.inc(static_cast<double>(
            r.report.l2_port.queue_cycles + r.report.l3_port.queue_cycles +
            r.report.dram.queue_cycles + r.report.dma_bus.queue_cycles +
            r.report.noc_links.queue_cycles));
        if (r.report.noc_nodes != 0) {
          mx.noc_msgs.inc(static_cast<double>(r.report.noc_msgs));
          mx.noc_hops.inc(static_cast<double>(r.report.noc_hops));
          mx.noc_flits.inc(static_cast<double>(r.report.noc_flits));
          mx.noc_queue.inc(
              static_cast<double>(r.report.noc_links.queue_cycles));
        }

        if (sweep_trace) {
          // Scheduler job lifecycle: one span per point on this worker's
          // lane of the sweep timeline.
          char lane_name[24];
          std::snprintf(lane_name, sizeof lane_name, "worker%u",
                        worker_lane_id());
          const auto lane =
              sweep_trace->lane(obs::TraceSink::Track::Wall, lane_name);
          sweep_trace->span(obs::TraceSink::Track::Wall, lane,
                            sweep_trace->intern(r.point.label),
                            sweep_trace->to_us(pt_begin),
                            sweep_trace->to_us(pt_end) -
                                sweep_trace->to_us(pt_begin),
                            "attempts", static_cast<double>(r.attempts));
        }
        if (point_trace) {
          // Wall-track phase attribution, stacked in phase order (codegen
          // interleaves with setup on the multi-core path, so these are
          // attribution bars, not literal sub-intervals).
          const auto lane =
              point_trace->lane(obs::TraceSink::Track::Wall, "phases");
          const auto us = [](double s) {
            return static_cast<std::uint64_t>(s * 1e6);
          };
          std::uint64_t at = point_trace->to_us(pt_begin);
          const std::pair<const char*, double> phases[] = {
              {"phase.setup", r.profile.setup_seconds},
              {"phase.codegen", r.profile.codegen_seconds},
              {"phase.simulate", r.profile.simulate_seconds},
              {"phase.serialize", r.profile.serialize_seconds}};
          for (const auto& [name, secs] : phases) {
            if (r.profile.measured && secs > 0.0)
              point_trace->span(obs::TraceSink::Track::Wall, lane, name, at,
                                us(secs));
            at += us(secs);
          }
          char fname[48];
          std::snprintf(fname, sizeof fname, "point_%04zu.trace.json", i);
          point_trace->write_file(trace_exp_dir + "/" + fname);
        }
        if (observer_armed.load(std::memory_order_relaxed)) {
          try {
            opt.point_observer(r);
          } catch (...) {
            observer_armed.store(false, std::memory_order_relaxed);
          }
        }
      },
      progress);

  for (std::size_t t = 0; t < todo.size(); ++t) {
    const std::size_t i = todo[t];
    if (!errors[t].empty()) {
      // Backstop: run_point_fortified never throws, so this is scheduler-
      // level breakage (e.g. a throwing progress callback's debris).
      out.points[i] = PointResult{};
      out.points[i].point = points[i];
      out.points[i].error = errors[t];
      out.points[i].error_class = ErrorClass::Engine;
      out.points[i].attempts = 1;
      continue;
    }
    if (out.points[i].ok) {
      if (disk.enabled()) disk.store(out.points[i]);
      if (session_cache) session_cache->store(out.points[i]);
    }
  }
  for (const PointResult& r : out.points) {
    if (r.ok) continue;
    ++out.failures;
    if (r.error_class == ErrorClass::Timeout) ++out.timeouts;
  }
  out.retries = retries.load(std::memory_order_relaxed);
  out.cache_corrupt = disk.corrupt_entries();
  out.stale_entries = disk.stale_entries();

  // Phase attribution over executed points (profile.measured excludes cache
  // hits, resumed replays, and points that failed before measuring).
  for (const PointResult& r : out.points) {
    if (!r.profile.measured) continue;
    ++out.executed;
    out.setup_seconds += r.profile.setup_seconds;
    out.codegen_seconds += r.profile.codegen_seconds;
    out.simulate_seconds += r.profile.simulate_seconds;
    out.serialize_seconds += r.profile.serialize_seconds;
  }

  // Sweep-level metrics: counters accumulate across sweeps in one process;
  // gauges reflect the last sweep.
  mx.failures.inc(static_cast<double>(out.failures));
  mx.timeouts.inc(static_cast<double>(out.timeouts));
  mx.retries.inc(static_cast<double>(out.retries));
  mx.cache_hits.inc(static_cast<double>(out.cache_hits));
  mx.cache_misses.inc(static_cast<double>(todo.size()));
  mx.queue_depth.set(0.0);
  const std::size_t looked_up = out.cache_hits + todo.size();
  if (looked_up != 0)
    mx.cache_ratio.set(static_cast<double>(out.cache_hits) /
                       static_cast<double>(looked_up));

  // Clean completion: compact the journal to exactly the final result set,
  // so repeated journaled runs stay O(points) and a later --resume replays
  // everything instantly.
  journal.compact(out.points);

  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const double worker_span =
      static_cast<double>(scheduler.jobs()) * out.wall_seconds;
  if (worker_span > 0.0)
    mx.utilization.set(std::min(
        1.0, busy_seconds.load(std::memory_order_relaxed) / worker_span));

  // Trace artifacts last, so they capture the whole sweep.
  if (!trace_exp_dir.empty()) {
    if (sweep_trace) sweep_trace->write_file(trace_exp_dir + "/sweep.trace.json");
    write_profile_json(trace_exp_dir + "/profile.json", out);
  }
  return out;
}

const PointResult* SweepView::find(
    const std::vector<std::pair<std::string, std::string>>& match) const {
  for (const PointResult& pr : points) {
    bool all = true;
    for (const auto& [key, want] : match) {
      std::string actual;
      if (key == "machine") actual = pr.point.machine;
      else if (key == "workload") actual = pr.point.workload;
      else actual = pr.point.knob(key);
      if (actual != want) {
        all = false;
        break;
      }
    }
    if (all) return &pr;
  }
  return nullptr;
}

const RunReport& SweepView::report(
    const std::vector<std::pair<std::string, std::string>>& match) const {
  const PointResult* pr = find(match);
  if (pr == nullptr) {
    std::string what = "no point matches";
    for (const auto& [k, v] : match) what += " " + k + "=" + v;
    throw std::runtime_error(what);
  }
  if (!pr->ok) throw std::runtime_error("point " + pr->point.label + " failed: " + pr->error);
  return pr->report;
}

std::string render(const SweepOutcome& out) {
  std::string text = "\n==== " + out.spec.title + " ====\n";
  const SweepView view{out.spec, out.points};
  try {
    if (out.spec.render) {
      text += out.spec.render(view);
    } else {
      // Generic listing for specs without a bespoke table.
      char buf[256];
      for (const PointResult& r : out.points) {
        if (r.ok) {
          std::snprintf(buf, sizeof(buf), "%-40s %14llu cycles %16.0f pJ\n",
                        r.point.label.c_str(),
                        static_cast<unsigned long long>(r.report.cycles()),
                        r.report.total_energy());
        } else {
          std::snprintf(buf, sizeof(buf), "%-40s FAILED: %s\n", r.point.label.c_str(),
                        r.error.c_str());
        }
        text += buf;
      }
    }
  } catch (const std::exception& e) {
    text += std::string("RENDER ERROR: ") + e.what() + "\n";
    for (const PointResult& r : out.points)
      if (!r.ok) text += "  failed point " + r.point.label + ": " + r.error + "\n";
  }
  return text;
}

std::string to_json(const SweepOutcome& out) {
  // Fault site report_serialize: throw kinds propagate to the CLI's fatal
  // path (exit 1) — results stay safe in the journal for --resume.
  trigger_fault(FaultSite::ReportSerialize, {out.spec.name, 0, 1});
  std::string text = "{\n\"experiment\":\"" + out.spec.name + "\",\n\"engine_version\":" +
                     std::to_string(kEngineVersion) + ",\n\"points\":[\n";
  for (std::size_t i = 0; i < out.points.size(); ++i) {
    text += point_json(out.points[i]);
    if (i + 1 < out.points.size()) text += ',';
    text += '\n';
  }
  text += "]\n}\n";
  return text;
}

std::string to_csv(const SweepOutcome& out) {
  trigger_fault(FaultSite::ReportSerialize, {out.spec.name, 0, 1});
  std::string text = csv_header();
  for (const PointResult& r : out.points) text += csv_row(r);
  return text;
}

int bench_main(const std::string& experiment) {
  const ExperimentSpec* spec = find_experiment(experiment);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown experiment: %s\n", experiment.c_str());
    return 2;
  }
  SweepOptions opt;
  opt.jobs = 0;  // all cores; results are identical for any jobs value
  const SweepOutcome out = run_sweep(*spec, opt);
  std::fputs(render(out).c_str(), stdout);
  return out.failures == 0 ? 0 : 1;
}

}  // namespace hm::driver
