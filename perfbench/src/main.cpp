// hm_perfbench: the measuring program of the repository benchmark.
// perfbench/run.py builds and runs it; perfbench/README.md documents the
// workloads, the metrics and the checks.
//
//   hm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                --work-dir DIR [--pins FILE] [--scale F]
//   hm_perfbench --write-pins FILE --work-dir DIR
//
// --trace 0 repeats whole passes over the workload while one more pass, as
// long as the last, still ends within S seconds, and reports the end-to-end
// metrics as medians over passes.
// --trace 1 makes one untraced pass, rebuilds every simulated point from
// public calls with a span around each layer call, times standalone
// per-layer replays, and reports the per-layer metrics.  Both check every
// output.  The last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it holds the run's details.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "compiler/replay.hpp"
#include "driver/journal.hpp"
#include "driver/result.hpp"
#include "driver/sweep.hpp"
#include "perfbench.hpp"
#include "sim/report.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using hm::driver::SweepOutcome;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::optional<double> scale;
  std::string pins;
  std::string work_dir;
  std::string write_pins;
};

int usage() {
  std::fprintf(stderr,
               "usage: hm_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                    --work-dir DIR [--pins FILE] [--scale F]\n"
               "       hm_perfbench --write-pins FILE --work-dir DIR\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds > 0.0)) return false;
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      o.trace = v[0] - '0';
    } else if (arg == "--scale") {
      const double s = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(s > 0.0)) return false;
      o.scale = s;
    } else if (arg == "--pins") {
      o.pins = v;
    } else if (arg == "--work-dir") {
      o.work_dir = v;
    } else if (arg == "--write-pins") {
      o.write_pins = v;
    } else {
      return false;
    }
  }
  return !o.work_dir.empty() && (!o.write_pins.empty() || !o.workload.empty());
}

std::optional<double> scale_of(const Workload& w, const Options& o) {
  return o.scale ? o.scale : w.scale;
}

// --------------------------------------------------------------- passes ----

/// One pass: every experiment of the workload through run_sweep, the way
/// `hm_sweep run` drives them -- one shared session cache, a memo cache and
/// a journal -- all starting empty, with an empty descriptor cache, so each
/// pass pays what a cold sweep pays, store and journal costs included.
struct Pass {
  std::vector<SweepOutcome> outcomes;
  double wall_s = 0.0;
};

Pass run_pass(const std::vector<const ExperimentSpec*>& order, unsigned jobs,
              const hm::EngineConfig& engine, std::optional<double> scale,
              const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  hm::clear_replay_cache();
  hm::driver::RunCache session;
  hm::driver::SweepOptions opt;
  opt.jobs = jobs;
  opt.scale_override = scale;
  opt.engine = engine;
  // run_sweep drops every store (with a warning) for engines that alter
  // results, so they are passed only where they are used.
  if (!hm::engine_alters_results(engine)) {
    opt.cache_dir = dir + "/cache";
    opt.journal_dir = dir + "/journal";
    opt.session_cache = &session;
  }
  Pass pass;
  const auto t0 = Clock::now();
  for (const ExperimentSpec* spec : order) pass.outcomes.push_back(hm::driver::run_sweep(*spec, opt));
  pass.wall_s = seconds_since(t0);
  fs::remove_all(dir, ec);
  return pass;
}

/// Totals over the points of a pass.  Simulated points are counted from
/// the points themselves: SweepOutcome::executed and its phase sums also
/// count session-cache hits, whose copied profile still reads measured.
struct PassStats {
  std::size_t points = 0;
  std::size_t failed = 0;
  std::size_t session_hits = 0;
  std::size_t unique = 0;  ///< distinct canonical identities simulated
  double setup_s = 0.0;
  std::uint64_t uops = 0;
  std::vector<const PointResult*> ran;  ///< the points simulated in the pass
};

PassStats stats_of(const Pass& pass) {
  PassStats st;
  std::set<std::string> seen;
  for (const SweepOutcome& out : pass.outcomes)
    for (const PointResult& r : out.points) {
      ++st.points;
      if (!r.ok) ++st.failed;
      if (r.from_cache) {
        ++st.session_hits;
        continue;
      }
      if (!r.profile.measured) continue;
      st.ran.push_back(&r);
      st.setup_s += r.profile.setup_seconds + r.profile.codegen_seconds;
      st.uops += r.report.core.uops;
      if (seen.insert(r.point.canonical()).second) ++st.unique;
    }
  return st;
}

// --------------------------------------------------------------- checks ----

struct Reference {
  std::optional<std::string> digest;           ///< pinned digest of the workload
  std::map<std::string, std::uint64_t> exact;  ///< sampled workloads: exact cycles
};

std::map<std::string, std::uint64_t> exact_cycles(const Pass& pass) {
  std::map<std::string, std::uint64_t> out;
  for (const SweepOutcome& o : pass.outcomes)
    for (const PointResult& r : o.points)
      if (r.ok) out[r.point.canonical()] = r.report.cycles();
  return out;
}

Reference reference_for(const Workload& w, const Options& o,
                        const std::vector<const ExperimentSpec*>& order,
                        std::vector<std::string>& errors) {
  Reference ref;
  if (o.scale) {
    // Pins hold the default scale only: no digest to compare, and the
    // sampled error check takes its exact cycles from one untimed pass of
    // the exact engine.
    if (w.sampled)
      ref.exact = exact_cycles(
          run_pass(order, 1, hm::EngineConfig{}, o.scale, o.work_dir + "/exact"));
    return ref;
  }
  const std::optional<Pins> pins = o.pins.empty() ? std::nullopt : Pins::load(o.pins);
  if (!pins) {
    errors.push_back("no pins file at '" + o.pins + "'");
  } else if (pins->engine_version != hm::kEngineVersion) {
    errors.push_back("pins were written for engine version " +
                     std::to_string(pins->engine_version) + " but the engine is version " +
                     std::to_string(hm::kEngineVersion) + ": re-pin with run.py --write-pins");
  } else {
    const auto it = pins->digest.find(w.name);
    if (it == pins->digest.end())
      errors.push_back("no pinned digest for workload " + w.name);
    else
      ref.digest = it->second;
    if (w.sampled) ref.exact = pins->exact_cycles;
  }
  return ref;
}

/// Every point ok, no occupancy overflow, no value mismatch, one result per
/// identity, the digest equal to the pinned one, and every sampled point's
/// true cycle error within its own reported bound.
void check_pass(const Workload& w, const Pass& pass, const Reference& ref, Digest& digest,
                std::vector<double>& sample_errs, std::vector<std::string>& errors) {
  for (const SweepOutcome& out : pass.outcomes)
    for (const PointResult& r : out.points) {
      const std::string& label = r.point.label;
      if (!r.ok) {
        errors.push_back("point " + label + " failed: " + r.error);
        continue;
      }
      if (r.report.contention_overflows() != 0)
        errors.push_back("point " + label + " overflowed the occupancy horizon");
      if (r.report.core.value_mismatches != 0)
        errors.push_back("point " + label + " has value mismatches");
      digest.add(r);
      if (!w.sampled) continue;
      const auto it = ref.exact.find(r.point.canonical());
      if (it == ref.exact.end() || it->second == 0) {
        errors.push_back("point " + label + " has no exact reference cycles");
        continue;
      }
      const double exact = static_cast<double>(it->second);
      const double err = std::abs(static_cast<double>(r.report.cycles()) - exact) / exact;
      sample_errs.push_back(err);
      if (err > r.report.sample_error + 1e-12) {
        char buf[160];
        std::snprintf(buf, sizeof buf, " is off by %.4f%%, beyond its bound of %.4f%%",
                      100.0 * err, 100.0 * r.report.sample_error);
        errors.push_back("sampled point " + label + buf);
      }
    }
  for (const std::string& c : digest.conflicts)
    errors.push_back("identity " + c + " produced two different results");
  if (ref.digest && digest.hex() != *ref.digest)
    errors.push_back("digest " + digest.hex() + " differs from the pinned " + *ref.digest);
}

// --------------------------------------------------------------- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  hm::driver::append_json_escaped(out, s);
  return out + "\"";
}

std::string details_head(const Workload& w, const Options& o) {
  return "\"workload\": " + json_str(w.name) + ", \"seed\": " + std::to_string(o.seed) +
         ", \"trace\": " + std::to_string(o.trace) +
         ", \"scale\": " + (o.scale ? number(*o.scale) : json_str("default")) +
         ", \"jobs\": " + std::to_string(w.jobs) +
         ", \"engine_version\": " + std::to_string(hm::kEngineVersion) +
         ", \"build_type\": " + json_str(HM_PERFBENCH_BUILD_TYPE) +
         ", \"native_arch\": " + std::to_string(HM_PERFBENCH_NATIVE_ARCH);
}

/// Prints the details line and the result line; returns the exit code.
int print_run(const std::string& details, const std::vector<std::string>& errors,
              std::size_t attempted, std::size_t failed, const std::vector<Metric>& metrics) {
  std::vector<std::string> unique;
  for (const std::string& e : errors)
    if (std::find(unique.begin(), unique.end(), e) == unique.end()) unique.push_back(e);
  for (const std::string& e : unique)
    std::fprintf(stderr, "hm_perfbench: check failed: %s\n", e.c_str());
  std::string d = "{" + details + ", \"errors\": [";
  for (std::size_t i = 0; i < unique.size() && i < 20; ++i)
    d += (i == 0 ? "" : ", ") + json_str(unique[i]);
  d += "]}";
  std::string r = "{\"correct\": ";
  r += unique.empty() ? "true" : "false";
  r += ", \"attempted\": " + std::to_string(attempted);
  r += ", \"failed\": " + std::to_string(failed);
  r += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) r += ", ";
    r += json_str(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
         ", \"unit\": " + json_str(metrics[i].unit) + "}";
  }
  r += "}}";
  std::printf("%s\n%s\n", d.c_str(), r.c_str());
  std::fflush(stdout);
  return unique.empty() ? 0 : 1;
}

// ------------------------------------------------------------- untraced ----

int run_untraced(const Workload& w, const Options& o) {
  std::vector<std::string> errors;
  const auto order = experiment_order(w, o.seed);
  const auto scale = scale_of(w, o);
  const hm::EngineConfig engine = engine_for(w);
  const Reference ref = reference_for(w, o, order, errors);

  std::vector<double> walls, setups, rates;
  std::size_t attempted = 0, failed = 0, points = 0, executed = 0, unique = 0, hits = 0;
  std::string digest_hex;
  const auto start = Clock::now();
  do {
    // Each pass visits the experiments in its own order, so with several
    // workers the medians (and the peak RSS) cover the orders' different
    // schedules instead of depending on the one the seed picked.
    const auto pass_order = experiment_order(w, o.seed * 1000 + walls.size());
    const Pass pass = run_pass(pass_order, w.jobs, engine, scale, o.work_dir + "/pass");
    const PassStats st = stats_of(pass);
    Digest d;
    std::vector<double> sample_errs;
    check_pass(w, pass, ref, d, sample_errs, errors);
    digest_hex = d.hex();
    walls.push_back(pass.wall_s);
    setups.push_back(st.setup_s);
    rates.push_back(ratio(static_cast<double>(st.uops), pass.wall_s) / 1e6);
    attempted += st.points;
    failed += st.failed;
    points = st.points;
    executed = st.ran.size();
    unique = st.unique;
    hits = st.session_hits;
  } while (seconds_since(start) + walls.back() < o.seconds);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB

  std::string details = details_head(w, o) + ", \"pass_wall_s\": [";
  for (std::size_t i = 0; i < walls.size(); ++i) details += (i == 0 ? "" : ", ") + number(walls[i]);
  details += "], \"digest\": " + json_str(digest_hex) + ", \"points\": " + std::to_string(points) +
             ", \"executed\": " + std::to_string(executed) +
             ", \"unique_executed\": " + std::to_string(unique) +
             ", \"session_hits\": " + std::to_string(hits);
  return print_run(details, errors, attempted, failed,
                   {{"wall_s", median(walls), "s"},
                    {"setup_s", median(setups), "s"},
                    {"sim_muops_per_s", median(rates), "Muop/s"},
                    {"peak_rss_mb", rss_mb, "MB"}});
}

// --------------------------------------------------------------- traced ----

struct TracedPoint {
  PointResult result;
  std::size_t experiment = 0;  ///< index into the visit order
  PointSpans spans;
  double serialize = 0.0;
  double journal = 0.0;  ///< 0 where run_sweep keeps no journal
  double memo = 0.0;     ///< 0 where run_sweep keeps no memo cache
  double total = 0.0;
};

struct Traced {
  std::vector<TracedPoint> points;
  std::size_t session_hits = 0;
  double wall_s = 0.0;
  double memo_lookup_us = 0.0;
  double journal_load_ms = 0.0;
  std::vector<std::string> errors;
};

/// Joins every thread of a pool, on exception paths too.
struct Joiner {
  std::vector<std::thread>& pool;
  ~Joiner() {
    for (std::thread& t : pool)
      if (t.joinable()) t.join();
  }
};

/// Rebuild every point a pass simulates on the workload's worker count,
/// each followed by the point_json -> SweepJournal::append ->
/// MemoCache::store chain run_sweep runs for an executed point; then time
/// lookups and journal loads of what was stored.  run_sweep keeps no
/// session cache, memo cache or journal for engines that alter results, so
/// there only point_json follows the rebuild, and every point runs.
Traced traced_rebuild(const Workload& w, const std::vector<const ExperimentSpec*>& order,
                      const hm::EngineConfig& engine, std::optional<double> scale,
                      const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  hm::clear_replay_cache();
  Traced tr;
  const bool stores = !hm::engine_alters_results(engine);
  std::set<std::string> seen;
  std::vector<SweepPoint> todo;
  for (std::size_t e = 0; e < order.size(); ++e)
    for (SweepPoint& p : hm::driver::expand(*order[e], scale)) {
      if (stores && !seen.insert(p.canonical()).second) {
        ++tr.session_hits;
        continue;
      }
      todo.push_back(std::move(p));
      tr.points.emplace_back().experiment = e;
    }

  std::vector<std::unique_ptr<hm::driver::SweepJournal>> journals;
  if (stores)
    for (const ExperimentSpec* spec : order)
      journals.push_back(std::make_unique<hm::driver::SweepJournal>(dir + "/journal", spec->name));
  const hm::driver::MemoCache memo(stores ? dir + "/cache" : std::string());

  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
      TracedPoint& tp = tr.points[i];
      const auto t0 = Clock::now();
      try {
        tp.result = rebuild_point(todo[i], engine, &tp.spans);
      } catch (const std::exception& e) {
        tp.result = PointResult{};
        tp.result.point = todo[i];
        tp.result.error = e.what();
      }
      auto t = Clock::now();
      (void)hm::driver::point_json(tp.result);
      tp.serialize = seconds_since(t);
      if (stores) {
        t = Clock::now();
        journals[tp.experiment]->append(tp.result);
        tp.journal = seconds_since(t);
        t = Clock::now();
        memo.store(tp.result);
        tp.memo = seconds_since(t);
      }
      tp.total = seconds_since(t0);
    }
  };
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> pool;
    const Joiner join{pool};
    for (unsigned j = 0; j < std::max(1u, w.jobs); ++j) pool.emplace_back(worker);
  }
  tr.wall_s = seconds_since(t0);
  if (!stores) return tr;

  auto t = Clock::now();
  std::size_t looked_up = 0;
  for (std::size_t i = 0; i < todo.size(); ++i) {
    if (!tr.points[i].result.ok) continue;
    ++looked_up;
    if (!memo.lookup(todo[i]))
      tr.errors.push_back("memo-cache lookup missed the stored point " + todo[i].label);
  }
  tr.memo_lookup_us = ratio(seconds_since(t) * 1e6, static_cast<double>(looked_up));
  journals.clear();  // flush and close before reading back
  t = Clock::now();
  std::size_t loaded = 0;
  for (const ExperimentSpec* spec : order)
    loaded += hm::driver::SweepJournal::load(dir + "/journal", spec->name).size();
  tr.journal_load_ms = seconds_since(t) * 1e3;
  if (loaded != todo.size())
    tr.errors.push_back("journals hold " + std::to_string(loaded) + " records, expected " +
                        std::to_string(todo.size()));
  fs::remove_all(dir, ec);
  return tr;
}

int run_traced(const Workload& w, const Options& o) {
  std::vector<std::string> errors;
  const auto order = experiment_order(w, o.seed);
  const auto scale = scale_of(w, o);
  const hm::EngineConfig engine = engine_for(w);
  const Reference ref = reference_for(w, o, order, errors);

  // 1. The untraced reference pass: its reports give every count below.
  const Pass pass = run_pass(order, w.jobs, engine, scale, o.work_dir + "/pass");
  const PassStats st = stats_of(pass);
  Digest digest;
  std::vector<double> sample_errs;
  check_pass(w, pass, ref, digest, sample_errs, errors);

  // 2. The traced rebuild; every rebuilt point must equal the pass's.
  const Traced tr = traced_rebuild(w, order, engine, scale, o.work_dir + "/traced");
  errors.insert(errors.end(), tr.errors.begin(), tr.errors.end());
  std::size_t rebuilt_failed = 0;
  for (const TracedPoint& tp : tr.points) {
    const PointResult& r = tp.result;
    if (!r.ok) {
      ++rebuilt_failed;
      errors.push_back("rebuilt point " + r.point.label + " failed: " + r.error);
      continue;
    }
    const auto it = digest.lines.find(r.point.canonical());
    if (it == digest.lines.end() || it->second != digest_line(r))
      errors.push_back("rebuilt point " + r.point.label + " differs from the sweep's result");
  }

  // 3. Standalone layer replays: one probe point per distinct kernel, and
  // the pass's simulated points for request rates, NoC traffic and tile
  // counts.
  std::vector<SweepPoint> probes;
  {
    std::set<std::string> kernels;
    for (const TracedPoint& tp : tr.points) {
      const SweepPoint& p = tp.result.point;
      if (p.workload.empty() || p.workload == "micro") continue;
      if (kernels.insert(p.workload).second) probes.push_back(p);
    }
  }
  const LayerCosts lc = measure_layers(probes, st.ran, o.seed);

  double uops = 0, cycles = 0, sf_uops = 0, max_bound = 0, guarded = 0, mismatches = 0;
  double l1_hits = 0, l1_acc = 0, lat_sum = 0, lat_n = 0, l2 = 0, l3 = 0;
  double occ_req = 0, occ_queue = 0, occ_over = 0;
  double noc_msgs = 0, noc_hops = 0, noc_queue = 0;
  double filtered = 0, broadcasts = 0, dir = 0;
  double lm_acc = 0, lm_dma = 0;
  for (const PointResult* r : st.ran) {
    const hm::RunReport& rep = r->report;
    const double u = static_cast<double>(rep.core.uops);
    uops += u;
    cycles += static_cast<double>(rep.core.cycles);
    sf_uops += rep.sampled_fraction * u;
    max_bound = std::max(max_bound, rep.sample_error);
    guarded += static_cast<double>(rep.core.guarded_loads + rep.core.guarded_stores);
    mismatches += static_cast<double>(rep.core.value_mismatches);
    l1_hits += rep.l1_hit_ratio * static_cast<double>(rep.l1_accesses);
    l1_acc += static_cast<double>(rep.l1_accesses);
    lat_sum += rep.core.load_latency.sum();
    lat_n += static_cast<double>(rep.core.load_latency.count());
    l2 += static_cast<double>(rep.l2_accesses);
    l3 += static_cast<double>(rep.l3_accesses);
    for (const hm::ResourceContention* c :
         {&rep.l2_port, &rep.l3_port, &rep.dram, &rep.dma_bus, &rep.noc_links}) {
      occ_req += static_cast<double>(c->requests);
      occ_queue += static_cast<double>(c->queue_cycles);
    }
    occ_over += static_cast<double>(rep.contention_overflows());
    noc_msgs += static_cast<double>(rep.noc_msgs);
    noc_hops += static_cast<double>(rep.noc_hops);
    noc_queue += static_cast<double>(rep.noc_links.queue_cycles);
    filtered += static_cast<double>(rep.noc_dir_filtered);
    broadcasts += static_cast<double>(rep.noc_dir_broadcasts);
    dir += static_cast<double>(rep.directory_accesses);
    if (r->point.machine != "cache_based") {
      lm_acc += static_cast<double>(rep.lm_accesses);
      lm_dma += static_cast<double>(rep.activity.dma_lines);
    }
  }

  // 4. Spans of the rebuild, per point and per layer.  System::run is one
  // span, counted in sim with every layer it drives (core, memory,
  // occupancy, noc, coherence, lm): splitting it needs spans inside src/.
  double t_cfg = 0, t_wl = 0, t_cc = 0, t_con = 0, t_run = 0, t_drv = 0;
  double ser = 0, jour = 0, memo = 0, longest = 0;
  std::vector<double> point_ms;
  std::map<unsigned, std::pair<double, double>> run_by_tiles;  // tiles -> (run s, uops)
  for (const TracedPoint& tp : tr.points) {
    t_cfg += tp.spans.config;
    t_wl += tp.spans.workloads;
    t_cc += tp.spans.compiler;
    t_con += tp.spans.construct;
    t_run += tp.spans.run;
    ser += tp.serialize;
    jour += tp.journal;
    memo += tp.memo;
    point_ms.push_back(tp.total * 1e3);
    longest = std::max(longest, tp.total);
    auto& acc = run_by_tiles[static_cast<unsigned>(std::stoul(tp.result.point.knob("cores", "1")))];
    acc.first += tp.spans.run;
    acc.second += static_cast<double>(tp.result.report.core.uops);
  }
  t_drv = ser + jour + memo;
  const double t_sim = t_cfg + t_con + t_run;
  const double n_points = static_cast<double>(std::max<std::size_t>(1, tr.points.size()));
  const double busy = t_wl + t_cc + t_sim + t_drv;
  const auto pct = [busy](double s) { return ratio(100.0 * s, busy); };

  std::sort(point_ms.begin(), point_ms.end());
  const std::size_t n = point_ms.size();
  // The highest percentile with at least ten points beyond it.
  const std::size_t tail_i = n > 10 ? n - 11 : (n == 0 ? 0 : n - 1);
  const double tail_ms = n == 0 ? 0.0 : point_ms[tail_i];
  const double tail_pct = n == 0 ? 0.0 : 100.0 * static_cast<double>(tail_i + 1) / static_cast<double>(n);

  // Per tile count; 0 where the workload has no point with that many tiles.
  const auto run_ns = [&run_by_tiles](unsigned tiles) {
    const auto it = run_by_tiles.find(tiles);
    return it == run_by_tiles.end() ? 0.0 : ratio(it->second.first * 1e9, it->second.second);
  };
  const auto construct_ms = [&lc](unsigned tiles) {
    const auto it = lc.construct_ms.find(tiles);
    return it == lc.construct_ms.end() ? 0.0 : it->second;
  };

  std::vector<double> errs_pct;
  for (const double e : sample_errs) errs_pct.push_back(100.0 * e);
  const double err_max = errs_pct.empty() ? 0.0 : *std::max_element(errs_pct.begin(), errs_pct.end());

  const std::vector<Metric> metrics = {
      {"driver.point_p50_ms", median(point_ms), "ms"},
      {"driver.point_tail_ms", tail_ms, "ms"},
      {"driver.point_tail_pct", tail_pct, "%"},
      {"driver.point_samples", static_cast<double>(n), "count"},
      {"driver.longest_point_s", longest, "s"},
      {"driver.serialize_us", ser * 1e6 / n_points, "us"},
      {"driver.journal_append_us", jour * 1e6 / n_points, "us"},
      {"driver.memo_store_us", memo * 1e6 / n_points, "us"},
      {"driver.memo_lookup_us", tr.memo_lookup_us, "us"},
      {"driver.journal_load_ms", tr.journal_load_ms, "ms"},
      {"driver.session_hits", static_cast<double>(st.session_hits), "count"},
      {"driver.host_pct", pct(t_drv), "%"},
      {"workloads.make_us", t_wl * 1e6 / n_points, "us"},
      {"workloads.host_pct", pct(t_wl), "%"},
      {"compiler.compile_us", t_cc * 1e6 / n_points, "us"},
      {"compiler.emit_ns_per_uop", lc.emit_ns_per_uop, "ns/uop"},
      {"compiler.replay_batch_ms", lc.replay_batch_ms, "ms"},
      {"compiler.host_pct", pct(t_cc), "%"},
      {"sim.construct_ms.t1", construct_ms(1), "ms"},
      {"sim.construct_ms.t16", construct_ms(16), "ms"},
      {"sim.construct_ms.t64", construct_ms(64), "ms"},
      {"sim.construct_ms.t256", construct_ms(256), "ms"},
      {"sim.run_ns_per_uop.t1", run_ns(1), "ns/uop"},
      {"sim.run_ns_per_uop.t16", run_ns(16), "ns/uop"},
      {"sim.run_ns_per_uop.t64", run_ns(64), "ns/uop"},
      {"sim.run_ns_per_uop.t256", run_ns(256), "ns/uop"},
      {"sim.uops", uops, "count"},
      {"sim.cycles", cycles, "cycles"},
      {"sim.sampled_fraction", ratio(sf_uops, uops), "ratio"},
      {"sim.sample_bound_pct", 100.0 * max_bound, "%"},
      {"sim.sample_err_p50_pct", median(errs_pct), "%"},
      {"sim.sample_err_max_pct", err_max, "%"},
      {"sim.host_pct", pct(t_sim), "%"},
      {"core.replay_functional_ns_per_uop", lc.replay_functional_ns_per_uop, "ns/uop"},
      {"core.ipc", ratio(uops, cycles), "uop/cycle"},
      {"core.guarded_ops", guarded, "count"},
      {"core.value_mismatches", mismatches, "count"},
      {"memory.access_ns", lc.access_ns, "ns"},
      {"memory.functional_access_ns", lc.functional_access_ns, "ns"},
      {"memory.l1_hit_pct", ratio(l1_hits, l1_acc), "%"},
      {"memory.amat_cycles", ratio(lat_sum, lat_n), "cycles"},
      {"memory.l2_accesses", l2, "count"},
      {"memory.l3_accesses", l3, "count"},
      {"occupancy.book_ns", lc.book_ns, "ns"},
      {"occupancy.requests", occ_req, "count"},
      {"occupancy.queue_cycles", occ_queue, "cycles"},
      {"occupancy.overflows", occ_over, "count"},
      {"noc.traverse_ns", lc.traverse_ns, "ns"},
      {"noc.msgs", noc_msgs, "count"},
      {"noc.hops_per_msg", ratio(noc_hops, noc_msgs), "hops"},
      {"noc.link_queue_cycles", noc_queue, "cycles"},
      {"coherence.note_fill_ns", lc.note_fill_ns, "ns"},
      {"coherence.filter_hit_ratio", ratio(filtered, filtered + broadcasts), "ratio"},
      {"coherence.directory_accesses", dir, "count"},
      {"lm.accesses", lm_acc, "count"},
      {"lm.dma_lines", lm_dma, "count"},
      {"bench.trace_overhead_pct", ratio(100.0 * (tr.wall_s - pass.wall_s), pass.wall_s), "%"},
  };

  // The layer whose spans took the most host time.
  const std::pair<const char*, double> shares[] = {
      {"driver", pct(t_drv)}, {"workloads", pct(t_wl)}, {"compiler", pct(t_cc)}, {"sim", pct(t_sim)}};
  const auto* top = std::max_element(std::begin(shares), std::end(shares),
                                     [](const auto& a, const auto& b) { return a.second < b.second; });
  const std::string details = details_head(w, o) +
                              ", \"untraced_wall_s\": " + number(pass.wall_s) +
                              ", \"traced_wall_s\": " + number(tr.wall_s) +
                              ", \"rebuilt_points\": " + std::to_string(tr.points.size()) +
                              ", \"dominant_layer\": " + json_str(top->first);
  return print_run(details, errors, st.points + tr.points.size(), st.failed + rebuilt_failed,
                   metrics);
}

// ----------------------------------------------------------------- pins ----

/// Pins every workload at its default scale: the digest of a --jobs 1 pass,
/// and for sampled workloads the exact-engine cycles of every point.
int write_pins(const Options& o) {
  Pins pins;
  pins.engine_version = hm::kEngineVersion;
  std::vector<std::string> errors;
  for (const Workload& w : workloads()) {
    const auto order = experiment_order(w, 0);
    Reference ref;
    if (w.sampled) {
      ref.exact = exact_cycles(run_pass(order, 1, hm::EngineConfig{}, w.scale, o.work_dir + "/exact"));
      pins.exact_cycles.insert(ref.exact.begin(), ref.exact.end());
    }
    const Pass pass = run_pass(order, 1, engine_for(w), w.scale, o.work_dir + "/pass");
    Digest d;
    std::vector<double> sample_errs;
    check_pass(w, pass, ref, d, sample_errs, errors);
    pins.digest[w.name] = d.hex();
    std::fprintf(stderr, "%s: %zu identities, digest %s (%.2f s)\n", w.name.c_str(),
                 d.lines.size(), d.hex().c_str(), pass.wall_s);
  }
  for (const std::string& e : errors) std::fprintf(stderr, "hm_perfbench: check failed: %s\n", e.c_str());
  if (!errors.empty()) return 1;
  if (!pins.save(o.write_pins)) {
    std::fprintf(stderr, "hm_perfbench: cannot write %s\n", o.write_pins.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) return usage();
  if (std::strcmp(HM_PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "hm_perfbench: refusing to measure a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 HM_PERFBENCH_BUILD_TYPE);
    return 2;
  }
  try {
    if (!o.write_pins.empty()) return write_pins(o);
    const Workload* w = find_workload(o.workload);
    if (w == nullptr) {
      std::fprintf(stderr, "hm_perfbench: unknown workload '%s'\n", o.workload.c_str());
      return 2;
    }
    return o.trace == 0 ? run_untraced(*w, o) : run_traced(*w, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hm_perfbench: fatal: %s\n", e.what());
    return 1;
  }
}
