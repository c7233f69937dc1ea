// The workload table, the traced point rebuild, the result digest and pins.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "driver/registry.hpp"
#include "perfbench.hpp"
#include "sim/report.hpp"
#include "workloads/microbench.hpp"
#include "workloads/nas.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Seconds since @p t, restarting @p t: consecutive calls time consecutive
/// layer calls.
double lap(Clock::time_point& t) {
  const auto now = Clock::now();
  const double s = std::chrono::duration<double>(now - t).count();
  t = now;
  return s;
}

// parse_micro_mode, variant_for and tile_seed copy the private helpers of
// the same names in src/driver/sweep.cpp; tests/fidelity_test.cpp fails when
// a copy drifts from its original.

hm::MicroMode parse_micro_mode(const std::string& s) {
  if (s == "Baseline") return hm::MicroMode::Baseline;
  if (s == "RD") return hm::MicroMode::RD;
  if (s == "WR") return hm::MicroMode::WR;
  if (s == "RDWR") return hm::MicroMode::RDWR;
  throw std::invalid_argument("unknown micro_mode: " + s);
}

hm::CodegenVariant variant_for(hm::MachineKind kind) {
  switch (kind) {
    case hm::MachineKind::HybridCoherent: return hm::CodegenVariant::HybridProtocol;
    case hm::MachineKind::HybridOracle: return hm::CodegenVariant::HybridOracle;
    case hm::MachineKind::CacheBased: return hm::CodegenVariant::CacheOnly;
  }
  return hm::CodegenVariant::CacheOnly;
}

std::uint64_t tile_seed(std::uint64_t seed, unsigned tile) {
  if (tile == 0) return seed;
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tile + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  return z ^ (z >> 31);
}

unsigned point_cores(const SweepPoint& p) {
  const unsigned cores = static_cast<unsigned>(std::stoul(p.knob("cores", "1")));
  if (cores == 0 || cores > 256)
    throw std::invalid_argument("cores knob out of range (1..256) at " + p.label);
  return cores;
}

unsigned point_dir_entries(const SweepPoint& p) {
  return static_cast<unsigned>(std::stoul(p.knob("dir_entries", "32")));
}

hm::CodegenOptions codegen_options(const SweepPoint& p, const hm::MachineConfig& cfg) {
  hm::CodegenOptions co;
  co.variant = variant_for(cfg.kind);
  co.global_seed = p.seed;
  co.disable_readonly_opt = p.knob("readonly_opt", "on") == "off";
  return co;
}

/// Kernels compile against the hybrid machine's LM geometry on every
/// machine kind, as run_point compiles them.
hm::CompiledKernel compile_for(const hm::LoopNest& loop, const hm::CodegenOptions& co,
                               unsigned dir_entries) {
  static const hm::MachineConfig geometry = hm::MachineConfig::hybrid_coherent();
  return hm::compile(loop, co, geometry.lm.virtual_base, geometry.lm.size, dir_entries);
}

/// Simulated fields the digest covers, by their point_json names.
constexpr const char* kDigestFields[] = {
    "ok",           "mapped_refs",   "demoted_refs",       "cycles",        "phase_work",
    "phase_control", "phase_synch",  "uops",               "loads",         "stores",
    "guarded_loads", "guarded_stores", "value_mismatches", "amat",          "l1_hit_ratio",
    "l1_accesses",  "l2_accesses",   "l3_accesses",        "lm_accesses",   "directory_accesses",
    "energy_cpu",   "energy_caches", "energy_lm",          "energy_others", "noc_msgs",
    "noc_hops"};

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"paper_suite",
       {"fig7", "fig8", "fig9", "fig10", "table3", "ablation_directory",
        "ablation_double_store", "ablation_prefetch", "scaling", "irregular"},
       1, std::nullopt, false},
      {"mesh_manycore", {"scaling_mesh", "irregular_mesh"}, 2, std::nullopt, false},
      {"sampled_scale1", {"fig8", "fig9", "ablation_prefetch"}, 1, 1.0, true},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

hm::EngineConfig engine_for(const Workload& w) {
  hm::EngineConfig engine;
  if (w.sampled) engine.sampling.mode = hm::SamplingConfig::Mode::Interval;
  return engine;
}

std::vector<const ExperimentSpec*> experiment_order(const Workload& w, std::uint64_t seed) {
  std::vector<const ExperimentSpec*> order;
  for (const std::string& name : w.experiments) {
    const ExperimentSpec* spec = hm::driver::find_experiment(name);
    if (spec == nullptr) throw std::runtime_error("experiment not registered: " + name);
    order.push_back(spec);
  }
  hm::Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

hm::MachineConfig point_machine(const SweepPoint& p) {
  hm::MachineConfig cfg = hm::driver::make_machine(p.machine);
  cfg.directory.entries = point_dir_entries(p);
  const bool prefetch = p.knob("prefetch", "on") != "off";
  cfg.hierarchy.pf_l1.enabled = prefetch;
  cfg.hierarchy.pf_l2.enabled = prefetch;
  cfg.hierarchy.pf_l3.enabled = prefetch;
  const unsigned cores = point_cores(p);
  const std::string topology = p.knob("topology", "flat");
  if (topology == "mesh") {
    cfg.noc.topology = hm::Topology::Mesh;
  } else if (topology == "ring") {
    cfg.noc.topology = hm::Topology::Ring;
  } else if (topology != "flat") {
    throw std::invalid_argument("unknown topology knob '" + topology + "' at " + p.label);
  }
  const unsigned mesh_dim = static_cast<unsigned>(std::stoul(p.knob("mesh_dim", "0")));
  if (mesh_dim != 0) {
    if (cfg.noc.topology != hm::Topology::Mesh)
      throw std::invalid_argument("mesh_dim requires topology=mesh at " + p.label);
    if (cores % mesh_dim != 0)
      throw std::invalid_argument("mesh_dim does not divide cores at " + p.label);
    cfg.noc.mesh_x = mesh_dim;
    cfg.noc.mesh_y = cores / mesh_dim;
  }
  return cfg;
}

hm::CompiledKernel point_kernel(const SweepPoint& p, unsigned tile) {
  const hm::MachineConfig cfg = point_machine(p);
  const hm::Workload w = hm::driver::make_workload(p.workload, {.factor = p.scale});
  hm::CodegenOptions co = codegen_options(p, cfg);
  co.global_seed = tile_seed(p.seed, tile);
  const hm::Workload slice = hm::make_spmd_slice(w, tile, point_cores(p));
  return compile_for(slice.loop, co, point_dir_entries(p));
}

PointResult rebuild_point(const SweepPoint& p, const hm::EngineConfig& engine,
                          PointSpans* spans) {
  PointSpans local;
  PointSpans& sp = spans != nullptr ? *spans : local;
  auto t = Clock::now();
  PointResult out;
  out.point = p;
  hm::MachineConfig cfg = point_machine(p);
  const unsigned cores = point_cores(p);
  const unsigned dir_entries = point_dir_entries(p);
  sp.config += lap(t);

  if (p.workload == "micro") {
    if (cores != 1)
      throw std::invalid_argument("workload micro is single-core only (cores=1) at " + p.label);
    hm::MicrobenchConfig mc;
    mc.mode = parse_micro_mode(p.knob("micro_mode", "Baseline"));
    mc.guarded_pct = static_cast<unsigned>(std::stoul(p.knob("micro_pct", "0")));
    mc.iterations = static_cast<std::uint64_t>(std::llround(200'000.0 * p.scale));
    hm::Microbenchmark mb(mc);
    sp.workloads += lap(t);
    hm::System sys(std::move(cfg));
    sys.set_engine(engine);
    sp.construct += lap(t);
    out.report = sys.run(mb);
    sp.run += lap(t);
  } else if (!p.workload.empty()) {
    const hm::Workload w = hm::driver::make_workload(p.workload, {.factor = p.scale});
    sp.workloads += lap(t);
    const hm::CodegenOptions co = codegen_options(p, cfg);
    if (cores == 1) {
      hm::System sys(std::move(cfg));
      sys.set_engine(engine);
      sp.construct += lap(t);
      hm::CompiledKernel kernel = compile_for(w.loop, co, dir_entries);
      sp.compiler += lap(t);
      out.mapped_refs = kernel.classification().num_regular;
      out.demoted_refs =
          kernel.classification().demoted_regular + kernel.classification().demoted_stride;
      out.report = sys.run(kernel);
      sp.run += lap(t);
    } else {
      hm::System sys(std::move(cfg), cores);
      sys.set_engine(engine);
      sp.construct += lap(t);
      std::vector<std::unique_ptr<hm::CompiledKernel>> kernels;
      std::vector<hm::InstrStream*> streams;
      kernels.reserve(cores);
      streams.reserve(cores);
      for (unsigned tile = 0; tile < cores; ++tile) {
        const hm::Workload slice = hm::make_spmd_slice(w, tile, cores);
        sp.workloads += lap(t);
        if (slice.loop.iterations == 0) break;
        hm::CodegenOptions cot = co;
        cot.global_seed = tile_seed(p.seed, tile);
        kernels.push_back(
            std::make_unique<hm::CompiledKernel>(compile_for(slice.loop, cot, dir_entries)));
        sp.compiler += lap(t);
        streams.push_back(kernels.back().get());
      }
      const hm::Classification& cls = kernels.front()->classification();
      out.mapped_refs = cls.num_regular;
      out.demoted_refs = cls.demoted_regular + cls.demoted_stride;
      out.report = sys.run(streams);
      sp.run += lap(t);
    }
  }
  if (p.workload.empty() || out.report.contention_overflows() == 0) {
    out.ok = true;
  } else {
    out.error = "occupancy horizon overflow (" +
                std::to_string(out.report.contention_overflows()) +
                " bookings untracked; contention understated) at " + p.label;
  }
  return out;
}

std::string digest_line(const PointResult& r) {
  hm::FieldMap fields;
  if (!hm::driver::parse_flat_json(hm::driver::point_json(r), fields))
    throw std::runtime_error("point_json of " + r.point.label + " does not parse");
  std::string line;
  for (const char* name : kDigestFields) {
    const auto it = fields.find(name);
    line += name;
    line += '=';
    line += it == fields.end() ? std::string("-") : it->second;
    line += ';';
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "energy_total=%.17g;", r.report.total_energy());
  return line + buf;
}

void Digest::add(const PointResult& r) {
  const std::string canonical = r.point.canonical();
  const std::string line = digest_line(r);
  const auto [it, inserted] = lines.emplace(canonical, line);
  if (!inserted && it->second != line) conflicts.push_back(canonical);
}

std::string Digest::hex() const {
  std::string all;
  for (const auto& [canonical, line] : lines) {
    all += canonical;
    all += '\t';
    all += line;
    all += '\n';
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, hm::fnv1a64(all));
  return buf;
}

std::optional<Pins> Pins::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Pins pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind, key, value;
    fields >> kind >> key;
    if (kind == "engine_version") {
      pins.engine_version = std::stoull(key);
    } else if (kind == "digest" && fields >> value) {
      pins.digest[key] = value;
    } else if (kind == "exact" && fields >> value) {
      pins.exact_cycles[key] = std::stoull(value);
    } else {
      throw std::runtime_error("malformed line in " + path + ": " + line);
    }
  }
  return pins;
}

bool Pins::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "# Pinned reference values of the perfbench correctness checks: the\n"
         "# digest of every workload at its default scale, and the exact-engine\n"
         "# cycles of every sampled point.  Regenerate after an intended engine\n"
         "# change with: python3 perfbench/run.py --write-pins\n";
  out << "engine_version " << engine_version << '\n';
  for (const auto& [workload, hex] : digest) out << "digest " << workload << ' ' << hex << '\n';
  for (const auto& [canonical, cycles] : exact_cycles)
    out << "exact " << canonical << ' ' << cycles << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
