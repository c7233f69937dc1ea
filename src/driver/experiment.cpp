#include "driver/experiment.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

namespace hm::driver {

std::string SweepPoint::knob(std::string_view key, std::string fallback) const {
  const auto it = knobs.find(std::string(key));
  if (it != knobs.end()) return it->second;
  const auto& defaults = default_knobs();
  const auto dit = defaults.find(std::string(key));
  if (dit != defaults.end()) return dit->second;
  return fallback;
}

std::string SweepPoint::knobs_string() const {
  std::string out;
  for (const auto& [k, v] : knobs) {
    if (!out.empty()) out += ';';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

std::string SweepPoint::canonical() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", scale);
  std::string out = "m=" + machine + ";w=" + workload + ";s=" + buf + ";seed=";
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(seed));
  out += buf;
  // Reuse knobs_string() so the serialized `knobs` field and the memo-cache
  // identity can never drift in ordering or formatting.
  if (!knobs.empty()) out += ';' + knobs_string();
  return out;
}

const std::map<std::string, std::string>& default_knobs() {
  // The one statement of each default: run_point reads every knob through
  // SweepPoint::knob, which falls back to these.
  static const std::map<std::string, std::string> defaults = {
      {"cores", "1"},          // tile count (single-core == the paper tables)
      {"dir_entries", "32"},   // DirectoryConfig::entries default (Table 1)
      {"prefetch", "on"},      // PrefetcherConfig::enabled default
      {"readonly_opt", "on"},  // the double store, not always-write-back
      {"topology", "flat"},    // uncore interconnect: flat | mesh | ring
      {"mesh_dim", "0"},       // mesh X dim (0 = near-square auto-factor)
  };
  return defaults;
}

std::vector<SweepPoint> expand(const ExperimentSpec& spec,
                               std::optional<double> scale_override,
                               const std::map<std::string, std::string>& overrides) {
  std::vector<SweepPoint> out;
  const auto& defaults = default_knobs();
  for (const Grid& grid : spec.grids) {
    std::size_t combos = 1;
    for (const Axis& a : grid.axes) combos *= a.values.size();
    for (std::size_t c = 0; c < combos; ++c) {
      SweepPoint p;
      p.experiment = spec.name;
      p.index = out.size();
      p.scale = scale_override.value_or(spec.scale);
      p.knobs = grid.base;
      p.label = spec.name;
      if (!grid.tag.empty()) p.label += "/" + grid.tag;
      // Odometer: first axis varies slowest.
      std::size_t rem = c;
      std::size_t stride = combos;
      for (const Axis& a : grid.axes) {
        stride /= a.values.size();
        const std::string& v = a.values[rem / stride];
        rem %= stride;
        p.knobs[a.key] = v;
        p.label += "/" + v;
      }
      // Lift the special keys out of the knob map.
      if (const auto it = p.knobs.find("machine"); it != p.knobs.end()) {
        p.machine = it->second;
        p.knobs.erase(it);
      }
      if (const auto it = p.knobs.find("workload"); it != p.knobs.end()) {
        p.workload = it->second;
        p.knobs.erase(it);
      }
      for (const auto& [k, v] : overrides) p.knobs[k] = v;
      // Elide knobs pinned to their canonical default.
      for (const auto& [k, v] : defaults) {
        const auto it = p.knobs.find(k);
        if (it != p.knobs.end() && it->second == v) p.knobs.erase(it);
      }
      p.seed = kPaperSeed;
      out.push_back(std::move(p));
    }
  }
  return out;
}

}  // namespace hm::driver
