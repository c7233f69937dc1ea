#include "driver/result.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/hash.hpp"
#include "common/log.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace hm::driver {

namespace {

unsigned long process_id() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<unsigned long>(::getpid());
#else
  return 0;
#endif
}

// Numeric/bool emitters come from sim/report.hpp (json_kv_*), shared with
// append_report_fields so the point and report layers can never drift in
// formatting; only string emission is driver-specific.
void kv_str(std::string& out, const char* key, std::string_view v) {
  out += '"';
  out += key;
  out += "\":\"";
  append_json_escaped(out, v);
  out += "\",";
}

std::map<std::string, std::string> parse_knobs(std::string_view s) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(';', pos);
    if (end == std::string_view::npos) end = s.size();
    const std::string_view item = s.substr(pos, end - pos);
    const std::size_t eq = item.find('=');
    if (eq != std::string_view::npos)
      out.emplace(std::string(item.substr(0, eq)), std::string(item.substr(eq + 1)));
    pos = end + 1;
  }
  return out;
}

}  // namespace

std::string_view to_string(ErrorClass c) {
  switch (c) {
    case ErrorClass::None: return "none";
    case ErrorClass::Config: return "config";
    case ErrorClass::Timeout: return "timeout";
    case ErrorClass::Engine: return "engine";
  }
  return "none";
}

ErrorClass error_class_from_name(std::string_view name) {
  if (name == "config") return ErrorClass::Config;
  if (name == "timeout") return ErrorClass::Timeout;
  if (name == "engine") return ErrorClass::Engine;
  return ErrorClass::None;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
}

std::string point_json(const PointResult& r) {
  std::string out = "{";
  json_kv_u64(out, "engine_version", kEngineVersion);
  kv_str(out, "experiment", r.point.experiment);
  json_kv_u64(out, "index", r.point.index);
  kv_str(out, "label", r.point.label);
  kv_str(out, "machine", r.point.machine);
  kv_str(out, "workload", r.point.workload);
  kv_str(out, "knobs", r.point.knobs_string());
  json_kv_dbl(out, "scale", r.point.scale);
  json_kv_u64(out, "seed", r.point.seed);
  json_kv_bool(out, "ok", r.ok);
  kv_str(out, "error", r.error);
  kv_str(out, "error_class", to_string(r.error_class));
  json_kv_u64(out, "mapped_refs", r.mapped_refs);
  json_kv_u64(out, "demoted_refs", r.demoted_refs);
  append_report_fields(out, r.report);
  out += '}';
  return out;
}

bool parse_flat_json(std::string_view text, FieldMap& out) {
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  };
  const auto parse_string = [&](std::string& s) -> bool {
    if (i >= text.size() || text[i] != '"') return false;
    ++i;
    while (i < text.size() && text[i] != '"') {
      char c = text[i];
      if (c == '\\') {
        if (++i >= text.size()) return false;
        switch (text[i]) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (i + 4 >= text.size()) return false;
            unsigned code = 0;
            for (int k = 1; k <= 4; ++k) {
              const char h = text[i + static_cast<std::size_t>(k)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            i += 4;
            c = static_cast<char>(code);  // we only emit \u00XX
            break;
          }
          default: c = text[i]; break;
        }
      }
      s += c;
      ++i;
    }
    if (i >= text.size()) return false;
    ++i;  // closing quote
    return true;
  };

  skip_ws();
  if (i >= text.size() || text[i] != '{') return false;
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == '}') return true;
  for (;;) {
    skip_ws();
    std::string key;
    if (!parse_string(key)) return false;
    skip_ws();
    if (i >= text.size() || text[i] != ':') return false;
    ++i;
    skip_ws();
    std::string value;
    if (i < text.size() && text[i] == '"') {
      if (!parse_string(value)) return false;
    } else {
      // Number / true / false / null: read the raw token.
      const std::size_t start = i;
      while (i < text.size() && text[i] != ',' && text[i] != '}') ++i;
      std::size_t end = i;
      while (end > start && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
      if (end == start) return false;
      value.assign(text.substr(start, end - start));
    }
    out[key] = std::move(value);
    skip_ws();
    if (i >= text.size()) return false;
    if (text[i] == ',') {
      ++i;
      continue;
    }
    if (text[i] == '}') return true;
    return false;
  }
}

std::optional<PointResult> point_from_json(std::string_view text) {
  FieldMap f;
  if (!parse_flat_json(text, f)) return std::nullopt;
  const auto it = f.find("engine_version");
  if (it == f.end() ||
      std::strtoull(it->second.c_str(), nullptr, 10) != kEngineVersion)
    return std::nullopt;
  PointResult r;
  r.point.experiment = f.count("experiment") ? f["experiment"] : "";
  r.point.index = std::strtoull(f["index"].c_str(), nullptr, 10);
  r.point.label = f.count("label") ? f["label"] : "";
  r.point.machine = f.count("machine") ? f["machine"] : "";
  r.point.workload = f.count("workload") ? f["workload"] : "";
  r.point.knobs = parse_knobs(f.count("knobs") ? f["knobs"] : "");
  r.point.scale = std::strtod(f["scale"].c_str(), nullptr);
  r.point.seed = std::strtoull(f["seed"].c_str(), nullptr, 10);
  r.ok = f.count("ok") && f["ok"] == "true";
  r.error = f.count("error") ? f["error"] : "";
  r.error_class = error_class_from_name(f.count("error_class") ? f["error_class"] : "");
  r.mapped_refs = static_cast<unsigned>(std::strtoul(f["mapped_refs"].c_str(), nullptr, 10));
  r.demoted_refs = static_cast<unsigned>(std::strtoul(f["demoted_refs"].c_str(), nullptr, 10));
  r.report = report_from_fields(f);
  return r;
}

std::string csv_header() {
  std::string h =
      "experiment,index,label,machine,workload,knobs,scale,seed,ok,error,"
      "error_class,"
      "mapped_refs,demoted_refs,cycles,work_cycles,control_cycles,synch_cycles,"
      "uops,amat,l1_hit_pct,l1_accesses,l2_accesses,l3_accesses,lm_accesses,"
      "directory_accesses,energy_cpu_pj,energy_caches_pj,energy_lm_pj,"
      "energy_others_pj,energy_total_pj";
  // Shared-resource contention columns (full-run occupancy model).
  for (const char* res : {"l2_port", "l3_port", "dram", "dma_bus"})
    for (const char* field : {"requests", "delayed", "queue_cycles",
                              "peak_occupancy", "overflows"})
      h += std::string(",") + res + "_" + field;
  h += '\n';
  return h;
}

std::string csv_row(const PointResult& r) {
  const auto quote = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"') q += '"';
      q += c;
    }
    q += '"';
    return q;
  };
  char buf[256];
  std::string out;
  out += quote(r.point.experiment) + ',';
  out += std::to_string(r.point.index) + ',';
  out += quote(r.point.label) + ',';
  out += quote(r.point.machine) + ',';
  out += quote(r.point.workload) + ',';
  out += quote(r.point.knobs_string()) + ',';
  std::snprintf(buf, sizeof(buf), "%.17g,%llu,%d,", r.point.scale,
                static_cast<unsigned long long>(r.point.seed), r.ok ? 1 : 0);
  out += buf;
  out += quote(r.error) + ',';
  out += std::string(to_string(r.error_class)) + ',';
  const RunReport& rep = r.report;
  std::snprintf(buf, sizeof(buf), "%u,%u,%llu,%llu,%llu,%llu,%llu,", r.mapped_refs,
                r.demoted_refs, static_cast<unsigned long long>(rep.core.cycles),
                static_cast<unsigned long long>(
                    rep.core.phase_cycles[static_cast<unsigned>(ExecPhase::Work)]),
                static_cast<unsigned long long>(
                    rep.core.phase_cycles[static_cast<unsigned>(ExecPhase::Control)]),
                static_cast<unsigned long long>(
                    rep.core.phase_cycles[static_cast<unsigned>(ExecPhase::Synch)]),
                static_cast<unsigned long long>(rep.core.uops));
  out += buf;
  std::snprintf(buf, sizeof(buf), "%.17g,%.17g,%llu,%llu,%llu,%llu,%llu,", rep.amat,
                rep.l1_hit_ratio, static_cast<unsigned long long>(rep.l1_accesses),
                static_cast<unsigned long long>(rep.l2_accesses),
                static_cast<unsigned long long>(rep.l3_accesses),
                static_cast<unsigned long long>(rep.lm_accesses),
                static_cast<unsigned long long>(rep.directory_accesses));
  out += buf;
  std::snprintf(buf, sizeof(buf), "%.17g,%.17g,%.17g,%.17g,%.17g", rep.energy.cpu,
                rep.energy.caches, rep.energy.lm, rep.energy.others, rep.energy.total());
  out += buf;
  for (const ResourceContention* c : {&rep.l2_port, &rep.l3_port, &rep.dram, &rep.dma_bus}) {
    std::snprintf(buf, sizeof(buf), ",%llu,%llu,%llu,%llu,%llu",
                  static_cast<unsigned long long>(c->requests),
                  static_cast<unsigned long long>(c->delayed),
                  static_cast<unsigned long long>(c->queue_cycles),
                  static_cast<unsigned long long>(c->peak_occupancy),
                  static_cast<unsigned long long>(c->overflows));
    out += buf;
  }
  out += '\n';
  return out;
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

MemoCache::MemoCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) dir_.clear();  // unusable directory => cache disabled
}

std::uint64_t MemoCache::key(const SweepPoint& p) {
  return fnv1a64(p.canonical() + "|engine=" + std::to_string(kEngineVersion));
}

std::string MemoCache::path_for(const SweepPoint& p) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(key(p)));
  return dir_ + "/" + buf + ".json";
}

void MemoCache::note_corrupt(const std::string& path) const {
  corrupt_.fetch_add(1, std::memory_order_relaxed);
  // Log the first offending path once per cache instance: enough to find
  // the artifact, without a 242-point sweep spraying 242 warnings.
  if (!logged_corrupt_.exchange(true, std::memory_order_relaxed))
    HM_WARN("memo cache: corrupt entry " << path
            << " (degraded to a miss; count reported in the sweep summary)");
}

std::optional<PointResult> MemoCache::lookup(const SweepPoint& p) const {
  if (!enabled()) return std::nullopt;
  const std::string path = path_for(p);
  std::ifstream in(path);
  if (!in) return std::nullopt;  // plain miss: nothing stored
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  FieldMap f;
  if (!parse_flat_json(text, f)) {
    note_corrupt(path);  // unparseable file: corruption, not a cold cache
    return std::nullopt;
  }
  const auto it = f.find("engine_version");
  if (it == f.end()) {
    note_corrupt(path);
    return std::nullopt;
  }
  // A stale engine version is the EXPECTED state after an engine bump —
  // a miss, never counted as corruption, but tallied so the sweep summary
  // can report how much of the cache predates the current engine.
  if (std::strtoull(it->second.c_str(), nullptr, 10) != kEngineVersion) {
    stale_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  std::optional<PointResult> r = point_from_json(text);
  if (!r || !r->ok) {
    note_corrupt(path);  // parsed but failed/implausible: store() never writes these
    return std::nullopt;
  }
  // Guard against hash collisions and hand-edited files: the stored point
  // must describe the same simulation.
  if (r->point.canonical() != p.canonical()) {
    note_corrupt(path);
    return std::nullopt;
  }
  // The report is the cached payload; the identity is the caller's (the
  // same simulation can belong to several experiments).
  r->point = p;
  r->from_cache = true;
  return r;
}

void MemoCache::store(const PointResult& r) const {
  if (!enabled() || !r.ok) return;
  // Unique across both threads (counter) and processes sharing a cache
  // directory (pid), so rename() installs only fully written files.
  static std::atomic<unsigned> tmp_counter{0};
  const std::string path = path_for(r.point);
  const std::string tmp =
      path + ".tmp" + std::to_string(process_id()) + "." +
      std::to_string(tmp_counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;
    out << point_json(r) << '\n';
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) std::remove(tmp.c_str());
}

std::optional<PointResult> RunCache::lookup(const SweepPoint& p) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_canonical_.find(p.canonical());
  if (it == by_canonical_.end()) return std::nullopt;
  PointResult r = it->second;
  r.point = p;
  r.from_cache = true;
  r.profile = PointProfile{};  // a hit executes nothing: not measured
  return r;
}

void RunCache::store(const PointResult& r) {
  if (!r.ok) return;
  const std::lock_guard<std::mutex> lock(mu_);
  by_canonical_.emplace(r.point.canonical(), r);
}

}  // namespace hm::driver
