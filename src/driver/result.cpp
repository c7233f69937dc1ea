#include "driver/result.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/atomic_file.hpp"
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

constexpr char kVersionKey[] = "engine_version";

std::optional<std::uint64_t> stored_engine_version(const FieldMap& f) {
  const auto it = f.find(kVersionKey);
  if (it == f.end()) return std::nullopt;
  return std::strtoull(it->second.c_str(), nullptr, 10);
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

namespace {

/// The point header: identity, status and classification.  The JSON record
/// and the CSV row both start with it.
template <class Result, class IO>
void visit_header(Result& r, IO& io) {
  io.field("experiment", r.point.experiment);
  io.field("index", r.point.index);
  io.field("label", r.point.label);
  io.field("machine", r.point.machine);
  io.field("workload", r.point.workload);
  std::string knobs = r.point.knobs_string();
  io.field("knobs", knobs);
  io.field("scale", r.point.scale);
  io.field("seed", r.point.seed);
  io.field("ok", r.ok);
  io.field("error", r.error);
  std::string error_class(to_string(r.error_class));
  io.field("error_class", error_class);
  io.field("mapped_refs", r.mapped_refs);
  io.field("demoted_refs", r.demoted_refs);
  if constexpr (!std::is_const_v<Result>) {
    r.point.knobs = parse_knobs(knobs);
    r.error_class = error_class_from_name(error_class);
  }
}

/// The JSON point record: the engine version, the header, then the report.
/// Writing and reading are the two instantiations.
template <class Result, class IO>
void visit_point(Result& r, IO& io) {
  std::uint64_t version = kEngineVersion;
  io.field(kVersionKey, version);  // read side: checked before the walk
  visit_header(r, io);
  visit_report(r.report, io);
}

/// point_from_json on already-parsed fields of the current engine version.
PointResult point_from_fields(const FieldMap& f) {
  PointResult r;
  FieldReader io{f};
  visit_point(r, io);
  return r;
}

}  // namespace

std::string point_json(const PointResult& r) {
  std::string out = "{";
  JsonWriter io{out};
  visit_point(r, io);
  out.back() = '}';  // replaces the trailing comma
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
  if (!parse_flat_json(text, f) || stored_engine_version(f) != kEngineVersion)
    return std::nullopt;
  return point_from_fields(f);
}

namespace {

/// CSV sink: the column names (the header line) or the values (a row).
/// Strings are quoted when they hold a comma, a quote or a newline.
struct CsvSink {
  std::string& out;
  bool names;
  template <class T>
  void field(std::string_view name, const T& v) const {
    if (names) {
      out += name;
    } else if constexpr (std::is_same_v<T, bool>) {
      out += v ? '1' : '0';
    } else if constexpr (std::is_same_v<T, double>) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += buf;
    } else if constexpr (std::is_integral_v<T>) {
      out += std::to_string(v);
    } else if (std::string_view(v).find_first_of(",\"\n") == std::string_view::npos) {
      out += v;
    } else {
      out += '"';
      for (const char c : std::string_view(v)) {
        if (c == '"') out += '"';
        out += c;
      }
      out += '"';
    }
    out += ',';
  }
};

/// The CSV columns: the point header, then a selection of the report.
template <class IO>
void visit_csv(const PointResult& r, IO& io) {
  visit_header(r, io);
  const RunReport& rep = r.report;
  io.field("cycles", rep.core.cycles);
  io.field("work_cycles", rep.core.phase_cycles[static_cast<unsigned>(ExecPhase::Work)]);
  io.field("control_cycles", rep.core.phase_cycles[static_cast<unsigned>(ExecPhase::Control)]);
  io.field("synch_cycles", rep.core.phase_cycles[static_cast<unsigned>(ExecPhase::Synch)]);
  io.field("uops", rep.core.uops);
  io.field("amat", rep.amat);
  io.field("l1_hit_pct", rep.l1_hit_ratio);
  io.field("l1_accesses", rep.l1_accesses);
  io.field("l2_accesses", rep.l2_accesses);
  io.field("l3_accesses", rep.l3_accesses);
  io.field("lm_accesses", rep.lm_accesses);
  io.field("directory_accesses", rep.directory_accesses);
  io.field("energy_cpu_pj", rep.energy.cpu);
  io.field("energy_caches_pj", rep.energy.caches);
  io.field("energy_lm_pj", rep.energy.lm);
  io.field("energy_others_pj", rep.energy.others);
  io.field("energy_total_pj", rep.energy.total());
  for (const auto& [resource, member] : kSharedResources)
    for (const auto& [sub, field] : kContentionFields)
      io.field(std::string(resource) + '_' + sub, (rep.*member).*field);
}

}  // namespace

std::string csv_header() {
  std::string h;
  CsvSink io{h, true};
  visit_csv(PointResult{}, io);
  h.back() = '\n';
  return h;
}

std::string csv_row(const PointResult& r) {
  std::string out;
  CsvSink io{out, false};
  visit_csv(r, io);
  out.back() = '\n';
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
  const std::optional<std::uint64_t> version = stored_engine_version(f);
  if (!version) {
    note_corrupt(path);
    return std::nullopt;
  }
  // A stale engine version is the EXPECTED state after an engine bump —
  // a miss, never counted as corruption, but tallied so the sweep summary
  // can report how much of the cache predates the current engine.
  if (*version != kEngineVersion) {
    stale_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  PointResult r = point_from_fields(f);
  if (!r.ok) {
    note_corrupt(path);  // parsed but failed/implausible: store() never writes these
    return std::nullopt;
  }
  // Guard against hash collisions and hand-edited files: the stored point
  // must describe the same simulation.
  if (r.point.canonical() != p.canonical()) {
    note_corrupt(path);
    return std::nullopt;
  }
  // The report is the cached payload; the identity is the caller's (the
  // same simulation can belong to several experiments).
  r.point = p;
  r.from_cache = true;
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
  write_file_atomic(path, tmp, point_json(r) + '\n');
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
