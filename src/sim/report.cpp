#include "sim/report.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <sstream>
#include <type_traits>

namespace hm {

namespace {

/// A key composed from a prefix or an index, e.g. "t3_cycles".
template <class... Args>
std::array<char, 64> key(const char* fmt, Args... args) {
  std::array<char, 64> k{};
  std::snprintf(k.data(), k.size(), fmt, args...);
  return k;
}

template <class IO, class C>
void contention(IO& io, const char* resource, C& c) {
  for (const auto& [sub, member] : kContentionFields)
    io.field(key("%s_%s", resource, sub).data(), c.*member);
}

/// A list serialized as its length under @p len_key, then one entry each;
/// read back with at most @p cap entries.
template <class IO, class Vec, class Entry>
void counted(IO& io, const char* len_key, Vec& v, std::uint64_t cap, Entry entry) {
  std::uint64_t n = v.size();
  io.field(len_key, n);
  if constexpr (!std::is_const_v<Vec>) v.resize(std::min(n, cap));
  for (std::size_t i = 0; i < v.size(); ++i) entry(i, v[i]);
}

/// The one RunReport field list; see visit_report.  Append-only: a new
/// field goes at the end (or in a new presence-marked section), never
/// between existing keys.
template <class Report, class IO>
void walk(Report& r, IO& io) {
  auto& core = r.core;
  io.field("cycles", core.cycles);
  io.field("phase_work", core.phase_cycles[static_cast<unsigned>(ExecPhase::Work)]);
  io.field("phase_control", core.phase_cycles[static_cast<unsigned>(ExecPhase::Control)]);
  io.field("phase_synch", core.phase_cycles[static_cast<unsigned>(ExecPhase::Synch)]);
  io.field("uops", core.uops);
  io.field("loads", core.loads);
  io.field("stores", core.stores);
  io.field("guarded_loads", core.guarded_loads);
  io.field("guarded_stores", core.guarded_stores);
  io.field("value_mismatches", core.value_mismatches);
  {
    std::uint64_t count = core.load_latency.count();
    double sum = core.load_latency.sum();
    double min = core.load_latency.min();
    double max = core.load_latency.max();
    io.field("load_lat_count", count);
    io.field("load_lat_sum", sum);
    io.field("load_lat_min", min);
    io.field("load_lat_max", max);
    if constexpr (!std::is_const_v<Report>) core.load_latency.restore(count, sum, min, max);
  }
  io.field("amat", r.amat);
  io.field("l1_hit_ratio", r.l1_hit_ratio);
  io.field("l1_accesses", r.l1_accesses);
  io.field("l2_accesses", r.l2_accesses);
  io.field("l3_accesses", r.l3_accesses);
  io.field("lm_accesses", r.lm_accesses);
  io.field("directory_accesses", r.directory_accesses);
  io.field("energy_cpu", r.energy.cpu);
  io.field("energy_caches", r.energy.caches);
  io.field("energy_lm", r.energy.lm);
  io.field("energy_others", r.energy.others);
  for (const auto& [name, member] : kActivityCounters) io.field(name, r.activity.*member);
  io.field("act_cycles", r.activity.cycles);
  io.field("act_l1_size", r.activity.l1_size);
  io.field("act_has_lm", r.activity.has_lm);
  io.field("act_has_directory", r.activity.has_directory);
  for (const auto& [resource, member] : kSharedResources) contention(io, resource, r.*member);
  // Interconnect section, topology machines only: flat runs (noc_nodes ==
  // 0) skip it entirely, so their bytes — and every flat golden and cached
  // report — predate the NoC.
  if (io.present("noc_nodes", r.noc_nodes)) {
    io.field("noc_mesh_x", r.noc_mesh_x);
    io.field("noc_mesh_y", r.noc_mesh_y);
    io.field("noc_msgs", r.noc_msgs);
    io.field("noc_hops", r.noc_hops);
    io.field("noc_flits", r.noc_flits);
    io.field("noc_dir_filtered", r.noc_dir_filtered);
    io.field("noc_dir_broadcasts", r.noc_dir_broadcasts);
    contention(io, "noc_links", r.noc_links);
    // Cap mirrors the mesh diameter bound for the largest allowed machine.
    counted(io, "noc_hop_hist_len", r.noc_hop_hist, 1024,
            [&](std::size_t h, auto& n) { io.field(key("noc_hop%zu", h).data(), n); });
  }
  // Per-tile sections, tile order; the key prefix carries the tile index so
  // the object stays flat.  Cap against corrupt cache files; no real
  // machine has this many tiles.
  counted(io, "n_tiles", r.tiles, 4096, [&](std::size_t i, auto& t) {
    const auto tile = [&](const char* name, auto& v) { io.field(key("t%zu_%s", i, name).data(), v); };
    tile("cycles", t.cycles);
    tile("uops", t.uops);
    tile("loads", t.loads);
    tile("stores", t.stores);
    tile("l1_accesses", t.l1_accesses);
    tile("lm_accesses", t.lm_accesses);
    tile("directory_accesses", t.directory_accesses);
    tile("dma_lines", t.dma_lines);
    tile("energy", t.energy);
  });
}

}  // namespace

void visit_report(const RunReport& report, JsonWriter& io) { walk(report, io); }
void visit_report(RunReport& report, FieldReader& io) { walk(report, io); }

void append_report_fields(std::string& out, const RunReport& report) {
  JsonWriter io{out};
  visit_report(report, io);
  out.pop_back();  // drop the trailing comma
}

RunReport report_from_fields(const FieldMap& fields) {
  RunReport r;
  FieldReader io{fields};
  visit_report(r, io);
  return r;
}

Table3Row make_table3_row(const std::string& benchmark, const std::string& mode,
                          unsigned guarded, unsigned total_refs, const RunReport& report) {
  Table3Row row;
  row.benchmark = benchmark;
  row.mode = mode;
  {
    std::ostringstream os;
    const double pct = total_refs == 0 ? 0.0 : 100.0 * guarded / total_refs;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%u/%u (%.0f%%)", guarded, total_refs, pct);
    os << buf;
    row.guarded_refs = os.str();
  }
  row.amat = report.amat;
  row.l1_hit_ratio = report.l1_hit_ratio;
  row.l1_accesses = report.l1_accesses / 1000;  // thousands, as in the paper
  row.l2_accesses = report.l2_accesses / 1000;
  row.l3_accesses = report.l3_accesses / 1000;
  row.lm_accesses = report.lm_accesses / 1000;
  row.directory_accesses = report.directory_accesses / 1000;
  return row;
}

std::string format_table3(const std::vector<Table3Row>& rows) {
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-6s %-16s %-14s %7s %8s %10s %10s %10s %10s %10s\n",
                "Bench", "Mode", "Guarded", "AMAT", "L1 hit%", "L1 acc(k)", "L2 acc(k)",
                "L3 acc(k)", "LM acc(k)", "Dir acc(k)");
  os << buf;
  for (const Table3Row& r : rows) {
    std::snprintf(buf, sizeof(buf),
                  "%-6s %-16s %-14s %7.2f %8.2f %10llu %10llu %10llu %10llu %10llu\n",
                  r.benchmark.c_str(), r.mode.c_str(), r.guarded_refs.c_str(), r.amat,
                  r.l1_hit_ratio, static_cast<unsigned long long>(r.l1_accesses),
                  static_cast<unsigned long long>(r.l2_accesses),
                  static_cast<unsigned long long>(r.l3_accesses),
                  static_cast<unsigned long long>(r.lm_accesses),
                  static_cast<unsigned long long>(r.directory_accesses));
    os << buf;
  }
  return os.str();
}

PhaseSplit phase_split(const RunReport& report, Cycle normalize_to) {
  PhaseSplit s;
  if (normalize_to == 0) return s;
  const double n = static_cast<double>(normalize_to);
  s.work = static_cast<double>(report.core.phase_cycles[static_cast<unsigned>(ExecPhase::Work)]) / n;
  s.control =
      static_cast<double>(report.core.phase_cycles[static_cast<unsigned>(ExecPhase::Control)]) / n;
  s.synch =
      static_cast<double>(report.core.phase_cycles[static_cast<unsigned>(ExecPhase::Synch)]) / n;
  return s;
}

EnergySplit energy_split(const RunReport& report, PicoJoule normalize_to) {
  EnergySplit s;
  if (normalize_to <= 0.0) return s;
  s.cpu = report.energy.cpu / normalize_to;
  s.caches = report.energy.caches / normalize_to;
  s.lm = report.energy.lm / normalize_to;
  s.others = report.energy.others / normalize_to;
  return s;
}

}  // namespace hm
