// hm_sweep — unified driver for the paper-reproduction experiment suite.
//
// The subcommand is mandatory (a flag-only invocation is a usage error, so
// scripts cannot drift between implicit and explicit spellings):
//
//   hm_sweep list [flags]                 what can run, and how many points
//                                         (--format json: machine-readable
//                                         experiment inventory for scripting)
//   hm_sweep run [flags]                  run experiments (default: all)
//     --filter SUBSTR     only experiments whose name contains SUBSTR
//     --jobs N|auto       worker threads (default auto = host cores); the
//                         only host parallelism — each point runs on one
//                         thread
//   Interconnect topology (see docs/ARCHITECTURE.md "Interconnect"):
//     --topology T        override every point's topology knob: flat (one
//                         home slice and one shared DMA bus), mesh or ring.
//                         Changes the simulated machine, so it enters the
//                         canonical point identity (cache/journal keys);
//                         `--topology flat` is identical to no flag
//     --mesh-dim N        mesh X dimension (default 0 = near-square
//                         auto-factor of the core count; must divide it)
//   Engine schedule (see docs/OPERATIONS.md "Engine schedule"):
//     --quantum N         tile turn length in simulated cycles (default 0 =
//                         serial whole-run turns).  A finite quantum is a
//                         different, deterministic contention model: it
//                         disables caches and the journal
//   Sampled simulation (see README "Sampled simulation"):
//     --sample MODE       off|interval (default off): interval alternates
//                         detailed warmup+measurement with batch-compiled
//                         functional fast-forward; cycles/energy are
//                         extrapolated and each point reports an error
//                         bound.  Single-tile points only: a multi-tile
//                         point fails as a config error.  Approximate:
//                         disables caches and the journal
//     --sample-report FILE  per-point sampling side-channel (JSONL: point
//                         canonical, cycles, sample_error, sampled_fraction)
//                         for the sampled-vs-full validation sweep
//     --format table|json|csv             stdout format (default table)
//     --out DIR           also write DIR/<name>.json and DIR/<name>.csv
//                         (missing parent directories are created)
//     --cache-dir DIR     on-disk memo cache (default .hm_sweep_cache)
//     --no-cache          disable the on-disk memo cache
//     --scale F|full      override every spec's workload scale (quick looks);
//                         'full' spells out the default — each spec's own
//                         full scale, the one the paper tables use
//     --quiet             no progress on stderr
//   Fault tolerance (see docs/OPERATIONS.md "Survive failures and resume a
//   killed sweep"):
//     --journal-dir DIR   crash-safe journal of finished points
//                         (default .hm_sweep_journal)
//     --no-journal        disable the journal
//     --resume            replay journaled points before running the rest;
//                         the resumed outputs are byte-identical to an
//                         uninterrupted run's
//     --max-point-cycles N  per-point simulated-cycle budget: a tile whose
//                         dispatch front passes N stops there and the point
//                         is a `timeout` row, identically at any --jobs
//   Observability (see README "Observability"):
//     --trace-dir DIR     Chrome trace_event JSON + profile.json per
//                         experiment under DIR/<name>/ (chrome://tracing,
//                         Perfetto); never perturbs simulated results
//     --progress          the live progress line (executed/total,
//                         ok/quarantined counts, ETA) on stderr even when
//                         it is not a terminal (on a terminal it is always
//                         shown unless --quiet)
//   Every sweep prints a summary line on stderr (points, cached, resumed,
//   failed, timeouts, corrupt/stale cache entries, skipped journal
//   records, wall time, workers) plus the per-phase wall times of the
//   executed points; see docs/OPERATIONS.md "Trace where the time went".
//
// Exit status: 0 all points ok; 3 some points quarantined (outputs still
// emitted, failed rows carry error/error_class); 1 fatal driver error;
// 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <chrono>

#include "common/atomic_file.hpp"
#include "driver/experiment.hpp"
#include "driver/registry.hpp"
#include "driver/result.hpp"
#include "driver/scheduler.hpp"
#include "driver/sweep.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace {

using namespace hm::driver;

struct CliOptions {
  bool list = false;
  std::string filter;
  unsigned jobs = 0;  // auto
  std::string topology;   // ""=keep spec knobs; flat|mesh|ring overrides
  unsigned mesh_dim = 0;  // mesh X dim override (0 = near-square auto)
  std::string format = "table";
  std::string out_dir;
  std::string cache_dir = ".hm_sweep_cache";
  std::optional<double> scale;
  bool quiet = false;
  std::string journal_dir = ".hm_sweep_journal";
  bool resume = false;
  std::uint64_t max_point_cycles = 0;
  std::string trace_dir;
  bool live_progress = false;
  unsigned quantum = 0;
  std::string sample = "off";
  std::string sample_report;
};

int usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s <list|run> [--filter SUBSTR] [--jobs N|auto]\n"
               "       [--topology flat|mesh|ring] [--mesh-dim N]\n"
               "       [--format table|json|csv] [--out DIR] [--cache-dir DIR]\n"
               "       [--no-cache] [--scale F|full] [--quiet]\n"
               "       [--journal-dir DIR] [--no-journal] [--resume]\n"
               "       [--max-point-cycles N] [--trace-dir DIR]\n"
               "       [--progress] [--quantum N]\n"
               "       [--sample off|interval] [--sample-report FILE]\n",
               argv0);
  return code;
}

bool progress_to_tty() {
#if defined(__unix__) || defined(__APPLE__)
  return isatty(2) != 0;
#else
  return false;
#endif
}

/// Strict numeric parsing: the whole token must convert, and the value must
/// be positive — `--jobs two` or `--scale abc` are usage errors, not silent
/// zeros.
bool parse_positive_unsigned(const char* s, unsigned& out) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-' || v == 0 || v > 1u << 20) return false;
  out = static_cast<unsigned>(v);
  return true;
}

bool parse_positive_double(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0.0)) return false;
  out = v;
  return true;
}

/// Like parse_positive_unsigned but 0 is legal (`--quantum 0` = serial).
bool parse_unsigned(const char* s, unsigned& out) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-' || v > 1u << 20) return false;
  out = static_cast<unsigned>(v);
  return true;
}

bool parse_positive_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-' || v == 0) return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, CliOptions& opt) {
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  // The subcommand is mandatory and comes first: `hm_sweep run ...` or
  // `hm_sweep list ...`.  A flag-only invocation used to silently mean
  // `run`, which let scripts drift between the two spellings — now it is a
  // usage error (--help/-h stays valid on its own).
  bool have_subcommand = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "list" || arg == "run") {
      if (i != 1) {
        std::fprintf(stderr, "the subcommand must come first: %s %s ...\n", argv[0],
                     arg.c_str());
        return false;
      }
      have_subcommand = true;
      opt.list = arg == "list";
    } else if (arg == "--filter") {
      const char* v = need_value(i);
      if (!v) return false;
      opt.filter = v;
    } else if (arg == "--jobs") {
      const char* v = need_value(i);
      if (!v) return false;
      if (std::strcmp(v, "auto") == 0) {
        opt.jobs = 0;
      } else if (!parse_positive_unsigned(v, opt.jobs)) {
        std::fprintf(stderr, "--jobs expects a positive integer or 'auto', got: %s\n", v);
        return false;
      }
    } else if (arg == "--topology") {
      const char* v = need_value(i);
      if (!v) return false;
      opt.topology = v;
      if (opt.topology != "flat" && opt.topology != "mesh" && opt.topology != "ring") {
        std::fprintf(stderr, "--topology expects flat, mesh or ring, got: %s\n", v);
        return false;
      }
    } else if (arg == "--mesh-dim") {
      const char* v = need_value(i);
      if (!v) return false;
      if (!parse_positive_unsigned(v, opt.mesh_dim)) {
        std::fprintf(stderr, "--mesh-dim expects a positive integer, got: %s\n", v);
        return false;
      }
    } else if (arg == "--format") {
      const char* v = need_value(i);
      if (!v) return false;
      opt.format = v;
      if (opt.format != "table" && opt.format != "json" && opt.format != "csv") return false;
    } else if (arg == "--out") {
      const char* v = need_value(i);
      if (!v) return false;
      opt.out_dir = v;
    } else if (arg == "--cache-dir") {
      const char* v = need_value(i);
      if (!v) return false;
      opt.cache_dir = v;
    } else if (arg == "--no-cache") {
      opt.cache_dir.clear();
    } else if (arg == "--scale") {
      const char* v = need_value(i);
      if (!v) return false;
      if (std::strcmp(v, "full") == 0) {
        // Explicit spelling of the default: every spec's own (full) scale.
        opt.scale.reset();
        continue;
      }
      double scale = 0.0;
      if (!parse_positive_double(v, scale)) {
        std::fprintf(stderr, "--scale expects a positive number or 'full', got: %s\n", v);
        return false;
      }
      opt.scale = scale;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--journal-dir") {
      const char* v = need_value(i);
      if (!v) return false;
      opt.journal_dir = v;
    } else if (arg == "--no-journal") {
      opt.journal_dir.clear();
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--max-point-cycles") {
      const char* v = need_value(i);
      if (!v) return false;
      if (!parse_positive_u64(v, opt.max_point_cycles)) {
        std::fprintf(stderr, "--max-point-cycles expects a positive integer, got: %s\n", v);
        return false;
      }
    } else if (arg == "--trace-dir") {
      const char* v = need_value(i);
      if (!v) return false;
      opt.trace_dir = v;
    } else if (arg == "--progress") {
      opt.live_progress = true;
    } else if (arg == "--quantum") {
      const char* v = need_value(i);
      if (!v) return false;
      if (!parse_unsigned(v, opt.quantum)) {
        std::fprintf(stderr, "--quantum expects a non-negative integer, got: %s\n", v);
        return false;
      }
    } else if (arg == "--sample") {
      const char* v = need_value(i);
      if (!v) return false;
      opt.sample = v;
      if (opt.sample != "off" && opt.sample != "interval") {
        std::fprintf(stderr, "--sample expects off or interval, got: %s\n", v);
        return false;
      }
    } else if (arg == "--sample-report") {
      const char* v = need_value(i);
      if (!v) return false;
      opt.sample_report = v;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (!have_subcommand) {
    std::fprintf(stderr, "missing subcommand: expected 'list' or 'run'\n");
    return false;
  }
  return true;
}

bool write_file(const std::filesystem::path& path, const std::string& content) {
  // Create missing parent directories instead of failing — --out may name a
  // nested results path that does not exist yet (or was removed mid-run).
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  // A crash mid-write leaves the previous artifact intact (or nothing),
  // never a half-written JSON/CSV that a downstream script would parse as
  // truth.
  return hm::write_file_atomic(path.string(), path.string() + ".tmp", content) ==
         hm::WriteStage::Ok;
}

/// The distinct values of an experiment's core-count axis, in declaration
/// order: `cores` axis values and any grid-base pin, with the canonical
/// default (default_knobs()) when a grid leaves the knob unset.
std::vector<std::string> core_axis(const ExperimentSpec& spec) {
  const std::string& fallback = default_knobs().at("cores");
  std::vector<std::string> cores;
  const auto add = [&](const std::string& v) {
    for (const std::string& have : cores)
      if (have == v) return;
    cores.push_back(v);
  };
  for (const Grid& g : spec.grids) {
    bool pinned = false;
    for (const Axis& a : g.axes)
      if (a.key == "cores") {
        pinned = true;
        for (const std::string& v : a.values) add(v);
      }
    if (!pinned) {
      const auto base = g.base.find("cores");
      add(base != g.base.end() ? base->second : fallback);
    }
  }
  if (cores.empty()) cores.push_back(fallback);  // grid-less spec
  return cores;
}

/// Machine-readable inventory for `list --format json`: one object per
/// selected experiment (including its core-count axis), with the
/// registered machines/workloads appended so scripts can discover the
/// whole axis space from one call.
std::string list_json(const std::vector<const ExperimentSpec*>& selected) {
  std::string out = "{\n\"experiments\":[\n";
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const ExperimentSpec* spec = selected[i];
    const hm::JsonWriter io{out};
    out += '{';
    io.field("name", spec->name);
    io.field("points", expand(*spec).size());
    io.field("scale", spec->scale);
    out += "\"cores\":[";
    const std::vector<std::string> cores = core_axis(*spec);
    for (std::size_t c = 0; c < cores.size(); ++c) {
      out += cores[c];
      if (c + 1 < cores.size()) out += ',';
    }
    out += "],";
    io.field("artifact", spec->artifact);
    io.field("title", spec->title);
    out.back() = '}';
    if (i + 1 < selected.size()) out += ',';
    out += '\n';
  }
  out += "],\n\"machines\":[";
  const auto names = [&](const std::vector<std::string>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += '"';
      append_json_escaped(out, v[i]);
      out += '"';
      if (i + 1 < v.size()) out += ',';
    }
  };
  names(machine_names());
  out += "],\n\"workloads\":[";
  names(workload_names());
  out += "]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!parse_args(argc, argv, opt)) return usage(argv[0], 2);
  if (opt.resume && opt.journal_dir.empty()) {
    std::fprintf(stderr, "--resume needs a journal (drop --no-journal)\n");
    return usage(argv[0], 2);
  }
  if (opt.live_progress && opt.quiet) {
    std::fprintf(stderr, "--progress and --quiet are contradictory\n");
    return usage(argv[0], 2);
  }

  std::vector<const ExperimentSpec*> selected;
  for (const ExperimentSpec* spec : all_experiments())
    if (opt.filter.empty() || spec->name.find(opt.filter) != std::string::npos)
      selected.push_back(spec);

  if (opt.list) {
    if (opt.format == "json") {
      std::fputs(list_json(selected).c_str(), stdout);
    } else if (opt.format == "csv") {
      std::fprintf(stderr, "list supports --format table|json\n");
      return 2;
    } else {
      std::printf("%-24s %7s  %-12s %s\n", "experiment", "points", "artifact", "title");
      for (const ExperimentSpec* spec : selected)
        std::printf("%-24s %7zu  %-12s %s\n", spec->name.c_str(), expand(*spec).size(),
                    spec->artifact.c_str(), spec->title.c_str());
    }
    return 0;
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no experiment matches --filter %s\n", opt.filter.c_str());
    return 2;
  }

  if (!opt.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --out directory %s\n", opt.out_dir.c_str());
      return 2;
    }
  }

  // Engine configuration for every point.
  hm::EngineConfig engine;
  engine.quantum = opt.quantum;
  engine.max_cycles = opt.max_point_cycles;
  engine.sampling.mode = opt.sample == "interval"
                             ? hm::SamplingConfig::Mode::Interval
                             : hm::SamplingConfig::Mode::Off;
  if (!opt.sample_report.empty() && !engine.sampling.enabled()) {
    std::fprintf(stderr, "--sample-report needs --sample interval\n");
    return usage(argv[0], 2);
  }
  const unsigned jobs = opt.jobs == 0 ? auto_jobs() : opt.jobs;
  if (hm::engine_alters_results(engine) && !opt.quiet)
    std::fprintf(stderr,
                 "note: engine config alters results (--sample interval or "
                 "--quantum > 0): memo cache, session cache "
                 "and journal are disabled for these sweeps\n");
  const bool show_progress = opt.live_progress || (!opt.quiet && progress_to_tty());
  RunCache session;
  std::size_t total_failures = 0;
  // --sample-report side-channel: sample_error/sampled_fraction are
  // in-memory-only RunReport fields (never in point_json/csv), so the
  // sampled-vs-full validation sweep needs this JSONL export.  Sampled
  // sweeps bypass every cache, so each row comes from a fresh execution.
  std::string sample_report_lines;

  // Any exception escaping the sweep loop — an allocation failure, a
  // filesystem surprise — is a FATAL driver error (exit 1), distinct from
  // quarantined points (exit 3): finished points are already in the
  // journal, so a later --resume loses nothing.
  try {
    for (const ExperimentSpec* spec : selected) {
      SweepOptions sweep_opt;
      sweep_opt.jobs = jobs;
      sweep_opt.cache_dir = opt.cache_dir;
      sweep_opt.session_cache = &session;
      sweep_opt.scale_override = opt.scale;
      if (!opt.topology.empty())
        sweep_opt.knob_overrides["topology"] = opt.topology;
      if (opt.mesh_dim != 0)
        sweep_opt.knob_overrides["mesh_dim"] = std::to_string(opt.mesh_dim);
      sweep_opt.journal_dir = opt.journal_dir;
      sweep_opt.resume = opt.resume;
      sweep_opt.trace_dir = opt.trace_dir;
      sweep_opt.engine = engine;

      // Live progress: one call per executed point, serialized under the
      // pool's mutex, so plain locals count ok/quarantined; ETA from
      // elapsed/done.
      std::size_t live_ok = 0, live_fail = 0;
      const auto sweep_t0 = std::chrono::steady_clock::now();
      if (show_progress) {
        sweep_opt.progress = [&](const PointResult& r, std::size_t done,
                                 std::size_t total) {
          ++(r.ok ? live_ok : live_fail);
          const double elapsed =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            sweep_t0)
                  .count();
          const double eta =
              done != 0 ? elapsed / static_cast<double>(done) *
                              static_cast<double>(total - done)
                        : 0.0;
          std::fprintf(stderr,
                       "\r\033[K%s [%zu/%zu] ok %zu quarantined %zu eta %.1fs",
                       spec->name.c_str(), done, total, live_ok, live_fail, eta);
        };
      }

      const SweepOutcome out = run_sweep(*spec, sweep_opt);
      if (show_progress) std::fprintf(stderr, "\r\033[K");

      total_failures += out.failures;
      if (!opt.sample_report.empty()) {
        for (const PointResult& r : out.points) {
          if (!r.ok) continue;
          std::string& line = sample_report_lines;
          line += '{';
          const hm::JsonWriter io{line};
          io.field("experiment", spec->name);
          io.field("point", r.point.canonical());
          io.field("cycles", r.report.core.cycles);
          io.field("sample_error", r.report.sample_error);
          io.field("sampled_fraction", r.report.sampled_fraction);
          line.back() = '}';
          line += '\n';
        }
      }
      // Serialize each format at most once, shared between stdout and --out.
      const std::string json =
          opt.format == "json" || !opt.out_dir.empty() ? to_json(out) : std::string();
      const std::string csv =
          opt.format == "csv" || !opt.out_dir.empty() ? to_csv(out) : std::string();
      if (opt.format == "json") {
        std::fputs(json.c_str(), stdout);
      } else if (opt.format == "csv") {
        std::fputs(csv.c_str(), stdout);
      } else {
        std::fputs(render(out).c_str(), stdout);
      }
      if (!opt.out_dir.empty()) {
        const std::filesystem::path dir(opt.out_dir);
        if (!write_file(dir / (spec->name + ".json"), json) ||
            !write_file(dir / (spec->name + ".csv"), csv))
          std::fprintf(stderr, "warning: could not write outputs for %s\n",
                       spec->name.c_str());
      }
      if (!opt.quiet) {
        std::fprintf(stderr,
                     "%s: %zu points, %zu cached, %zu resumed, %zu failed "
                     "(%zu timeout), %zu corrupt-cache, "
                     "%zu stale-cache, %zu skipped-journal, %.2fs (jobs=%u)\n",
                     spec->name.c_str(), out.points.size(), out.cache_hits, out.resumed,
                     out.failures, out.timeouts, out.cache_corrupt,
                     out.stale_entries, out.journal_skipped, out.wall_seconds,
                     jobs);
        if (out.executed != 0)
          std::fprintf(stderr,
                       "%s: phases over %zu executed: setup %.2fs, codegen "
                       "%.2fs, simulate %.2fs, serialize %.2fs\n",
                       spec->name.c_str(), out.executed, out.setup_seconds,
                       out.codegen_seconds, out.simulate_seconds,
                       out.serialize_seconds);
      }
    }
    if (!opt.sample_report.empty() &&
        !write_file(opt.sample_report, sample_report_lines))
      std::fprintf(stderr, "warning: could not write --sample-report %s\n",
                   opt.sample_report.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
  // 3, not 1: quarantined points still produced complete outputs (their
  // rows carry error/error_class) — scripts can distinguish "partial data"
  // from "no data".
  return total_failures == 0 ? 0 : 3;
}
