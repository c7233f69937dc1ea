// Declarative experiment specs: every paper figure/table (and any future
// sweep) is a table of axes over named machine configs, workloads and
// knobs, expanded into independent SweepPoints the scheduler can run on
// any thread in any order.
//
// Determinism contract: a SweepPoint carries everything that influences
// its simulation — machine name, workload name, scale, knobs and the RNG
// seed — so the per-point RunReport is a pure function of the point and
// the engine version.  Seeds are assigned at expansion time, never drawn
// from shared state, which is what makes `--jobs N` byte-identical to
// `--jobs 1`.  Every point is pinned to kPaperSeed, the seed the published
// tables were generated with, so physically identical points from
// different experiments (e.g. the hybrid runs shared by Figs. 8/9/10 and
// Table 3) share one memo-cache entry.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hm::driver {

/// The RNG seed the paper-series tables pin (CodegenOptions::global_seed's
/// historical default).
inline constexpr std::uint64_t kPaperSeed = 42;

/// One expanded grid cell: a fully specified, independently runnable job.
struct SweepPoint {
  std::string experiment;  ///< owning spec name (provenance only)
  std::size_t index = 0;   ///< position in the expansion (stable job id)
  std::string label;       ///< human-readable, e.g. "fig8/FT/hybrid_oracle"

  std::string machine;     ///< machine-registry name
  std::string workload;    ///< workload-registry name, "micro", or "" (no run)
  double scale = 1.0;      ///< WorkloadScale factor (micro: iterations/200000)
  std::uint64_t seed = kPaperSeed;
  std::map<std::string, std::string> knobs;  ///< sorted => canonical order

  /// Knob value or @p fallback when absent (defaults are elided, see
  /// default_knobs()).
  std::string knob(std::string_view key, std::string fallback = "") const;

  /// "k=v;k=v" in sorted key order ("" when no knobs).
  std::string knobs_string() const;

  /// Physical identity of the simulation — everything except experiment /
  /// index / label — used for memo-cache keys and cross-experiment dedup.
  std::string canonical() const;
};

/// One sweep axis: a knob key and the values it takes.  The special keys
/// "machine" and "workload" populate the corresponding SweepPoint fields.
struct Axis {
  std::string key;
  std::vector<std::string> values;
};

/// A grid of points: fixed base assignments x the cartesian product of the
/// axes (first axis outermost).  An experiment may union several grids
/// (e.g. Fig. 7's single baseline point next to the mode x pct grid).
struct Grid {
  std::string tag;  ///< optional label suffix for axis-less grids
  std::map<std::string, std::string> base;
  std::vector<Axis> axes;
};

struct SweepView;  // sweep.hpp: spec + results, with lookup helpers

struct ExperimentSpec {
  std::string name;      ///< CLI name, e.g. "fig9"
  std::string title;     ///< printed table header
  std::string artifact;  ///< paper artifact, e.g. "Fig. 9" (list/README map)
  double scale = 1.0;    ///< default WorkloadScale factor for all points
  std::vector<Grid> grids;
  /// Regenerates the table text from the sweep results (no trailing header;
  /// render() adds the "==== title ====" banner).  Null => generic listing.
  std::function<std::string(const SweepView&)> render;
};

/// Canonical default knob values.  Expansion elides a knob set to its
/// default so a point like (hybrid_coherent, FT, dir_entries=32) hashes
/// identically to the knob-free (hybrid_coherent, FT) point other
/// experiments run — the memo cache then shares the simulation.
const std::map<std::string, std::string>& default_knobs();

/// Expand a spec into its points.  @p scale_override rescales every point
/// (CI smoke / quick looks; the paper tables use the spec's own scale).
std::vector<SweepPoint> expand(const ExperimentSpec& spec,
                               std::optional<double> scale_override = {});

/// Experiment registry (paper specs are installed on first use).
/// Registering an existing name shadows it — latest registration wins —
/// while pointers previously returned for the old spec remain valid.
void register_experiment(ExperimentSpec spec);
const ExperimentSpec* find_experiment(std::string_view name);
std::vector<const ExperimentSpec*> all_experiments();  // registration order

/// Installs the nine paper experiments (idempotent; the registry accessors
/// call it automatically).
void register_paper_experiments();

}  // namespace hm::driver
