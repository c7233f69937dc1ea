// Shared declarations of the repository benchmark: the workload table, the
// traced rebuild of one sweep point from public calls, the result digest
// and its pins, and the standalone per-layer replays.  See
// perfbench/README.md.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/codegen.hpp"
#include "driver/experiment.hpp"
#include "driver/result.hpp"
#include "sim/machine.hpp"
#include "sim/system.hpp"

namespace perfbench {

using hm::driver::ExperimentSpec;
using hm::driver::PointResult;
using hm::driver::SweepPoint;

/// One benchmark workload: registered experiments run through run_sweep
/// with the options `hm_sweep run` passes for the same flags.
struct Workload {
  std::string name;
  std::vector<std::string> experiments;
  unsigned jobs = 1;
  std::optional<double> scale;  ///< nullopt = each spec's own scale
  bool sampled = false;         ///< --sample interval at its default budgets
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// Engine configuration of every point of @p w.
hm::EngineConfig engine_for(const Workload& w);

/// The experiments of @p w in the order one run visits them: a shuffle
/// drawn from @p seed.  The order decides which experiment simulates a
/// shared point and which one gets the session-cache hit; it never changes
/// the set of simulated points or any result.
std::vector<const ExperimentSpec*> experiment_order(const Workload& w, std::uint64_t seed);

// ------------------------------------------------------------- rebuild ----

/// Machine of @p p with its knobs applied, as run_point configures it.
hm::MachineConfig point_machine(const SweepPoint& p);

/// Tile @p tile's compiled kernel of a NAS/irregular point (tile 0 of a
/// one-core point is the whole kernel).
hm::CompiledKernel point_kernel(const SweepPoint& p, unsigned tile = 0);

/// Host seconds one rebuilt point spent in each layer call.
struct PointSpans {
  double config = 0.0;     ///< make_machine + knobs (sim)
  double workloads = 0.0;  ///< make_workload + make_spmd_slice
  double compiler = 0.0;   ///< compile
  double construct = 0.0;  ///< System construction (sim)
  double run = 0.0;        ///< System::run: sim and every layer below it
};

/// Rebuild @p p from the public calls run_point makes, in the same order,
/// timing each one.  The result serializes to the same point_json bytes as
/// run_point's (tests/fidelity_test.cpp checks it).
PointResult rebuild_point(const SweepPoint& p, const hm::EngineConfig& engine,
                          PointSpans* spans = nullptr);

// -------------------------------------------------------------- checks ----

/// "name=value;" over a fixed list of simulated fields of @p r, read back
/// from point_json by name, so fields appended to the report later leave it
/// unchanged.
std::string digest_line(const PointResult& r);

/// Digest of a set of points keyed by canonical identity.
struct Digest {
  std::map<std::string, std::string> lines;  ///< canonical -> digest_line
  std::vector<std::string> conflicts;        ///< one identity, two results
  void add(const PointResult& r);
  std::string hex() const;
};

/// Pinned reference values (perfbench/pins.txt): one digest per workload at
/// its default scale, and the exact-engine cycles of every sampled point.
struct Pins {
  std::uint64_t engine_version = 0;
  std::map<std::string, std::string> digest;          ///< workload -> hex
  std::map<std::string, std::uint64_t> exact_cycles;  ///< canonical -> cycles
  static std::optional<Pins> load(const std::string& path);
  bool save(const std::string& path) const;
};

// -------------------------------------------------------------- layers ----

/// Standalone per-layer costs, measured outside System::run on inputs taken
/// from the workload's own points; 0 for a layer the workload does not use.
struct LayerCosts {
  double emit_ns_per_uop = 0.0;
  double replay_batch_ms = 0.0;
  double replay_functional_ns_per_uop = 0.0;
  double access_ns = 0.0;
  double functional_access_ns = 0.0;
  double book_ns = 0.0;
  double traverse_ns = 0.0;
  double note_fill_ns = 0.0;
  std::map<unsigned, double> construct_ms;  ///< tiles -> median System ctor
};

/// @p probes: one point per distinct kernel of the workload.  @p ran: the
/// points a pass simulated, with their reports; they give the request
/// density of the booking replay, the NoC traffic of the traversal and
/// sharer-filter replays, and the tile counts System construction is timed at.
LayerCosts measure_layers(const std::vector<SweepPoint>& probes,
                          const std::vector<const PointResult*>& ran, std::uint64_t seed);

}  // namespace perfbench
