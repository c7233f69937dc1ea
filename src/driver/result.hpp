// Result layer for sweeps: per-point results, byte-stable JSON/CSV
// emission, a tiny flat-JSON parser for rehydration, and the on-disk memo
// cache keyed by (canonical point, engine version) so re-runs only
// simulate changed points.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "driver/experiment.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"

namespace hm::driver {

/// Structured failure taxonomy for sweep points.  A point is a pure
/// function of its identity, so a failure would replay identically: every
/// class quarantines the point (recorded, reported, sweep continues) after
/// its one attempt.  `Timeout` is what the simulated-cycle budget produces.
enum class ErrorClass : std::uint8_t {
  None,     ///< ok == true
  Config,   ///< bad point spec (unknown name, knob out of range)
  Timeout,  ///< simulated-cycle budget exceeded
  Engine,   ///< simulation-internal failure (bug, invariant breach)
};

std::string_view to_string(ErrorClass c);
ErrorClass error_class_from_name(std::string_view name);

/// Per-point phase profile: where the wall time of one executed point went
/// (setup = config + workload + System construction, codegen = kernel
/// compilation, simulate = System::run, serialize = journal append).
/// RUNTIME-ONLY, like from_cache: wall times are host-dependent, so they
/// must never enter point_json/csv_row — the `--jobs N == --jobs 1` and
/// crash/resume byte-identity invariants are checked on those bytes.
/// Simulated-cycle attribution rides in RunReport (core.phase_cycles).
struct PointProfile {
  double setup_seconds = 0.0;
  double codegen_seconds = 0.0;
  double simulate_seconds = 0.0;
  double serialize_seconds = 0.0;
  bool measured = false;  ///< false for cache hits / resumed / failed points

  double total_seconds() const {
    return setup_seconds + codegen_seconds + simulate_seconds +
           serialize_seconds;
  }
};

struct PointResult {
  SweepPoint point;
  bool ok = false;
  bool from_cache = false;  ///< runtime-only; never serialized
  std::string error;        ///< non-empty when !ok
  ErrorClass error_class = ErrorClass::None;  ///< taxonomy for !ok results
  // Compiled-kernel classification (the directory-size ablation's columns).
  unsigned mapped_refs = 0;
  unsigned demoted_refs = 0;
  PointProfile profile;  ///< runtime-only; never serialized
  RunReport report;
};

/// The single JSON string escaper (common/json.hpp), shared by the point
/// serialization and the hm_sweep CLI's `list --format json`.
using hm::append_json_escaped;

/// Compact single-line JSON object for one point.  Field order is fixed and
/// doubles print at round-trip precision, so identical results serialize to
/// identical bytes — the representation the `--jobs N == --jobs 1` and
/// memo-cache invariants are checked against.
std::string point_json(const PointResult& r);

/// Parse a flat (single-level) JSON object into name -> raw-token fields.
/// Handles exactly what point_json emits; returns false on syntax errors.
bool parse_flat_json(std::string_view text, FieldMap& out);

/// Rebuild a PointResult from point_json output.  Returns nullopt for
/// malformed text or a report serialized by a different kEngineVersion.
/// Keys point_json no longer writes are ignored, so cache files and journal
/// records from older builds still load.
std::optional<PointResult> point_from_json(std::string_view text);

/// CSV export: the header line and one row per point, both derived from one
/// column list.  Strings are quoted when they hold a comma, quote or newline.
std::string csv_header();
std::string csv_row(const PointResult& r);

/// Mean of a series (0.0 when empty) — the AVG rows of Figs. 8-10.
double mean_of(const std::vector<double>& xs);

/// On-disk memo cache: one JSON file per (canonical point, engine version)
/// hash.  lookup() verifies the stored canonical string, so a hash
/// collision or stale/corrupt file degrades to a miss, never a wrong
/// report.  store() writes via rename for atomicity against concurrent
/// sweeps sharing a cache directory.
///
/// Corruption is degraded-but-counted: a file that exists yet fails to
/// parse, stores a mismatched canonical, or carries a failed result is a
/// miss AND increments corrupt_entries() (surfaced in the sweep summary),
/// with the first offending path logged once per cache instance.  A stale
/// engine version is NOT corruption — it is the expected state after an
/// engine bump: a miss, counted separately in stale_entries() so the sweep
/// summary can tell "cold cache" from "cache predates the engine bump".
class MemoCache {
 public:
  explicit MemoCache(std::string dir);  // "" => disabled
  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  std::optional<PointResult> lookup(const SweepPoint& p) const;
  /// Best-effort; never throws (an I/O failure leaves the point uncached).
  void store(const PointResult& r) const;

  /// Corrupt/mismatched files encountered by lookup() on this instance.
  std::uint64_t corrupt_entries() const {
    return corrupt_.load(std::memory_order_relaxed);
  }

  /// Entries lookup() skipped because they were written by an older
  /// kEngineVersion (expected after an engine bump; not corruption).
  std::uint64_t stale_entries() const {
    return stale_.load(std::memory_order_relaxed);
  }

  static std::uint64_t key(const SweepPoint& p);

 private:
  std::string path_for(const SweepPoint& p) const;
  void note_corrupt(const std::string& path) const;
  std::string dir_;
  mutable std::atomic<std::uint64_t> corrupt_{0};
  mutable std::atomic<std::uint64_t> stale_{0};
  mutable std::atomic<bool> logged_corrupt_{false};
};

/// In-memory cross-experiment result cache for one CLI session: Figs. 8, 9,
/// 10 and Table 3 share their hybrid/cache runs, so a full-suite run
/// simulates each distinct point once.
class RunCache {
 public:
  std::optional<PointResult> lookup(const SweepPoint& p) const;
  void store(const PointResult& r);

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, PointResult> by_canonical_;
};

}  // namespace hm::driver
