// Sweep orchestration: expand a spec, resolve memo-cache hits, run the
// remaining points on the atomic-index pool (run_indexed), and emit tables /
// JSON / CSV.  The correctness anchor: for any experiment, the per-point
// results (and therefore every emitted byte) are identical for any
// `jobs` value and any cache state.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "driver/experiment.hpp"
#include "driver/result.hpp"

namespace hm::driver {

/// Simulate one expanded point on @p engine.  A pure function of the point
/// and the engine: throws for unknown machine/workload names, for the
/// `fail=1` test knob and, when engine.max_cycles is set, with
/// CycleBudgetExceeded — run_sweep turns each into a quarantined result.
/// Engine knobs never enter the point's canonical identity: the default
/// engine IS the serial reference, and configurations that change results
/// (engine_alters_results) are kept out of caches/journals by run_sweep.
/// Knobs understood (absent => default_knobs() value):
///   cores         tile count (NAS kernels only): the workload is
///                 SPMD-partitioned across the tiles of a System(cfg, N)
///                 and run with an end-of-stream barrier; cores=1 replays
///                 the historical single-core streams bit-for-bit
///   dir_entries   coherence-directory entry count (and compile max_buffers)
///   prefetch      on/off: L1/L2/L3 stream prefetchers
///   readonly_opt  on/off: off = always-write-back instead of double store
///   micro_mode    Baseline/RD/WR/RDWR (workload "micro" only)
///   micro_pct     % of guarded references (workload "micro" only)
/// Unknown knobs are inert axis markers.  NAS kernels compile against the
/// hybrid machine's LM geometry on every machine kind, so address streams
/// match across variants.
PointResult run_point(const SweepPoint& p, const EngineConfig& engine = {});

struct SweepOptions {
  unsigned jobs = 0;                     ///< worker threads; 0 = auto (host cores)
  std::string cache_dir;                 ///< on-disk memo cache; "" = off
  RunCache* session_cache = nullptr;     ///< cross-experiment in-memory cache
  std::optional<double> scale_override;  ///< quick-look rescale (not the paper tables)
  /// Knob overrides applied to every expanded point (e.g. hm_sweep
  /// --topology / --mesh-dim).  Unlike engine knobs these CHANGE the
  /// simulated machine, so they enter the canonical point identity: a
  /// value equal to default_knobs() is elided (identity unchanged — the
  /// flat default stays byte-identical), anything else is recorded in the
  /// point's knob map and therefore in cache/journal keys.
  std::map<std::string, std::string> knob_overrides;
  /// Called once per EXECUTED point (not cache hits or resumed replays),
  /// after that point's journal append, with the monotonic count of
  /// executed points so far.  Serialized under one mutex, so the callback
  /// may keep plain (non-atomic) state; anything it throws is swallowed
  /// and it keeps being called — observability never fails a sweep.
  std::function<void(const PointResult&, std::size_t done, std::size_t total)>
      progress;

  /// Engine for every executed point (see hm::EngineConfig).  Elided from
  /// the canonical point identity — cache and journal keys are engine-
  /// independent — which is sound because the default engine IS the serial
  /// reference.  When the configuration can change results
  /// (engine_alters_results: sampling or a finite quantum), run_sweep
  /// disables the disk cache, the session cache and the journal for the
  /// sweep so approximate numbers never contaminate exact ones.  A point
  /// that overruns engine.max_cycles is recorded as ErrorClass::Timeout.
  EngineConfig engine;

  // Crash safety.  A non-empty journal_dir appends every finished point to
  // dir/<experiment>.jsonl as it lands (checksummed, torn-tail tolerant);
  // resume=true replays intact journal records before consulting caches,
  // so a SIGKILLed sweep re-runs only what had not finished.  Replay is
  // byte-exact: the resumed sweep's JSON/CSV equal an uninterrupted run's.
  std::string journal_dir;  ///< "" = journaling off
  bool resume = false;      ///< replay journal records for this spec first

  // Observability (src/obs).  A non-empty trace_dir writes Chrome
  // trace_event JSON under trace_dir/<experiment>/: one point_NNNN.trace.json
  // per executed point (simulated-cycle engine timelines + wall phase
  // spans), a sweep.trace.json for driver-level events (job lifecycle,
  // journal appends, cache hits) and a profile.json with
  // per-point phase attribution.  Tracing never perturbs simulated results
  // — emitted JSON/CSV is byte-identical with tracing on or off.
  std::string trace_dir;  ///< "" = tracing off
};

struct SweepOutcome {
  ExperimentSpec spec;  ///< a copy: the outcome outlives the caller's spec
  std::vector<PointResult> points;  ///< slot i == SweepPoint::index i
  std::size_t cache_hits = 0;
  std::size_t failures = 0;       ///< quarantined points (any error class)
  std::size_t timeouts = 0;       ///< subset of failures: ErrorClass::Timeout
  std::size_t resumed = 0;        ///< points replayed from the journal
  std::size_t journal_skipped = 0;  ///< torn/corrupt/stale journal records (--resume)
  std::size_t cache_corrupt = 0;  ///< corrupt memo-cache files (degraded to misses)
  std::size_t stale_entries = 0;  ///< memo-cache entries skipped: older engine version
  double wall_seconds = 0.0;  ///< diagnostics only; never serialized
  // Phase attribution summed over EXECUTED points (cache hits and resumed
  // points did not run, so they contribute nothing).  Diagnostics only;
  // never serialized into JSON/CSV.
  std::size_t executed = 0;  ///< points actually simulated this run
  double setup_seconds = 0.0;
  double codegen_seconds = 0.0;
  double simulate_seconds = 0.0;
  double serialize_seconds = 0.0;
};

SweepOutcome run_sweep(const ExperimentSpec& spec, const SweepOptions& opt = {});

/// Results + lookup helpers handed to ExperimentSpec::render.
struct SweepView {
  const ExperimentSpec& spec;
  const std::vector<PointResult>& points;

  /// First point matching every (key, value): "machine"/"workload" match
  /// the fields, anything else the knob (with default_knobs() fallback).
  const PointResult* find(
      const std::vector<std::pair<std::string, std::string>>& match) const;

  /// Like find(), but throws std::runtime_error when the point is missing
  /// or failed — renderers degrade to an error listing instead of a table.
  const RunReport& report(
      const std::vector<std::pair<std::string, std::string>>& match) const;
};

/// "\n==== title ====\n" banner + the spec's table (or an error listing
/// when points the renderer needs failed).
std::string render(const SweepOutcome& out);
std::string to_json(const SweepOutcome& out);
std::string to_csv(const SweepOutcome& out);

}  // namespace hm::driver
