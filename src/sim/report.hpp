// Formatting helpers that regenerate the paper's tables and figure series
// from RunReports, plus the RunReport field list (visit_report) the sweep
// driver's JSON/CSV emission, journal and memo cache are built on.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "sim/system.hpp"

namespace hm {

/// Version stamp for serialized reports and the sweep memo cache.  Bump it
/// whenever an engine change (timing model, energy model, workload
/// synthesis) alters any simulated metric — or the serialized schema — so
/// stale cached reports are never mistaken for current ones.
/// v2: tile-based multicore — RunReport carries per-tile sections.
/// v3: full-run occupancy model for the shared L2/L3 ports, DRAM and the
///     DMA bus — multi-tile contention tightened beyond the old ring
///     window, and RunReport carries per-resource contention sections.
inline constexpr std::uint64_t kEngineVersion = 3;

/// A serialized member: its key and where it lives in @p T.
template <class T, class M>
struct FieldOf {
  const char* key;
  M T::*member;
};

/// Contention's sub-keys, in emission order.  A resource's JSON keys and
/// CSV columns are `<resource>_<sub-key>`.
inline constexpr FieldOf<Contention, std::uint64_t> kContentionFields[] = {
    {"requests", &Contention::requests},
    {"delayed", &Contention::delayed},
    {"queue_cycles", &Contention::queue_cycles},
    {"peak_occupancy", &Contention::peak_occupancy},
    {"overflows", &Contention::overflows},
};

/// The machine-wide shared resources every report carries (JSON and CSV).
inline constexpr FieldOf<RunReport, ResourceContention> kSharedResources[] = {
    {"l2_port", &RunReport::l2_port},
    {"l3_port", &RunReport::l3_port},
    {"dram", &RunReport::dram},
    {"dma_bus", &RunReport::dma_bus},
};

/// The activity counters, with their JSON keys.  System::run sums exactly
/// these over the tiles.
inline constexpr FieldOf<ActivityCounts, std::uint64_t> kActivityCounters[] = {
    {"act_l1", &ActivityCounts::l1_activity},
    {"act_l2", &ActivityCounts::l2_activity},
    {"act_l3", &ActivityCounts::l3_activity},
    {"act_mem", &ActivityCounts::mem_accesses},
    {"act_lm", &ActivityCounts::lm_accesses},
    {"act_dir_lookups", &ActivityCounts::dir_lookups},
    {"act_dir_updates", &ActivityCounts::dir_updates},
    {"act_fetch_groups", &ActivityCounts::fetch_groups},
    {"act_uops", &ActivityCounts::uops},
    {"act_regfile_reads", &ActivityCounts::regfile_reads},
    {"act_regfile_writes", &ActivityCounts::regfile_writes},
    {"act_int_ops", &ActivityCounts::int_ops},
    {"act_fp_ops", &ActivityCounts::fp_ops},
    {"act_branches", &ActivityCounts::branches},
    {"act_mem_uops", &ActivityCounts::mem_uops},
    {"act_replay_uops", &ActivityCounts::replay_uops},
    {"act_flushed_slots", &ActivityCounts::flushed_slots},
    {"act_prefetch_trainings", &ActivityCounts::prefetch_trainings},
    {"act_prefetch_issues", &ActivityCounts::prefetch_issues},
    {"act_dma_lines", &ActivityCounts::dma_lines},
    {"act_bus_transfers", &ActivityCounts::bus_transfers},
};

/// The RunReport serialization, defined once: a walk over every serialized
/// field in emission order, calling io.field(key, member).  Writing and
/// reading are the two instantiations, so they cannot disagree on a key.
/// The sampling diagnostics (sample_error, sampled_fraction) are not part
/// of it.
void visit_report(const RunReport& report, JsonWriter& io);
void visit_report(RunReport& report, FieldReader& io);

/// Append every RunReport field as `"key":value` pairs (comma-separated, no
/// surrounding braces) in a fixed order, doubles printed at full round-trip
/// precision — byte-stable for identical reports across runs and thread
/// counts.
void append_report_fields(std::string& out, const RunReport& report);

/// Inverse of append_report_fields.  Fields missing from @p fields default
/// to zero, so reports serialized by older engine versions parse (the memo
/// cache rejects them by version before it ever gets here).
RunReport report_from_fields(const FieldMap& fields);

/// One row of Table 3 ("Activity in the memory subsystem").
struct Table3Row {
  std::string benchmark;
  std::string mode;               ///< "Hybrid coherent" / "Cache-based"
  std::string guarded_refs;       ///< e.g. "1/7 (14%)"
  double amat = 0.0;
  double l1_hit_ratio = 0.0;
  std::uint64_t l1_accesses = 0;  ///< in thousands, like the paper
  std::uint64_t l2_accesses = 0;
  std::uint64_t l3_accesses = 0;
  std::uint64_t lm_accesses = 0;
  std::uint64_t directory_accesses = 0;
};

Table3Row make_table3_row(const std::string& benchmark, const std::string& mode,
                          unsigned guarded, unsigned total_refs, const RunReport& report);

std::string format_table3(const std::vector<Table3Row>& rows);

/// Fig. 9-style row: normalized execution time split into phases.
struct PhaseSplit {
  double work = 0.0;
  double synch = 0.0;
  double control = 0.0;
  double total() const { return work + synch + control; }
};

PhaseSplit phase_split(const RunReport& report, Cycle normalize_to);

/// Fig. 10-style row: normalized energy split into components.
struct EnergySplit {
  double cpu = 0.0;
  double caches = 0.0;
  double lm = 0.0;
  double others = 0.0;
  double total() const { return cpu + caches + lm + others; }
};

EnergySplit energy_split(const RunReport& report, PicoJoule normalize_to);

}  // namespace hm
