// Deterministic fault-injection harness for the sweep driver.
//
// A FaultPlan is a list of rules, each naming an injection SITE (a fixed
// hook compiled into the driver), a fault KIND, and a deterministic
// selector (point index, label substring, or a seeded rate).  Selection is
// a pure function of (rule, site, point identity) — never of wall clock,
// thread id or scheduling order — so any failure CI observes replays
// byte-for-byte from the same spec string, at any `--jobs` value.
//
// Spec grammar (';'-separated rules; fields after site:kind are optional
// and order-free):
//
//   rule  := site ':' kind (':' field)*
//   site  := sweep_worker | cache_store | report_serialize | journal_append
//   kind  := engine | config | corrupt | crash
//   field := 'point=' INDEX     match one expansion index
//          | 'label=' SUBSTR    match labels containing SUBSTR
//          | 'rate=' P          seeded pseudo-random selection, P in (0,1]
//          | 'seed=' S          rate selector's seed (default 0)
//
// Examples:
//   sweep_worker:engine:label=CG              quarantine every CG point
//   sweep_worker:config:point=3               config error at index 3
//   cache_store:corrupt:rate=0.5:seed=7       corrupt half the cache files
//   sweep_worker:crash:point=5                _Exit(137) mid-sweep
//
// Activation: hm_sweep installs a plan from `--faults SPEC` or the
// HM_FAULTS environment variable; tests install one programmatically via
// ScopedFaultPlan.  With no plan installed every hook is a single relaxed
// atomic load.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hm::driver {

enum class FaultSite : std::uint8_t {
  SweepWorker,      ///< just before a point simulates (driver/sweep.cpp)
  CacheStore,       ///< after MemoCache::store installs a file
  ReportSerialize,  ///< entry of to_json / to_csv
  JournalAppend,    ///< SweepJournal::append (torn-record injection)
};

enum class FaultKind : std::uint8_t {
  Engine,   ///< throw std::runtime_error (quarantined)
  Config,   ///< throw std::invalid_argument (quarantined)
  Corrupt,  ///< site-specific data corruption (file garbling / torn record)
  Crash,    ///< std::_Exit(137) — a mid-run SIGKILL stand-in
};

std::string_view to_string(FaultSite site);
std::string_view to_string(FaultKind kind);

/// Identity of one potential injection, from the site's point of view.
struct FaultContext {
  std::string_view label;   ///< point label ("" when not point-scoped)
  std::uint64_t index = 0;  ///< point expansion index
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parse a spec string (see grammar above).  Throws std::invalid_argument
  /// with a precise message on any malformed rule — a typo in HM_FAULTS
  /// must be a loud usage error, never a silently inert plan.
  static FaultPlan parse(std::string_view spec);

  bool empty() const { return rules_.empty(); }

  /// First matching rule's kind for this site/context, or nullopt.  Pure:
  /// identical inputs always decide identically.
  std::optional<FaultKind> decide(FaultSite site, const FaultContext& ctx) const;

 private:
  struct Rule {
    FaultSite site = FaultSite::SweepWorker;
    FaultKind kind = FaultKind::Engine;
    std::optional<std::uint64_t> point;  ///< expansion-index selector
    std::string label_substr;            ///< label selector ("" = any)
    double rate = 0.0;                   ///< (0,1] => seeded-rate selector
    std::uint64_t seed = 0;
  };
  std::vector<Rule> rules_;
};

/// Install @p plan process-wide (replacing any previous one); pass an empty
/// plan to clear.  The installed plan must outlive its use — hm_sweep
/// installs once at startup; tests use ScopedFaultPlan.
void install_fault_plan(FaultPlan plan);

/// The active plan, or nullptr when none is installed (the fast path).
const FaultPlan* active_fault_plan();

/// Evaluate the active plan at @p site and ACT on throw/crash kinds:
/// Engine/Config throw their exception, Crash calls std::_Exit(137).
/// Corrupt — the only data-level kind — is returned for the site to apply
/// to its own output.  Returns nullopt when no rule fires.
std::optional<FaultKind> trigger_fault(FaultSite site, const FaultContext& ctx);

/// RAII plan installation for tests: installs on construction, clears on
/// destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan) { install_fault_plan(std::move(plan)); }
  explicit ScopedFaultPlan(std::string_view spec) : ScopedFaultPlan(FaultPlan::parse(spec)) {}
  ~ScopedFaultPlan() { install_fault_plan(FaultPlan{}); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace hm::driver
