#include "driver/faults.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#include "common/hash.hpp"

namespace hm::driver {

namespace {

// The installed plan.  A plain pointer flipped under a mutex: installs are
// rare (startup / test setup), reads are the hot path and use a relaxed
// atomic so an empty harness costs one load per hook.
std::mutex g_plan_mu;
FaultPlan g_plan_storage;
std::atomic<const FaultPlan*> g_plan{nullptr};

FaultSite parse_site(std::string_view s) {
  if (s == "sweep_worker") return FaultSite::SweepWorker;
  if (s == "cache_store") return FaultSite::CacheStore;
  if (s == "report_serialize") return FaultSite::ReportSerialize;
  if (s == "journal_append") return FaultSite::JournalAppend;
  throw std::invalid_argument("fault plan: unknown site '" + std::string(s) + "'");
}

FaultKind parse_kind(std::string_view s) {
  if (s == "engine") return FaultKind::Engine;
  if (s == "config") return FaultKind::Config;
  if (s == "corrupt") return FaultKind::Corrupt;
  if (s == "crash") return FaultKind::Crash;
  throw std::invalid_argument("fault plan: unknown kind '" + std::string(s) + "'");
}

std::uint64_t parse_u64(std::string_view rule, std::string_view v) {
  std::size_t used = 0;
  const std::string s(v);
  unsigned long long out = 0;
  try {
    out = std::stoull(s, &used, 10);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != s.size() || s.empty())
    throw std::invalid_argument("fault plan: bad integer '" + s + "' in rule '" +
                                std::string(rule) + "'");
  return out;
}

double parse_rate(std::string_view rule, std::string_view v) {
  std::size_t used = 0;
  const std::string s(v);
  double out = 0.0;
  try {
    out = std::stod(s, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != s.size() || s.empty() || !(out > 0.0) || out > 1.0)
    throw std::invalid_argument("fault plan: rate must be in (0,1] in rule '" +
                                std::string(rule) + "'");
  return out;
}

}  // namespace

std::string_view to_string(FaultSite site) {
  switch (site) {
    case FaultSite::SweepWorker: return "sweep_worker";
    case FaultSite::CacheStore: return "cache_store";
    case FaultSite::ReportSerialize: return "report_serialize";
    case FaultSite::JournalAppend: return "journal_append";
  }
  return "?";
}

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::Engine: return "engine";
    case FaultKind::Config: return "config";
    case FaultKind::Corrupt: return "corrupt";
    case FaultKind::Crash: return "crash";
  }
  return "?";
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view rule_text = spec.substr(pos, end - pos);
    pos = end + 1;
    if (rule_text.empty()) continue;  // tolerate empty segments / trailing ';'

    // Split on ':' — first two fields are site and kind, the rest k=v.
    std::vector<std::string_view> fields;
    std::size_t fpos = 0;
    while (fpos <= rule_text.size()) {
      std::size_t fend = rule_text.find(':', fpos);
      if (fend == std::string_view::npos) fend = rule_text.size();
      fields.push_back(rule_text.substr(fpos, fend - fpos));
      fpos = fend + 1;
    }
    if (fields.size() < 2)
      throw std::invalid_argument("fault plan: rule '" + std::string(rule_text) +
                                  "' needs at least site:kind");
    Rule rule;
    rule.site = parse_site(fields[0]);
    rule.kind = parse_kind(fields[1]);
    for (std::size_t f = 2; f < fields.size(); ++f) {
      const std::string_view field = fields[f];
      const std::size_t eq = field.find('=');
      if (eq == std::string_view::npos)
        throw std::invalid_argument("fault plan: expected key=value, got '" +
                                    std::string(field) + "' in rule '" +
                                    std::string(rule_text) + "'");
      const std::string_view key = field.substr(0, eq);
      const std::string_view value = field.substr(eq + 1);
      if (key == "point") rule.point = parse_u64(rule_text, value);
      else if (key == "label") rule.label_substr = std::string(value);
      else if (key == "rate") rule.rate = parse_rate(rule_text, value);
      else if (key == "seed") rule.seed = parse_u64(rule_text, value);
      else
        throw std::invalid_argument("fault plan: unknown field '" + std::string(key) +
                                    "' in rule '" + std::string(rule_text) + "'");
    }
    plan.rules_.push_back(std::move(rule));
  }
  return plan;
}

std::optional<FaultKind> FaultPlan::decide(FaultSite site, const FaultContext& ctx) const {
  for (const Rule& rule : rules_) {
    if (rule.site != site) continue;
    if (rule.point && *rule.point != ctx.index) continue;
    if (!rule.label_substr.empty() &&
        ctx.label.find(rule.label_substr) == std::string_view::npos)
      continue;
    if (rule.rate > 0.0) {
      // Seeded-rate selection keyed by the point's identity (label hash x
      // index), never by scheduling: the same plan selects the same points
      // at any --jobs value.
      const std::uint64_t h = splitmix64_mix(rule.seed ^ fnv1a64(ctx.label) ^
                                             (ctx.index + 1) * kGoldenGamma);
      const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
      if (unit >= rule.rate) continue;
    }
    return rule.kind;
  }
  return std::nullopt;
}

void install_fault_plan(FaultPlan plan) {
  const std::lock_guard<std::mutex> lock(g_plan_mu);
  // Readers only ever observe nullptr or a fully constructed plan: clear
  // the pointer before mutating the storage.
  g_plan.store(nullptr, std::memory_order_release);
  g_plan_storage = std::move(plan);
  if (!g_plan_storage.empty())
    g_plan.store(&g_plan_storage, std::memory_order_release);
}

const FaultPlan* active_fault_plan() {
  return g_plan.load(std::memory_order_acquire);
}

std::optional<FaultKind> trigger_fault(FaultSite site, const FaultContext& ctx) {
  const FaultPlan* plan = active_fault_plan();
  if (plan == nullptr) return std::nullopt;
  const std::optional<FaultKind> kind = plan->decide(site, ctx);
  if (!kind) return std::nullopt;

  const std::string where = "injected " + std::string(to_string(*kind)) +
                            " fault at " + std::string(to_string(site)) +
                            " (point " + std::string(ctx.label) + ")";
  switch (*kind) {
    case FaultKind::Engine: throw std::runtime_error(where);
    case FaultKind::Config: throw std::invalid_argument(where);
    case FaultKind::Crash:
      // SIGKILL stand-in: no unwinding, no atexit, no flushing — whatever
      // the journal had not made durable is lost, exactly like a kill -9.
      std::_Exit(137);
    case FaultKind::Corrupt: return kind;  // the site applies it
  }
  return std::nullopt;
}

}  // namespace hm::driver
