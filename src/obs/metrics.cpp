#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "common/log.hpp"

namespace hm::obs {
namespace {

// Sanctioned unit/kind suffixes, mirrored by scripts/metrics_lint.py.
constexpr const char* kSuffixes[] = {
    "_total", "_seconds", "_cycles", "_bytes",  "_ratio",
    "_count", "_depth",   "_jobs",   "_workers", "_info",
    "_fraction", "_error",
};

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.rfind("hm_", 0) != 0) return false;
  for (char c : name)
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_'))
      return false;
  if (name.find("__") != std::string::npos) return false;
  for (const char* suffix : kSuffixes) {
    const std::string s(suffix);
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0)
      return true;
  }
  return false;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  sum_ += v;
  ++count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sum_;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return count_;
}

std::vector<std::uint64_t> Histogram::cumulative() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::uint64_t> out(counts_.size());
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    running += counts_[i];
    out[i] = running;
  }
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = [] {
    auto* r = new MetricsRegistry();
    register_builtin_metrics(*r);
    return r;
  }();
  return *reg;
}

MetricsRegistry::Family& MetricsRegistry::family(const std::string& name,
                                                 const std::string& help,
                                                 MetricType type) {
  if (!valid_metric_name(name))
    throw std::invalid_argument(
        "metric name '" + name +
        "' violates lint: hm_-prefixed snake_case with a unit suffix "
        "(_total/_seconds/_cycles/_bytes/_ratio/_count/_depth/_jobs/"
        "_workers/_info/_fraction/_error)");
  for (Family& f : families_)
    if (f.name == name) {
      if (f.type != type)
        throw std::invalid_argument("metric '" + name +
                                    "' re-registered with a different type");
      return f;
    }
  families_.push_back(Family{name, help, type, {}, {}});
  return families_.back();
}

MetricsRegistry::Instance& MetricsRegistry::instance(Family& f,
                                                     const std::string& labels) {
  for (Instance& i : f.instances)
    if (i.labels == labels) return i;
  f.instances.push_back(Instance{labels, nullptr, nullptr, nullptr});
  Instance& i = f.instances.back();
  switch (f.type) {
    case MetricType::kCounter: i.counter = std::make_unique<Counter>(); break;
    case MetricType::kGauge: i.gauge = std::make_unique<Gauge>(); break;
    case MetricType::kHistogram:
      i.histogram = std::make_unique<Histogram>(f.bounds);
      break;
  }
  return i;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const std::string& labels) {
  std::lock_guard<std::mutex> lk(mu_);
  return *instance(family(name, help, MetricType::kCounter), labels).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const std::string& labels) {
  std::lock_guard<std::mutex> lk(mu_);
  return *instance(family(name, help, MetricType::kGauge), labels).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> bounds,
                                      const std::string& labels) {
  std::lock_guard<std::mutex> lk(mu_);
  Family& f = family(name, help, MetricType::kHistogram);
  if (f.instances.empty()) f.bounds = std::move(bounds);
  return *instance(f, labels).histogram;
}

std::string MetricsRegistry::expose() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  out.reserve(families_.size() * 256);
  for (const Family& f : families_) {
    out += "# HELP " + f.name + " " + f.help + "\n";
    out += "# TYPE " + f.name + " ";
    switch (f.type) {
      case MetricType::kCounter: out += "counter\n"; break;
      case MetricType::kGauge: out += "gauge\n"; break;
      case MetricType::kHistogram: out += "histogram\n"; break;
    }
    for (const Instance& i : f.instances) {
      const std::string braces =
          i.labels.empty() ? "" : "{" + i.labels + "}";
      if (f.type == MetricType::kCounter) {
        out += f.name + braces + " ";
        append_double(out, i.counter->value());
        out += "\n";
      } else if (f.type == MetricType::kGauge) {
        out += f.name + braces + " ";
        append_double(out, i.gauge->value());
        out += "\n";
      } else {
        const auto cum = i.histogram->cumulative();
        const auto& bounds = i.histogram->bounds();
        for (std::size_t b = 0; b < cum.size(); ++b) {
          out += f.name + "_bucket{";
          if (!i.labels.empty()) out += i.labels + ",";
          out += "le=\"";
          if (b < bounds.size())
            append_double(out, bounds[b]);
          else
            out += "+Inf";
          out += "\"} ";
          char buf[24];
          std::snprintf(buf, sizeof buf, "%llu",
                        static_cast<unsigned long long>(cum[b]));
          out += buf;
          out += "\n";
        }
        out += f.name + "_sum" + braces + " ";
        append_double(out, i.histogram->sum());
        out += "\n" + f.name + "_count" + braces + " ";
        char buf[24];
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(i.histogram->count()));
        out += buf;
        out += "\n";
      }
    }
  }
  return out;
}

bool MetricsRegistry::write_file(const std::string& path) const {
  const std::string text = expose();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    HM_WARN("metrics: cannot open " << tmp << " for writing");
    return false;
  }
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    HM_WARN("metrics: short write to " << tmp);
    std::remove(tmp.c_str());
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    HM_WARN("metrics: rename " << tmp << " -> " << path
                               << " failed: " << ec.message());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

void MetricsRegistry::reset_for_test() {
  std::lock_guard<std::mutex> lk(mu_);
  families_.clear();
}

void register_builtin_metrics(MetricsRegistry& reg) {
  // Fixed registration order => deterministic exposition order.  All
  // driver-side code only *updates* these; creation happens here, on one
  // thread, before any sweep runs.
  const std::vector<double> wall_bounds = {0.001, 0.005, 0.01, 0.05, 0.1,
                                           0.5,   1.0,   5.0,  10.0, 60.0};
  reg.counter("hm_sweep_points_total", "Sweep points executed (cache misses)");
  reg.counter("hm_sweep_point_failures_total",
              "Points quarantined after exhausting retries");
  reg.counter("hm_sweep_point_timeouts_total",
              "Points cancelled by the watchdog deadline");
  reg.counter("hm_sweep_point_retries_total",
              "Point attempts beyond the first");
  reg.counter("hm_sweep_cache_hits_total", "Memo-cache hits");
  reg.counter("hm_sweep_cache_misses_total", "Memo-cache misses");
  reg.gauge("hm_sweep_cache_hit_ratio",
            "Memo-cache hits / (hits + misses) for the last sweep");
  reg.counter("hm_journal_records_written_total",
              "Journal records appended across all sweeps");
  reg.counter("hm_journal_records_skipped_total",
              "Corrupt/torn journal records skipped during load");
  reg.gauge("hm_scheduler_workers", "Worker threads in the last sweep");
  reg.gauge("hm_scheduler_queue_depth",
            "Points not yet finished in the current sweep");
  reg.gauge("hm_scheduler_worker_utilization_ratio",
            "Aggregate point-execution seconds / (workers x sweep wall "
            "seconds) for the last sweep");
  reg.histogram("hm_point_wall_seconds",
                "End-to-end wall time per executed point", wall_bounds);
  for (const char* phase : {"setup", "codegen", "simulate", "serialize"})
    reg.histogram("hm_point_phase_seconds", "Wall time per point phase",
                  wall_bounds, std::string("phase=\"") + phase + "\"");
  reg.counter("hm_occupancy_delay_cycles_total",
              "Simulated cycles points spent queued on shared uncore "
              "resources (sum over executed points)");
  reg.counter("hm_sim_cycles_total",
              "Simulated cycles across all executed points");
  reg.histogram("hm_sampled_fraction",
                "Fraction of uops replayed functionally per executed point "
                "(sampled engine only)",
                {0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99});
  reg.histogram("hm_sample_error",
                "Reported relative cycle error bound per executed point "
                "(sampled engine only)",
                {0.0, 0.0025, 0.005, 0.01, 0.02, 0.05, 0.1});
  reg.counter("hm_noc_messages_total",
              "Interconnect messages traversed across executed points "
              "(topology machines only)");
  reg.counter("hm_noc_hops_total",
              "Interconnect router hops across executed points");
  reg.counter("hm_noc_flits_total",
              "Interconnect payload flits across executed points");
  reg.counter("hm_noc_link_queue_cycles_total",
              "Simulated cycles messages spent queued on interconnect links "
              "(sum over executed points)");
}

}  // namespace hm::obs
