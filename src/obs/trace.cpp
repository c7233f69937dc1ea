#include "obs/trace.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "common/atomic_file.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace hm::obs {
namespace {

// Count of installed sinks anywhere in the process.  tracing_active() is a
// single relaxed load of this; exact ordering does not matter because a
// stale read only costs one skipped (or one wasted-but-harmless) emit
// around install/uninstall edges, never a data race: emission itself is
// mutex-serialized per sink.
std::atomic<int> g_active{0};

thread_local TraceSink* t_thread_sink = nullptr;

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

TraceSink::TraceSink() {
  events_.reserve(1024);
  epoch_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
}

TraceSink::~TraceSink() = default;

std::uint32_t TraceSink::lane(Track track, const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto t = static_cast<std::uint8_t>(track);
  for (std::uint32_t i = 0; i < lanes_.size(); ++i)
    if (lanes_[i].first == t && lanes_[i].second == name) return i;
  lanes_.emplace_back(t, name);
  return static_cast<std::uint32_t>(lanes_.size() - 1);
}

const char* TraceSink::intern(const std::string& s) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& existing : interned_)
    if (existing == s) return existing.c_str();
  interned_.push_back(s);
  return interned_.back().c_str();
}

void TraceSink::push(const Event& e) {
  std::lock_guard<std::mutex> lk(mu_);
  if (events_.size() >= kMaxEventsPerSink) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(e);
}

void TraceSink::span(Track track, std::uint32_t lane_id, const char* name,
                     std::uint64_t ts, std::uint64_t dur,
                     const char* arg_key, double arg_val) {
  push(Event{name, 'X', track, lane_id, ts, dur, arg_key, arg_val});
}

void TraceSink::instant(Track track, std::uint32_t lane_id, const char* name,
                        std::uint64_t ts, const char* arg_key, double arg_val) {
  push(Event{name, 'i', track, lane_id, ts, 0, arg_key, arg_val});
}

std::uint64_t TraceSink::now_us() const {
  return to_us(std::chrono::steady_clock::now());
}

std::uint64_t TraceSink::to_us(std::chrono::steady_clock::time_point tp) const {
  const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              tp.time_since_epoch())
                              .count() -
                          epoch_ns_;
  return ns <= 0 ? 0 : static_cast<std::uint64_t>(ns) / 1000;
}

std::size_t TraceSink::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_.size();
}

std::size_t TraceSink::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::string TraceSink::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  out.reserve(events_.size() * 96 + 1024);
  out += "{\"traceEvents\":[";
  bool first = true;
  char buf[160];
  // Track (pid) metadata: names the two time bases.
  static constexpr const char* kTrackNames[2] = {"wall (us)", "sim (cycles)"};
  for (int pid = 0; pid < 2; ++pid) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", pid, kTrackNames[pid]);
    out += buf;
    first = false;
  }
  // Lane (tid) metadata.
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":%u,\"args\":{\"name\":\"",
                  static_cast<unsigned>(lanes_[i].first), i);
    out += buf;
    append_json_escaped(out, lanes_[i].second);
    out += "\"}}";
  }
  for (const Event& e : events_) {
    out += ",{\"name\":\"";
    append_json_escaped(out, e.name);
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"%c\",\"pid\":%u,\"tid\":%u,\"ts\":%" PRIu64,
                  e.phase, static_cast<unsigned>(e.track), e.tid, e.ts);
    out += buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof buf, ",\"dur\":%" PRIu64, e.dur);
      out += buf;
    }
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    if (e.arg_key != nullptr) {
      out += ",\"args\":{\"";
      append_json_escaped(out, e.arg_key);
      out += "\":";
      append_double(out, e.arg_val);
      out += "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"hm_sweep\""
         ",\"dropped_events\":";
  std::snprintf(buf, sizeof buf, "%zu", dropped_.load(std::memory_order_relaxed));
  out += buf;
  out += "}}";
  return out;
}

bool TraceSink::write_file(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  switch (write_file_atomic(path, tmp, to_json(), &ec)) {
    case WriteStage::Ok: return true;
    case WriteStage::Open: HM_WARN("trace: cannot open " << tmp << " for writing"); break;
    case WriteStage::Write: HM_WARN("trace: short write to " << tmp); break;
    case WriteStage::Rename:
      HM_WARN("trace: rename " << tmp << " -> " << path << " failed: " << ec.message());
      break;
  }
  return false;
}

// ---------------------------------------------------------------------------

bool tracing_active() noexcept {
  return g_active.load(std::memory_order_relaxed) != 0;
}

TraceSink* thread_sink() noexcept { return t_thread_sink; }

TraceSink* set_thread_sink(TraceSink* sink) noexcept {
  TraceSink* prev = t_thread_sink;
  t_thread_sink = sink;
  if (sink != nullptr && prev == nullptr) g_active.fetch_add(1, std::memory_order_relaxed);
  if (sink == nullptr && prev != nullptr) g_active.fetch_sub(1, std::memory_order_relaxed);
  return prev;
}

// ---------------------------------------------------------------------------

void sim_span(const char* lane, const char* name, Cycle start, Cycle dur,
              const char* arg_key, double arg_val) {
  TraceSink* s = t_thread_sink;
  if (s == nullptr) return;
  const std::uint32_t id = s->lane(TraceSink::Track::Sim, lane);
  s->span(TraceSink::Track::Sim, id, name, start, dur, arg_key, arg_val);
}

void sim_instant(const char* lane, const char* name, Cycle at,
                 const char* arg_key, double arg_val) {
  TraceSink* s = t_thread_sink;
  if (s == nullptr) return;
  const std::uint32_t id = s->lane(TraceSink::Track::Sim, lane);
  s->instant(TraceSink::Track::Sim, id, name, at, arg_key, arg_val);
}

void sim_resource_delay(const char* resource, Cycle when, Cycle delay) {
  if (delay < kDefaultSimDelayThreshold) return;
  TraceSink* s = t_thread_sink;
  if (s == nullptr) return;
  char lane[48];
  std::snprintf(lane, sizeof lane, "res.%s", resource);
  const std::uint32_t id = s->lane(TraceSink::Track::Sim, lane);
  s->span(TraceSink::Track::Sim, id, "stall", when, delay, "cycles",
          static_cast<double>(delay));
}

}  // namespace hm::obs
