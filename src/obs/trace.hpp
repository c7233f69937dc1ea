// Trace-event timelines: allocation-light sinks recording typed spans and
// instants on two tracks — wall-clock microseconds (pid 0) and simulated
// cycles (pid 1) — exported as Chrome trace_event JSON (chrome://tracing,
// Perfetto).
//
// Cost model when disabled (the default): every emit site in the engine
// guards on tracing_active(), a single relaxed atomic load of a global
// sink count.  No sink installed -> one predictable-not-taken branch on
// the hot path, A/B-verified within bench noise (scripts/perf_gate.py
// --obs-overhead).  Tracing must NEVER perturb simulated results: sinks
// only observe cycle numbers the engine already computed.
//
// Two installation scopes:
//   * thread sink  (thread_local) — one per in-flight sweep point, so
//     events from concurrently running points never interleave and each
//     point gets its own trace file;
//   * sweep sink   (process-global, atomic pointer) — driver-level events
//     (scheduler job lifecycle, journal appends, cache hits) that span
//     the whole sweep.
// Engine emit helpers (sim_span / sim_instant / sim_resource_delay) write
// to the thread sink; driver code talks to a TraceSink it owns directly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace hm::obs {

// Simulated-cycle resource-delay windows shorter than this are dropped at
// the emit site: a handful of cycles of queueing is ubiquitous and would
// swamp the trace with noise events.
inline constexpr Cycle kDefaultSimDelayThreshold = 32;

// Hard cap on buffered events per sink.  Never a silent cap: overflow is
// counted and surfaced both in the JSON metadata and by
// scripts/trace_summary.py.
inline constexpr std::size_t kMaxEventsPerSink = std::size_t{1} << 20;

class TraceSink {
 public:
  // Tracks map to Chrome trace "processes".
  enum class Track : std::uint8_t { Wall = 0, Sim = 1 };

  struct Event {
    const char* name;     // static string or interned via intern()
    char phase;           // 'X' complete span, 'i' instant
    Track track;
    std::uint32_t tid;    // lane id within the track
    std::uint64_t ts;     // µs (Wall) or cycles (Sim)
    std::uint64_t dur;    // span length; 0 for instants
    const char* arg_key;  // optional single numeric arg (nullptr = none)
    double arg_val;
  };

  TraceSink();
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // --- lanes -------------------------------------------------------------
  // A lane is a named row (Chrome "thread") within a track.  Lane names
  // are interned; repeated lookups of the same name return the same id.
  std::uint32_t lane(Track track, const std::string& name);

  // Interns an arbitrary string so its lifetime matches the sink (event
  // name/arg_key fields are raw pointers).  Static literals need no intern.
  const char* intern(const std::string& s);

  // --- emission (thread-safe) -------------------------------------------
  void span(Track track, std::uint32_t lane_id, const char* name,
            std::uint64_t ts, std::uint64_t dur,
            const char* arg_key = nullptr, double arg_val = 0.0);
  void instant(Track track, std::uint32_t lane_id, const char* name,
               std::uint64_t ts,
               const char* arg_key = nullptr, double arg_val = 0.0);

  // --- wall clock helpers ------------------------------------------------
  // Monotonic µs since the sink was constructed; all Wall-track timestamps
  // use this origin so a sweep's point traces share one time base only
  // within a sink.
  std::uint64_t now_us() const;
  // Convert a steady_clock timepoint (taken independently of the sink) to
  // this sink's µs origin.  Timepoints before construction clamp to 0.
  std::uint64_t to_us(std::chrono::steady_clock::time_point tp) const;

  // --- export ------------------------------------------------------------
  std::size_t size() const;
  std::size_t dropped() const;
  // Chrome trace JSON: {"traceEvents":[...],"displayTimeUnit":"ms",
  // "otherData":{...}}.  Deterministic given the same event sequence.
  std::string to_json() const;
  // tmp + atomic rename; returns false (and logs) on I/O error.
  bool write_file(const std::string& path) const;

 private:
  void push(const Event& e);

  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::vector<std::pair<std::uint8_t, std::string>> lanes_;  // (track, name)
  std::deque<std::string> interned_;  // deque: c_str() stable across growth
  std::atomic<std::size_t> dropped_{0};
  std::int64_t epoch_ns_;  // steady_clock origin
};

// ---------------------------------------------------------------------------
// Global enablement + installation.

// True iff at least one sink (thread or sweep, anywhere in the process) is
// installed.  Single relaxed load: THE hot-path check.
bool tracing_active() noexcept;

// Per-thread sink (the in-flight sweep point's).  May be null.
TraceSink* thread_sink() noexcept;
// Installs/uninstalls; pass nullptr to clear.  Returns the previous sink.
TraceSink* set_thread_sink(TraceSink* sink) noexcept;

// Process-wide sweep sink for driver-level events.  May be null.
TraceSink* sweep_sink() noexcept;
TraceSink* set_sweep_sink(TraceSink* sink) noexcept;

// RAII installers (restore the previous sink on destruction).
class ScopedThreadSink {
 public:
  explicit ScopedThreadSink(TraceSink* sink) : prev_(set_thread_sink(sink)) {}
  ~ScopedThreadSink() { set_thread_sink(prev_); }
  ScopedThreadSink(const ScopedThreadSink&) = delete;
  ScopedThreadSink& operator=(const ScopedThreadSink&) = delete;

 private:
  TraceSink* prev_;
};

class ScopedSweepSink {
 public:
  explicit ScopedSweepSink(TraceSink* sink) : prev_(set_sweep_sink(sink)) {}
  ~ScopedSweepSink() { set_sweep_sink(prev_); }
  ScopedSweepSink(const ScopedSweepSink&) = delete;
  ScopedSweepSink& operator=(const ScopedSweepSink&) = delete;

 private:
  TraceSink* prev_;
};

// ---------------------------------------------------------------------------
// Out-of-line engine hooks.  Call sites guard on tracing_active() first so
// the disabled path never takes a call; these helpers re-check the thread
// sink and are no-ops without one.

// Simulated-cycle span on the current thread's sink.
void sim_span(const char* lane, const char* name, Cycle start, Cycle dur,
              const char* arg_key = nullptr, double arg_val = 0.0);
// Simulated-cycle instant.
void sim_instant(const char* lane, const char* name, Cycle at,
                 const char* arg_key = nullptr, double arg_val = 0.0);
// Resource-contention delay window [when, when+delay) on lane
// "res.<resource>"; dropped below kDefaultSimDelayThreshold.  Windows of
// concurrent waiters may overlap within the lane (two requests queued on
// the same port at overlapping times) — the trace validator exempts
// "res.*" lanes from its span-nesting check for exactly this reason.
void sim_resource_delay(const char* resource, Cycle when, Cycle delay);

}  // namespace hm::obs
