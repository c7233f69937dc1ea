// Observability-layer tests: TraceSink JSON structural validity (a mini
// JSON parser checks every emitted file; spans properly nested per lane),
// run_sweep trace/profile artifacts and per-sweep worker lanes, the
// goldens-unchanged-with-tracing-on regression, the per-point progress
// callback, and the thread-safe logger.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "driver/experiment.hpp"
#include "driver/result.hpp"
#include "driver/sweep.hpp"
#include "obs/trace.hpp"

namespace {

using namespace hm;
using namespace hm::driver;

// ------------------------------------------------------- mini JSON parser --
// Strict recursive-descent parser over the full JSON value grammar — enough
// to certify that every emitted trace file is valid JSON and to walk its
// structure.  Throws std::runtime_error on any syntax violation.

struct JValue {
  enum class Kind { Null, Bool, Num, Str, Arr, Obj };
  Kind kind = Kind::Null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JValue> arr;
  std::vector<std::pair<std::string, JValue>> obj;

  const JValue* find(const std::string& key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JValue parse() {
    JValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON error at byte " + std::to_string(pos_) +
                             ": " + why);
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JValue v;
        v.kind = JValue::Kind::Str;
        v.str = string();
        return v;
      }
      case 't':
        literal("true");
        return make_bool(true);
      case 'f':
        literal("false");
        return make_bool(false);
      case 'n':
        literal("null");
        return JValue{};
      default: return number();
    }
  }

  static JValue make_bool(bool b) {
    JValue v;
    v.kind = JValue::Kind::Bool;
    v.b = b;
    return v;
  }

  void literal(const char* word) {
    if (s_.compare(pos_, std::strlen(word), word) != 0) fail("bad literal");
    pos_ += std::strlen(word);
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          for (int i = 0; i < 4; ++i)
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])))
              fail("bad \\u escape");
          pos_ += 4;
          out += '?';  // the code point itself does not matter to the tests
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    JValue v;
    v.kind = JValue::Kind::Num;
    char* end = nullptr;
    v.num = std::strtod(s_.c_str() + start, &end);
    if (end != s_.c_str() + pos_) fail("malformed number");
    return v;
  }

  JValue array() {
    expect('[');
    JValue v;
    v.kind = JValue::Kind::Arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JValue object() {
    expect('{');
    JValue v;
    v.kind = JValue::Kind::Obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Chrome-trace structural check: traceEvents is an array of objects with
/// name/ph/pid/tid; 'X' spans carry dur >= 0; per non-"res." lane, spans
/// are properly nested or disjoint ("res." lanes hold delay windows of
/// concurrent waiters, which overlap by design).  Returns the event count
/// (0 after ADD_FAILURE on a structural problem).
std::size_t validate_chrome_trace(const JValue& doc, const std::string& what) {
  if (doc.kind != JValue::Kind::Obj) {
    ADD_FAILURE() << what << ": top level is not an object";
    return 0;
  }
  const JValue* events = doc.find("traceEvents");
  if (events == nullptr || events->kind != JValue::Kind::Arr) {
    ADD_FAILURE() << what << ": no traceEvents array";
    return 0;
  }
  struct Span {
    double ts, end;
    std::string name;
  };
  using LaneKey = std::pair<double, double>;  // (pid, tid)
  std::map<LaneKey, std::vector<Span>> lanes;
  std::map<LaneKey, std::string> lane_names;
  for (std::size_t i = 0; i < events->arr.size(); ++i) {
    const JValue& e = events->arr[i];
    if (e.kind != JValue::Kind::Obj) {
      ADD_FAILURE() << what << " event " << i << " is not an object";
      continue;
    }
    const JValue* name = e.find("name");
    const JValue* ph = e.find("ph");
    const JValue* pid = e.find("pid");
    const JValue* tid = e.find("tid");
    if (name == nullptr || ph == nullptr || pid == nullptr || tid == nullptr ||
        ph->kind != JValue::Kind::Str || name->kind != JValue::Kind::Str) {
      ADD_FAILURE() << what << " event " << i << " lacks name/ph/pid/tid";
      continue;
    }
    const LaneKey lane{pid->num, tid->num};
    if (ph->str == "M") {
      if (name->str == "thread_name")
        if (const JValue* args = e.find("args"))
          if (const JValue* n = args->find("name")) lane_names[lane] = n->str;
      continue;
    }
    if (ph->str != "X" && ph->str != "i") {
      ADD_FAILURE() << what << " event " << i << " has ph=" << ph->str;
      continue;
    }
    const JValue* ts = e.find("ts");
    if (ts == nullptr || ts->kind != JValue::Kind::Num || ts->num < 0.0) {
      ADD_FAILURE() << what << " event " << i << " has a bad ts";
      continue;
    }
    if (ph->str == "X") {
      const JValue* dur = e.find("dur");
      if (dur == nullptr || dur->kind != JValue::Kind::Num || dur->num < 0.0) {
        ADD_FAILURE() << what << " span " << i << " has a bad dur";
        continue;
      }
      lanes[lane].push_back({ts->num, ts->num + dur->num, name->str});
    }
  }
  for (auto& [lane, spans] : lanes) {
    if (lane_names[lane].rfind("res.", 0) == 0) continue;
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.end > b.end;
    });
    std::vector<Span> stack;
    for (const Span& s : spans) {
      while (!stack.empty() && s.ts >= stack.back().end) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(s.end, stack.back().end)
            << what << ": lane " << lane_names[lane] << ": span '" << s.name
            << "' straddles '" << stack.back().name << "'";
      }
      stack.push_back(s);
    }
  }
  return events->arr.size();
}

/// A tiny real sweep (same shape as driver_test's) for artifact tests.
ExperimentSpec tiny_spec(double scale = 0.05) {
  ExperimentSpec s;
  s.name = "test_obs";
  s.title = "tiny observability-test sweep";
  s.scale = scale;
  Grid g;
  g.axes = {{"workload", {"CG", "EP"}},
            {"machine", {"hybrid_coherent", "cache_based"}}};
  s.grids = {g};
  return s;
}

class ObsSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hm_obs_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(seq_++));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
  static inline int seq_ = 0;
};

// ----------------------------------------------------------------- trace ---

TEST(TraceSink, EmitsValidChromeJson) {
  obs::TraceSink sink;
  const auto wall = obs::TraceSink::Track::Wall;
  const auto sim = obs::TraceSink::Track::Sim;
  const std::uint32_t w0 = sink.lane(wall, "worker0");
  const std::uint32_t t0 = sink.lane(sim, "tile0");
  EXPECT_EQ(sink.lane(wall, "worker0"), w0);  // interned, stable
  sink.span(wall, w0, "outer", 100, 50);
  sink.span(wall, w0, "inner \"quoted\"\n", 110, 10, "bytes", 4096.0);
  sink.instant(wall, w0, "mark", 160);
  sink.span(sim, t0, "tile.run", 0, 1000, "uops", 42.0);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 0u);

  const std::string json = sink.to_json();
  const JValue doc = JsonParser(json).parse();
  // 2 process_name + 2 thread_name metadata events + the 4 emitted ones.
  EXPECT_EQ(validate_chrome_trace(doc, "inline sink"), 8u);
  const JValue* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  const JValue* dropped = other->find("dropped_events");
  ASSERT_NE(dropped, nullptr) << "cap accounting must be visible";
  EXPECT_DOUBLE_EQ(dropped->num, 0.0);
}

TEST(TraceSink, WallClockClampsBeforeConstruction) {
  const auto before = std::chrono::steady_clock::now();
  obs::TraceSink sink;
  EXPECT_EQ(sink.to_us(before), 0u);
  EXPECT_GE(sink.to_us(std::chrono::steady_clock::now()),
            sink.to_us(before));
}

TEST(TraceSink, InstallationDrivesTracingActive) {
  ASSERT_FALSE(obs::tracing_active()) << "a previous test leaked a sink";
  {
    obs::TraceSink sink;
    obs::ScopedThreadSink guard(&sink);
    EXPECT_TRUE(obs::tracing_active());
    EXPECT_EQ(obs::thread_sink(), &sink);
    obs::sim_span("tile0", "phase.work", 0, 10);
    EXPECT_EQ(sink.size(), 1u);
  }
  EXPECT_FALSE(obs::tracing_active());
  EXPECT_EQ(obs::thread_sink(), nullptr);
  // Engine helpers are no-ops without a sink.
  obs::sim_span("tile0", "phase.work", 0, 10);
  obs::sim_instant("tile0", "mark", 5);
}

TEST(TraceSink, ResourceDelayRespectsThreshold) {
  obs::TraceSink sink;
  obs::ScopedThreadSink guard(&sink);
  obs::sim_resource_delay("l2_port", 100, obs::kDefaultSimDelayThreshold - 1);
  EXPECT_EQ(sink.size(), 0u) << "sub-threshold delay must be dropped";
  obs::sim_resource_delay("l2_port", 100, obs::kDefaultSimDelayThreshold);
  EXPECT_EQ(sink.size(), 1u);
}

// ------------------------------------------------- determinism regression --

TEST(TraceDeterminism, PointJsonBytesIdenticalWithTracingOn) {
  // THE golden regression for this layer: simulated results must be byte-
  // identical with and without an installed sink.  point_json serializes
  // every reported field, so comparing its bytes covers the whole report.
  SweepPoint p;
  p.label = "obs/regression";
  p.machine = "hybrid_coherent";
  p.workload = "CG";
  p.scale = 0.05;
  p.seed = kPaperSeed;

  const PointResult plain = run_point(p);
  obs::TraceSink sink;
  std::string traced_json;
  {
    obs::ScopedThreadSink guard(&sink);
    traced_json = point_json(run_point(p));
  }
  EXPECT_GT(sink.size(), 0u) << "tracing was supposed to be on";
  EXPECT_EQ(point_json(plain), traced_json);

  // Multi-core too: the DMA-bus and per-tile phase emitters run here.
  p.knobs["cores"] = "2";
  const std::string plain2 = point_json(run_point(p));
  obs::TraceSink sink2;
  {
    obs::ScopedThreadSink guard(&sink2);
    EXPECT_EQ(point_json(run_point(p)), plain2);
  }
  // Event counts are not monotone in cores (SPMD partitioning shrinks each
  // tile's stream) — just require the multi-core emitters actually fired.
  EXPECT_GT(sink2.size(), 0u);
}

// ---------------------------------------------------- run_sweep artifacts --

TEST_F(ObsSweepTest, WritesParsableTraceAndProfileArtifacts) {
  const ExperimentSpec spec = tiny_spec();
  SweepOptions opt;
  opt.jobs = 2;
  opt.trace_dir = (dir_ / "traces").string();
  const SweepOutcome out = run_sweep(spec, opt);
  ASSERT_EQ(out.failures, 0u);
  EXPECT_EQ(out.executed, 4u);
  EXPECT_GT(out.simulate_seconds, 0.0);
  EXPECT_GE(out.setup_seconds, 0.0);

  const std::filesystem::path exp_dir = dir_ / "traces" / "test_obs";
  ASSERT_TRUE(std::filesystem::is_directory(exp_dir));
  std::size_t point_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(exp_dir)) {
    const std::string name = entry.path().filename().string();
    const std::string text = slurp(entry.path());
    ASSERT_FALSE(text.empty()) << name;
    const JValue doc = JsonParser(text).parse();  // throws on bad JSON
    if (name.rfind("point_", 0) == 0) {
      ++point_files;
      EXPECT_GT(validate_chrome_trace(doc, name), 0u) << name;
    } else if (name == "sweep.trace.json") {
      validate_chrome_trace(doc, name);
    } else {
      ASSERT_EQ(name, "profile.json");
      const JValue* points = doc.find("points");
      ASSERT_NE(points, nullptr);
      EXPECT_EQ(points->arr.size(), 4u);
      for (const JValue& pt : points->arr) {
        EXPECT_NE(pt.find("label"), nullptr);
        EXPECT_NE(pt.find("simulate_seconds"), nullptr);
        EXPECT_NE(pt.find("sim_cycles"), nullptr);
      }
    }
  }
  EXPECT_EQ(point_files, 4u) << "one trace per executed point";
}

TEST_F(ObsSweepTest, SweepJsonBytesIdenticalWithTracingOn) {
  const ExperimentSpec spec = tiny_spec();
  SweepOptions plain;
  plain.jobs = 2;
  const std::string baseline = to_json(run_sweep(spec, plain));

  SweepOptions traced = plain;
  traced.trace_dir = (dir_ / "traces").string();
  EXPECT_EQ(to_json(run_sweep(spec, traced)), baseline);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "traces" / "test_obs" /
                                      "sweep.trace.json"));
}

/// Names of the sweep timeline's "worker..." lanes in @p trace_file.
std::set<std::string> worker_lanes(const std::filesystem::path& trace_file) {
  const JValue doc = JsonParser(slurp(trace_file)).parse();
  std::set<std::string> lanes;
  const JValue* events = doc.find("traceEvents");
  if (events == nullptr) return lanes;
  for (const JValue& e : events->arr) {
    const JValue* name = e.find("name");
    const JValue* args = e.find("args");
    if (name == nullptr || name->str != "thread_name" || args == nullptr) continue;
    if (const JValue* n = args->find("name"))
      if (n->str.rfind("worker", 0) == 0) lanes.insert(n->str);
  }
  return lanes;
}

TEST_F(ObsSweepTest, WorkerLanesAreNumberedPerSweep) {
  // Each sweep starts fresh worker threads; lanes must still read
  // worker0/worker1 in every sweep, not keep counting across sweeps.
  const ExperimentSpec spec = tiny_spec();
  for (const char* sub : {"a", "b"}) {
    SweepOptions opt;
    opt.jobs = 2;
    opt.trace_dir = (dir_ / sub).string();
    ASSERT_EQ(run_sweep(spec, opt).failures, 0u);
    const std::set<std::string> lanes =
        worker_lanes(dir_ / sub / "test_obs" / "sweep.trace.json");
    EXPECT_FALSE(lanes.empty()) << sub;
    for (const std::string& lane : lanes)
      EXPECT_TRUE(lane == "worker0" || lane == "worker1") << sub << ": " << lane;
  }
}

TEST_F(ObsSweepTest, ProgressSeesEveryExecutionAndIsExceptionGuarded) {
  const ExperimentSpec spec = tiny_spec();
  // A throwing callback fails no point and is still called for every
  // executed point.
  std::size_t calls = 0;  // the callback is serialized
  SweepOptions opt;
  opt.jobs = 2;
  opt.progress = [&](const PointResult&, std::size_t, std::size_t) {
    ++calls;
    throw std::runtime_error("observability must never kill a worker");
  };
  const SweepOutcome out = run_sweep(spec, opt);
  EXPECT_EQ(out.failures, 0u) << "throwing callback must not fail points";
  EXPECT_EQ(calls, 4u);

  // A well-behaved callback sees each executed point once, with done
  // counting 1..n.
  std::vector<std::size_t> dones;
  std::set<std::string> labels;
  std::size_t ok = 0;
  SweepOptions opt2;
  opt2.jobs = 2;
  opt2.progress = [&](const PointResult& r, std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 4u);
    dones.push_back(done);
    labels.insert(r.point.label);
    if (r.ok) ++ok;
  };
  const SweepOutcome out2 = run_sweep(spec, opt2);
  EXPECT_EQ(out2.failures, 0u);
  EXPECT_EQ(dones, (std::vector<std::size_t>{1, 2, 3, 4}));
  EXPECT_EQ(labels.size(), 4u);
  EXPECT_EQ(ok, 4u);
}

// ------------------------------------------------------------------- log ---

TEST(Log, ConcurrentWarningsDoNotTear) {
  constexpr int kThreads = 4;
  constexpr int kLines = 1000;
  ::testing::internal::CaptureStderr();
  std::vector<std::thread> threads;
  std::atomic<bool> go{false};
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&go, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kLines; ++i)
        HM_WARN("concurrent writer " << t << " line " << i);
    });
  go.store(true);
  for (std::thread& th : threads) th.join();
  const std::string err = ::testing::internal::GetCapturedStderr();

  // Every line whole: exactly one per call, each matching the format, and
  // every (writer, line) pair present once.
  std::set<std::string> seen;
  std::istringstream lines(err);
  for (std::string line; std::getline(lines, line);) {
    int t = -1, i = -1, used = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "[WARN] concurrent writer %d line %d%n", &t,
                          &i, &used),
              2)
        << line;
    ASSERT_EQ(static_cast<std::size_t>(used), line.size()) << line;
    EXPECT_TRUE(seen.insert(line).second) << "duplicate: " << line;
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kThreads * kLines));
  EXPECT_EQ(err.back(), '\n');  // the last line is whole too
}

}  // namespace
